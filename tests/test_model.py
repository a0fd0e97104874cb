import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigcn import data, geom, graph, model, nnet

from conftest import random_cloud, tiny_config
from test_geom import dilated_knn


def tiny_net(**overrides):
    return model.RiGcnModel(tiny_config(**overrides))


def gather(pts, anchors, ks, ds):
    """Patch gather fed as FPS feeds it: anchor rows with canonical columns.
    Returns (flat_knn, offsets, flat_dilated, offsets)."""
    order = geom.canonical_order(pts)
    pos = np.argsort(order)[anchors]
    d2 = geom.squared_distances(pts)[anchors][:, order]
    off, (flat1, flatd) = model._gather_patches(d2, order, pos, ks, (1, ds))
    return flat1, off, flatd, off


class TestConfig:
    def test_default_pyramid_matches_1024(self):
        cfg = model.RiGcnConfig(num_points=1024)
        assert cfg.resolved_level_sizes() == (512, 128, 32)
        assert cfg.resolved_channels() == (64, 128, 256)

    def test_level_count_bounds(self):
        with pytest.raises(model.ConfigError):
            model.RiGcnConfig(levels=5).validate()
        with pytest.raises(model.ConfigError):
            model.RiGcnConfig(levels=0).validate()

    def test_sizes_must_decrease(self):
        cfg = tiny_config(level_sizes=(24, 24))
        with pytest.raises(model.ConfigError):
            cfg.validate()

    def test_level0_cannot_exceed_cloud(self):
        with pytest.raises(model.ConfigError):
            tiny_config(level_sizes=(65, 8)).validate()

    def test_round_trip_through_json(self):
        cfg = tiny_config()
        again = model.from_dict(model.RiGcnConfig, json.loads(json.dumps(asdict(cfg))), "model")
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(model.ConfigError):
            model.from_dict(model.RiGcnConfig, {"bogus": 1}, "model")

    @pytest.mark.parametrize("field", ["k_range", "d_range", "khat_range"])
    @pytest.mark.parametrize("bounds", [(0, 3), (5, 4)])
    def test_empty_or_nonpositive_interval_rejected(self, field, bounds):
        with pytest.raises(model.ConfigError):
            tiny_config(**{field: bounds}).validate()


class TestDrawInterval:
    def test_midpoint_when_deterministic(self):
        np.testing.assert_array_equal(model.draw_interval((24, 40), 3, None, False), [32] * 3)
        np.testing.assert_array_equal(model.draw_interval((1, 4), 2, None, False), [2, 2])

    def test_degenerate_interval(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(model.draw_interval((7, 7), 5, rng, True), [7] * 5)

    def test_seeded_determinism(self):
        a = model.draw_interval((16, 48), 10, np.random.default_rng(5), True)
        b = model.draw_interval((16, 48), 10, np.random.default_rng(5), True)
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_samples_stay_in_interval(self, seed):
        out = model.draw_interval((3, 9), 50, np.random.default_rng(seed), True)
        assert out.shape == (50,)
        assert out.min() >= 3 and out.max() <= 9


class TestExtractDescriptors:
    def test_shapes_and_axis_invariants(self, cloud, tiny_model):
        desc = model.extract_descriptors(tiny_model, cloud, None, False)
        m0 = tiny_model.config.resolved_level_sizes()[0]
        assert desc.points.shape == (m0, 3)
        assert desc.axes.shape == (m0, 3, 3)
        assert desc.features.value.shape == (m0, tiny_model.config.resolved_channels()[0])
        dets = np.linalg.det(desc.axes)
        np.testing.assert_allclose(dets, np.ones(m0), atol=1e-9)

    def test_identity_rotation_bitwise_equal(self, cloud, tiny_model):
        a = model.extract_descriptors(tiny_model, cloud, None, False)
        b = model.extract_descriptors(tiny_model, geom.rotate(cloud, np.eye(3)), None, False)
        np.testing.assert_array_equal(a.features.value, b.features.value)

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_rotation_invariance(self, seed):
        net = tiny_net()
        pts = random_cloud(seed, 64)
        rot = geom.random_rotation(np.random.default_rng(seed + 1), "so3")
        a = model.extract_descriptors(net, pts, None, False).features.value
        b = model.extract_descriptors(net, geom.rotate(pts, rot), None, False).features.value
        assert np.abs(a - b).max() <= 1e-5 * (1 + np.abs(a).max())

    def test_duplicating_unused_point_changes_nothing(self):
        # find a cloud point that is neither selected nor inside any used
        # candidate prefix, duplicate it, and expect bitwise equality
        net = tiny_net(levels=1, level_sizes=(6,), channels=(8,), k_range=(3, 3), d_range=(1, 1))
        pts = random_cloud(3, 64)
        sel, _, _ = geom.farthest_point_sampling(pts, 6)
        used = set(sel.tolist())
        for anchor in sel:
            cand = geom.sorted_candidates(pts, int(anchor))
            used.update(cand[: 2 * 1 + 2].tolist())
        free = [i for i in range(len(pts)) if i not in used]
        assert free, "fixture cloud leaves no unused point; pick another seed"
        bigger = np.vstack([pts, pts[free[0]]])
        a = model.extract_descriptors(net, pts, None, False)
        b = model.extract_descriptors(net, bigger, None, False)
        np.testing.assert_array_equal(a.features.value, b.features.value)

    def test_cloud_smaller_than_level0_rejected(self, tiny_model):
        with pytest.raises(model.ConfigError):
            model.extract_descriptors(tiny_model, random_cloud(0, 16), None, False)

    def test_patch_gather_matches_single_anchor_op(self):
        pts = random_cloud(11, 40)
        anchors = np.array([0, 7, 31])
        ks = np.array([5, 3, 7])
        ds = np.array([2, 1, 3])
        flat1, off1, flatd, offd = gather(pts, anchors, ks, ds)
        for i, (a, k, d) in enumerate(zip(anchors, ks, ds)):
            knn = dilated_knn(pts, int(a), int(k), 1)
            dil = dilated_knn(pts, int(a), int(k), int(d))
            np.testing.assert_array_equal(flat1[off1[i] : off1[i + 1]], knn)
            np.testing.assert_array_equal(flatd[offd[i] : offd[i + 1]], dil)

    def test_patch_gather_matches_on_tie_heavy_grid(self):
        xs = np.arange(5, dtype=np.float64)
        pts = np.array([[x, y, 0.0] for x in xs for y in xs])
        anchors = np.arange(len(pts))
        ks = np.full(len(pts), 4)
        ds = np.full(len(pts), 2)
        flat1, off1, flatd, offd = gather(pts, anchors, ks, ds)
        for i in range(len(pts)):
            knn = dilated_knn(pts, i, 4, 1)
            dil = dilated_knn(pts, i, 4, 2)
            np.testing.assert_array_equal(flat1[off1[i] : off1[i + 1]], knn)
            np.testing.assert_array_equal(flatd[offd[i] : offd[i + 1]], dil)


    @pytest.mark.parametrize("k, d", [(3, 1), (5, 1), (4, 2), (6, 2)])
    def test_patch_gather_matches_when_a_tie_straddles_the_prefix(self, k, d):
        # Integer grid with a duplicated point: distance shells hold 4-6
        # points, so the last used position ties with unused candidates.
        pts = np.array([[x, y, z] for x in range(4) for y in range(4) for z in range(3)], float)
        pts = np.vstack([pts, pts[17]])
        pts = pts[np.random.default_rng(2).permutation(len(pts))]
        sel, d2, order, pos, _ = model._sample(pts, 12, None)
        ks = np.full(len(sel), k)
        ds = np.full(len(sel), d)
        off1, (flat1, flatd) = model._gather_patches(d2, order, pos, ks, (1, ds))
        offd = off1
        for i, a in enumerate(sel):
            knn = dilated_knn(pts, int(a), k, 1)
            dil = dilated_knn(pts, int(a), k, d)
            np.testing.assert_array_equal(flat1[off1[i] : off1[i + 1]], knn)
            np.testing.assert_array_equal(flatd[offd[i] : offd[i + 1]], dil)


    @pytest.mark.parametrize("k, d", [(3, 1), (10, 1), (20, 1), (3, 2), (6, 2), (10, 2)])
    def test_patch_gather_matches_on_heavy_ties_at_the_grid_centre(self, k, d):
        # Around the centre of a 5x5x5 grid, 6, 12 and 8 candidates tie at
        # distances 1, sqrt(2) and sqrt(3); each used prefix (k for the k-NN
        # patch, (k - 1) * d + 1 for the dilated one) ends inside one group.
        pts = np.array([[x, y, z] for x in range(5) for y in range(5) for z in range(5)], float)
        pts = pts[np.random.default_rng(4).permutation(len(pts))]
        anchors = np.arange(len(pts))
        ks = np.full(len(pts), k)
        ds = np.full(len(pts), d)
        flat1, off1, flatd, offd = gather(pts, anchors, ks, ds)
        for i in anchors:
            knn = dilated_knn(pts, int(i), k, 1)
            dil = dilated_knn(pts, int(i), k, d)
            np.testing.assert_array_equal(flat1[off1[i] : off1[i + 1]], knn)
            np.testing.assert_array_equal(flatd[offd[i] : offd[i + 1]], dil)


class TestQuantizedScan:
    def test_no_fallback_and_bitwise_permutation_invariance(self, monkeypatch):
        def fail(*args):
            raise AssertionError("production path took the single-anchor fallback")

        monkeypatch.setattr(geom, "sorted_candidates", fail)
        rng = np.random.default_rng(5)
        cube = geom.normalize_unit_sphere(data.FAMILIES["cube"](rng, 1024))
        rotated = geom.rotate(cube, geom.random_rotation(rng, "so3"))
        pts = np.round(rotated * 32) / 32
        net = tiny_net(
            num_points=1024,
            levels=3,
            level_sizes=(128, 32, 8),
            channels=(8, 16, 16),
            k_range=(8, 16),
            d_range=(1, 2),
            khat_range=(4, 8),
        )
        out = model.logits(net, pts)
        assert np.all(np.isfinite(out))
        perm = rng.permutation(len(pts))
        np.testing.assert_array_equal(model.logits(net, pts[perm]), out)


class TestExtendDescriptors:
    def test_axes_are_reused_bitwise(self, cloud, tiny_model):
        d0 = model.extract_descriptors(tiny_model, cloud, None, False)
        d1 = model.extend_descriptors(tiny_model, d0, 1, None, False)
        sel, _, _ = geom.farthest_point_sampling(d0.points, len(d1.points))
        np.testing.assert_array_equal(d1.axes, d0.axes[sel])
        np.testing.assert_array_equal(d1.points, d0.points[sel])

    def test_points_nest_across_levels(self, cloud, tiny_model):
        d0 = model.extract_descriptors(tiny_model, cloud, None, False)
        d1 = model.extend_descriptors(tiny_model, d0, 1, None, False)
        level0 = {tuple(p) for p in d0.points}
        assert all(tuple(p) in level0 for p in d1.points)

    @given(st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_rotation_invariance_propagates(self, seed):
        net = tiny_net()
        pts = random_cloud(seed, 64)
        rot = geom.random_rotation(np.random.default_rng(seed + 2), "so3")
        a = model.extend_descriptors(
            net, model.extract_descriptors(net, pts, None, False), 1, None, False
        ).features.value
        b = model.extend_descriptors(
            net, model.extract_descriptors(net, geom.rotate(pts, rot), None, False), 1, None, False
        ).features.value
        assert np.abs(a - b).max() <= 1e-5 * (1 + np.abs(a).max())

    def test_size_monotonicity_enforced(self, cloud):
        net = tiny_net(level_sizes=(24, 8))
        d0 = model.extract_descriptors(net, cloud, None, False)
        with pytest.raises(model.ConfigError):
            model.extend_descriptors(
                model.RiGcnModel(tiny_config(level_sizes=(24, 25), levels=2)), d0, 1, None, False
            )


class TestAbstractLevel:
    def test_permutation_of_rows_keeps_summary(self, cloud, tiny_model):
        desc = model.extract_descriptors(tiny_model, cloud, None, False)
        out = model.abstract_level(tiny_model, desc, None, False)
        perm = np.random.default_rng(0).permutation(len(desc.points))
        permuted = model.DescriptorSet(
            level=desc.level,
            points=desc.points[perm],
            axes=desc.axes[perm],
            features=nnet.constant(desc.features.value[perm]),
            block=desc.block[np.ix_(perm, perm)],
        )
        out_p = model.abstract_level(tiny_model, permuted, None, False)
        np.testing.assert_allclose(out.value, out_p.value, atol=1e-12)

    def test_mlp_ablation_with_identity_weight(self, cloud):
        net = tiny_net(abstraction="mlp")
        c0 = net.config.resolved_channels()[0]
        net.gcn_w[0].value[...] = np.eye(c0)
        desc = model.extract_descriptors(net, cloud, None, False)
        out = model.abstract_level(net, desc, None, False)
        expected = np.maximum(desc.features.value, 0.0).max(axis=0, keepdims=True)
        np.testing.assert_array_equal(out.value, expected)

    def test_gcn_and_mlp_differ_on_two_nodes(self):
        # distance 2 between the two nodes; the kernel bandwidth equals that
        # distance, so the single edge weight is exp(-1/2)
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        feats = np.array([[2.0], [0.0]])
        w = np.exp(-0.5)
        a_hat = graph.renormalize(graph.build_knn_graph(pts, geom.squared_distances(pts), 1))
        expected_gcn = np.maximum(a_hat @ feats, 0.0).max()
        gcn_net = tiny_net(levels=1, level_sizes=(24,), channels=(2,), khat_range=(1, 1))
        mlp_net = tiny_net(
            levels=1, level_sizes=(24,), channels=(2,), khat_range=(1, 1), abstraction="mlp"
        )
        for net in (gcn_net, mlp_net):
            net.gcn_w[0].value[...] = np.eye(2)
        desc = model.DescriptorSet(
            level=0,
            points=pts,
            axes=np.broadcast_to(np.eye(3), (2, 3, 3)).copy(),
            features=nnet.constant(np.hstack([feats, np.zeros((2, 1))])),
            block=geom.squared_distances(pts),
        )
        out_gcn = model.abstract_level(gcn_net, desc, None, False).value[0, 0]
        out_mlp = model.abstract_level(mlp_net, desc, None, False).value[0, 0]
        assert out_gcn == pytest.approx(2.0 / (1 + w), abs=1e-12)
        assert out_gcn == pytest.approx(expected_gcn, abs=1e-15)
        assert out_mlp == 2.0
        assert out_gcn != out_mlp

    def test_single_node_rejected(self, tiny_model):
        desc = model.DescriptorSet(
            level=0,
            points=np.zeros((1, 3)),
            axes=np.eye(3)[None],
            features=nnet.constant(np.zeros((1, 8))),
            block=np.zeros((1, 1)),
        )
        with pytest.raises(graph.DegenerateGraphError):
            model.abstract_level(tiny_model, desc, None, False)


class TestLevelGraph:
    @staticmethod
    def level(index, **overrides):
        """A config and one level's descriptors of a 64-point cloud; levels
        0 and 1 of the tiny config hold 24 and 8 points."""
        net = tiny_net(**overrides)
        return net.config, model.level_descriptors(net, random_cloud(1, 64))[index]

    def build(self, desc, khat):
        return graph.build_knn_graph(desc.points, desc.block, khat)

    def test_stochastic_khat_is_drawn_from_the_generator(self):
        cfg, desc = self.level(0, khat_range=(2, 8))
        for seed in range(10):
            got = model.level_graph(cfg, desc, np.random.default_rng(seed), True)
            khat = int(np.random.default_rng(seed).integers(2, 9))
            np.testing.assert_array_equal(got, self.build(desc, khat))

    def test_midpoint_when_deterministic(self):
        cfg, desc = self.level(0, khat_range=(2, 8))
        np.testing.assert_array_equal(model.level_graph(cfg, desc, None, False), self.build(desc, 5))

    def test_midpoint_when_khat_toggle_is_off(self):
        cfg, desc = self.level(0, khat_range=(2, 8), stochastic_khat=False)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(model.level_graph(cfg, desc, rng, True), self.build(desc, 5))
        assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)

    def test_small_top_level_clamps_the_interval(self):
        # 8 nodes allow khat <= 7, so (4, 8) draws from (4, 7), midpoint 5.
        cfg, desc = self.level(1, khat_range=(4, 8))
        assert len(desc.points) == 8
        for seed in range(20):
            got = model.level_graph(cfg, desc, np.random.default_rng(seed), True)
            khat = int(np.random.default_rng(seed).integers(4, 8))
            np.testing.assert_array_equal(got, self.build(desc, khat))
        np.testing.assert_array_equal(model.level_graph(cfg, desc, None, False), self.build(desc, 5))


class TestForward:
    def test_logit_shape_and_determinism(self, cloud, tiny_model):
        a = model.logits(tiny_model, cloud)
        b = model.logits(tiny_model, cloud)
        assert a.shape == (4,)
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 400))
    @settings(max_examples=20, deadline=None)
    def test_rotation_invariance_end_to_end(self, seed):
        net = tiny_net()
        pts = random_cloud(seed, 64)
        rot = geom.random_rotation(np.random.default_rng(seed + 13), "so3")
        a = model.logits(net, pts)
        b = model.logits(net, geom.rotate(pts, rot))
        assert np.abs(a - b).max() <= 1e-5 * (1 + np.abs(a).max())
        if np.sort(a)[-1] - np.sort(a)[-2] > 1e-4:
            assert np.argmax(a) == np.argmax(b)

    @given(st.integers(0, 400))
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance_end_to_end(self, seed):
        net = tiny_net()
        pts = random_cloud(seed, 64)
        perm = np.random.default_rng(seed + 17).permutation(len(pts))
        np.testing.assert_allclose(
            model.logits(net, pts), model.logits(net, pts[perm]), atol=1e-8
        )

    def test_global_transform_scope_is_invariant_too(self, cloud):
        net = tiny_net(transform_scope="global")
        rot = geom.random_rotation(np.random.default_rng(5), "so3")
        a = model.logits(net, cloud)
        b = model.logits(net, geom.rotate(cloud, rot))
        assert np.abs(a - b).max() <= 1e-5 * (1 + np.abs(a).max())

    def test_single_logit_head_runs(self, cloud):
        net = tiny_net(num_classes=1)
        out = model.logits(net, cloud)
        assert out.shape == (1,)
        assert np.isfinite(out).all()

    def test_level_count_variants_run(self, cloud):
        for levels, sizes, chans in (
            (1, (24,), (8,)),
            (2, (24, 8), (8, 16)),
            (3, (24, 12, 5), (8, 16, 16)),
            (4, (24, 12, 6, 3), (8, 8, 16, 16)),
        ):
            net = tiny_net(levels=levels, level_sizes=sizes, channels=chans)
            assert np.isfinite(model.logits(net, cloud)).all()

    def test_stochastic_forward_is_seeded(self, cloud, tiny_model):
        a = model.forward(tiny_model, cloud, np.random.default_rng(3), True).value
        b = model.forward(tiny_model, cloud, np.random.default_rng(3), True).value
        np.testing.assert_array_equal(a, b)

    def test_full_model_gradient_check(self, cloud, tiny_model):
        def loss_fn():
            return nnet.cross_entropy(model.forward(tiny_model, cloud, None, False), 1)

        err = nnet.gradient_check(loss_fn, tiny_model.parameters(), eps=1e-6)
        assert err <= 1e-5


class TestTrainEvaluate:
    def _toy_data(self, n_clouds=12, n_points=48):
        rng = np.random.default_rng(2)
        clouds, labels = [], []
        for i in range(n_clouds):
            scale = 0.5 if i % 2 == 0 else 1.0
            clouds.append(scale * random_cloud(100 + i, n_points))
            labels.append(i % 2)
        return clouds, np.array(labels)

    def test_zero_learning_rate_keeps_parameters(self, tiny_model):
        clouds, labels = self._toy_data()
        before = [p.value.copy() for p in tiny_model.parameters()]
        state = nnet.OptimizerState(learning_rate=0.0)
        metrics = model.train_epoch(
            tiny_model, clouds, labels, "none", state, np.random.default_rng(0)
        )
        assert np.isfinite(metrics.mean_loss)
        for p, b in zip(tiny_model.parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_same_seed_reproduces_training(self):
        clouds, labels = self._toy_data()

        def run():
            net = tiny_net(num_classes=2)
            state = nnet.OptimizerState()
            out = [
                model.train_epoch(net, clouds, labels, "z", state, np.random.default_rng(4))
                for _ in range(2)
            ]
            return out, [p.value.copy() for p in net.parameters()]

        (m_a, p_a), (m_b, p_b) = run(), run()
        assert m_a == m_b
        for a, b in zip(p_a, p_b):
            np.testing.assert_array_equal(a, b)

    def test_toy_set_is_learnable(self):
        clouds, labels = self._toy_data(24)
        net = tiny_net(num_classes=2)
        state = nnet.OptimizerState()
        rng = np.random.default_rng(6)
        acc = 0.0
        for _ in range(20):
            acc = model.train_epoch(net, clouds, labels, "so3", state, rng).accuracy
            if acc >= 0.95:
                break
        assert acc >= 0.95

    def test_evaluate_mode_equality_by_invariance(self, tiny_model):
        clouds, labels = self._toy_data(8)
        results = {
            mode: model.evaluate(tiny_model, clouds, labels, mode, np.random.default_rng(1))
            for mode in ("none", "z", "so3")
        }
        base = results["none"].predictions
        for mode in ("z", "so3"):
            np.testing.assert_array_equal(results[mode].predictions, base)

    def test_untrained_model_near_chance(self):
        rng = np.random.default_rng(9)
        clouds = [random_cloud(200 + i, 48) for i in range(200)]
        labels = rng.integers(0, 4, size=200)
        net = tiny_net()
        result = model.evaluate(net, clouds, labels, "none", None)
        sigma = np.sqrt(0.25 * 0.75 / 200)
        assert abs(result.accuracy - 0.25) <= 3 * sigma + 1e-9

    def test_empty_split_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            model.evaluate(tiny_model, [], np.array([]), "none", None)

    def test_per_class_accounting(self, tiny_model):
        clouds, labels = self._toy_data(10)
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1])
        result = model.evaluate(tiny_model, clouds, labels, "none", None)
        assert result.per_class_total.sum() == 10
        assert result.per_class_correct.sum() == round(result.accuracy * 10)

    def test_divergence_is_reported_with_sample(self, tiny_model):
        clouds, labels = self._toy_data(4)
        tiny_model.clf[0].value[...] = np.nan
        with pytest.raises(nnet.TrainingDivergenceError):
            model.train_epoch(
                tiny_model, clouds, labels, "none", nnet.OptimizerState(), np.random.default_rng(0)
            )


# The header of a checkpoint of tiny_config(levels=1, level_sizes=(24,),
# channels=(8,)): a format change must show up here.
CHECKPOINT_HEADER = (
    '{"config":{"abstraction":"gcn","channels":[8],"classifier_hidden":12,"d_range":[1,2],'
    '"g_hidden":6,"k_range":[4,6],"khat_range":[3,5],"level_sizes":[24],"levels":1,'
    '"num_classes":4,"num_points":64,"seed":0,"stochastic_d":true,"stochastic_k":true,'
    '"stochastic_khat":true,"transform_scope":"local"},"params":['
    '{"name":"l0.g1.w0","shape":[3,6]},{"name":"l0.g1.b0","shape":[1,6]},'
    '{"name":"l0.g1.w1","shape":[6,4]},{"name":"l0.g1.b1","shape":[1,4]},'
    '{"name":"l0.g2.w0","shape":[3,6]},{"name":"l0.g2.b0","shape":[1,6]},'
    '{"name":"l0.g2.w1","shape":[6,4]},{"name":"l0.g2.b1","shape":[1,4]},'
    '{"name":"l0.f.w0","shape":[8,8]},{"name":"l0.f.b0","shape":[1,8]},'
    '{"name":"l0.f.w1","shape":[8,8]},{"name":"l0.f.b1","shape":[1,8]},'
    '{"name":"l0.gcn","shape":[8,8]},'
    '{"name":"clf.w0","shape":[8,12]},{"name":"clf.b0","shape":[1,12]},'
    '{"name":"clf.w1","shape":[12,4]},{"name":"clf.b1","shape":[1,4]}],"version":1}'
)


class TestCheckpointRoundTrip:
    def test_header_is_pinned(self, tmp_path):
        path = tmp_path / "m.ckpt"
        net = tiny_net(levels=1, level_sizes=(24,), channels=(8,))
        model.save_model(net, path)
        raw = path.read_bytes()
        assert raw[:7] == b"RIGCN1\n"
        size = int.from_bytes(raw[7:15], "little")
        assert raw[15 : 15 + size].decode() == CHECKPOINT_HEADER
        n_values = sum(p.value.size for p in net.parameters())
        assert len(raw) == 15 + size + 8 * n_values == 4675

    def test_save_load_bitwise(self, tmp_path, tiny_model):
        path = tmp_path / "m.ckpt"
        model.save_model(tiny_model, path)
        again = model.load_model(path)
        assert again.config == tiny_model.config
        for a, b in zip(again.parameters(), tiny_model.parameters()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value, b.value)

    def test_forward_identical_after_round_trip(self, tmp_path, tiny_model, cloud):
        path = tmp_path / "m.ckpt"
        model.save_model(tiny_model, path)
        np.testing.assert_array_equal(
            model.logits(tiny_model, cloud), model.logits(model.load_model(path), cloud)
        )
