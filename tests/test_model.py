import hashlib
import json
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigcn import cli, data, environment, geom, graph, model, nnet

from conftest import laid_out, random_cloud, tiny_config
from test_geom import brute_force_fps, dilated_knn
from test_graph import knn_graph


ROOT = Path(__file__).resolve().parent.parent


def tiny_net(**overrides):
    return model.RiGcnModel(tiny_config(**overrides))


def desk_grid_cloud(num_points: int) -> np.ndarray:
    """An SO(3)-rotated generic cloud snapped to a 1/32 grid, whose exact
    distance ties decide patch and graph cuts: the grid cloud of
    ``test_inference_is_pinned``."""
    rotation = geom.random_rotation(np.random.default_rng(3), "so3")
    return np.round(geom.rotate(random_cloud(3, num_points), rotation) * 32) / 32


def gather(pts, anchors, ks, ds):
    """Patch gather fed as FPS feeds it: the anchors' distance rows.
    Returns (flat_knn, offsets, flat_dilated, offsets)."""
    d2 = geom.squared_distances(pts)[anchors]
    off, (flat1, flatd) = model._gather_patches(d2, anchors, ks, (1, ds))
    return flat1, off, flatd, off


class TestConfig:
    def test_default_pyramid_matches_1024(self):
        cfg = model.RiGcnConfig()
        assert cfg.num_points == 1024 and cfg.levels == 3
        assert cfg.level_sizes == (512, 128, 32)
        assert cfg.channels == (64, 128, 256)
        cfg.validate()

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

    @pytest.mark.parametrize(
        "ranges", [{"k_range": (4, 2**59)}, {"d_range": (1, 2**61)}, {"d_range": (1, 10**30)}]
    )
    def test_patch_indices_must_fit_in_int64(self, ranges):
        # Once a segfault in np.repeat, an OverflowError or an IndexError.
        with pytest.raises(model.ConfigError, match="overflow int64 patch indices"):
            tiny_config(**ranges).validate()
        tiny_config(k_range=(4, 2**58)).validate()
        tiny_config(d_range=(1, 2**60)).validate()

    @pytest.mark.parametrize("k_range", [(1, 4), (2, 2)])
    def test_local_frames_need_three_points_per_patch(self, k_range):
        with pytest.raises(model.ConfigError, match="k_range lower bound must be >= 3"):
            tiny_config(k_range=k_range).validate()
        tiny_config(k_range=k_range, transform_scope="global").validate()
        tiny_config(k_range=(3, k_range[1] + 1)).validate()


class TestDrawInterval:
    def test_midpoint_when_deterministic(self):
        np.testing.assert_array_equal(model.draw_interval((24, 40), 3, None), [32] * 3)
        np.testing.assert_array_equal(model.draw_interval((1, 4), 2, None), [2, 2])

    def test_degenerate_interval(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(model.draw_interval((7, 7), 5, rng), [7] * 5)

    def test_seeded_determinism(self):
        a = model.draw_interval((16, 48), 10, np.random.default_rng(5))
        b = model.draw_interval((16, 48), 10, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_samples_stay_in_interval(self, seed):
        out = model.draw_interval((3, 9), 50, np.random.default_rng(seed))
        assert out.shape == (50,)
        assert out.min() >= 3 and out.max() <= 9


class TestExtractDescriptors:
    def test_shapes_and_axis_invariants(self, cloud, tiny_model):
        desc = model.extract_descriptors(tiny_model, cloud)
        m0 = tiny_model.config.level_sizes[0]
        assert desc.points.shape == (m0, 3)
        assert desc.axes.shape == (m0, 3, 3)
        assert desc.features.value.shape == (m0, tiny_model.config.channels[0])
        dets = np.linalg.det(desc.axes)
        np.testing.assert_allclose(dets, np.ones(m0), atol=1e-9)

    def test_identity_rotation_bitwise_equal(self, cloud, tiny_model):
        a = model.extract_descriptors(tiny_model, cloud)
        b = model.extract_descriptors(tiny_model, geom.rotate(cloud, np.eye(3)))
        np.testing.assert_array_equal(a.features.value, b.features.value)

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_rotation_invariance(self, seed):
        net = tiny_net()
        pts = random_cloud(seed, 64)
        rot = geom.random_rotation(np.random.default_rng(seed + 1), "so3")
        a = model.extract_descriptors(net, pts).features.value
        b = model.extract_descriptors(net, geom.rotate(pts, rot)).features.value
        assert np.abs(a - b).max() <= 1e-5 * (1 + np.abs(a).max())

    def test_duplicating_unused_point_changes_nothing(self):
        # find a cloud point that is neither selected nor inside any used
        # candidate prefix, duplicate it, and expect bitwise equality
        net = tiny_net(levels=1, level_sizes=(6,), channels=(8,), k_range=(3, 3), d_range=(1, 1))
        pts = random_cloud(3, 64)
        cloud = laid_out(pts)
        sel, _ = geom.farthest_point_sampling(cloud, 6)
        used = set(sel.tolist())
        for anchor in sel:
            cand = geom.sorted_candidates(cloud, int(anchor))
            used.update(cand[: 2 * 1 + 2].tolist())
        free = [i for i in range(len(cloud)) if i not in used]
        assert free, "fixture cloud leaves no unused point; pick another seed"
        bigger = np.vstack([pts, cloud[free[0]]])
        a = model.extract_descriptors(net, pts)
        b = model.extract_descriptors(net, bigger)
        np.testing.assert_array_equal(a.features.value, b.features.value)

    def test_cloud_smaller_than_level0_rejected(self, tiny_model):
        with pytest.raises(model.ConfigError):
            model.extract_descriptors(tiny_model, random_cloud(0, 16))

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
        pts = laid_out([[x, y, 0.0] for x in xs for y in xs])
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
        pts = laid_out(pts[np.random.default_rng(2).permutation(len(pts))])
        sel, d2 = geom.farthest_point_sampling(pts, 12)
        ks = np.full(len(sel), k)
        ds = np.full(len(sel), d)
        off1, (flat1, flatd) = model._gather_patches(d2, sel, ks, (1, ds))
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
        pts = laid_out(pts[np.random.default_rng(4).permutation(len(pts))])
        anchors = np.arange(len(pts))
        ks = np.full(len(pts), k)
        ds = np.full(len(pts), d)
        flat1, off1, flatd, offd = gather(pts, anchors, ks, ds)
        for i in anchors:
            knn = dilated_knn(pts, int(i), k, 1)
            dil = dilated_knn(pts, int(i), k, d)
            np.testing.assert_array_equal(flat1[off1[i] : off1[i + 1]], knn)
            np.testing.assert_array_equal(flatd[offd[i] : offd[i + 1]], dil)


    @pytest.mark.parametrize("dilated_anchor", [None, 3], ids=["all_d1", "one_d2"])
    def test_level0_h_input_is_the_projected_dilated_patch(self, cloud, monkeypatch, dilated_anchor):
        # tiny_config's d_range (1, 2) has midpoint 1, so the deterministic
        # draw dilates nothing and the plain patch serves as the dilated
        # one; a draw with one d = 2 gathers its own dilated patch.
        net = tiny_net()
        m, k = net.config.level_sizes[0], 5  # the midpoint of k_range (4, 6)
        ds = np.ones(m, dtype=np.int64)
        if dilated_anchor is not None:
            ds[dilated_anchor] = 2
            draw = model.draw_interval
            level0_d = (net.config.d_range, m)
            monkeypatch.setattr(
                model, "draw_interval", lambda b, c, r: ds if (b, c) == level0_d else draw(b, c, r)
            )
        gather_patches, pooled_mlp, dilations, inputs = model._gather_patches, nnet.pooled_mlp, [], []
        monkeypatch.setattr(
            model, "_gather_patches", lambda *a: dilations.append(len(a[-1])) or gather_patches(*a)
        )
        monkeypatch.setattr(nnet, "pooled_mlp", lambda p, x, o: inputs.append(x.value) or pooled_mlp(p, x, o))
        desc = model.extract_descriptors(net, cloud)
        assert dilations == [1 if dilated_anchor is None else 2]
        # The dilated patch gathered on its own, from the same FPS rows.
        pts = laid_out(cloud)
        picks, rows = geom.farthest_point_sampling(pts, m)
        off, (_, wide) = gather_patches(rows, picks, np.full(m, k), (1, ds))
        axes = geom.lrf_axes_batch(pts[wide], off, desc.points)
        np.testing.assert_array_equal(desc.axes.view(np.int64), axes.view(np.int64))
        want = model._project_segments(pts, wide, off, desc.points, axes)
        np.testing.assert_array_equal(inputs[1].view(np.int64), want.view(np.int64))
        assert np.array_equal(inputs[0], inputs[1]) == (dilated_anchor is None)


class TestQuantizedScan:
    def test_no_fallback_and_bitwise_permutation_invariance(self, monkeypatch):
        def fail(*args):
            raise AssertionError("production path took the single-anchor fallback")

        monkeypatch.setattr(geom, "sorted_candidates", fail)
        rng = np.random.default_rng(5)
        cube = geom.normalize_unit_sphere(data.FAMILIES["cube"](rng, 1024))
        rotated = geom.rotate(cube, geom.random_rotation(rng, "so3"))
        grid = np.round(rotated * 32) / 32
        doubled = np.vstack([cube[::2], cube[::2]])  # every point twice
        net = tiny_net(
            num_points=1024,
            levels=3,
            level_sizes=(128, 32, 8),
            channels=(8, 16, 16),
            k_range=(8, 16),
            d_range=(1, 2),
            khat_range=(4, 8),
        )
        for pts in (grid, doubled):
            out = model.logits(net, pts)
            assert np.all(np.isfinite(out))
            perm = rng.permutation(len(pts))
            np.testing.assert_array_equal(model.logits(net, pts[perm]), out)


def by_distance_then_index(row: np.ndarray, anchor: int) -> np.ndarray:
    """The other points ranked by (distance in ``row``, index)."""
    order = np.lexsort((np.arange(len(row)), row))
    return order[order != anchor]


class TestTieRuleAtLevels:
    def test_level_patches_and_graphs_rank_by_distance_then_pick_index(self, monkeypatch):
        # A level's points are in pick order, so among equal distances its
        # patches and its graph take the lower pick index. On this grid
        # cloud exact ties decide cuts, so the rule is what is tested.
        desk = cli.load_experiment_config(ROOT / "configs" / "desk.json").model
        net = model.RiGcnModel(desk)
        gathered, gather_patches = [], model._gather_patches
        monkeypatch.setattr(model, "_gather_patches", lambda *a: gathered.append(gather_patches(*a)) or gathered[-1])
        descs = model.level_descriptors(net, desk_grid_cloud(desk.num_points))
        monkeypatch.undo()
        assert len(gathered) == len(descs) == 3
        k = (desk.k_range[0] + desk.k_range[1]) // 2
        tied_cuts = 0
        for prev, desc, (off, (flat,)) in zip(descs, descs[1:], gathered[1:]):
            np.testing.assert_array_equal(desc.points, prev.points[: len(desc.points)])
            for i in range(len(desc.points)):
                ranked = by_distance_then_index(prev.block[i], i)
                np.testing.assert_array_equal(flat[off[i] : off[i + 1]], ranked[:k])
                tied_cuts += int(prev.block[i, ranked[k - 1]] == prev.block[i, ranked[k]])
        for desc in descs:
            n = len(desc.points)
            khat = (min(desk.khat_range[0], n - 1) + min(desk.khat_range[1], n - 1)) // 2
            ranked = np.array([by_distance_then_index(desc.block[i], i) for i in range(n)])
            nbrs = ranked[:, :khat]
            sel_d2 = desc.block[np.arange(n)[:, None], nbrs]
            sigma = np.sqrt(sel_d2).mean()
            directed = np.zeros((n, n))
            directed[np.arange(n)[:, None], nbrs] = np.exp(-sel_d2 / (2.0 * sigma * sigma))
            np.testing.assert_array_equal(model.level_graph(desk, desc), np.maximum(directed, directed.T))
            cut = desc.block[np.arange(n)[:, None], ranked[:, khat - 1 : khat + 1]]
            tied_cuts += int((cut[:, 0] == cut[:, 1]).sum())
        assert tied_cuts > 0, "no exact tie decides a cut; the test would pass vacuously"


class TestExtendDescriptors:
    def test_axes_are_reused_bitwise(self, cloud, tiny_model):
        d0 = model.extract_descriptors(tiny_model, cloud)
        d1 = model.extend_descriptors(tiny_model, d0)
        m = len(d1.points)
        np.testing.assert_array_equal(d1.axes, d0.axes[:m])
        np.testing.assert_array_equal(d1.points, d0.points[:m])

    @pytest.mark.parametrize("seed", [6, 10])
    @pytest.mark.parametrize("kind", ["generic", "grid"])
    def test_each_level_is_fps_from_the_first_point_below(self, seed, kind):
        # Desk-config clouds on which FPS from some level's own farthest
        # point from its centroid would start elsewhere than at its first.
        desk = cli.load_experiment_config(ROOT / "configs" / "desk.json").model
        pts = random_cloud(seed, desk.num_points)
        if kind == "grid":
            rot = geom.random_rotation(np.random.default_rng(seed), "so3")
            pts = np.round(geom.rotate(pts, rot) * 32) / 32
        descs = model.level_descriptors(model.RiGcnModel(desk), pts)
        centered = [d.points - d.points.mean(axis=0) for d in descs[:-1]]
        assert any((c * c).sum(axis=1).argmax() != 0 for c in centered)
        for prev, desc in zip(descs, descs[1:]):
            picks = brute_force_fps(prev.points, len(desc.points), start=0)
            np.testing.assert_array_equal(desc.points, prev.points[picks])

    def test_points_nest_across_levels(self, cloud, tiny_model):
        d0 = model.extract_descriptors(tiny_model, cloud)
        d1 = model.extend_descriptors(tiny_model, d0)
        level0 = {tuple(p) for p in d0.points}
        assert all(tuple(p) in level0 for p in d1.points)

    @given(st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_rotation_invariance_propagates(self, seed):
        net = tiny_net()
        pts = random_cloud(seed, 64)
        rot = geom.random_rotation(np.random.default_rng(seed + 2), "so3")
        a = model.extend_descriptors(net, model.extract_descriptors(net, pts)).features.value
        b = model.extend_descriptors(net, model.extract_descriptors(net, geom.rotate(pts, rot))).features.value
        assert np.abs(a - b).max() <= 1e-5 * (1 + np.abs(a).max())

    def test_size_monotonicity_enforced(self, cloud):
        d0 = model.extract_descriptors(tiny_net(level_sizes=(24, 8)), cloud)
        wide = tiny_net(level_sizes=(40, 30))
        with pytest.raises(model.ConfigError, match="level 1 needs 30 points but its input has 24"):
            model.extend_descriptors(wide, d0)


class TestAbstractLevel:
    def test_permutation_of_rows_keeps_summary(self, cloud, tiny_model):
        desc = model.extract_descriptors(tiny_model, cloud)
        out = model.abstract_level(tiny_model, desc)
        perm = np.random.default_rng(0).permutation(len(desc.points))
        permuted = model.DescriptorSet(
            level=desc.level,
            points=desc.points[perm],
            axes=desc.axes[perm],
            features=nnet.constant(desc.features.value[perm]),
            block=desc.block[np.ix_(perm, perm)],
        )
        out_p = model.abstract_level(tiny_model, permuted)
        np.testing.assert_allclose(out.value, out_p.value, atol=1e-12)

    def test_mlp_ablation_with_identity_weight(self, cloud):
        net = tiny_net(abstraction="mlp")
        c0 = net.config.channels[0]
        net.gcn_w[0].value[...] = np.eye(c0)
        desc = model.extract_descriptors(net, cloud)
        out = model.abstract_level(net, desc)
        expected = np.maximum(desc.features.value, 0.0).max(axis=0, keepdims=True)
        np.testing.assert_array_equal(out.value, expected)

    def test_gcn_and_mlp_differ_on_two_nodes(self):
        # distance 2 between the two nodes; the kernel bandwidth equals that
        # distance, so the single edge weight is exp(-1/2)
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        feats = np.array([[2.0], [0.0]])
        w = np.exp(-0.5)
        a_hat = graph.renormalize(knn_graph(pts, 1))
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
        out_gcn = model.abstract_level(gcn_net, desc).value[0, 0]
        out_mlp = model.abstract_level(mlp_net, desc).value[0, 0]
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
            model.abstract_level(tiny_model, desc)


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
            got = model.level_graph(cfg, desc, np.random.default_rng(seed))
            khat = int(np.random.default_rng(seed).integers(2, 9))
            np.testing.assert_array_equal(got, self.build(desc, khat))

    def test_midpoint_when_deterministic(self):
        cfg, desc = self.level(0, khat_range=(2, 8))
        np.testing.assert_array_equal(model.level_graph(cfg, desc), self.build(desc, 5))

    def test_midpoint_when_khat_toggle_is_off(self):
        cfg, desc = self.level(0, khat_range=(2, 8), stochastic_khat=False)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(model.level_graph(cfg, desc, rng), self.build(desc, 5))
        assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)

    def test_small_top_level_clamps_the_interval(self):
        # 8 nodes allow khat <= 7, so (4, 8) draws from (4, 7), midpoint 5.
        cfg, desc = self.level(1, khat_range=(4, 8))
        assert len(desc.points) == 8
        for seed in range(20):
            got = model.level_graph(cfg, desc, np.random.default_rng(seed))
            khat = int(np.random.default_rng(seed).integers(4, 8))
            np.testing.assert_array_equal(got, self.build(desc, khat))
        np.testing.assert_array_equal(model.level_graph(cfg, desc), self.build(desc, 5))


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

    def test_each_point_set_is_sorted_once(self, monkeypatch):
        # A desk forward sorts only the cloud, which it lays out in that
        # order before FPS; each level keeps its points in pick order.
        desk = cli.load_experiment_config(ROOT / "configs" / "desk.json").model
        pts = random_cloud(0, desk.num_points)
        net = model.RiGcnModel(desk)
        sorted_sets, sampled = [], []
        canonical_order, fps = geom.canonical_order, geom.farthest_point_sampling

        def count(points):
            sorted_sets.append(len(points))
            return canonical_order(points)

        monkeypatch.setattr(geom, "canonical_order", count)
        monkeypatch.setattr(geom, "farthest_point_sampling", lambda p, m: sampled.append(p) or fps(p, m))
        model.logits(net, pts)
        assert sorted_sets == [desk.num_points]
        monkeypatch.undo()
        (cloud,) = sampled
        np.testing.assert_array_equal(cloud, pts[geom.canonical_order(pts)])

    def test_stochastic_forward_is_seeded(self, cloud, tiny_model):
        a = model.forward(tiny_model, cloud, np.random.default_rng(3)).value
        b = model.forward(tiny_model, cloud, np.random.default_rng(3)).value
        np.testing.assert_array_equal(a, b)

    def test_full_model_gradient_check(self, cloud, tiny_model):
        def loss_fn():
            return nnet.cross_entropy(model.forward(tiny_model, cloud), 1)

        errors = nnet.gradient_check_blocks(loss_fn, tiny_model.parameters(), eps=1e-6)
        assert max(errors.values()) <= 1e-5


def dag_nodes(root):
    """Nodes reachable from ``root`` through ``parents``."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for target, _ in stack.pop().parents:
            if isinstance(target, nnet.Node) and id(target) not in seen:
                seen[id(target)] = target
                stack.append(target)
    return list(seen.values())


def dag_size(root):
    return len(dag_nodes(root))


class TestGraphFreeLogits:
    def _quantized_cloud(self):
        rng = np.random.default_rng(11)
        rotated = geom.rotate(random_cloud(11, 64), geom.random_rotation(rng, "so3"))
        return np.round(rotated * 32) / 32

    def test_matches_the_graph_forward_bitwise(self, cloud, tiny_model):
        for pts in (cloud, self._quantized_cloud()):
            out = model.forward(tiny_model, pts)
            assert dag_size(out) > 1
            np.testing.assert_array_equal(
                model.logits(tiny_model, pts).view(np.int64), out.value.ravel().view(np.int64)
            )

    def test_builds_no_graph(self, cloud, tiny_model, monkeypatch):
        roots = []
        forward = model.forward

        def keep_root(*args, **kwargs):
            roots.append(forward(*args, **kwargs))
            return roots[-1]

        monkeypatch.setattr(model, "forward", keep_root)
        model.logits(tiny_model, cloud)
        assert [dag_size(r) for r in roots] == [1]

    def test_desk_forward_node_count_is_pinned(self):
        # Per level: 6 descriptor nodes (two branch inputs, two pooled MLP
        # branches, their concatenation and the fusion MLP), the graph
        # convolution and its pool; then the summary concatenation and the
        # classifier MLP.
        desk = cli.load_experiment_config(ROOT / "configs" / "desk.json").model
        out = model.forward(model.RiGcnModel(desk), random_cloud(0, desk.num_points))
        assert dag_size(out) == 26

    def test_a_rejected_cloud_leaves_graph_mode_on(self, cloud, tiny_model):
        size = dag_size(model.forward(tiny_model, cloud))
        with pytest.raises(model.ConfigError):
            model.logits(tiny_model, random_cloud(0, 16))
        assert dag_size(model.forward(tiny_model, cloud)) == size


class TestBackwardMemory:
    @staticmethod
    def _desk_step():
        """A fresh desk model, one of its clouds and the forward's generator."""
        desk = cli.load_experiment_config(ROOT / "configs" / "desk.json").model
        return model.RiGcnModel(desk), random_cloud(0, desk.num_points), np.random.default_rng(0)

    @classmethod
    def _traced_desk_step(cls):
        """Traced bytes of one desk training step that holds only its loss
        node: (after the forward, backward's peak, after the backward), all
        counted from before the forward."""
        net, pts, rng = cls._desk_step()
        tracemalloc.start()
        try:
            loss = nnet.cross_entropy(model.forward(net, pts, rng), 0)
            after_forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            nnet.backward(loss)
            after_backward, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return after_forward, peak, after_backward

    def test_a_desk_backward_keeps_only_the_leaf_gradients(self):
        # The backward consumes the graph: each interior node drops its
        # gradient, parents and upstream once it has passed its gradient on.
        net, pts, rng = self._desk_step()
        loss = nnet.cross_entropy(model.forward(net, pts, rng), 0)
        nodes = dag_nodes(loss)
        leaves = [node for node in nodes if not node.parents]
        interior = [node for node in nodes if node.parents]
        nnet.backward(loss)
        assert leaves and interior
        assert all(n.grad is None and n.parents is None and n.upstream is None for n in interior)
        assert all(node.grad is not None for node in leaves)
        # Memory on a step that holds no node list, which would keep every
        # value alive: the forward's live graph plus backward's peak.
        # Measured at 1.13 MiB; a backward that keeps each node's saved
        # inputs until it returns reads 1.75 MiB.
        peak = self._traced_desk_step()[1]
        assert peak < 1.5 * 1024 * 1024

    def test_the_graph_kept_after_a_desk_backward_is_small(self):
        # What would sit beside the Adam step and the next cloud's forward in
        # ``train_epoch``: the leaf gradients the walk frees with their
        # nodes. Measured at 0.02 MiB; keeping every node's saved inputs
        # until the graph dies reads 0.81 MiB.
        after_backward = self._traced_desk_step()[2]
        assert after_backward < 64 * 1024

    def test_a_desk_epoch_holds_one_graph_at_a_time(self):
        # Each step's graph is consumed by its backward and dropped before
        # the Adam step, so no step runs beside the last one's graph.
        # Measured at 1.19 MiB above the start of the epoch; holding each
        # graph until the next forward returns reads 1.98 MiB.
        desk = cli.load_experiment_config(ROOT / "configs" / "desk.json").model
        net = model.RiGcnModel(desk)
        clouds = [random_cloud(s, desk.num_points) for s in range(3)]
        labels, state = np.array([0, 1, 2]), nnet.OptimizerState()

        def epoch(seed):
            return model.train_epoch(net, clouds, labels, "z", state, np.random.default_rng(seed))

        epoch(0)  # allocates the Adam moments and maps the gradient buffer
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            epoch(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * 1024 * 1024


class TestInferenceMemory:
    def test_a_desk_forward_frees_the_level_0_rows_once_patches_are_gathered(self):
        # Measured at 0.91 MB above the live memory at the call; keeping the
        # (128, 512) level-0 FPS rows through the frames and MLPs reads 1.42 MB.
        desk = cli.load_experiment_config(ROOT / "configs" / "desk.json").model
        net = model.RiGcnModel(desk)
        pts = random_cloud(0, desk.num_points)
        model.logits(net, pts)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.logits(net, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 1024 * 1024

    def test_evaluate_leaves_the_gradient_buffer_zero(self, tiny_model):
        clouds = [random_cloud(s) for s in range(3)]
        model.evaluate(tiny_model, clouds, np.array([0, 1, 2]), "so3", np.random.default_rng(0))
        grads = tiny_model.parameters().grads
        assert not grads.any() and not np.signbit(grads).any()


# The environment the three trajectory pins were recorded under
# (``environment.fingerprint()``).
PIN_ENVIRONMENT = {
    "numpy": "2.4.6",
    "openblas_config": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
    "openblas_core": "SkylakeX",
    "simd_targets": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}


def test_fingerprint_names_the_running_build():
    fp = environment.fingerprint()
    assert fp.keys() == PIN_ENVIRONMENT.keys()
    assert fp["numpy"] == np.__version__
    if fp["openblas_core"] is not None:
        assert fp["openblas_core"] in fp["openblas_config"]


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

    def _two_epoch_digest(self, tmp_path, **overrides):
        # The checkpoint digest after two seeded epochs: a change that moves
        # any bit of the training arithmetic shows up here. The bits depend
        # on the numpy and BLAS build.
        clouds, labels = self._toy_data()
        net = tiny_net(num_classes=2, **overrides)
        state = nnet.OptimizerState()
        rng = np.random.default_rng(4)
        for _ in range(2):
            model.train_epoch(net, clouds, labels, "z", state, rng)
        path = tmp_path / "m.ckpt"
        model.save_model(net, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def _assert_pinned(self, digest, pinned):
        # Compared bit for bit; a failure names both environments, since
        # another BLAS kernel or SIMD target rounds differently.
        assert digest == pinned, (
            f"digest {digest} differs from the pin {pinned}\n"
            f"pin recorded under: {PIN_ENVIRONMENT}\n"
            f"this environment:   {environment.fingerprint()}"
        )

    def test_trajectory_is_pinned(self, tmp_path):
        self._assert_pinned(
            self._two_epoch_digest(tmp_path),
            "c086f422af85bea4471f2dbd705e008fbbd012fca9add781af53c493250cb22f",
        )

    def test_mlp_abstraction_trajectory_is_pinned(self, tmp_path):
        self._assert_pinned(
            self._two_epoch_digest(tmp_path, abstraction="mlp"),
            "c726eb4f5e004993587ca5b6c29271cc7d70e4b3bfb2329d5bd84cceb297d08e",
        )

    def test_global_frames_trajectory_is_pinned(self, tmp_path):
        self._assert_pinned(
            self._two_epoch_digest(tmp_path, transform_scope="global"),
            "a9d8689cd254fa9d82ac2d46fdc86dde54a534004cf88e0c928ef11ccdf94562",
        )

    @pytest.mark.parametrize(
        "d_range, pinned",
        [
            ((1, 2), "d2b067e19d26caf1aaa34dd411f7b920f53c09ecc262c70d443e4e13c3f1146b"),
            ((2, 2), "d10b0dd363d75c0fbee134a4c8ffc0c361a7d1f1b2b7a2fca6ffd45b674db7a2"),
        ],
        ids=["desk", "dilated"],
    )
    def test_inference_is_pinned(self, d_range, pinned):
        # Deterministic logits of a seed-initialised desk model on three
        # generic clouds and one 1/32-grid cloud. The desk d_range has
        # midpoint 1, so its deterministic forward never dilates; (2, 2)
        # gathers and projects a dilated patch of its own.
        desk = cli.load_experiment_config(ROOT / "configs" / "desk.json").model
        net = model.RiGcnModel(replace(desk, d_range=d_range))
        clouds = [random_cloud(s, desk.num_points) for s in range(3)]
        clouds.append(desk_grid_cloud(desk.num_points))
        digest = hashlib.sha256(b"".join(model.logits(net, c).astype("<f8").tobytes() for c in clouds))
        self._assert_pinned(digest.hexdigest(), pinned)

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

    def test_calls_logits_once_per_cloud_in_input_order(self, tiny_model, monkeypatch):
        # The benchmark's infer checks wrap model.logits and need exactly
        # this: one call per cloud, in order, and predictions from its output.
        clouds, labels = self._toy_data(6)
        fake = np.random.default_rng(3).normal(size=(6, 4))
        calls = []

        def recording_logits(net, points):
            assert net is tiny_model
            calls.append(points)
            return fake[len(calls) - 1]

        monkeypatch.setattr(model, "logits", recording_logits)
        result = model.evaluate(tiny_model, clouds, labels, "none", None)
        assert len(calls) == len(clouds)
        assert all(got is want for got, want in zip(calls, clouds))
        np.testing.assert_array_equal(result.predictions, fake.argmax(axis=1))

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

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"abstraction": "mlp"}, {"levels": 1, "level_sizes": (24,), "channels": (8,)}],
        ids=["tiny", "mlp", "one_level"],
    )
    def test_parameter_shapes_are_the_models(self, overrides):
        cfg = tiny_config(**overrides)
        want = [(p.name, p.value.shape) for p in model.RiGcnModel(cfg).parameters()]
        assert model.parameter_shapes(cfg) == want

    def test_parameters_stay_views_of_the_flat_buffers(self, tmp_path, tiny_model):
        path = tmp_path / "m.ckpt"
        model.save_model(tiny_model, path)
        for net in (tiny_model, model.load_model(path)):
            params = net.parameters()
            assert params.values.size == sum(p.value.size for p in params)
            for p in params:
                assert np.shares_memory(p.value, params.values)
                assert np.shares_memory(p.grad, params.grads)

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
