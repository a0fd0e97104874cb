import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigcn import nnet


def make_param(name, value):
    value = np.asarray(value, dtype=np.float64)
    return nnet.Parameter(name, value, np.zeros_like(value))


class TestLinear:
    def test_identity_weight(self):
        w = make_param("w", np.eye(3))
        x = nnet.constant(np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_array_equal(nnet.linear(w, x).value, x.value)

    def test_hand_product(self):
        w = make_param("w", [[1.0], [1.0]])
        out = nnet.linear(w, nnet.constant([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[3.0]])

    def test_gradient_of_sum(self):
        w = make_param("w", [[0.0], [0.0]])
        x = nnet.constant([[1.0, 2.0]])
        out = nnet.linear(w, x)
        nnet.backward(out)
        np.testing.assert_array_equal(w.grad, [[1.0], [2.0]])

    def test_shape_mismatch_names_both_shapes(self):
        w = make_param("w", np.zeros((3, 2)))
        with pytest.raises(nnet.ShapeError, match=r"\(1, 2\).*\(3, 2\)"):
            nnet.linear(w, nnet.constant(np.zeros((1, 2))))


class TestRelu:
    def test_clamps_negatives(self):
        out = nnet.relu(nnet.constant([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[0.0, 2.0]])

    def test_positive_input_unchanged(self):
        x = np.abs(np.random.default_rng(1).normal(size=(3, 3))) + 0.1
        np.testing.assert_array_equal(nnet.relu(nnet.constant(x)).value, x)

    def test_subgradient_at_zero_is_zero(self):
        x = nnet.constant([[0.0, 1.0]])
        out = nnet.relu(x)
        nnet.backward(out)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])


class TestMaxpool:
    def test_columnwise_max(self):
        out = nnet.maxpool_rows(nnet.constant([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[3.0, 5.0]])

    def test_single_row_passthrough(self):
        out = nnet.maxpool_rows(nnet.constant([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0, 3.0]])

    def test_tie_routes_gradient_to_first_row(self):
        x = nnet.constant([[2.0, 1.0], [2.0, 1.0]])
        nnet.backward(nnet.maxpool_rows(x))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            nnet.maxpool_rows(nnet.constant(np.zeros((0, 3))))

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(7, 4))
        perm = rng.permutation(7)
        a = nnet.maxpool_rows(nnet.constant(x)).value
        b = nnet.maxpool_rows(nnet.constant(x[perm])).value
        np.testing.assert_array_equal(a, b)

    def test_segment_maxpool_matches_per_segment_pooling(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        offsets = np.array([0, 4, 7, 10])
        seg = nnet.segment_maxpool(nnet.constant(x), offsets)
        for i in range(3):
            block = nnet.maxpool_rows(nnet.constant(x[offsets[i] : offsets[i + 1]]))
            np.testing.assert_array_equal(seg.value[i], block.value[0])

    def test_segment_maxpool_gradient_matches_blocks(self):
        def sum_all(node):
            return nnet.Node(
                node.value.sum(), parents=((node, lambda g: np.full_like(node.value, g)),)
            )

        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 2))
        offsets = np.array([0, 3, 9])
        node = nnet.constant(x)
        nnet.backward(sum_all(nnet.segment_maxpool(node, offsets)))
        grads = []
        for i in range(2):
            block = nnet.constant(x[offsets[i] : offsets[i + 1]])
            nnet.backward(sum_all(nnet.maxpool_rows(block)))
            grads.append(block.grad)
        np.testing.assert_array_equal(node.grad, np.vstack(grads))

    def test_segment_maxpool_rejects_empty_segment(self):
        with pytest.raises(ValueError):
            nnet.segment_maxpool(nnet.constant(np.zeros((3, 2))), [0, 3, 3])


class TestGcnLayer:
    def test_identity_adjacency_identity_weight(self):
        x = np.random.default_rng(2).normal(size=(4, 4))
        out = nnet.gcn_layer(np.eye(4), nnet.constant(x), make_param("w", np.eye(4)))
        np.testing.assert_array_equal(out.value, np.maximum(x, 0.0))

    def test_hand_arithmetic(self):
        a_hat = np.full((2, 2), 0.5)
        out = nnet.gcn_layer(a_hat, nnet.constant([[2.0], [0.0]]), make_param("w", [[1.0]]))
        np.testing.assert_array_equal(out.value, [[1.0], [1.0]])

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(3)
        a_hat = np.eye(4) * 0.5 + 0.1
        x = rng.normal(size=(4, 3))
        w = make_param("w", rng.normal(size=(3, 2)))

        def loss_fn():
            return nnet.maxpool_rows(nnet.gcn_layer(a_hat, nnet.constant(x), w))

        def scalar_loss():
            node = loss_fn()
            return nnet.Node(node.value.sum(), parents=((node, lambda g: np.full_like(node.value, g)),))

        err = nnet.gradient_check(scalar_loss, [w], eps=1e-6)
        assert err <= 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(nnet.ShapeError):
            nnet.gcn_layer(np.eye(3), nnet.constant(np.zeros((4, 2))), make_param("w", np.zeros((2, 2))))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_c(self):
        for c in (2, 5, 9):
            loss, _ = nnet.softmax_cross_entropy(np.zeros(c), 0)
            assert loss == pytest.approx(np.log(c), abs=1e-12)

    def test_max_shift_avoids_overflow(self):
        loss, grad = nnet.softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(grad).all()

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_gradient_sums_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=6) * 5
        _, grad = nnet.softmax_cross_entropy(logits, int(rng.integers(6)))
        assert abs(grad.sum()) < 1e-12

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_loss_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        loss, _ = nnet.softmax_cross_entropy(rng.normal(size=4), int(rng.integers(4)))
        assert loss >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            nnet.softmax_cross_entropy(np.zeros(3), 3)


class TestOptimizer:
    def test_zero_gradient_leaves_adam_parameters_unchanged(self):
        p = make_param("p", [[1.0, 2.0]])
        state = nnet.OptimizerState()
        nnet.optimizer_step(state, [p])
        np.testing.assert_array_equal(p.value, [[1.0, 2.0]])

    def test_first_adam_step_by_hand(self):
        # After bias correction the first step's moments are g and g**2 (up
        # to rounding), so each entry moves by lr * g / (|g| + eps).
        g = np.array([[3.0, -0.5, 1e-9, 0.0]])
        p = make_param("p", np.zeros_like(g))
        p.grad[...] = g
        state = nnet.OptimizerState(learning_rate=0.1)
        nnet.optimizer_step(state, [p])
        np.testing.assert_allclose(-p.value, 0.1 * g / (np.abs(g) + state.eps), rtol=1e-12, atol=0)

    def test_gradients_zeroed_after_step(self):
        p = make_param("p", [[0.0]])
        p.grad[...] = 3.0
        nnet.optimizer_step(nnet.OptimizerState(), [p])
        np.testing.assert_array_equal(p.grad, [[0.0]])

    def test_three_steps_bitwise_reproducible(self):
        def run():
            rng = np.random.default_rng(4)
            p = nnet.init_parameter("p", (3, 2), rng)
            state = nnet.OptimizerState()
            for _ in range(3):
                x = nnet.constant(rng.normal(size=(2, 3)))
                nnet.backward(nnet.maxpool_rows(nnet.relu(nnet.linear(p, x))))
                nnet.optimizer_step(state, [p])
            return p.value

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_names_parameter(self):
        p = make_param("clf.w0", [[0.0]])
        p.grad[...] = np.nan
        with pytest.raises(nnet.TrainingDivergenceError, match="clf.w0"):
            nnet.optimizer_step(nnet.OptimizerState(), [p])


class TestGradientCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(8)
        w = make_param("w", rng.normal(size=(3, 2)))
        x = rng.normal(size=(4, 3))

        def loss_fn():
            out = nnet.linear(w, nnet.constant(x))
            return nnet.Node(out.value.sum(), parents=((out, lambda g: np.full_like(out.value, g)),))

        assert nnet.gradient_check(loss_fn, [w], eps=1e-6) <= 1e-9

    def test_two_layer_mlp(self):
        rng = np.random.default_rng(9)
        params = nnet.init_mlp(nnet.MlpSpec((3, 8, 2)), rng, "mlp")
        x = rng.normal(size=(5, 3)) + 0.5

        def loss_fn():
            return nnet.cross_entropy(nnet.maxpool_rows(nnet.mlp(params, nnet.constant(x))), 1)

        assert nnet.gradient_check(loss_fn, params, eps=1e-6) <= 1e-5

    def test_gather_and_concat_ops(self):
        rng = np.random.default_rng(10)
        w = make_param("w", rng.normal(size=(4, 3)))
        x = rng.normal(size=(6, 4))
        idx = np.array([0, 2, 2, 5, 1])

        def loss_fn():
            h = nnet.gather_rows(nnet.linear(w, nnet.constant(x)), idx)
            h = nnet.concat_cols([h, h])
            return nnet.cross_entropy(nnet.maxpool_rows(h), 3)

        assert nnet.gradient_check(loss_fn, [w], eps=1e-6) <= 1e-5


class TestMlp:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            nnet.MlpSpec((3,))
        with pytest.raises(ValueError):
            nnet.MlpSpec((3, 0))

    def test_init_is_reproducible_and_bounded(self):
        a = nnet.init_mlp(nnet.MlpSpec((4, 8, 2)), np.random.default_rng(3), "m")
        b = nnet.init_mlp(nnet.MlpSpec((4, 8, 2)), np.random.default_rng(3), "m")
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.value, pb.value)
        bound = np.sqrt(6.0 / (4 + 8))
        assert np.abs(a[0].value).max() <= bound

    def test_bias_shifts_output(self):
        params = nnet.init_mlp(nnet.MlpSpec((2, 2)), np.random.default_rng(0), "m")
        params[1].value[...] = [[10.0, -10.0]]
        out = nnet.mlp(params, nnet.constant([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.value, [[10.0, -10.0]])


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        params = [make_param("a.w0", rng.normal(size=(4, 3))), make_param("b.w0", rng.normal(size=(1, 7)))]
        path = tmp_path / "model.ckpt"
        nnet.save_checkpoint(path, {"widths": [4, 3]}, params)
        config, values = nnet.load_checkpoint(path)
        assert config == {"widths": [4, 3]}
        for p in params:
            np.testing.assert_array_equal(values[p.name], p.value)

    def test_write_is_deterministic(self, tmp_path):
        params = [make_param("p", np.arange(6, dtype=np.float64).reshape(2, 3))]
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nnet.save_checkpoint(a, {"x": 1}, params)
        nnet.save_checkpoint(b, {"x": 1}, params)
        assert a.read_bytes() == b.read_bytes()

    def test_resave_is_byte_identical_and_leaves_no_temp_file(self, tmp_path):
        rng = np.random.default_rng(12)
        params = [make_param("a.w0", rng.normal(size=(3, 5)))]
        path = tmp_path / "model.ckpt"
        nnet.save_checkpoint(path, {"x": [1, 2]}, params)
        first = path.read_bytes()
        config, values = nnet.load_checkpoint(path)
        nnet.save_checkpoint(path, config, [make_param(n, v) for n, v in values.items()])
        assert path.read_bytes() == first
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nnet.save_checkpoint(path, {}, [make_param("p", np.ones((2, 2)))])
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            nnet.load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nnet.save_checkpoint(path, {}, [make_param("p", np.ones((2, 2)))])
        raw = path.read_bytes()
        assert raw.count(b'"version":1') == 1
        path.write_bytes(raw.replace(b'"version":1', b'"version":2'))
        with pytest.raises(ValueError, match="version"):
            nnet.load_checkpoint(path)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            nnet.load_checkpoint(path)
