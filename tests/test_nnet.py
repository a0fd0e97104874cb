import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rigcn import nnet


def make_param(name, value):
    value = np.asarray(value, dtype=np.float64)
    return nnet.Parameter(name, value, np.zeros_like(value))


def linear_reference(w, x):
    """X @ W as its own node. Backward: dW += X^T G, dX = G W^T."""
    xv, wv = x.value, w.value
    return nnet.Node(xv @ wv, parents=((w, lambda g: xv.T @ g), (x, lambda g: g @ wv.T)))


def add_bias_reference(x, param):
    """A (1, c) bias row added as its own node."""
    return nnet.Node(
        x.value + param.value,
        parents=((param, lambda g: g.sum(axis=0, keepdims=True)), (x, lambda g: g)),
    )


def relu_reference(x):
    """The oracle for the ReLU rule: a masked select, +0.0 wherever the input
    is not positive (NaN and -0.0 included)."""
    mask = x.value > 0
    return nnet.Node(np.where(mask, x.value, 0.0), parents=((x, lambda g: g * mask),))


def dense_reference(w, b, x, activate):
    """The oracle for one layer of ``nnet.mlp``: linear, bias and ReLU as
    three nodes."""
    y = add_bias_reference(linear_reference(w, x), b)
    return relu_reference(y) if activate else y


def mlp_reference(params, x):
    """The oracle for ``nnet.mlp``: one ``dense_reference`` per layer, each
    but the last followed by ReLU."""
    pairs = list(zip(params[0::2], params[1::2]))
    for i, (w, b) in enumerate(pairs):
        x = dense_reference(w, b, x, activate=i < len(pairs) - 1)
    return x


def gcn_reference(a_hat, x, w):
    """The oracle for ``nnet.gcn_layer``: linear, constant matmul and ReLU as
    three nodes."""
    h = linear_reference(w, x)
    return relu_reference(nnet.Node(a_hat @ h.value, parents=((h, lambda g: a_hat.T @ g),)))


def segment_maxpool_vjp_reference(v, offsets, g):
    """The oracle for ``segment_maxpool``'s vjp: each segment's argmax row per
    column, ties to the lowest row and a NaN max to the first NaN row, from
    an int64 matrix of row indices."""
    starts = offsets[:-1]
    seg_ids = np.repeat(np.arange(len(starts)), np.diff(offsets))
    out = np.maximum.reduceat(v, starts, axis=0)[seg_ids]
    rows = np.arange(v.shape[0])[:, None]
    hit_rows = np.where((v == out) | (np.isnan(v) & np.isnan(out)), rows, v.shape[0])
    argrows = np.minimum.reduceat(hit_rows, starts, axis=0)
    gx = np.zeros_like(v)
    gx[argrows, np.arange(v.shape[1])[None, :]] = g
    return gx


def pooled_mlp_reference(params, x, offsets):
    """The oracle for ``nnet.pooled_mlp``: the chain of nodes it replaces,
    ``mlp_reference`` and then ``segment_maxpool``."""
    return nnet.segment_maxpool(mlp_reference(params, x), offsets)


def backward_keeping_every_grad(root, g=None):
    """The oracle for ``nnet.backward``: the same walk, but every node keeps
    the gradient it received. ``g`` replaces the root's gradient of ones."""
    root.grad = np.ones_like(root.value) if g is None else g
    for node in reversed(nnet._topo_order(root)):
        g = node.grad
        if g is None:
            continue
        if node.upstream is not None:
            g = node.upstream(g)
        for target, vjp in node.parents:
            contrib = vjp(g)
            if target.grad is None:
                target.grad = contrib + 0.0
            else:
                target.grad += contrib


def init_mlp_with_biases(widths, seed):
    """``nnet.init_mlp`` parameters whose biases are drawn too."""
    rng = np.random.default_rng(seed)
    params = nnet.init_mlp(widths, rng, "m")
    for bias in params[1::2]:
        bias.value[...] = rng.normal(size=bias.value.shape)
    return params


def worst_gradient_error(loss_fn, params):
    return max(nnet.gradient_check_blocks(loss_fn, params, eps=1e-6).values())


# Every float64, -0.0, NaN, infinities and subnormals included.
ANY_FLOAT = st.one_of(
    st.just(-0.0), st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def adam_reference(state, params):
    """The oracle for ``nnet.optimizer_step``: Adam one parameter at a time
    with default hyperparameters; ``state`` is a dict holding the step count
    and per-name moments."""
    state["step"] += 1
    b1, b2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
    for p in params:
        m, v = state.get(p.name, (np.zeros_like(p.value), np.zeros_like(p.value)))
        m = b1 * m + (1 - b1) * p.grad
        v = b2 * v + (1 - b2) * p.grad**2
        state[p.name] = (m, v)
        m_hat = m / (1 - b1 ** state["step"])
        v_hat = v / (1 - b2 ** state["step"])
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
    for p in params:
        p.zero_grad()


class TestLinear:
    """``gcn_layer`` over the identity graph, as the MLP abstraction runs it:
    each row's linear map X @ W, then ReLU."""

    @staticmethod
    def layer(w, x):
        return nnet.gcn_layer(np.eye(len(x.value)), x, w)

    def test_identity_weight(self):
        w = make_param("w", np.eye(3))
        x = nnet.constant(np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_array_equal(self.layer(w, x).value, np.maximum(x.value, 0.0))

    def test_hand_product(self):
        w = make_param("w", [[1.0], [1.0]])
        out = self.layer(w, nnet.constant([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[3.0]])

    def test_gradient_of_sum(self):
        w = make_param("w", [[1.0], [1.0]])
        x = nnet.constant([[1.0, 2.0]])
        out = self.layer(w, x)
        nnet.backward(out)
        np.testing.assert_array_equal(w.grad, [[1.0], [2.0]])

    def test_shape_mismatch_names_both_shapes(self):
        w = make_param("w", np.zeros((3, 2)))
        with pytest.raises(nnet.ShapeError, match=r"\(1, 2\).*\(3, 2\)"):
            self.layer(w, nnet.constant(np.zeros((1, 2))))


class TestDense:
    """``mlp``'s layers: a one-layer (linear) and a two-layer (ReLU, then
    linear) MLP against chains of ``dense_reference`` nodes."""

    def _inputs(self):
        """Inputs with -0.0 entries whose first-layer pre-activations hold
        exact zeros and NaN, a second layer, and an upstream gradient with
        zeros of both signs."""
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 3))
        x[0] = [-0.0, 0.0, -0.0]
        x[1, 2] = np.nan
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=(1, 4))
        b[0, 0] = -0.0
        # Row 2, column 1 cancels exactly: X @ W + b is 0.0 there.
        b[0, 1] = -(x @ w)[2, 1]
        w2, b2 = rng.normal(size=(4, 4)), rng.normal(size=(1, 4))
        upstream = rng.normal(size=(6, 4))
        upstream[3] = [0.0, -0.0, 0.0, -0.0]
        return x, [w, b, w2, b2], upstream

    @staticmethod
    def _fused_and_chained(x, values, upstream, two_layers):
        """(value, parameter gradients..., input gradient) pairs from ``mlp``
        and its chain of ``dense_reference`` nodes; the one-layer MLP takes
        the first weight and bias only."""
        runs = []
        for layer in (nnet.mlp, mlp_reference):
            params = [make_param(f"p{i}", v) for i, v in enumerate(values[: 4 if two_layers else 2])]
            xn = nnet.constant(x)
            y = layer(params, xn)
            root = nnet.Node(np.float64(0.0), parents=((y, lambda g: g * upstream),))
            nnet.backward(root)
            runs.append((y.value, *(p.grad for p in params), xn.grad))
        return zip(*runs)

    @pytest.mark.parametrize("two_layers", [True, False])
    def test_matches_the_three_node_chain_bitwise(self, two_layers):
        x, values, upstream = self._inputs()
        w, b = values[:2]
        pre = x @ w + b
        assert pre[0, 0] == pre[2, 1] == 0.0 and np.isnan(pre[1]).all() and (pre > 0).any()
        for fused, chained in self._fused_and_chained(x, values, upstream, two_layers):
            np.testing.assert_array_equal(fused, chained)
            np.testing.assert_array_equal(np.signbit(fused), np.signbit(chained))

    @given(
        arrays(np.float64, (3, 2), elements=ANY_FLOAT),
        arrays(np.float64, (2, 4), elements=ANY_FLOAT),
        arrays(np.float64, (1, 4), elements=ANY_FLOAT),
        arrays(np.float64, (4, 4), elements=ANY_FLOAT),
        arrays(np.float64, (1, 4), elements=ANY_FLOAT),
        arrays(np.float64, (3, 4), elements=ANY_FLOAT),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_floats_match_the_reference_bit_for_bit(self, x, w, b, w2, b2, upstream, two_layers):
        with np.errstate(all="ignore"):
            pairs = list(self._fused_and_chained(x, [w, b, w2, b2], upstream, two_layers))
        for fused, chained in pairs:
            np.testing.assert_array_equal(bits(fused), bits(chained))

    def test_shape_mismatches_are_rejected(self):
        x = nnet.constant(np.zeros((2, 3)))
        with pytest.raises(nnet.ShapeError, match=r"layer 0: weight \(2, 4\) .* fit 3 inputs"):
            nnet.mlp([make_param("w", np.zeros((2, 4))), make_param("b", np.zeros((1, 4)))], x)
        with pytest.raises(nnet.ShapeError, match=r"bias \(1, 3\)"):
            nnet.mlp([make_param("w", np.zeros((3, 4))), make_param("b", np.zeros((1, 3)))], x)
        # The second layer is checked against the first layer's output.
        params = [make_param("w", np.zeros((3, 4))), make_param("b", np.zeros((1, 4))),
                  make_param("w1", np.zeros((5, 2))), make_param("b1", np.zeros((1, 2)))]
        with pytest.raises(nnet.ShapeError, match=r"layer 1: weight \(5, 2\) .* fit 4 inputs"):
            nnet.mlp(params, x)


class TestRelu:
    """The ReLU rule that ``mlp`` and ``gcn_layer`` apply in place; their
    gradient masks are compared with ``relu_reference`` in TestDense and
    TestGcnLayer."""

    @staticmethod
    def relu(x):
        y = np.array(x, dtype=np.float64)
        nnet._relu(y)
        return y

    def test_clamps_negatives(self):
        np.testing.assert_array_equal(self.relu([[-1.0, 2.0]]), [[0.0, 2.0]])

    def test_positive_input_unchanged(self):
        x = np.abs(np.random.default_rng(1).normal(size=(3, 3))) + 0.1
        np.testing.assert_array_equal(self.relu(x), x)

    def test_subgradient_at_zero_is_zero(self):
        x = nnet.constant([[0.0, 1.0]])
        out = nnet.gcn_layer(np.eye(1), x, make_param("w", np.eye(2)))
        nnet.backward(out)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])

    @given(arrays(np.float64, (4, 3), elements=ANY_FLOAT))
    @settings(max_examples=200, deadline=None)
    def test_any_floats_match_the_reference_bit_for_bit(self, x):
        got = self.relu(x)
        np.testing.assert_array_equal(bits(got), bits(relu_reference(nnet.constant(x)).value))
        assert not np.signbit(got).any()


class TestNoGrad:
    def _layers(self):
        """One node from each layer function, over one small input."""
        x = nnet.constant(np.random.default_rng(4).normal(size=(4, 3)))
        w, b = make_param("w", np.ones((3, 2))), make_param("b", np.zeros((1, 2)))
        return [
            nnet.mlp(init_mlp_with_biases((3, 5, 2), 3), x),
            nnet.maxpool_rows(x),
            nnet.segment_maxpool(x, np.array([0, 2, 4])),
            nnet.concat_cols([x, x]),
            nnet.gather_rows(x, [0, 0, 3]),
            nnet.pooled_mlp(init_mlp_with_biases((3, 5, 2), 4), x, np.array([0, 1, 4])),
            nnet.gcn_layer(np.eye(4), x, make_param("g", np.ones((3, 3)))),
            nnet.cross_entropy(nnet.mlp([w, b], nnet.constant(x.value[:1])), 1),
        ]

    def test_nodes_keep_no_parents(self):
        with nnet.no_grad():
            inside = self._layers()
        outside = self._layers()
        assert all(node.parents == () and node.upstream is None for node in inside)
        assert all(node.parents for node in outside)
        for a, b in zip(inside, outside):
            np.testing.assert_array_equal(bits(a.value), bits(b.value))

    def test_nested_blocks_restore_the_outer_state(self):
        x = nnet.constant([[1.0]])
        with nnet.no_grad():
            with nnet.no_grad():
                pass
            assert nnet.maxpool_rows(x).parents == ()
        assert nnet.maxpool_rows(x).parents

    def test_state_is_restored_when_the_block_raises(self):
        with pytest.raises(RuntimeError, match="inside"):
            with nnet.no_grad():
                raise RuntimeError("inside")
        assert nnet.maxpool_rows(nnet.constant([[1.0]])).parents


class TestBackward:
    def test_each_upstream_is_applied_once(self):
        x = nnet.constant(np.random.default_rng(5).normal(size=(4, 3)))
        w, b = make_param("w", np.ones((3, 3))), make_param("b", np.zeros((1, 3)))
        hidden = nnet.mlp([w, b], x)
        out = nnet.gcn_layer(np.eye(4), hidden, make_param("g", np.ones((3, 2))))
        calls = {}
        for name, node in (("mlp", hidden), ("gcn_layer", out)):
            def counted(g, name=name, inner=node.upstream):
                calls[name] = calls.get(name, 0) + 1
                return inner(g)

            node.upstream = counted
        nnet.backward(nnet.cross_entropy(nnet.maxpool_rows(out), 1))
        assert calls == {"mlp": 1, "gcn_layer": 1}

    @staticmethod
    def _shared_input_graph():
        """A loss over a two-layer MLP that feeds two consumers, a row
        gather and a graph convolution, and then a one-layer MLP, with its
        leaf input and parameters."""
        rng = np.random.default_rng(9)
        x = nnet.constant(rng.normal(size=(5, 3)))
        w, b = make_param("w", rng.normal(size=(3, 4))), make_param("b", rng.normal(size=(1, 4)))
        w1, b1 = make_param("w1", rng.normal(size=(4, 4))), make_param("b1", rng.normal(size=(1, 4)))
        g = make_param("g", rng.normal(size=(4, 4)))
        c, cb = make_param("c", rng.normal(size=(8, 3))), make_param("cb", np.zeros((1, 3)))
        a_hat = np.abs(rng.normal(size=(5, 5)))
        hidden = nnet.mlp([w, b, w1, b1], x)
        both = nnet.concat_cols([nnet.gather_rows(hidden, [0, 0, 3, 4, 1]), nnet.gcn_layer(a_hat, hidden, g)])
        pooled = nnet.maxpool_rows(nnet.segment_maxpool(both, np.array([0, 2, 5])))
        return x, [w, b, w1, b1, g, c, cb], nnet.cross_entropy(nnet.mlp([c, cb], pooled), 1)

    def test_matches_a_backward_that_keeps_every_gradient(self):
        x, params, loss = self._shared_input_graph()
        x_ref, params_ref, loss_ref = self._shared_input_graph()
        nodes, nodes_ref = nnet._topo_order(loss), nnet._topo_order(loss_ref)
        nnet.backward(loss)
        backward_keeping_every_grad(loss_ref)
        for p, q in zip(params, params_ref):
            np.testing.assert_array_equal(bits(p.grad), bits(q.grad))
        np.testing.assert_array_equal(bits(x.grad), bits(x_ref.grad))
        assert [n.grad is None for n in nodes] == [n is not x for n in nodes]
        assert all(n.grad is not None for n in nodes_ref)
        # The walk consumed every interior node; the leaf keeps its parents.
        assert [n.parents is None and n.upstream is None for n in nodes] == [n is not x for n in nodes]
        assert x.parents == ()

    def test_a_second_backward_through_a_consumed_graph_raises(self):
        x, params, loss = self._shared_input_graph()
        (logits, _), = loss.parents
        nnet.backward(loss)
        grads = [p.grad.copy() for p in params]
        with pytest.raises(ValueError, match="consumed graph"):
            nnet.backward(loss)
        # A new graph over a node of the consumed one raises too.
        with pytest.raises(ValueError, match="consumed graph"):
            nnet.backward(nnet.maxpool_rows(logits))
        for p, g in zip(params, grads):
            np.testing.assert_array_equal(bits(p.grad), bits(g))

    def test_a_leaf_root_passes_nothing_on_each_time(self):
        x = nnet.constant([[1.0, -2.0]])
        w = make_param("w", np.ones((2, 2)))
        with nnet.no_grad():
            out = nnet.gcn_layer(np.eye(1), x, w)
        for root in (x, out, x, out):
            nnet.backward(root)
            np.testing.assert_array_equal(root.grad, np.ones_like(root.value))
        assert x.parents == () and out.parents == ()
        assert not w.grad.any()


class TestGatherRows:
    def test_forward_selects_rows(self):
        x = nnet.constant(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(nnet.gather_rows(x, [2, 0, 2]).value, [[4, 5], [0, 1], [4, 5]])

    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.lists(st.integers(0, 5), max_size=24),
        arrays(np.float64, (24, 4), elements=ANY_FLOAT),
    )
    @settings(max_examples=200, deadline=None)
    def test_vjp_is_bitwise_np_add_at(self, n, c, rows, values):
        # Repeated indices sum in index order, as np.add.at adds them.
        idx = np.array([r % n for r in rows], dtype=np.int64)
        g = values[: len(idx), :c]
        x = nnet.constant(np.zeros((n, c)))
        (_, vjp), = nnet.gather_rows(x, idx).parents
        expected = np.zeros((n, c))
        with np.errstate(all="ignore"):
            np.add.at(expected, idx, g)
            got = vjp(g)
        assert got.dtype == np.float64 and got.shape == (n, c)
        np.testing.assert_array_equal(bits(got), bits(expected))


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

    @pytest.mark.parametrize(
        "case", ["variable", "uniform", "one_row", "duplicate_rows", "padded", "signed_zeros"]
    )
    def test_segment_maxpool_vjp_matches_the_row_matrix_reference(self, case):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(12, 5))
        offsets = np.array([0, 4, 5, 7, 12])
        if case == "uniform":
            offsets = np.arange(0, 13, 3)
        elif case == "one_row":
            offsets = np.arange(13)
        elif case == "duplicate_rows":
            v[[2, 9, 11]] = v[[1, 8, 8]]
        elif case == "padded":
            # Pad-by-repeat: short patches repeat their nearest candidate.
            v[[6, 10, 11]] = v[[5, 7, 7]]
        elif case == "signed_zeros":
            v = np.where(v > 0, 0.0, -0.0)
        g = rng.normal(size=(len(offsets) - 1, v.shape[1]))
        g[::2, 1:3] = -0.0
        (_, vjp), = nnet.segment_maxpool(nnet.constant(v), offsets).parents
        got = vjp(g)
        assert got.dtype == np.float64 and got.shape == v.shape
        np.testing.assert_array_equal(bits(got), bits(segment_maxpool_vjp_reference(v, offsets, g)))

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=6),
        arrays(np.float64, (24, 3), elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])),
        arrays(np.float64, (6, 3), elements=st.sampled_from([-0.0, 0.5, -2.0])),
    )
    @settings(max_examples=200, deadline=None)
    def test_segment_maxpool_vjp_matches_the_reference_on_ties(self, lengths, values, grads):
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        v, g = values[: offsets[-1]], grads[: len(lengths)]
        (_, vjp), = nnet.segment_maxpool(nnet.constant(v), offsets).parents
        np.testing.assert_array_equal(bits(vjp(g)), bits(segment_maxpool_vjp_reference(v, offsets, g)))

    def test_segment_maxpool_routes_a_nan_max_as_maxpool_rows_does(self):
        x = np.array([[1.0, np.nan], [2.0, 3.0], [np.nan, np.nan], [0.5, 1.0]])
        seg, rows = nnet.constant(x), nnet.constant(x)
        pooled = nnet.segment_maxpool(seg, [0, 4])
        nnet.backward(pooled)
        nnet.backward(nnet.maxpool_rows(rows))
        np.testing.assert_array_equal(pooled.value, [[np.nan, np.nan]])
        np.testing.assert_array_equal(seg.grad, rows.grad)
        np.testing.assert_array_equal(seg.grad, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])

    def test_segment_maxpool_rejects_empty_segment(self):
        with pytest.raises(ValueError):
            nnet.segment_maxpool(nnet.constant(np.zeros((3, 2))), [0, 3, 3])

    @pytest.mark.parametrize("offsets", [[0, 1, 2], [1, 2, 4], [0, 2, 5], [0], []])
    def test_segment_maxpool_rejects_offsets_that_do_not_span_the_rows(self, offsets):
        # reduceat would run the last segment to the end, or skip the first rows.
        with pytest.raises(ValueError, match="rise from 0 to the row count 4"):
            nnet.segment_maxpool(nnet.constant(np.zeros((4, 2))), offsets)

    @given(
        st.integers(1, 24),
        arrays(np.float64, (24, 3), elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, np.nan])),
        arrays(np.float64, (1, 3), elements=st.sampled_from([-0.0, 0.5, -2.0])),
    )
    @settings(max_examples=200, deadline=None)
    def test_maxpool_rows_matches_the_reference(self, rows, values, g):
        v = values[:rows]
        out = nnet.maxpool_rows(nnet.constant(v))
        (_, vjp), = out.parents
        np.testing.assert_array_equal(out.value, v.max(axis=0, keepdims=True))
        np.testing.assert_array_equal(bits(vjp(g)), bits(segment_maxpool_vjp_reference(v, np.array([0, rows]), g)))

    def test_argmax_rows_are_found_only_for_a_graph(self, monkeypatch):
        calls = []
        argmax = nnet._segment_argmax
        monkeypatch.setattr(nnet, "_segment_argmax", lambda *a: calls.append(1) or argmax(*a))
        x = nnet.constant(np.random.default_rng(3).normal(size=(6, 2)))
        params = init_mlp_with_biases((2, 3), 1)

        def pool_each_way():
            nnet.maxpool_rows(x)
            nnet.segment_maxpool(x, [0, 2, 6])
            nnet.pooled_mlp(params, x, [0, 6])

        with nnet.no_grad():
            pool_each_way()
        assert not calls
        pool_each_way()
        assert len(calls) == 3


class TestPooledMlp:
    @staticmethod
    def _fused_and_chained(params, x, offsets, upstream, as_root=False):
        """(value, parameter gradients..., input gradient) pairs from
        ``pooled_mlp`` and its chain of nodes. The node gets ``upstream`` as
        its gradient when ``as_root``, and through a loss node otherwise."""
        runs = []
        for layer in (nnet.pooled_mlp, pooled_mlp_reference):
            ps = [make_param(p.name, p.value.copy()) for p in params]
            xn = nnet.constant(x)
            y = layer(ps, xn, offsets)
            if as_root:
                backward_keeping_every_grad(y, upstream)
            else:
                nnet.backward(nnet.Node(np.float64(0.0), parents=((y, lambda g: g * upstream),)))
            runs.append((y.value, *(p.grad for p in ps), xn.grad))
        return list(zip(*runs))

    @staticmethod
    def _ties(params, x, offsets):
        """How many more pre-pool entries than pooled ones hold their
        segment's max: 0 when every max is attained once."""
        with nnet.no_grad():
            pre = nnet.mlp(params, nnet.constant(x)).value
        out = np.maximum.reduceat(pre, offsets[:-1], axis=0)
        return np.count_nonzero(pre == np.repeat(out, np.diff(offsets), axis=0)) - out.size

    @pytest.mark.parametrize("as_root", [False, True])
    @pytest.mark.parametrize(
        "case",
        ["variable", "one_row", "padded", "signed_zeros", "dead_rows", "one_layer", "nan_rows"],
    )
    def test_matches_the_chain_of_nodes_bit_for_bit(self, case, as_root):
        rng = np.random.default_rng(17)
        # NaN rows get one layer too, so the NaN reaches the pool: a ReLU zeroes it.
        one_layer = case in ("one_layer", "nan_rows")
        params = init_mlp_with_biases((3, 4) if one_layer else (3, 6, 4), 5)
        x = rng.normal(size=(12, 3))
        offsets = np.array([0, 4, 5, 7, 12])
        if case == "one_row":
            offsets = np.arange(13)
        elif case == "padded":
            # Pad-by-repeat: short patches repeat their nearest candidate.
            x[[6, 10, 11]] = x[[5, 7, 7]]
        elif case == "signed_zeros":
            x[[0, 2, 8, 9]] = [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0] * 3, [0.0] * 3]
        elif case == "dead_rows":
            # Rows whose hidden units are all dead pool to the output bias.
            params[1].value[...] = -1.0
            params[0].value[...] = np.abs(params[0].value)
            x[[0, 1, 8, 9, 11]] = -x[[0, 1, 8, 9, 11]] ** 2 - 1.0
        elif case == "nan_rows":
            x[[1, 5]] = np.nan
        assert (self._ties(params, x, offsets) > 0) == (case in ("padded", "signed_zeros", "dead_rows"))
        g = rng.normal(size=(len(offsets) - 1, 4))
        g[::2, 1:3] = -0.0
        for fused, chained in self._fused_and_chained(params, x, offsets, g, as_root):
            np.testing.assert_array_equal(bits(fused), bits(chained))

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=6),
        arrays(np.float64, (24, 2), elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])),
        arrays(np.float64, (2, 3), elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0])),
        arrays(np.float64, (1, 3), elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0])),
        arrays(np.float64, (3, 2), elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0])),
        arrays(np.float64, (1, 2), elements=st.sampled_from([-0.0, 0.0, 1.0])),
        arrays(np.float64, (6, 2), elements=st.sampled_from([-0.0, 0.5, -2.0])),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_values_match_the_chain_bit_for_bit(self, lengths, x, w0, b0, w1, b1, g, as_root):
        # Small integers keep every sum exact, so rows tie and zeros of both
        # signs reach the ReLU and the pool.
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        params = [make_param(n, v) for n, v in zip(("w0", "b0", "w1", "b1"), (w0, b0, w1, b1))]
        runs = self._fused_and_chained(params, x[: offsets[-1]], offsets, g[: len(lengths)], as_root)
        for fused, chained in runs:
            np.testing.assert_array_equal(bits(fused), bits(chained))

    def test_the_node_keeps_no_hidden_or_pre_pool_rows(self):
        rng = np.random.default_rng(19)
        params = init_mlp_with_biases((3, 64, 32), 7)
        x = nnet.constant(rng.normal(size=(4000, 3)))
        tracemalloc.start()
        try:
            y = nnet.pooled_mlp(params, x, np.arange(0, 4001, 8))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [target for target, _ in y.parents] == [*params, x]
        # The pooled rows and an argmax row per entry: 256 KB. The hidden
        # rows alone would be 2 MB, the pre-pool rows 1 MB.
        assert kept < 2 * y.value.nbytes + 64 * 1024

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(20)
        params = init_mlp_with_biases((3, 5, 4), 8)
        x = rng.normal(size=(7, 3))
        offsets = np.array([0, 2, 3, 7])

        def loss_fn():
            pooled = nnet.pooled_mlp(params, nnet.constant(x), offsets)
            return nnet.cross_entropy(nnet.maxpool_rows(pooled), 2)

        assert worst_gradient_error(loss_fn, params) <= 1e-5


class TestGcnLayer:
    def _inputs(self):
        """A renormalized-style adjacency, inputs whose products hold exact
        zeros, and an upstream gradient with zeros of both signs."""
        rng = np.random.default_rng(15)
        a_hat = np.abs(rng.normal(size=(5, 5)))
        a_hat[0] = 0.0
        x = rng.normal(size=(5, 3))
        x[1] = [-0.0, 0.0, -0.0]
        w = rng.normal(size=(3, 4))
        upstream = rng.normal(size=(5, 4))
        upstream[2] = [0.0, -0.0, 0.0, -0.0]
        return a_hat, x, w, upstream

    @staticmethod
    def _fused_and_chained(a_hat, x, w, upstream):
        """(value, w and x gradients) pairs from ``gcn_layer`` and its oracle."""
        runs = []
        for layer in (nnet.gcn_layer, gcn_reference):
            wp, xn = make_param("w", w), nnet.constant(x)
            y = layer(a_hat, xn, wp)
            root = nnet.Node(np.float64(0.0), parents=((y, lambda g: g * upstream),))
            nnet.backward(root)
            runs.append((y.value, wp.grad, xn.grad))
        return zip(*runs)

    def test_matches_the_three_node_chain_bitwise(self):
        a_hat, x, w, upstream = self._inputs()
        pre = a_hat @ (x @ w)
        assert (pre[0] == 0.0).all() and (pre > 0).any() and (pre < 0).any()
        for fused, chained in self._fused_and_chained(a_hat, x, w, upstream):
            np.testing.assert_array_equal(bits(fused), bits(chained))

    @given(
        arrays(np.float64, (3, 3), elements=ANY_FLOAT),
        arrays(np.float64, (3, 2), elements=ANY_FLOAT),
        arrays(np.float64, (2, 4), elements=ANY_FLOAT),
        arrays(np.float64, (3, 4), elements=ANY_FLOAT),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_floats_match_the_reference_bit_for_bit(self, a_hat, x, w, upstream):
        with np.errstate(all="ignore"):
            pairs = list(self._fused_and_chained(a_hat, x, w, upstream))
        for fused, chained in pairs:
            np.testing.assert_array_equal(bits(fused), bits(chained))

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

        assert worst_gradient_error(scalar_loss, [w]) <= 1e-5

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


def vm_rss_bytes():
    try:
        with open("/proc/self/status") as fh:
            line = next(line for line in fh if line.startswith("VmRSS:"))
    except (OSError, StopIteration):
        pytest.skip("no VmRSS in /proc/self/status")
    return int(line.split()[1]) * 1024


class TestParameterSet:
    def test_packing_leaves_the_gradient_buffer_unmapped(self):
        # 42 MB is above glibc's 32 MB ceiling for its mmap threshold, so the
        # zeroed buffer is always a fresh mapping that nothing has written.
        # Writing zeros into it at packing grows VmRSS by all of it.
        value = np.ones((2300, 2300))
        # np.zeros, unlike np.zeros_like, leaves its pages unwritten.
        params = [nnet.Parameter("p", value, np.zeros(value.shape))]
        del value  # packing frees the old value as it rebinds it
        before = vm_rss_bytes()
        packed = nnet.ParameterSet(params)
        grown = vm_rss_bytes() - before
        assert packed.grads.nbytes >= 40 * 2**20
        assert grown < 0.1 * packed.grads.nbytes
        assert not packed.grads.any()

    def test_a_non_zero_gradient_is_packed_bitwise(self):
        grads = [np.array([[1.5, -0.0, np.nan]]), np.array([[-0.0, -0.0]]), np.zeros((2, 2))]
        params = [
            nnet.Parameter(f"p{i}", np.full(g.shape, float(i)), g.copy()) for i, g in enumerate(grads)
        ]
        packed = nnet.ParameterSet(params)
        for p, g in zip(packed, grads):
            assert np.shares_memory(p.grad, packed.grads)
            np.testing.assert_array_equal(p.grad.view(np.uint64), g.view(np.uint64))
        np.testing.assert_array_equal(packed.values, [0, 0, 0, 1, 1, 2, 2, 2, 2])


class TestOptimizer:
    def test_zero_gradient_leaves_adam_parameters_unchanged(self):
        p = make_param("p", [[1.0, 2.0]])
        state = nnet.OptimizerState()
        nnet.optimizer_step(state, nnet.ParameterSet([p]))
        np.testing.assert_array_equal(p.value, [[1.0, 2.0]])

    def test_first_adam_step_by_hand(self):
        # After bias correction the first step's moments are g and g**2 (up
        # to rounding), so each entry moves by lr * g / (|g| + eps).
        g = np.array([[3.0, -0.5, 1e-9, 0.0]])
        p = make_param("p", np.zeros_like(g))
        p.grad[...] = g
        state = nnet.OptimizerState(learning_rate=0.1)
        nnet.optimizer_step(state, nnet.ParameterSet([p]))
        np.testing.assert_allclose(-p.value, 0.1 * g / (np.abs(g) + nnet.ADAM_EPS), rtol=1e-12, atol=0)

    def test_gradients_zeroed_after_step(self):
        p = make_param("p", [[0.0]])
        p.grad[...] = 3.0
        nnet.optimizer_step(nnet.OptimizerState(), nnet.ParameterSet([p]))
        np.testing.assert_array_equal(p.grad, [[0.0]])

    def test_three_steps_bitwise_reproducible(self):
        def run():
            rng = np.random.default_rng(4)
            p = nnet.init_parameter("p", (3, 2), rng)
            params = nnet.ParameterSet([p])
            state = nnet.OptimizerState()
            for _ in range(3):
                x = nnet.constant(rng.normal(size=(2, 3)))
                nnet.backward(nnet.maxpool_rows(nnet.gcn_layer(np.eye(2), x, p)))
                nnet.optimizer_step(state, params)
            return p.value

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_names_parameter(self):
        p = make_param("clf.w0", [[0.0]])
        p.grad[...] = np.nan
        with pytest.raises(nnet.TrainingDivergenceError, match="clf.w0"):
            nnet.optimizer_step(nnet.OptimizerState(), nnet.ParameterSet([p]))

    def test_a_refused_step_does_not_refuse_the_next(self):
        def state_after(steps):
            p = make_param("p", [[0.5, -1.0]])
            params, state = nnet.ParameterSet([p]), nnet.OptimizerState()
            for g in steps:
                p.grad += g
                try:
                    nnet.optimizer_step(state, params)
                except nnet.TrainingDivergenceError:
                    assert not params.grads.any() and not np.signbit(params.grads).any()
            return p.value, state

        good, bad = [[0.25, 1.0]], [[np.nan, 1.0]]
        value, state = state_after([good, bad, good])
        ref_value, ref_state = state_after([good, good])
        assert state.step == ref_state.step == 2
        for a, b in ((value, ref_value), (state.m, ref_state.m), (state.v, ref_state.v)):
            np.testing.assert_array_equal(bits(a), bits(b))

    def test_flat_update_matches_the_per_parameter_loop_bitwise(self):
        rng = np.random.default_rng(14)
        shapes = [(3, 2), (1, 2), (4, 4), (1, 1)]
        # Small values keep the last bits of each update visible.
        values = [rng.normal(size=s) * 1e-6 for s in shapes]
        values[1][...] = 0.0
        flat = nnet.ParameterSet([make_param(f"p{i}", v) for i, v in enumerate(values)])
        loop = [make_param(f"p{i}", v) for i, v in enumerate(values)]
        state, loop_state = nnet.OptimizerState(), {"step": 0}
        for step in range(3):
            for a, b in zip(flat, loop):
                g = rng.normal(size=a.value.shape) * 10.0 ** rng.integers(-6, 3)
                g[rng.random(g.shape) < 0.3] = 0.0
                a.grad[...] = b.grad[...] = g
            # A parameter with no gradient at all on one step.
            flat[step].grad[...] = loop[step].grad[...] = 0.0
            nnet.optimizer_step(state, flat)
            adam_reference(loop_state, loop)
            for a, b in zip(flat, loop):
                np.testing.assert_array_equal(a.value, b.value)
                np.testing.assert_array_equal(a.grad, b.grad)

    def test_state_of_another_size_is_rejected(self):
        state = nnet.OptimizerState()
        nnet.optimizer_step(state, nnet.ParameterSet([make_param("p", np.zeros((2, 3)))]))
        other = nnet.ParameterSet([make_param("q", np.ones((1, 4)))])
        with pytest.raises(ValueError, match=r"\b6\b.*\b4\b"):
            nnet.optimizer_step(state, other)
        np.testing.assert_array_equal(other.values, np.ones(4))
        assert state.step == 1


class TestGradientCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(8)
        w = make_param("w", rng.normal(size=(3, 2)))
        x = rng.normal(size=(4, 3))

        def loss_fn():
            out = linear_reference(w, nnet.constant(x))
            return nnet.Node(out.value.sum(), parents=((out, lambda g: np.full_like(out.value, g)),))

        assert worst_gradient_error(loss_fn, [w]) <= 1e-9

    def test_two_layer_mlp(self):
        rng = np.random.default_rng(9)
        params = nnet.init_mlp((3, 8, 2), rng, "mlp")
        x = rng.normal(size=(5, 3)) + 0.5

        def loss_fn():
            return nnet.cross_entropy(nnet.maxpool_rows(nnet.mlp(params, nnet.constant(x))), 1)

        assert worst_gradient_error(loss_fn, params) <= 1e-5

    def test_finite_difference_forwards_build_no_graph(self):
        params = init_mlp_with_biases((3, 4, 2), 11)
        x = np.random.default_rng(11).normal(size=(5, 3))
        built = []

        def loss_fn():
            loss = nnet.cross_entropy(nnet.maxpool_rows(nnet.mlp(params, nnet.constant(x))), 1)
            built.append(bool(loss.parents))
            return loss

        errors = nnet.gradient_check_blocks(loss_fn, params, eps=1e-6)
        # One graph for the analytic gradients, then two forwards per entry.
        assert built == [True] + [False] * (2 * sum(p.value.size for p in params))
        assert max(errors.values()) <= 1e-5

    def test_a_nan_loss_makes_every_block_error_non_finite(self):
        # With max(worst, nan), which keeps worst, this read 0.0 per block.
        params = init_mlp_with_biases((3, 4, 2), 12)
        params[-1].value[0, 1] = np.nan
        x = np.random.default_rng(12).normal(size=(5, 3))

        def loss_fn():
            return nnet.cross_entropy(nnet.maxpool_rows(nnet.mlp(params, nnet.constant(x))), 1)

        errors = nnet.gradient_check_blocks(loss_fn, params, eps=1e-6)
        assert list(errors) == [p.name for p in params]
        assert not any(np.isfinite(e) for e in errors.values())

    def test_gather_and_concat_ops(self):
        rng = np.random.default_rng(10)
        w = make_param("w", rng.normal(size=(4, 3)))
        x = rng.normal(size=(6, 4))
        idx = np.array([0, 2, 2, 5, 1])

        def loss_fn():
            h = nnet.gather_rows(linear_reference(w, nnet.constant(x)), idx)
            h = nnet.concat_cols([h, h])
            return nnet.cross_entropy(nnet.maxpool_rows(h), 3)

        assert worst_gradient_error(loss_fn, [w]) <= 1e-5


class TestMlp:
    def test_spec_validation(self):
        for widths in ((3,), (3, 0)):
            with pytest.raises(ValueError, match="invalid MLP widths"):
                nnet.init_mlp(widths, np.random.default_rng(0), "m")

    def test_init_is_reproducible_and_bounded(self):
        a = nnet.init_mlp((4, 8, 2), np.random.default_rng(3), "m")
        b = nnet.init_mlp((4, 8, 2), np.random.default_rng(3), "m")
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.value, pb.value)
        bound = np.sqrt(6.0 / (4 + 8))
        assert np.abs(a[0].value).max() <= bound

    def test_bias_shifts_output(self):
        params = nnet.init_mlp((2, 2), np.random.default_rng(0), "m")
        params[1].value[...] = [[10.0, -10.0]]
        out = nnet.mlp(params, nnet.constant([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.value, [[10.0, -10.0]])

    def test_the_node_keeps_only_its_input(self):
        params = init_mlp_with_biases((3, 64, 64, 8), 7)
        x = nnet.constant(np.random.default_rng(21).normal(size=(4000, 3)))
        tracemalloc.start()
        try:
            y = nnet.mlp(params, x)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [target for target, _ in y.parents] == [*params, x]
        # The output rows: 256 KB. Each hidden layer's rows alone would be 2 MB.
        assert kept < y.value.nbytes + 64 * 1024


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

    def test_rejects_a_header_longer_than_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(nnet.CHECKPOINT_MAGIC + (2**62).to_bytes(8, "little") + b"{}")
        with pytest.raises(ValueError, match="truncated"):
            nnet.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values_naming_the_parameter(self, tmp_path, bad):
        value = np.ones((2, 3))
        value[1, 2] = bad
        path = tmp_path / "model.ckpt"
        nnet.save_checkpoint(path, {}, [make_param("a.w0", np.ones((1, 2))), make_param("b.b1", value)])
        with pytest.raises(ValueError, match="'b.b1' holds non-finite values") as raised:
            nnet.load_checkpoint(path)
        assert str(path) in str(raised.value)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            nnet.load_checkpoint(path)
