"""Minimal MLP and graph layers with reverse-mode gradients on float64 arrays.

A forward pass builds a small DAG of ``Node`` objects; ``backward`` walks it
in reverse topological order and accumulates gradients into ``Parameter``
buffers. A node's optional ``upstream`` maps its gradient, once, to the
array each of its vjps receives, so work they share (a ReLU mask,
``A_hat.T @``, an MLP's chain of layers) runs once and is freed as soon as
they have run. A backward consumes its graph: once an interior node's vjps
have passed its gradient on, the node drops that gradient, its parents and
its upstream, so every array its vjps saved is freed after its last
consumer has run. After a backward only ``Parameter`` gradients, leaf-node
gradients and the values of nodes the caller still holds remain, and a
second backward through the graph raises.

The layer set is fixed: a per-row MLP (affine layers with ReLU between
them), the same MLP max-pooled per segment, and graph convolution (ReLU of
a constant matrix times a linear map), each as one node; row/segment max
pooling, column concatenation, row gathering, and softmax cross-entropy.

A node keeps its value and what its vjps read. An MLP node reads only its
input, a max-pooling node each segment's argmax rows, and a pooled MLP node
both; one helper recomputes the hidden rows and backpropagates the chain of
layers for both MLP nodes, so a graph holds no hidden or pre-pool rows.

A ``ParameterSet`` keeps a model's values and gradients in two flat
buffers, which Adam updates in a few whole-buffer passes. The gradient
buffer starts zeroed and unwritten, so a process that only runs forward
passes need not map its pages.

Inside a ``no_grad()`` block the same layer functions run without a graph:
every ``Node`` keeps no parents and no upstream map, so each intermediate
array is freed as soon as the next layer has consumed it, and the result
cannot be differentiated.

ReLU has one rule, used by ``mlp``, ``pooled_mlp`` and ``gcn_layer``:
``max(0, x)`` with +0.0 for every input that is not positive (-0.0, NaN and
negatives included), and a subgradient of 0 at exactly 0. Its gradient is
masked with ``output > 0``, which holds exactly where the input was
positive. The mask reads a node's value (``gcn_layer``) or rows recomputed
from its input (the MLPs), so no caller may change a node's value in place.
"""

from __future__ import annotations

import json
import math
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"RIGCN1\n"
CHECKPOINT_VERSION = 1
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class TrainingDivergenceError(RuntimeError):
    """Raised when a gradient or loss stops being finite."""


@dataclass(eq=False)
class Parameter:
    """A learnable matrix and its gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray

    def zero_grad(self):
        self.grad[...] = 0.0


class ParameterSet(list):
    """Parameters whose values and gradients live in two flat float64
    buffers, ``values`` and ``grads``, in list order.

    Packing copies each parameter's value and gradient into the buffers and
    rebinds ``Parameter.value`` and ``.grad`` to views of them, so the
    optimizer updates every parameter in whole-buffer passes. ``grads``
    starts zeroed (``np.zeros``), and packing writes only the gradients that
    are not all +0.0, so a fresh model's gradient buffer is never written.
    Where the allocator takes it fresh from the system, as it does for large
    buffers, its pages stay unmapped until the first backward writes them,
    and a process that only runs forward passes never maps them. Write into a
    parameter in place (``p.value[...] = ...``): rebinding ``p.value``
    detaches it from the buffers, and the optimizer no longer sees it. The
    list is not meant to grow or shrink after packing.
    """

    def __init__(self, params):
        super().__init__(params)
        total = sum(p.value.size for p in self)
        self.values = np.empty(total)
        self.grads = np.zeros(total)
        start = 0
        for p in self:
            stop = start + p.value.size
            value = self.values[start:stop].reshape(p.value.shape)
            value[...] = p.value
            grad = self.grads[start:stop].reshape(p.value.shape)
            # Only an all +0.0 gradient is skipped: -0.0 keeps its sign bit.
            if p.grad.any() or np.signbit(p.grad).any():
                grad[...] = p.grad
            p.value, p.grad = value, grad
            start = stop


def init_parameter(name: str, shape: tuple[int, int], rng: np.random.Generator) -> Parameter:
    """Fan-based symmetric uniform initialization, reproducible from the seed."""
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    value = rng.uniform(-bound, bound, size=shape)
    return Parameter(name=name, value=value, grad=np.zeros(shape))


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block: new nodes keep no parents.

    Blocks nest, and leaving one (also by an exception) restores the state
    it was entered with.
    """
    global _grad_enabled
    outer, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = outer


class Node:
    """One value in the computation graph of a forward pass."""

    __slots__ = ("value", "grad", "parents", "upstream")

    def __init__(self, value, parents=(), upstream=None):
        self.value = value
        self.grad = None
        # parents: tuple of (Node-or-Parameter, vjp) where vjp maps the
        # upstream (upstream(grad), or grad when upstream is None) to this
        # parent's gradient contribution; both are dropped under no_grad(),
        # and a backward sets both to None once it has consumed the node.
        self.parents = parents if _grad_enabled else ()
        self.upstream = upstream if _grad_enabled else None


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node.parents is None:
            raise ValueError("backward through a consumed graph: an earlier backward dropped its parents")
        visited.add(id(node))
        stack.append((node, True))
        for target, _ in node.parents:
            if isinstance(target, Node) and id(target) not in visited:
                stack.append((target, False))
    return order


def backward(root: Node) -> None:
    """Accumulate d(root)/d(parameter) into every reachable Parameter.grad.

    The call consumes the graph. A node with parents has received every
    contribution before the reverse topological walk reaches it, so once its
    vjps have passed its gradient on, the node drops its gradient (``grad``
    back to None), its ``parents`` (set to None) and its ``upstream``, and
    the walk drops the node. Each array a vjp captured (a saved input, a
    ReLU output, ``A_hat``, argmax rows) is freed once its last consumer has
    run. Only ``Parameter`` gradients, leaf-node (constant) gradients and
    the values of nodes the caller still holds survive the call. A second
    backward through a consumed node raises ``ValueError``; a leaf root (a
    constant, or a forward under ``no_grad()``) passes nothing on, as before.
    """
    order = _topo_order(root)
    root.grad = np.ones_like(root.value)
    while order:
        node = order.pop()
        parents, upstream, g = node.parents, node.upstream, node.grad
        if g is None or not parents:
            continue
        node.grad = node.parents = node.upstream = None
        if upstream is not None:
            g = upstream(g)
        for target, vjp in parents:
            # Each contribution is a temporary, freed as soon as it is added
            # rather than held while the next node's upstream runs.
            if target.grad is None:
                # Bitwise zeros + contribution, which turns -0.0 into 0.0,
                # and never aliases the contribution (a vjp may return a view
                # of g), which a later += would overwrite.
                target.grad = vjp(g) + 0.0
            else:
                target.grad += vjp(g)


def constant(value) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


def _relu(y: np.ndarray) -> None:
    """The ReLU rule, in place: ``fmax`` sends NaN to 0.0, and adding +0.0
    turns the -0.0 it may keep into +0.0 while leaving every other value as
    it is. Branch-free, unlike a masked copy."""
    np.fmax(y, 0.0, out=y)
    y += 0.0


def _affine(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray, activate: bool) -> np.ndarray:
    """One MLP layer: X @ W + b, then the ReLU rule when ``activate``."""
    y = xv @ wv
    y += bv
    if activate:
        _relu(y)
    return y


def maxpool_rows(x: Node) -> Node:
    """Column-wise max over rows, as a 1-row matrix: ``segment_maxpool``
    over one segment."""
    return segment_maxpool(x, [0, len(x.value)])


def _segment_argmax(v: np.ndarray, out: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per segment and column, the lowest row of ``v`` that holds the
    segment's max ``out``; a NaN max is held by the segment's NaN rows, so
    the first NaN row takes it."""
    hit = v == np.repeat(out, np.diff(offsets), axis=0)
    flat = np.flatnonzero(hit.T)  # column by column, rows in order
    if flat.size == out.size and not np.isnan(out).any():
        # A max that is not NaN equals at least one row of its segment, so
        # this many hits is one per segment and column (no ties): each
        # column's hits are its argmax rows, segment by segment.
        return (flat.reshape(out.shape[::-1]) % len(v)).T
    hit |= np.isnan(v)  # a NaN row makes its segment's max NaN
    hit_rows = np.where(hit, np.arange(len(v))[:, None], len(v))
    return np.minimum.reduceat(hit_rows, offsets[:-1], axis=0)


def _scatter_rows(argrows: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """An (n, c) zero matrix holding ``g[i, j]`` at row ``argrows[i, j]`` of
    column j."""
    gx = np.zeros((n, g.shape[1]))
    gx[argrows, np.arange(g.shape[1])] = g
    return gx


def segment_maxpool(x: Node, offsets: np.ndarray) -> Node:
    """Row-wise max within each contiguous segment of rows.

    Segment ``i`` is ``rows[offsets[i]:offsets[i + 1]]``, non-empty, and the
    segments span the rows; output row ``i`` is its column-wise max. Ties
    route the gradient to the lowest row index. In a graph the node keeps
    each segment's argmax rows, found once in the forward, not its input.
    """
    v = x.value
    offsets = np.asarray(offsets)
    if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != len(v) or np.any(np.diff(offsets) < 1):
        raise ValueError(f"segment_maxpool offsets must rise from 0 to the row count {len(v)}")
    out = np.maximum.reduceat(v, offsets[:-1], axis=0)
    if not _grad_enabled:
        return Node(out)
    argrows, n = _segment_argmax(v, out, offsets), len(v)
    return Node(out, parents=((x, lambda g: _scatter_rows(argrows, g, n)),))


def concat_cols(nodes: list[Node]) -> Node:
    """Channel-wise concatenation of equal-height matrices."""
    widths = [n.value.shape[1] for n in nodes]
    stops = np.cumsum(widths)
    starts = stops - widths
    parents = tuple(
        (node, (lambda a, b: lambda g: g[:, a:b])(a, b))
        for node, a, b in zip(nodes, starts, stops)
    )
    return Node(np.hstack([n.value for n in nodes]), parents=parents)


def gather_rows(x: Node, indices) -> Node:
    """Y = X[indices]; backward scatter-adds (indices may repeat)."""
    idx = np.asarray(indices)

    def vjp(g):
        # One flat bincount over (row, column) cells; it sums each cell's
        # contributions in index order, as np.add.at does, so the bits match.
        n, c = x.value.shape
        cells = (idx[:, None] * c + np.arange(c)).ravel()
        gx = np.bincount(cells, weights=g.ravel(), minlength=n * c).reshape(n, c)
        return gx.astype(x.value.dtype, copy=False)  # an empty bincount is integer

    return Node(x.value[idx], parents=((x, vjp),))


def gcn_layer(a_hat: np.ndarray, x: Node, w: Parameter) -> Node:
    """One graph convolution, ReLU(A_hat @ (X @ W)), as one node; A_hat is a
    constant (no gradient flows into it), and the identity makes the layer a
    per-row linear map and ReLU."""
    xv, wv = x.value, w.value
    if a_hat.shape[0] != a_hat.shape[1] or a_hat.shape[1] != xv.shape[0]:
        raise ShapeError(f"gcn_layer: adjacency {a_hat.shape} does not match signal {xv.shape}")
    if xv.shape[1] != wv.shape[0]:
        raise ShapeError(f"gcn_layer: input shape {xv.shape} does not match weight shape {wv.shape}")
    y = a_hat @ (xv @ wv)
    _relu(y)
    parents = ((w, lambda u: xv.T @ u), (x, lambda u: u @ wv.T))
    return Node(y, parents, upstream=lambda g: a_hat.T @ (g * (y > 0)))


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Stable cross-entropy loss and its gradient w.r.t. the logits."""
    flat = np.asarray(logits, dtype=np.float64).ravel()
    if not 0 <= label < flat.size:
        raise ValueError(f"label {label} out of range for {flat.size} classes")
    shifted = flat - flat.max()
    exp = np.exp(shifted)
    z = exp.sum()
    loss = float(np.log(z) - shifted[label])
    grad = exp / z
    grad[label] -= 1.0
    return loss, grad


def cross_entropy(logits: Node, label: int) -> Node:
    """Graph op wrapping ``softmax_cross_entropy``; value is a 0-d scalar."""
    loss, grad = softmax_cross_entropy(logits.value, label)
    grad = grad.reshape(logits.value.shape)
    return Node(np.float64(loss), parents=((logits, lambda g: g * grad),))


def init_mlp(widths: tuple[int, ...], rng: np.random.Generator, prefix: str) -> list[Parameter]:
    """Weight/bias pairs for an MLP with layer ``widths``, the input width
    first; biases start at zero."""
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid MLP widths {tuple(widths)}")
    params: list[Parameter] = []
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        params.append(init_parameter(f"{prefix}.w{i}", (a, b), rng))
        params.append(Parameter(f"{prefix}.b{i}", np.zeros((1, b)), np.zeros((1, b))))
    return params


def _mlp_layers(params: list[Parameter], width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (W, b) values of each layer, checked to chain from an input
    ``width`` columns wide."""
    layers = [(w.value, b.value) for w, b in zip(params[0::2], params[1::2])]
    for i, (wv, bv) in enumerate(layers):
        if wv.shape[0] != width or bv.shape != (1, wv.shape[1]):
            raise ShapeError(f"mlp layer {i}: weight {wv.shape} and bias {bv.shape} do not fit {width} inputs")
        width = wv.shape[1]
    return layers


def _layer_inputs(layers, xv: np.ndarray) -> list[np.ndarray]:
    """Each layer's input: ``xv``, then the rows of every hidden layer."""
    ins = [xv]
    for wv, bv in layers[:-1]:
        ins.append(_affine(ins[-1], wv, bv, True))
    return ins


def _mlp_backward(layers, xv: np.ndarray, u: np.ndarray) -> list[np.ndarray]:
    """The gradients of an MLP's W and b, layer by layer, then of its input,
    from ``u``, the gradient of its output rows. The hidden rows are
    recomputed from ``xv`` bit for bit, and each hidden layer's gradient
    gets ``backward``'s ``+ 0.0``, so every gradient has the bits that a
    chain of one node per layer would give it."""
    ins = _layer_inputs(layers, xv)
    grads = [None] * (2 * len(layers) + 1)
    for i in reversed(range(len(layers))):
        grads[2 * i] = ins[i].T @ u
        grads[2 * i + 1] = u.sum(axis=0, keepdims=True)
        u = u @ layers[i][0].T
        if i:
            u += 0.0
            u *= ins.pop() > 0  # the ReLU mask of layer i - 1
    grads[-1] = u
    return grads


def mlp(params: list[Parameter], x: Node) -> Node:
    """Affine layers with the ReLU rule between them, the final layer
    linear, as one node.

    The node keeps only its input; the hidden rows are freed once the next
    layer has read them, and its backward recomputes them. Every parameter
    and the input (a constant too) gets its gradient.
    """
    xv = x.value
    layers = _mlp_layers(params, xv.shape[1])
    y = _affine(_layer_inputs(layers, xv)[-1], *layers[-1], False)
    parents = tuple((node, operator.itemgetter(i)) for i, node in enumerate([*params, x]))
    return Node(y, parents, upstream=lambda g: _mlp_backward(layers, xv, g))


def pooled_mlp(params: list[Parameter], x: Node, offsets: np.ndarray) -> Node:
    """``segment_maxpool(mlp(params, x), offsets)`` as one node: a per-row
    MLP, max-pooled over each contiguous segment of rows.

    The node has the ``mlp`` node's parents and keeps its input and the
    pooling node's argmax rows; the pre-pool rows are freed once pooled.
    Its backward runs the pooling vjp on its gradient, with ``backward``'s
    ``+ 0.0``, and the ``mlp`` node's backward on the result.
    """
    pre = mlp(params, x)
    pooled = segment_maxpool(pre, offsets)
    if not _grad_enabled:
        return pooled
    (_, scatter), = pooled.parents
    chain = pre.upstream
    return Node(pooled.value, pre.parents, upstream=lambda g: chain(scatter(g + 0.0)))


@dataclass
class OptimizerState:
    """Adaptive-moment (Adam) update state; ``m`` and ``v`` are the flat
    first and second moments, allocated at the first step. The decay rates
    and offset are the module's ``ADAM_*`` constants."""

    learning_rate: float = 1e-3
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def optimizer_step(state: OptimizerState, params: ParameterSet) -> None:
    """Apply one Adam update from the accumulated gradients, then zero them.

    Each line of the update runs once over the flat buffers, in the same
    operation order as the textbook per-parameter form, so the result is
    bitwise the same.

    A non-finite gradient raises ``TrainingDivergenceError`` before values,
    moments or ``state.step`` change; the gradient buffer is zeroed first, so
    the refused gradient does not leak into the next step.
    """
    g = params.grads
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    elif state.m.size != g.size:
        raise ValueError(
            f"optimizer state holds moments for {state.m.size} values, "
            f"but the parameters have {g.size}"
        )
    if not np.isfinite(g).all():
        bad = next(p for p in params if not np.isfinite(p.grad).all())
        g.fill(0.0)
        raise TrainingDivergenceError(f"non-finite gradient in parameter {bad.name!r}")
    state.step += 1
    b1, b2, m, v = ADAM_BETA1, ADAM_BETA2, state.m, state.v
    tmp = g * g
    tmp *= 1 - b2
    v *= b2
    v += tmp  # v = b2 * v + (1 - b2) * g**2
    np.multiply(g, 1 - b1, out=tmp)
    m *= b1
    m += tmp  # m = b1 * m + (1 - b1) * g
    # g is spent: it holds sqrt(v_hat) + eps while tmp holds lr * m_hat.
    np.divide(m, 1 - b1**state.step, out=tmp)
    tmp *= state.learning_rate
    np.divide(v, 1 - b2**state.step, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    tmp /= g
    params.values -= tmp
    g.fill(0.0)


def gradient_check_blocks(loss_fn, params: list[Parameter], eps: float = 1e-6) -> dict[str, float]:
    """Central finite differences vs. analytic gradients, per parameter.

    ``loss_fn`` must rebuild the forward graph from the current parameter
    values and return the scalar loss node; the finite-difference forwards
    run under ``no_grad()``, so they build no graph. Relative error is
    |a - f| / max(1, |a|, |f|), maximized over the entries of each block.
    """
    for p in params:
        p.zero_grad()
    backward(loss_fn())
    analytic = {p.name: p.grad.copy() for p in params}
    errors: dict[str, float] = {}
    for p in params:
        flat = p.value.ravel()
        a_flat = analytic[p.name].ravel()
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                loss_plus = float(loss_fn().value)
                flat[i] = orig - eps
                loss_minus = float(loss_fn().value)
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            a = a_flat[i]
            worst = np.maximum(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))  # keeps a NaN
        errors[p.name] = float(worst)
        p.zero_grad()
    return errors


def save_checkpoint(path, config: dict, params: list[Parameter]) -> None:
    """Write a deterministic binary container: JSON header + raw float64.

    Byte-for-byte reproducible for identical inputs, and round-trips values
    bitwise. The file is written next to ``path`` under a temporary name and
    renamed into place, so ``path`` never holds a partial checkpoint.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "config": config,
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in params],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for p in params:
                fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint back as (config echo, name -> float64 array).

    The header is checked against the file's size before any parameter is
    read: the byte count it declares (computed with Python ints, so no
    shape overflows) must equal the bytes that follow it, and no name may
    appear twice. A parameter holding a NaN or an infinity raises.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        size = int.from_bytes(fh.read(8), "little")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > left:
            raise ValueError(f"truncated checkpoint: a {size}-byte header but {left} bytes follow: {path}")
        # A document nested deeper than the parser recurses raises RecursionError.
        try:
            header = json.loads(fh.read(size).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise ValueError(f"malformed checkpoint header: {e}: {path}") from None
        version = header.get("version") if isinstance(header, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION}): {path}"
            )
        entries = header.get("params")
        # A shape is a list of non-negative ints (bool is not an int here).
        if "config" not in header or not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str) and isinstance(e.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in e["shape"])
            for e in entries
        ):
            raise ValueError(f"malformed checkpoint header: {path}")
        seen: set[str] = set()
        for entry in entries:
            if entry["name"] in seen:
                raise ValueError(f"checkpoint lists parameter {entry['name']!r} twice: {path}")
            seen.add(entry["name"])
        declared = sum(8 * math.prod(e["shape"]) for e in entries)
        left -= size
        if declared > left:
            raise ValueError(
                f"truncated checkpoint: the header declares {declared} bytes of parameters "
                f"but {left} follow it: {path}"
            )
        if declared < left:
            raise ValueError(f"trailing bytes after the last parameter: {path}")
        values: dict[str, np.ndarray] = {}
        for entry in entries:
            shape = tuple(entry["shape"])
            raw = fh.read(8 * math.prod(shape))
            values[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(values[entry["name"]]).all():
                raise ValueError(f"checkpoint parameter {entry['name']!r} holds non-finite values: {path}")
    return header["config"], values
