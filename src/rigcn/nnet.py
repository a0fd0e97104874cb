"""Minimal dense layers with reverse-mode gradients on float64 arrays.

A forward pass builds a small DAG of ``Node`` objects; ``backward`` walks it
in reverse topological order and accumulates gradients into ``Parameter``
buffers. The layer set is fixed: linear, ReLU, row/segment max pooling,
column concatenation, row gathering, multiplication by a constant matrix,
and softmax cross-entropy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"RIGCN1\n"
CHECKPOINT_VERSION = 1


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


def init_parameter(name: str, shape: tuple[int, int], rng: np.random.Generator) -> Parameter:
    """Fan-based symmetric uniform initialization, reproducible from the seed."""
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    value = rng.uniform(-bound, bound, size=shape)
    return Parameter(name=name, value=value, grad=np.zeros(shape))


class Node:
    """One value in the computation graph of a forward pass."""

    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.grad = None
        # parents: tuple of (Node-or-Parameter, vjp) where vjp maps the
        # upstream gradient to this parent's gradient contribution.
        self.parents = parents


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
        visited.add(id(node))
        stack.append((node, True))
        for target, _ in node.parents:
            if isinstance(target, Node) and id(target) not in visited:
                stack.append((target, False))
    return order


def backward(root: Node) -> None:
    """Accumulate d(root)/d(parameter) into every reachable Parameter.grad."""
    order = _topo_order(root)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for target, vjp in node.parents:
            contrib = vjp(g)
            if target.grad is None:
                target.grad = np.zeros_like(target.value)
            target.grad += contrib


def constant(value) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


def linear(param: Parameter, x: Node) -> Node:
    """Y = X @ W. Backward: dW += X^T G, dX = G W^T."""
    xv, w = x.value, param.value
    if xv.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: input shape {xv.shape} does not match weight shape {w.shape}")
    return Node(xv @ w, parents=((param, lambda g: xv.T @ g), (x, lambda g: g @ w.T)))


def add_bias(x: Node, param: Parameter) -> Node:
    """Y = X + b with a (1, c) bias row broadcast over rows."""
    if param.value.shape != (1, x.value.shape[1]):
        raise ShapeError(f"bias shape {param.value.shape} does not match input {x.value.shape}")
    return Node(
        x.value + param.value,
        parents=((param, lambda g: g.sum(axis=0, keepdims=True)), (x, lambda g: g)),
    )


def relu(x: Node) -> Node:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    mask = x.value > 0
    return Node(np.where(mask, x.value, 0.0), parents=((x, lambda g: g * mask),))


def matmul_const(a: np.ndarray, x: Node) -> Node:
    """Y = A @ X for a constant matrix A (no gradient into A)."""
    if a.shape[1] != x.value.shape[0]:
        raise ShapeError(f"matmul: A shape {a.shape} does not match X shape {x.value.shape}")
    return Node(a @ x.value, parents=((x, lambda g: a.T @ g),))


def maxpool_rows(x: Node) -> Node:
    """Column-wise max over rows, as a 1-row matrix.

    On ties the gradient goes to the lowest-index argmax row.
    """
    v = x.value
    if v.shape[0] < 1:
        raise ValueError("maxpool over an empty matrix")

    def vjp(g):
        gx = np.zeros_like(v)
        gx[np.argmax(v, axis=0), np.arange(v.shape[1])] = g[0]
        return gx

    return Node(v.max(axis=0, keepdims=True), parents=((x, vjp),))


def segment_maxpool(x: Node, offsets: np.ndarray) -> Node:
    """Row-wise max within each contiguous segment of rows.

    Segment ``i`` is ``rows[offsets[i]:offsets[i + 1]]``; output row ``i`` is
    its column-wise max. Ties route the gradient to the lowest row index,
    matching ``maxpool_rows``.
    """
    v = x.value
    offsets = np.asarray(offsets)
    counts = np.diff(offsets)
    if np.any(counts < 1):
        raise ValueError("segment_maxpool requires non-empty segments")
    starts = offsets[:-1]
    out = np.maximum.reduceat(v, starts, axis=0)

    def vjp(g):
        seg_ids = np.repeat(np.arange(len(counts)), counts)
        rows = np.arange(v.shape[0])[:, None]
        hit_rows = np.where(v == out[seg_ids], rows, v.shape[0])
        argrows = np.minimum.reduceat(hit_rows, starts, axis=0)
        gx = np.zeros_like(v)
        gx[argrows, np.arange(v.shape[1])[None, :]] = g
        return gx

    return Node(out, parents=((x, vjp),))


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
        gx = np.zeros_like(x.value)
        np.add.at(gx, idx, g)
        return gx

    return Node(x.value[idx], parents=((x, vjp),))


def gcn_layer(a_hat: np.ndarray, x: Node, param: Parameter) -> Node:
    """One graph convolution: ReLU(A_hat @ X @ W)."""
    if a_hat.shape[0] != a_hat.shape[1] or a_hat.shape[1] != x.value.shape[0]:
        raise ShapeError(
            f"gcn_layer: adjacency {a_hat.shape} does not match signal {x.value.shape}"
        )
    return relu(matmul_const(a_hat, linear(param, x)))


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


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths including the input width; hidden layers are
    linear+ReLU, the final layer is linear."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError(f"invalid MLP widths {self.widths}")


def init_mlp(spec: MlpSpec, rng: np.random.Generator, prefix: str) -> list[Parameter]:
    """Weight/bias pairs per layer; biases start at zero."""
    params: list[Parameter] = []
    for i, (a, b) in enumerate(zip(spec.widths, spec.widths[1:])):
        params.append(init_parameter(f"{prefix}.w{i}", (a, b), rng))
        params.append(Parameter(f"{prefix}.b{i}", np.zeros((1, b)), np.zeros((1, b))))
    return params


def mlp(params: list[Parameter], x: Node) -> Node:
    """Affine layers with ReLU between them; the final layer stays linear."""
    pairs = list(zip(params[0::2], params[1::2]))
    for w, b in pairs[:-1]:
        x = relu(add_bias(linear(w, x), b))
    w, b = pairs[-1]
    return add_bias(linear(w, x), b)


@dataclass
class OptimizerState:
    """Adaptive-moment (Adam) update state."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    slots: dict = field(default_factory=dict)


def optimizer_step(state: OptimizerState, params: list[Parameter]) -> None:
    """Apply one update from the accumulated gradients, then zero them."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise TrainingDivergenceError(f"non-finite gradient in parameter {p.name!r}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    for p in params:
        m, v = state.slots.get(p.name, (np.zeros_like(p.value), np.zeros_like(p.value)))
        m = b1 * m + (1 - b1) * p.grad
        v = b2 * v + (1 - b2) * p.grad**2
        state.slots[p.name] = (m, v)
        m_hat = m / (1 - b1**state.step)
        v_hat = v / (1 - b2**state.step)
        p.value -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    for p in params:
        p.zero_grad()


def gradient_check_blocks(loss_fn, params: list[Parameter], eps: float = 1e-6) -> dict[str, float]:
    """Central finite differences vs. analytic gradients, per parameter.

    ``loss_fn`` must rebuild the forward graph from the current parameter
    values and return the scalar loss node. Relative error is
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
            flat[i] = orig + eps
            loss_plus = float(loss_fn().value)
            flat[i] = orig - eps
            loss_minus = float(loss_fn().value)
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            a = a_flat[i]
            worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
        errors[p.name] = worst
        p.zero_grad()
    return errors


def gradient_check(loss_fn, params: list[Parameter], eps: float = 1e-6) -> float:
    """Worst relative finite-difference error over all parameter entries."""
    return max(gradient_check_blocks(loss_fn, params, eps).values())


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
    """Read a checkpoint back as (config echo, name -> float64 array)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size).decode("utf-8"))
        version = header.get("version") if isinstance(header, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION}): {path}"
            )
        values: dict[str, np.ndarray] = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape))
            raw = fh.read(n * 8)
            if len(raw) != n * 8:
                raise ValueError(f"truncated checkpoint: {path}")
            values[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"trailing bytes after the last parameter: {path}")
    return header["config"], values
