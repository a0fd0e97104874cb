"""The RI-GCN pipeline: a descriptor hierarchy built by one level step,
per-level graph abstraction, and the classification head.

The step runs from the input cloud (level -1) to level 0 and from each
level to the next: it samples anchors, gathers their patches, encodes them
with two per-point branches, max-pools the branches and fuses them. Level
0's anchors are FPS picks; each level above takes the first of those below.

A forward pass without a generator is a pure function of (cloud,
parameters): every interval yields its midpoint. Given a generator, it draws
per-anchor neighborhood sizes, dilation rates, and per-level graph degrees
from the configured intervals, each knob only where its ``stochastic_*``
flag is set.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import geom, graph, nnet


class ConfigError(ValueError):
    """Raised when a configuration violates its invariants."""


@dataclass(frozen=True)
class RiGcnConfig:
    """Architecture and stochasticity settings.

    ``level_sizes`` and ``channels`` hold one entry per level; ``levels``
    must equal their length.
    """

    num_points: int = 1024
    num_classes: int = 8
    levels: int = 3
    level_sizes: tuple[int, ...] = (512, 128, 32)
    channels: tuple[int, ...] = (64, 128, 256)
    k_range: tuple[int, int] = (24, 40)
    d_range: tuple[int, int] = (1, 4)
    khat_range: tuple[int, int] = (6, 12)
    g_hidden: int = 32
    classifier_hidden: int = 128
    stochastic_k: bool = True
    stochastic_d: bool = True
    stochastic_khat: bool = True
    abstraction: str = "gcn"
    transform_scope: str = "local"
    seed: int = 0

    def validate(self) -> None:
        if not 1 <= self.levels <= 4:
            raise ConfigError(f"levels must be in [1, 4], got {self.levels}")
        sizes = self.level_sizes
        if len(sizes) != self.levels:
            raise ConfigError(f"need {self.levels} level sizes, got {sizes}")
        if sizes[0] > self.num_points:
            raise ConfigError(f"level 0 size {sizes[0]} exceeds num_points {self.num_points}")
        if any(b >= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"level sizes must be strictly decreasing, got {sizes}")
        if sizes[-1] < 2:
            raise ConfigError(f"every level needs >= 2 points, got {sizes}")
        channels = self.channels
        if len(channels) != self.levels:
            raise ConfigError(f"need {self.levels} channel widths, got {channels}")
        if any(c < 2 or c % 2 for c in channels):
            raise ConfigError(f"channel widths must be even and >= 2, got {channels}")
        for name, (lo, hi) in (
            ("k_range", self.k_range),
            ("d_range", self.d_range),
            ("khat_range", self.khat_range),
        ):
            if lo < 1 or hi < lo:
                raise ConfigError(f"invalid {name} [{lo}, {hi}]")
        # Level-0 patch indices are int64: m * k members, each reaching (k - 1) * d.
        if max(sizes[0], self.d_range[1]) * self.k_range[1] >= 2**63:
            raise ConfigError(f"k_range {self.k_range} and d_range {self.d_range} overflow int64 patch indices")
        if self.transform_scope == "local" and self.k_range[0] < 3:
            raise ConfigError(
                f"k_range lower bound must be >= 3 for local frames (a PCA frame needs "
                f"3 points per patch), got {self.k_range[0]}"
            )
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.g_hidden < 1 or self.classifier_hidden < 1:
            raise ConfigError("hidden widths must be >= 1")
        if self.abstraction not in ("gcn", "mlp"):
            raise ConfigError(f"abstraction must be 'gcn' or 'mlp', got {self.abstraction!r}")
        if self.transform_scope not in ("local", "global"):
            raise ConfigError(
                f"transform_scope must be 'local' or 'global', got {self.transform_scope!r}"
            )


def from_dict(cls, payload, where: str):
    """An instance of the dataclass ``cls`` from a parsed JSON object.

    Unknown keys and values of the wrong type raise ``ConfigError``, naming
    the key by its path from ``where``. Lists become tuples, nested objects
    become nested dataclasses, and a missing key keeps its default.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: expected an object, got {type(payload).__name__}")
    types = typing.get_type_hints(cls)
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return cls(**{k: _typed(types[k], v, f"{where}.{k}") for k, v in payload.items()})


def _typed(tp, value, where: str):
    """``value`` checked against the type hint ``tp``."""
    if is_dataclass(tp):
        return from_dict(tp, value, where)
    args = typing.get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _typed(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(items):
            raise ConfigError(f"{where}: expected {len(items)} items, got {len(value)}")
        return tuple(_typed(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    # JSON has one number type; bool is an int subclass but not a number here.
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value


@dataclass
class DescriptorSet:
    """One level's representative points in pick order (their tie order),
    their reused principal axes, per-point feature rows (the level's graph
    signal) and squared distances between them, ``block[i, j]`` from point
    i to point j. The block is the level's graph block; its first rows are
    the next level's sampling rows. The input cloud enters the hierarchy as
    level -1, laid out in ``geom.canonical_order``, with no axes, features
    or block.
    """

    level: int
    points: np.ndarray
    axes: np.ndarray | None
    features: nnet.Node | None
    block: np.ndarray | None


def parameter_shapes(config: RiGcnConfig) -> list[tuple[str, tuple[int, int]]]:
    """Every parameter's name and shape in creation order, the order of
    checkpoints: per level the MLPs ``g1``, ``h`` and ``f`` (a weight ``w{i}``
    and a bias ``b{i}`` per layer) and the GCN weight, then the classifier
    MLP. Validates the config and allocates nothing."""
    config.validate()
    shapes = []

    def mlp(prefix: str, *widths: int) -> None:
        for i, (a, b) in enumerate(zip(widths, widths[1:])):
            shapes.extend([(f"{prefix}.w{i}", (a, b)), (f"{prefix}.b{i}", (1, b))])

    for l, c in enumerate(config.channels):
        mlp(f"l{l}.g1", 3, config.g_hidden, c // 2)
        if l == 0:  # over dilated-patch coordinates; checkpoints name it g2
            mlp("l0.g2", 3, config.g_hidden, c // 2)
        else:
            mlp(f"l{l}.h", config.channels[l - 1], c // 2, c // 2)
        mlp(f"l{l}.f", c, c, c)
        shapes.append((f"l{l}.gcn", (c, c)))
    mlp("clf", sum(config.channels), config.classifier_hidden, config.num_classes)
    return shapes


class RiGcnModel:
    """All learnable parameters, as per-level lists (``g1``, ``h``, ``f``,
    ``gcn_w``) and the classifier ``clf``, plus the config."""

    def __init__(self, config: RiGcnConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        # Weights draw from the seed in creation order; biases start at zero.
        self._params = nnet.ParameterSet(
            nnet.Parameter(name, np.zeros(shape), np.zeros(shape))
            if name.rpartition(".")[2].startswith("b")
            else nnet.init_parameter(name, shape, rng)
            for name, shape in parameter_shapes(config)
        )
        # One block per MLP or GCN weight, by name: four per level, then clf.
        blocks = [list(b) for _, b in itertools.groupby(self._params, lambda p: p.name.rpartition(".")[0])]
        self.g1, self.h, self.f, gcn = (blocks[i:-1:4] for i in range(4))
        self.gcn_w = [w for (w,) in gcn]
        self.clf = blocks[-1]

    def parameters(self) -> nnet.ParameterSet:
        """Every parameter in creation order, the order of checkpoints."""
        return self._params


def save_model(model: RiGcnModel, path) -> None:
    nnet.save_checkpoint(path, asdict(model.config), model.parameters())


def load_model(path) -> RiGcnModel:
    """The model a checkpoint holds, whose parameter names and shapes are
    checked against ``parameter_shapes`` before the model allocates any."""
    config_dict, values = nnet.load_checkpoint(path)
    config = from_dict(RiGcnConfig, config_dict, f"{path}: config")
    try:
        shapes = dict(parameter_shapes(config))
    except ConfigError as e:  # the config parses but fails validate()
        raise ConfigError(f"{path}: config: {e}") from None
    unknown = set(values) - set(shapes)
    if unknown:
        raise ValueError(f"checkpoint holds parameters the model lacks: {sorted(unknown)}: {path}")
    for name, shape in shapes.items():
        if name not in values:
            raise ValueError(f"checkpoint is missing parameter {name!r}: {path}")
        if values[name].shape != shape:
            raise ValueError(
                f"checkpoint parameter {name!r} has shape {values[name].shape}, expected {shape}: {path}"
            )
    model = RiGcnModel(config)
    for p in model.parameters():
        p.value[...] = values[p.name]
    return model


def draw_interval(bounds: tuple[int, int], count: int, rng: np.random.Generator | None) -> np.ndarray:
    """``count`` integers drawn from ``rng`` uniformly over the closed interval
    ``bounds``, or without a generator its midpoint ``(lo + hi) // 2``
    repeated."""
    lo, hi = bounds
    if rng is not None:
        return rng.integers(lo, hi + 1, size=count)
    return np.full(count, (lo + hi) // 2)


def _gather_patches(
    d2: np.ndarray,
    picks: np.ndarray,
    ks: np.ndarray,
    dilations: tuple[np.ndarray | int, ...],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Member indices of many anchors' patches, one patch set per dilation.

    ``d2`` holds each anchor's squared distances to every point and
    ``picks`` is each anchor's own column, as ``geom.farthest_point_sampling``
    returns them; these self entries are set to inf in place. Each item of
    ``dilations`` is a per-anchor array or a scalar d. Returns (offsets,
    one flat member array per dilation), where the flat arrays index the
    points and patch i of every set spans ``offsets[i]:offsets[i + 1]``.
    Patch i holds the members at positions 0, d, 2d, ... of the anchor's
    candidate list, sorted by distance, ties going to the lower index. A span
    ``(k - 1) * d`` past the n - 1 candidates clamps d to
    ``max(1, (n - 1) // k)``; if k still exceeds the candidates, the patch is
    padded by repeating the nearest one.
    """
    m, n = d2.shape
    d2[np.arange(m), picks] = np.inf

    # Per-anchor sorted-list positions; padding repeats position 0, so every
    # patch has exactly k members and gathers stay uniform.
    ks = np.asarray(ks, dtype=np.int64)
    n_cand = n - 1
    off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(ks, out=off[1:])
    pos_in_seg = np.arange(off[-1]) - np.repeat(off[:-1], ks)
    cols = []
    for ds in dilations:
        d_eff = np.where((ks - 1) * ds >= n_cand, np.maximum(1, n_cand // ks), ds)
        take = np.where((ks - 1) * d_eff < n_cand, ks, n_cand)
        cols.append(np.where(pos_in_seg < np.repeat(take, ks), pos_in_seg * np.repeat(d_eff, ks), 0))

    # Only a sorted prefix of each candidate list is ever consumed.
    cand = geom.nearest_candidates(d2, max(int(c.max()) for c in cols) + 1)
    rows = np.repeat(np.arange(m), ks)
    return off, [cand[rows, c] for c in cols]


def _project_segments(
    points: np.ndarray,
    flat_members: np.ndarray,
    offsets: np.ndarray,
    anchors: np.ndarray,
    axes: np.ndarray,
) -> np.ndarray:
    """Frame-relative coordinates of every member point of every segment."""
    seg_ids = np.repeat(np.arange(len(anchors)), np.diff(offsets))
    rel = points[flat_members] - anchors[seg_ids]
    return np.einsum("ti,tia->ta", rel, axes[seg_ids])


def _next_level(
    model: RiGcnModel, prev: DescriptorSet, rng: np.random.Generator | None
) -> DescriptorSet:
    """The level above ``prev``: one feature row per anchor, the cloud's FPS
    picks or a level's first m points, in pick order. ``prev`` is in its tie
    order (the laid-out cloud, or a level in pick order), so picks, patches
    and graphs take the lower index among equal distances. Each anchor's plain
    k-NN patch, projected onto its frame, feeds ``g1``. Above the cloud (no
    ``prev.features``) a dilated patch gives the frame (its PCA frame, or the
    identity under global frames, where the caller has rotated the whole cloud
    canonically) and its projection feeds ``h``; above a level each anchor
    keeps its axes, never recomputed, and ``h`` runs over the previous level's
    feature rows of the plain patch. Both branches are max-pooled per anchor,
    concatenated and fused by ``f``. A draw of d = 1 for every anchor (a
    deterministic desk forward) gathers and projects only the plain patch.
    """
    cfg = model.config
    level = prev.level + 1
    m = cfg.level_sizes[level]
    if m > len(prev.points):
        raise ConfigError(f"level {level} needs {m} points but its input has {len(prev.points)}")
    if prev.features is None:
        sel, d2 = geom.farthest_point_sampling(prev.points, m)
    else:  # FPS from a level's first point picks its first m points, in order
        # A copy: the gather below writes into d2, and prev's graph reads its block.
        sel, d2 = np.arange(m), prev.block[:m].copy()
    block = d2[:, sel]
    anchors = prev.points[sel]
    ks = draw_interval(cfg.k_range, m, rng if cfg.stochastic_k else None)
    # Levels 1+ draw dilations and do not use them: the draw keeps the
    # generator's stream, and so every stochastic forward and trained
    # checkpoint, as it has been.
    ds = draw_interval(cfg.d_range, m, rng if cfg.stochastic_d else None)
    dilations = (1, ds) if prev.features is None and (ds != 1).any() else (1,)
    off, (flat, *dilated) = _gather_patches(d2, sel, ks, dilations)
    del d2  # the (m, N) rows are spent; the frames and MLPs run without them
    wide = dilated[0] if dilated else flat  # d = 1 throughout dilates nothing
    if prev.axes is not None:
        axes = prev.axes[sel]
    elif cfg.transform_scope == "global":
        axes = np.broadcast_to(np.eye(3), (m, 3, 3)).copy()
    else:
        axes = geom.lrf_axes_batch(prev.points[wide], off, anchors)
    proj = _project_segments(prev.points, flat, off, anchors, axes)
    if prev.features is None:
        second = nnet.constant(_project_segments(prev.points, wide, off, anchors, axes) if dilated else proj)
    else:
        second = nnet.gather_rows(prev.features, flat)
    h1 = nnet.pooled_mlp(model.g1[level], nnet.constant(proj), off)
    h2 = nnet.pooled_mlp(model.h[level], second, off)
    features = nnet.mlp(model.f[level], nnet.concat_cols([h1, h2]))
    return DescriptorSet(level, anchors, axes, features, block)


def extract_descriptors(
    model: RiGcnModel, points: np.ndarray, rng: np.random.Generator | None = None
) -> DescriptorSet:
    """Level-0 descriptors of a cloud, laid out in ``geom.canonical_order`` first."""
    cloud = DescriptorSet(-1, points[geom.canonical_order(points)], None, None, None)
    return _next_level(model, cloud, rng)


def extend_descriptors(
    model: RiGcnModel, prev: DescriptorSet, rng: np.random.Generator | None = None
) -> DescriptorSet:
    """The hierarchy step from ``prev`` to the next level."""
    return _next_level(model, prev, rng)


def level_graph(
    config: RiGcnConfig, desc: DescriptorSet, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Weights of a level's k-NN graph. The degree khat is drawn from
    ``khat_range`` clamped below the node count, so small top levels stay
    buildable."""
    top = len(desc.points) - 1
    bounds = (min(config.khat_range[0], top), min(config.khat_range[1], top))
    khat = int(draw_interval(bounds, 1, rng if config.stochastic_khat else None)[0])
    return graph.build_knn_graph(desc.points, desc.block, khat)


def abstract_level(
    model: RiGcnModel, desc: DescriptorSet, rng: np.random.Generator | None = None
) -> nnet.Node:
    """Level summary: graph convolution over the level's k-NN graph followed
    by max pooling. The MLP variant convolves over the identity graph."""
    if model.config.abstraction == "gcn":
        a_hat = graph.renormalize(level_graph(model.config, desc, rng))
    else:
        a_hat = np.eye(len(desc.points))
    return nnet.maxpool_rows(nnet.gcn_layer(a_hat, desc.features, model.gcn_w[desc.level]))


def level_descriptors(
    model: RiGcnModel, points: np.ndarray, rng: np.random.Generator | None = None
) -> list[DescriptorSet]:
    """All per-level descriptor sets for one cloud (shared by forward and
    the graph-export path)."""
    cfg = model.config
    pts = np.asarray(points, dtype=np.float64)
    if cfg.transform_scope == "global":
        pts = geom.global_pca_frame(pts)
    descs = [extract_descriptors(model, pts, rng)]
    for _ in range(1, cfg.levels):
        descs.append(extend_descriptors(model, descs[-1], rng))
    return descs


def forward(
    model: RiGcnModel, points: np.ndarray, rng: np.random.Generator | None = None
) -> nnet.Node:
    """Class logits for one normalized cloud, as a (1, num_classes) node;
    stochastic when given a generator."""
    descs = level_descriptors(model, points, rng)
    summaries = [abstract_level(model, d, rng) for d in descs]
    fused = summaries[0] if len(summaries) == 1 else nnet.concat_cols(summaries)
    return nnet.mlp(model.clf, fused)


def logits(model: RiGcnModel, points: np.ndarray) -> np.ndarray:
    """Deterministic logits as a flat vector, from a forward that builds no
    graph (``nnet.no_grad``)."""
    with nnet.no_grad():
        return forward(model, points).value.ravel()


@dataclass(frozen=True)
class EpochMetrics:
    mean_loss: float
    accuracy: float


def train_epoch(
    model: RiGcnModel,
    clouds: list[np.ndarray],
    labels: np.ndarray,
    rotation_mode: str,
    opt_state: nnet.OptimizerState,
    rng: np.random.Generator,
) -> EpochMetrics:
    """One pass over the training set in a seeded shuffle order.

    Each sample is rotation-augmented per ``rotation_mode`` (none/z/so3),
    pushed through a stochastic forward pass, and applied immediately. The
    backward consumes the step's graph, and the step drops its last nodes
    before the Adam step, so neither Adam nor the next forward runs beside
    a spent graph.
    """
    if len(clouds) == 0:
        raise ValueError("empty training split")
    order = rng.permutation(len(clouds))
    total_loss = 0.0
    correct = 0
    for idx in order:
        pts = clouds[idx]
        if rotation_mode != "none":
            pts = geom.rotate(pts, geom.random_rotation(rng, rotation_mode))
        out = forward(model, pts, rng)
        loss_node = nnet.cross_entropy(out, int(labels[idx]))
        loss = float(loss_node.value)
        if not np.isfinite(loss):
            raise nnet.TrainingDivergenceError(f"non-finite loss at sample {idx}")
        nnet.backward(loss_node)
        correct += int(np.argmax(out.value.ravel()) == labels[idx])
        del out, loss_node
        nnet.optimizer_step(opt_state, model.parameters())
        total_loss += loss
    return EpochMetrics(mean_loss=total_loss / len(clouds), accuracy=correct / len(clouds))


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float
    per_class_correct: np.ndarray
    per_class_total: np.ndarray
    predictions: np.ndarray

    def per_class_accuracy(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(
                self.per_class_total > 0, self.per_class_correct / self.per_class_total, np.nan
            )


def evaluate(
    model: RiGcnModel,
    clouds: list[np.ndarray],
    labels: np.ndarray,
    rotation_mode: str,
    rng: np.random.Generator | None,
) -> EvalResult:
    """Deterministic-forward accuracy under a test-time rotation protocol."""
    if len(clouds) == 0:
        raise ValueError("empty evaluation split")
    n_classes = model.config.num_classes
    correct = np.zeros(n_classes, dtype=np.int64)
    total = np.zeros(n_classes, dtype=np.int64)
    predictions = np.empty(len(clouds), dtype=np.int64)
    total_loss = 0.0
    for i, (pts, label) in enumerate(zip(clouds, labels)):
        if rotation_mode != "none":
            pts = geom.rotate(pts, geom.random_rotation(rng, rotation_mode))
        out = logits(model, pts)
        loss, _ = nnet.softmax_cross_entropy(out, int(label))
        total_loss += loss
        pred = int(np.argmax(out))
        predictions[i] = pred
        total[label] += 1
        correct[label] += int(pred == label)
    return EvalResult(
        accuracy=float(correct.sum() / total.sum()),
        mean_loss=total_loss / len(clouds),
        per_class_correct=correct,
        per_class_total=total,
        predictions=predictions,
    )
