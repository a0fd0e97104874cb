"""The RI-GCN pipeline: local descriptor extraction, hierarchical descriptor
extension, per-level graph abstraction, and the classification head.

A forward pass is a pure function of (cloud, parameters) in deterministic
mode; stochastic mode additionally draws per-anchor neighborhood sizes,
dilation rates, and per-level graph degrees from the configured intervals.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import geom, graph, nnet


class ConfigError(ValueError):
    """Raised when a configuration violates its invariants."""


@dataclass(frozen=True)
class RiGcnConfig:
    """Architecture and stochasticity settings.

    ``level_sizes`` and ``channels`` may be left as ``None`` to derive a
    pyramid from ``num_points`` (halve once, then quarter per level) and the
    64/128/256/512 width ladder.
    """

    num_points: int = 1024
    num_classes: int = 8
    levels: int = 3
    level_sizes: tuple[int, ...] | None = None
    channels: tuple[int, ...] | None = None
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

    def resolved_level_sizes(self) -> tuple[int, ...]:
        if self.level_sizes is not None:
            return tuple(int(m) for m in self.level_sizes)
        sizes = [self.num_points // 2]
        for _ in range(self.levels - 1):
            sizes.append(sizes[-1] // 4)
        return tuple(sizes)

    def resolved_channels(self) -> tuple[int, ...]:
        if self.channels is not None:
            return tuple(int(c) for c in self.channels)
        return tuple(64 * 2**l for l in range(self.levels))

    def validate(self) -> None:
        if not 1 <= self.levels <= 4:
            raise ConfigError(f"levels must be in [1, 4], got {self.levels}")
        sizes = self.resolved_level_sizes()
        if len(sizes) != self.levels:
            raise ConfigError(f"need {self.levels} level sizes, got {sizes}")
        if sizes[0] > self.num_points:
            raise ConfigError(f"level 0 size {sizes[0]} exceeds num_points {self.num_points}")
        if any(b >= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"level sizes must be strictly decreasing, got {sizes}")
        if sizes[-1] < 2:
            raise ConfigError(f"every level needs >= 2 points, got {sizes}")
        channels = self.resolved_channels()
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
    """Representative points of one level with their reused principal axes,
    per-point feature rows (the level's graph signal) and squared distances
    between the points, ``block[i, j]`` from point i to point j.

    The block is a block of the rows the level's sampling computed; the
    next level's sampling and the level's graph read it instead of
    computing distances again.
    """

    level: int
    points: np.ndarray
    axes: np.ndarray
    features: nnet.Node
    block: np.ndarray


class RiGcnModel:
    """All learnable parameters, keyed by block name, plus the config."""

    def __init__(self, config: RiGcnConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        channels = config.resolved_channels()
        self.g1: list[list[nnet.Parameter]] = []
        self.g2: list[nnet.Parameter] | None = None
        self.h: list[list[nnet.Parameter] | None] = []
        self.f: list[list[nnet.Parameter]] = []
        self.gcn_w: list[nnet.Parameter] = []
        for l, c in enumerate(channels):
            branch = c // 2
            self.g1.append(nnet.init_mlp(nnet.MlpSpec((3, config.g_hidden, branch)), rng, f"l{l}.g1"))
            if l == 0:
                self.g2 = nnet.init_mlp(nnet.MlpSpec((3, config.g_hidden, branch)), rng, "l0.g2")
                self.h.append(None)
            else:
                self.h.append(
                    nnet.init_mlp(nnet.MlpSpec((channels[l - 1], branch, branch)), rng, f"l{l}.h")
                )
            self.f.append(nnet.init_mlp(nnet.MlpSpec((c, c, c)), rng, f"l{l}.f"))
            self.gcn_w.append(nnet.init_parameter(f"l{l}.gcn", (c, c), rng))
        clf_spec = nnet.MlpSpec((sum(channels), config.classifier_hidden, config.num_classes))
        self.clf = nnet.init_mlp(clf_spec, rng, "clf")

    def parameters(self) -> list[nnet.Parameter]:
        params: list[nnet.Parameter] = []
        for l in range(self.config.levels):
            params.extend(self.g1[l])
            if l == 0:
                params.extend(self.g2)
            else:
                params.extend(self.h[l])
            params.extend(self.f[l])
            params.append(self.gcn_w[l])
        params.extend(self.clf)
        return params


def save_model(model: RiGcnModel, path) -> None:
    nnet.save_checkpoint(path, asdict(model.config), model.parameters())


def load_model(path) -> RiGcnModel:
    config_dict, values = nnet.load_checkpoint(path)
    model = RiGcnModel(from_dict(RiGcnConfig, config_dict, "checkpoint config"))
    for p in model.parameters():
        if p.name not in values:
            raise ValueError(f"checkpoint is missing parameter {p.name!r}")
        if values[p.name].shape != p.value.shape:
            raise ValueError(
                f"checkpoint parameter {p.name!r} has shape {values[p.name].shape}, "
                f"expected {p.value.shape}"
            )
        p.value[...] = values[p.name]
    return model


def draw_interval(
    bounds: tuple[int, int], count: int, rng: np.random.Generator | None, stochastic: bool
) -> np.ndarray:
    """``count`` integers drawn uniformly from the closed interval ``bounds``,
    or its midpoint ``(lo + hi) // 2`` repeated when not ``stochastic``."""
    lo, hi = bounds
    if stochastic:
        return rng.integers(lo, hi + 1, size=count)
    return np.full(count, (lo + hi) // 2)


def _sample(
    points: np.ndarray, m: int, block: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """FPS anchors of a level with everything its patches and its graph
    read: (anchor indices, their distance rows with columns in canonical
    order, that order, the anchors' positions in it, the anchors' own
    distance block)."""
    sel, d2, order = geom.farthest_point_sampling(points, m, block)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    pos = rank[sel]
    return sel, d2, order, pos, d2[:, pos]


def _gather_patches(
    d2: np.ndarray,
    order: np.ndarray,
    pos: np.ndarray,
    ks: np.ndarray,
    dilations: tuple[np.ndarray | int, ...],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Member indices of many anchors' patches, one patch set per dilation.

    ``d2`` holds each anchor's squared distances to every point, columns in
    the canonical order ``order``, as ``geom.farthest_point_sampling``
    returns them; ``pos`` is each anchor's column, and these self entries
    are set to inf in place. Each item of ``dilations`` is a per-anchor
    array or a scalar d. Returns (offsets, one flat member array per
    dilation), where the flat arrays index the points in input order and
    patch i of every set spans ``offsets[i]:offsets[i + 1]``. Patch i holds
    the members at positions 0, d, 2d, ... of the anchor's candidate list,
    sorted by distance with the tie rule of ``geom.canonical_order``. A span
    ``(k - 1) * d`` past the n - 1 candidates clamps d to
    ``max(1, (n - 1) // k)``; if k still exceeds the candidates, the patch is
    padded by repeating the nearest one.
    """
    m, n = d2.shape
    d2[np.arange(m), pos] = np.inf

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
    cand = order[geom.nearest_candidates(d2, max(int(c.max()) for c in cols) + 1)]
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


def extract_descriptors(
    model: RiGcnModel,
    points: np.ndarray,
    rng: np.random.Generator | None,
    stochastic: bool,
) -> DescriptorSet:
    """Level-0 descriptors: one feature row per representative point.

    Per anchor, a plain k-NN patch and a dilated patch are projected onto
    the anchor's PCA frame (estimated from the dilated patch), encoded by
    the two per-point MLP branches, max-pooled, concatenated, and fused.
    In global-transformation mode the per-anchor frames are the identity and
    the caller is expected to have canonically rotated the whole cloud.
    """
    cfg = model.config
    m0 = cfg.resolved_level_sizes()[0]
    if len(points) < m0:
        raise ConfigError(f"cloud has {len(points)} points but level 0 needs {m0}")
    sel, d2, order, pos, block = _sample(points, m0, None)
    anchors = points[sel]
    ks = draw_interval(cfg.k_range, m0, rng, stochastic and cfg.stochastic_k)
    ds = draw_interval(cfg.d_range, m0, rng, stochastic and cfg.stochastic_d)
    off, (flat1, flatd) = _gather_patches(d2, order, pos, ks, (1, ds))
    if cfg.transform_scope == "global":
        axes = np.broadcast_to(np.eye(3), (m0, 3, 3)).copy()
    else:
        axes = geom.lrf_axes_batch(points[flatd], off, anchors)
    proj1 = _project_segments(points, flat1, off, anchors, axes)
    projd = _project_segments(points, flatd, off, anchors, axes)
    h1 = nnet.segment_maxpool(nnet.mlp(model.g1[0], nnet.constant(proj1)), off)
    hd = nnet.segment_maxpool(nnet.mlp(model.g2, nnet.constant(projd)), off)
    features = nnet.mlp(model.f[0], nnet.concat_cols([h1, hd]))
    return DescriptorSet(level=0, points=anchors, axes=axes, features=features, block=block)


def extend_descriptors(
    model: RiGcnModel,
    prev: DescriptorSet,
    level: int,
    rng: np.random.Generator | None,
    stochastic: bool,
) -> DescriptorSet:
    """One hierarchy step: subsample anchors, fuse coordinate and descriptor
    branches over previous-level neighbors.

    Surviving anchors keep the axes estimated at level 0; they are never
    recomputed. The coordinate branch projects neighbor positions with those
    reused axes; the descriptor branch runs a per-neighbor MLP over the
    previous level's feature rows, max-pooled per anchor.
    """
    cfg = model.config
    m_l = cfg.resolved_level_sizes()[level]
    if m_l > len(prev.points):
        raise ConfigError(
            f"level {level} size {m_l} exceeds previous level size {len(prev.points)}"
        )
    sel, d2, order, pos, block = _sample(prev.points, m_l, prev.block)
    anchors = prev.points[sel]
    axes = prev.axes[sel]
    ks = draw_interval(cfg.k_range, m_l, rng, stochastic and cfg.stochastic_k)
    # Dilations are drawn and not used: the draw keeps the generator's stream,
    # and so every stochastic forward and trained checkpoint, as it has been.
    draw_interval(cfg.d_range, m_l, rng, stochastic and cfg.stochastic_d)
    off, (flat,) = _gather_patches(d2, order, pos, ks, (1,))
    proj = _project_segments(prev.points, flat, off, anchors, axes)
    h_coord = nnet.segment_maxpool(nnet.mlp(model.g1[level], nnet.constant(proj)), off)
    h_desc = nnet.segment_maxpool(
        nnet.mlp(model.h[level], nnet.gather_rows(prev.features, flat)), off
    )
    features = nnet.mlp(model.f[level], nnet.concat_cols([h_coord, h_desc]))
    return DescriptorSet(level=level, points=anchors, axes=axes, features=features, block=block)


def level_graph(
    config: RiGcnConfig,
    desc: DescriptorSet,
    rng: np.random.Generator | None,
    stochastic: bool,
) -> np.ndarray:
    """Weights of a level's k-NN graph. The degree khat is drawn from
    ``khat_range`` clamped below the node count, so small top levels stay
    buildable."""
    top = len(desc.points) - 1
    bounds = (min(config.khat_range[0], top), min(config.khat_range[1], top))
    khat = int(draw_interval(bounds, 1, rng, stochastic and config.stochastic_khat)[0])
    return graph.build_knn_graph(desc.points, desc.block, khat)


def abstract_level(
    model: RiGcnModel,
    desc: DescriptorSet,
    rng: np.random.Generator | None,
    stochastic: bool,
) -> nnet.Node:
    """Level summary: graph convolution over the level's k-NN graph followed
    by max pooling. The MLP variant drops the adjacency (identity graph)."""
    n = len(desc.points)
    if n < 2:
        raise graph.DegenerateGraphError(f"level {desc.level} has {n} < 2 nodes")
    w = model.gcn_w[desc.level]
    if model.config.abstraction == "gcn":
        weights = level_graph(model.config, desc, rng, stochastic)
        h = nnet.gcn_layer(graph.renormalize(weights), desc.features, w)
    else:
        h = nnet.relu(nnet.linear(w, desc.features))
    return nnet.maxpool_rows(h)


def level_descriptors(
    model: RiGcnModel,
    points: np.ndarray,
    rng: np.random.Generator | None = None,
    stochastic: bool = False,
) -> list[DescriptorSet]:
    """All per-level descriptor sets for one cloud (shared by forward and
    the graph-export path)."""
    cfg = model.config
    pts = np.asarray(points, dtype=np.float64)
    if cfg.transform_scope == "global":
        frame = geom.global_pca_frame(pts)
        pts = geom.project_to_lrf(frame, pts)
    descs = [extract_descriptors(model, pts, rng, stochastic)]
    for level in range(1, cfg.levels):
        descs.append(extend_descriptors(model, descs[-1], level, rng, stochastic))
    return descs


def forward(
    model: RiGcnModel,
    points: np.ndarray,
    rng: np.random.Generator | None = None,
    stochastic: bool = False,
) -> nnet.Node:
    """Class logits for one normalized cloud, as a (1, num_classes) node."""
    descs = level_descriptors(model, points, rng, stochastic)
    summaries = [abstract_level(model, d, rng, stochastic) for d in descs]
    fused = summaries[0] if len(summaries) == 1 else nnet.concat_cols(summaries)
    return nnet.mlp(model.clf, fused)


def logits(model: RiGcnModel, points: np.ndarray) -> np.ndarray:
    """Deterministic logits as a flat vector."""
    return forward(model, points, None, stochastic=False).value.ravel()


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
    pushed through a stochastic forward pass, and applied immediately.
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
        out = forward(model, pts, rng, stochastic=True)
        loss_node = nnet.cross_entropy(out, int(labels[idx]))
        loss = float(loss_node.value)
        if not np.isfinite(loss):
            raise nnet.TrainingDivergenceError(f"non-finite loss at sample {idx}")
        nnet.backward(loss_node)
        nnet.optimizer_step(opt_state, model.parameters())
        total_loss += loss
        correct += int(np.argmax(out.value.ravel()) == labels[idx])
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
