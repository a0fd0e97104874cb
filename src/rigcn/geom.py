"""Geometric primitives: normalization, sampling, neighbor search, local
reference frames, rotations, and corruption augmentations.

All functions are pure and operate on float64 arrays of shape (N, 3).
Randomized operations take a ``numpy.random.Generator`` so that results are
a deterministic function of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvalue gaps below this are treated as degenerate; such patches fall
# back to a deterministic (but not rotation-equivariant) axis completion.
EIG_GAP_TOL = 1e-6
# Threshold below which an odd-moment sign statistic is considered zero.
MOMENT_TOL = 1e-12

_COORD_AXES = np.eye(3)


class DegeneratePatchError(ValueError):
    """Raised when a neighborhood is too small to estimate a frame."""


@dataclass(frozen=True)
class NeighborParams:
    """Neighbor-search parameters: count k and dilation rate d."""

    k: int
    d: int

    def __post_init__(self):
        if self.k < 1 or self.d < 1:
            raise ValueError(f"k and d must be >= 1, got k={self.k}, d={self.d}")


@dataclass(frozen=True)
class NeighborSet:
    """Result of a neighbor search: ordered member indices, nearest-first."""

    anchor_index: int
    member_indices: np.ndarray


@dataclass(frozen=True)
class LocalFrame:
    """An anchor origin plus a right-handed orthonormal axis matrix.

    ``axes`` columns are the principal directions in eigenvalue-descending
    order; ``axes[:, 2]`` is always ``axes[:, 0] x axes[:, 1]``.
    """

    origin: np.ndarray
    axes: np.ndarray


@dataclass(frozen=True)
class CorruptionSpec:
    """Gaussian jitter sigma plus a count of injected outlier points."""

    noise_sigma: float = 0.0
    outlier_count: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.outlier_count < 0:
            raise ValueError(f"outlier_count must be >= 0, got {self.outlier_count}")


def as_cloud(points) -> np.ndarray:
    """Validate and convert to an (N, 3) float64 array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"expected an (N, 3) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite coordinates")
    return pts


def normalize_unit_sphere(points) -> np.ndarray:
    """Shift to zero centroid and scale so the farthest point has norm 1.

    A cloud whose points all coincide collapses to all zeros. Centering is
    done twice so the residual centroid stays at rounding level even for
    nearly coincident inputs.
    """
    pts = as_cloud(points)
    if np.all(pts == pts[0]):
        return np.zeros_like(pts)
    centered = pts - pts.mean(axis=0)
    centered -= centered.mean(axis=0)
    scale = np.sqrt((centered * centered).sum(axis=1).max())
    return centered / scale


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Indices that sort the points lexicographically by (x, y, z), then by
    index.

    This order is the package's one tie rule. Wherever candidates are
    equally far (an FPS pick, a patch member, a graph neighbor), the one
    earlier in this order wins. Code applies the rule by laying the points
    out in this order, where ``np.argmax`` takes the first maximum and a
    stable ``np.argsort`` keeps equal distances in position order, so ties
    are settled by position and never by a per-anchor pass. The order
    depends on coordinates alone except among exact duplicates, which are
    interchangeable, so results follow permutations of the input rows
    exactly. It is taken per point set, not once per cloud: hierarchy levels
    keep their anchors in pick order. ``sorted_candidates`` spells the rule
    out one anchor at a time and serves as its reference.
    """
    return np.lexsort((points[:, 2], points[:, 1], points[:, 0]))


def farthest_point_sampling(points, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-min sampling of ``m`` point indices.

    The first pick is the point farthest from the centroid; each later pick
    maximizes the minimum distance to the already-selected set, with ties
    broken by ``canonical_order``. The loop runs over the points in that
    order, centroid included, so the output follows permutations of the
    input rows exactly. All decisions are distance-based, so the output is
    invariant to rotations wherever no exact tie decides a pick.

    Returns the picks and their (m, N) squared-distance rows: ``d2[i, j]``
    is the squared distance from ``points[picks[i]]`` to ``points[j]``.
    """
    pts = as_cloud(points)
    n = len(pts)
    if not 1 <= m <= n:
        raise ValueError(f"sample count m={m} out of range [1, {n}]")
    order = canonical_order(pts)
    cp = pts[order]
    diff = cp - cp.mean(axis=0)
    current = int(np.argmax(np.einsum("ij,ij->i", diff, diff)))
    picks = np.empty(m, dtype=np.int64)
    rows = np.empty((m, n))
    min_d2 = np.full(n, np.inf)
    for i, row in enumerate(rows):
        picks[i] = current
        np.subtract(cp, cp[current], out=diff)
        np.einsum("ij,ij->i", diff, diff, out=row)
        np.minimum(min_d2, row, out=min_d2)
        min_d2[current] = -np.inf
        current = int(np.argmax(min_d2))
    d2 = np.empty_like(rows)
    d2[:, order] = rows
    return order[picks], d2


def nearest_candidates(d2: np.ndarray, order: np.ndarray, count: int) -> np.ndarray:
    """Per row of ``d2``, the columns of its ``count`` smallest entries in
    ascending distance, ties broken by ``canonical_order``.

    ``order`` is the canonical order of the points the columns stand for;
    entries that must never be picked (an anchor itself) hold inf, and
    ``count`` must be below the column count. The prefix is found by a
    partition; a row whose last kept distance ties the next one may have
    left tied candidates outside it, so only such rows are sorted in full.
    """
    m, n = d2.shape
    rows = np.arange(m)[:, None]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    part = np.argpartition(d2, count, axis=1)[:, : count + 1]
    part = order[np.sort(rank[part], axis=1)]
    part_d2 = d2[rows, part]
    sub = np.argsort(part_d2, axis=1, kind="stable")
    out = part[rows, sub[:, :count]]
    cut = part_d2[rows, sub[:, count - 1 :]]
    redo = np.flatnonzero(cut[:, 0] == cut[:, 1])
    if redo.size:
        full = np.argsort(d2[redo][:, order], axis=1, kind="stable")
        out[redo] = order[full[:, :count]]
    return out


def sorted_candidates(points: np.ndarray, anchor_index: int) -> np.ndarray:
    """All indices except the anchor, sorted by ascending distance to it.

    Distance ties are broken by ``canonical_order``, one anchor at a time;
    the batched paths are tested against this.
    """
    pts = points
    diff = pts - pts[anchor_index]
    d2 = np.einsum("ij,ij->i", diff, diff)
    idx = np.arange(len(pts))
    order = np.lexsort((idx, pts[:, 2], pts[:, 1], pts[:, 0], d2))
    return order[order != anchor_index]


def dilated_positions(k: int, d: int, n_candidates: int) -> tuple[np.ndarray, int]:
    """Sorted-list positions 0, d, 2d, ... used by the dilated search.

    If the span exceeds the candidate list, the dilation is clamped to
    ``(n_candidates) // k`` (at least 1); remaining shortage is reported so
    the caller can pad.
    """
    if (k - 1) * d >= n_candidates:
        d = max(1, n_candidates // k)
    if (k - 1) * d < n_candidates:
        take = k
    else:
        take = n_candidates  # d == 1 here; only a plain prefix fits
    positions = np.arange(take) * d
    return positions, k - take


def dilated_knn(points, anchor_index: int, params: NeighborParams) -> NeighborSet:
    """Neighbors of one anchor at every d-th position of its distance-sorted
    candidate list.

    Candidate shortage clamps the dilation and, if the cloud is smaller than
    k+1, pads by repeating the nearest candidate so patches keep width k.
    """
    pts = as_cloud(points)
    n = len(pts)
    if not 0 <= anchor_index < n:
        raise ValueError(f"anchor index {anchor_index} out of range for N={n}")
    cand = sorted_candidates(pts, anchor_index)
    positions, shortage = dilated_positions(params.k, params.d, len(cand))
    members = cand[positions]
    if shortage > 0:
        members = np.concatenate([members, np.full(shortage, cand[0])])
    return NeighborSet(anchor_index=anchor_index, member_indices=members)


def sample_neighbor_params(
    rng: np.random.Generator,
    k_range: tuple[int, int],
    d_range: tuple[int, int],
    stochastic: bool,
) -> NeighborParams:
    """Draw (k, d) uniformly from integer intervals, or take midpoints.

    Midpoints (``(lo + hi) // 2``) are used when ``stochastic`` is false so
    that evaluation is deterministic.
    """
    for name, (lo, hi) in (("k", k_range), ("d", d_range)):
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid {name} interval [{lo}, {hi}]")
    if stochastic:
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        d = int(rng.integers(d_range[0], d_range[1] + 1))
    else:
        k = (k_range[0] + k_range[1]) // 2
        d = (d_range[0] + d_range[1]) // 2
    return NeighborParams(k=k, d=d)


def _complete_axis(fixed: list[np.ndarray]) -> np.ndarray:
    """First coordinate axis with a non-negligible residual after
    Gram-Schmidt against the already-fixed directions."""
    for e in _COORD_AXES:
        r = e.copy()
        for v in fixed:
            r -= (r @ v) * v
        norm = np.linalg.norm(r)
        if norm > 1e-9:
            return r / norm
    raise AssertionError("coordinate axes cannot all be eliminated")


def _axis_signs(
    moments: np.ndarray, fallback: np.ndarray
) -> np.ndarray:
    """Signs for the first two principal axes from third central moments,
    falling back to the anchor-to-mean direction, then +1."""
    signs = np.ones_like(moments)
    use_m = np.abs(moments) >= MOMENT_TOL
    signs[use_m] = np.sign(moments[use_m])
    use_f = ~use_m & (np.abs(fallback) >= MOMENT_TOL)
    signs[use_f] = np.sign(fallback[use_f])
    return signs


def lrf_axes_batch(
    flat_points: np.ndarray, offsets: np.ndarray, anchors: np.ndarray
) -> np.ndarray:
    """Principal axes for many neighborhoods at once.

    ``flat_points`` holds all neighborhoods concatenated; segment ``i`` is
    ``flat_points[offsets[i]:offsets[i + 1]]`` and belongs to ``anchors[i]``.
    Returns an (M, 3, 3) stack of right-handed orthonormal axis matrices,
    eigenvalue-descending, sign-disambiguated by third central moments.
    """
    counts = np.diff(offsets)
    if np.any(counts < 3):
        raise DegeneratePatchError(
            f"every neighborhood needs >= 3 points, got min {counts.min()}"
        )
    m = len(anchors)
    starts = offsets[:-1]
    seg_ids = np.repeat(np.arange(m), counts)
    mu = np.add.reduceat(flat_points, starts, axis=0) / counts[:, None]
    centered = flat_points - mu[seg_ids]
    outers = centered[:, :, None] * centered[:, None, :]
    cov = np.add.reduceat(outers.reshape(-1, 9), starts, axis=0).reshape(m, 3, 3)
    cov /= counts[:, None, None]
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[:, ::-1]
    evecs = evecs[:, :, ::-1]

    proj = np.einsum("ti,tia->ta", centered, evecs[seg_ids])
    moments = np.add.reduceat(proj**3, starts, axis=0)
    fallback = np.einsum("mi,mia->ma", mu - anchors, evecs)
    signs = _axis_signs(moments, fallback)

    axes = evecs * signs[:, None, :]
    axes[:, :, 2] = np.cross(axes[:, :, 0], axes[:, :, 1], axis=1)

    gap12 = evals[:, 0] - evals[:, 1]
    gap23 = evals[:, 1] - evals[:, 2]
    degenerate = np.flatnonzero((gap12 <= EIG_GAP_TOL) | (gap23 <= EIG_GAP_TOL))
    for i in degenerate:
        axes[i] = _complete_degenerate(
            evecs[i], gap12[i], gap23[i], signs[i]
        )
    return axes


def _complete_degenerate(
    evecs: np.ndarray, gap12: float, gap23: float, signs: np.ndarray
) -> np.ndarray:
    """Deterministic axes for a neighborhood with (near-)equal eigenvalues.

    Well-separated principal directions are kept (with their moment signs);
    the remaining slots are completed by Gram-Schmidt over the coordinate
    axes. The third axis is always the cross product of the first two.
    """
    fixed: list[np.ndarray] = []
    axes = np.zeros((3, 3))
    have0 = gap12 > EIG_GAP_TOL
    if have0:
        axes[:, 0] = signs[0] * evecs[:, 0]
        fixed.append(axes[:, 0])
    elif gap23 > EIG_GAP_TOL:
        # The smallest-eigenvalue direction is well defined; keep new axes
        # inside its orthogonal complement.
        fixed.append(evecs[:, 2])
    if not have0:
        axes[:, 0] = _complete_axis(fixed)
        fixed.append(axes[:, 0])
    axes[:, 1] = _complete_axis(fixed)
    axes[:, 2] = np.cross(axes[:, 0], axes[:, 1])
    return axes


def estimate_lrf(points, anchor_index: int, neighbors: NeighborSet) -> LocalFrame:
    """PCA local reference frame for one anchor from its neighbor points."""
    pts = as_cloud(points)
    members = np.asarray(neighbors.member_indices)
    if len(members) < 3:
        raise DegeneratePatchError(
            f"need >= 3 neighbors to estimate a frame, got {len(members)}"
        )
    flat = pts[members]
    offsets = np.array([0, len(members)])
    anchor = pts[anchor_index]
    axes = lrf_axes_batch(flat, offsets, anchor[None, :])[0]
    return LocalFrame(origin=anchor.copy(), axes=axes)


def global_pca_frame(points) -> LocalFrame:
    """Whole-cloud PCA frame anchored at the centroid.

    Used by the global-transformation variant: the full cloud plays the role
    of a single neighborhood, with the same sign rule as local frames.
    """
    pts = as_cloud(points)
    if len(pts) < 3:
        raise DegeneratePatchError("need >= 3 points for a whole-cloud frame")
    centroid = pts.mean(axis=0)
    offsets = np.array([0, len(pts)])
    axes = lrf_axes_batch(pts, offsets, centroid[None, :])[0]
    return LocalFrame(origin=centroid, axes=axes)


def project_to_lrf(frame: LocalFrame, points) -> np.ndarray:
    """Express points in the frame: rows of ``(p - origin)^T @ axes``."""
    pts = np.asarray(points, dtype=np.float64)
    return (pts - frame.origin) @ frame.axes


def random_rotation(rng: np.random.Generator, mode: str) -> np.ndarray:
    """A random rotation matrix: ``z`` for azimuthal, ``so3`` for uniform.

    The SO(3) branch normalizes a 4D Gaussian quaternion, which is exactly
    Haar-uniform.
    """
    if mode == "z":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if mode == "so3":
        q = rng.normal(size=4)
        while (qn := np.linalg.norm(q)) < 1e-12:
            q = rng.normal(size=4)
        w, x, y, z = q / qn
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )
    raise ValueError(f"unknown rotation mode {mode!r}")


def rotate(points, rotation: np.ndarray) -> np.ndarray:
    """Apply a rotation matrix to every point (rows are points)."""
    return np.asarray(points, dtype=np.float64) @ rotation.T


def sample_in_unit_ball(rng: np.random.Generator, count: int) -> np.ndarray:
    """Volume-uniform points inside the unit ball, by rejection sampling."""
    out = np.empty((count, 3))
    have = 0
    while have < count:
        batch = rng.uniform(-1.0, 1.0, size=(max(count - have, 8) * 2, 3))
        keep = batch[(batch * batch).sum(axis=1) <= 1.0]
        take = min(len(keep), count - have)
        out[have : have + take] = keep[:take]
        have += take
    return out


def corrupt(points, spec: CorruptionSpec, rng: np.random.Generator) -> np.ndarray:
    """Perturb each coordinate with N(0, sigma^2) noise, then append
    uniformly sampled unit-ball outliers."""
    pts = as_cloud(points)
    noisy = pts + rng.normal(0.0, spec.noise_sigma, size=pts.shape)
    if spec.outlier_count == 0:
        return noisy
    return np.vstack([noisy, sample_in_unit_ball(rng, spec.outlier_count)])
