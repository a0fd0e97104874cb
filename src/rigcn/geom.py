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
# Entries per partition block in ``nearest_candidates``: 64 KB of int64
# indices, below glibc's initial 128 KB mmap threshold, so the heap serves
# each block and reuses it for the next instead of mapping fresh pages.
_PARTITION_ENTRIES = 8192

_COORD_AXES = np.eye(3)


class DegeneratePatchError(ValueError):
    """Raised when a neighborhood is too small to estimate a frame."""


@dataclass(frozen=True)
class CorruptionSpec:
    """Gaussian jitter sigma plus a count of injected outlier points."""

    noise_sigma: float = 0.0
    outlier_count: int = 0

    def __post_init__(self):
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
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
    nearly coincident inputs. Any other cloud whose squared radius is not a
    finite normal float64 (a radius above about 1e154 or below about
    1e-154) raises ``ValueError``.
    """
    pts = as_cloud(points)
    if np.all(pts == pts[0]):
        return np.zeros_like(pts)
    centered = pts - pts.mean(axis=0)
    centered -= centered.mean(axis=0)
    radius2 = (centered * centered).sum(axis=1).max()
    if not np.finfo(np.float64).tiny <= radius2 < np.inf:
        raise ValueError(f"cloud extent out of range: its squared radius is {radius2}")
    return centered / np.sqrt(radius2)


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Indices that sort the points lexicographically by (x, y, z), then by
    index.

    This order is the package's one tie rule. Wherever candidates are
    equally far (an FPS pick, a patch member, a graph neighbor), the one
    earlier in this order wins. Code applies the rule by laying the points
    out in this order, where ``np.argmax`` takes the first maximum and a
    sort by (distance, position) keeps equal distances in position order, so
    ties are settled by position and never by a per-anchor pass. The order
    depends on coordinates alone except among exact duplicates, which are
    interchangeable, so results follow permutations of the input rows
    exactly. It is taken once per point set, not once per cloud: hierarchy
    levels keep their anchors in pick order. ``sorted_candidates`` spells
    the rule out one anchor at a time and serves as its reference.
    """
    return np.lexsort((points[:, 2], points[:, 1], points[:, 0]))


def _sum_of_squares(diff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared lengths of the planar (3, ...) differences ``diff``, which
    are squared in place.

    The sum is taken as ``(dx**2 + dz**2) + dy**2``, the order in which
    numpy's ``einsum("ij,ij->i")`` adds a length-3 axis: the two agreed
    bitwise on 100k random rows and on every benchmark cloud, so distances,
    and the logits built on them, round exactly as with that einsum.
    """
    np.multiply(diff, diff, out=diff)
    out = np.add(diff[0], diff[2], out=out)
    out += diff[1]
    return out


def squared_distances(points) -> np.ndarray:
    """The (N, N) squared distances between the points, in input order.

    A forward pass computes distances only inside
    ``farthest_point_sampling`` and hands blocks of its rows down the
    hierarchy; this is the same computation for callers that hold only
    points.
    """
    planar = as_cloud(points).T
    return _sum_of_squares(planar[:, None, :] - planar[:, :, None])


def farthest_point_sampling(
    points, m: int, order: np.ndarray, block: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy max-min sampling of ``m`` point indices.

    The first pick is the point farthest from the centroid; each later pick
    maximizes the minimum distance to the already-selected set, with ties
    broken by ``order``, the points' ``canonical_order``. The loop runs over
    the points in that order, centroid included, so the output follows
    permutations of the input rows exactly. All decisions are distance-based,
    so it is rotation-invariant wherever no exact tie decides a pick.

    Returns the picks, their (m, N) squared-distance rows with columns in
    canonical order, and the picks' positions ``pos`` in that order
    (``picks == order[pos]``): ``rows[i, c]`` is the squared distance from
    ``points[picks[i]]`` to ``points[order[c]]``. Given ``block``, the
    points' own (N, N) squared distances in input order, the rows are read
    from it and no distance between two points is computed.
    """
    pts = as_cloud(points)
    n = len(pts)
    if not 1 <= m <= n:
        raise ValueError(f"sample count m={m} out of range [1, {n}]")
    if block is not None and block.shape != (n, n):
        raise ValueError(f"distance block has shape {block.shape}, expected {(n, n)}")
    cp = pts[order]
    planar = np.ascontiguousarray(cp.T)
    diff = planar - cp.mean(axis=0)[:, None]
    current = int(_sum_of_squares(diff).argmax())
    pos = np.empty(m, dtype=np.int64)
    rows = np.empty((m, n))
    min_d2 = np.full(n, np.inf)
    # One subtraction per coordinate: broadcasting a (3, 1) column over the
    # planar array costs several times more per call.
    coords = tuple(zip(planar, diff))
    for i, row in enumerate(rows):
        pos[i] = current
        if block is None:
            for axis, delta in coords:
                np.subtract(axis, axis[current], out=delta)
            _sum_of_squares(diff, out=row)
        else:
            np.take(block[order[current]], order, out=row)
        np.minimum(min_d2, row, out=min_d2)
        min_d2[current] = -np.inf
        current = int(min_d2.argmax())
    return order[pos], rows, pos


def nearest_candidates(d2: np.ndarray, count: int) -> np.ndarray:
    """Per row of ``d2``, the columns of its ``count`` smallest entries in
    ascending distance, ties going to the lower column.

    Columns stand for points in ``canonical_order``, so the column tie rule
    is the package's one. Entries that must never be picked (an anchor
    itself) hold inf, and ``count`` must be below the column count. The
    prefix is found by a partition; a row whose last kept distance ties the
    next one may have left tied candidates outside it, so for such rows
    every candidate at or below the cut distance is ranked again.

    The partition runs over blocks of ``max(1, 8192 // n)`` rows for n
    columns and keeps only each row's ``count + 1`` prefix, so its index
    scratch is at most 8,192 entries (64 KB) whatever the row count, or one
    row when a row is longer than that.
    """
    m, n = d2.shape
    rows = np.arange(m)[:, None]
    part = np.empty((m, count + 1), dtype=np.intp)
    step = max(1, _PARTITION_ENTRIES // n)
    for start in range(0, m, step):
        block = slice(start, start + step)
        # One statement, so a block's indices are freed before the next.
        part[block] = np.argpartition(d2[block], count, axis=1)[:, : count + 1]
    part_d2 = d2[rows, part]
    sub = np.lexsort((part, part_d2), axis=-1)
    out = part[rows, sub[:, :count]]
    cut = part_d2[rows, sub[:, count - 1 :]]
    redo = np.flatnonzero(cut[:, 0] == cut[:, 1])
    if redo.size:
        redo_d2 = d2[redo]
        r, c = np.nonzero(redo_d2 <= cut[redo, :1])
        # By row, then distance; lexsort is stable, so ties keep column order.
        ranked = c[np.lexsort((redo_d2[r, c], r))]
        starts = np.searchsorted(r, np.arange(len(redo)))
        out[redo] = ranked[starts[:, None] + np.arange(count)]
    return out


def sorted_candidates(points: np.ndarray, anchor_index: int) -> np.ndarray:
    """All indices except the anchor, sorted by ascending distance to it.

    Distance ties are broken by ``canonical_order``, one anchor at a time;
    the batched paths are tested against this.
    """
    d2 = squared_distances(points)[anchor_index]
    rank = np.empty(len(points), dtype=np.int64)
    rank[canonical_order(points)] = np.arange(len(points))
    order = np.lexsort((rank, d2))
    return order[order != anchor_index]


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
    # proj**3 calls libm pow per element; the product is about 40x cheaper.
    moments = np.add.reduceat(proj * proj * proj, starts, axis=0)
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


def global_pca_frame(points) -> np.ndarray:
    """The points expressed in their whole-cloud PCA frame: rows of
    ``(p - centroid) @ axes``.

    Used by the global-transformation variant: the full cloud plays the role
    of a single neighborhood, with the same axes and sign rule as local
    frames (``lrf_axes_batch``), anchored at the centroid.
    """
    pts = as_cloud(points)
    if len(pts) < 3:
        raise DegeneratePatchError("need >= 3 points for a whole-cloud frame")
    centroid = pts.mean(axis=0)
    axes = lrf_axes_batch(pts, np.array([0, len(pts)]), centroid[None, :])[0]
    return (pts - centroid) @ axes


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
