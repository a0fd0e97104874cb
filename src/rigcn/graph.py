"""Weighted k-NN graphs over representative points and the renormalized
adjacency used by graph convolution."""

from __future__ import annotations

import numpy as np

from . import geom


class DegenerateGraphError(ValueError):
    """Raised when a point set is too small to carry a graph."""


def build_knn_graph(points, d2: np.ndarray, khat: int) -> np.ndarray:
    """The (N, N) weights of a k-NN graph: directed ``khat``-NN edges with
    Gaussian-smoothed distance weights, symmetrized by taking the larger
    direction, zero on the diagonal.

    ``d2`` holds the points' squared distances to each other, as a level's
    ``DescriptorSet.block`` or ``geom.squared_distances`` gives them. The
    kernel bandwidth is the mean of all selected neighbor distances, so
    weights stay scale-stable across levels. The construction uses distances
    only and is therefore rotation-invariant; distance ties go to the lower
    index, a level's pick rank.
    """
    pts = geom.as_cloud(points)
    n = len(pts)
    if n < 2:
        raise DegenerateGraphError(f"need >= 2 nodes for a graph, got {n}")
    if d2.shape != (n, n):
        raise ValueError(f"distance block has shape {d2.shape}, expected {(n, n)}")
    if not 1 <= khat < n:
        raise ValueError(f"khat={khat} must be in [1, {n - 1}] for {n} nodes")

    d2 = d2.copy()  # the caller's block stays intact
    np.fill_diagonal(d2, np.inf)
    nbrs = geom.nearest_candidates(d2, khat)

    sel_d2 = d2[np.arange(n)[:, None], nbrs]
    sigma = np.sqrt(sel_d2).mean()
    denom = 2.0 * sigma * sigma if sigma > 0 else 1.0
    w = np.exp(-sel_d2 / denom)

    directed = np.zeros((n, n))
    directed[np.arange(n)[:, None], nbrs] = w
    weights = np.maximum(directed, directed.T)
    np.fill_diagonal(weights, 0.0)
    return weights


def renormalize(weights: np.ndarray) -> np.ndarray:
    """Self-loop renormalization of a weight matrix: D^{-1/2} (A + I) D^{-1/2},
    whose eigenvalues lie in [-1, 1]."""
    a_tilde = weights + np.eye(len(weights))
    inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * np.outer(inv_sqrt_deg, inv_sqrt_deg)


def write_graph_files(points: np.ndarray, weights: np.ndarray, nodes_path, edges_path) -> None:
    """Plain-text export: one ``i x y z`` line per node and one
    ``i j weight`` line per undirected edge (i < j, weight > 0)."""
    with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (x, y, z) in enumerate(points):
            fh.write(f"{i} {x:.17g} {y:.17g} {z:.17g}\n")
    ii, jj = np.nonzero(np.triu(weights, k=1))
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for i, j in zip(ii, jj):
            fh.write(f"{i} {j} {weights[i, j]:.17g}\n")
