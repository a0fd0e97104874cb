"""Weighted k-NN graphs over representative points and the renormalized
adjacency used by graph convolution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom


class DegenerateGraphError(ValueError):
    """Raised when a point set is too small to carry a graph."""


@dataclass(frozen=True)
class GraphParams:
    """Edge count per node, as a fixed value or an interval to sample from."""

    khat: int | tuple[int, int]
    stochastic: bool = False

    def interval(self) -> tuple[int, int]:
        lo, hi = (self.khat, self.khat) if isinstance(self.khat, int) else self.khat
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid khat interval [{lo}, {hi}]")
        return lo, hi


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric non-negative adjacency with zero diagonal."""

    n: int
    weights: np.ndarray


@dataclass(frozen=True)
class NormalizedAdjacency:
    """The self-loop-renormalized adjacency; eigenvalues lie in [-1, 1]."""

    entries: np.ndarray


def resolve_khat(params: GraphParams, rng: np.random.Generator | None) -> int:
    """Sample khat from its interval, or take the midpoint when deterministic."""
    lo, hi = params.interval()
    if params.stochastic:
        if rng is None:
            raise ValueError("stochastic khat requires a generator")
        return int(rng.integers(lo, hi + 1))
    return (lo + hi) // 2


def build_knn_graph(
    points, params: GraphParams, rng: np.random.Generator | None = None
) -> WeightedGraph:
    """Directed khat-NN edges with Gaussian-smoothed distance weights,
    symmetrized by taking the larger direction.

    The kernel bandwidth is the mean of all selected neighbor distances, so
    weights stay scale-stable across levels. The construction uses distances
    only and is therefore rotation-invariant; distance ties are broken by
    ``geom.canonical_order``.
    """
    pts = geom.as_cloud(points)
    n = len(pts)
    if n < 2:
        raise DegenerateGraphError(f"need >= 2 nodes for a graph, got {n}")
    khat = resolve_khat(params, rng)
    if khat >= n:
        raise ValueError(f"khat={khat} must be < node count {n}")

    # Contiguous copies subtract several times faster than broadcasting over
    # a length-3 last axis; the einsum sees the same values either way.
    diff = (np.repeat(pts, n, axis=0) - np.tile(pts, (n, 1))).reshape(n, n, 3)
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    nbrs = geom.nearest_candidates(d2, geom.canonical_order(pts), khat)

    sel_d2 = d2[np.arange(n)[:, None], nbrs]
    sigma = np.sqrt(sel_d2).mean()
    denom = 2.0 * sigma * sigma if sigma > 0 else 1.0
    w = np.exp(-sel_d2 / denom)

    directed = np.zeros((n, n))
    directed[np.arange(n)[:, None], nbrs] = w
    weights = np.maximum(directed, directed.T)
    np.fill_diagonal(weights, 0.0)
    return WeightedGraph(n=n, weights=weights)


def renormalize(graph: WeightedGraph) -> NormalizedAdjacency:
    """Self-loop renormalization: D^{-1/2} (A + I) D^{-1/2}."""
    a_tilde = graph.weights + np.eye(graph.n)
    inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    entries = a_tilde * np.outer(inv_sqrt_deg, inv_sqrt_deg)
    return NormalizedAdjacency(entries=entries)


def write_graph_files(points: np.ndarray, graph: WeightedGraph, nodes_path, edges_path) -> None:
    """Plain-text export: one ``i x y z`` line per node and one
    ``i j weight`` line per undirected edge (i < j, weight > 0)."""
    with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (x, y, z) in enumerate(points):
            fh.write(f"{i} {x:.17g} {y:.17g} {z:.17g}\n")
    ii, jj = np.nonzero(np.triu(graph.weights, k=1))
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for i, j in zip(ii, jj):
            fh.write(f"{i} {j} {graph.weights[i, j]:.17g}\n")
