import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigcn import geom, graph

from conftest import random_cloud


def dense_renormalize_oracle(weights: np.ndarray) -> np.ndarray:
    """Independent dense computation of D^{-1/2} (A + I) D^{-1/2}."""
    a_tilde = weights + np.eye(len(weights))
    deg = np.diag(a_tilde.sum(axis=1))
    d_inv_sqrt = np.linalg.inv(np.linalg.cholesky(deg))  # deg is diagonal SPD
    return d_inv_sqrt @ a_tilde @ d_inv_sqrt.T


class TestBuildKnnGraph:
    def test_two_points_single_edge_weight(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        g = graph.build_knn_graph(pts, graph.GraphParams(khat=1), None)
        # the kernel bandwidth equals the only distance, so exp(-1/2)
        assert g.weights[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-15)
        assert g.weights[1, 0] == g.weights[0, 1]
        assert g.weights[0, 0] == 0.0

    def test_coincident_points_edge_weight_one(self):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [5.0, 0, 0], [9.0, 0, 0]])
        g = graph.build_knn_graph(pts, graph.GraphParams(khat=1), None)
        assert g.weights[0, 1] == 1.0

    def test_rotation_invariance(self):
        pts = random_cloud(3, 20)
        rot = geom.random_rotation(np.random.default_rng(4), "so3")
        a = graph.build_knn_graph(pts, graph.GraphParams(khat=4), None)
        b = graph.build_knn_graph(geom.rotate(pts, rot), graph.GraphParams(khat=4), None)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)

    def test_khat_must_be_below_node_count(self):
        with pytest.raises(ValueError):
            graph.build_knn_graph(random_cloud(0, 5), graph.GraphParams(khat=5), None)

    def test_too_few_nodes(self):
        with pytest.raises(graph.DegenerateGraphError):
            graph.build_knn_graph([[0.0, 0, 0]], graph.GraphParams(khat=1), None)

    def test_stochastic_khat_sampling_is_seeded(self):
        pts = random_cloud(1, 20)
        params = graph.GraphParams(khat=(2, 8), stochastic=True)
        a = graph.build_knn_graph(pts, params, np.random.default_rng(7))
        b = graph.build_knn_graph(pts, params, np.random.default_rng(7))
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_midpoint_when_deterministic(self):
        pts = random_cloud(1, 20)
        a = graph.build_knn_graph(pts, graph.GraphParams(khat=(2, 8), stochastic=False), None)
        b = graph.build_knn_graph(pts, graph.GraphParams(khat=5), None)
        np.testing.assert_array_equal(a.weights, b.weights)

    @given(st.integers(0, 300), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_weight_matrix_invariants(self, seed, khat):
        pts = random_cloud(seed, 12)
        g = graph.build_knn_graph(pts, graph.GraphParams(khat=khat), None)
        assert np.abs(g.weights - g.weights.T).max() < 1e-12
        assert np.diag(g.weights).max() == 0.0
        assert g.weights.min() >= 0.0
        assert g.weights.max() <= 1.0
        # every node has at least khat incident edges
        assert ((g.weights > 0).sum(axis=1) >= khat).all()

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, seed):
        pts = random_cloud(seed, 14)
        perm = np.random.default_rng(seed + 11).permutation(len(pts))
        a = graph.build_knn_graph(pts, graph.GraphParams(khat=3), None)
        b = graph.build_knn_graph(pts[perm], graph.GraphParams(khat=3), None)
        np.testing.assert_allclose(b.weights, a.weights[np.ix_(perm, perm)], atol=1e-12)


class TestTiesAtTheCut:
    @pytest.mark.parametrize("khat", [1, 3, 5, 6])
    def test_grid_neighbor_lists_follow_the_reference(self, monkeypatch, khat):
        # On a 5x4x2 integer grid, interior nodes have 4-6 neighbors at
        # distance 1, so the khat-th and (khat+1)-th distances tie.
        pts = np.array([[x, y, z] for x in range(5) for y in range(4) for z in range(2)], float)
        pts = pts[np.random.default_rng(1).permutation(len(pts))]
        lists = []
        inner = geom.nearest_candidates

        def capture(*args):
            out = inner(*args)
            lists.append(out)
            return out

        monkeypatch.setattr(geom, "nearest_candidates", capture)
        g = graph.build_knn_graph(pts, graph.GraphParams(khat=khat), None)
        (nbrs,) = lists
        expected = np.array([geom.sorted_candidates(pts, i)[:khat] for i in range(len(pts))])
        np.testing.assert_array_equal(nbrs, expected)
        support = np.zeros_like(g.weights, dtype=bool)
        support[np.arange(len(pts))[:, None], expected] = True
        np.testing.assert_array_equal(g.weights > 0, support | support.T)


class TestRenormalize:
    def test_edgeless_graph_gives_identity(self):
        g = graph.WeightedGraph(n=4, weights=np.zeros((4, 4)))
        np.testing.assert_array_equal(graph.renormalize(g).entries, np.eye(4))

    def test_two_node_hand_arithmetic(self):
        g = graph.WeightedGraph(n=2, weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(graph.renormalize(g).entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_three_node_path_against_dense_oracle(self):
        w = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0.0]])
        out = graph.renormalize(graph.WeightedGraph(n=3, weights=w)).entries
        oracle = dense_renormalize_oracle(w)
        np.testing.assert_allclose(out, oracle, atol=1e-14)
        # frozen values from the dense oracle
        np.testing.assert_allclose(
            out.sum(axis=1), [0.90824829, 1.14982991, 0.90824829], atol=1e-8
        )

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_spectrum_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        raw = rng.uniform(0, 1, size=(n, n))
        w = np.triu(raw, 1)
        w = w + w.T
        out = graph.renormalize(graph.WeightedGraph(n=n, weights=w)).entries
        assert np.abs(out - out.T).max() < 1e-12
        eigs = np.linalg.eigvalsh(out)
        assert eigs.max() <= 1 + 1e-9
        assert eigs.min() >= -1 - 1e-9
        assert out.min() >= 0.0

    def test_spectral_radius_by_power_iteration(self):
        pts = random_cloud(8, 30)
        out = graph.renormalize(graph.build_knn_graph(pts, graph.GraphParams(khat=5), None)).entries
        v = np.random.default_rng(0).normal(size=30)
        for _ in range(200):
            v = out @ v
            v /= np.linalg.norm(v)
        assert abs(v @ out @ v) <= 1 + 1e-9


class TestGraphExport:
    def test_node_and_edge_files(self, tmp_path):
        pts = random_cloud(5, 10)
        g = graph.build_knn_graph(pts, graph.GraphParams(khat=3), None)
        nodes, edges = tmp_path / "n.txt", tmp_path / "e.txt"
        graph.write_graph_files(pts, g, nodes, edges)
        node_rows = [line.split() for line in nodes.read_text().splitlines()]
        assert len(node_rows) == 10
        got = np.array([[float(v) for v in row[1:]] for row in node_rows])
        np.testing.assert_array_equal(got, pts)
        edge_rows = [line.split() for line in edges.read_text().splitlines()]
        assert len(edge_rows) == np.count_nonzero(np.triu(g.weights, 1))
        for i, j, w in edge_rows:
            assert 0 <= int(i) < int(j) < 10
            assert g.weights[int(i), int(j)] == float(w)
