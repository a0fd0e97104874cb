import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigcn import geom, graph, model

from conftest import laid_out, random_cloud, tiny_config


def knn_graph(pts, khat):
    """The graph weights over a point set, given its distances from the
    helper; ties go to the lower index."""
    pts = geom.as_cloud(pts)
    return graph.build_knn_graph(pts, geom.squared_distances(pts), khat)


def dense_renormalize_oracle(weights: np.ndarray) -> np.ndarray:
    """Independent dense computation of D^{-1/2} (A + I) D^{-1/2}."""
    a_tilde = weights + np.eye(len(weights))
    deg = np.diag(a_tilde.sum(axis=1))
    d_inv_sqrt = np.linalg.inv(np.linalg.cholesky(deg))  # deg is diagonal SPD
    return d_inv_sqrt @ a_tilde @ d_inv_sqrt.T


class TestBuildKnnGraph:
    def test_two_points_single_edge_weight(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        g = knn_graph(pts, 1)
        # the kernel bandwidth equals the only distance, so exp(-1/2)
        assert g[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-15)
        assert g[1, 0] == g[0, 1]
        assert g[0, 0] == 0.0

    def test_coincident_points_edge_weight_one(self):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [5.0, 0, 0], [9.0, 0, 0]])
        g = knn_graph(pts, 1)
        assert g[0, 1] == 1.0

    def test_rotation_invariance(self):
        pts = random_cloud(3, 20)
        rot = geom.random_rotation(np.random.default_rng(4), "so3")
        a = knn_graph(pts, 4)
        b = knn_graph(geom.rotate(pts, rot), 4)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("khat", [0, 5, 6])
    def test_khat_must_be_positive_and_below_node_count(self, khat):
        with pytest.raises(ValueError):
            knn_graph(random_cloud(0, 5), khat)

    def test_too_few_nodes(self):
        with pytest.raises(graph.DegenerateGraphError):
            knn_graph([[0.0, 0, 0]], 1)

    @given(st.integers(0, 300), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_weight_matrix_invariants(self, seed, khat):
        pts = random_cloud(seed, 12)
        g = knn_graph(pts, khat)
        assert np.abs(g - g.T).max() < 1e-12
        assert np.diag(g).max() == 0.0
        assert g.min() >= 0.0
        assert g.max() <= 1.0
        # every node has at least khat incident edges
        assert ((g > 0).sum(axis=1) >= khat).all()

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, seed):
        pts = random_cloud(seed, 14)
        perm = np.random.default_rng(seed + 11).permutation(len(pts))
        a = knn_graph(pts, 3)
        b = knn_graph(pts[perm], 3)
        np.testing.assert_allclose(b, a[np.ix_(perm, perm)], atol=1e-12)


def grid(nx, ny, nz, seed):
    """An integer grid in a seeded random row order."""
    pts = np.array([[x, y, z] for x in range(nx) for y in range(ny) for z in range(nz)], float)
    return pts[np.random.default_rng(seed).permutation(len(pts))]


def tie_cloud(kind, n=40):
    """A cloud of one kind, in its seeded row order (lay it out to compare
    with the coordinate order)."""
    rng = np.random.default_rng(3)
    if kind == "generic":
        return random_cloud(3, n)
    if kind == "quarter_grid":
        return rng.integers(-4, 5, size=(n, 3)) / 4.0
    if kind == "duplicates":
        base = rng.integers(-8, 9, size=(n // 4, 3)) / 8.0
        return base[rng.integers(0, len(base), size=n)]
    # On a 5x4x2 integer grid, interior nodes have 4-6 neighbors at
    # distance 1, so the khat-th and (khat+1)-th distances tie.
    return grid(5, 4, 2, 1)


class TestTiesAtTheCut:
    @staticmethod
    def build(monkeypatch, pts, khat):
        """Build the graph; return its neighbor lists as point indices, its
        weights, and the distances its ranking saw."""
        seen = []
        inner = geom.nearest_candidates

        def capture(*args):
            out = inner(*args)
            seen.append((args[0].copy(), out))
            return out

        monkeypatch.setattr(geom, "nearest_candidates", capture)
        g = knn_graph(pts, khat)
        monkeypatch.undo()
        ((ranked_d2, nbrs),) = seen
        return nbrs, g, ranked_d2

    def check_lists(self, monkeypatch, cloud, khat):
        # Laid out, the lower index is the lower (x, y, z); in the seeded row
        # order it is not, as in a level's pick order.
        for pts in (laid_out(cloud), cloud):
            self.check_set(monkeypatch, pts, khat)

    def check_set(self, monkeypatch, pts, khat):
        block = geom.squared_distances(pts)
        nbrs, weights, ranked_d2 = self.build(monkeypatch, pts, khat)
        expected = np.array([geom.sorted_candidates(pts, i)[:khat] for i in range(len(pts))])
        np.testing.assert_array_equal(nbrs, expected)
        support = np.zeros_like(weights, dtype=bool)
        support[np.arange(len(pts))[:, None], expected] = True
        np.testing.assert_array_equal(weights > 0, support | support.T)
        # The graph ranks the helper's distances, and the reference's order
        # agrees with them bitwise.
        off_diagonal = ~np.eye(len(pts), dtype=bool)
        np.testing.assert_array_equal(ranked_d2[off_diagonal], block[off_diagonal])
        for i in range(len(pts)):
            assert np.all(np.diff(block[i, geom.sorted_candidates(pts, i)]) >= 0)

    @pytest.mark.parametrize("khat", [1, 3, 5, 6])
    def test_grid_neighbor_lists_follow_the_reference(self, monkeypatch, khat):
        self.check_lists(monkeypatch, tie_cloud("grid"), khat)

    @pytest.mark.parametrize("kind", ["generic", "quarter_grid", "duplicates"])
    @pytest.mark.parametrize("khat", [1, 3, 5, 6])
    def test_neighbor_lists_follow_the_reference(self, monkeypatch, kind, khat):
        self.check_lists(monkeypatch, tie_cloud(kind), khat)

    @pytest.mark.parametrize("kind", ["generic", "quarter_grid", "duplicates"])
    def test_hierarchy_blocks_are_the_helpers(self, kind):
        # The distances handed down to levels 1-2 and to every level's graph
        # are the helper's distances between that level's points, bitwise.
        pts = tie_cloud(kind, 64)
        net = model.RiGcnModel(tiny_config(levels=3, level_sizes=(32, 12, 5), channels=(8, 8, 8)))
        for desc in model.level_descriptors(net, pts):
            np.testing.assert_array_equal(desc.block, geom.squared_distances(desc.points))

    @pytest.mark.parametrize("khat", [3, 10, 20])
    def test_heavy_ties_at_the_grid_centre(self, monkeypatch, khat):
        # Around the centre of a 5x5x5 grid, 6, 12 and 8 candidates tie at
        # distances 1, sqrt(2) and sqrt(3); each khat cuts inside one group.
        pts = laid_out(grid(5, 5, 5, 4))
        nbrs, _, _ = self.build(monkeypatch, pts, khat)
        centre = int(np.flatnonzero((pts == 2).all(axis=1))[0])
        expected = np.array([geom.sorted_candidates(pts, i)[:khat] for i in range(len(pts))])
        np.testing.assert_array_equal(nbrs[centre], expected[centre])
        np.testing.assert_array_equal(nbrs, expected)


class TestRenormalize:
    def test_edgeless_graph_gives_identity(self):
        np.testing.assert_array_equal(graph.renormalize(np.zeros((4, 4))), np.eye(4))

    def test_two_node_hand_arithmetic(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(graph.renormalize(w), np.full((2, 2), 0.5), atol=1e-15)

    def test_three_node_path_against_dense_oracle(self):
        w = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0.0]])
        out = graph.renormalize(w)
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
        out = graph.renormalize(w)
        assert np.abs(out - out.T).max() < 1e-12
        eigs = np.linalg.eigvalsh(out)
        assert eigs.max() <= 1 + 1e-9
        assert eigs.min() >= -1 - 1e-9
        assert out.min() >= 0.0

    def test_spectral_radius_by_power_iteration(self):
        pts = random_cloud(8, 30)
        out = graph.renormalize(knn_graph(pts, 5))
        v = np.random.default_rng(0).normal(size=30)
        for _ in range(200):
            v = out @ v
            v /= np.linalg.norm(v)
        assert abs(v @ out @ v) <= 1 + 1e-9


class TestGraphExport:
    def test_node_and_edge_files(self, tmp_path):
        pts = random_cloud(5, 10)
        g = knn_graph(pts, 3)
        nodes, edges = tmp_path / "n.txt", tmp_path / "e.txt"
        graph.write_graph_files(pts, g, nodes, edges)
        node_rows = [line.split() for line in nodes.read_text().splitlines()]
        assert len(node_rows) == 10
        got = np.array([[float(v) for v in row[1:]] for row in node_rows])
        np.testing.assert_array_equal(got, pts)
        edge_rows = [line.split() for line in edges.read_text().splitlines()]
        assert len(edge_rows) == np.count_nonzero(np.triu(g, 1))
        for i, j, w in edge_rows:
            assert 0 <= int(i) < int(j) < 10
            assert g[int(i), int(j)] == float(w)
