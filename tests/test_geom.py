import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigcn import geom

from conftest import random_cloud


class TestNormalizeUnitSphere:
    def test_already_normalized_cloud_is_unchanged(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        np.testing.assert_array_equal(geom.normalize_unit_sphere(pts), pts)

    def test_singleton_collapses_to_origin(self):
        np.testing.assert_array_equal(
            geom.normalize_unit_sphere([[5.0, 5.0, 5.0]]), np.zeros((1, 3))
        )

    def test_shift_and_scale(self):
        out = geom.normalize_unit_sphere([[2.0, 0, 0], [4.0, 0, 0]])
        np.testing.assert_allclose(out, [[-1, 0, 0], [1, 0, 0]], atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            geom.normalize_unit_sphere([[np.nan, 0, 0]])

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_postconditions(self, seed):
        pts = np.random.default_rng(seed).normal(size=(17, 3)) * 3 + 5
        out = geom.normalize_unit_sphere(pts)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert abs(np.linalg.norm(out, axis=1).max() - 1.0) < 1e-9

    def test_coincident_cloud_is_all_zeros(self):
        pts = np.tile([[0.3, -0.7, 2.0]], (5, 1))
        np.testing.assert_array_equal(geom.normalize_unit_sphere(pts), np.zeros((5, 3)))


def brute_force_fps(points: np.ndarray, m: int) -> list[int]:
    """Reference greedy max-min trace with the documented tie-break."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)

    def pick(score, excluded):
        best = max(score[i] for i in range(n) if i not in excluded)
        ties = [i for i in range(n) if i not in excluded and score[i] == best]
        ties.sort(key=lambda i: (tuple(pts[i]), i))
        return ties[0]

    centroid = pts.mean(axis=0)
    score = [float(((p - centroid) ** 2).sum()) for p in pts]
    chosen = [pick(score, set())]
    while len(chosen) < m:
        score = [min(float(((p - pts[j]) ** 2).sum()) for j in chosen) for p in pts]
        chosen.append(pick(score, set(chosen)))
    return chosen


class TestFarthestPointSampling:
    def test_m_equals_n_selects_everything(self, cloud):
        sel, _ = geom.farthest_point_sampling(cloud, len(cloud))
        assert sorted(sel) == list(range(len(cloud)))

    def test_single_pick_is_farthest_from_centroid(self):
        pts = [[0.0, 0, 0], [3.0, 0, 0], [1.0, 0, 0]]
        assert geom.farthest_point_sampling(pts, 1)[0].tolist() == [1]

    def test_collinear_hand_trace(self):
        # x = 0..9; centroid tie between 0 and 9 resolved lexicographically,
        # then 9, then 4 beats 5 on the tie at distance 4.
        pts = [[float(x), 0.0, 0.0] for x in range(10)]
        sel, _ = geom.farthest_point_sampling(pts, 3)
        assert sel.tolist() == [0, 9, 4]
        assert sel.tolist() == brute_force_fps(pts, 3)[:3]

    def test_m_out_of_range(self, cloud):
        with pytest.raises(ValueError):
            geom.farthest_point_sampling(cloud, len(cloud) + 1)
        with pytest.raises(ValueError):
            geom.farthest_point_sampling(cloud, 0)

    @given(st.integers(0, 500), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_greedy(self, seed, m):
        pts = np.random.default_rng(seed).normal(size=(12, 3))
        sel, _ = geom.farthest_point_sampling(pts, m)
        assert sel.tolist() == brute_force_fps(pts, m)

    @given(
        st.integers(0, 10_000),
        st.sampled_from(["quarter_grid", "duplicates", "collinear"]),
        st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_greedy_on_ties(self, seed, kind, n):
        # Dyadic coordinates and a power-of-two size keep the centroid and
        # every distance exact, so ties are exact ties in both computations
        # rather than rounding accidents.
        rng = np.random.default_rng(seed)
        if kind == "quarter_grid":
            pts = rng.integers(-4, 5, size=(n, 3)) / 4.0
        elif kind == "duplicates":
            base = rng.integers(-8, 9, size=(max(1, n // 3), 3)) / 8.0
            pts = base[rng.integers(0, len(base), size=n)]
        else:
            pts = rng.integers(-6, 7, size=(n, 1)) * np.array([[0.25, 0.5, -0.75]]) + 0.5
        m = int(rng.integers(1, n + 1))
        sel, _ = geom.farthest_point_sampling(pts, m)
        assert sel.tolist() == brute_force_fps(pts, m)

    def test_distance_rows(self):
        pts = random_cloud(4, 30)
        sel, d2 = geom.farthest_point_sampling(pts, 7)
        assert d2.shape == (7, 30)
        for row, i in zip(d2, sel):
            diff = pts - pts[i]
            np.testing.assert_array_equal(row, np.einsum("ij,ij->i", diff, diff))

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_rotation_invariance(self, seed):
        pts = random_cloud(seed, 40)
        rot = geom.random_rotation(np.random.default_rng(seed + 1), "so3")
        a, _ = geom.farthest_point_sampling(pts, 10)
        b, _ = geom.farthest_point_sampling(geom.rotate(pts, rot), 10)
        assert a.tolist() == b.tolist()

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        pts = random_cloud(seed, 30)
        perm = np.random.default_rng(seed + 7).permutation(len(pts))
        sel, _ = geom.farthest_point_sampling(pts, 8)
        sel_perm, _ = geom.farthest_point_sampling(pts[perm], 8)
        # index i in the permuted cloud refers to original point perm[i]
        assert perm[sel_perm].tolist() == sel.tolist()

    def test_two_approximation_on_small_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, 4))
            if m > n:
                continue
            pts = rng.normal(size=(n, 3))
            sel, _ = geom.farthest_point_sampling(pts, m)
            d = lambda i, j: np.linalg.norm(pts[i] - pts[j])
            fps_disp = min(d(i, j) for i, j in itertools.combinations(sel, 2))
            opt = max(
                min(d(i, j) for i, j in itertools.combinations(subset, 2))
                for subset in itertools.combinations(range(n), m)
            )
            assert fps_disp >= 0.5 * opt - 1e-12


class TestDilatedKnn:
    def test_every_dth_position(self):
        pts = [[0.0, 0, 0]] + [[float(x), 0, 0] for x in range(1, 7)]
        out = geom.dilated_knn(pts, 0, geom.NeighborParams(k=3, d=2))
        assert pts[out.member_indices[0]][0] == 1.0
        assert pts[out.member_indices[1]][0] == 3.0
        assert pts[out.member_indices[2]][0] == 5.0

    def test_plain_knn_when_d_is_one(self, cloud):
        out = geom.dilated_knn(cloud, 5, geom.NeighborParams(k=2, d=1))
        d2 = ((cloud - cloud[5]) ** 2).sum(axis=1)
        d2[5] = np.inf
        expected = np.argsort(d2)[:2]
        assert sorted(out.member_indices) == sorted(expected)

    def test_padding_when_cloud_is_small(self):
        pts = [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]
        out = geom.dilated_knn(pts, 0, geom.NeighborParams(k=4, d=1))
        assert out.member_indices.tolist() == [1, 2, 1, 1]

    def test_dilation_clamped_on_shortage(self):
        pts = [[float(x), 0, 0] for x in range(6)]
        out = geom.dilated_knn(pts, 0, geom.NeighborParams(k=3, d=4))
        # span 8 exceeds the 5 candidates; d clamps to 5 // 3 = 1
        assert out.member_indices.tolist() == [1, 2, 3]

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_rotation_invariance(self, seed):
        pts = random_cloud(seed, 30)
        rot = geom.random_rotation(np.random.default_rng(seed + 3), "so3")
        params = geom.NeighborParams(k=4, d=2)
        a = geom.dilated_knn(pts, 3, params)
        b = geom.dilated_knn(geom.rotate(pts, rot), 3, params)
        assert a.member_indices.tolist() == b.member_indices.tolist()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            geom.NeighborParams(k=0, d=1)
        with pytest.raises(ValueError):
            geom.NeighborParams(k=1, d=0)


class TestSampleNeighborParams:
    def test_midpoint_when_deterministic(self):
        out = geom.sample_neighbor_params(None, (24, 40), (1, 4), stochastic=False)
        assert (out.k, out.d) == (32, 2)

    def test_degenerate_interval(self):
        rng = np.random.default_rng(0)
        out = geom.sample_neighbor_params(rng, (7, 7), (3, 3), stochastic=True)
        assert (out.k, out.d) == (7, 3)

    def test_seeded_determinism(self):
        a = geom.sample_neighbor_params(np.random.default_rng(5), (16, 48), (1, 4), True)
        b = geom.sample_neighbor_params(np.random.default_rng(5), (16, 48), (1, 4), True)
        assert (a.k, a.d) == (b.k, b.d)

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_samples_stay_in_interval(self, seed):
        out = geom.sample_neighbor_params(np.random.default_rng(seed), (3, 9), (2, 5), True)
        assert 3 <= out.k <= 9
        assert 2 <= out.d <= 5

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            geom.sample_neighbor_params(None, (5, 4), (1, 2), False)


class TestEstimateLrf:
    def test_collinear_points_give_identity_frame(self):
        # Third moments cancel; the anchor-to-mean fallback fixes +x, and the
        # degenerate axes complete to the coordinate frame.
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        nbrs = geom.NeighborSet(0, np.array([0, 1, 2, 3]))
        frame = geom.estimate_lrf(pts, 0, nbrs)
        np.testing.assert_allclose(frame.axes, np.eye(3), atol=1e-12)

    def test_planar_square_normal_is_last_axis(self):
        pts = np.array([[1.0, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 5]])
        nbrs = geom.NeighborSet(4, np.array([0, 1, 2, 3]))
        frame = geom.estimate_lrf(pts, 4, nbrs)
        np.testing.assert_allclose(np.abs(frame.axes[:, 2]), [0, 0, 1], atol=1e-12)

    def test_too_few_neighbors(self, cloud):
        with pytest.raises(geom.DegeneratePatchError):
            geom.estimate_lrf(cloud, 0, geom.NeighborSet(0, np.array([1, 2])))

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_frame_invariants(self, seed):
        pts = random_cloud(seed, 30)
        nbrs = geom.dilated_knn(pts, 0, geom.NeighborParams(k=8, d=1))
        frame = geom.estimate_lrf(pts, 0, nbrs)
        np.testing.assert_allclose(frame.axes.T @ frame.axes, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(frame.axes) - 1.0) < 1e-9

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_rotation_equivariance(self, seed):
        pts = random_cloud(seed, 30)
        nbrs = geom.dilated_knn(pts, 0, geom.NeighborParams(k=8, d=1))
        patch = pts[nbrs.member_indices] - pts[nbrs.member_indices].mean(axis=0)
        evals = np.linalg.eigvalsh(patch.T @ patch / len(patch))
        if np.diff(np.sort(evals)).min() < 1e-6:
            return
        rot = geom.random_rotation(np.random.default_rng(seed + 9), "so3")
        frame = geom.estimate_lrf(pts, 0, nbrs)
        frame_rot = geom.estimate_lrf(geom.rotate(pts, rot), 0, nbrs)
        np.testing.assert_allclose(frame_rot.axes, rot @ frame.axes, atol=1e-8)

    def test_matches_batch_path(self, cloud):
        nbrs = geom.dilated_knn(cloud, 2, geom.NeighborParams(k=6, d=1))
        frame = geom.estimate_lrf(cloud, 2, nbrs)
        flat = cloud[nbrs.member_indices]
        batch = geom.lrf_axes_batch(flat, np.array([0, len(flat)]), cloud[2][None, :])
        np.testing.assert_array_equal(frame.axes, batch[0])


class TestProjectToLrf:
    def test_identity_frame_is_identity(self, cloud):
        frame = geom.LocalFrame(origin=np.zeros(3), axes=np.eye(3))
        np.testing.assert_array_equal(geom.project_to_lrf(frame, cloud), cloud)

    def test_rotated_frame_hand_value(self):
        c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
        axes = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        frame = geom.LocalFrame(origin=np.zeros(3), axes=axes)
        out = geom.project_to_lrf(frame, np.array([[1.0, 0, 0]]))
        np.testing.assert_allclose(out, [[0.0, -1.0, 0.0]], atol=1e-15)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_simultaneous_rotation_cancels(self, seed):
        pts = random_cloud(seed, 12)
        rot = geom.random_rotation(np.random.default_rng(seed + 5), "so3")
        frame = geom.LocalFrame(origin=pts[0], axes=np.eye(3))
        frame_rot = geom.LocalFrame(origin=rot @ pts[0], axes=rot @ np.eye(3))
        a = geom.project_to_lrf(frame, pts)
        b = geom.project_to_lrf(frame_rot, geom.rotate(pts, rot))
        np.testing.assert_allclose(a, b, atol=1e-12)


class _AngleStub:
    """Degenerate sampler: always returns the interval's low end."""

    def uniform(self, lo, hi):
        return lo


class TestRandomRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(geom.random_rotation(_AngleStub(), "z"), np.eye(3))

    def test_z_mode_fixes_the_pole(self):
        rot = geom.random_rotation(np.random.default_rng(3), "z")
        np.testing.assert_array_equal(rot @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])

    @given(st.integers(0, 500), st.sampled_from(["z", "so3"]))
    @settings(max_examples=50, deadline=None)
    def test_rotation_matrix_invariants(self, seed, mode):
        rot = geom.random_rotation(np.random.default_rng(seed), mode)
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-10)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-10

    def test_so3_uniformity_monte_carlo(self):
        rng = np.random.default_rng(123)
        images = np.array(
            [geom.random_rotation(rng, "so3") @ np.array([1.0, 0, 0]) for _ in range(10_000)]
        )
        assert np.abs(images.mean(axis=0)).max() < 0.05

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            geom.random_rotation(np.random.default_rng(0), "tilt")


class TestCorrupt:
    def test_identity_corruption(self, cloud):
        out = geom.corrupt(cloud, geom.CorruptionSpec(0.0, 0), np.random.default_rng(0))
        np.testing.assert_array_equal(out, cloud)

    def test_outliers_appended_inside_unit_ball(self, cloud):
        out = geom.corrupt(cloud, geom.CorruptionSpec(0.0, 5), np.random.default_rng(1))
        assert out.shape == (len(cloud) + 5, 3)
        np.testing.assert_array_equal(out[: len(cloud)], cloud)
        assert (np.linalg.norm(out[len(cloud) :], axis=1) <= 1.0).all()

    def test_noise_standard_deviation(self):
        pts = np.zeros((10_000, 3))
        out = geom.corrupt(pts, geom.CorruptionSpec(0.05, 0), np.random.default_rng(2))
        assert abs(out.std() - 0.05) < 0.05 * 0.05

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            geom.CorruptionSpec(-0.1, 0)
        with pytest.raises(ValueError):
            geom.CorruptionSpec(0.0, -1)

    def test_seeded_determinism(self, cloud):
        spec = geom.CorruptionSpec(0.02, 3)
        a = geom.corrupt(cloud, spec, np.random.default_rng(9))
        b = geom.corrupt(cloud, spec, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
