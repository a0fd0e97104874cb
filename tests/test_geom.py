import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigcn import geom

from conftest import fps, random_cloud


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

    @pytest.mark.parametrize("scale", [1e200, 1e155, 1e-158, 1e-170])
    def test_extent_whose_squares_overflow_or_underflow_is_rejected(self, scale):
        pts = np.random.default_rng(3).normal(size=(64, 3)) * scale
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="extent out of range"):
            geom.normalize_unit_sphere(pts)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_extent_inside_the_range_is_normalized(self, scale):
        out = geom.normalize_unit_sphere(np.random.default_rng(3).normal(size=(64, 3)) * scale)
        assert abs(np.linalg.norm(out, axis=1).max() - 1.0) < 1e-12


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
        sel, _, _ = fps(cloud, len(cloud))
        assert sorted(sel) == list(range(len(cloud)))

    def test_single_pick_is_farthest_from_centroid(self):
        pts = [[0.0, 0, 0], [3.0, 0, 0], [1.0, 0, 0]]
        assert fps(pts, 1)[0].tolist() == [1]

    def test_collinear_hand_trace(self):
        # x = 0..9; centroid tie between 0 and 9 resolved lexicographically,
        # then 9, then 4 beats 5 on the tie at distance 4.
        pts = [[float(x), 0.0, 0.0] for x in range(10)]
        sel, _, _ = fps(pts, 3)
        assert sel.tolist() == [0, 9, 4]
        assert sel.tolist() == brute_force_fps(pts, 3)[:3]

    def test_ties_follow_the_given_order(self):
        # The points are not sorted again: with the order reversed, the
        # centroid tie between x = 0 and x = 9 and the later tie between 4
        # and 5 go the other way.
        pts = np.array([[float(x), 0.0, 0.0] for x in range(10)])
        sel, _, pos = geom.farthest_point_sampling(pts, 3, np.arange(10)[::-1])
        assert sel.tolist() == [9, 0, 5]
        assert pos.tolist() == [0, 9, 4]

    def test_m_out_of_range(self, cloud):
        with pytest.raises(ValueError):
            fps(cloud, len(cloud) + 1)
        with pytest.raises(ValueError):
            fps(cloud, 0)

    @given(st.integers(0, 500), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_greedy(self, seed, m):
        # Dyadic coordinates keep the centroid and every distance exact in
        # both computations, so no rounding near-tie can flip a pick.
        pts = np.random.default_rng(seed).integers(-(2**20), 2**20 + 1, size=(16, 3)) / 2.0**20
        sel, _, _ = fps(pts, m)
        assert sel.tolist() == brute_force_fps(pts, m)

    @given(
        st.integers(0, 10_000),
        st.sampled_from(["generic", "quarter_grid", "duplicates", "collinear"]),
        st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_greedy_on_ties(self, seed, kind, n):
        # Dyadic coordinates and a power-of-two size keep the centroid and
        # every distance exact, so ties are exact ties in both computations
        # rather than rounding accidents; at 2**-20 resolution the generic
        # cloud has no ties besides the centroid one that n=2 forces.
        rng = np.random.default_rng(seed)
        if kind == "generic":
            pts = rng.integers(-(2**20), 2**20 + 1, size=(n, 3)) / 2.0**20
        elif kind == "quarter_grid":
            pts = rng.integers(-4, 5, size=(n, 3)) / 4.0
        elif kind == "duplicates":
            base = rng.integers(-8, 9, size=(max(1, n // 3), 3)) / 8.0
            pts = base[rng.integers(0, len(base), size=n)]
        else:
            pts = rng.integers(-6, 7, size=(n, 1)) * np.array([[0.25, 0.5, -0.75]]) + 0.5
        m = int(rng.integers(1, n + 1))
        sel, rows, pos = fps(pts, m)
        assert sel.tolist() == brute_force_fps(pts, m)
        # One distance definition: the rows are the helper's, bitwise, and
        # sampling from the helper's block repeats the picks and the rows.
        block = geom.squared_distances(pts)
        np.testing.assert_array_equal(rows, block[sel][:, geom.canonical_order(pts)])
        from_block = fps(pts, m, block)
        for got, want in zip(from_block, (sel, rows, pos)):
            np.testing.assert_array_equal(got, want)

    def test_distance_rows(self):
        pts = random_cloud(4, 30)
        order = geom.canonical_order(pts)
        sel, d2, pos = geom.farthest_point_sampling(pts, 7, order)
        assert d2.shape == (7, 30)
        np.testing.assert_array_equal(order[pos], sel)
        # The picks' own block is read at their positions.
        np.testing.assert_array_equal(d2[:, pos], geom.squared_distances(pts[sel]))
        for row, i in zip(d2, sel):
            diff = pts[order] - pts[i]
            np.testing.assert_array_equal(row, np.einsum("ij,ij->i", diff, diff))

    def test_block_must_match_the_points(self):
        pts = random_cloud(4, 10)
        with pytest.raises(ValueError):
            fps(pts, 3, geom.squared_distances(pts[:9]))

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_rotation_invariance(self, seed):
        pts = random_cloud(seed, 40)
        rot = geom.random_rotation(np.random.default_rng(seed + 1), "so3")
        a, _, _ = fps(pts, 10)
        b, _, _ = fps(geom.rotate(pts, rot), 10)
        assert a.tolist() == b.tolist()

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        pts = random_cloud(seed, 30)
        perm = np.random.default_rng(seed + 7).permutation(len(pts))
        sel, _, _ = fps(pts, 8)
        sel_perm, _, _ = fps(pts[perm], 8)
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
            sel, _, _ = fps(pts, m)
            d = lambda i, j: np.linalg.norm(pts[i] - pts[j])
            fps_disp = min(d(i, j) for i, j in itertools.combinations(sel, 2))
            opt = max(
                min(d(i, j) for i, j in itertools.combinations(subset, 2))
                for subset in itertools.combinations(range(n), m)
            )
            assert fps_disp >= 0.5 * opt - 1e-12


def scan_sized_cloud(kind: str, n: int = 1024) -> np.ndarray:
    """A level-0-sized cloud: generic, an SO(3)-rotated cloud snapped to a
    1/32 grid (as the benchmark's scans are), or n/4 points each drawn
    about four times."""
    rng = np.random.default_rng(11)
    if kind == "generic":
        return random_cloud(11, n)
    if kind == "grid":
        return np.round(geom.rotate(random_cloud(11, n), geom.random_rotation(rng, "so3")) * 32) / 32
    base = random_cloud(11, n // 4)
    return base[rng.integers(0, len(base), size=n)]


@pytest.fixture(scope="module")
def anchor_rows():
    """Per cloud kind: the cloud, 128 FPS picks, their (128, 1024) distance
    rows with each pick's own entry at inf, and every pick's full
    ``sorted_candidates`` list, computed once for the module."""
    out = {}
    for kind in ("generic", "grid", "duplicates"):
        pts = scan_sized_cloud(kind)
        picks, rows, pos = fps(pts, 128)
        rows[np.arange(len(picks)), pos] = np.inf
        ref = np.array([geom.sorted_candidates(pts, int(a)) for a in picks])
        out[kind] = pts, rows, ref
    return out


class TestNearestCandidates:
    @pytest.mark.parametrize("kind", ["generic", "grid", "duplicates"])
    @pytest.mark.parametrize("count", [1, 12, 31, 1022])
    def test_matches_the_per_anchor_reference_across_blocks(self, anchor_rows, kind, count):
        pts, rows, ref = anchor_rows[kind]
        n = rows.shape[1]
        step = geom._PARTITION_ENTRIES // n
        assert step < len(rows), "the rows must span several partition blocks"
        got = geom.canonical_order(pts)[geom.nearest_candidates(rows, count)]
        np.testing.assert_array_equal(got, ref[:, :count])
        if kind != "generic" and count < n - 2:
            cut = np.sort(rows, axis=1)[:, count - 1 : count + 1]
            tied = np.flatnonzero(cut[:, 0] == cut[:, 1])
            assert tied.size and tied.max() >= step, "a row past the first block must tie at its cut"

    def test_scratch_stays_bounded(self, anchor_rows):
        # The whole-array partition held 128 x 1024 int64 indices (1 MB).
        _, rows, _ = anchor_rows["generic"]
        tracemalloc.start()
        try:
            geom.nearest_candidates(rows, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def dilated_knn(points, anchor: int, k: int, d: int) -> np.ndarray:
    """Reference neighbors of one anchor: positions 0, d, 2d, ... of its
    distance-sorted candidate list (``geom.sorted_candidates``).

    A span past the candidate list clamps the dilation to
    ``max(1, n_candidates // k)``; if the cloud is smaller than k + 1, the
    nearest candidate is repeated so patches keep width k.
    """
    cand = geom.sorted_candidates(geom.as_cloud(points), anchor)
    n = len(cand)
    if (k - 1) * d >= n:
        d = max(1, n // k)
    take = k if (k - 1) * d < n else n
    return np.concatenate([cand[np.arange(take) * d], np.full(k - take, cand[0])])


class TestDilatedKnn:
    def test_every_dth_position(self):
        pts = [[0.0, 0, 0]] + [[float(x), 0, 0] for x in range(1, 7)]
        out = dilated_knn(pts, 0, 3, 2)
        assert pts[out[0]][0] == 1.0
        assert pts[out[1]][0] == 3.0
        assert pts[out[2]][0] == 5.0

    def test_plain_knn_when_d_is_one(self, cloud):
        out = dilated_knn(cloud, 5, 2, 1)
        d2 = ((cloud - cloud[5]) ** 2).sum(axis=1)
        d2[5] = np.inf
        expected = np.argsort(d2)[:2]
        assert sorted(out) == sorted(expected)

    def test_padding_when_cloud_is_small(self):
        pts = [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]
        assert dilated_knn(pts, 0, 4, 1).tolist() == [1, 2, 1, 1]

    def test_dilation_clamped_on_shortage(self):
        pts = [[float(x), 0, 0] for x in range(6)]
        # span 8 exceeds the 5 candidates; d clamps to 5 // 3 = 1
        assert dilated_knn(pts, 0, 3, 4).tolist() == [1, 2, 3]

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_rotation_invariance(self, seed):
        pts = random_cloud(seed, 30)
        rot = geom.random_rotation(np.random.default_rng(seed + 3), "so3")
        a = dilated_knn(pts, 3, 4, 2)
        b = dilated_knn(geom.rotate(pts, rot), 3, 4, 2)
        assert a.tolist() == b.tolist()


def patch_axes(points, anchor: int, members) -> np.ndarray:
    """``lrf_axes_batch`` on the single patch ``members`` of ``anchor``."""
    pts = np.asarray(points, dtype=np.float64)
    members = np.asarray(members)
    return geom.lrf_axes_batch(pts[members], np.array([0, len(members)]), pts[anchor][None])[0]


class TestLrfAxesBatch:
    def test_collinear_points_give_identity_frame(self):
        # Third moments cancel; the anchor-to-mean fallback fixes +x, and the
        # degenerate axes complete to the coordinate frame.
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        np.testing.assert_allclose(patch_axes(pts, 0, [0, 1, 2, 3]), np.eye(3), atol=1e-12)

    def test_planar_square_normal_is_last_axis(self):
        pts = np.array([[1.0, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 5]])
        axes = patch_axes(pts, 4, [0, 1, 2, 3])
        np.testing.assert_allclose(np.abs(axes[:, 2]), [0, 0, 1], atol=1e-12)

    def test_too_few_neighbors(self, cloud):
        with pytest.raises(geom.DegeneratePatchError):
            patch_axes(cloud, 0, [1, 2])

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_frame_invariants(self, seed):
        pts = random_cloud(seed, 30)
        axes = patch_axes(pts, 0, dilated_knn(pts, 0, 8, 1))
        np.testing.assert_allclose(axes.T @ axes, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(axes) - 1.0) < 1e-9

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_rotation_equivariance(self, seed):
        pts = random_cloud(seed, 30)
        nbrs = dilated_knn(pts, 0, 8, 1)
        patch = pts[nbrs] - pts[nbrs].mean(axis=0)
        evals = np.linalg.eigvalsh(patch.T @ patch / len(patch))
        if np.diff(np.sort(evals)).min() < 1e-6:
            return
        rot = geom.random_rotation(np.random.default_rng(seed + 9), "so3")
        axes = patch_axes(pts, 0, nbrs)
        axes_rot = patch_axes(geom.rotate(pts, rot), 0, nbrs)
        np.testing.assert_allclose(axes_rot, rot @ axes, atol=1e-8)


class TestProjectToLrf:
    """``global_pca_frame``: a cloud expressed in its whole-cloud frame."""

    # Centered on the origin, with covariance diag(12, 6, 2) / 9 and positive
    # third moments along x and y: the cloud is in its own frame already.
    IN_FRAME = np.array(
        [
            [3.0, 0, 0], [-1.0, 0, 0], [-1.0, 0, 0], [-1.0, 0, 0],
            [0, 2.0, 0], [0, -1.0, 0], [0, -1.0, 0],
            [0, 0, 1.0], [0, 0, -1.0],
        ]
    )

    def test_identity_frame_is_identity(self):
        np.testing.assert_allclose(geom.global_pca_frame(self.IN_FRAME), self.IN_FRAME, atol=1e-12)

    def test_rotated_frame_hand_value(self):
        c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        moved = geom.rotate(self.IN_FRAME, rot) + [5.0, -2.0, 0.5]
        assert np.abs(moved[0] - [5.0, 1.0, 0.5]).max() < 1e-15
        out = geom.global_pca_frame(moved)
        np.testing.assert_allclose(out[0], [3.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out, self.IN_FRAME, atol=1e-12)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_simultaneous_rotation_cancels(self, seed):
        pts = random_cloud(seed, 12)
        rot = geom.random_rotation(np.random.default_rng(seed + 5), "so3")
        a = geom.global_pca_frame(pts)
        b = geom.global_pca_frame(geom.rotate(pts, rot))
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
