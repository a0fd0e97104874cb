import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rigcn import data, geom


def single_triangle():
    return data.Mesh(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]),
        faces=np.array([[0, 1, 2]]),
    )


class TestSampleMeshSurface:
    def test_points_stay_on_the_triangle(self):
        pts = data.sample_mesh_surface(single_triangle(), 500, np.random.default_rng(0))
        assert np.abs(pts[:, 2]).max() < 1e-12  # plane equation z = 0
        # barycentric bounds: x, y >= 0 and x + y <= 1
        assert pts.min() >= -1e-12
        assert (pts[:, 0] + pts[:, 1]).max() <= 1 + 1e-12

    def test_area_proportional_face_choice(self):
        # two triangles with area ratio 4:1
        mesh = data.Mesh(
            vertices=np.array(
                [[0.0, 0, 0], [4.0, 0, 0], [0.0, 2, 0], [10.0, 0, 0], [11.0, 0, 0], [10.0, 2, 0]]
            ),
            faces=np.array([[0, 1, 2], [3, 4, 5]]),
        )
        pts = data.sample_mesh_surface(mesh, 100_000, np.random.default_rng(1))
        on_small = (pts[:, 0] >= 9.0).sum()
        p = 1.0 / 5.0
        sigma = np.sqrt(100_000 * p * (1 - p))
        assert abs(on_small - 100_000 * p) < 3 * sigma

    def test_zero_area_faces_never_selected(self):
        mesh = data.Mesh(
            vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [5.0, 5, 5]]),
            faces=np.array([[0, 1, 2], [3, 3, 3]]),
        )
        pts = data.sample_mesh_surface(mesh, 2000, np.random.default_rng(2))
        assert np.abs(pts[:, 2]).max() < 1e-12

    def test_degenerate_mesh_rejected(self):
        mesh = data.Mesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 2]]))
        with pytest.raises(ValueError):
            data.sample_mesh_surface(mesh, 10, np.random.default_rng(0))

    def test_area_uniform_density_chi_square(self):
        # split one square into two equal triangles; bin by which half
        mesh = data.Mesh(
            vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]]),
            faces=np.array([[0, 1, 2], [0, 2, 3]]),
        )
        pts = data.sample_mesh_surface(mesh, 100_000, np.random.default_rng(3))
        counts = np.histogram2d(pts[:, 0], pts[:, 1], bins=4, range=[[0, 1], [0, 1]])[0].ravel()
        expected = 100_000 / 16
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # chi-square with 15 dof: p > 0.001 equivalent to chi2 < 37.7
        assert chi2 < 37.7


def float_reader_reference(path) -> np.ndarray:
    """The oracle for ``data.read_xyz``: a line loop over ``str.split`` and
    ``float``. It reads underscores and non-ASCII digits, which numpy's
    parser rejects, so inputs compared with it hold neither."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise data.ParseError(f"{path}: line {ln}: expected 3 values, got {len(parts)}")
            try:
                points.append([float(p) for p in parts])
            except ValueError:
                raise data.ParseError(f"{path}: line {ln}: non-numeric coordinate") from None
    if not points:
        raise data.ParseError(f"{path}: no points found")
    return np.array(points, dtype=np.float64)


def read_outcome(reader, path):
    try:
        return reader(path).tobytes()
    except data.ParseError as e:
        return str(e)


_TOKEN = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: format(v, ".17g")),
    st.floats().map(repr),
    st.sampled_from(
        ["-0", "+.5", "1.", "1e", "e5", "-", "Infinity", "-iNF", "+nan", "nan(1)", "0x10",
         "1d5", "1,5", "#", "#1", "x", "1\x00", "\ufeff1"]
    ),
)
_SEP = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u2003", "\x1c", "\x85", "\u2028"])
_EOL = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \t\n", " \n"])
_LINE = st.tuples(st.lists(_TOKEN, min_size=1, max_size=4), _SEP, _EOL).map(
    lambda t: t[1].join(t[0]) + t[2]
)


class TestXyzFiles:
    def test_round_trip_preserves_values(self, tmp_path):
        pts = np.random.default_rng(4).normal(size=(100, 3))
        path = tmp_path / "cloud.xyz"
        data.write_xyz(pts, path)
        np.testing.assert_allclose(data.read_xyz(path), pts, atol=1e-10)

    def test_round_trip_is_exact_for_float64(self, tmp_path):
        pts = np.random.default_rng(5).normal(size=(50, 3))
        path = tmp_path / "cloud.xyz"
        data.write_xyz(pts, path)
        np.testing.assert_array_equal(data.read_xyz(path), pts)

    def test_written_bytes_are_pinned(self, tmp_path):
        pts = np.array(
            [
                [-0.0, 5e-324, np.inf],
                [-np.inf, np.nan, 0.1],
                [1 / 3, -2.5e-308, 1e300],
                [3 * 2.0**-1074, -1.0, 123456789.0],
            ]
        )
        path = tmp_path / "cloud.xyz"
        data.write_xyz(pts, path)
        assert path.read_bytes() == (
            b"-0 4.9406564584124654e-324 inf\n"
            b"-inf nan 0.10000000000000001\n"
            b"0.33333333333333331 -2.4999999999999998e-308 1.0000000000000001e+300\n"
            b"1.4821969375237396e-323 -1 123456789\n"
        )

    def test_write_rejects_a_non_triple_array(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            data.write_xyz(np.zeros((4, 2)), tmp_path / "cloud.xyz")
        assert not (tmp_path / "cloud.xyz").exists()

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.just(3)),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bitwise(self, tmp_path_factory, pts):
        path = tmp_path_factory.mktemp("xyz") / "cloud.xyz"
        data.write_xyz(pts, path)
        back = data.read_xyz(path)
        nan = np.isnan(pts)
        # Every NaN is written as "nan", so sign and payload are not kept.
        np.testing.assert_array_equal(np.isnan(back), nan)
        np.testing.assert_array_equal(back.view(np.int64)[~nan], pts.view(np.int64)[~nan])

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 2\n")
        with pytest.raises(data.ParseError, match="line 2"):
            data.read_xyz(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 zero\n")
        with pytest.raises(data.ParseError, match="line 1"):
            data.read_xyz(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 0 0\n\n\n1 2\n", "line 4: expected 3 values, got 2"),
            ("  \n\t\n0 0 zero\n", "line 3: non-numeric coordinate"),
            ("0 0 0\r\n1 2 3 4\r\n", "line 2: expected 3 values, got 4"),
            ("0 0 0\r1 2\r", "line 2: expected 3 values, got 2"),
            ("0\t0\t0\n1\t2\n", "line 2: expected 3 values, got 2"),
            ("# header\n0 0 0\n", "line 1: expected 3 values, got 2"),
            ("0 0 0 # c\n", "line 1: expected 3 values, got 5"),
            ("0 0 #\n", "line 1: non-numeric coordinate"),
            ("", "no points found"),
            ("\n \t\n", "no points found"),
            ("1 2\n3 4\n", "line 1: expected 3 values, got 2"),
            ("\n\n0 0 0\n\n\n0 0 x\n", "line 6: non-numeric coordinate"),
            ("0 0 0\n\x0c\n1\x0b2\xa03\n4 5 6 7\n", "line 4: expected 3 values, got 4"),
        ],
        ids=["blank-lines", "whitespace-lines", "crlf", "cr", "tabs", "hash-line", "hash-tail",
             "hash-token", "empty", "blank-file", "two-columns", "bad-after-blanks",
             "unicode-whitespace"],
    )
    def test_malformed_file_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.xyz"
        path.write_text(text, newline="")
        with pytest.raises(data.ParseError) as err:
            data.read_xyz(path)
        assert str(err.value) == f"{path}: {line}"
        assert read_outcome(float_reader_reference, path) == str(err.value)

    @pytest.mark.parametrize("token", ["1_000", "\u0661", "\uff11"])
    def test_spellings_only_float_reads_are_rejected(self, tmp_path, token):
        path = tmp_path / "cloud.xyz"
        path.write_text(f"0 0 0\n{token} 0 0\n", encoding="utf-8")
        with pytest.raises(data.ParseError, match="line 2: non-numeric coordinate"):
            data.read_xyz(path)

    def test_line_endings_blank_lines_and_tabs_are_read(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("\n1 2 3\r\n\t\n4\t5\t6\r-0 inf -nan\n\n", newline="")
        out = data.read_xyz(path)
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out[:2], [[1, 2, 3], [4, 5, 6]])
        assert np.signbit(out[2, 0]) and out[2, 1] == np.inf and np.isnan(out[2, 2])

    @given(st.lists(_LINE, max_size=6).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_float_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("xyz") / "cloud.xyz"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_outcome(data.read_xyz, path) == read_outcome(float_reader_reference, path)


class TestSyntheticDataset:
    def test_reproducible_from_seed(self):
        spec = data.SyntheticSpec(classes=("sphere", "torus"), instances_per_class=4)
        a = data.generate_synthetic_dataset(spec, np.random.default_rng(6))
        b = data.generate_synthetic_dataset(spec, np.random.default_rng(6))
        for x, y in zip(a.train + a.test, b.train + b.test):
            np.testing.assert_array_equal(x.cloud, y.cloud)
            assert (x.label, x.source_id) == (y.label, y.source_id)

    def test_split_sizes_under_default_rule(self):
        spec = data.SyntheticSpec(
            classes=("sphere", "cube"), instances_per_class=10, points_per_cloud=256
        )
        split = data.generate_synthetic_dataset(spec, np.random.default_rng(7))
        assert len(split.train) == 16
        assert len(split.test) == 4

    def test_every_cloud_is_normalized(self):
        spec = data.SyntheticSpec(instances_per_class=2, points_per_cloud=64)
        split = data.generate_synthetic_dataset(spec, np.random.default_rng(8))
        for item in split.train + split.test:
            assert np.abs(item.cloud.mean(axis=0)).max() < 1e-9
            assert abs(np.linalg.norm(item.cloud, axis=1).max() - 1.0) < 1e-9

    def test_all_families_generate(self):
        spec = data.SyntheticSpec(instances_per_class=2, points_per_cloud=128)
        split = data.generate_synthetic_dataset(spec, np.random.default_rng(9))
        labels = {it.label for it in split.train}
        assert labels == set(range(len(data.FAMILIES)))

    def test_source_ids_disjoint_across_splits(self):
        spec = data.SyntheticSpec(instances_per_class=5)
        split = data.generate_synthetic_dataset(spec, np.random.default_rng(10))
        train_ids = {it.source_id for it in split.train}
        test_ids = {it.source_id for it in split.test}
        assert not train_ids & test_ids

    @given(st.sampled_from(sorted(data.FAMILIES)))
    @settings(max_examples=8, deadline=None)
    def test_families_have_distinct_extent_profiles(self, family):
        pts = data.FAMILIES[family](np.random.default_rng(11), 256)
        assert pts.shape == (256, 3)
        assert np.isfinite(pts).all()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            data.SyntheticSpec(classes=("sphere",)).validate()
        with pytest.raises(ValueError):
            data.SyntheticSpec(classes=("sphere", "blob")).validate()
        with pytest.raises(ValueError):
            data.SyntheticSpec(instances_per_class=1, train_fraction=0.5).validate()


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        spec = data.SyntheticSpec(
            classes=("torus", "cube", "helix"), instances_per_class=3, points_per_cloud=32
        )
        split = data.generate_synthetic_dataset(spec, np.random.default_rng(12))
        manifest = data.save_dataset(split, tmp_path)
        again = data.load_manifest(manifest)
        assert again.class_names == split.class_names
        assert len(again.train) == len(split.train)
        assert len(again.test) == len(split.test)
        for a, b in zip(split.train + split.test, again.train + again.test):
            assert (a.label, a.source_id) == (b.label, b.source_id)
            np.testing.assert_array_equal(a.cloud, b.cloud)

    def test_manifest_header_checked(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("a,b\n")
        with pytest.raises(data.ParseError, match="line 1"):
            data.load_manifest(path)

    @pytest.mark.parametrize("splits", [("train", "train"), ("train", "test")])
    def test_repeated_source_id_rejected(self, tmp_path, splits):
        data.write_xyz(np.zeros((4, 3)), tmp_path / "x.xyz")
        rows = [f"x,{split},sphere,x.xyz\n" for split in splits]
        path = tmp_path / "manifest.csv"
        path.write_text("source_id,split,class_name,path\n" + "".join(rows))
        with pytest.raises(data.ParseError, match="line 3: source_id 'x' repeats line 2"):
            data.load_manifest(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("source_id,split,class_name,path\nx,holdout,sphere,x.xyz\n")
        with pytest.raises(data.ParseError, match="line 2"):
            data.load_manifest(path)
