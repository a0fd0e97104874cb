"""Dataset provisioning: synthetic labeled shape families (some sampled
area-uniformly from triangle meshes), the XYZ point-file format, and splits
read from and written to a manifest."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geom


class ParseError(ValueError):
    """Malformed point file or manifest; the message carries the line
    number."""


@dataclass
class Mesh:
    """Triangle mesh: (V, 3) float vertices and (F, 3) integer faces."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face index out of range")


@dataclass
class LabeledCloud:
    cloud: np.ndarray
    label: int
    source_id: str


@dataclass
class DatasetSplit:
    train: list[LabeledCloud]
    test: list[LabeledCloud]
    class_names: tuple[str, ...]

    def arrays(self, split: str) -> tuple[list[np.ndarray], np.ndarray]:
        items = self.train if split == "train" else self.test
        return [it.cloud for it in items], np.array([it.label for it in items], dtype=np.int64)


def face_areas(mesh: Mesh) -> np.ndarray:
    a = mesh.vertices[mesh.faces[:, 1]] - mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 2]] - mesh.vertices[mesh.faces[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def sample_mesh_surface(mesh: Mesh, n: int, rng: np.random.Generator) -> np.ndarray:
    """Area-uniform surface points.

    Faces are chosen with probability proportional to area; points within a
    face use the square-root barycentric trick, which is uniform over the
    triangle. Zero-area faces are never selected.
    """
    areas = face_areas(mesh)
    total = areas.sum()
    if total <= 0:
        raise ValueError("mesh has no positive-area face to sample")
    face_idx = rng.choice(len(mesh.faces), size=n, p=areas / total)
    u = rng.random(n)
    w = rng.random(n)
    su = np.sqrt(u)
    tri = mesh.vertices[mesh.faces[face_idx]]
    return (
        (1 - su)[:, None] * tri[:, 0]
        + (su * (1 - w))[:, None] * tri[:, 1]
        + (su * w)[:, None] * tri[:, 2]
    )


# --- XYZ files -------------------------------------------------------------


def _parse_xyz(lines) -> np.ndarray:
    """numpy's C text parser over an open file or a list of lines. An input
    with no values gives an empty array instead of loadtxt's warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def read_xyz(path) -> np.ndarray:
    """One ``x y z`` triple per line, whitespace-separated. Blank lines are
    skipped and nothing is a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            points = _parse_xyz(fh)
        except ValueError:
            raise _xyz_error(path) from None
    if points.shape[1] != 3 or not len(points):
        raise _xyz_error(path)
    return points


def _text_lines(path):
    """The lines of ``path``, split where text mode splits them (their
    endings kept) and each decoded as UTF-8; the first line that is not
    UTF-8 raises ``ParseError`` naming it."""
    for ln, raw in enumerate(Path(path).read_bytes().splitlines(keepends=True), start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: line {ln}: not UTF-8 text: {e.reason}") from None


def _xyz_error(path) -> ParseError:
    """The error for the first line numpy cannot read as one triple, numbered
    from 1 as an editor counts; numpy's own messages count rows otherwise."""
    for ln, line in enumerate(_text_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            return ParseError(f"{path}: line {ln}: expected 3 values, got {len(parts)}")
        try:
            _parse_xyz([line])
        except ValueError:
            return ParseError(f"{path}: line {ln}: non-numeric coordinate")
    return ParseError(f"{path}: no points found")


def write_xyz(points: np.ndarray, path) -> None:
    """One ``x y z`` row per point, each value with the 17 significant digits
    that read back bitwise."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"write_xyz expects an (N, 3) array, got shape {pts.shape}")
    text = ("%.17g %.17g %.17g\n" * len(pts)) % tuple(pts.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# --- synthetic families ----------------------------------------------------


def _cube_mesh() -> Mesh:
    corners = np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64
    )
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5),  # x faces
        (0, 4, 5, 1), (2, 3, 7, 6),  # y faces
        (0, 2, 6, 4), (1, 5, 7, 3),  # z faces
    ]
    faces = [t for a, b, c, d in quads for t in ((a, b, c), (a, c, d))]
    return Mesh(vertices=corners, faces=np.array(faces))


def _sample_sphere(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)


def _sample_cube(rng, n):
    return sample_mesh_surface(_cube_mesh(), n, rng)


def _sample_cylinder(rng, n):
    r = rng.uniform(0.5, 0.9)
    h = rng.uniform(1.2, 2.0)
    lateral = 2 * np.pi * r * h
    cap = np.pi * r * r
    comp = rng.choice(3, size=n, p=np.array([lateral, cap, cap]) / (lateral + 2 * cap))
    theta = rng.uniform(0, 2 * np.pi, n)
    rad = np.where(comp == 0, r, r * np.sqrt(rng.random(n)))
    z = np.where(
        comp == 0, rng.uniform(-h / 2, h / 2, n), np.where(comp == 1, h / 2, -h / 2)
    )
    return np.column_stack([rad * np.cos(theta), rad * np.sin(theta), z])


def _sample_cone(rng, n):
    r = rng.uniform(0.7, 1.1)
    h = rng.uniform(1.2, 2.0)
    lateral = np.pi * r * np.hypot(r, h)
    base = np.pi * r * r
    on_side = rng.random(n) < lateral / (lateral + base)
    theta = rng.uniform(0, 2 * np.pi, n)
    s = np.sqrt(rng.random(n))  # radial fraction, area-uniform
    rad = r * s
    z = np.where(on_side, h * (1 - s), 0.0)
    rad = np.where(on_side, rad, r * np.sqrt(rng.random(n)))
    return np.column_stack([rad * np.cos(theta), rad * np.sin(theta), z])


def _sample_torus(rng, n):
    ratio = rng.uniform(0.25, 0.45)
    big, small = 1.0, ratio
    u = rng.uniform(0, 2 * np.pi, n)
    v = np.empty(n)
    have = 0
    while have < n:  # rejection keeps the surface density area-uniform
        cand = rng.uniform(0, 2 * np.pi, (n - have) * 2)
        accept = cand[rng.random(len(cand)) < (big + small * np.cos(cand)) / (big + small)]
        take = min(len(accept), n - have)
        v[have : have + take] = accept[:take]
        have += take
    ring = big + small * np.cos(v)
    return np.column_stack([ring * np.cos(u), ring * np.sin(u), small * np.sin(v)])


def _sample_plane_pair(rng, n):
    gap = rng.uniform(0.8, 1.6)
    z = np.where(rng.random(n) < 0.5, gap / 2, -gap / 2)
    xy = rng.uniform(-1.0, 1.0, (n, 2))
    return np.column_stack([xy, z])


def _sample_helix(rng, n):
    turns = rng.uniform(2.0, 3.5)
    pitch = rng.uniform(0.3, 0.6)
    tube = rng.uniform(0.08, 0.15)
    t = rng.uniform(0, turns * 2 * np.pi, n)
    psi = rng.uniform(0, 2 * np.pi, n)
    center = np.column_stack([np.cos(t), np.sin(t), pitch * t / (2 * np.pi)])
    center[:, 2] -= center[:, 2].mean()
    tangent = np.column_stack([-np.sin(t), np.cos(t), np.full(n, pitch / (2 * np.pi))])
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    normal = np.column_stack([-np.cos(t), -np.sin(t), np.zeros(n)])
    binormal = np.cross(tangent, normal)
    return center + tube * (np.cos(psi)[:, None] * normal + np.sin(psi)[:, None] * binormal)


def _pyramid_mesh(height: float) -> Mesh:
    vertices = np.array(
        [[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0], [0, 0, height]], dtype=np.float64
    )
    faces = np.array(
        [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (0, 2, 1), (0, 3, 2)], dtype=np.int64
    )
    return Mesh(vertices=vertices, faces=faces)


def _sample_pyramid(rng, n):
    return sample_mesh_surface(_pyramid_mesh(rng.uniform(1.0, 2.0)), n, rng)


FAMILIES = {
    "sphere": _sample_sphere,
    "cube": _sample_cube,
    "cylinder": _sample_cylinder,
    "cone": _sample_cone,
    "torus": _sample_torus,
    "plane_pair": _sample_plane_pair,
    "helix": _sample_helix,
    "pyramid": _sample_pyramid,
}


@dataclass(frozen=True)
class SyntheticSpec:
    """What to generate: which families, how many instances, cloud size."""

    classes: tuple[str, ...] = tuple(FAMILIES)
    instances_per_class: int = 10
    points_per_cloud: int = 256
    scale_jitter: tuple[float, float] = (0.7, 1.3)
    train_fraction: float = 0.8

    def validate(self) -> None:
        if len(self.classes) < 2:
            raise ValueError("need >= 2 classes")
        unknown = [c for c in self.classes if c not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown shape families {unknown}; choose from {sorted(FAMILIES)}")
        if self.instances_per_class < 1 or self.points_per_cloud < 1:
            raise ValueError("instance and point counts must be >= 1")
        if not 0 < self.train_fraction <= 1:
            raise ValueError(f"train_fraction must be in (0, 1], got {self.train_fraction}")
        if int(self.instances_per_class * self.train_fraction) < 1:
            raise ValueError("split leaves a class without training instances")
        lo, hi = self.scale_jitter
        if not 0 < lo <= hi:
            raise ValueError(f"invalid scale_jitter ({lo}, {hi})")


def generate_synthetic_dataset(spec: SyntheticSpec, rng: np.random.Generator) -> DatasetSplit:
    """Balanced labeled clouds, reproducible from (spec, seed).

    Every cloud gets per-instance anisotropic scale jitter and is normalized
    to the unit sphere. The first ``train_fraction`` of each class's
    instances form the training split; source ids are disjoint by
    construction.
    """
    spec.validate()
    n_train = int(spec.instances_per_class * spec.train_fraction)
    train: list[LabeledCloud] = []
    test: list[LabeledCloud] = []
    for label, cls in enumerate(spec.classes):
        sampler = FAMILIES[cls]
        for i in range(spec.instances_per_class):
            pts = sampler(rng, spec.points_per_cloud)
            pts = pts * rng.uniform(*spec.scale_jitter, size=3)
            item = LabeledCloud(
                cloud=geom.normalize_unit_sphere(pts), label=label, source_id=f"{cls}_{i:04d}"
            )
            (train if i < n_train else test).append(item)
    return DatasetSplit(train=train, test=test, class_names=tuple(spec.classes))


# --- manifest --------------------------------------------------------------

MANIFEST_COLUMNS = ("source_id", "split", "class_name", "path")


def save_dataset(split: DatasetSplit, out_dir) -> Path:
    """Write every cloud as XYZ plus a ``manifest.csv`` describing the split."""
    out = Path(out_dir)
    (out / "clouds").mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for name, items in (("train", split.train), ("test", split.test)):
            for item in items:
                rel = f"clouds/{item.source_id}.xyz"
                write_xyz(item.cloud, out / rel)
                writer.writerow([item.source_id, name, split.class_names[item.label], rel])
    return manifest


def load_manifest(path) -> DatasetSplit:
    """Read a dataset back from its manifest.

    Labels follow the first-appearance order of class names in the file, so
    a save/load round trip preserves them. A ``source_id`` may appear on one
    line only, so no cloud is both trained on and evaluated.
    """
    manifest = Path(path)
    base = manifest.parent
    class_names: list[str] = []
    train: list[LabeledCloud] = []
    test: list[LabeledCloud] = []
    seen: dict[str, int] = {}
    reader = csv.reader(_text_lines(manifest))
    header = next(reader, None)
    if header is None or tuple(header) != MANIFEST_COLUMNS:
        raise ParseError(f"{manifest}: line 1: expected header {','.join(MANIFEST_COLUMNS)}")
    for ln, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"{manifest}: line {ln}: expected 4 columns, got {len(row)}")
        source_id, split_name, class_name, rel = row
        if split_name not in ("train", "test"):
            raise ParseError(f"{manifest}: line {ln}: unknown split {split_name!r}")
        first = seen.setdefault(source_id, ln)
        if first != ln:
            raise ParseError(f"{manifest}: line {ln}: source_id {source_id!r} repeats line {first}")
        if class_name not in class_names:
            class_names.append(class_name)
        item = LabeledCloud(
            cloud=read_xyz(base / rel),
            label=class_names.index(class_name),
            source_id=source_id,
        )
        (train if split_name == "train" else test).append(item)
    if not train:
        raise ParseError(f"{manifest}: no training rows")
    return DatasetSplit(train=train, test=test, class_names=tuple(class_names))
