import numpy as np
import pytest

from rigcn import geom, model


def random_cloud(seed: int, n: int = 64) -> np.ndarray:
    """A generic-position cloud: random, normalized, no exact ties."""
    rng = np.random.default_rng(seed)
    return geom.normalize_unit_sphere(rng.normal(size=(n, 3)))


def laid_out(points) -> np.ndarray:
    """The points in ``geom.canonical_order``, as a forward lays out the
    cloud: in the result, ties go to the lower index, which is the
    coordinate order."""
    pts = geom.as_cloud(points)
    return pts[geom.canonical_order(pts)]


@pytest.fixture
def cloud():
    return random_cloud(0)


def tiny_config(**overrides) -> model.RiGcnConfig:
    base = dict(
        num_points=64,
        num_classes=4,
        levels=2,
        level_sizes=(24, 8),
        channels=(8, 16),
        k_range=(4, 6),
        d_range=(1, 2),
        khat_range=(3, 5),
        g_hidden=6,
        classifier_hidden=12,
        seed=0,
    )
    base.update(overrides)
    return model.RiGcnConfig(**base)


@pytest.fixture
def tiny_model():
    return model.RiGcnModel(tiny_config())
