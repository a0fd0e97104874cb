"""The three benchmark workloads: their inputs, their model and one op each.

An op is one call of a public rigcn entry point on a request of ``REQUEST``
clouds, taken round-robin over the classes of a fixed pool. Every input is a
function of the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from rigcn import data, geom, model, nnet

REQUEST = 4
# The desk config of the acceptance suite and scripts/run_desk_experiment.py.
DESK_CONFIG = dict(
    num_points=512,
    num_classes=8,
    levels=3,
    level_sizes=(128, 32, 8),
    channels=(32, 64, 128),
    k_range=(8, 16),
    d_range=(1, 2),
    khat_range=(4, 8),
    g_hidden=32,
    classifier_hidden=64,
)
LEARNING_RATE = 1e-3
TRAIN_ROTATION = "z"
TEST_ROTATION = "so3"
# Scan clouds are quantized to this grid, as a voxelized scanner would.
SCAN_GRID = 32
# train_loss is the mean op loss over ops [start, stop); every training run
# completes at least ``stop`` ops, so the value depends on the seed alone.
LOSS_WINDOW = (16, 32)
# Seeds 1-10 are the development seeds the bounds were tuned on; this one is
# kept back for confirming a claimed gain.
HELD_OUT_SEED = 9973


def _round_robin(items: list[data.LabeledCloud], rng: np.random.Generator) -> list[data.LabeledCloud]:
    """Order items in rounds that visit every class once, each round in its
    own seeded class order, so requests mix the classes differently."""
    by_class: dict[int, list[data.LabeledCloud]] = {}
    for item in items:
        by_class.setdefault(item.label, []).append(item)
    labels = sorted(by_class)
    out = []
    for r in range(max(len(v) for v in by_class.values())):
        for label in rng.permutation(labels):
            if r < len(by_class[label]):
                out.append(by_class[label][r])
    return out


def desk_train_pool(rng: np.random.Generator, workdir) -> list[data.LabeledCloud]:
    spec = data.SyntheticSpec(instances_per_class=8, points_per_cloud=512, train_fraction=1.0)
    return _round_robin(data.generate_synthetic_dataset(spec, rng).train, rng)


def desk_test_pool(rng: np.random.Generator, workdir) -> list[data.LabeledCloud]:
    spec = data.SyntheticSpec(instances_per_class=5, points_per_cloud=512, train_fraction=0.2)
    return _round_robin(data.generate_synthetic_dataset(spec, rng).test, rng)


def scan_pool(rng: np.random.Generator, workdir) -> list[data.LabeledCloud]:
    """1024-point clouds, SO(3)-rotated and snapped to a 1/32 grid, written
    as XYZ files plus a manifest and read back through ``load_manifest``."""
    spec = data.SyntheticSpec(instances_per_class=4, points_per_cloud=1024, train_fraction=0.5)
    split = data.generate_synthetic_dataset(spec, rng)
    for item in split.train + split.test:
        rotated = geom.rotate(item.cloud, geom.random_rotation(rng, "so3"))
        item.cloud = np.round(rotated * SCAN_GRID) / SCAN_GRID
    loaded = data.load_manifest(data.save_dataset(split, workdir))
    return _round_robin(loaded.train + loaded.test, rng)


@dataclass(frozen=True)
class Workload:
    name: str
    code: int
    training: bool
    make_pool: Callable[[np.random.Generator, object], list[data.LabeledCloud]]
    # Fewest ops in an untraced run, however short --seconds is: enough for
    # the loss window, or for a latency tail with ten samples beyond it.
    min_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_desk", 1, True, desk_train_pool, LOSS_WINDOW[1]),
        Workload("infer_desk", 2, False, desk_test_pool, 20),
        Workload("infer_scan", 3, False, scan_pool, 20),
    )
}


def seeds(workload: Workload, seed: int) -> dict[str, np.random.Generator | int]:
    """Independent streams for data, model init and per-op randomness."""
    root = np.random.SeedSequence([seed, workload.code])
    data_ss, model_ss, op_ss = root.spawn(3)
    return {
        "data": np.random.default_rng(data_ss),
        "model_seed": int(model_ss.generate_state(1)[0]),
        "ops": np.random.default_rng(op_ss),
    }


def desk_model(model_seed: int) -> model.RiGcnModel:
    return model.RiGcnModel(model.RiGcnConfig(**DESK_CONFIG, seed=model_seed))


def request(pool: list[data.LabeledCloud], op: int) -> tuple[list[int], list[np.ndarray], np.ndarray]:
    idx = [(REQUEST * op + t) % len(pool) for t in range(REQUEST)]
    return idx, [pool[i].cloud for i in idx], np.array([pool[i].label for i in idx])


def train_op(net, opt: nnet.OptimizerState, clouds, labels, rng) -> float:
    return model.train_epoch(net, clouds, labels, TRAIN_ROTATION, opt, rng).mean_loss


def infer_op(net, clouds, labels, rng) -> model.EvalResult:
    return model.evaluate(net, clouds, labels, TEST_ROTATION, rng)
