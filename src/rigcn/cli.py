"""Command-line harness for training, evaluation protocols, invariance
checks, robustness sweeps, graph export, gradient checks, and dataset
generation.

Every command is driven by one JSON config document (echoed into the output
directory) and is reproducible from (config, seed). Exit codes: 0 success,
1 check failure, 2 usage/config error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import json
import os
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data, geom, graph, nnet
from . import model as model_mod
from .model import ConfigError, RiGcnConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

ROTATION_MODES = ("none", "z", "so3")

# Stable sub-streams of the experiment seed.
_STREAM_DATA, _STREAM_TRAIN, _STREAM_EVAL, _STREAM_TRIALS, _STREAM_CORRUPT, _STREAM_GRAD = range(1, 7)

METRICS_COLUMNS = (
    "experiment_id",
    "protocol",
    "epoch",
    "split",
    "accuracy",
    "per_class_accuracy",
    "loss",
    "wall_time",
)


@dataclass(frozen=True)
class DatasetConfig(data.SyntheticSpec):
    """Synthetic generation spec, or a pointer to a dataset manifest."""

    kind: str = "synthetic"
    path: str | None = None


@dataclass(frozen=True)
class TrainingParams:
    epochs: int = 20
    learning_rate: float = 1e-3
    lr_decay: float = 1.0  # per-epoch multiplicative decay
    optimizer: str = "adam"
    train_rotation: str = "z"
    test_rotation: str = "so3"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str = "experiment"
    seed: int = 0
    out_dir: str = "runs/experiment"
    deterministic: bool = False
    model: RiGcnConfig = RiGcnConfig()
    dataset: DatasetConfig = DatasetConfig()
    training: TrainingParams = TrainingParams()


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    cfg = model_mod.from_dict(ExperimentConfig, payload, "config")
    if cfg.training.train_rotation not in ROTATION_MODES:
        raise ConfigError(f"training.train_rotation must be one of {ROTATION_MODES}")
    if cfg.training.test_rotation not in ROTATION_MODES:
        raise ConfigError(f"training.test_rotation must be one of {ROTATION_MODES}")
    if cfg.dataset.kind not in ("synthetic", "manifest"):
        raise ConfigError(f"dataset.kind must be 'synthetic' or 'manifest', got {cfg.dataset.kind!r}")
    if cfg.dataset.kind == "manifest" and not cfg.dataset.path:
        raise ConfigError("dataset.kind 'manifest' requires dataset.path")
    cfg.model.validate()
    return cfg


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "out", None) is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if getattr(args, "deterministic", False):
        cfg = dataclasses.replace(cfg, deterministic=True)
    if getattr(args, "epochs", None) is not None:
        cfg = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, epochs=args.epochs))
    model_cfg = dataclasses.replace(cfg.model, seed=cfg.seed)
    for item in getattr(args, "ablation", None) or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--ablation expects key=value, got {item!r}")
        model_cfg = _set_model_field(model_cfg, key, raw)
    if getattr(args, "transform_scope", None) is not None:
        model_cfg = _set_model_field(model_cfg, "transform_scope", args.transform_scope)
    model_cfg.validate()
    return dataclasses.replace(cfg, model=model_cfg)


def _set_model_field(model_cfg: RiGcnConfig, key: str, raw: str) -> RiGcnConfig:
    """``model_cfg`` with one field set from ``key=raw`` text: true/false/1/0
    for a flag, comma-separated integers for an integer or a tuple."""
    kind = typing.get_type_hints(RiGcnConfig).get(key)
    if kind is bool:
        value = {"true": True, "1": True, "false": False, "0": False}.get(raw.lower(), raw)
    elif kind is str or kind is None:
        value = raw
    else:
        try:
            value = [int(t) for t in raw.split(",")]
        except ValueError:
            raise ConfigError(f"--ablation {key}: expected integers, got {raw!r}") from None
        if kind is int and len(value) == 1:
            (value,) = value
    return model_mod.from_dict(RiGcnConfig, {**dataclasses.asdict(model_cfg), key: value}, "--ablation")


def _prepare_out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _load_dataset(cfg: ExperimentConfig, config_dir: Path | None) -> data.DatasetSplit:
    if cfg.dataset.kind == "manifest":
        path = Path(cfg.dataset.path)
        if not path.is_absolute() and config_dir is not None:
            path = config_dir / path
        return data.load_manifest(path)
    rng = np.random.default_rng([cfg.seed, _STREAM_DATA])
    return data.generate_synthetic_dataset(cfg.dataset, rng)


def _check_cloud_size(source: str, cloud: np.ndarray, config: RiGcnConfig) -> None:
    """Reject a cloud smaller than the model's level 0, so the command fails
    before it writes any output."""
    need = config.resolved_level_sizes()[0]
    if len(cloud) < need:
        raise ConfigError(f"cloud {source!r} has {len(cloud)} points but level 0 needs {need}")


def _check_cloud_sizes(split: data.DatasetSplit, config: RiGcnConfig) -> None:
    for item in split.train + split.test:
        _check_cloud_size(item.source_id, item.cloud, config)


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _per_class_cell(result: model_mod.EvalResult, class_names: tuple[str, ...]) -> str:
    accs = result.per_class_accuracy()
    parts = []
    for i, name in enumerate(class_names):
        if i < len(accs) and result.per_class_total[i] > 0:
            parts.append(f"{name}={_format_float(float(accs[i]))}")
    return "|".join(parts)


def _metrics_writer(path: Path):
    fh = open(path, "w", encoding="utf-8", newline="\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    return fh, writer


def _require_checkpoint(args) -> Path:
    path = getattr(args, "checkpoint", None)
    if path is None:
        raise ConfigError("--checkpoint is required for this command")
    return Path(path)


def _model_from_args(cfg: ExperimentConfig, args) -> model_mod.RiGcnModel:
    """Checkpointed model if --checkpoint was given, else a fresh init."""
    path = getattr(args, "checkpoint", None)
    if path is not None:
        return model_mod.load_model(path)
    return model_mod.RiGcnModel(cfg.model)


# --- commands ---------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    split = _load_dataset(cfg, Path(args.config).parent)
    _check_cloud_sizes(split, cfg.model)
    if len(split.class_names) != cfg.model.num_classes:
        raise ConfigError(
            f"dataset has {len(split.class_names)} classes but model expects {cfg.model.num_classes}"
        )
    out = _prepare_out(cfg)
    net = model_mod.RiGcnModel(cfg.model)
    opt = nnet.OptimizerState(kind=cfg.training.optimizer, learning_rate=cfg.training.learning_rate)
    train_clouds, train_labels = split.arrays("train")
    test_clouds, test_labels = split.arrays("test")
    train_rng = np.random.default_rng([cfg.seed, _STREAM_TRAIN])
    protocol = f"{cfg.training.train_rotation}/{cfg.training.test_rotation}"
    fh, writer = _metrics_writer(out / "metrics.csv")
    with fh:
        for epoch in range(cfg.training.epochs):
            t0 = time.monotonic()
            opt.learning_rate = cfg.training.learning_rate * cfg.training.lr_decay**epoch
            metrics = model_mod.train_epoch(
                net, train_clouds, train_labels, cfg.training.train_rotation, opt, train_rng
            )
            wall = 0.0 if cfg.deterministic else time.monotonic() - t0
            writer.writerow(
                [
                    cfg.experiment_id,
                    protocol,
                    epoch,
                    "train",
                    _format_float(metrics.accuracy),
                    "",
                    _format_float(metrics.mean_loss),
                    _format_float(wall),
                ]
            )
            if test_clouds:
                eval_rng = np.random.default_rng([cfg.seed, _STREAM_EVAL, epoch])
                result = model_mod.evaluate(
                    net, test_clouds, test_labels, cfg.training.test_rotation, eval_rng
                )
                writer.writerow(
                    [
                        cfg.experiment_id,
                        protocol,
                        epoch,
                        "test",
                        _format_float(result.accuracy),
                        _per_class_cell(result, split.class_names),
                        _format_float(result.mean_loss),
                        "0" if cfg.deterministic else _format_float(time.monotonic() - t0),
                    ]
                )
                print(
                    f"epoch {epoch}: train_acc={metrics.accuracy:.4f} "
                    f"train_loss={metrics.mean_loss:.4f} test_acc={result.accuracy:.4f}"
                )
            else:
                print(f"epoch {epoch}: train_acc={metrics.accuracy:.4f} train_loss={metrics.mean_loss:.4f}")
    ckpt = Path(args.checkpoint) if args.checkpoint else out / "model.ckpt"
    model_mod.save_model(net, ckpt)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    net = model_mod.load_model(_require_checkpoint(args))
    split = _load_dataset(cfg, Path(args.config).parent)
    _check_cloud_sizes(split, net.config)
    if len(split.class_names) != net.config.num_classes:
        raise ConfigError(
            f"dataset has {len(split.class_names)} classes but checkpoint expects "
            f"{net.config.num_classes}"
        )
    modes = [m.strip() for m in args.modes.split(",")]
    for mode in modes:
        if mode not in ROTATION_MODES:
            raise ConfigError(f"unknown rotation mode {mode!r}")
    out = _prepare_out(cfg)
    clouds, labels = split.arrays("test")
    fh, writer = _metrics_writer(out / "evaluation.csv")
    with fh:
        for mode in modes:
            rng = np.random.default_rng([cfg.seed, _STREAM_EVAL])
            result = model_mod.evaluate(net, clouds, labels, mode, rng)
            writer.writerow(
                [
                    cfg.experiment_id,
                    mode,
                    0,
                    "test",
                    _format_float(result.accuracy),
                    _per_class_cell(result, split.class_names),
                    _format_float(result.mean_loss),
                    "0",
                ]
            )
            print(f"mode={mode} accuracy={result.accuracy:.4f}")
            accs = result.per_class_accuracy()
            for i, name in enumerate(split.class_names):
                print(f"  {name}: {accs[i]:.4f} ({result.per_class_correct[i]}/{result.per_class_total[i]})")
    return EXIT_OK


def cmd_invariance_check(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    net = _model_from_args(cfg, args)
    split = _load_dataset(cfg, Path(args.config).parent)
    _check_cloud_sizes(split, net.config)
    items = split.train + split.test
    rng = np.random.default_rng([cfg.seed, _STREAM_TRIALS])
    worst = 0.0
    mismatches = 0
    for t in range(args.trials):
        pts = items[t % len(items)].cloud
        rot = geom.random_rotation(rng, "so3")
        base = model_mod.logits(net, pts)
        rotated = model_mod.logits(net, geom.rotate(pts, rot))
        deviation = float(np.abs(base - rotated).max() / (1.0 + np.abs(base).max()))
        worst = max(worst, deviation)
        top2 = np.sort(base)[-2:] if base.size > 1 else None
        margin = float(top2[1] - top2[0]) if top2 is not None else np.inf
        if margin > 1e-4 and np.argmax(base) != np.argmax(rotated):
            mismatches += 1
    print(f"trials={args.trials} max_relative_deviation={worst:.3e} argmax_mismatches={mismatches}")
    if worst <= 1e-5 and mismatches == 0:
        print("invariance check PASSED")
        return EXIT_OK
    print("invariance check FAILED")
    return EXIT_CHECK_FAILED


def _parse_float_list(raw: str, what: str) -> list[float]:
    try:
        values = [float(t) for t in raw.split(",") if t.strip() != ""]
    except ValueError:
        raise ConfigError(f"invalid {what} list {raw!r}") from None
    if not values:
        raise ConfigError(f"empty {what} list")
    return values


def cmd_robustness(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    net = model_mod.load_model(_require_checkpoint(args))
    sigmas = _parse_float_list(args.sigmas, "sigma")
    outliers = [int(v) for v in _parse_float_list(args.outliers, "outlier")]
    if any(s < 0 for s in sigmas):
        raise ConfigError("sigma values must be >= 0")
    if any(o < 0 for o in outliers):
        raise ConfigError("outlier counts must be >= 0")
    split = _load_dataset(cfg, Path(args.config).parent)
    _check_cloud_sizes(split, net.config)
    out = _prepare_out(cfg)
    clouds, labels = split.arrays("test")
    mode = cfg.training.test_rotation

    def run_cell(si: int, oi: int) -> float:
        spec = geom.CorruptionSpec(noise_sigma=sigmas[si], outlier_count=outliers[oi])
        corrupt_rng = np.random.default_rng([cfg.seed, _STREAM_CORRUPT, si, oi])
        corrupted = [geom.corrupt(c, spec, corrupt_rng) for c in clouds]
        eval_rng = np.random.default_rng([cfg.seed, _STREAM_EVAL])
        return model_mod.evaluate(net, corrupted, labels, mode, eval_rng).accuracy

    cells = [(si, oi) for si in range(len(sigmas)) for oi in range(len(outliers))]
    workers = max(1, int(os.environ.get("RIGCN_THREADS", "1")))
    results: dict[tuple[int, int], float] = {}
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futs = {pool.submit(run_cell, si, oi): (si, oi) for si, oi in cells}
            for fut in concurrent.futures.as_completed(futs):
                results[futs[fut]] = fut.result()
    else:
        for si, oi in cells:
            results[(si, oi)] = run_cell(si, oi)

    path = out / "robustness.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sigma", "outliers", "accuracy"])
        for si, sigma in sorted(enumerate(sigmas), key=lambda t: t[1]):
            for oi, count in sorted(enumerate(outliers), key=lambda t: t[1]):
                acc = results[(si, oi)]
                writer.writerow([_format_float(sigma), count, _format_float(acc)])
                print(f"sigma={sigma} outliers={count} accuracy={acc:.4f}")
    print(f"robustness table written to {path}")
    return EXIT_OK


def cmd_export_graphs(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    net = _model_from_args(cfg, args)
    pts = geom.normalize_unit_sphere(data.read_xyz(args.cloud))
    _check_cloud_size(str(args.cloud), pts, net.config)
    out = _prepare_out(cfg)
    descs = model_mod.level_descriptors(net, pts, None, stochastic=False)
    for desc in descs:
        weights = model_mod.level_graph(net.config, desc, None, stochastic=False)
        nodes = out / f"level{desc.level}_nodes.txt"
        edges = out / f"level{desc.level}_edges.txt"
        graph.write_graph_files(desc.points, weights, nodes, edges)
        print(f"level {desc.level}: {len(desc.points)} nodes -> {nodes}, {edges}")
    return EXIT_OK


def _gradcheck_config(seed: int) -> RiGcnConfig:
    return RiGcnConfig(
        num_points=32,
        num_classes=4,
        levels=2,
        level_sizes=(12, 6),
        channels=(8, 16),
        k_range=(4, 6),
        d_range=(1, 2),
        khat_range=(3, 5),
        g_hidden=6,
        classifier_hidden=12,
        seed=seed,
    )


def cmd_gradcheck(args) -> int:
    if args.config is not None:
        cfg = _apply_overrides(load_experiment_config(args.config), args)
        model_cfg = cfg.model
        seed = cfg.seed
    else:
        seed = args.seed if args.seed is not None else 0
        model_cfg = _gradcheck_config(seed)
    if model_cfg.num_points > 64:
        raise ConfigError("gradcheck requires a small config (num_points <= 64)")
    net = model_mod.RiGcnModel(model_cfg)
    rng = np.random.default_rng([seed, _STREAM_GRAD])
    pts = geom.normalize_unit_sphere(rng.normal(size=(model_cfg.num_points, 3)))
    label = int(rng.integers(model_cfg.num_classes))

    def loss_fn():
        return nnet.cross_entropy(model_mod.forward(net, pts, None, False), label)

    errors = nnet.gradient_check_blocks(loss_fn, net.parameters(), eps=1e-6)
    print(f"{'parameter':24s} {'max rel error':>14s}")
    for name, err in errors.items():
        print(f"{name:24s} {err:14.3e}")
    worst_name = max(errors, key=errors.get)
    worst = errors[worst_name]
    if worst <= 1e-5:
        print(f"gradient check PASSED (worst {worst:.3e} in {worst_name})")
        return EXIT_OK
    print(f"gradient check FAILED: {worst_name} has relative error {worst:.3e} > 1e-5")
    return EXIT_CHECK_FAILED


def cmd_gen_data(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    if cfg.dataset.kind != "synthetic":
        raise ConfigError("gen-data requires a synthetic dataset config")
    split = _load_dataset(cfg, Path(args.config).parent)
    out = Path(cfg.out_dir)
    manifest = data.save_dataset(split, out)
    print(
        f"wrote {len(split.train)} train / {len(split.test)} test clouds "
        f"({len(split.class_names)} classes) -> {manifest}"
    )
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def _add_common(sub, config_required=True):
    sub.add_argument("--config", required=config_required, help="experiment config JSON")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default=None, help="override the config output directory")
    sub.add_argument("--checkpoint", default=None, help="model checkpoint path")
    sub.add_argument(
        "--deterministic", action="store_true", help="zero wall times for bitwise-stable outputs"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rigcn", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a model and write checkpoint + metrics")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None, help="override training.epochs")
    p.add_argument("--ablation", action="append", default=None, metavar="KEY=VALUE",
                   help="override a model config field (repeatable)")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="evaluate a checkpoint under rotation protocols")
    _add_common(p)
    p.add_argument("--modes", default="so3", help="comma-separated rotation modes (none,z,so3)")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("invariance-check", help="verify logits are rotation-invariant")
    _add_common(p)
    p.add_argument("--trials", type=int, default=20, help="number of (cloud, rotation) pairs")
    p.add_argument("--transform-scope", choices=("local", "global"), default=None)
    p.add_argument("--ablation", action="append", default=None, metavar="KEY=VALUE")
    p.set_defaults(func=cmd_invariance_check)

    p = subs.add_parser("robustness", help="accuracy under noise/outlier corruption grid")
    _add_common(p)
    p.add_argument("--sigmas", default="0,0.02,0.04,0.06,0.08,0.1", help="noise sigma list")
    p.add_argument("--outliers", default="0,10,50,100", help="outlier count list")
    p.set_defaults(func=cmd_robustness)

    p = subs.add_parser("export-graphs", help="write per-level node/edge files for one cloud")
    _add_common(p)
    p.add_argument("--cloud", required=True, help="input cloud (.xyz)")
    p.set_defaults(func=cmd_export_graphs)

    p = subs.add_parser("gradcheck", help="finite-difference check of every parameter block")
    _add_common(p, config_required=False)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("gen-data", help="generate a synthetic dataset with a manifest")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except nnet.TrainingDivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, data.ParseError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
