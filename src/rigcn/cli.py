"""Command-line harness for training, evaluation protocols, invariance
checks, robustness sweeps, graph export, gradient checks, and dataset
generation.

Every command is driven by one JSON config document (echoed into the output
directory) and is reproducible from (config, seed). Exit codes: 0 success,
1 check failure, 2 usage/config error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
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
        # A document nested deeper than the parser recurses raises RecursionError.
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    cfg = model_mod.from_dict(ExperimentConfig, payload, "config")
    # The model is initialised from the top-level seed; a different model seed
    # would be echoed into config.json without taking effect.
    if "seed" in payload.get("model", {}) and cfg.model.seed != cfg.seed:
        raise ConfigError(
            f"config.model.seed is {cfg.model.seed} but config.seed is {cfg.seed}; "
            "the model is initialised from config.seed"
        )
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
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if getattr(args, "out", None) is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if getattr(args, "deterministic", False):
        cfg = dataclasses.replace(cfg, deterministic=True)
    if getattr(args, "epochs", None) is not None:
        cfg = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, epochs=args.epochs))
    if cfg.training.epochs < 0:
        raise ConfigError(f"training.epochs must be >= 0, got {cfg.training.epochs}")
    for name in ("learning_rate", "lr_decay"):
        value = getattr(cfg.training, name)
        if not 0 < value < np.inf:
            raise ConfigError(f"training.{name} must be finite and > 0, got {value}")
    model_cfg = dataclasses.replace(cfg.model, seed=cfg.seed)
    for item in getattr(args, "ablation", None) or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--ablation expects key=value, got {item!r}")
        if key == "seed":  # the model is initialised from the experiment seed
            raise ConfigError("--ablation cannot set seed; use --seed")
        model_cfg = _set_model_field(model_cfg, key, raw)
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


def _load_dataset(cfg: ExperimentConfig, config_path) -> data.DatasetSplit:
    """The configured dataset; a relative manifest path is read from the
    config file's directory."""
    if cfg.dataset.kind == "manifest":
        return data.load_manifest(Path(config_path).parent / cfg.dataset.path)
    rng = np.random.default_rng([cfg.seed, _STREAM_DATA])
    return data.generate_synthetic_dataset(cfg.dataset, rng)


def _check_cloud(source: str, cloud: np.ndarray, config: RiGcnConfig) -> None:
    """Reject a cloud the model cannot run: not an (N, 3) array of finite
    coordinates, an extent ``geom.normalize_unit_sphere`` rejects, or
    smaller than the model's level 0. Commands call this before they write
    any output. The cloud itself is not normalized here."""
    try:
        geom.normalize_unit_sphere(cloud)
    except ValueError as e:
        raise ConfigError(f"cloud {source!r}: {e}") from None
    need = config.level_sizes[0]
    if len(cloud) < need:
        raise ConfigError(f"cloud {source!r} has {len(cloud)} points but level 0 needs {need}")


def _check_dataset(split: data.DatasetSplit, config: RiGcnConfig) -> None:
    """Reject a dataset the model cannot run: a class count other than the
    model's, or a cloud ``_check_cloud`` rejects."""
    if len(split.class_names) != config.num_classes:
        raise ConfigError(
            f"dataset has {len(split.class_names)} classes but the model expects {config.num_classes}"
        )
    for item in split.train + split.test:
        _check_cloud(item.source_id, item.cloud, config)


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


def _write_metrics(writer, cfg, protocol, epoch, split, result, per_class="", wall=0.0) -> None:
    """One ``METRICS_COLUMNS`` row for an ``EpochMetrics`` or ``EvalResult``."""
    accuracy, loss, wall_time = (_format_float(x) for x in (result.accuracy, result.mean_loss, wall))
    writer.writerow([cfg.experiment_id, protocol, epoch, split, accuracy, per_class, loss, wall_time])


def _model_from_args(cfg: ExperimentConfig, args) -> model_mod.RiGcnModel:
    """Checkpointed model if --checkpoint was given, else a fresh init."""
    if args.checkpoint is not None:
        return model_mod.load_model(args.checkpoint)
    return model_mod.RiGcnModel(cfg.model)


def _checkpoint_and_test_split(
    cfg: ExperimentConfig, args
) -> tuple[model_mod.RiGcnModel, data.DatasetSplit]:
    """The --checkpoint model and the dataset it is evaluated on, checked to
    run and to hold test clouds."""
    if args.checkpoint is None:
        raise ConfigError("--checkpoint is required for this command")
    net = model_mod.load_model(args.checkpoint)
    split = _load_dataset(cfg, args.config)
    _check_dataset(split, net.config)
    if not split.test:
        raise ConfigError("the dataset has no test clouds to evaluate")
    return net, split


# --- commands ---------------------------------------------------------------


def cmd_train(cfg: ExperimentConfig, args) -> int:
    ckpt = Path(args.checkpoint) if args.checkpoint else Path(cfg.out_dir) / "model.ckpt"
    if ckpt.is_dir() or not (ckpt.parent.is_dir() or ckpt.parent == Path(cfg.out_dir)):
        raise ConfigError(f"checkpoint {ckpt}: not a file path in an existing directory")
    split = _load_dataset(cfg, args.config)
    _check_dataset(split, cfg.model)
    net = model_mod.RiGcnModel(cfg.model)
    opt = nnet.OptimizerState(learning_rate=cfg.training.learning_rate)
    out = _prepare_out(cfg)
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
            _write_metrics(writer, cfg, protocol, epoch, "train", metrics, wall=wall)
            if test_clouds:
                eval_rng = np.random.default_rng([cfg.seed, _STREAM_EVAL, epoch])
                result = model_mod.evaluate(
                    net, test_clouds, test_labels, cfg.training.test_rotation, eval_rng
                )
                wall = 0.0 if cfg.deterministic else time.monotonic() - t0
                per_class = _per_class_cell(result, split.class_names)
                _write_metrics(writer, cfg, protocol, epoch, "test", result, per_class, wall)
                print(
                    f"epoch {epoch}: train_acc={metrics.accuracy:.4f} "
                    f"train_loss={metrics.mean_loss:.4f} test_acc={result.accuracy:.4f}"
                )
            else:
                print(f"epoch {epoch}: train_acc={metrics.accuracy:.4f} train_loss={metrics.mean_loss:.4f}")
    model_mod.save_model(net, ckpt)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_evaluate(cfg: ExperimentConfig, args) -> int:
    net, split = _checkpoint_and_test_split(cfg, args)
    modes = [m.strip() for m in args.modes.split(",")]
    for mode in modes:
        if mode not in ROTATION_MODES:
            raise ConfigError(f"unknown rotation mode {mode!r}")
    clouds, labels = split.arrays("test")
    # All modes run before the output directory is made: a failing forward leaves none.
    results = [
        model_mod.evaluate(net, clouds, labels, mode, np.random.default_rng([cfg.seed, _STREAM_EVAL]))
        for mode in modes
    ]
    out = _prepare_out(cfg)
    fh, writer = _metrics_writer(out / "evaluation.csv")
    with fh:
        for mode, result in zip(modes, results):
            per_class = _per_class_cell(result, split.class_names)
            _write_metrics(writer, cfg, mode, 0, "test", result, per_class)
            print(f"mode={mode} accuracy={result.accuracy:.4f}")
            accs = result.per_class_accuracy()
            for i, name in enumerate(split.class_names):
                print(f"  {name}: {accs[i]:.4f} ({result.per_class_correct[i]}/{result.per_class_total[i]})")
    return EXIT_OK


def cmd_invariance_check(cfg: ExperimentConfig, args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.checkpoint is not None and args.ablation:
        raise ConfigError(
            "--ablation does not apply with --checkpoint: the checkpoint's config decides the model"
        )
    net = _model_from_args(cfg, args)
    split = _load_dataset(cfg, args.config)
    _check_dataset(split, net.config)
    items = split.train + split.test
    rng = np.random.default_rng([cfg.seed, _STREAM_TRIALS])
    worst = 0.0
    mismatches = 0
    for t in range(args.trials):
        pts = items[t % len(items)].cloud
        rot = geom.random_rotation(rng, "so3")
        base = model_mod.logits(net, pts)
        rotated = model_mod.logits(net, geom.rotate(pts, rot))
        with np.errstate(invalid="ignore"):  # an infinite logit yields a NaN deviation
            deviation = float(np.abs(base - rotated).max() / (1.0 + np.abs(base).max()))
        worst = float(np.maximum(worst, deviation))  # unlike max(), keeps a NaN
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


def _parse_list(raw: str, what: str, kind) -> list:
    """Comma-separated values of type ``kind``; at least one."""
    try:
        values = [kind(t) for t in raw.split(",") if t.strip() != ""]
    except ValueError:
        raise ConfigError(f"invalid {what} list {raw!r}") from None
    if not values:
        raise ConfigError(f"empty {what} list")
    return values


def cmd_robustness(cfg: ExperimentConfig, args) -> int:
    net, split = _checkpoint_and_test_split(cfg, args)
    # Cells run in ascending order; each keeps its list positions as its
    # corruption seed.
    sigmas = sorted(enumerate(_parse_list(args.sigmas, "sigma", float)), key=lambda t: t[1])
    outliers = sorted(enumerate(_parse_list(args.outliers, "outlier", int)), key=lambda t: t[1])
    grid = [
        (si, oi, geom.CorruptionSpec(noise_sigma=sigma, outlier_count=count))
        for si, sigma in sigmas
        for oi, count in outliers
    ]
    out = _prepare_out(cfg)
    clouds, labels = split.arrays("test")
    mode = cfg.training.test_rotation
    path = out / "robustness.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sigma", "outliers", "accuracy"])
        for si, oi, spec in grid:
            corrupt_rng = np.random.default_rng([cfg.seed, _STREAM_CORRUPT, si, oi])
            corrupted = [geom.corrupt(c, spec, corrupt_rng) for c in clouds]
            eval_rng = np.random.default_rng([cfg.seed, _STREAM_EVAL])
            acc = model_mod.evaluate(net, corrupted, labels, mode, eval_rng).accuracy
            sigma, count = spec.noise_sigma, spec.outlier_count
            writer.writerow([_format_float(sigma), count, _format_float(acc)])
            print(f"sigma={sigma} outliers={count} accuracy={acc:.4f}")
    print(f"robustness table written to {path}")
    return EXIT_OK


def cmd_export_graphs(cfg: ExperimentConfig, args) -> int:
    net = _model_from_args(cfg, args)
    cloud = data.read_xyz(args.cloud)
    _check_cloud(str(args.cloud), cloud, net.config)
    pts = geom.normalize_unit_sphere(cloud)
    out = _prepare_out(cfg)
    for desc in model_mod.level_descriptors(net, pts):
        weights = model_mod.level_graph(net.config, desc)
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


def cmd_gradcheck(cfg: ExperimentConfig, args) -> int:
    model_cfg = _gradcheck_config(cfg.seed) if args.config is None else cfg.model
    if model_cfg.num_points > 64:
        raise ConfigError("gradcheck requires a small config (num_points <= 64)")
    net = model_mod.RiGcnModel(model_cfg)
    rng = np.random.default_rng([cfg.seed, _STREAM_GRAD])
    pts = geom.normalize_unit_sphere(rng.normal(size=(model_cfg.num_points, 3)))
    label = int(rng.integers(model_cfg.num_classes))

    def loss_fn():
        return nnet.cross_entropy(model_mod.forward(net, pts), label)

    errors = nnet.gradient_check_blocks(loss_fn, net.parameters(), eps=1e-6)
    print(f"{'parameter':24s} {'max rel error':>14s}")
    for name, err in errors.items():
        print(f"{name:24s} {err:14.3e}")
    worst_name = max(errors, key=lambda name: np.nan_to_num(errors[name], nan=np.inf))
    worst = errors[worst_name]
    if worst <= 1e-5:
        print(f"gradient check PASSED (worst {worst:.3e} in {worst_name})")
        return EXIT_OK
    print(f"gradient check FAILED: {worst_name} has relative error {worst:.3e} > 1e-5")
    return EXIT_CHECK_FAILED


def cmd_gen_data(cfg: ExperimentConfig, args) -> int:
    if cfg.dataset.kind != "synthetic":
        raise ConfigError("gen-data requires a synthetic dataset config")
    split = _load_dataset(cfg, args.config)
    manifest = data.save_dataset(split, _prepare_out(cfg))
    print(
        f"wrote {len(split.train)} train / {len(split.test)} test clouds "
        f"({len(split.class_names)} classes) -> {manifest}"
    )
    return EXIT_OK


# --- entry point -------------------------------------------------------------


_FLAGS = {
    "--out": dict(default=None, help="override the config output directory"),
    "--checkpoint": dict(default=None, help="model checkpoint path"),
    "--ablation": dict(action="append", default=None, metavar="KEY=VALUE",
                       help="override a model config field (repeatable)"),
}


def _add_common(sub, *flags, config_required=True):
    """--config and --seed, which every command reads, then the named flags
    of ``_FLAGS``; a command declares only the flags it reads."""
    sub.add_argument("--config", required=config_required, help="experiment config JSON")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rigcn", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a model and write checkpoint + metrics")
    _add_common(p, "--out", "--checkpoint", "--ablation")
    p.add_argument(
        "--deterministic", action="store_true", help="zero wall times for bitwise-stable outputs"
    )
    p.add_argument("--epochs", type=int, default=None, help="override training.epochs")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="evaluate a checkpoint under rotation protocols")
    _add_common(p, "--out", "--checkpoint")
    p.add_argument("--modes", default="so3", help="comma-separated rotation modes (none,z,so3)")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("invariance-check", help="verify logits are rotation-invariant")
    _add_common(p, "--checkpoint", "--ablation")
    p.add_argument("--trials", type=int, default=20, help="number of (cloud, rotation) pairs")
    p.set_defaults(func=cmd_invariance_check)

    p = subs.add_parser("robustness", help="accuracy under noise/outlier corruption grid")
    _add_common(p, "--out", "--checkpoint")
    p.add_argument("--sigmas", default="0,0.02,0.04,0.06,0.08,0.1", help="noise sigma list")
    p.add_argument("--outliers", default="0,10,50,100", help="outlier count list")
    p.set_defaults(func=cmd_robustness)

    p = subs.add_parser("export-graphs", help="write per-level node/edge files for one cloud")
    _add_common(p, "--out", "--checkpoint")
    p.add_argument("--cloud", required=True, help="input cloud (.xyz)")
    p.set_defaults(func=cmd_export_graphs)

    p = subs.add_parser("gradcheck", help="finite-difference check of every parameter block")
    _add_common(p, config_required=False)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("gen-data", help="generate a synthetic dataset with a manifest")
    _add_common(p, "--out")
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Only gradcheck runs without --config; it checks a built-in model.
        cfg = ExperimentConfig() if args.config is None else load_experiment_config(args.config)
        return args.func(_apply_overrides(cfg, args), args)
    except nnet.TrainingDivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError) as e:  # ConfigError and data.ParseError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # a config too large to allocate is a usage error
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
