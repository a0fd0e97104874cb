#!/usr/bin/env python3
"""Ablation sweep over the desk preset (configs/desk.json): stochastic
d/k/khat toggles, GCN vs MLP abstraction, local vs global transforms, and
level counts, each trained by ``rigcn train`` with the same seed and budget.
Results land in one CSV for plotting.

Usage:
    python scripts/run_ablations.py --out runs/ablations --epochs 8
"""

import argparse
import csv
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rigcn import cli

DESK_PRESET = ROOT / "configs" / "desk.json"

# name -> --ablation overrides of the desk preset, which is fully stochastic
# with GCN abstraction, local transforms and three levels.
VARIANTS = {
    "deterministic": ["stochastic_d=false", "stochastic_k=false", "stochastic_khat=false"],
    "stochastic_d": ["stochastic_k=false", "stochastic_khat=false"],
    "stochastic_k": ["stochastic_d=false", "stochastic_khat=false"],
    "stochastic_khat": ["stochastic_d=false", "stochastic_k=false"],
    "fully_stochastic": [],
    "mlp_abstraction": ["abstraction=mlp"],
    "global_transform": ["transform_scope=global"],
    "single_level": ["levels=1", "level_sizes=128", "channels=32"],
    "two_levels": ["levels=2", "level_sizes=128,32", "channels=32,64"],
    "four_levels": ["levels=4", "level_sizes=128,32,16,8", "channels=32,64,64,128"],
}


def variant_argv(name: str, run_dir: Path, seed: int, epochs: int) -> list[str]:
    """The ``rigcn train`` command line that trains one variant."""
    argv = ["train", "--config", str(DESK_PRESET), "--out", str(run_dir),
            "--seed", str(seed), "--epochs", str(epochs)]
    for item in VARIANTS[name]:
        argv += ["--ablation", item]
    return argv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/ablations")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()
    if args.epochs < 1:
        parser.error("--epochs must be >= 1: accuracy is read from the last epoch's test row")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "ablations.csv"
    with open(results_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "z_so3_accuracy", "train_minutes"])
        for name in VARIANTS:
            run_dir = out / name
            t0 = time.monotonic()
            code = cli.main(variant_argv(name, run_dir, args.seed, args.epochs))
            if code != 0:
                return code
            minutes = (time.monotonic() - t0) / 60
            with open(run_dir / "metrics.csv") as mf:
                acc = float([r for r in csv.DictReader(mf) if r["split"] == "test"][-1]["accuracy"])
            writer.writerow([name, f"{acc:.4f}", f"{minutes:.2f}"])
            fh.flush()
            print(f"{name:20s} z/SO(3) accuracy {acc:.4f} ({minutes:.1f} min)")
    print(f"\nresults written to {results_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
