#!/usr/bin/env python3
"""End-to-end desk-scale experiment: train the preset in configs/desk.json
under the z/SO(3) protocol, then run every evaluation harness (rotation
modes, invariance check, robustness sweep, graph export) on the trained
checkpoint.

Usage:
    python scripts/run_desk_experiment.py --out runs/desk --seed 7
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rigcn import cli, data, geom

DESK_PRESET = ROOT / "configs" / "desk.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/desk")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=12)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "experiment.json"
    config = json.loads(DESK_PRESET.read_text())
    config.update(seed=args.seed, out_dir=str(out))
    config["training"]["epochs"] = args.epochs
    cfg_path.write_text(json.dumps(config, indent=2))
    ckpt = out / "model.ckpt"

    steps = [
        ["train", "--config", str(cfg_path)],
        ["evaluate", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--modes", "none,z,so3"],
        ["invariance-check", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--trials", "50"],
        ["robustness", "--config", str(cfg_path), "--checkpoint", str(ckpt)],
    ]
    for step in steps:
        print(f"\n=== rigcn {' '.join(step[:1])} ===")
        code = cli.main(step)
        if code != 0:
            return code

    # one qualitative graph export per run
    cloud_path = out / "example_cloud.xyz"
    sample = data.FAMILIES["torus"](np.random.default_rng(args.seed), 512)
    data.write_xyz(geom.normalize_unit_sphere(sample), cloud_path)
    return cli.main(
        [
            "export-graphs",
            "--config",
            str(cfg_path),
            "--checkpoint",
            str(ckpt),
            "--cloud",
            str(cloud_path),
            "--out",
            str(out / "graphs"),
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
