#!/usr/bin/env python3
"""Run the benchmark over many seeds on one checkout, or in alternating
parent/change pairs on two, and summarise each metric.

    # one side: medians and quartiles over seeds 1..10
    python3 perfbench/compare.py --parent ../rigcn-parent --workload infer_desk
    # pairs: the pair's two runs share a seed; which side runs first alternates
    python3 perfbench/compare.py --parent ../rigcn-parent --change . \\
        --workload infer_scan --pairs 10 --out pairs.json

Both sides run this copy of ``run.py``, so parent and change are measured by
identical benchmark code; each checkout only supplies its ``src``. A gain is
claimed for a metric when the change wins at least nine tenths of the pairs
(ties count for neither) and the medians differ by more than the distance
between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run failed with code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2][len("report "):])


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def summarise(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    keep = ("failed_share", "logits_sha256", "train_loss", "latency_tail_percentile",
            "latency_samples", "trace_accounted_share")
    return {
        "runs": [{"seed": r["environment"]["seed"],
                  "metrics": {n: m["value"] for n, m in r["metrics"].items()},
                  **{k: r["details"][k] for k in keep if k in r["details"]}} for r in runs],
        "metrics": {n: dict(quartiles([r["metrics"][n]["value"] for r in runs]),
                            unit=runs[0]["metrics"][n]["unit"]) for n in names},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
    }


def verdict(parent: list[dict], change: list[dict]) -> dict:
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {}
    for name in parent[0]["metrics"]:
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
        pq, cq = quartiles(p), quartiles(c)
        worse_share = sign * (pq["median"] - cq["median"]) / pq["median"] if pq["median"] else 0.0
        out[name] = {
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(p),
            "median_change_share": (cq["median"] - pq["median"]) / pq["median"] if pq["median"] else 0.0,
            "gain": wins >= 0.9 * len(p)
            and abs(cq["median"] - pq["median"]) > pq["q3"] - pq["q1"],
        }
        if name in bound:
            out[name]["within_bound"] = worse_share <= bound[name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change; omit for one side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent} if args.change is None else {
        "parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            report = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
            runs[side].append(report)
            print(f"{side} seed={seed} " + json.dumps(
                {k: round(v["value"], 4) for k, v in report["metrics"].items()}), flush=True)
    result = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "seeds": [args.first_seed + i for i in range(args.pairs)],
              "environment": runs["parent"][0]["environment"],
              **{side: summarise(rs) for side, rs in runs.items()}}
    if args.change is not None:
        result["verdict"] = verdict(runs["parent"], runs["change"])
    text = json.dumps(result, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
