"""One benchmark process: set up a workload, run its timed ops, check the
outputs and print a JSON report as the last line of standard output.

run.py starts this script in a fresh process with the BLAS thread pin in the
environment and ``src`` on PYTHONPATH. The script prints ``ready`` once
set-up is done (that instant ends ``setup_s``); with ``--setup-only`` it
stops there.

Untraced (``--trace 0``) it times ops for ``--seconds`` and reports the
end-to-end metrics. Traced (``--trace 1``) it alternates blocks of ops with
only ``model.forward`` timed and blocks with every layer wrapped, and reports
per-layer self times per cloud from the traced blocks.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from rigcn import model, nnet

import spans
import workloads

# Relative logit deviation allowed between a cloud and a rotated copy; the
# repository's rotation-invariance contract.
INVARIANCE_BOUND = 1e-5
# Per-layer self times must account for this share of the forward pass.
MIN_SELF_COVER = 0.9
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_tmp"

LAYER_MS = {  # metric -> span names whose self time it sums
    "geom.fps_ms": ("geom.fps",),
    "geom.lrf_ms": ("geom.lrf",),
    "geom.tie_fallback_ms": ("geom.tie_fallback",),
    "model.extract_self_ms": ("model.extract",),
    "model.extend_self_ms": ("model.extend",),
    "model.abstract_self_ms": ("model.abstract",),
    "graph.build_ms": ("graph.build",),
    "graph.renorm_ms": ("graph.renorm",),
    "nnet.mlp_ms": ("nnet.mlp",),
    "nnet.pool_ms": ("nnet.pool",),
    "nnet.gcn_ms": ("nnet.gcn",),
}


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_runtime": _openblas_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
    }


@contextmanager
def _patched(mod, attr, value):
    old = getattr(mod, attr)
    setattr(mod, attr, value)
    try:
        yield
    finally:
        setattr(mod, attr, old)


class Runner:
    """Closed loop with one client: the next op starts when the last ends."""

    def __init__(self, wl, net, pool, rng):
        self.wl, self.net, self.pool, self.rng = wl, net, pool, rng
        self.opt = nnet.OptimizerState(learning_rate=workloads.LEARNING_RATE)
        self.op = 0
        self.losses: list[float] = []
        self.outputs: list[tuple[int, np.ndarray]] = []  # (pool index, logits)
        self.complete = True
        self._captured: list[np.ndarray] = []

    def capture(self):
        """Keep the logits ``evaluate`` computes, by wrapping ``model.logits``."""
        inner = model.logits
        captured = self._captured

        def logits(net, points):
            out = inner(net, points)
            captured.append(out)
            return out

        return _patched(model, "logits", logits)

    def run(self, seconds: float, min_ops: int, recorder=None) -> list[float]:
        latencies: list[float] = []
        end = time.perf_counter() + seconds
        while len(latencies) < min_ops or time.perf_counter() < end:
            idx, clouds, labels = workloads.request(self.pool, self.op)
            if recorder is not None:
                recorder.op = self.op
            self._captured.clear()
            t0 = time.perf_counter()
            if self.wl.training:
                try:
                    loss = workloads.train_op(self.net, self.opt, clouds, labels, self.rng)
                except nnet.TrainingDivergenceError:
                    loss = float("nan")
            else:
                result = workloads.infer_op(self.net, clouds, labels, self.rng)
            latencies.append(time.perf_counter() - t0)
            if self.wl.training:
                self.losses.append(loss)
            else:
                got = list(self._captured)
                preds = [int(np.argmax(out)) for out in got]
                self.complete &= len(got) == len(idx) and preds == list(result.predictions)
                self.outputs.extend(zip(idx, got))
            self.op += 1
        return latencies


def traced_blocks(runner: Runner, seconds: float, light_rec, full_rec):
    """Alternate blocks of ops with only ``model.forward`` timed and with
    every layer traced, so drift in machine speed hits both alike. A block
    is one pass over the pool, so both sides see the same clouds."""
    block = max(1, len(runner.pool) // workloads.REQUEST)
    sides = ((light_rec, spans.FORWARD_ONLY, []), (full_rec, spans.COMPUTE_TARGETS, []))
    end = time.perf_counter() + seconds
    k = 0
    while k < 2 or time.perf_counter() < end:
        rec, targets, latencies = sides[k % 2]
        with rec.installed(targets):
            latencies += runner.run(0.0, block, rec)
        k += 1
    return sides[0][2], sides[1][2]


def check_outputs(runner: Runner) -> dict:
    """Output checks, run after the timed ops.

    Training: a non-finite loss fails the op's clouds. Inference: each pool
    cloud's deterministic logits are computed once in its stored pose; a
    served cloud fails if its logits are non-finite or deviate from them by
    more than the invariance bound.
    """
    n = workloads.REQUEST
    if runner.wl.training:
        failed = n * sum(1 for loss in runner.losses if not np.isfinite(loss))
        lo, hi = workloads.LOSS_WINDOW
        window = runner.losses[lo:hi]
        train_loss = float(np.mean(window)) if len(window) == hi - lo else None
        return {
            "attempted": n * len(runner.losses),
            "failed": failed,
            "correct": runner.complete,
            "loss": train_loss,
            "train_loss": train_loss,
        }
    pool = runner.pool
    used = sorted({i for i, _ in runner.outputs})
    base = {i: model.logits(runner.net, pool[i].cloud) for i in used}
    replay_equal = np.array_equal(model.logits(runner.net, pool[used[0]].cloud), base[used[0]])
    failed = 0
    worst = 0.0
    failing_clouds = set()
    for i, out in runner.outputs:
        ref = base[i]
        dev = float(np.abs(out - ref).max() / (1.0 + np.abs(ref).max()))
        worst = max(worst, dev)
        if not (np.all(np.isfinite(out)) and dev <= INVARIANCE_BOUND):
            failed += 1
            failing_clouds.add(i)
    digest = hashlib.sha256()
    for i in used:
        digest.update(np.ascontiguousarray(base[i], dtype="<f8").tobytes())
    losses = [nnet.softmax_cross_entropy(base[i], pool[i].label)[0] for i in used]
    return {
        "attempted": len(runner.outputs),
        "failed": failed,
        "correct": runner.complete and replay_equal,
        "loss": float(np.mean(losses)),
        "logits_sha256": digest.hexdigest(),
        "pool_clouds_checked": len(used),
        "pool_clouds_failing": len(failing_clouds),
        "max_rel_deviation": worst,
    }


def latency_tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    j = len(ordered) - 11
    return ordered[j], 100.0 * (j + 1) / len(ordered)


def end_to_end(latencies: list[float], pass_ops: int, checks: dict) -> tuple[dict, dict]:
    """Throughput is the median over complete passes through the pool, each
    pass serving every pool cloud once, so a stall moves one pass only."""
    tail, pct = latency_tail(latencies)
    passes = [sum(latencies[i:i + pass_ops])
              for i in range(0, len(latencies) - pass_ops + 1, pass_ops)]
    metrics = {
        "clouds_per_s": (workloads.REQUEST * pass_ops / statistics.median(passes), "1/s"),
        "latency_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "latency_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "loss": (checks["loss"], "nats"),
    }
    details = {"latency_tail_percentile": pct, "latency_samples": len(latencies),
               "passes": len(passes)}
    return metrics, details


def per_layer(setup_rec, light_rec, light_lat, full_rec, full_lat,
              pool_size) -> tuple[dict, float]:
    """Per-cloud layer metrics from the traced blocks, and the median share
    of each traced op's forward time that the layer self times account for.

    The overhead and cover shares compare medians of per-op values between
    the traced blocks and the forward-only blocks, so a stall in one op does
    not move them. The accounted share compares spans of the same op, so a
    change in machine speed between blocks does not move it either.
    """
    n = workloads.REQUEST
    clouds = n * len(full_lat)
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered_by_op: dict[int, float] = {}
    traced_forward_by_op: dict[int, float] = {}
    covering = {span for names in LAYER_MS.values() for span in names}
    for name, op, inclusive, own in full_rec.timings():
        incl[name] = incl.get(name, 0.0) + inclusive
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if name in covering:
            covered_by_op[op] = covered_by_op.get(op, 0.0) + own
        elif name == "model.forward":
            traced_forward_by_op[op] = traced_forward_by_op.get(op, 0.0) + inclusive
    forward_by_op: dict[int, float] = {}
    for name, op, inclusive, _ in light_rec.timings():
        forward_by_op[op] = forward_by_op.get(op, 0.0) + inclusive

    def per_cloud_ms(seconds):
        return 1e3 * seconds / clouds

    counts = full_rec.counts
    metrics = {name: (per_cloud_ms(sum(self_s.get(s, 0.0) for s in names)), "ms")
               for name, names in LAYER_MS.items()}
    fallbacks = calls.get("geom.tie_fallback", 0)
    queried = counts.get("anchors", 0) + counts.get("graph_nodes", 0)
    metrics.update({
        "model.forward_ms": (per_cloud_ms(incl.get("model.forward", 0.0)), "ms"),
        "nnet.backward_ms": (per_cloud_ms(self_s.get("nnet.backward", 0.0)), "ms"),
        "nnet.optimizer_ms": (per_cloud_ms(self_s.get("nnet.optimizer", 0.0)), "ms"),
        "geom.fps_points": (counts.get("fps_points", 0) / clouds, "count"),
        "geom.lrf_frames": (counts.get("lrf_frames", 0) / clouds, "count"),
        "geom.tie_fallbacks": (fallbacks / clouds, "count"),
        "geom.tie_fallback_share": (fallbacks / queried if queried else 0.0, "share"),
        "graph.nodes": (counts.get("graph_nodes", 0) / clouds, "count"),
        "nnet.dag_nodes": (counts.get("dag_nodes", 0) / clouds, "count"),
    })
    setup_incl: dict[str, float] = {}
    for name, _, inclusive, _ in setup_rec.timings():
        setup_incl[name] = setup_incl.get(name, 0.0) + inclusive
    for metric, span in (("data.generate_ms", "data.generate"),
                         ("data.load_manifest_ms", "data.load_manifest")):
        metrics[metric] = (1e3 * setup_incl.get(span, 0.0) / pool_size, "ms")
    median = statistics.median
    metrics["trace_overhead_share"] = (median(full_lat) / median(light_lat) - 1.0, "share")
    metrics["trace_self_cover_share"] = (
        median(covered_by_op.values()) / median(forward_by_op.values()), "share")
    accounted = median(covered_by_op[op] / traced_forward_by_op[op] for op in covered_by_op)
    return metrics, accounted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    streams = workloads.seeds(wl, args.seed)
    setup_rec = spans.Recorder("setup")
    Path(WORK_DIR).mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR)
    try:
        with setup_rec.installed(spans.DATA_TARGETS) if args.trace else nullcontext():
            pool = wl.make_pool(streams["data"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    net = workloads.desk_model(streams["model_seed"])
    model.logits(net, pool[0].cloud)  # warm-up; leaves the parameters as they are
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(wl, net, pool, streams["ops"])
    with runner.capture():
        if args.trace:
            light_rec, full_rec = spans.Recorder("forward_only"), spans.Recorder("traced")
            light_lat, full_lat = traced_blocks(runner, args.seconds, light_rec, full_rec)
        else:
            cpu0 = time.process_time()
            latencies = runner.run(args.seconds, wl.min_ops)
            cpu_s = time.process_time() - cpu0
    checks = check_outputs(runner)

    details = {k: v for k, v in checks.items()
               if k not in ("attempted", "failed", "correct", "loss")}
    details["failed_share"] = checks["failed"] / checks["attempted"]
    details["ops"] = runner.op
    correct = checks["correct"]
    if args.trace:
        metrics, accounted = per_layer(
            setup_rec, light_rec, light_lat, full_rec, full_lat, len(pool))
        details["trace_accounted_share"] = accounted
        correct &= accounted >= MIN_SELF_COVER
        Path(OUT_DIR).mkdir(exist_ok=True)
        trace_path = Path(OUT_DIR) / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps([r.dump() for r in (setup_rec, light_rec, full_rec)]))
        details["trace_file"] = str(trace_path)
    else:
        metrics, extra = end_to_end(latencies, len(pool) // workloads.REQUEST, checks)
        details.update(extra)
        details["cpu_per_wall"] = cpu_s / sum(latencies)
    report = {
        "workload": wl.name,
        "correct": bool(correct),
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "environment": environment(args.seed),
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
