"""In-memory span recording around the public functions of each rigcn layer.

A ``Recorder`` replaces module attributes (``rigcn.geom.farthest_point_sampling``
and so on) with timing wrappers while it is installed, and restores the
originals afterwards. rigcn calls its layers through module attributes
(``geom.farthest_point_sampling(...)`` inside ``model``), so every call made
through the public entry points lands in a wrapper. Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from rigcn import data, geom, graph, model, nnet


def _dag_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``.parents`` (Parameters excluded)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for target, _ in node.parents:
            if isinstance(target, nnet.Node) and id(target) not in seen:
                seen.add(id(target))
                stack.append(target)
    return len(seen)


def _count_forward(args, out):
    return {"dag_nodes": _dag_nodes(out)}


def _count_fps(args, out):
    return {"fps_points": len(args[0]), "anchors": len(out)}


def _count_lrf(args, out):
    return {"lrf_frames": len(args[2])}


def _count_graph(args, out):
    return {"graph_nodes": len(args[0])}


# (module, attribute, span name, counter). The counter sees the positional
# arguments and the result, and runs after the span has closed.
COMPUTE_TARGETS = (
    (model, "forward", "model.forward", _count_forward),
    (model, "extract_descriptors", "model.extract", None),
    (model, "extend_descriptors", "model.extend", None),
    (model, "abstract_level", "model.abstract", None),
    (geom, "farthest_point_sampling", "geom.fps", _count_fps),
    (geom, "lrf_axes_batch", "geom.lrf", _count_lrf),
    (geom, "sorted_candidates", "geom.tie_fallback", None),
    (graph, "build_knn_graph", "graph.build", _count_graph),
    (graph, "renormalize", "graph.renorm", None),
    (nnet, "mlp", "nnet.mlp", None),
    (nnet, "segment_maxpool", "nnet.pool", None),
    (nnet, "maxpool_rows", "nnet.pool", None),
    (nnet, "gcn_layer", "nnet.gcn", None),
    (nnet, "backward", "nnet.backward", None),
    (nnet, "optimizer_step", "nnet.optimizer", None),
)
DATA_TARGETS = (
    (data, "generate_synthetic_dataset", "data.generate", None),
    (data, "load_manifest", "data.load_manifest", None),
)
FORWARD_ONLY = COMPUTE_TARGETS[:1]


class Recorder:
    """Spans as ``[name, start, end, parent index, op id]`` plus counters."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, out).items():
                    counts[key] = counts.get(key, 0) + value
            return out

        return wrapper

    @contextmanager
    def installed(self, targets):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for (mod, attr, name, counter), (_, _, fn) in zip(targets, originals):
                setattr(mod, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def timings(self) -> list[tuple[str, int, float, float]]:
        """Per span: name, op id, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; one thread runs every span, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, op, end - start, end - start - covered)
                for (name, start, end, _, op), covered in zip(self.spans, child)]

    def dump(self) -> dict:
        return {
            "label": self.label,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "counts": self.counts,
        }
