"""Span and counter tracing of sdcil layers, installed from outside the program.

Each traced layer is a public function that its caller resolves by module
attribute at call time (``pairwise.solve_binary_dual``, ``cil.train_pair``,
...). ``Tracer.installed()`` replaces those attributes with recording
wrappers and puts the originals back on exit. A name that no longer exists
is recorded as an absent layer instead of raising, so the benchmark keeps
running after a refactor moves a function.

Spans are kept in memory as flat arrays (layer, parent span, start, end,
work) and only aggregated by ``summary()``. A span's self time is its
duration minus the durations of its child spans; calls are sequential in
one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# --- hooks: read the work done by one call from its arguments and result ----


def _solve(layer):
    def hook(tracer, args, out):
        tracer.counts[layer + ".unconverged"] += not out.converged
        return out.iterations

    return hook


def _select_width(tracer, args, out):
    records = out.per_candidate
    tracer.counts["geometry.select_width.candidates"] += len(records)
    tracer.counts["geometry.select_width.admitted"] += sum(
        r.admitted and not r.fallback for r in records
    )
    tracer.counts["geometry.select_width.fallbacks"] += bool(out.fallback)
    return len(records)


def _beps(tracer, args, out):
    tracer.counts["geometry.beps_partition.edge_rows"] += int(out.edge_indices.size)
    return out.n


def _gram(tracer, args, out):
    tracer.counts["kernels.gram_from_sqdist.calls"] += 1
    tracer.counts["kernels.gram_from_sqdist.cells"] += int(out.values.size)


def _kernel_matrix(tracer, args, out):
    tracer.counts["kernels.kernel_matrix.calls"] += 1
    tracer.counts["kernels.kernel_matrix.cells"] += int(out.size)


def _rows(tracer, args, out):
    return int(out.shape[0])


def _registry_size(tracer, args, out):
    return len(out.classes)


def _predict_detail(tracer, args, out):
    tracer.counts["cil.predict." + out.region.split("_")[0]] += 1
    tracer.counts["cil.disputes_voted"] += bool(out.votes)


SPAN, COUNT = "span", "count"

# (caller module, attribute, layer name, kind, hook). The layer name is the
# module that defines the function; the caller module is where it is looked
# up at call time, so patching it there sees every call on the benchmark path.
LAYERS = (
    ("sdcil.pairwise", "solve_binary_dual", "smo.solve_binary_dual", SPAN,
     _solve("smo.solve_binary_dual")),
    ("sdcil.geometry", "solve_ocsvm_dual", "smo.solve_ocsvm_dual", SPAN,
     _solve("smo.solve_ocsvm_dual")),
    ("sdcil.cil", "select_width", "geometry.select_width", SPAN, _select_width),
    ("sdcil.cil", "beps_partition", "geometry.beps_partition", SPAN, _beps),
    ("sdcil.cil", "train_pair", "pairwise.train_pair", SPAN, None),
    ("sdcil.cil", "candidate_widths", "kernels.candidate_widths", SPAN, None),
    ("sdcil.pairwise", "candidate_widths", "kernels.candidate_widths", SPAN, None),
    ("sdcil.geometry", "gram_from_sqdist", "kernels.gram_from_sqdist", COUNT, _gram),
    ("sdcil.pairwise", "gram_from_sqdist", "kernels.gram_from_sqdist", COUNT, _gram),
    ("sdcil.ocsvm", "kernel_matrix", "kernels.kernel_matrix", COUNT, _kernel_matrix),
    ("sdcil.pairwise", "kernel_matrix", "kernels.kernel_matrix", COUNT, _kernel_matrix),
    ("sdcil.cil", "decision_values", "ocsvm.decision_values", SPAN, _rows),
    ("sdcil.cil", "predict_pair", "pairwise.predict_pair", SPAN, None),
    ("sdcil.cil", "add_class", "cil.add_class", SPAN, _registry_size),
    ("sdcil.cil", "predict_detail", "cil.predict_detail", COUNT, _predict_detail),
)


class Tracer:
    """Records spans and counters for the layers in LAYERS while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack = [-1]

    def _span(self, layer, fn, hook):
        def wrapped(*args, **kwargs):
            idx = len(self.names)
            self.names.append(layer)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self.work.append(0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                self.work[idx] = hook(self, args, out) or 0
            return out

        return wrapped

    def _count(self, fn, hook):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(self, args, out)
            return out

        return wrapped

    @contextmanager
    def installed(self):
        """Patch every layer that exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, layer, kind, hook in LAYERS:
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.absent.add(f"{module_name.removeprefix('sdcil.')}.{attr}")
                    continue
                saved.append((module, attr, fn))
                wrapper = self._span(layer, fn, hook) if kind == SPAN else self._count(fn, hook)
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self) -> dict:
        """Per-layer totals derived from the recorded spans and counters."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_s = [0.0] * n
        last_solve = {}  # train_pair span -> its last binary-solve child
        pair_solves = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += dur[i]
                if self.names[i] == "smo.solve_binary_dual" and self.names[p] == "pairwise.train_pair":
                    last_solve[p] = i
                    pair_solves += 1

        calls, total_s, self_s, work = Counter(), defaultdict(float), defaultdict(float), Counter()
        add_class_s = defaultdict(list)
        for i, layer in enumerate(self.names):
            calls[layer] += 1
            total_s[layer] += dur[i]
            self_s[layer] += dur[i] - child_s[i]
            work[layer] += self.work[i]
            if layer == "cil.add_class":
                add_class_s[self.work[i]].append(dur[i])
        refits = list(last_solve.values())
        return {
            "calls": calls,
            "s": total_s,
            "self_s": self_s,
            "work": work,
            "counts": self.counts,
            "refit_s": sum(dur[i] for i in refits),
            "refit_iterations": sum(self.work[i] for i in refits),
            "refits": len(refits),
            "pair_solves": pair_solves,
            "add_class_s": {k: statistics.median(v) for k, v in add_class_s.items()},
            "absent": sorted(self.absent),
        }
