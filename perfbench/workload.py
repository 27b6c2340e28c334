"""One benchmark workload, run in its own process by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

Expects PYTHONPATH to hold the checkout's ``src`` and BLAS to be pinned to
one thread (run.py does both). Prints one JSON line: the end-to-end metrics,
the checked-operation counts, the environment and, with ``--trace 1``, the
per-layer metrics of a tracer installed around every measured phase.

With tracing off, set-up repeats for 5 s, the timed operation for
``--seconds``, and per-row prediction rounds for ``--seconds`` again (a
quarter of that on blobs-map), all interleaved over the run so that the
reported figures are steady. With tracing on, each runs a fixed number of
times, so two traced runs of one seed give identical hardware-independent
counts. Workload rationale and the layer each metric should move are in
README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

import sdcil  # noqa: E402  (PYTHONPATH is set by run.py)
from sdcil import CilConfig, CvConfig, LabeledDataset, SolverConfig, SplitSpec  # noqa: E402
from sdcil import cil, cli  # noqa: E402
from sdcil.dataset import fit_standardize, make_toy, make_waveform, stratified_split  # noqa: E402

from tracing import Tracer  # noqa: E402

NU = 0.2
# Fixed here, not taken from the program, so a change to program defaults
# cannot silently change the workload: 30 width candidates per class, and a
# 3-fold CV grid of 6 costs x 10 widths (181 binary solves per pair).
CONFIG = CilConfig(
    nu_default=NU,
    width_count=30,
    cv=CvConfig(folds=3, cost_grid=(0.125, 0.5, 2.0, 8.0, 32.0, 128.0), width_count=10),
    solver=SolverConfig(),
)

# Untraced budgets, as (seconds to measure, fewest steps, most steps):
# set-up, whose median repetition is setup_s; the timed operation, which runs
# at least twice so that a fit longer than --seconds is still measured more
# than once; and per-row prediction rounds, each one pass over one
# (model, rows) pair. Traced, each runs its fewest steps, so that counts do
# not depend on the machine.
SETUP_BUDGET = (5.0, 3, 200)
MIN_OPS, PREDICT_ROUNDS = 2, 2
# Distinct inputs prepared for the timed operations of one run; a run that
# makes more operations than this reuses them in turn.
OP_INPUTS = 4

# Accuracy floors checked on every run: well below what the workloads reach
# (waveform about 0.85, blobs-grow about 0.95, blobs-map about 1.0), so they
# only catch a broken classifier.
ACCURACY_FLOOR = {"waveform-trial": 0.78, "blobs-grow": 0.85, "blobs-map": 0.95}

GROW_CLASSES, GROW_TRAIN, GROW_TEST, GROW_SPACING, GROW_SCALE = 10, 60, 100, 3.5, 0.8
MAP_RES, MAP_PAD, MAP_SAMPLE = (100, 100), 0.25, 200
HELD_OUT_SEED = 1_000_003  # offset: held-out blob rows never share the training seed


class Checks:
    """Counts operations whose output was checked; failures include exceptions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; it failed unless its output check held."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"check failed: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        """Count the exception being handled as one failed operation."""
        self.attempted += 1
        self.failed += 1
        if self.failed <= 10:
            print(f"exception in {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def valid_detail(d, registered) -> bool:
    """The label is registered, and a row with exactly one positive class
    is in the unique region and gets that class."""
    positive = [lbl for lbl, v in d.ocsvm_values.items() if v > 0.0]
    unique = len(positive) == 1
    if unique != (d.region == cil.REGION_UNIQUE):
        return False
    if unique and d.label != positive[0]:
        return False
    return d.label in registered


def fit(train: LabeledDataset, checks: Checks):
    """Standardize, then register every class in label order."""
    scaler, _ = fit_standardize(train)
    model = cil.new_model(CONFIG, scaler)
    for label in train.class_ids:
        try:
            grown = cil.add_class(model, label, train.rows_of(label), NU)
        except Exception:  # counted; the remaining classes still register
            checks.error(f"add_class {label}")
            continue
        checks.op(grown.labels == model.labels + [label], f"add_class {label}")
        model = grown
    return model


class Activity:
    """One kind of timed step in a run, with the seconds it must measure
    and the fewest and most steps it may take.

    step(i) runs the i-th step; after(i, out), if given, runs untimed after
    each step with the step's result."""

    def __init__(self, step, budget, after=None):
        self.step, self.after = step, after
        self.seconds, self.least, self.most = budget
        self.times = []

    def done(self) -> bool:
        n = len(self.times)
        return n >= self.least and (sum(self.times) >= self.seconds
                                    or (self.most is not None and n >= self.most))

    def progress(self) -> float:
        """Share done, of the seconds to measure (at least `least` steps'
        worth) or of the most steps."""
        n = len(self.times)
        if not n:
            return 0.0
        planned = max(self.seconds, self.least * sum(self.times) / n)
        share = sum(self.times) / planned if planned > 0 else 1.0
        return max(share, n / self.most) if self.most is not None else share

    def run_step(self) -> None:
        i = len(self.times)
        gc.collect()
        t0 = time.perf_counter()
        out = self.step(i)
        self.times.append(time.perf_counter() - t0)
        if self.after is not None:
            self.after(i, out)


def interleave(*activities: Activity) -> None:
    """Step the unfinished activity furthest behind, the earliest listed on
    a tie, until all are done. Steps of every kind are thus spread over the
    whole run: the machine's speed drifts over seconds to tens of seconds,
    and a phase of its own would catch one such stretch alone. The first
    steps run in list order, so each activity may use what an earlier
    one's first step made."""
    while todo := [a for a in activities if not a.done()]:
        min(todo, key=Activity.progress).run_step()


def budgets(seconds: float, predict_seconds: float, traced: bool):
    """Budgets of set-up, the timed operation and prediction rounds."""
    if traced:
        return (0.0, 1, 1), (0.0, 1, 1), (0.0, PREDICT_ROUNDS, PREDICT_ROUNDS)
    return SETUP_BUDGET, (seconds, MIN_OPS, None), (predict_seconds, PREDICT_ROUNDS, None)


def predict_pass(model, X: np.ndarray, checks: Checks):
    """One per-row predict_detail pass over the rows of X. Returns the
    per-row latencies in seconds and the details (None where a call raised)."""
    registered = set(model.labels)
    latencies, details = [], []
    for x in X:
        t0 = time.perf_counter()
        try:
            d = cil.predict_detail(model, x)
        except Exception:
            checks.error("predict_detail")
            details.append(None)
            continue
        latencies.append(time.perf_counter() - t0)
        checks.op(valid_detail(d, registered), "predict_detail output")
        details.append(d)
    return latencies, details


class PredictPhase:
    """Per-row prediction in rounds, each one pass over one (model, rows)
    pair; the pair with the fewest rounds goes next, so a pair added
    between rounds is served at once.

    Keeps each round's pair, row count, seconds and latency percentiles,
    and each pair's first-round details (None where a call raised)."""

    def __init__(self, checks: Checks):
        self.checks = checks
        self.pairs, self.details, self.rounds_of = [], [], []
        self.rounds = []

    def add(self, model, X: np.ndarray) -> None:
        """Register a pair after one untimed warm-up call."""
        try:
            cil.predict_detail(model, X[0])
        except Exception:
            self.checks.error("predict_detail warm-up")
        self.pairs.append((model, X))
        self.details.append(None)
        self.rounds_of.append(0)

    def round(self, _=None) -> None:
        i = self.rounds_of.index(min(self.rounds_of))
        latencies, details = predict_pass(*self.pairs[i], self.checks)
        if self.details[i] is None:
            self.details[i] = details
        self.rounds_of[i] += 1
        lat = np.asarray(latencies, dtype=float) if latencies else np.zeros(1)
        p50, p90 = 1e6 * np.percentile(lat, (50, 90))
        self.rounds.append((i, len(latencies), sum(latencies), float(p50), float(p90)))

    def results(self):
        """The latency metrics, and an info record with the sample counts
        and the first pair's throughput, which a traced run repeats.

        Throughput is rows over seconds of all rounds, and each percentile
        is its mean over rounds. The machine switches between fast and slow
        spells, so a run's rounds mix two speeds in shares that vary from
        run to run; a mean moves with those shares smoothly, where a median
        jumps between the two speeds. Within one round the speed barely
        changes, whereas percentiles of rows pooled over the run would mix
        the region mix's latency modes at both speeds."""
        _, rows, secs, p50s, p90s = zip(*self.rounds)
        first = [(n, t) for pair, n, t, _, _ in self.rounds if pair == 0]
        info = {"predict_row_samples": sum(rows), "predict_rounds": len(self.rounds),
                "first_predict_rows_per_s": ratio(*map(sum, zip(*first)))}
        return {
            "predict_rows_per_s": ratio(sum(rows), sum(secs)),
            "predict_row_p50_us": statistics.mean(p50s),
            "predict_row_p90_us": statistics.mean(p90s),
        }, info


def ratio(count, seconds) -> float:
    """count / seconds; 0 when nothing was measured."""
    return count / seconds if seconds > 0 else 0.0


def accuracy(details, y, workload: str, checks: Checks) -> float:
    """Share of correct labels (a call that raised counts as wrong); below
    the workload's floor it is a failed operation."""
    acc = float(np.mean([d is not None and d.label == t for d, t in zip(details, y)]))
    checks.op(acc >= ACCURACY_FLOOR[workload], f"accuracy {acc:.4f} above floor")
    return acc


def op_seed(seed: int, i: int) -> int:
    """Seed of the inputs of a run's i-th timed operation or set-up."""
    return 1000 * seed + i


# --- workloads ----------------------------------------------------------------


def fit_workload(name: str, make_inputs, seconds, tracer, checks):
    """Set-up makes OP_INPUTS (train, test) pairs; the timed operation fits
    their training sets in turn, and each model predicts its own test rows
    in rounds spread between the fits and after them."""
    traced = tracer is not None
    setup_budget, op_budget, predict_budget = budgets(seconds, seconds, traced)
    inputs, phase = [], PredictPhase(checks)

    def keep_inputs(i, out):
        if i == 0:
            inputs.extend(out)

    def fit_op(i):
        return fit(inputs[i % OP_INPUTS][0], checks)

    def add_model(i, model):
        phase.add(model, inputs[i % OP_INPUTS][1].features)

    setup = Activity(make_inputs, setup_budget, after=keep_inputs)
    fits = Activity(fit_op, op_budget, after=add_model)
    with tracer.installed() if traced else nullcontext():
        interleave(setup, fits, Activity(phase.round, predict_budget))
        while None in phase.details:  # the last model fitted may not have predicted yet
            phase.round()
    predicted, info = phase.results()
    tests = itertools.cycle(test for _, test in inputs)
    acc = statistics.mean(
        accuracy(d, t.labels, name, checks) for d, t in zip(phase.details, tests)
    )
    return {"setup_s": statistics.median(setup.times), "fit_s": statistics.mean(fits.times),
            **predicted, "accuracy": acc}, {"fits": fits.times, **info}


def waveform_trial(seed, seconds, tracer, checks):
    """Table II trials on the generated 5,000-row waveform set: each timed
    fit uses its own 70/30 split and predicts that split's test rows."""

    def make_inputs(_):
        ds = make_waveform(n=5000, seed=seed)
        return [stratified_split(ds, SplitSpec(0.7, seed=op_seed(seed, i)))
                for i in range(OP_INPUTS)]

    return fit_workload("waveform-trial", make_inputs, seconds, tracer, checks)


def make_grow_blobs(seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Ten 2-D Gaussian classes centred on a fixed 5 x 2 grid; neighbours
    overlap a little, so held-out rows reach the multi and none regions.
    The seed draws the rows, not the layout, so the work per seed is alike."""
    rng = np.random.default_rng(seed)
    grid = np.array([(i % 5, i // 5) for i in range(GROW_CLASSES)], dtype=float)
    centers = GROW_SPACING * grid

    def draw(n):
        y = np.repeat(np.arange(GROW_CLASSES), n)
        X = centers[y] + rng.normal(scale=GROW_SCALE, size=(y.size, 2))
        return LabeledDataset(features=X, labels=y)

    return draw(GROW_TRAIN), draw(GROW_TEST)


def blobs_grow(seed, seconds, tracer, checks):
    """Ten classes registered one at a time into an empty registry; each
    timed fit draws its own rows and predicts held-out rows of its draw."""

    def make_inputs(_):
        return [make_grow_blobs(op_seed(seed, i)) for i in range(OP_INPUTS)]

    return fit_workload("blobs-grow", make_inputs, seconds, tracer, checks)


def blobs_map(seed, seconds, tracer, checks):
    """cli.map_grid over the padded bounding box of a 3-class blobs model
    trained during set-up, with per-row prediction of held-out rows spread
    between the map calls. Each set-up repetition trains on its own draw,
    so fit_s is a mean over draws; the first draw's model is the one
    mapped."""
    traced = tracer is not None
    # the map is this workload's main measure; its held-out rows, mostly in
    # the unique region, predict steadily in a shorter budget
    setup_budget, op_budget, predict_budget = budgets(seconds, seconds / 4, traced)
    held = make_toy("blobs", 100, op_seed(seed, 0) + HELD_OUT_SEED)
    phase = PredictPhase(checks)
    fits, maps = [], []
    model = bounds = None

    def setup(i):
        ds = make_toy("blobs", 150, op_seed(seed, i))
        t0 = time.perf_counter()
        grown = fit(ds, checks)
        fits.append(time.perf_counter() - t0)
        return ds, grown

    def keep_first(i, out):
        nonlocal model, bounds
        if i == 0:
            ds, model = out
            lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
            pad = MAP_PAD * (hi - lo)
            bounds = (lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])
            phase.add(model, held.features)

    def map_once(_):
        try:
            maps.append(cli.map_grid(model, bounds, MAP_RES))
        except Exception:
            checks.error("map_grid")

    setup_runs = Activity(setup, setup_budget, after=keep_first)
    calls = Activity(map_once, op_budget)
    with tracer.installed() if traced else nullcontext():
        interleave(setup_runs, calls, Activity(phase.round, predict_budget))
    predicted, info = phase.results()
    check_maps(model, maps, seed, checks)
    # throughput here is the map's: cells over seconds of all calls
    cells = MAP_RES[0] * MAP_RES[1]
    predicted["predict_rows_per_s"] = ratio(cells * len(calls.times), sum(calls.times))
    info["first_predict_rows_per_s"] = cells / calls.times[0]
    return {"setup_s": statistics.median(setup_runs.times), "fit_s": statistics.mean(fits),
            **predicted,
            "accuracy": accuracy(phase.details[0], held.labels, "blobs-map", checks)}, {
        "fits": fits, "map_calls": len(calls.times), **info}


def check_maps(model, maps, seed: int, checks: Checks) -> None:
    """Every raster repeats the first and holds registered labels; on a
    fixed sample of cells it equals per-row predict_detail."""
    if not maps:
        return
    labels0, regions0, xs, ys = maps[0]
    for labels, regions, _, _ in maps:
        checks.op(
            np.array_equal(labels, labels0) and np.array_equal(regions, regions0)
            and bool(np.isin(labels, model.labels).all()),
            "map_grid raster",
        )
    code = {cil.REGION_UNIQUE: 0, cil.REGION_MULTI: 1, cil.REGION_NONE: 2}
    rows = np.random.default_rng(seed).choice(labels0.size, MAP_SAMPLE, replace=False)
    cells = [divmod(int(i), labels0.shape[1]) for i in rows]
    _, details = predict_pass(model, np.array([(xs[c], ys[r]) for r, c in cells]), checks)
    for (r, c), d in zip(cells, details):
        checks.op(
            d is not None and d.label == labels0[r, c] and code[d.region] == regions0[r, c],
            f"map cell ({r}, {c}) agrees with predict_detail",
        )


WORKLOADS = {
    "waveform-trial": waveform_trial,
    "blobs-grow": blobs_grow,
    "blobs-map": blobs_map,
}

# --- per-layer metrics ----------------------------------------------------------


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)} from Tracer.summary()."""
    calls, sec, self_s, work, counts = t["calls"], t["s"], t["self_s"], t["work"], t["counts"]
    m = {}
    for layer in ("smo.solve_binary_dual", "smo.solve_ocsvm_dual"):
        it = work[layer]
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.iterations"] = (it, "count")
        m[f"{layer}.s"] = (sec[layer], "s")
        m[f"{layer}.us_per_iter"] = (1e6 * sec[layer] / it if it else 0.0, "us/iter")
        m[f"{layer}.unconverged"] = (counts[f"{layer}.unconverged"], "count")
    sw = "geometry.select_width"
    m[f"{sw}.s"] = (sec[sw], "s")
    m[f"{sw}.self_s"] = (self_s[sw], "s")
    for key in ("candidates", "admitted", "fallbacks"):
        m[f"{sw}.{key}"] = (counts[f"{sw}.{key}"], "count")
    bp = "geometry.beps_partition"
    m[f"{bp}.s"] = (sec[bp], "s")
    m[f"{bp}.rows"] = (work[bp], "count")
    m[f"{bp}.edge_frac"] = (counts[f"{bp}.edge_rows"] / work[bp] if work[bp] else 0.0, "frac")
    tp = "pairwise.train_pair"
    m[f"{tp}.calls"] = (calls[tp], "count")
    m[f"{tp}.s"] = (sec[tp], "s")
    m[f"{tp}.self_s"] = (self_s[tp], "s")
    m["pairwise.cv_solves"] = (t["pair_solves"] - t["refits"], "count")
    m["pairwise.refit.s"] = (t["refit_s"], "s")
    m["pairwise.refit.iterations"] = (t["refit_iterations"], "count")
    for key in ("kernels.gram_from_sqdist", "kernels.kernel_matrix"):
        m[f"{key}.calls"] = (counts[f"{key}.calls"], "count")
        m[f"{key}.cells"] = (counts[f"{key}.cells"], "count")
    cw = "kernels.candidate_widths"
    m[f"{cw}.calls"] = (calls[cw], "count")
    m[f"{cw}.s"] = (sec[cw], "s")
    dv = "ocsvm.decision_values"
    m[f"{dv}.calls"] = (calls[dv], "count")
    m[f"{dv}.rows"] = (work[dv], "count")
    m[f"{dv}.s"] = (sec[dv], "s")
    pp = "pairwise.predict_pair"
    m[f"{pp}.calls"] = (calls[pp], "count")
    m[f"{pp}.s"] = (sec[pp], "s")
    for region in ("unique", "multi", "none"):
        m[f"cil.predict.{region}"] = (counts[f"cil.predict.{region}"], "count")
    m["cil.disputes_voted"] = (counts["cil.disputes_voted"], "count")
    # k = registry size after the add; 0.0 where the workload has fewer classes
    for k in range(1, GROW_CLASSES + 1):
        m[f"cil.add_class.k{k:02d}_s"] = (t["add_class_s"].get(k, 0.0), "s")
    m["trace.absent_layers"] = (len(t["absent"]), "count")
    return m


E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_rows_per_s": "rows/s",
    "predict_row_p50_us": "us",
    "predict_row_p90_us": "us",
    "accuracy": "frac",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not Path(sdcil.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported sdcil from {sdcil.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    checks = Checks()
    metrics, info = WORKLOADS[args.workload](args.seed, args.seconds, tracer, checks)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "info": {**info, **environment()},
    }
    if tracer is not None:
        summary = tracer.summary()
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(summary).items()}
        out["info"]["absent_layers"] = summary["absent"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
