"""Command-line front end: train, add-class, predict, evaluate, map, bench.

Exit codes: 0 success, 2 input/data error, 3 training failure. A file
that cannot be read or written is an input error, named in the message.
Every command is deterministic given its --seed flags.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cil
from .dataset import (
    DataError,
    LabeledDataset,
    SplitSpec,
    UCI_DATASETS,
    fit_standardize,
    load_csv,
    load_features_csv,
    load_uci,
    make_toy,
    make_waveform,
    save_csv,
    stratified_split,
)
from .pairwise import CvConfig
from .smo import SolverConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRAINING = 3

METHODS = ("sdcil", "knn", "ocsvm-nn", "batch-svm")

# Published benchmark means (percent) the bench command reports deltas
# against; keyed by (dataset, method).
PAPER_MEANS = {
    ("iris", "sdcil"): 95.78, ("iris", "batch-svm"): 96.89,
    ("iris", "knn"): 95.78, ("iris", "ocsvm-nn"): 94.22,
    ("seeds", "sdcil"): 92.06, ("seeds", "batch-svm"): 90.00,
    ("seeds", "knn"): 90.16, ("seeds", "ocsvm-nn"): 91.59,
    ("pima", "sdcil"): 74.43, ("pima", "batch-svm"): 77.43,
    ("pima", "knn"): 73.91, ("pima", "ocsvm-nn"): 66.65,
    ("waveform", "sdcil"): 85.26, ("waveform", "batch-svm"): 86.75,
    ("waveform", "knn"): 82.65, ("waveform", "ocsvm-nn"): 74.77,
    ("transfusion", "sdcil"): 76.34, ("transfusion", "batch-svm"): 77.72,
    ("transfusion", "knn"): 77.86, ("transfusion", "ocsvm-nn"): 69.42,
}

# Per-dataset nu settings used by the benchmark harness.
NU_BY_DATASET = {"pima": 0.3, "seeds": 0.3}
DEFAULT_NU = 0.2


def bench_cil_config(nu: float) -> cil.CilConfig:
    """Evaluation-harness config: default width sweep, reduced CV grid so a
    full benchmark run stays desk-scale."""
    return cil.CilConfig(
        nu_default=nu,
        cv=CvConfig(folds=3, cost_grid=(0.125, 0.5, 2.0, 8.0, 32.0, 128.0), width_count=10),
        solver=SolverConfig(),
    )


@dataclass(frozen=True)
class TrialResult:
    seed: int
    accuracy: float  # fraction in [0, 1]
    unique_pos: int
    multi_pos: int
    none_pos: int
    train_seconds: float


@dataclass(frozen=True)
class EvalReport:
    method: str
    dataset: str
    trials: tuple[TrialResult, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([t.accuracy for t in self.trials]))

    @property
    def std_accuracy(self) -> float:
        accs = [t.accuracy for t in self.trials]
        return float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0

    def summary(self) -> str:
        m, s = self.mean_accuracy, self.std_accuracy
        return (
            f"{self.method} on {self.dataset}: {100 * m:.2f} +- {100 * s:.3f} percent "
            f"(std as fraction: {s:.4f}; {len(self.trials)} trials)"
        )


def _fit_cil(train: LabeledDataset, config: cil.CilConfig, nu: float):
    """Standardize, then register every class in sorted label order."""
    t0 = time.perf_counter()
    scaler, _ = fit_standardize(train)
    model = cil.new_model(config, scaler)
    for label in train.class_ids:
        model = cil.add_class(model, label, train.rows_of(label), nu)
    return model, time.perf_counter() - t0


def run_trials(
    ds: LabeledDataset,
    dataset_name: str,
    methods: tuple[str, ...],
    trials: int = 10,
    base_seed: int = 0,
    config: cil.CilConfig | None = None,
    nu: float | None = None,
    train_fraction: float = 0.7,
) -> dict[str, EvalReport]:
    """Seeded stratified splits, one model per trial, accuracy per method.

    sdcil and ocsvm-nn share the trial's trained registry (they differ only
    in dispute strategy), so requesting both costs one training.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; want one of {METHODS}")
    nu = NU_BY_DATASET.get(dataset_name, DEFAULT_NU) if nu is None else nu
    config = config or bench_cil_config(nu)
    results: dict[str, list[TrialResult]] = {m: [] for m in methods}

    for t in range(trials):
        seed = base_seed + t
        train, test = stratified_split(ds, SplitSpec(train_fraction, seed=seed))
        need_cil = bool({"sdcil", "ocsvm-nn"} & set(methods))
        if need_cil:
            model, fit_s = _fit_cil(train, config, nu)
            labels, regions = cil.predict_labels(model, test.features)
            unique_pos, multi_pos, none_pos = np.bincount(regions, minlength=len(cil.REGIONS)).tolist()
            correct_vote = int(np.sum(labels == test.labels))
            correct_nn = 0
            if "ocsvm-nn" in methods:
                correct_nn = int(np.sum(cil.ocsvm_nn_labels(model, test.features) == test.labels))
            for m, correct in (("sdcil", correct_vote), ("ocsvm-nn", correct_nn)):
                if m in methods:
                    results[m].append(
                        TrialResult(
                            seed=seed, accuracy=float(correct) / test.n,
                            unique_pos=unique_pos, multi_pos=multi_pos, none_pos=none_pos,
                            train_seconds=fit_s,
                        )
                    )
        if "knn" in methods:
            t0 = time.perf_counter()
            scaler, std_train = fit_standardize(train)
            fit_s = time.perf_counter() - t0
            Xt = scaler.transform(test.features)
            correct = int(np.sum(cil.knn_labels(std_train, Xt, k=1) == test.labels))
            results["knn"].append(
                TrialResult(seed=seed, accuracy=float(correct) / test.n, unique_pos=0,
                            multi_pos=0, none_pos=0, train_seconds=fit_s)
            )
        if "batch-svm" in methods:
            t0 = time.perf_counter()
            scaler, std_train = fit_standardize(train)
            svm = cil.train_batch_svm(std_train, config.cv, config.solver)
            fit_s = time.perf_counter() - t0
            Xt = scaler.transform(test.features)
            correct = int(np.sum(cil.batch_svm_classify(svm, Xt) == test.labels))
            results["batch-svm"].append(
                TrialResult(seed=seed, accuracy=float(correct) / test.n, unique_pos=0,
                            multi_pos=0, none_pos=0, train_seconds=fit_s)
            )
    return {m: EvalReport(method=m, dataset=dataset_name, trials=tuple(rs))
            for m, rs in results.items()}


def _write_report_csv(reports: list[EvalReport], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["method", "dataset", "trial", "seed", "accuracy",
                    "unique_pos", "multi_pos", "none_pos", "train_seconds"])
        for rep in reports:
            for i, t in enumerate(rep.trials):
                w.writerow([rep.method, rep.dataset, i, t.seed, repr(t.accuracy),
                            t.unique_pos, t.multi_pos, t.none_pos, f"{t.train_seconds:.6f}"])


# --- commands ----------------------------------------------------------------


def _resolve_label(token: str, names: dict[int, str]) -> int:
    for lbl, name in names.items():
        if name == token:
            return lbl
    try:
        return int(token)
    except ValueError:
        raise DataError(f"unknown class label {token!r}; known: {sorted(names.values())}")


def _check_out(path) -> None:
    """DataError unless path names a file in an existing directory, so that a
    command learns of a bad output path before it trains."""
    out = Path(path)
    if out.is_dir():
        raise DataError(f"cannot write {out}: it is a directory")
    if not out.parent.is_dir():
        raise DataError(f"cannot write {out}: no directory {out.parent}")


def cmd_train(args) -> int:
    _check_out(args.out)
    ds = load_csv(args.data)
    scaler_ds = load_csv(args.scaler_data) if args.scaler_data else ds
    scaler, _ = fit_standardize(scaler_ds)
    order = (
        [_resolve_label(t, ds.label_names) for t in args.order.split(",")]
        if args.order
        else ds.class_ids
    )
    unknown = [l for l in order if l not in ds.class_ids]
    if unknown:
        raise DataError(f"--order names classes not in the data: {unknown}")
    config = bench_cil_config(args.nu)
    model = cil.new_model(config, scaler)
    print(f"label ids: {ds.label_names}")
    for label in order:
        t0 = time.perf_counter()
        model = cil.add_class(model, label, ds.rows_of(label), args.nu)
        m = model.class_model(label)
        frac = m.m / m.train_count
        print(
            f"class {label}: width={m.width:.5g} sv_fraction={frac:.3f} "
            f"({m.m}/{m.train_count} SVs) in {time.perf_counter() - t0:.2f}s"
        )
    cil.save(model, args.out)
    print(f"{len(model.classes)} classes, {len(model.pair_table)} pairwise classifiers -> {args.out}")
    return EXIT_OK


def cmd_add_class(args) -> int:
    out = args.out or args.model
    _check_out(out)
    model = cil.load(args.model)
    X = load_features_csv(args.data)
    t0 = time.perf_counter()
    model = cil.add_class(model, args.label, X, args.nu)
    dt = time.perf_counter() - t0
    cil.save(model, out)
    k = len(model.classes)
    print(f"added class {args.label} in {dt:.2f}s (+1 model, +{k - 1} pairs) -> {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = cil.load(args.model)
    if not model.classes:
        raise DataError("model has no classes registered")
    d = model.classes[0].d
    ds = None
    X = load_features_csv(args.data)
    if X.shape[1] == d + 1:  # labeled file: last column is the class
        ds = load_csv(args.data)
        X = ds.features
    elif X.shape[1] != d:
        raise DataError(f"model expects {d} features, file has {X.shape[1]} columns")
    preds, regions = cil.predict_labels(model, X)
    for p in preds.tolist():
        print(p)
    if ds is not None:
        acc = float(np.mean(preds == ds.labels))
        print(f"accuracy: {100 * acc:.2f} percent on {ds.n} rows", file=sys.stderr)
    unique, multi, none = np.bincount(regions, minlength=len(cil.REGIONS)).tolist()
    # a multi row has two candidates or more, and so has a none row once
    # two classes are registered
    voted = multi + none if len(model.classes) > 1 else 0
    print(f"regions: {unique} unique, {multi} multi, {none} none; {voted} rows voted", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.out:
        _check_out(args.out)
    ds = load_csv(args.data)
    name = Path(args.data).stem
    rep = run_trials(ds, name, (args.method,), trials=args.trials, base_seed=args.seed, nu=args.nu)[args.method]
    print(rep.summary())
    for i, t in enumerate(rep.trials):
        print(
            f"  trial {i} seed={t.seed}: acc={100 * t.accuracy:.2f}% "
            f"regions unique/multi/none = {t.unique_pos}/{t.multi_pos}/{t.none_pos} "
            f"train={t.train_seconds:.2f}s"
        )
    if args.out:
        _write_report_csv([rep], args.out)
        print(f"report -> {args.out}")
    return EXIT_OK


def _write_pgm(path, grid: np.ndarray, maxval: int) -> None:
    h, w = grid.shape
    lines = [f"P2\n{w} {h}\n{max(maxval, 1)}\n"]
    for row in grid:
        lines.append(" ".join(str(int(v)) for v in row) + "\n")
    Path(path).write_text("".join(lines), encoding="ascii")


def map_grid(model: cil.CilModel, bounds, res) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Label and region rasters over cell centers; top row is ymax. A region
    cell holds the region's position in cil.REGIONS."""
    xmin, xmax, ymin, ymax = bounds
    w, h = res
    xs = xmin + (np.arange(w) + 0.5) * (xmax - xmin) / w
    ys = ymax - (np.arange(h) + 0.5) * (ymax - ymin) / h
    gx, gy = np.meshgrid(xs, ys)
    labels, regions = cil.predict_labels(model, np.column_stack([gx.ravel(), gy.ravel()]))
    # the narrowest integer types that hold the values: a caller that keeps
    # many rasters (perfbench keeps every one) holds a fraction of int64's bytes
    label_type = np.result_type(*map(np.min_scalar_type, (min(model.labels), max(model.labels))))
    return labels.reshape(h, w).astype(label_type), regions.reshape(h, w), xs, ys


def cmd_map(args) -> int:
    model = cil.load(args.model)
    if not model.classes or model.classes[0].d != 2:
        raise DataError("map requires a 2-dimensional model")
    bounds = tuple(float(v) for v in args.bounds.split(","))
    if len(bounds) != 4 or bounds[0] >= bounds[1] or bounds[2] >= bounds[3]:
        raise DataError("--bounds must be xmin,xmax,ymin,ymax with min < max")
    res = tuple(int(v) for v in args.res.split(","))
    if len(res) != 2 or res[0] < 1 or res[1] < 1:
        raise DataError("--res must be W,H with positive integers")
    labels, regions, _, _ = map_grid(model, bounds, res)
    _write_pgm(f"{args.out}_labels.pgm", labels, int(labels.max()))
    _write_pgm(f"{args.out}_regions.pgm", regions, 2)
    with open(f"{args.out}_svs.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "label"])
        for m in model.classes:
            raw = model.scaler.inverse(m.support_vectors) if model.scaler else m.support_vectors
            for row in raw:
                w.writerow([repr(float(row[0])), repr(float(row[1])), m.class_label])
    print(f"wrote {args.out}_labels.pgm, {args.out}_regions.pgm, {args.out}_svs.csv")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.out:
        _check_out(args.out)
    rows = []
    for name in UCI_DATASETS:
        try:
            ds = load_uci(name, args.datasets)
        except DataError as e:
            print(f"warning: skipping {name}: {e}", file=sys.stderr)
            continue
        nu = NU_BY_DATASET.get(name, DEFAULT_NU)
        print(f"== {name} (nu={nu}) ==")
        reports = run_trials(
            ds, name, tuple(args.methods.split(",")), trials=args.trials, base_seed=args.seed
        )
        for method, rep in reports.items():
            paper = PAPER_MEANS.get((name, method))
            delta = 100 * rep.mean_accuracy - paper if paper is not None else float("nan")
            print(f"  {rep.summary()}  [paper mean {paper}, delta {delta:+.2f}]")
            rows.append(
                [name, method, repr(100 * rep.mean_accuracy), repr(100 * rep.std_accuracy),
                 repr(rep.std_accuracy), paper, repr(delta)]
            )
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["dataset", "method", "mean_pct", "std_pct", "std_fraction",
                        "paper_mean_pct", "delta_pct"])
            w.writerows(rows)
        print(f"matrix -> {args.out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.shape == "waveform":
        ds = make_waveform(seed=args.seed)
    else:
        ds = make_toy(args.shape, args.n_per_class, args.seed)
    save_csv(ds, args.out)
    print(f"{ds.n} x {ds.d} rows, {len(ds.class_ids)} classes -> {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sdcil", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a labeled CSV")
    t.add_argument("data")
    t.add_argument("--out", required=True)
    t.add_argument("--nu", type=float, default=DEFAULT_NU)
    t.add_argument("--order", help="comma-separated class order; unlisted classes are skipped")
    t.add_argument("--scaler-data", help="fit the feature scaler on this CSV instead of DATA")
    t.set_defaults(func=cmd_train)

    a = sub.add_parser("add-class", help="register one new class from a features-only CSV")
    a.add_argument("model")
    a.add_argument("data")
    a.add_argument("--label", type=int, required=True)
    a.add_argument("--nu", type=float, default=None)
    a.add_argument("--out", help="output path (default: overwrite MODEL)")
    a.set_defaults(func=cmd_add_class)

    pr = sub.add_parser("predict", help="predict labels for CSV rows")
    pr.add_argument("model")
    pr.add_argument("data")
    pr.set_defaults(func=cmd_predict)

    e = sub.add_parser("evaluate", help="seeded 70/30 trials of one method on one CSV")
    e.add_argument("data")
    e.add_argument("--method", choices=METHODS, default="sdcil")
    e.add_argument("--trials", type=int, default=10)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--nu", type=float, default=None)
    e.add_argument("--out")
    e.set_defaults(func=cmd_evaluate)

    m = sub.add_parser("map", help="rasterize a 2D model's decision map")
    m.add_argument("model")
    m.add_argument("--bounds", required=True, help="xmin,xmax,ymin,ymax")
    m.add_argument("--res", required=True, help="W,H")
    m.add_argument("--out", required=True, help="output prefix")
    m.set_defaults(func=cmd_map)

    b = sub.add_parser("bench", help="benchmark matrix over the five reference datasets")
    b.add_argument("--datasets", help="directory holding seeds.csv, pima.csv, transfusion.csv")
    b.add_argument("--out")
    b.add_argument("--trials", type=int, default=10)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--methods", default=",".join(METHODS))
    b.set_defaults(func=cmd_bench)

    g = sub.add_parser("generate", help="write a generated dataset as CSV")
    g.add_argument("--shape", choices=("blobs", "rings", "moons-like", "waveform"), required=True)
    g.add_argument("--n-per-class", type=int, default=200)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, cil.ModelFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        if e.filename is None:  # not a file the command was given
            raise
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as e:
        print(f"training error: {e}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
