"""Class-incremental registry, prediction pipeline, persistence, baselines.

Adding a class trains exactly one one-class SVM (on that class's rows) and
one dispute classifier per existing class (on stored support vectors only);
nothing previously trained is touched, and raw class data is discarded once
the support vectors are extracted. Prediction first asks every class model;
a single positive answer decides immediately, otherwise the dispute
classifiers of the candidate classes vote.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .dataset import DataError, LabeledDataset, Scaler
from .geometry import (
    DEFAULT_SIDE_THRESHOLD,
    WidthSelection,
    beps_partition,
    default_k_neighbors,
    select_width,
)
from .kernels import candidate_widths, kernel_matrix
from .ocsvm import NU_SOFT_RANGE, OcsvmModel, decision_values
from .pairwise import CvConfig, PairwiseClassifier, predict_pair, train_pair
from .smo import SolverConfig

FORMAT_VERSION = 1

REGION_UNIQUE = "unique_positive"
REGION_MULTI = "multi_positive"
REGION_NONE = "none_positive"


class ModelFormatError(ValueError):
    """Raised for unreadable or incompatible model files."""


@dataclass(frozen=True)
class CilConfig:
    """Training-time knobs shared by every class added to a registry."""

    nu_default: float = 0.2
    k_neighbors: int | None = None  # None -> max(5, ceil(sqrt(n))), capped at n-1
    side_threshold: float = DEFAULT_SIDE_THRESHOLD
    width_count: int = 30
    cv: CvConfig = field(default_factory=CvConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)


@dataclass(frozen=True)
class PredictionDetail:
    label: int
    region: str
    possible: tuple[int, ...]
    ocsvm_values: dict[int, float]
    votes: dict[int, int]


@dataclass(frozen=True)
class CilModel:
    """Registry of per-class models plus the dispute-classifier table."""

    config: CilConfig
    scaler: Scaler | None = None
    classes: tuple[OcsvmModel, ...] = ()
    pair_table: dict[tuple[int, int], PairwiseClassifier] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    @property
    def labels(self) -> list[int]:
        return [m.class_label for m in self.classes]

    def class_model(self, label: int) -> OcsvmModel:
        for m in self.classes:
            if m.class_label == label:
                return m
        raise KeyError(f"no class {label} in registry")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CilModel):
            return NotImplemented
        return to_json_dict(self) == to_json_dict(other)


def new_model(config: CilConfig | None = None, scaler: Scaler | None = None) -> CilModel:
    """Empty registry. The scaler, when given, is fixed for the model's life;
    without one, features pass through unscaled."""
    return CilModel(config=config or CilConfig(), scaler=scaler)


def add_class_detailed(
    model: CilModel, label: int, X_class: np.ndarray, nu: float | None = None
) -> tuple[CilModel, WidthSelection]:
    """Register a new class; returns the extended registry plus the width
    selection diagnostics for the new class.

    Trains the class's one-class SVM (width picked per the SV-fraction
    filter) and one dispute classifier against each already-registered
    class, using stored support vectors only. The class needs at least 3
    rows, because the edge partition needs 2 neighbours per row. The input
    registry is never modified; on any failure it is returned unchanged to
    the caller by virtue of never being touched.
    """
    label = int(label)
    if label in model.labels:
        raise ValueError(f"class {label} already registered")
    X = np.atleast_2d(np.asarray(X_class, dtype=float))
    if X.shape[0] < 3:
        raise ValueError(
            "need at least 3 samples to add a class (the edge partition needs 2 neighbours per row)"
        )
    cfg = model.config
    nu = cfg.nu_default if nu is None else float(nu)
    if nu * X.shape[0] < 1.0:
        raise ValueError(f"infeasible nu: nu * n = {nu * X.shape[0]:.3g} < 1")
    if not NU_SOFT_RANGE[0] <= nu <= NU_SOFT_RANGE[1]:
        warnings.warn(
            f"nu={nu} outside the usual [{NU_SOFT_RANGE[0]}, {NU_SOFT_RANGE[1]}] range",
            stacklevel=2,
        )

    scaler = model.scaler if model.scaler is not None else Scaler.identity(X.shape[1])
    Xs = scaler.transform(X)

    k = cfg.k_neighbors if cfg.k_neighbors is not None else default_k_neighbors(Xs.shape[0])
    part = beps_partition(Xs, k, cfg.side_threshold)
    cands = candidate_widths(Xs, cfg.width_count)
    sel = select_width(Xs, nu, cands, part, cfg.solver, class_label=label)
    new_ocsvm = sel.model

    new_pairs = dict(model.pair_table)
    for old in model.classes:
        clf = train_pair(
            old.support_vectors, old.class_label,
            new_ocsvm.support_vectors, label,
            cfg.cv, cfg.solver,
        )
        new_pairs[(clf.label_a, clf.label_b)] = clf

    new_model_ = replace(
        model,
        scaler=scaler,
        classes=model.classes + (new_ocsvm,),
        pair_table=new_pairs,
    )
    return new_model_, sel


def add_class(model: CilModel, label: int, X_class: np.ndarray, nu: float | None = None) -> CilModel:
    """Register a new class and return the extended registry."""
    return add_class_detailed(model, label, X_class, nu)[0]


def _detail(model: CilModel, x: np.ndarray, dispute) -> PredictionDetail:
    if not model.classes:
        raise ValueError("no classes registered")
    x = np.asarray(x, dtype=float).ravel()
    # math.isfinite beats a numpy reduction several-fold on one short row
    if not all(map(math.isfinite, x.tolist())):
        raise DataError("input contains NaN or Inf values")
    scaler = model.scaler
    xs = scaler.transform(x[None, :])[0] if scaler is not None else x

    values = {m.class_label: float(decision_values(m, xs[None, :])[0]) for m in model.classes}
    positive = [lbl for lbl, v in values.items() if v > 0.0]
    if len(positive) == 1:
        return PredictionDetail(
            label=positive[0], region=REGION_UNIQUE, possible=(positive[0],),
            ocsvm_values=values, votes={},
        )
    region = REGION_MULTI if positive else REGION_NONE
    possible = tuple(sorted(positive)) if positive else tuple(sorted(values))
    if len(possible) == 1:
        return PredictionDetail(
            label=possible[0], region=region, possible=possible,
            ocsvm_values=values, votes={},
        )
    label, votes = dispute(model, xs, possible, values)
    return PredictionDetail(
        label=label, region=region, possible=possible, ocsvm_values=values, votes=votes,
    )


def _vote_dispute(model: CilModel, xs: np.ndarray, possible, values):
    votes = {lbl: 0 for lbl in possible}
    for a, b in combinations(possible, 2):
        votes[predict_pair(model.pair_table[(a, b)], xs)] += 1
    top = max(votes.values())
    tied = [lbl for lbl, v in votes.items() if v == top]
    if len(tied) > 1:
        best = max(values[lbl] for lbl in tied)
        tied = [lbl for lbl in tied if values[lbl] == best]
    return min(tied), votes


def _nearest_sv_dispute(model: CilModel, xs: np.ndarray, possible, values):
    best_label, best_dist = None, np.inf
    for lbl in possible:  # sorted ascending, so ties keep the smaller label
        svs = model.class_model(lbl).support_vectors
        dist = float(np.min(np.linalg.norm(svs - xs[None, :], axis=1)))
        if dist < best_dist:
            best_label, best_dist = lbl, dist
    return best_label, {}


def predict_detail(model: CilModel, x: np.ndarray) -> PredictionDetail:
    """Full per-class values, region, and votes behind a prediction."""
    return _detail(model, x, _vote_dispute)


def predict(model: CilModel, x: np.ndarray) -> int:
    """Predicted class id for one raw-space sample."""
    return predict_detail(model, x).label


def ocsvm_nn_predict(model: CilModel, x: np.ndarray) -> int:
    """Prediction with disputes resolved by the class of the nearest SV."""
    return _detail(model, x, _nearest_sv_dispute).label


# --- baselines ---------------------------------------------------------------


def knn_predict(train: LabeledDataset, x: np.ndarray, k: int = 1) -> int:
    """k-nearest-neighbor vote; vote ties go to the closest tied class."""
    if not 1 <= k <= train.n:
        raise ValueError(f"k must be in [1, {train.n}]")
    x = np.asarray(x, dtype=float).ravel()
    dists = np.linalg.norm(train.features - x[None, :], axis=1)
    order = np.argsort(dists, kind="stable")[:k]
    nbr_labels = train.labels[order]
    labels, counts = np.unique(nbr_labels, return_counts=True)
    top = counts.max()
    tied = set(labels[counts == top].tolist())
    for lbl in nbr_labels:  # nearest-first scan
        if int(lbl) in tied:
            return int(lbl)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class BatchSvm:
    """1vs1 table trained on full class data (non-incremental baseline)."""

    labels: tuple[int, ...]
    pairs: dict[tuple[int, int], PairwiseClassifier]


def train_batch_svm(train: LabeledDataset, cv: CvConfig, cfg: SolverConfig | None = None) -> BatchSvm:
    cfg = cfg or SolverConfig()
    labels = train.class_ids
    pairs = {}
    for a, b in combinations(labels, 2):
        pairs[(a, b)] = train_pair(train.rows_of(a), a, train.rows_of(b), b, cv, cfg)
    return BatchSvm(labels=tuple(labels), pairs=pairs)


def batch_svm_classify(svm: BatchSvm, x: np.ndarray) -> int:
    """Majority vote over all pairs; ties go to the smallest label."""
    votes = {lbl: 0 for lbl in svm.labels}
    for clf in svm.pairs.values():
        votes[predict_pair(clf, x)] += 1
    top = max(votes.values())
    return min(lbl for lbl, v in votes.items() if v == top)


def batch_svm_predict(
    train: LabeledDataset, cv: CvConfig, x: np.ndarray, cfg: SolverConfig | None = None
) -> int:
    """One-shot convenience: train the 1vs1 table, then classify x."""
    return batch_svm_classify(train_batch_svm(train, cv, cfg), x)


# --- persistence -------------------------------------------------------------


def class_entry(m: OcsvmModel) -> dict:
    return {
        "label": int(m.class_label),
        "nu": float(m.nu),
        "width": float(m.width),
        "rho": float(m.rho),
        "sv_matrix": [[float(v) for v in row] for row in m.support_vectors],
        "sv_alphas": [float(a) for a in m.sv_alphas],
        "train_count": int(m.train_count),
    }


def pair_entry(p: PairwiseClassifier) -> dict:
    return {
        "a": int(p.label_a),
        "b": int(p.label_b),
        "width": float(p.width),
        "cost": float(p.cost),
        "bias": float(p.bias),
        "vectors": [[float(v) for v in row] for row in p.vectors],
        "coeffs": [float(c) for c in p.coeffs],
        "cv_accuracy": float(p.cv_accuracy),
        "train_accuracy": float(p.train_accuracy),
    }


def class_payload(m: OcsvmModel) -> bytes:
    """Canonical bytes of one class entry, for byte-identity checks."""
    return json.dumps(class_entry(m), sort_keys=True, separators=(",", ":")).encode()


def pair_payload(p: PairwiseClassifier) -> bytes:
    return json.dumps(pair_entry(p), sort_keys=True, separators=(",", ":")).encode()


def _config_entry(cfg: CilConfig) -> dict:
    return {
        "nu_default": cfg.nu_default,
        "k_neighbors": cfg.k_neighbors,
        "side_threshold": cfg.side_threshold,
        "width_count": cfg.width_count,
        "cv": {
            "folds": cfg.cv.folds,
            "cost_grid": list(cfg.cv.cost_grid),
            "width_grid": None if cfg.cv.width_grid is None else list(cfg.cv.width_grid),
            "width_count": cfg.cv.width_count,
            "seed": cfg.cv.seed,
        },
        "solver": {
            "kkt_tolerance": cfg.solver.kkt_tolerance,
            "max_passes": cfg.solver.max_passes,
            "seed": cfg.solver.seed,
        },
    }


def _config_from_entry(e: dict) -> CilConfig:
    return CilConfig(
        nu_default=e["nu_default"],
        k_neighbors=e["k_neighbors"],
        side_threshold=e["side_threshold"],
        width_count=e["width_count"],
        cv=CvConfig(
            folds=e["cv"]["folds"],
            cost_grid=tuple(e["cv"]["cost_grid"]),
            width_grid=None if e["cv"]["width_grid"] is None else tuple(e["cv"]["width_grid"]),
            width_count=e["cv"]["width_count"],
            seed=e["cv"]["seed"],
        ),
        solver=SolverConfig(
            kkt_tolerance=e["solver"]["kkt_tolerance"],
            max_passes=e["solver"]["max_passes"],
            seed=e["solver"]["seed"],
        ),
    )


def to_json_dict(model: CilModel) -> dict:
    scaler = model.scaler
    return {
        "format_version": model.format_version,
        "scaler": None
        if scaler is None
        else {
            "mean": [float(v) for v in scaler.mean],
            "std": [float(v) for v in scaler.std],
            "constant_columns": list(scaler.constant_columns),
        },
        "classes": [class_entry(m) for m in model.classes],
        "pairs": [pair_entry(model.pair_table[k]) for k in sorted(model.pair_table)],
        "config": _config_entry(model.config),
    }


def save(model: CilModel, path: str | Path) -> None:
    """Write the registry as versioned JSON; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_json_dict(model), f, indent=1)
        f.write("\n")


def _ocsvm_from_entry(e: dict, solver: SolverConfig) -> OcsvmModel:
    sv = np.array(e["sv_matrix"], dtype=float)
    a = np.array(e["sv_alphas"], dtype=float)
    width = float(e["width"])
    K = kernel_matrix(sv, sv, width)
    return OcsvmModel(
        class_label=int(e["label"]),
        support_vectors=sv,
        sv_alphas=a,
        rho=float(e["rho"]),
        width=width,
        nu=float(e["nu"]),
        train_count=int(e["train_count"]),
        w_norm=float(np.sqrt(max(a @ K @ a, 0.0))),
        converged=True,
        kkt_tolerance=solver.kkt_tolerance,
    )


def _pair_from_entry(e: dict) -> PairwiseClassifier:
    return PairwiseClassifier(
        label_a=int(e["a"]),
        label_b=int(e["b"]),
        vectors=np.array(e["vectors"], dtype=float),
        coeffs=np.array(e["coeffs"], dtype=float),
        bias=float(e["bias"]),
        width=float(e["width"]),
        cost=float(e["cost"]),
        cv_accuracy=float(e["cv_accuracy"]),
        train_accuracy=float(e["train_accuracy"]),
    )


def load(path: str | Path) -> CilModel:
    """Read a model file written by save()."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ModelFormatError(f"corrupt model file {path}: {e}") from e
    try:
        version = raw["format_version"]
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported format_version {version} (this build reads {FORMAT_VERSION})"
            )
        config = _config_from_entry(raw["config"])
        scaler = None
        if raw["scaler"] is not None:
            scaler = Scaler(
                mean=np.array(raw["scaler"]["mean"], dtype=float),
                std=np.array(raw["scaler"]["std"], dtype=float),
                constant_columns=tuple(raw["scaler"]["constant_columns"]),
            )
        classes = tuple(_ocsvm_from_entry(e, config.solver) for e in raw["classes"])
        pairs = {}
        for e in raw["pairs"]:
            clf = _pair_from_entry(e)
            pairs[(clf.label_a, clf.label_b)] = clf
        expected = set(combinations(sorted(m.class_label for m in classes), 2))
        if pairs.keys() != expected:
            raise ModelFormatError(
                f"malformed model file {path}: pair table does not match the classes "
                f"(missing {sorted(expected - pairs.keys())}, "
                f"unexpected {sorted(pairs.keys() - expected)})"
            )
        return CilModel(
            config=config, scaler=scaler, classes=classes, pair_table=pairs,
            format_version=version,
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ModelFormatError(f"malformed model file {path}: {e}") from e
