"""Loading, standardization, splitting, and generation of labeled datasets.

CSV convention: comma-separated UTF-8, optional header row (detected by a
non-numeric first row), label in the last column. Labels are
remapped to dense integer ids 0..c-1 in first-appearance order, with the
original tokens kept in `label_names`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

# Floor for per-column std so constant columns standardize to zero instead
# of dividing by zero.
STD_EPSILON = 1e-12


class DataError(ValueError):
    """Raised for malformed or unusable input data."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with dense integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    label_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError("features must be a non-empty n x d matrix")
        if y.shape != (X.shape[0],):
            raise DataError("labels length must equal feature row count")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain NaN or Inf values")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def class_ids(self) -> list[int]:
        return sorted(int(c) for c in np.unique(self.labels))

    def rows_of(self, label: int) -> np.ndarray:
        return self.features[self.labels == label]


@dataclass(frozen=True)
class Scaler:
    """Per-dimension affine transform fitted on training data."""

    mean: np.ndarray
    std: np.ndarray
    constant_columns: tuple[int, ...] = ()

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        std = np.asarray(self.std, dtype=float).ravel()
        if mean.shape != std.shape:
            raise DataError("scaler mean/std dimension mismatch")
        if np.any(std <= 0.0):
            raise DataError("scaler std entries must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def identity(cls, d: int) -> "Scaler":
        return cls(mean=np.zeros(d), std=np.ones(d))

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.mean.shape[0]:
            raise DataError(
                f"dimension mismatch: scaler expects d={self.mean.shape[0]}, got {X.shape[1]}"
            )
        return (X - self.mean) / self.std

    def inverse(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(X, dtype=float)) * self.std + self.mean


@dataclass(frozen=True)
class SplitSpec:
    """Stratified split parameters."""

    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie in (0, 1)")


def _try_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _read_csv(path: Path, labeled: bool) -> tuple[np.ndarray, list[str]]:
    """The feature rows of a CSV file as an n x d matrix, and each row's
    last cell; the feature cells are all but the last when labeled.

    Blank rows are dropped, a first row whose feature cells are not all
    numeric is a header, and every row must have the first row's columns.
    An error names the file line the row ends on.
    """
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        numbered = [(reader.line_num, row) for row in reader if row and any(t.strip() for t in row)]
    if not numbered:
        raise DataError(f"empty file: {path}")
    linenos, rows = zip(*numbered)
    stop = -1 if labeled else None  # where the feature cells end
    ncol = len(rows[0])
    first_data = 1 if any(_try_float(t) is None for t in rows[0][:stop]) else 0
    if first_data == len(rows):
        raise DataError(f"{path}: header only, no data rows")

    feats: list[list[float]] = []
    for lineno, row in zip(linenos[first_data:], rows[first_data:]):
        if len(row) != ncol:
            raise DataError(f"{path}:{lineno}: expected {ncol} columns, got {len(row)}")
        vals = [_try_float(t.strip()) for t in row[:stop]]
        if None in vals:
            raise DataError(f"{path}:{lineno}: non-numeric feature value {row[vals.index(None)]!r}")
        feats.append(vals)
    X = np.array(feats, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError(f"{path}: features contain NaN or Inf values")
    return X, [row[-1].strip() for row in rows[first_data:]]


def load_csv(path: str | Path) -> LabeledDataset:
    """Load a labeled CSV file whose last column is the label.

    Labels may be arbitrary tokens; they are mapped to dense ids 0..c-1 in
    order of first appearance and the mapping is kept in `label_names`.
    Row order is preserved.
    """
    path = Path(path)
    X, raw_labels = _read_csv(path, labeled=True)
    ids: dict[str, int] = {}
    for tok in raw_labels:
        if tok not in ids:
            ids[tok] = len(ids)
    y = np.array([ids[tok] for tok in raw_labels], dtype=int)
    names = {v: k for k, v in ids.items()}
    try:
        return LabeledDataset(features=X, labels=y, label_names=names)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def load_features_csv(path: str | Path) -> np.ndarray:
    """Load a features-only CSV (every column numeric, optional header)."""
    return _read_csv(Path(path), labeled=False)[0]


def save_csv(ds: LabeledDataset, path: str | Path) -> None:
    """Write a dataset in the same CSV format load_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        for row, label in zip(ds.features, ds.labels):
            name = ds.label_names.get(int(label), str(int(label)))
            w.writerow([repr(float(v)) for v in row] + [name])


def fit_standardize(train: LabeledDataset) -> tuple[Scaler, LabeledDataset]:
    """Fit a z-score scaler on training rows and return the standardized set.

    Constant columns get their std floored at STD_EPSILON and are reported
    in Scaler.constant_columns. A column whose values are all equal takes
    that value as its mean, so it scales to exactly 0 whatever its
    magnitude; a column whose mean or spread overflows raises DataError.
    """
    if train.n < 2:
        raise DataError("need at least 2 rows to standardize")
    X = train.features
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        mean = X.mean(axis=0)
        std = X.std(axis=0)
    equal = np.all(X == X[0], axis=0)
    mean[equal] = X[0, equal]
    std[equal] = 0.0
    bad = np.nonzero(~np.isfinite(mean) | ~np.isfinite(std))[0]
    if bad.size:
        raise DataError(f"feature column {int(bad[0])} cannot be standardized: its mean or spread overflows")
    constant = tuple(int(j) for j in np.nonzero(std < STD_EPSILON)[0])
    std = np.maximum(std, STD_EPSILON)
    scaler = Scaler(mean=mean, std=std, constant_columns=constant)
    out = LabeledDataset(
        features=scaler.transform(train.features),
        labels=train.labels.copy(),
        label_names=dict(train.label_names),
    )
    return scaler, out


def stratified_split(ds: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Split per class: round(train_fraction * n_class) rows to train, rest to test.

    Rounding is half-up so a 70/30 split of the benchmark datasets reproduces
    their published train/test counts. Deterministic given spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for label in ds.class_ids:
        idx = np.nonzero(ds.labels == label)[0]
        if idx.size < 2:
            raise DataError(f"class {label} has only {idx.size} sample(s); cannot split")
        perm = rng.permutation(idx)
        n_train = int(np.floor(spec.train_fraction * idx.size + 0.5))
        n_train = max(1, min(n_train, idx.size))
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    tr = np.sort(np.concatenate(train_idx))
    te = np.sort(np.concatenate(test_idx))
    make = lambda sel: LabeledDataset(
        features=ds.features[sel], labels=ds.labels[sel], label_names=dict(ds.label_names)
    )
    return make(tr), make(te)


def make_toy(shape: str, n_per_class: int, seed: int = 0) -> LabeledDataset:
    """Generate a 2D toy dataset: 'blobs', 'rings', or 'moons-like'.

    blobs: three well-separated Gaussian clusters.
    rings: an inner disk surrounded by a (non-convex) annulus.
    moons-like: two interleaving crescents.
    """
    if n_per_class < 10:
        raise DataError("n_per_class must be >= 10")
    rng = np.random.default_rng(seed)
    if shape == "blobs":
        centers = np.array([[0.0, 0.0], [6.0, 0.5], [3.0, 5.5]])
        X = np.vstack(
            [c + rng.normal(scale=0.8, size=(n_per_class, 2)) for c in centers]
        )
        y = np.repeat(np.arange(3), n_per_class)
    elif shape == "rings":
        # inner disk, radius <= 1; annulus between 2 and 3
        r0 = np.sqrt(rng.uniform(0.0, 1.0, n_per_class))
        t0 = rng.uniform(0.0, 2 * np.pi, n_per_class)
        inner = np.column_stack([r0 * np.cos(t0), r0 * np.sin(t0)])
        r1 = np.sqrt(rng.uniform(4.0, 9.0, n_per_class))
        t1 = rng.uniform(0.0, 2 * np.pi, n_per_class)
        outer = np.column_stack([r1 * np.cos(t1), r1 * np.sin(t1)])
        X = np.vstack([inner, outer])
        y = np.repeat(np.arange(2), n_per_class)
    elif shape == "moons-like":
        t = rng.uniform(0.0, np.pi, n_per_class)
        upper = np.column_stack([np.cos(t), np.sin(t)])
        t = rng.uniform(0.0, np.pi, n_per_class)
        lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
        X = np.vstack([upper, lower]) + rng.normal(scale=0.08, size=(2 * n_per_class, 2))
        y = np.repeat(np.arange(2), n_per_class)
    else:
        raise DataError(f"unknown toy shape {shape!r} (want blobs, rings, or moons-like)")
    return LabeledDataset(features=X, labels=y)


# --- benchmark datasets -----------------------------------------------------

# name -> (dimension, expected row count); waveform is generated, iris is
# bundled, the rest must be supplied as CSV files (see README.md).
UCI_DATASETS = {
    "iris": (4, 150),
    "seeds": (7, 210),
    "pima": (8, 768),
    "waveform": (21, 5000),
    "transfusion": (4, 748),
}


def make_waveform(n: int = 5000, seed: int = 7) -> LabeledDataset:
    """Generate the 21-attribute, 3-class waveform benchmark.

    Each sample is a random convex combination of two of three triangular
    base waves plus unit Gaussian noise on every attribute; class counts are
    as balanced as possible so a 70/30 stratified split is exact.
    """
    rng = np.random.default_rng(seed)
    i = np.arange(1, 22, dtype=float)
    h = [
        np.maximum(6.0 - np.abs(i - 7.0), 0.0),
        np.maximum(6.0 - np.abs(i - 15.0), 0.0),
        np.maximum(6.0 - np.abs(i - 11.0), 0.0),
    ]
    combos = [(0, 1), (0, 2), (1, 2)]
    base = n // 3
    counts = [base + (1 if c < n % 3 else 0) for c in range(3)]
    X = np.empty((n, 21))
    y = np.empty(n, dtype=int)
    row = 0
    for cls, (a, b) in enumerate(combos):
        m = counts[cls]
        u = rng.uniform(0.0, 1.0, (m, 1))
        X[row : row + m] = u * h[a] + (1.0 - u) * h[b] + rng.normal(size=(m, 21))
        y[row : row + m] = cls
        row += m
    perm = rng.permutation(n)
    return LabeledDataset(features=X[perm], labels=y[perm])


def load_uci(name: str, data_dir: str | Path | None = None) -> LabeledDataset:
    """Load one of the five benchmark datasets by name.

    iris ships with the package and waveform is generated; seeds, pima and
    transfusion are read from `data_dir` (fetch them once from the UCI
    repository; README.md gives the file names and shapes).
    """
    name = name.lower()
    if name not in UCI_DATASETS:
        raise DataError(f"unknown dataset {name!r}; known: {sorted(UCI_DATASETS)}")
    if name == "waveform":
        return make_waveform()
    if name == "iris":
        with resources.as_file(resources.files("sdcil.data") / "iris.csv") as p:
            return load_csv(p)
    if data_dir is None:
        raise DataError(f"dataset {name!r} requires data_dir (user-supplied CSV)")
    path = Path(data_dir) / f"{name}.csv"
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    ds = load_csv(path)
    d, n = UCI_DATASETS[name]
    if ds.d != d or ds.n != n:
        raise DataError(
            f"{path}: expected {n} rows x {d} features for {name}, got {ds.n} x {ds.d}"
        )
    return ds
