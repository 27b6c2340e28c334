"""Class-incremental registry, prediction pipeline, persistence, baselines.

Adding a class trains exactly one one-class SVM (on that class's rows) and
one dispute classifier per existing class (on stored support vectors only);
nothing previously trained is touched, and raw class data is discarded once
the support vectors are extracted. Prediction first asks every class model;
a single positive answer decides immediately, otherwise the dispute
classifiers of the candidate classes vote.

Prediction computes on one batched path, _class_stage, which checks and
scales the rows and takes them in chunks, and _vote_counts, which counts
the votes of a chunk's disputed rows. Each chunk works in two fused
stages. The class stage writes one product per class into one rows x
all-SVs buffer and turns it in place into squared distances and kernel
values, with a fixed number of numpy calls per chunk plus one product per
class on each side; the per-model column layout (CilModel.layout) is
derived from the registry and never saved. The dispute stage settles all
disputed rows of a chunk that share their candidate classes together, in
a fixed number of numpy calls whatever the number of pairs. A dispute
classifier holds coefficients only; they follow its two classes' support
vectors, lower label first, so its distance columns are the two class
blocks side by side, one segment of the layout's PairTable. A group
gathers its pairs' segments in one call, turns them into kernel terms
with one divide, one exp and one multiply, sums each segment with one
reduceat, and counts every row's votes with one bincount. _vote_counts is
the one 1vs1 vote of the package: the batch 1vs1 baseline of Table II
votes through it too, on a PairTable over its training rows.

Two tails settle the rows from there, picked by what the caller asks for,
and they give the same labels and regions. The label views
(predict_labels, ocsvm_nn_labels and through them the CLI) settle in
arrays in _settle: a count of positive classes per row gives the regions,
and a masked argmax settles vote ties, with a fixed number of numpy calls
per chunk and per set of candidate classes. The detail views
(predict_details, predict_detail) settle per row in lean Python in
_details, which builds the candidate tuples and vote lists that a
PredictionDetail holds anyway: the region loop collects each row's
positive classes, and the vote tail settles a row with one max and one
count on its vote counts, reading class values only on a vote tie. Each
tail wins where it runs. On a 256-row chunk the per-row Python costs more
than the array calls: on the benchmark's blobs-map workload, 100 x 100 map
cells mostly in the none region, map_grid went from 305k to 439k cells
per second with the array tail (medians of ten runs each, one BLAS thread
on a shared 2-core Xeon). On a one-row chunk a vectorised tail costs tens
of microseconds in call overhead, more than the whole Python tail of that
row, and one-row predict_detail is the latency path.

The paper claims that keeping the old models cuts training time and
memory against retraining. The time claim holds: the k-th class trains one
one-class SVM on its own rows and k - 1 pairs on stored support vectors,
where a batch 1vs1 retrain trains k(k - 1)/2 pairs on all rows
(tests/test_trace.py counts it: for the fifth of five 30-row classes,
16,250 kernel cells and 2,198 solver iterations against 180,000 and
12,775). The memory claim holds only sometimes. A model stores SVs x d
numbers in its classes and, as every pair holds one coefficient per
support vector of its two classes, SVs x (k - 1) in its pairs: (SV/n) x
(1 + (k - 1)/d) times the n x d raw numbers. With few dimensions and many
classes that exceeds 1: the seed-1 blobs-grow model of the benchmark
(d = 2, k = 10, 160 SVs of 600 rows) stores 320 + 1,440 = 1,760 numbers
against 1,200 raw, so the model outgrows its data.

Training's working set is set by its n x n arrays. Adding a class of n
rows holds two n x n float64 arrays, the squared distances and one kernel
buffer, plus blocks of rows: 16 n^2 bytes, 21.8 MB at 1,167 rows and
1.6 GB at 10,000. Training a pair holds its pooled vectors' squared
distances, one Gram buffer and one CV fold's training and validation
copies of it.

A saved model (format version 2) stores each support vector once, in its
class, as the model in memory does. load() reads that format only.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import uuid
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import accumulate, combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import STD_EPSILON, DataError, LabeledDataset, Scaler
from .geometry import DEFAULT_SIDE_THRESHOLD, beps_partition, default_k_neighbors, select_width
from .kernels import candidate_widths, kernel_divisor, squared_distances, squared_norms
from .ocsvm import NU_SOFT_RANGE, OcsvmModel
from .pairwise import CvConfig, PairwiseClassifier, train_pair
from .smo import BOX_SLACK, SolverConfig

FORMAT_VERSION = 2

REGION_UNIQUE = "unique_positive"
REGION_MULTI = "multi_positive"
REGION_NONE = "none_positive"
# a region code, as the prediction columns and the map rasters hold it, is
# the region's position here
REGIONS = (REGION_UNIQUE, REGION_MULTI, REGION_NONE)

# Rows per chunk of prediction work: bounds the rows x support-vector kernel
# blocks held at once when a large X (a map raster) is predicted.
_CHUNK_ROWS = 256

# Largest Euclidean norm of a scaled row or a support vector: squared norms
# and products of such rows stay below 1e300, so no squared distance
# (xx + yy) - 2P is Inf - Inf, which would make a class value NaN.
MAX_NORM = 1e150
_MAX_SQUARED_NORM = MAX_NORM * MAX_NORM


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

    def __post_init__(self):
        if not 0.0 < self.nu_default <= 1.0:
            raise ValueError(f"nu_default must lie in (0, 1], got {self.nu_default}")
        if self.width_count < 1:
            raise ValueError(f"width_count must be >= 1, got {self.width_count}")
        if self.k_neighbors is not None and self.k_neighbors < 2:
            raise ValueError(f"k_neighbors must be None or >= 2, got {self.k_neighbors}")
        if not 0.5 < self.side_threshold <= 1.0:
            raise ValueError(f"side_threshold must lie in (0.5, 1], got {self.side_threshold}")


@dataclass(frozen=True, slots=True)
class PredictionDetail:
    label: int
    region: str
    possible: tuple[int, ...]
    ocsvm_values: dict[int, float]
    votes: dict[int, int]


class PairTable(NamedTuple):
    """A complete 1vs1 table as _vote_counts reads it: each pair, in sorted
    key order, is one segment of the pair arrays, the distance columns of
    its two classes lower label first, as its coefficients follow them. The
    SD-CIL dispute stage and the batch baseline both vote through one."""

    ids: dict[tuple[int, int], int]  # pair key -> its position in sorted key order
    columns: np.ndarray  # each pair's distance columns, [cols_a | cols_b]
    divisors: np.ndarray  # the -2 s^2 of each pair, once per pair column
    coeffs: np.ndarray  # each pair's coefficients, once per pair column
    starts: np.ndarray  # where each pair's segment starts
    sizes: np.ndarray  # each pair's segment length, its number of vectors
    biases: np.ndarray  # each pair's bias
    labels: np.ndarray  # each pair's (label_a, label_b)

    @classmethod
    def of(cls, spans: dict[int, slice], pairs: dict[tuple[int, int], PairwiseClassifier]) -> PairTable:
        """ValueError unless pairs holds one pair per two classes of spans
        (label -> its columns), each with one coefficient per column."""
        # a missing pair would silently drop a vote, and an unknown label
        # has no columns to read
        expected = set(combinations(sorted(spans), 2))
        if pairs.keys() != expected:
            raise ValueError(
                "pair table does not match the classes "
                f"(missing {sorted(expected - pairs.keys())}, "
                f"unexpected {sorted(pairs.keys() - expected)})"
            )
        keys = sorted(pairs)
        clfs = [pairs[key] for key in keys]
        segments = [np.r_[spans[a], spans[b]] for a, b in keys]
        for key, clf, cols in zip(keys, clfs, segments):
            if clf.coeffs.shape != cols.shape:
                raise ValueError(
                    f"pair {key} needs one coefficient per support vector of its two classes, "
                    f"a 1-D array of {cols.size}; got shape {clf.coeffs.shape}"
                )
        sizes = [cols.size for cols in segments]
        return cls(
            ids={key: i for i, key in enumerate(keys)},
            # the leading empty arrays let an empty table through
            columns=np.concatenate([np.empty(0, dtype=int), *segments]),
            divisors=np.repeat([kernel_divisor(clf.width) for clf in clfs], sizes),
            coeffs=np.concatenate([np.empty(0), *(clf.coeffs for clf in clfs)]),
            starts=np.cumsum([0, *sizes])[:-1],
            sizes=np.array(sizes, dtype=int),
            biases=np.array([clf.bias for clf in clfs], dtype=float),
            labels=np.array(keys, dtype=int).reshape(-1, 2),
        )


class PredictionLayout(NamedTuple):
    """Where each class's support vectors sit among the columns of a
    prediction chunk's distance buffer, and the numbers that turn those
    columns into class values and dispute decisions: O(k x all SVs)
    numbers, derived from the registry whenever a CilModel is built and
    never saved.

    The dispute classifiers are a PairTable over the classes' columns.
    Building it raises ValueError unless every class label is listed once,
    every class has a support vector and PairTable.of takes the pair table.
    """

    columns: dict[int, slice]  # label -> its SVs' columns, in registry order
    positions: dict[int, int]  # label -> its position in registry order
    sorted_labels: tuple[int, ...]  # the candidates of a row no class claims
    sq_norms: np.ndarray  # each column's SV squared norm
    divisors: np.ndarray  # each column's -2 s^2, for its class's width s
    rhos: np.ndarray  # each class's offset, in registry order
    pairs: PairTable  # the dispute classifiers

    @classmethod
    def of(cls, classes: tuple[OcsvmModel, ...], pair_table) -> PredictionLayout:
        sorted_labels = tuple(sorted(m.class_label for m in classes))
        for label in sorted_labels:
            _check_label(label)
        repeated = sorted(label for label, n in Counter(sorted_labels).items() if n > 1)
        if repeated:
            raise ValueError(f"the registry lists classes {repeated} more than once")
        # a class without vectors has no nearest one for ocsvm_nn_labels
        empty = [m.class_label for m in classes if m.m == 0]
        if empty:
            raise ValueError(f"classes {empty} have no support vectors")
        stops = list(accumulate(m.m for m in classes))
        columns = {m.class_label: slice(stop - m.m, stop) for m, stop in zip(classes, stops)}
        return cls(
            columns=columns,
            positions={label: i for i, label in enumerate(columns)},
            sorted_labels=sorted_labels,
            sq_norms=np.concatenate([np.empty(0), *(squared_norms(m.support_vectors) for m in classes)]),
            divisors=np.repeat([kernel_divisor(m.width) for m in classes], [m.m for m in classes]),
            rhos=np.array([m.rho for m in classes], dtype=float),
            pairs=PairTable.of(columns, pair_table),
        )


def _check_label(label: int) -> int:
    """label, or ValueError unless it is an int64, as prediction results and
    map rasters hold labels."""
    if not np.iinfo(np.int64).min <= label <= np.iinfo(np.int64).max:
        raise ValueError(f"class label {label} is outside the int64 range")
    return label


@dataclass(frozen=True)
class CilModel:
    """Registry of per-class models plus the dispute-classifier table."""

    config: CilConfig
    scaler: Scaler | None = None
    classes: tuple[OcsvmModel, ...] = ()
    pair_table: dict[tuple[int, int], PairwiseClassifier] = field(default_factory=dict)
    # derived whenever a model is built, never saved or compared
    layout: PredictionLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layout", PredictionLayout.of(self.classes, self.pair_table))

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
        return _to_json_dict(self) == _to_json_dict(other)


def new_model(config: CilConfig | None = None, scaler: Scaler | None = None) -> CilModel:
    """Empty registry. The scaler, when given, is fixed for the model's life;
    without one, features pass through unscaled."""
    return CilModel(config=config or CilConfig(), scaler=scaler)


def add_class(model: CilModel, label: int, X_class: np.ndarray, nu: float | None = None) -> CilModel:
    """Register a new class and return the extended registry.

    Trains the class's one-class SVM (width picked per the SV-fraction
    filter) and one dispute classifier against each already-registered
    class, using stored support vectors only. The label must be an int64
    and new to the registry, and the class needs at least 3 rows, because
    the edge partition needs 2 neighbours per row. Rows holding NaN or Inf,
    or with a norm beyond MAX_NORM when scaled, raise DataError before any
    training. The input registry is never modified; on any failure it
    is returned unchanged to the caller by virtue of never being touched.
    """
    label = _check_label(int(label))
    if label in model.labels:
        raise ValueError(f"class {label} already registered")
    X = np.atleast_2d(np.asarray(X_class, dtype=float))
    scaler = model.scaler if model.scaler is not None else Scaler.identity(X.shape[1])
    Xs, _ = _scale_bounded(X, scaler)
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

    return replace(model, scaler=scaler, classes=model.classes + (new_ocsvm,), pair_table=new_pairs)


def _scale_bounded(X: np.ndarray, scaler: Scaler | None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of X scaled (X itself without a scaler) and their squared
    norms; DataError unless every scaled row has a norm within MAX_NORM. A
    NaN or Inf value makes its row's squared norm NaN or Inf, so the norms
    alone decide: X holds NaN or Inf, a finite row overflowed when scaled,
    or it scaled beyond the bound."""
    # a scaling or a square that overflows gives Inf, which fails the check
    # below, so numpy's overflow warning would only precede the DataError
    with np.errstate(over="ignore"):
        Xs = X if scaler is None else scaler.transform(X)
        xx = squared_norms(Xs)
    # NaN fails the comparison too. One value per row, and Python's map
    # beats a numpy reduction on the one row of predict_detail; .flat does
    # not copy a large array into Python floats first
    if not all(map(_MAX_SQUARED_NORM.__ge__, xx.flat)):
        if not all(map(math.isfinite, X.flat)):
            raise DataError("input contains NaN or Inf values")
        if not all(map(math.isfinite, Xs.flat)):
            raise DataError("input overflows to Inf or NaN when scaled")
        raise DataError(f"input row norm exceeds {MAX_NORM:g} when scaled")
    return Xs, xx


def _class_stage(model: CilModel, X: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Check and scale the rows of X, then yield, per chunk of _CHUNK_ROWS
    rows in order, the chunk's squared distances to every support vector
    (rows x all SVs, in model.layout's columns) and its class values
    (classes x rows, in registry order). The distances are a view of a
    buffer that the next chunk overwrites.

    Per chunk: the rows' squared norms once, one product with each class's
    support vectors, written into one rows x all-SVs buffer that becomes
    the squared distances in place, one exp of it divided by each column's
    class divisor, and one product with each class's alphas.

    numpy multiplies a one-row chunk by the alphas with a dot kernel and a
    larger chunk with gemv, which round differently: a row's class values
    can differ in the last bits with the number of rows in its chunk.
    """
    if not model.classes:
        raise ValueError("no classes registered")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"need an n x d matrix of rows, got shape {X.shape}")
    if X.shape[1] != model.classes[0].d:
        raise ValueError(f"dimension mismatch: model expects d={model.classes[0].d}, got {X.shape[1]}")
    # the whole matrix, scaled, is checked before any row is returned
    X_scaled, xx = _scale_bounded(X, model.scaler)
    layout = model.layout
    # the distance and kernel buffers, reused by every chunk: fresh pages
    # for each chunk would cost more than the arithmetic on them
    d2_buffer = np.empty((min(X.shape[0], _CHUNK_ROWS), layout.sq_norms.size))
    K_buffer = np.empty_like(d2_buffer)
    for start in range(0, X.shape[0], _CHUNK_ROWS):
        Xs = X_scaled[start:start + _CHUNK_ROWS]
        d2, K = d2_buffer[:Xs.shape[0]], K_buffer[:Xs.shape[0]]
        # one product per class, never one stacked product: a class's
        # values must not depend on which other classes are registered
        for m, cols in zip(model.classes, layout.columns.values()):
            np.matmul(Xs, m.support_vectors.T, out=d2[:, cols])
        # squared_distances' (xx + yy) - 2P clipped at 0, then each class's
        # kernel, all in place
        np.add(xx[start:start + _CHUNK_ROWS, None], layout.sq_norms, out=K)
        d2 *= 2.0
        np.subtract(K, d2, out=d2)
        np.maximum(d2, 0.0, out=d2)
        np.exp(np.divide(d2, layout.divisors, out=K), out=K)
        values = np.array([K[:, cols] @ m.sv_alphas for m, cols in zip(model.classes, layout.columns.values())])
        values -= layout.rhos[:, None]
        yield d2, values


def _details(model: CilModel, d2: np.ndarray, values: np.ndarray) -> tuple[list, ...]:
    """The predictions for the rows of one _class_stage chunk, given its
    distances and class values, as plain columns with one entry per row:

    - labels, the predicted class ids;
    - region codes, the regions' positions in REGIONS;
    - possible, the candidate classes as an ascending tuple;
    - values, the class values as a list in registry order;
    - votes, the vote counts as a list in possible's order, or None where
      no vote was taken.

    The region loop collects each row's positive classes: one positive
    decides the row, and a row no class claims shares the layout's tuple
    of every label. Then one _vote_counts call per set of candidate
    classes counts the votes of every disputed row of the chunk with those
    candidates, and a lean Python tail settles each row with one max and
    one count on its counts. A vote tie goes to the larger class value,
    then to the smaller label; class values are read only on a vote tie.
    """
    layout = model.layout
    labels, everyone = layout.columns, layout.sorted_labels  # registry order, ascending
    rows = values.T.tolist()
    regions, candidates, disputes = [], [], {}
    for i, row in enumerate(rows):
        # max, one call, passes over a row no class claims
        if max(row) > 0.0:
            positive = [lbl for lbl, v in zip(labels, row) if v > 0.0]
            if len(positive) == 1:
                regions.append(0)
                candidates.append(tuple(positive))
                continue
            possible = tuple(sorted(positive))
            regions.append(1)
        else:
            possible = everyone
            regions.append(2)
        candidates.append(possible)
        if len(possible) > 1:
            disputes.setdefault(possible, []).append(i)
    winners = [possible[0] for possible in candidates]
    votes = [None] * len(rows)
    positions = layout.positions
    for possible, idx in disputes.items():
        for i, row_counts in zip(idx, _vote_counts(layout.pairs, d2[idx], possible).tolist()):
            votes[i] = row_counts
            top = max(row_counts)
            if row_counts.count(top) == 1:
                winners[i] = possible[row_counts.index(top)]
            else:
                # possible is ascending and max keeps the first of equal
                # values, so a value tie goes to the smaller label
                row = rows[i]
                tied = [lbl for lbl, c in zip(possible, row_counts) if c == top]
                winners[i] = max(tied, key=lambda lbl: row[positions[lbl]])
    return winners, regions, candidates, rows, votes


def _vote_counts(table: PairTable, d2: np.ndarray, possible: tuple[int, ...]) -> np.ndarray:
    """Each row's 1vs1 vote counts among the possible classes (ascending),
    as a rows x len(possible) array in possible's order.

    Counts the group's votes in a fixed number of numpy calls, whatever the
    number of pairs, which are every pair when every class is possible (the
    whole none region), one span for two classes, or else the spans of
    combinations(possible, 2) in the table, laid end to end. One gather
    takes each pair's distance columns, [cols_a | cols_b], from d2; one
    divide by the per-column divisors, one exp and one multiply by the
    coefficients turn them into kernel terms, and one reduceat sums each
    pair's segment before the biases are added. A decision is thus a segment
    sum, not a BLAS dot, and may differ from one in the last bits."""
    rows, n = d2.shape[0], len(possible)
    if n * (n - 1) // 2 == len(table.ids):  # every class of the table
        pairs, cols, starts = slice(None), slice(None), table.starts
    elif n == 2:  # one pair, one span
        i = table.ids[possible]
        start = int(table.starts[i])
        pairs, cols, starts = slice(i, i + 1), slice(start, start + int(table.sizes[i])), [0]
    else:
        # the spans of the group's pairs, in sorted key order as
        # combinations gives them, laid end to end
        pairs = np.array([table.ids[key] for key in combinations(possible, 2)])
        sizes = table.sizes[pairs]
        stops = np.cumsum(sizes)
        starts = stops - sizes
        cols = np.repeat(table.starts[pairs] - starts, sizes)
        cols += np.arange(stops[-1])
    E = np.take(d2, table.columns[cols], axis=1)
    E /= table.divisors[cols]
    np.exp(E, out=E)
    E *= table.coeffs[cols]
    decisions = np.add.reduceat(E, starts, axis=1)
    decisions += table.biases[pairs]
    labels = table.labels[pairs]
    # each row's winners as positions in possible, offset by the row, so one
    # bincount gives every row's votes
    winners = np.searchsorted(possible, np.where(decisions > 0.0, labels[:, 0], labels[:, 1]))
    winners += np.arange(0, rows * n, n)[:, None]
    return np.bincount(winners.ravel(), minlength=rows * n).reshape(rows, n)


# a row's region code by its number of positive classes: none, one, several
_REGION_BY_COUNT = np.array([2, 0, 1], dtype=np.uint8)


def _settle(model: CilModel, X: np.ndarray, nearest_sv: bool) -> tuple[np.ndarray, np.ndarray]:
    """The label and region columns of _details, or with nearest_sv those
    of the nearest-SV baseline, as two arrays, settled with a fixed number
    of numpy calls per chunk and per set of candidate classes.

    Each chunk's class values are read in ascending label order. A row's
    candidates are its positive classes, or every class when none is
    positive; the number of positives gives its region, and a row with one
    candidate takes it. With nearest_sv every row takes the candidate that
    holds its nearest support vector: one minimum.reduceat over the
    classes' distance columns, the other classes masked to +inf, and an
    argmin, which gives a distance tie to the smaller label. Otherwise the
    disputed rows are grouped by candidate set as _details groups them (a
    row that every class claims joins the none rows), each group's votes
    come from _vote_counts, and an argmax over the class values of the
    candidates with the most votes, the others masked to -inf, settles
    each row as _details does: a vote tie goes to the larger class value,
    then to the smaller label."""
    layout = model.layout
    order = [layout.positions[label] for label in layout.sorted_labels]  # registry positions, ascending labels
    everyone = np.array(layout.sorted_labels, dtype=int)
    class_starts = [cols.start for cols in layout.columns.values()]
    # the leading empty arrays give an empty X its two empty columns
    labels, regions = [everyone[:0]], [_REGION_BY_COUNT[:0]]
    for d2, values in _class_stage(model, X):
        values = values[order].T
        candidates = values > 0.0
        count = np.count_nonzero(candidates, axis=1)
        regions.append(_REGION_BY_COUNT[np.minimum(count, 2)])
        none = count == 0
        candidates[none] = True
        count[none] = everyone.size
        if nearest_sv:
            nearest = np.minimum.reduceat(d2, class_starts, axis=1)[:, order]
            winners = np.argmin(np.where(candidates, nearest, np.inf), axis=1)
        else:
            winners = np.argmax(values, axis=1)  # a unique row's one positive class
            disputed = np.flatnonzero(count > 1)
            if disputed.size:
                # a stable sort on the rows' candidate bits makes each set's
                # rows one run, in ascending row order (np.unique(axis=0)
                # sorts rows as opaque records, several times slower)
                bits = np.packbits(candidates[disputed], axis=1)
                by_set = np.lexsort(bits.T)
                bits = bits[by_set]
                firsts = np.flatnonzero(np.any(bits[1:] != bits[:-1], axis=1)) + 1
                for idx in np.split(disputed[by_set], firsts):
                    members = candidates[idx[0]]
                    counts = _vote_counts(layout.pairs, d2[idx], tuple(everyone[members].tolist()))
                    top = counts == counts.max(axis=1, keepdims=True)
                    tied_values = np.where(top, values[idx][:, members], -np.inf)
                    winners[idx] = np.flatnonzero(members)[np.argmax(tied_values, axis=1)]
        labels.append(everyone[winners])
    return np.concatenate(labels), np.concatenate(regions)


def predict_labels(model: CilModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class id and region code (the region's position in
    REGIONS, as uint8) for each row of X: the labels and regions of
    predict_details, settled in arrays with no per-row Python."""
    return _settle(model, X, nearest_sv=False)


def _detail(
    labels: Iterable[int], label: int, region: int, possible: tuple[int, ...],
    values: list[float], votes: list[int] | None,
) -> PredictionDetail:
    """One row of _details' columns as a PredictionDetail; labels are the
    class ids in registry order."""
    return PredictionDetail(
        label, REGIONS[region], possible, dict(zip(labels, values)),
        {} if votes is None else dict(zip(possible, votes)),
    )


def predict_details(model: CilModel, X: np.ndarray) -> Iterator[PredictionDetail]:
    """Full per-class values, region and votes for each row of X, in order.

    Computed a chunk at a time as the iterator is consumed, so memory stays
    bounded on large X; invalid input raises at the first item. A row's
    class values may differ in the last bits from predict_detail's for the
    same row (a one-row chunk is multiplied with a dot kernel, a larger one
    with gemv), so compare them with a tolerance, not byte for byte."""
    labels = model.layout.columns
    for d2, values in _class_stage(model, X):
        for row in zip(*_details(model, d2, values)):
            yield _detail(labels, *row)


def predict_detail(model: CilModel, x: np.ndarray) -> PredictionDetail:
    """Full per-class values, region, and votes behind a prediction.

    The row is a chunk of its own, multiplied with a dot kernel rather than
    gemv, so its class values may differ in the last bits from the values
    predict_details gives the same row among others."""
    # unpacking runs the generator to its end, which costs less on this
    # latency path than closing it half-way as next() would leave it
    (d2, values), = _class_stage(model, np.asarray(x, dtype=float).reshape(1, -1))
    ((label,), (region,), (possible,), (values,), (votes,)) = _details(model, d2, values)
    return _detail(model.layout.columns, label, region, possible, values, votes)


def predict(model: CilModel, x: np.ndarray) -> int:
    """Predicted class id for one raw-space sample."""
    return predict_detail(model, x).label


def ocsvm_nn_labels(model: CilModel, X: np.ndarray) -> np.ndarray:
    """Predicted class id for each row of X, with disputes resolved by the
    class of the nearest SV (a distance tie goes to the smaller label),
    settled in arrays with no per-row Python."""
    return _settle(model, X, nearest_sv=True)[0]


# --- baselines ---------------------------------------------------------------


def knn_labels(train: LabeledDataset, X: np.ndarray, k: int = 1) -> np.ndarray:
    """k-nearest-neighbor vote for each row of X; vote ties go to the
    closest tied class. DataError unless every row of X has a norm within
    MAX_NORM, as for prediction."""
    if not 1 <= k <= train.n:
        raise ValueError(f"k must be in [1, {train.n}]")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _scale_bounded(X, None)
    out = np.empty(X.shape[0], dtype=int)
    # rows per chunk: about 2**17 floats (1 MB) in each difference block;
    # larger blocks leave the cache and run slower
    step = max(1, (1 << 17) // train.features.size)
    for start in range(0, X.shape[0], step):
        Xs = X[start:start + step]
        # norms of differences, not squared_distances, which rounds
        # differently and could reorder near-equal neighbours
        dists = np.linalg.norm(train.features[None] - Xs[:, None], axis=2)
        for i, row in enumerate(np.argsort(dists, axis=1, kind="stable")[:, :k], start):
            nbr_labels = train.labels[row].tolist()
            counts = Counter(nbr_labels)
            top = max(counts.values())
            # the nearest-first scan finds the closest of the tied classes
            out[i] = next(lbl for lbl in nbr_labels if counts[lbl] == top)
    return out


@dataclass(frozen=True)
class BatchSvm:
    """1vs1 table trained on full class data (non-incremental baseline).

    Each class's training rows are kept once; a pair's coefficients follow
    its two classes' rows, lower label first."""

    rows: dict[int, np.ndarray]  # label -> its training rows
    pairs: dict[tuple[int, int], PairwiseClassifier]


def train_batch_svm(train: LabeledDataset, cv: CvConfig, cfg: SolverConfig | None = None) -> BatchSvm:
    cfg = cfg or SolverConfig()
    rows = {a: train.rows_of(a) for a in train.class_ids}
    pairs = {}
    for a, b in combinations(rows, 2):
        pairs[(a, b)] = train_pair(rows[a], a, rows[b], b, cv, cfg)
    return BatchSvm(rows=rows, pairs=pairs)


def batch_svm_classify(svm: BatchSvm, X: np.ndarray) -> np.ndarray:
    """Majority vote over all pairs for each row of X; ties go to the
    smallest label. DataError unless every row of X has a norm within
    MAX_NORM, as for prediction.

    Every chunk of rows votes as the SD-CIL dispute stage does, through
    _vote_counts on a PairTable over the class rows stacked in label order."""
    X, xx = _scale_bounded(np.atleast_2d(np.asarray(X, dtype=float)), None)
    labels = tuple(sorted(svm.rows))  # ascending, so argmax keeps the smallest on a tie
    rows = np.vstack([svm.rows[lbl] for lbl in labels])
    yy = squared_norms(rows)
    stops = accumulate(len(svm.rows[lbl]) for lbl in labels)
    table = PairTable.of({lbl: slice(stop - len(svm.rows[lbl]), stop) for lbl, stop in zip(labels, stops)}, svm.pairs)
    winners = np.empty(X.shape[0], dtype=int)
    for start in range(0, X.shape[0], _CHUNK_ROWS):
        chunk = slice(start, start + _CHUNK_ROWS)
        d2 = squared_distances(X[chunk], rows, xx=xx[chunk], yy=yy)
        winners[chunk] = np.argmax(_vote_counts(table, d2, labels), axis=1)
    return np.array(labels)[winners]


# --- persistence -------------------------------------------------------------


def _class_entry(m: OcsvmModel) -> dict:
    return {
        "label": int(m.class_label),
        "nu": float(m.nu),
        "width": float(m.width),
        "rho": float(m.rho),
        "sv_matrix": [[float(v) for v in row] for row in m.support_vectors],
        "sv_alphas": [float(a) for a in m.sv_alphas],
        "train_count": int(m.train_count),
        "converged": m.converged,
    }


def _pair_entry(p: PairwiseClassifier) -> dict:
    return {
        "a": int(p.label_a),
        "b": int(p.label_b),
        "width": float(p.width),
        "cost": float(p.cost),
        "bias": float(p.bias),
        "coeffs": [float(c) for c in p.coeffs],
        "cv_accuracy": float(p.cv_accuracy),
        "train_accuracy": float(p.train_accuracy),
        "converged": p.converged,
    }


def class_payload(m: OcsvmModel) -> bytes:
    """Canonical bytes of one class entry, for byte-identity checks."""
    return json.dumps(_class_entry(m), sort_keys=True, separators=(",", ":")).encode()


def pair_payload(p: PairwiseClassifier) -> bytes:
    return json.dumps(_pair_entry(p), sort_keys=True, separators=(",", ":")).encode()


# The type of each number in a saved config, by (section, field); "?" marks
# a field that may be null, a grid is a list of floats, and an int is an
# int64. A value of another type, a bool included, would load and fail only
# when a class is added, with a raw TypeError; a larger int would fail where
# numpy takes it. The config classes check each field's range.
_CONFIG_TYPES = {
    (None, "nu_default"): "float",
    (None, "k_neighbors"): "int?",
    (None, "side_threshold"): "float",
    (None, "width_count"): "int",
    ("cv", "folds"): "int",
    ("cv", "cost_grid"): "grid",
    ("cv", "width_grid"): "grid?",
    ("cv", "width_count"): "int",
    ("cv", "seed"): "int",
    ("solver", "kkt_tolerance"): "float",
    ("solver", "max_passes"): "int?",
    ("solver", "seed"): "int",
}


def _has_type(value, kind: str) -> bool:
    if kind.endswith("?"):
        return value is None or _has_type(value, kind[:-1])
    if kind == "grid":
        return isinstance(value, list) and all(_has_type(v, "float") for v in value)
    if isinstance(value, int) and not isinstance(value, bool):
        return np.iinfo(np.int64).min <= value <= np.iinfo(np.int64).max
    return kind == "float" and isinstance(value, float)


def _config_from_entry(e: dict) -> CilConfig:
    # a key that fell back to its default would hide a damaged file
    for entry, cls in ((e, CilConfig), (e["cv"], CvConfig), (e["solver"], SolverConfig)):
        missing = [f.name for f in fields(cls) if f.name not in entry]
        if missing:
            raise KeyError(missing[0])
    for (section, name), kind in _CONFIG_TYPES.items():
        value = (e[section] if section else e)[name]
        if not _has_type(value, kind):
            raise TypeError(f"config field {'.'.join(filter(None, (section, name)))} has the wrong type: {value!r}")
    cv = dict(e["cv"])
    cv["cost_grid"] = tuple(cv["cost_grid"])
    if cv["width_grid"] is not None:
        cv["width_grid"] = tuple(cv["width_grid"])
    return CilConfig(**{**e, "cv": CvConfig(**cv), "solver": SolverConfig(**e["solver"])})


def _to_json_dict(model: CilModel) -> dict:
    scaler = model.scaler
    return {
        "format_version": FORMAT_VERSION,
        "scaler": None
        if scaler is None
        else {
            "mean": [float(v) for v in scaler.mean],
            "std": [float(v) for v in scaler.std],
            "constant_columns": list(scaler.constant_columns),
        },
        "classes": [_class_entry(m) for m in model.classes],
        "pairs": [_pair_entry(model.pair_table[k]) for k in sorted(model.pair_table)],
        "config": asdict(model.config),
    }


def save(model: CilModel, path: str | Path) -> None:
    """Write the registry as versioned JSON; floats round-trip exactly.

    The file at path is replaced whole or not at all: the JSON goes to a new
    temporary file beside it, which is flushed, fsynced and moved into place
    with os.replace. A write that fails part-way leaves the old file as it
    was and removes the temporary one; the OSError names path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            json.dump(_to_json_dict(model), f, indent=1)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(e.errno, e.strerror, str(path)) from e
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _converged_from_entry(e: dict) -> bool:
    converged = e["converged"]
    if not isinstance(converged, bool):
        raise TypeError(f"converged must be true or false, got {converged!r}")
    return converged


def _ocsvm_from_entry(e: dict) -> OcsvmModel:
    return OcsvmModel(
        class_label=int(e["label"]),
        support_vectors=_float_array(e["sv_matrix"]),
        sv_alphas=_float_array(e["sv_alphas"]),
        rho=float(e["rho"]),
        width=float(e["width"]),
        nu=float(e["nu"]),
        train_count=int(e["train_count"]),
        converged=_converged_from_entry(e),
    )


def _pair_from_entry(e: dict) -> PairwiseClassifier:
    return PairwiseClassifier(
        label_a=int(e["a"]),
        label_b=int(e["b"]),
        coeffs=_float_array(e["coeffs"]),
        bias=float(e["bias"]),
        width=float(e["width"]),
        cost=float(e["cost"]),
        cv_accuracy=float(e["cv_accuracy"]),
        train_accuracy=float(e["train_accuracy"]),
        converged=_converged_from_entry(e),
    )


def _float_array(values) -> np.ndarray:
    """values as a float array. The parser lets no NaN or infinity through,
    so a non-finite entry is a null, which numpy reads as NaN."""
    array = np.array(values, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError("null where a number belongs")
    return array


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load(path: str | Path) -> CilModel:
    """Read a model file written by save() in this format version; a file
    of any other version, 1 included, raises ModelFormatError.

    Building the model checks that the labels are int64, the pair table
    holds one pair per two classes, and each pair has one coefficient per
    support vector of its two classes. Support vectors must have norms within
    MAX_NORM, so that no prediction computes Inf - Inf. Scaler std entries
    must be at least STD_EPSILON, the floor fit_standardize gives a constant
    column: a smaller one overflows the rows it scales. No number list may
    hold a null, and each config field must have its type."""
    try:
        with open(path, encoding="utf-8") as f:
            # NaN, Infinity and overflowing literals would load as values
            # that predict turns into arbitrary labels
            raw = json.load(f, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as e:  # includes JSONDecodeError and UnicodeDecodeError
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
                mean=_float_array(raw["scaler"]["mean"]),
                std=_float_array(raw["scaler"]["std"]),
                constant_columns=tuple(raw["scaler"]["constant_columns"]),
            )
            if not np.all(scaler.std >= STD_EPSILON):
                raise ModelFormatError(
                    f"malformed model file {path}: a scaler std entry is below {STD_EPSILON:g}, "
                    "the floor of a fitted scaler"
                )
        classes = tuple(_ocsvm_from_entry(e) for e in raw["classes"])
        dims = {m.support_vectors.shape[1:] for m in classes}
        if scaler is not None:
            dims |= {scaler.mean.shape, scaler.std.shape}
        if len(dims) > 1:
            raise ModelFormatError(
                f"malformed model file {path}: the scaler and classes "
                f"disagree on the feature dimension ({sorted(dims)})"
            )
        entries = {(int(e["a"]), int(e["b"])): e for e in raw["pairs"]}
        if len(entries) != len(raw["pairs"]):
            listed = Counter((int(e["a"]), int(e["b"])) for e in raw["pairs"])
            raise ModelFormatError(
                f"malformed model file {path}: pair table lists "
                f"{sorted(key for key, n in listed.items() if n > 1)} more than once"
            )
        pairs = {key: _pair_from_entry(e) for key, e in entries.items()}
        bad = [f"class {m.class_label}" for m in classes if m.m == 0 or m.sv_alphas.shape != (m.m,)]
        if bad:
            raise ModelFormatError(
                f"malformed model file {path}: need one alpha per support vector "
                f"and at least one support vector per class ({', '.join(bad)})"
            )
        with np.errstate(over="ignore"):  # an overflowing norm fails the check
            bad = [f"class {m.class_label}" for m in classes
                   if not np.all(squared_norms(m.support_vectors) <= _MAX_SQUARED_NORM)]
        if bad:
            raise ModelFormatError(
                f"malformed model file {path}: a support vector's norm exceeds {MAX_NORM:g} "
                f"({', '.join(bad)})"
            )
        bad = [
            f"class {m.class_label}" for m in classes
            if not (m.nu > 0 and m.train_count > 0 and np.all(m.sv_alphas > 0)
                    and np.all(m.sv_alphas <= (1 + BOX_SLACK) / (m.nu * m.train_count)))
        ]
        # a pair's decision sums its kernel terms, each at most a coefficient,
        # in any order: with 2 x cost x coefficients finite no partial sum
        # overflows, so none is Inf - Inf
        bad += [
            f"pair {k}" for k, clf in pairs.items()
            if not (np.all(np.abs(clf.coeffs) <= (1 + BOX_SLACK) * clf.cost)
                    and math.isfinite(2.0 * clf.cost * clf.coeffs.size))
        ]
        if bad:
            raise ModelFormatError(
                f"malformed model file {path}: coefficients outside the dual box, "
                f"(0, 1/(nu*train_count)] for a class and [-cost, cost] for a pair, "
                f"whose cost x coefficients must be finite ({', '.join(bad)})"
            )
        return CilModel(config=config, scaler=scaler, classes=classes, pair_table=pairs)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"malformed model file {path}: {e}") from e
