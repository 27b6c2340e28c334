"""1vs1 dispute classifiers trained on two classes' support vectors.

Each classifier is a soft-margin Gaussian-kernel binary SVM over the pooled
support vectors of the two classes, with (C, s) picked by stratified
cross-validated grid search. The lower class id sits on the positive side
of the decision function. A classifier keeps no vectors of its own: its
coefficients follow its two classes' vectors stacked lower label first, so
whoever holds those vectors (the registry's class models) evaluates it.

Within each (width, fold) of the grid the costs are solved in ascending
order, each solve starting from the previous cost's alphas (alpha seeding):
they stay feasible because 0 <= a <= C_prev <= C and y'a = 0 does not
depend on C, and they sit close to the next solution, so the solve takes
fewer iterations. The first cost and the refit of the winner on the full
pool start cold. Start points depend only on the pooled vectors and the
grid, never on the order in which classes arrived.

Each (width, fold, cost) is one call of solve_binary_dual, which the
benchmark's tracer counts. On pools of a few dozen vectors such a solve
costs mostly its fixed set-up and offset recovery, not its iterations (see
smo), and the fold's validation hits are one exact count of agreeing signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import KernelWidth, candidate_widths, gram_from_sqdist, squared_distances
from .smo import SolverConfig, solve_binary_dual

DEFAULT_COST_GRID = tuple(2.0 ** e for e in range(-3, 8))

# Multiplier on max_passes for the final refit, which should converge even
# when a few grid-search solves did not.
_FINAL_PASS_BOOST = 10


@dataclass(frozen=True)
class CvConfig:
    """Grid-search settings for pairwise training."""

    folds: int = 5
    cost_grid: tuple[float, ...] = DEFAULT_COST_GRID
    width_grid: tuple[float, ...] | None = None  # None -> candidate grid on pooled SVs
    width_count: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if len(self.cost_grid) == 0:
            raise ValueError("cost_grid must be nonempty")
        if self.width_count < 1:
            raise ValueError(f"width_count must be >= 1, got {self.width_count}")
        if self.width_grid is not None and len(self.width_grid) == 0:
            raise ValueError("width_grid must be nonempty when given")
        for name, grid in (("cost_grid", self.cost_grid), ("width_grid", self.width_grid or ())):
            bad = [v for v in grid if not 0.0 < v < math.inf]
            if bad:
                raise ValueError(f"{name} entries must be positive and finite, got {bad[0]}")


@dataclass(frozen=True)
class PairwiseClassifier:
    """A trained dispute classifier. Its decision at x is
    sum_i coeffs_i k(v_i, x) + bias, where v is label_a's vectors followed
    by label_b's; positive favors label_a."""

    label_a: int  # a < b; positive decision side
    label_b: int
    coeffs: np.ndarray  # alpha_i * y_i, one per vector of a, then of b
    bias: float
    width: KernelWidth
    cost: float
    cv_accuracy: float
    train_accuracy: float
    converged: bool  # whether the refit's solve met the KKT tolerance


def _fold_assignment(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Stratified fold ids: per class, seeded shuffle then round-robin deal."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(y.shape[0], dtype=int)
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        perm = rng.permutation(idx)
        fold_of[perm] = np.arange(perm.size) % folds
    return fold_of


def train_pair(
    sv_a: np.ndarray,
    label_a: int,
    sv_b: np.ndarray,
    label_b: int,
    cv: CvConfig,
    cfg: SolverConfig,
) -> PairwiseClassifier:
    """Grid-search and train the dispute classifier for one class pair.

    Stratified k-fold CV on the pooled vectors, leave-one-out when any fold
    would hold fewer than two of the smaller class. Accuracy ties prefer
    smaller C, then smaller width. Each fold solve after the smallest cost
    starts from the previous cost's alphas. The winner is refit on the full
    pool from a cold start. The classifier keeps the refit's coefficients,
    not the pooled vectors.

    The working set is the pool's n x n squared distances, one n x n Gram
    buffer, which every width and the refit overwrite, and one fold's
    training and validation blocks of it, freed before the next fold's.
    """
    if label_a == label_b:
        raise ValueError("pair labels must differ")
    if label_a > label_b:
        sv_a, sv_b = sv_b, sv_a
        label_a, label_b = label_b, label_a
    A = np.atleast_2d(np.asarray(sv_a, dtype=float))
    B = np.atleast_2d(np.asarray(sv_b, dtype=float))
    if A.shape[0] < 2 or B.shape[0] < 2:
        raise ValueError("each side needs at least 2 vectors")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch between the two SV sets")

    X = np.vstack([A, B])
    y = np.concatenate([np.ones(A.shape[0]), -np.ones(B.shape[0])])
    n = X.shape[0]
    n_small = min(A.shape[0], B.shape[0])

    widths = cv.width_grid if cv.width_grid is not None else tuple(candidate_widths(X, cv.width_count))
    widths = tuple(sorted(float(s) for s in widths))
    costs = tuple(sorted(float(c) for c in cv.cost_grid))

    if n_small >= 2 * cv.folds:
        folds = cv.folds
        fold_of = _fold_assignment(y, folds, cv.seed)
    else:
        folds = n  # leave-one-out
        fold_of = np.arange(n)

    d2 = squared_distances(X)

    # the fold index sets depend on neither width nor C. Each fold has both
    # classes on each side: a stratified fold gets at least 2 rows of each
    # class, and leave-one-out takes one row from sides of at least 2.
    fold_sets = []
    for f in range(folds):
        va = np.nonzero(fold_of == f)[0]
        tr = np.nonzero(fold_of != f)[0]
        fold_sets.append((np.ix_(tr, tr), np.ix_(va, tr), y[tr], y[va] > 0))

    K = np.empty_like(d2)
    best = None  # (accuracy, C, s)
    any_converged = False
    for s in widths:
        gram_from_sqdist(d2, s, out=K)
        fold_acc = [[] for _ in costs]
        for tr_tr, va_tr, y_tr, pos_va in fold_sets:
            K_tr, K_va = K[tr_tr], K[va_tr]
            alphas = None  # costs ascend, so each solve seeds the next
            for C, accs in zip(costs, fold_acc):
                sol = solve_binary_dual(K_tr, y_tr, C, cfg, start=alphas)
                alphas = sol.alphas
                any_converged = any_converged or sol.converged
                dec = K_va @ (alphas * y_tr) + sol.offset
                # an exact count over the fold size: np.mean's share of hits, byte for byte
                accs.append(np.count_nonzero((dec > 0.0) == pos_va) / pos_va.size)
            del K_tr, K_va  # before the next fold's copies are made
        for C, accs in zip(costs, fold_acc):
            acc = float(np.mean(accs))
            # ties prefer smaller C, then smaller width
            if best is None or acc > best[0] or (acc == best[0] and (C, s) < (best[1], best[2])):
                best = (acc, C, s)

    cv_accuracy, C_win, s_win = best
    final_cfg = replace(cfg, max_passes=cfg.resolve_max_passes(n) * _FINAL_PASS_BOOST)
    gram_from_sqdist(d2, s_win, out=K)
    sol = solve_binary_dual(K, y, C_win, final_cfg)
    if not sol.converged and not any_converged:
        raise RuntimeError(
            f"pairwise training diverged for every solve (labels {label_a} vs {label_b})"
        )
    coeffs = sol.alphas * y
    train_dec = K @ coeffs + sol.offset
    train_accuracy = float(np.mean(np.where(train_dec > 0.0, 1.0, -1.0) == y))
    return PairwiseClassifier(
        label_a=int(label_a),
        label_b=int(label_b),
        coeffs=coeffs,
        bias=float(sol.offset),
        width=float(s_win),
        cost=float(C_win),
        cv_accuracy=cv_accuracy,
        train_accuracy=train_accuracy,
        converged=bool(sol.converged),
    )
