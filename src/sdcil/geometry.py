"""Boundary/interior partitioning and kernel-width selection.

A point is a boundary (edge) point when most of its k nearest neighbors lie
on one side of its tangent plane; the plane's normal is estimated as the
mean of unit vectors toward the neighbors. Width selection trains one
one-class SVM per candidate width, keeps the candidates whose support-vector
fraction stays within [nu, 1.5*nu], and among those picks the width whose
support vectors lie on the edge set and cover it most tightly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import KernelWidth, gram_from_sqdist, squared_distances
from .ocsvm import SV_THRESHOLD, OcsvmModel, model_from_solution
from .smo import DualSolution, SolverConfig, solve_ocsvm_dual

# Normals shorter than this are treated as degenerate: a point surrounded
# symmetrically by its neighbors is interior.
_NORMAL_EPS = 1e-12

DEFAULT_SIDE_THRESHOLD = 0.7


def default_k_neighbors(n: int) -> int:
    """max(5, ceil(sqrt(n))), capped at n - 1."""
    return min(max(5, int(np.ceil(np.sqrt(n)))), n - 1)


@dataclass(frozen=True)
class BoundaryPartition:
    """Disjoint edge/interior index sets covering one class's rows."""

    edge_indices: np.ndarray
    interior_indices: np.ndarray

    @property
    def n(self) -> int:
        return self.edge_indices.size + self.interior_indices.size


@dataclass(frozen=True)
class CandidateRecord:
    """One candidate width of a selection sweep.

    score is the fraction of the candidate's support vectors lying outside
    the edge set and covering is the worst edge point's Euclidean distance
    to its nearest support vector; the selector minimizes (score, covering).
    """

    s: float
    converged: bool
    sv_fraction: float
    score: float
    covering: float
    admitted: bool
    fallback: bool = False


@dataclass(frozen=True)
class WidthSelection:
    chosen: KernelWidth
    per_candidate: list[CandidateRecord]
    model: OcsvmModel = field(repr=False, compare=False, default=None)
    fallback: bool = False


def _nearest_neighbours(d2: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of a stable argsort of each row of d2: the k
    smallest entries in ascending (distance, index) order.

    np.partition finds each row's k-th smallest distance, and every entry of
    the sorted prefix is at most that. The candidates, taken in index order,
    are sorted by (row, distance) with a stable sort, so index order still
    breaks distance ties, and each row keeps its first k.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(d2 <= kth)  # row-major: index order within a row
    order = np.lexsort((d2[rows, cols], rows))
    first = np.searchsorted(rows, np.arange(d2.shape[0]))
    return cols[order][first[:, None] + np.arange(k)]


def beps_partition(
    X: np.ndarray, k_neighbors: int, side_threshold: float = DEFAULT_SIDE_THRESHOLD
) -> BoundaryPartition:
    """Partition rows into edge and interior sets by the tangent-plane rule.

    For each point: take its k nearest neighbors (Euclidean, ties broken by
    index order), estimate the inward normal as the normalized mean of unit
    vectors to the neighbors, and mark the point as edge when at least
    side_threshold of the neighbors lie on the normal's side.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if k_neighbors < 2:
        raise ValueError("k_neighbors must be >= 2")
    if n < k_neighbors + 1:
        raise ValueError(f"need at least k_neighbors + 1 = {k_neighbors + 1} points, got {n}")
    if not 0.5 < side_threshold <= 1.0:
        raise ValueError("side_threshold must lie in (0.5, 1]")

    d2 = squared_distances(X)
    np.fill_diagonal(d2, np.inf)  # exclude self
    nbr = _nearest_neighbours(d2, k_neighbors)

    edge = np.zeros(n, dtype=bool)
    for i in range(n):
        diffs = X[nbr[i]] - X[i]
        norms = np.linalg.norm(diffs, axis=1)
        units = np.divide(diffs, norms[:, None], out=np.zeros_like(diffs), where=norms[:, None] > 0)
        normal = units.mean(axis=0)
        nn = np.linalg.norm(normal)
        if nn < _NORMAL_EPS:
            continue  # symmetric neighborhood: interior
        side = diffs @ (normal / nn)
        edge[i] = np.mean(side >= 0.0) >= side_threshold
    idx = np.arange(n)
    return BoundaryPartition(edge_indices=idx[edge], interior_indices=idx[~edge])


def select_width(
    X_class: np.ndarray,
    nu: float,
    candidates: list[KernelWidth],
    part: BoundaryPartition,
    cfg: SolverConfig,
    class_label: int = 0,
) -> WidthSelection:
    """Pick a kernel width per the support-vector-fraction filter.

    Solves one one-class dual per candidate (sharing the pairwise-distance
    work) and admits converged candidates with SV fraction in [nu, 1.5*nu];
    only the winner is built into a model. Among the admitted, the winner
    puts its support vectors on the detected boundary: fewest SVs outside
    the edge set first, then the smallest worst-case gap between an edge
    point and its nearest SV, then the smaller width. Raw feature-space
    margins cannot arbitrate here because they shrink uniformly as the
    width grows; the SV-on-boundary agreement is the scale-free statement
    of the same objective. If nothing is admitted, falls back to the
    converged candidate whose SV fraction is closest to 1.25*nu, flagged
    as such.
    """
    X = np.asarray(X_class, dtype=float)
    if not candidates:
        raise ValueError("candidate list is empty")
    if part.n != X.shape[0]:
        raise ValueError("partition size does not match X_class")
    d2 = squared_distances(X)
    np.fill_diagonal(d2, 0.0)
    edge_mask = np.zeros(X.shape[0], dtype=bool)
    edge_mask[part.edge_indices] = True

    records: list[CandidateRecord] = []
    solutions: list[DualSolution] = []
    for s in sorted(float(s) for s in candidates):
        sol = solve_ocsvm_dual(gram_from_sqdist(d2, s).values, nu, cfg)
        solutions.append(sol)
        if not sol.converged:
            records.append(
                CandidateRecord(
                    s=s, converged=False, sv_fraction=float("nan"), score=float("nan"),
                    covering=float("nan"), admitted=False,
                )
            )
            continue
        keep = sol.alphas > SV_THRESHOLD
        frac = int(np.count_nonzero(keep)) / X.shape[0]
        score = float(np.mean(~edge_mask[keep]))
        # sqrt is monotone and correctly rounded: take it after the min and max
        gaps2 = d2[np.ix_(part.edge_indices, np.nonzero(keep)[0])]
        covering = float(np.sqrt(np.max(np.min(gaps2, axis=1)))) if part.edge_indices.size else 0.0
        records.append(
            CandidateRecord(
                s=s, converged=True, sv_fraction=frac, score=score, covering=covering,
                admitted=nu <= frac <= 1.5 * nu,
            )
        )

    if not any(r.converged for r in records):
        raise RuntimeError("no candidate width converged")

    best_i = None
    for i, rec in enumerate(records):
        if not rec.admitted:
            continue
        if best_i is None or (rec.score, rec.covering) < (
            records[best_i].score, records[best_i].covering
        ):
            best_i = i
    fallback = best_i is None
    if fallback:
        target = 1.25 * nu
        best_i = min(
            (i for i, r in enumerate(records) if r.converged),
            key=lambda i: abs(records[i].sv_fraction - target),
        )
        records[best_i] = replace(records[best_i], admitted=True, fallback=True)
    chosen = records[best_i].s
    return WidthSelection(
        chosen=chosen,
        per_candidate=records,
        model=model_from_solution(X, nu, chosen, solutions[best_i], class_label),
        fallback=fallback,
    )
