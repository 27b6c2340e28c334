"""Gaussian kernel evaluation, Gram matrices, and candidate width grids.

The kernel is fixed to k(x, y) = exp(-||x - y||^2 / (2 s^2)), so the width s
stays in the same units as Euclidean distance in the (standardized) input
space. All downstream width selection treats s as a geometric scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A kernel width is a plain positive float; helpers below validate it.
KernelWidth = float

# Rows used for the median-distance estimate are capped to keep the
# candidate-grid computation O(500^2) regardless of dataset size.
_MEDIAN_SUBSAMPLE = 500

# Geometric grid spans [lo * D_med, hi * D_med].
_GRID_LO = 0.05
_GRID_HI = 20.0


def check_width(s: float) -> float:
    """Validate a kernel width and return it as a float. Its square must not
    underflow to 0: a kernel at distance 0 would then be exp(0 / 0), NaN."""
    s = float(s)
    if not math.isfinite(s) or s <= 0.0 or s * s == 0.0:
        raise ValueError(f"kernel width must be a positive finite real whose square is nonzero, got {s}")
    return s


@dataclass(frozen=True)
class GramMatrix:
    """gram_from_sqdist's result: the kernel matrix as values.

    The solvers take the plain array, and gram returns one. This one-field
    shim stays only because the benchmark's tracer (perfbench/tracing.py)
    wraps gram_from_sqdist and reads .values from its result; it goes when
    the program gets its own trace hook (ROADMAP item 4)."""

    values: np.ndarray


def squared_norms(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of X, as squared_distances takes them."""
    # ndarray.sum skips np.sum's Python wrapper, which outweighs one-row work
    return (X * X).sum(axis=1)


def squared_distances(
    X: np.ndarray,
    Y: np.ndarray | None = None,
    *,
    xx: np.ndarray | None = None,
    yy: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X and Y (or X).

    xx and yy, when given, are squared_norms(X) and squared_norms(Y), which a
    caller that reuses X or Y over many calls computes once; the result is
    the same as without them.

    With Y omitted the result is exactly symmetric: numpy computes X @ X.T
    as a symmetric product for a C- or F-contiguous X, but may not for a
    strided one, which is therefore copied first.
    """
    X = np.asarray(X, dtype=float)
    if Y is None:
        if not (X.flags.c_contiguous or X.flags.f_contiguous):
            X = np.ascontiguousarray(X)
        Y = X
    else:
        Y = np.asarray(Y, dtype=float)
    if xx is None:
        xx = squared_norms(X)
    if yy is None:
        yy = squared_norms(Y)
    d2 = xx[:, None] + yy[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def kernel_from_sqdist(d2: np.ndarray, s: KernelWidth) -> np.ndarray:
    """Kernel values exp(-d2 / (2 s^2)) from precomputed squared distances;
    kernel_from_sqdist(squared_distances(X, Y), s) is the rectangular kernel
    matrix k(X_i, Y_j)."""
    s = check_width(s)
    return np.exp(d2 / (-2.0 * s * s))


def gram_from_sqdist(d2: np.ndarray, s: KernelWidth) -> GramMatrix:
    """The kernel matrix over precomputed squared distances, as a GramMatrix.

    Width-selection sweeps call this once per candidate so the O(n^2 d)
    distance work is shared across the grid.
    """
    return GramMatrix(values=kernel_from_sqdist(d2, s))


def gram(X: np.ndarray, s: KernelWidth) -> np.ndarray:
    """Gram matrix of one sample set; exactly symmetric with unit diagonal."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty n x d matrix")
    d2 = squared_distances(X)
    np.fill_diagonal(d2, 0.0)
    return kernel_from_sqdist(d2, s)


def _median_pairwise_distance(X: np.ndarray) -> float:
    """Median Euclidean distance over row pairs, subsampled for large n."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows to compute pairwise distances")
    if n > _MEDIAN_SUBSAMPLE:
        idx = np.linspace(0, n - 1, _MEDIAN_SUBSAMPLE).astype(int)
        X = X[idx]
        n = X.shape[0]
    d2 = squared_distances(X)
    iu = np.triu_indices(n, k=1)
    return float(np.median(np.sqrt(d2[iu])))


def candidate_widths(X: np.ndarray, count: int = 30) -> list[KernelWidth]:
    """Geometric grid of candidate widths around the median pairwise distance.

    Spans [0.05 * D_med, 20 * D_med] with `count` strictly increasing points,
    wide enough to cover both boundary-hugging and over-smoothed regimes.
    A single-point grid degenerates to the geometric midpoint, D_med itself.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    d_med = _median_pairwise_distance(X)
    if d_med <= 0.0:
        raise ValueError("all rows identical: median pairwise distance is zero")
    lo, hi = _GRID_LO * d_med, _GRID_HI * d_med
    if count == 1:
        return [float(np.sqrt(lo * hi))]
    return [float(s) for s in np.geomspace(lo, hi, count)]
