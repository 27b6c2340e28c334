"""Peak traced memory of the training stages that hold n x n arrays.

Each bound is the stage's designed working set in float64 cells, plus
SLACK for numpy's fixed-size iterator buffers and the small vectors of
the solves. A stage runs once untraced first, so that lazy imports and
the solver loop's set-up are not counted.
"""

import tracemalloc

import numpy as np

from sdcil.geometry import BoundaryPartition, select_width
from sdcil.kernels import BLOCK_ROWS, candidate_widths, squared_distances
from sdcil.pairwise import CvConfig, train_pair
from sdcil.smo import SolverConfig

SLACK = 256 * 1024  # bytes
CELL = 8  # bytes per float64


def traced_peak(fn, *args) -> int:
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_squared_distances_holds_one_matrix_and_one_block():
    n = 400
    X = np.random.default_rng(0).normal(size=(n, 3))
    assert traced_peak(squared_distances, X) <= CELL * (n * n + BLOCK_ROWS * n) + SLACK


def test_select_width_holds_distances_kernel_and_one_block():
    # nu 0.6 keeps more support vectors than BLOCK_ROWS, and every row is
    # an edge row, so the covering gaps are read over several SV blocks
    n = 400
    X = np.random.default_rng(1).normal(size=(n, 3))
    idx = np.arange(n)
    part = BoundaryPartition(edge_indices=idx, interior_indices=idx[:0])
    peak = traced_peak(select_width, X, 0.6, candidate_widths(X, 3), part, SolverConfig())
    assert peak <= CELL * (2 * n * n + BLOCK_ROWS * n) + SLACK


def test_train_pair_holds_distances_gram_and_one_fold():
    # 150 + 150 vectors in 3 stratified folds: each fold trains on 200 rows
    # and validates 100, so its copies are 200 x 200 and 100 x 200
    rng = np.random.default_rng(2)
    A, B = rng.normal(size=(150, 3)), rng.normal(size=(150, 3)) + 1.0
    cv = CvConfig(folds=3, cost_grid=(0.5, 8.0), width_grid=(0.5, 2.0))
    n, n_tr, n_va = 300, 200, 100
    peak = traced_peak(train_pair, A, 0, B, 1, cv, SolverConfig())
    assert peak <= CELL * (2 * n * n + n_tr * n_tr + n_va * n_tr) + SLACK
