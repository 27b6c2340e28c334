import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import gaussian
from sdcil.kernels import (
    GramMatrix,
    _median_pairwise_distance,
    candidate_widths,
    check_width,
    gram,
    gram_from_sqdist,
    kernel_from_sqdist,
    squared_distances,
)


class TestGaussian:
    """The kernel from its definition (tests/oracles.py), which the Gram and
    rectangular kernel tests below take as their reference."""

    def test_zero_distance_is_one(self):
        x = np.array([1.5, -2.0, 3.0])
        assert gaussian(x, x, 0.7) == 1.0

    def test_analytic_value(self):
        # ||x-y|| = 5, s = 5 -> exp(-25/50) = e^-0.5
        v = gaussian(np.array([0.0, 0.0]), np.array([3.0, 4.0]), 5.0)
        assert v == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_small_width_limit(self):
        vals = [gaussian(np.array([0.0]), np.array([1.0]), s) for s in (0.5, 0.1, 0.02)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-100

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gaussian(np.zeros(2), np.zeros(3), 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan"), 1e-200])
    def test_invalid_width(self, bad):
        with pytest.raises(ValueError):
            check_width(bad)

    @given(
        x=st.lists(st.floats(-50, 50), min_size=1, max_size=5),
        y=st.lists(st.floats(-50, 50), min_size=1, max_size=5),
        s=st.floats(0.01, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, x, y, s):
        d = min(len(x), len(y))
        xv, yv = np.array(x[:d]), np.array(y[:d])
        k1, k2 = gaussian(xv, yv, s), gaussian(yv, xv, s)
        assert k1 == k2
        assert 0.0 <= k1 <= 1.0
        if np.all(xv == yv):
            assert k1 == 1.0
        elif np.sum((xv - yv) ** 2) / (2 * s * s) > 1e-15:  # above exp() resolution
            assert k1 < 1.0

    def test_monotone_in_width(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=4), rng.normal(size=4)
        widths = np.geomspace(0.05, 50, 12)
        vals = [gaussian(x, y, s) for s in widths]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestGram:
    def test_single_row(self):
        g = gram(np.array([[1.0, 2.0]]), 1.0)
        assert g.shape == (1, 1)
        assert g[0, 0] == 1.0

    def test_identical_rows(self):
        g = gram(np.array([[1.0, 2.0], [1.0, 2.0]]), 0.5)
        assert np.allclose(g, 1.0, atol=0)

    def test_matches_entrywise_recomputation(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        s = 1.3
        g = gram(X, s)
        expected = np.array([[gaussian(a, b, s) for b in X] for a in X])
        assert np.max(np.abs(g - expected)) < 1e-14

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        g = gram(rng.normal(size=(40, 4)), 2.0)
        assert np.max(np.abs(g - g.T)) < 1e-12
        assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 320),
        d=st.integers(1, 24),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    @example(seed=0, n=300, d=21, layout="strided")  # numpy's gemm path, before the copy
    @settings(max_examples=150, deadline=None)
    def test_exactly_symmetric(self, seed, n, d, layout):
        # the SMO loop reads rows of K in place of columns: K must equal K.T bit for bit
        A = np.random.default_rng(seed).normal(size=(n, 2 * d))
        X = {"C": A[:, :d].copy(), "F": np.asfortranarray(A[:, :d]), "strided": A[:, ::2]}[layout]
        D = squared_distances(X)
        K = gram(X, 1.5)
        assert np.array_equal(D, D.T)
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n,s", [(30, 0.3), (120, 1.0), (200, 5.0)])
    def test_positive_semidefinite_spot_check(self, seed, n, s):
        rng = np.random.default_rng(seed)
        g = gram(rng.normal(size=(n, 3)), s)
        assert np.linalg.eigvalsh(g)[0] >= -1e-8

    def test_kernel_from_sqdist_rectangular(self):
        rng = np.random.default_rng(11)
        X, Y = rng.normal(size=(6, 2)), rng.normal(size=(4, 2))
        K = kernel_from_sqdist(squared_distances(X, Y), 0.8)
        assert K.shape == (6, 4)
        assert K[2, 3] == pytest.approx(gaussian(X[2], Y[3], 0.8), abs=1e-14)


class TestCandidateWidths:
    @staticmethod
    def brute_force_median(X):
        n = X.shape[0]
        dists = [
            float(np.linalg.norm(X[i] - X[j])) for i in range(n) for j in range(i + 1, n)
        ]
        return float(np.median(dists))

    def test_single_candidate_is_median_distance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        (w,) = candidate_widths(X, 1)
        assert w == pytest.approx(self.brute_force_median(X), rel=1e-12)

    def test_standardized_grid_strictly_increasing(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 4))
        X = (X - X.mean(0)) / X.std(0)
        widths = candidate_widths(X, 30)
        assert len(widths) == 30
        assert all(a < b for a, b in zip(widths, widths[1:]))
        assert all(w > 0 for w in widths)
        d_med = self.brute_force_median(X)
        assert widths[0] == pytest.approx(0.05 * d_med, rel=1e-9)
        assert widths[-1] == pytest.approx(20.0 * d_med, rel=1e-9)

    def test_identical_rows_error(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError, match="identical"):
            candidate_widths(X, 10)

    def test_subsampling_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(800, 2))
        assert candidate_widths(X, 5) == candidate_widths(X, 5)
        assert _median_pairwise_distance(X) == _median_pairwise_distance(X)


def test_gram_matrix_is_frozen_value():
    # the one-field result of gram_from_sqdist, which a benchmark tracer reads
    d2 = np.array([[0.0, 2.0], [2.0, 0.0]])
    g = gram_from_sqdist(d2, 1.0)
    assert isinstance(g, GramMatrix)
    assert np.array_equal(g.values, kernel_from_sqdist(d2, 1.0))
    with pytest.raises(AttributeError):
        g.values = np.eye(2)
