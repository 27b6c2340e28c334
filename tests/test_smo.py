import numpy as np
import pytest

from oracles import pgd_binary_objective, pgd_ocsvm_objective
from sdcil.kernels import GramMatrix, gram, kernel_matrix
from sdcil.smo import BOUND_MARGIN, SolverConfig, solve_binary_dual, solve_ocsvm_dual

TIGHT = SolverConfig(kkt_tolerance=1e-7)


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def random_gram(rng, n, d=3):
    X = rng.normal(size=(n, d))
    s = float(rng.uniform(0.5, 3.0))
    return gram(X, s), X, s


class TestOcsvmDual:
    def test_two_symmetric_points(self):
        K = gram(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
        sol = solve_ocsvm_dual(K, 0.5, TIGHT)
        assert sol.converged
        assert np.allclose(sol.alphas, [0.5, 0.5], atol=1e-9)
        assert sol.offset == pytest.approx(0.5 * (1.0 + K.values[0, 1]), abs=1e-9)

    @pytest.mark.parametrize("l", [1, 2, 5, 9])
    def test_identity_gram_nu_one(self, l):
        K = GramMatrix(values=np.eye(l), width=1.0)
        sol = solve_ocsvm_dual(K, 1.0, TIGHT)
        assert sol.converged
        assert np.allclose(sol.alphas, 1.0 / l, atol=1e-12)
        assert sol.offset == pytest.approx(1.0 / l, abs=1e-12)

    def test_objective_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(100)
        K, _, _ = random_gram(rng, 15)
        sol = solve_ocsvm_dual(K, 0.3, TIGHT)
        oracle = pgd_ocsvm_objective(K.values, 0.3)
        assert rel_diff(sol.objective, oracle) < 1e-6

    def test_infeasible_nu(self):
        K = gram(np.array([[0.0], [1.0], [2.0]]), 1.0)
        with pytest.raises(ValueError, match="infeasible"):
            solve_ocsvm_dual(K, 0.2, TIGHT)  # nu * l = 0.6 < 1

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.2])
    def test_nu_domain(self, bad):
        K = gram(np.eye(3), 1.0)
        with pytest.raises(ValueError):
            solve_ocsvm_dual(K, bad, TIGHT)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        K, _, _ = random_gram(rng, 25)
        cfg = SolverConfig(kkt_tolerance=1e-5, seed=77)
        a = solve_ocsvm_dual(K, 0.4, cfg)
        b = solve_ocsvm_dual(K, 0.4, cfg)
        assert np.array_equal(a.alphas, b.alphas)
        assert a.offset == b.offset and a.iterations == b.iterations

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(8)
        K, _, _ = random_gram(rng, 30)
        sol = solve_ocsvm_dual(K, 0.3, SolverConfig(kkt_tolerance=1e-12, max_passes=3))
        assert not sol.converged
        assert sol.kkt_violation > 1e-12
        assert sol.iterations == 3

    @pytest.mark.parametrize("trial", range(100))
    def test_feasibility_and_nu_property(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 41))
        nu = float(rng.uniform(0.1, 0.9))
        if nu * n < 1.0:
            nu = 1.5 / n
        K, _, _ = random_gram(rng, n)
        cfg = SolverConfig(kkt_tolerance=1e-5, seed=trial)
        sol = solve_ocsvm_dual(K, nu, cfg)
        assert sol.converged
        C = 1.0 / (nu * n)
        assert sol.alphas.min() >= -1e-10
        assert sol.alphas.max() <= C + 1e-10
        assert abs(sol.alphas.sum() - 1.0) < 1e-8
        # nu-property: bounded-SV fraction <= nu + 2/l, SV fraction >= nu - 2/l
        bounded = np.mean(sol.alphas >= C - BOUND_MARGIN)
        all_sv = np.mean(sol.alphas > 1e-8)
        assert bounded <= nu + 2.0 / n
        assert all_sv >= nu - 2.0 / n
        # KKT: no feasible pair violates beyond tolerance
        G = K.values @ sol.alphas
        up = sol.alphas < C - BOUND_MARGIN
        dn = sol.alphas > BOUND_MARGIN
        assert G[dn].max() - G[up].min() <= cfg.kkt_tolerance * (1 + 1e-9)


class TestBinaryDual:
    def test_two_points_symmetric(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([1.0, -1.0])
        K = gram(X, 1.0)
        sol = solve_binary_dual(K, y, 1e6, TIGHT)
        assert sol.converged
        assert sol.alphas[0] == pytest.approx(sol.alphas[1], rel=1e-9)
        # decision at the midpoint of the two points sits on the boundary
        kmid = kernel_matrix(np.array([[1.0, 0.0]]), X, 1.0)[0]
        dec = kmid @ (sol.alphas * y) + sol.offset
        assert abs(dec) < 1e-7

    def test_xor_with_gaussian_kernel(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        K = gram(X, 0.5)
        sol = solve_binary_dual(K, y, 100.0, TIGHT)
        assert sol.converged
        dec = K.values @ (sol.alphas * y) + sol.offset
        assert np.all(np.sign(dec) == y)

    def test_objective_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(200)
        K, _, _ = random_gram(rng, 12)
        y = np.where(rng.random(12) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        sol = solve_binary_dual(K, y, 5.0, TIGHT)
        oracle = pgd_binary_objective(K.values, y, 5.0)
        assert rel_diff(sol.objective, oracle) < 1e-6

    def test_single_class_labels_rejected(self):
        K = gram(np.arange(6.0).reshape(3, 2), 1.0)
        with pytest.raises(ValueError, match="both classes"):
            solve_binary_dual(K, np.array([1.0, 1.0, 1.0]), 1.0, TIGHT)

    def test_nonpositive_cost_rejected(self):
        K = gram(np.arange(4.0).reshape(2, 2), 1.0)
        with pytest.raises(ValueError, match="positive"):
            solve_binary_dual(K, np.array([1.0, -1.0]), 0.0, TIGHT)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(4)
        K, _, _ = random_gram(rng, 20)
        y = np.where(rng.random(20) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        sol = solve_binary_dual(K, y, 10.0, SolverConfig(kkt_tolerance=1e-12, max_passes=2))
        assert not sol.converged and sol.kkt_violation > 0

    @pytest.mark.parametrize("trial", range(60))
    def test_feasibility_property(self, trial):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(2, 41))
        K, _, _ = random_gram(rng, n)
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        y[0] = 1.0
        if n > 1:
            y[1] = -1.0
        C = float(rng.uniform(0.1, 100.0))
        cfg = SolverConfig(kkt_tolerance=1e-5, seed=trial)
        sol = solve_binary_dual(K, y, C, cfg)
        assert sol.converged
        assert sol.alphas.min() >= -1e-10
        assert sol.alphas.max() <= C + 1e-10
        assert abs(sol.alphas @ y) < 1e-8
        # KKT: no feasible pair violates beyond tolerance; r = -y * gradient
        r = y - K.values @ (sol.alphas * y)
        can_inc = sol.alphas < C - BOUND_MARGIN
        can_dec = sol.alphas > BOUND_MARGIN
        up = np.where(y > 0, can_inc, can_dec)
        low = np.where(y > 0, can_dec, can_inc)
        assert r[up].max() - r[low].min() <= cfg.kkt_tolerance * (1 + 1e-9)

    def test_objective_never_worse_than_oracle(self):
        rng = np.random.default_rng(321)
        for _ in range(5):
            n = int(rng.integers(4, 16))
            K, _, _ = random_gram(rng, n)
            y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            sol = solve_binary_dual(K, y, 3.0, TIGHT)
            oracle = pgd_binary_objective(K.values, y, 3.0)
            assert sol.objective <= oracle + 1e-6 * abs(oracle)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(kkt_tolerance=0.0)
    assert SolverConfig().resolve_max_passes(50) == 10000
    assert SolverConfig().resolve_max_passes(2000) == 20000
    assert SolverConfig(max_passes=7).resolve_max_passes(2000) == 7
