import os
import shlex
import shutil
import subprocess
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pgd_binary_objective, pgd_ocsvm_objective, reference_bias, reference_smo
from sdcil import cil, smo
from sdcil.cli import EXIT_OK, main
from sdcil.kernels import gram, kernel_from_sqdist, squared_distances
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
        assert sol.offset == pytest.approx(0.5 * (1.0 + K[0, 1]), abs=1e-9)

    @pytest.mark.parametrize("l", [1, 2, 5, 9])
    def test_identity_gram_nu_one(self, l):
        K = np.eye(l)
        sol = solve_ocsvm_dual(K, 1.0, TIGHT)
        assert sol.converged
        assert np.allclose(sol.alphas, 1.0 / l, atol=1e-12)
        assert sol.offset == pytest.approx(1.0 / l, abs=1e-12)

    def test_objective_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(100)
        K, _, _ = random_gram(rng, 15)
        sol = solve_ocsvm_dual(K, 0.3, TIGHT)
        oracle = pgd_ocsvm_objective(K, 0.3)
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
        G = K @ sol.alphas
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
        kmid = kernel_from_sqdist(squared_distances(np.array([[1.0, 0.0]]), X), 1.0)[0]
        dec = kmid @ (sol.alphas * y) + sol.offset
        assert abs(dec) < 1e-7

    def test_xor_with_gaussian_kernel(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        K = gram(X, 0.5)
        sol = solve_binary_dual(K, y, 100.0, TIGHT)
        assert sol.converged
        dec = K @ (sol.alphas * y) + sol.offset
        assert np.all(np.sign(dec) == y)

    def test_objective_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(200)
        K, _, _ = random_gram(rng, 12)
        y = np.where(rng.random(12) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        sol = solve_binary_dual(K, y, 5.0, TIGHT)
        oracle = pgd_binary_objective(K, y, 5.0)
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
        r = y - K @ (sol.alphas * y)
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
            oracle = pgd_binary_objective(K, y, 3.0)
            assert sol.objective <= oracle + 1e-6 * abs(oracle)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(kkt_tolerance=0.0)
    assert SolverConfig().resolve_max_passes(50) == 10000
    assert SolverConfig().resolve_max_passes(2000) == 20000
    assert SolverConfig(max_passes=7).resolve_max_passes(2000) == 7


NOT_POSITIVE_OR_FINITE = [float("nan"), float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("tol", NOT_POSITIVE_OR_FINITE)
def test_solver_config_rejects_tolerance(tol):
    with pytest.raises(ValueError, match="kkt_tolerance must be positive and finite"):
        SolverConfig(kkt_tolerance=tol)


@pytest.mark.parametrize("C, message", [
    (float("nan"), "C must be positive"),
    (float("inf"), "C must be finite"),
    (0.0, "C must be positive"),
    (-1.0, "C must be positive"),
])
def test_binary_dual_rejects_cost(C, message):
    # a NaN cost once gave zero alphas with converged=True, and an infinite
    # one a model whose file does not load
    K, y = binary_problem(0, 6)
    with pytest.raises(ValueError) as err:
        solve_binary_dual(K, y, C, TIGHT)
    assert str(err.value) == message


@pytest.mark.parametrize("dual", ["ocsvm", "binary"])
def test_non_square_gram_rejected(dual):
    K = np.ones((3, 2))
    with pytest.raises(ValueError, match="square"):
        if dual == "ocsvm":
            solve_ocsvm_dual(K, 0.5, TIGHT)
        else:
            solve_binary_dual(K, np.array([1.0, -1.0, 1.0]), 1.0, TIGHT)


def compiled_loop():
    """The C loop; skips when there is no compiler, fails when there is one
    but the loop did not build or load."""
    loop = smo._compiled_loop()
    if loop is None:
        if shutil.which(shlex.split(os.environ.get("CC") or "cc")[0]):
            pytest.fail("a C compiler is present, but the C loop did not build or load")
        pytest.skip("no C compiler")
    return loop


def run_loop(loop, *args):
    """One of the two SMO loops, by name, on _smo's arguments: the KKT
    vector r = -y*G is updated in place."""
    if loop == "numpy":
        return smo._numpy_smo(*args)
    return smo._compiled_smo(compiled_loop(), *args)


def loop_problem(seed, n):
    """_smo's arguments for a binary problem from a zero start, where the
    gradient is -1 and so r = -y*G is y."""
    K, y = binary_problem(seed, n)
    return K, y, 4.0, np.zeros(n), y.copy(), SolverConfig(kkt_tolerance=1e-5)


def solve_bytes(seed):
    """Every output of one binary and one one-class solve, as bytes."""
    K, y = binary_problem(seed, 40)
    out = []
    for sol in (solve_binary_dual(K, y, 4.0, SolverConfig()), solve_ocsvm_dual(K, 0.3, SolverConfig())):
        out += [sol.alphas.tobytes(), np.float64(sol.offset).tobytes(), np.float64(sol.objective).tobytes(),
                sol.iterations, np.float64(sol.kkt_violation).tobytes()]
    return out


@pytest.mark.parametrize("loop", ["compiled", "numpy"])
class TestLoopIdentity:
    """Each SMO loop against the reference copy of the loop as first merged,
    which keeps the gradient G where the loops keep r = -y*G.

    Same start point, same picks, same rounding: every output is byte-equal,
    and -y*r is G byte for byte.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        log_tol=st.floats(-7.0, -2.0),
        dual=st.sampled_from(["ocsvm", "binary"]),
        rows=st.sampled_from(["distinct", "duplicate", "near-duplicate"]),
        max_passes=st.one_of(st.none(), st.integers(0, 100)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop(self, loop, seed, n, log_tol, dual, rows, max_passes):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        if rows != "distinct":
            # the later half repeats rows of the first, exactly or nearly
            half = n // 2
            X[half:] = X[rng.integers(0, max(half, 1), size=n - half)]
            if rows == "near-duplicate":
                X[half:] += rng.normal(scale=10.0 ** rng.uniform(-9, -1), size=(n - half, 3))
        Kv = gram(X, float(rng.uniform(0.2, 3.0)))
        cfg = SolverConfig(kkt_tolerance=10.0**log_tol, max_passes=max_passes)
        if dual == "ocsvm":
            nu = float(rng.uniform(1.0 / n, 1.0))
            C = 1.0 / (nu * n)
            m = int(np.ceil(nu * n))
            y = np.ones(n)
            alpha = np.zeros(n)
            alpha[rng.permutation(n)[:m]] = 1.0 / m
            G = Kv @ alpha
        else:
            C = float(2.0 ** rng.uniform(-3, 7))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[0], y[-1] = 1.0, -1.0
            alpha = np.zeros(n)
            G = -np.ones(n)
        a_ref, G_ref = alpha.copy(), G.copy()
        r = -y * G
        it, violation = run_loop(loop, Kv, y, C, alpha, r, cfg)
        it_ref, violation_ref = reference_smo(Kv, y, C, a_ref, G_ref, cfg)
        assert it == it_ref
        assert np.float64(violation).tobytes() == np.float64(violation_ref).tobytes()
        assert alpha.tobytes() == a_ref.tobytes()
        assert (-y * r).tobytes() == G_ref.tobytes()

    def test_ties_go_to_the_first_index(self, loop):
        # every base point three times over, shuffled: the repeated rows of
        # K are exact copies, so r holds exact ties all along and each pick
        # must take the first of the tied indices, as the reference does
        rng = np.random.default_rng(11)
        base, _, _ = random_gram(rng, 20)
        idx = rng.permutation(np.repeat(np.arange(20), 3))
        Kv = base[np.ix_(idx, idx)]
        y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)[idx]
        n = idx.size
        alpha, r = np.zeros(n), y.copy()
        a_ref, G_ref = alpha.copy(), -np.ones(n)
        cfg = SolverConfig(kkt_tolerance=1e-6)
        it, violation = run_loop(loop, Kv, y, 2.0, alpha, r, cfg)
        assert (it, violation) == reference_smo(Kv, y, 2.0, a_ref, G_ref, cfg)
        assert alpha.tobytes() == a_ref.tobytes() and (-y * r).tobytes() == G_ref.tobytes()
        assert it > 10 and np.unique(r).size <= 20  # many steps, over exact ties

    @pytest.mark.parametrize("member", ["both sets", "I_up only"])
    def test_nan_goes_first(self, loop, member):
        # a one-class start: free alphas 1/8 at every fourth index, zero
        # elsewhere. A NaN in r makes both r + up and r + low NaN, so the
        # first NaN is picked as i and as j, and its step spreads NaN
        # through r. The loops and the reference, which adds the same
        # penalties, agree byte for byte, NaN bits included.
        n = 32
        Kv, _ = binary_problem(5, n)
        y = np.ones(n)
        alpha = np.where(np.arange(n) % 4 == 0, 1.0 / 8, 0.0)
        r = -(Kv @ alpha)
        nans = [8, 20] if member == "both sets" else [5, 8]
        r[nans] = np.nan
        C, cfg = 1.0 / 7.5, SolverConfig(max_passes=1)
        a_np, r_np = alpha.copy(), r.copy()
        a_ref, G_ref = alpha.copy(), -y * r
        it, violation = run_loop(loop, Kv, y, C, alpha, r, cfg)
        assert (it, np.float64(violation).tobytes()) == (1, np.float64(np.nan).tobytes())
        assert np.flatnonzero(np.isnan(alpha)).tolist() == nans[:1]
        it_np, violation_np = smo._numpy_smo(Kv, y, C, a_np, r_np, cfg)
        assert it_np == it and np.float64(violation_np).tobytes() == np.float64(violation).tobytes()
        assert alpha.tobytes() == a_np.tobytes() and r.tobytes() == r_np.tobytes()
        it_ref, violation_ref = reference_smo(Kv, y, C, a_ref, G_ref, cfg)
        assert it_ref == it and np.float64(violation_ref).tobytes() == np.float64(violation).tobytes()
        assert alpha.tobytes() == a_ref.tobytes() and (-y * r).tobytes() == G_ref.tobytes()

    def test_max_passes_stop_reports_the_violation_before_the_last_step(self, loop):
        # stopped at max_passes = m, the loop reports the violation it read
        # before step m: that of the point m - 1 steps reach
        Kv, y, C, _, _, _ = loop_problem(3, 80)
        m = 12
        runs = []
        for passes in (m - 1, m):
            alpha, r = np.zeros(80), y.copy()
            it, violation = run_loop(loop, Kv, y, C, alpha, r, SolverConfig(kkt_tolerance=1e-9, max_passes=passes))
            assert it == passes
            runs.append((alpha, r, violation))
        alpha, r, _ = runs[0]
        inc, dec = alpha < C - BOUND_MARGIN, alpha > BOUND_MARGIN
        up, low = np.where(y > 0, inc, dec), np.where(y > 0, dec, inc)
        assert runs[1][2] == r[up].max() - r[low].min() > 1e-9
        a_ref, G_ref = np.zeros(80), -np.ones(80)
        assert reference_smo(Kv, y, C, a_ref, G_ref, SolverConfig(kkt_tolerance=1e-9, max_passes=m)) == (m, runs[1][2])

    @pytest.mark.parametrize("layout", ["fortran", "strided", "read-only"])
    def test_non_contiguous_arrays(self, loop, layout):
        # Kv in Fortran order or as a strided view, alpha and r as strided
        # views: the same bytes as contiguous arrays, written back in place.
        # Read-only Kv and y are read where they are.
        Kv, y, C, alpha, r, cfg = loop_problem(7, 60)
        want_alpha, want_r = alpha.copy(), r.copy()
        want = run_loop(loop, Kv, y, C, want_alpha, want_r, cfg)
        if layout == "read-only":
            Kv.setflags(write=False)
            y.setflags(write=False)
            assert run_loop(loop, Kv, y, C, alpha, r, cfg) == want
            assert alpha.tobytes() == want_alpha.tobytes() and r.tobytes() == want_r.tobytes()
            return
        if layout == "fortran":
            Kv = np.asfortranarray(Kv)
        else:
            Kv = np.repeat(Kv, 2, axis=1)[:, ::2]
        alpha, r = np.repeat(alpha, 3)[::3], np.repeat(r, 3)[::3]
        assert not (Kv.flags.c_contiguous or alpha.flags.c_contiguous or r.flags.c_contiguous)
        assert run_loop(loop, Kv, y, C, alpha, r, cfg) == want
        assert alpha.tobytes() == want_alpha.tobytes()
        assert r.tobytes() == want_r.tobytes()


class TestCompiledLoopBuild:
    """The C loop is built into the cache on the first solve; without it the
    numpy loop runs, and the solves give the same bytes."""

    def test_source_compiles_without_warnings(self, tmp_path):
        # the build's own flags plus every common warning, as errors
        cc = shlex.split(os.environ.get("CC") or "cc")
        if not shutil.which(cc[0]):
            pytest.skip("no C compiler")
        out = tmp_path / "loop.so"
        cmd = [*cc, *smo._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(out), str(smo._LOOP_SOURCE)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, stdin=subprocess.DEVNULL)
        assert done.returncode == 0, done.stderr
        assert out.stat().st_size > 0

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        smo._compiled_loop.cache_clear()
        yield tmp_path / "sdcil"
        smo._compiled_loop.cache_clear()

    def library(self, cache):
        return cache / smo._library_name(smo._LOOP_SOURCE.read_bytes())

    @pytest.mark.parametrize("cc", ["unset", "missing"])
    def test_no_compiler_uses_numpy_loop(self, cache, monkeypatch, cc):
        compiled_loop()
        want = [solve_bytes(seed) for seed in range(3)]
        smo._compiled_loop.cache_clear()
        if cc == "unset":
            monkeypatch.delenv("CC", raising=False)
        else:
            monkeypatch.setenv("CC", str(cache / "no-such-cc"))
        monkeypatch.setenv("PATH", "")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache.parent / "empty"))
        calls, numpy_smo = [], smo._numpy_smo

        def numpy_loop(*args):
            calls.append(args[0].shape[0])
            return numpy_smo(*args)

        monkeypatch.setattr(smo, "_numpy_smo", numpy_loop)
        assert smo._compiled_loop() is None
        assert [solve_bytes(seed) for seed in range(3)] == want
        assert calls == [40, 40] * 3
        assert list((cache.parent / "empty").rglob("*.so")) == []

    def test_prediction_builds_nothing(self, blob_model_and_split, cache, tmp_path, capsys):
        # sdcil predict loads a model and predicts: no solve, so no build
        model, _, test = blob_model_and_split
        cil.save(model, tmp_path / "m.json")
        np.savetxt(tmp_path / "rows.csv", test.features, delimiter=",")
        assert main(["predict", str(tmp_path / "m.json"), str(tmp_path / "rows.csv")]) == EXIT_OK
        assert smo._compiled_loop.cache_info().misses == 0
        assert not cache.exists()

    def test_built_once_into_the_cache(self, cache):
        compiled_loop()
        assert [p.name for p in cache.iterdir()] == [self.library(cache).name]
        assert self.library(cache).read_bytes()[:4] == b"\x7fELF"

    @pytest.mark.parametrize("compiler", [True, False])
    def test_corrupt_cache_rebuilt_or_skipped(self, cache, monkeypatch, compiler):
        cache.mkdir()
        self.library(cache).write_bytes(b"not a shared library")
        if not compiler:
            monkeypatch.setenv("CC", str(cache / "no-such-cc"))
            assert smo._compiled_loop() is None
            return
        compiled_loop()
        assert self.library(cache).read_bytes()[:4] == b"\x7fELF"
        Kv, y, C, alpha, r, cfg = loop_problem(3, 30)
        a_ref, G_ref = alpha.copy(), -y * r
        assert smo._smo(Kv, y, C, alpha, r, cfg) == reference_smo(Kv, y, C, a_ref, G_ref, cfg)
        assert alpha.tobytes() == a_ref.tobytes() and (-y * r).tobytes() == G_ref.tobytes()

    def test_unusable_cache_builds_in_a_temporary_directory(self, cache, monkeypatch):
        # the cache path is a file, so the cache directory cannot be made;
        # the temporary directory is gone once the library is loaded
        cache.parent.joinpath("file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache.parent / "file"))
        tmp = cache.parent / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        compiled_loop()
        assert list(tmp.iterdir()) == []


def binary_problem(seed, n):
    rng = np.random.default_rng(seed)
    K, _, _ = random_gram(rng, n)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[-1] = 1.0, -1.0
    return K, y


class TestWarmStart:
    def test_zero_start_is_the_cold_solve(self):
        for seed in range(5):
            K, y = binary_problem(seed, 30)
            cfg = SolverConfig(kkt_tolerance=1e-5)
            cold = solve_binary_dual(K, y, 4.0, cfg)
            zero = solve_binary_dual(K, y, 4.0, cfg, start=np.zeros(30))
            assert zero.alphas.tobytes() == cold.alphas.tobytes()
            assert np.float64(zero.offset).tobytes() == np.float64(cold.offset).tobytes()
            assert np.float64(zero.objective).tobytes() == np.float64(cold.objective).tobytes()
            assert zero.iterations == cold.iterations

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 20),
        log_c1=st.floats(-3.0, 7.0),
        log_ratio=st.floats(0.0, 4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_seeded_solve_is_optimal(self, seed, n, log_c1, log_ratio):
        K, y = binary_problem(seed, n)
        C1 = 2.0**log_c1
        C2 = C1 * 2.0**log_ratio
        cfg = SolverConfig(kkt_tolerance=1e-7)
        first = solve_binary_dual(K, y, C1, cfg)
        sol = solve_binary_dual(K, y, C2, cfg, start=first.alphas)
        assert sol.converged and sol.kkt_violation <= cfg.kkt_tolerance
        # KKT recomputed from the returned alphas; r = -y * gradient
        r = y - K @ (sol.alphas * y)
        can_inc = sol.alphas < C2 - BOUND_MARGIN
        can_dec = sol.alphas > BOUND_MARGIN
        up = np.where(y > 0, can_inc, can_dec)
        low = np.where(y > 0, can_dec, can_inc)
        assert r[up].max() - r[low].min() <= cfg.kkt_tolerance * (1 + 1e-9)
        assert rel_diff(sol.objective, pgd_binary_objective(K, y, C2)) < 1e-6

    @pytest.mark.parametrize("bad", ["length", "nan", "inf", "negative", "above_c", "unbalanced"])
    def test_infeasible_start_rejected(self, bad):
        K, y = binary_problem(0, 6)
        start = np.where(y > 0, 0.5 / np.sum(y > 0), 0.5 / np.sum(y < 0))  # y'a = 0
        start = {
            "length": start[:-1],
            "nan": np.where(np.arange(6) == 2, np.nan, start),
            "inf": np.where(np.arange(6) == 2, np.inf, start),
            "negative": start - 0.5,
            "above_c": start + 2.0,
            "unbalanced": start + np.where(np.arange(6) == 0, 0.01, 0.0),
        }[bad]
        with pytest.raises(ValueError, match="start"):
            solve_binary_dual(K, y, 1.0, TIGHT, start=start)


class TestFixedCost:
    """The per-solve set-up and offset recovery, trimmed to fewer numpy
    calls, give the bytes and the errors of the first versions."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        C=st.one_of(st.floats(1e-3, 1e3), st.floats(1e-12, 2 * BOUND_MARGIN)),
        bounded=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bias_matches_reference(self, seed, n, C, bounded):
        # alphas at, near and within BOUND_MARGIN of both bounds, and
        # interior ones unless every point is bound-active; with
        # C <= 2 * BOUND_MARGIN a point can count as at both bounds
        rng = np.random.default_rng(seed)
        y = rng.choice([-1.0, 1.0], size=n)
        kind = rng.integers(0, 4 if bounded else 5, size=n)
        near = rng.uniform(0.0, 2.0 * BOUND_MARGIN, size=n)
        alpha = np.choose(kind, [np.zeros(n), np.full(n, C), near, C - near, rng.uniform(0.0, C, size=n)])
        r = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        r[rng.random(n) < 0.2] = r[0]  # ties
        r[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
        got, want = smo._bias(y, C, alpha, r), reference_bias(y, C, alpha, r)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("gram_kind", ["gaussian", "indefinite"])
    def test_zero_start_kkt_vector(self, monkeypatch, gram_kind):
        # a cold solve sets r = y, the bytes of -y * (y * (K @ (0 * y)) - 1)
        seen, loop = [], smo._smo

        def recording(Kv, y, C, alpha, r, cfg):
            seen.append(r.copy())
            return loop(Kv, y, C, alpha, r, cfg)

        monkeypatch.setattr(smo, "_smo", recording)
        for seed in range(5):
            K, y = binary_problem(seed, 25)
            if gram_kind == "indefinite":  # negative entries give -0.0 products
                A = np.random.default_rng(seed).normal(size=K.shape)
                K = A + A.T
            solve_binary_dual(K, y, 4.0, SolverConfig(max_passes=0))
            assert seen[-1].tobytes() == (-y * (y * (K @ (0 * y)) - 1.0)).tobytes()

    @pytest.mark.parametrize("case, message", [
        ("y_nan", "labels must be in {-1,+1} with both classes present"),
        ("y_inf", "labels must be in {-1,+1} with both classes present"),
        ("y_minus_inf", "labels must be in {-1,+1} with both classes present"),
        ("y_one_class", "labels must be in {-1,+1} with both classes present"),
        ("y_not_unit", "labels must be in {-1,+1} with both classes present"),
        ("y_length", "label vector length must match Gram size"),
        ("c_zero", "C must be positive"),
        ("c_negative", "C must be positive"),
        ("start_nan", "start contains NaN or Inf values"),
        ("start_inf", "start contains NaN or Inf values"),
        ("start_minus_inf", "start contains NaN or Inf values"),
        ("start_nan_outside_box", "start contains NaN or Inf values"),
        ("start_negative", "start leaves the box [0, C=1.0]"),
        ("start_above_c", "start leaves the box [0, C=1.0]"),
        ("start_length", "start must hold 6 values, got shape (5,)"),
        ("start_2d", "start must hold 6 values, got shape (1, 6)"),
        ("start_unbalanced", "start violates y'a = 0"),
    ])
    def test_malformed_input_messages(self, case, message):
        K, y = binary_problem(0, 6)
        start = np.where(y > 0, 0.5 / np.sum(y > 0), 0.5 / np.sum(y < 0))  # y'a = 0
        C = 1.0
        if case.startswith("y_"):
            y = {
                "y_nan": np.where(np.arange(6) == 2, np.nan, y),
                "y_inf": np.where(np.arange(6) == 2, np.inf, y),
                "y_minus_inf": np.where(np.arange(6) == 2, -np.inf, y),
                "y_one_class": np.ones(6),
                "y_not_unit": np.where(np.arange(6) == 2, 0.5, y),
                "y_length": y[:-1],
            }[case]
            start = None
        elif case.startswith("c_"):
            C, start = {"c_zero": 0.0, "c_negative": -1.0}[case], None
        else:
            start = {
                "start_nan": np.where(np.arange(6) == 2, np.nan, start),
                "start_inf": np.where(np.arange(6) == 2, np.inf, start),
                "start_minus_inf": np.where(np.arange(6) == 2, -np.inf, start),
                "start_nan_outside_box": np.where(np.arange(6) == 2, np.nan, start + 5.0),
                "start_negative": start - 0.5,
                "start_above_c": start + 2.0,
                "start_length": start[:-1],
                "start_2d": start[None],
                "start_unbalanced": start + np.where(np.arange(6) == 0, 0.01, 0.0),
            }[case]
        with pytest.raises(ValueError) as err:
            solve_binary_dual(K, y, C, TIGHT, start=start)
        assert str(err.value) == message
