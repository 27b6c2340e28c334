import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pair_decisions
from sdcil import cil, pairwise
from sdcil.cil import pair_payload
from sdcil.kernels import gram, squared_distances
from sdcil.ocsvm import OcsvmModel
from sdcil.pairwise import CvConfig, PairwiseClassifier, train_pair
from sdcil.smo import SolverConfig

CFG = SolverConfig(kkt_tolerance=1e-5)
CV = CvConfig(folds=3, cost_grid=(0.5, 8.0, 64.0), width_grid=(0.3, 1.0, 3.0))


def two_blobs(n=40, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2))
    b = rng.normal(size=(n, 2)) + np.array([gap, 0.0])
    return a, b


def decision_pair(clf, svs, X):
    """clf's decisions on the rows of X (tests/oracles.py reference); svs
    maps each of its labels to the vectors it was trained on."""
    X = np.atleast_2d(X)
    return pair_decisions(clf, squared_distances(X, svs[clf.label_a]), squared_distances(X, svs[clf.label_b]))


def predict_pair(clf, svs, X):
    """clf's labels for the rows of X through cil's dispute stage: a
    registry of its two classes whose class models claim no row, so that
    every row is settled by clf alone."""
    classes = tuple(
        OcsvmModel(
            class_label=label, support_vectors=svs[label], sv_alphas=np.full(len(svs[label]), 1.0 / len(svs[label])),
            rho=2.0, width=1.0, nu=1.0, train_count=len(svs[label]), converged=True,
        )  # class values lie in (-2, -1]
        for label in (clf.label_a, clf.label_b)
    )
    model = cil.CilModel(config=cil.CilConfig(), classes=classes, pair_table={(clf.label_a, clf.label_b): clf})
    details = list(cil.predict_details(model, np.atleast_2d(X)))
    assert all(d.region == cil.REGION_NONE for d in details)
    return np.array([d.label for d in details])


class TestTrainPair:
    def test_separated_blobs_high_cv_accuracy(self):
        a, b = two_blobs()
        clf = train_pair(a, 0, b, 1, CV, CFG)
        assert clf.cv_accuracy >= 0.95
        assert clf.train_accuracy >= 0.95
        assert clf.label_a == 0 and clf.label_b == 1

    def test_mirrored_instance_boundary_through_origin(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(30, 2)) + np.array([2.0, 1.0])
        b = -a  # mirror through the origin with labels swapped
        clf = train_pair(a, 0, b, 1, CV, CFG)
        assert abs(decision_pair(clf, {0: a, 1: b}, np.zeros((1, 2)))[0]) <= 0.1

    def test_mirrored_instance_antisymmetric_labels(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 2)) + np.array([2.0, 1.0])
        b = -a
        clf = train_pair(a, 0, b, 1, CV, CFG)
        svs = {0: a, 1: b}
        off = np.abs(decision_pair(clf, svs, a[:10])) > 0.05  # off the boundary
        assert np.all(predict_pair(clf, svs, a[:10])[off] != predict_pair(clf, svs, -a[:10])[off])

    def test_singleton_grid_chosen_without_search(self):
        a, b = two_blobs(20)
        cv = CvConfig(folds=3, cost_grid=(4.0,), width_grid=(1.7,))
        clf = train_pair(a, 0, b, 1, cv, CFG)
        assert clf.cost == 4.0 and clf.width == 1.7

    def test_labels_normalized_to_ascending(self):
        a, b = two_blobs(15)
        clf = train_pair(a, 7, b, 2, CV, CFG)
        assert (clf.label_a, clf.label_b) == (2, 7)
        # class 7's vectors are on the negative side now, and last in the
        # coefficient order
        assert set(predict_pair(clf, {7: a, 2: b}, a[:5]).tolist()) == {7}

    def test_too_few_vectors(self):
        a, b = two_blobs(5)
        with pytest.raises(ValueError, match="at least 2"):
            train_pair(a[:1], 0, b, 1, CV, CFG)

    def test_same_labels_rejected(self):
        a, b = two_blobs(5)
        with pytest.raises(ValueError, match="differ"):
            train_pair(a, 3, b, 3, CV, CFG)

    def test_leave_one_out_on_tiny_sets(self):
        a, b = two_blobs(3, seed=9)
        clf = train_pair(a[:3], 0, b[:2], 1, CvConfig(folds=5, cost_grid=(8.0,), width_grid=(1.0,)), CFG)
        assert clf.coeffs.shape == (5,)
        assert 0.0 <= clf.cv_accuracy <= 1.0

    def test_reproducible_given_seed(self):
        a, b = two_blobs(25, seed=6)
        cv = CvConfig(folds=4, cost_grid=(0.5, 8.0), width_grid=(0.5, 2.0), seed=11)
        c1 = train_pair(a, 0, b, 1, cv, CFG)
        c2 = train_pair(a, 0, b, 1, cv, CFG)
        assert pair_payload(c1) == pair_payload(c2)

    def test_tie_break_prefers_smaller_cost_then_width(self):
        # perfectly separable points: every grid combo scores accuracy 1,
        # so the winner must be the smallest cost, then smallest width
        a = np.array([[0.0, 0.0], [0.2, 0.1], [0.1, -0.2], [-0.1, 0.1]])
        b = a + np.array([50.0, 0.0])
        cv = CvConfig(folds=2, cost_grid=(8.0, 0.5, 64.0), width_grid=(5.0, 2.0))
        clf = train_pair(a, 0, b, 1, cv, CFG)
        assert clf.cost == 0.5 and clf.width == 2.0

    def test_cost_grid_seeding(self, monkeypatch):
        # within each (width, fold), costs ascend and each solve starts from
        # the previous cost's alphas; the full-pool refit is the last, cold solve
        calls = []
        solve = pairwise.solve_binary_dual

        def recording(K, y, C, cfg, start=None):
            sol = solve(K, y, C, cfg, start=start)
            calls.append((C, None if start is None else start.copy(), sol.alphas.copy(), y.size))
            return sol

        monkeypatch.setattr(pairwise, "solve_binary_dual", recording)
        a, b = two_blobs(20, gap=2.0, seed=5)
        cv = CvConfig(folds=3, cost_grid=(64.0, 0.5, 8.0), width_grid=(3.0, 0.3, 1.0))
        clf = train_pair(a, 0, b, 1, cv, CFG)
        *grid, refit = calls
        assert len(grid) == 3 * 3 * 3
        for g in range(0, len(grid), 3):
            run = grid[g:g + 3]
            assert [C for C, *_ in run] == [0.5, 8.0, 64.0]
            assert run[0][1] is None
            for prev, cur in zip(run, run[1:]):
                assert cur[1].tobytes() == prev[2].tobytes()
        assert refit[0] == clf.cost and refit[1] is None and refit[3] == 40

    @settings(max_examples=30, deadline=None)
    @given(n_a=st.integers(2, 12), n_b=st.integers(2, 12), folds=st.integers(2, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_every_fold_is_solved(self, n_a, n_b, folds, seed):
        # (folds, or n for leave-one-out) x costs grid solves and one refit;
        # every solve sees both classes, and the folds' validation rows
        # partition the pool
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(n_a, 2)), rng.normal(size=(n_b, 2)) + np.array([3.0, 0.0])
        cv = CvConfig(folds=folds, cost_grid=(0.5, 8.0), width_grid=(2.0,), seed=seed)
        calls = []
        solve = pairwise.solve_binary_dual

        def recording(K, y, C, cfg, start=None):
            calls.append((K.copy(), y.copy()))
            return solve(K, y, C, cfg, start=start)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pairwise, "solve_binary_dual", recording)
            train_pair(a, 0, b, 1, cv, CFG)
        n = n_a + n_b
        expected_folds = folds if min(n_a, n_b) >= 2 * folds else n
        *grid, refit = calls
        assert len(grid) == expected_folds * 2 and refit[1].size == n
        assert all(set(y.tolist()) == {-1.0, 1.0} for _, y in calls)
        # a fold's training rows are the pool rows whose Gram values its
        # block holds; off-diagonal kernel values of random points differ
        full = gram(np.vstack([a, b]), 2.0)
        validation = []
        for K_tr, _ in grid[::2]:  # both costs of a fold share its rows
            tr = []
            for row in K_tr:
                matches = [i for i in range(n) if np.isin(row, full[i]).all()]
                assert len(matches) == 1
                tr.append(matches[0])
            assert K_tr.tobytes() == full[np.ix_(tr, tr)].tobytes()
            validation += sorted(set(range(n)) - set(tr))
        assert sorted(validation) == list(range(n))

    def test_train_accuracy_recomputable(self):
        a, b = two_blobs(20, seed=12)
        clf = train_pair(a, 0, b, 1, CV, CFG)
        dec = gram(np.vstack([a, b]), clf.width) @ clf.coeffs + clf.bias
        y = np.concatenate([np.ones(20), -np.ones(20)])
        agree = np.mean(np.where(dec > 0, 1.0, -1.0) == y)
        assert agree == pytest.approx(clf.train_accuracy, abs=1e-12)


class TestPredictPair:
    def test_training_vector_of_class_a(self):
        a, b = two_blobs(30, seed=1)
        clf = train_pair(a, 0, b, 1, CV, CFG)
        assert predict_pair(clf, {0: a, 1: b}, np.vstack([a[:1], b[:1]])).tolist() == [0, 1]

    def test_exact_zero_goes_to_label_b(self):
        clf = PairwiseClassifier(
            label_a=0, label_b=1,
            coeffs=np.array([0.0, 0.0]),
            bias=0.0, width=1.0, cost=1.0, cv_accuracy=1.0, train_accuracy=1.0, converged=True,
        )
        svs = {0: np.array([[0.0, 0.0]]), 1: np.array([[1.0, 1.0]])}
        assert decision_pair(clf, svs, np.array([[5.0, 5.0]]))[0] == 0.0
        assert predict_pair(clf, svs, np.array([[5.0, 5.0]]))[0] == 1

    def test_pure_function(self):
        a, b = two_blobs(15, seed=2)
        clf = train_pair(a, 0, b, 1, CV, CFG)
        X = np.array([[0.3, -0.7], [1.0, 2.0]])
        assert len({tuple(predict_pair(clf, {0: a, 1: b}, X).tolist()) for _ in range(5)}) == 1

    def test_dimension_mismatch(self):
        a, b = two_blobs(10, seed=3)
        clf = train_pair(a, 0, b, 1, CV, CFG)
        with pytest.raises(ValueError, match="dimension"):
            predict_pair(clf, {0: a, 1: b}, np.zeros((2, 5)))
