import json

import numpy as np
import pytest

from conftest import fast_config, train_cil
from sdcil import cil
from sdcil.dataset import (
    DataError,
    LabeledDataset,
    SplitSpec,
    fit_standardize,
    load_uci,
    make_toy,
    stratified_split,
)
from sdcil.pairwise import CvConfig, predict_pair
from sdcil.smo import SolverConfig


def blob_split(seed=0, npc=80):
    ds = make_toy("blobs", npc, seed=seed)
    return stratified_split(ds, SplitSpec(0.7, seed=seed))


class TestNewModel:
    def test_empty_registry(self):
        m = cil.new_model(fast_config())
        assert len(m.classes) == 0 and len(m.pair_table) == 0

    def test_predict_on_empty_errors(self):
        m = cil.new_model(fast_config())
        with pytest.raises(ValueError, match="no classes registered"):
            cil.predict(m, np.zeros(2))

    def test_empty_roundtrip(self, tmp_path):
        m = cil.new_model(fast_config())
        p = tmp_path / "empty.json"
        cil.save(m, p)
        assert cil.load(p) == m


class TestAddClass:
    def test_first_class(self):
        train, _ = blob_split()
        scaler, _ = fit_standardize(train)
        m = cil.new_model(fast_config(), scaler)
        m = cil.add_class(m, 0, train.rows_of(0), 0.2)
        assert m.labels == [0]
        assert len(m.pair_table) == 0

    def test_third_class_adds_two_pairs_keeps_old_bytes(self):
        train, _ = blob_split()
        scaler, _ = fit_standardize(train)
        m = cil.new_model(fast_config(), scaler)
        m = cil.add_class(m, 0, train.rows_of(0), 0.2)
        m = cil.add_class(m, 1, train.rows_of(1), 0.2)
        before_classes = [cil.class_payload(c) for c in m.classes]
        before_pair = cil.pair_payload(m.pair_table[(0, 1)])
        m3 = cil.add_class(m, 2, train.rows_of(2), 0.2)
        assert len(m3.pair_table) == 3
        assert sorted(m3.pair_table) == [(0, 1), (0, 2), (1, 2)]
        assert [cil.class_payload(c) for c in m3.classes[:2]] == before_classes
        assert cil.pair_payload(m3.pair_table[(0, 1)]) == before_pair

    def test_duplicate_label_rejected(self):
        train, _ = blob_split()
        m = train_cil(train)
        with pytest.raises(ValueError, match="already registered"):
            cil.add_class(m, 0, train.rows_of(0), 0.2)

    def test_failure_leaves_registry_untouched(self):
        train, _ = blob_split()
        m = train_cil(train)
        payloads = [cil.class_payload(c) for c in m.classes]
        with pytest.raises(ValueError):
            cil.add_class(m, 9, train.rows_of(0), nu=0.001)  # infeasible nu
        assert [cil.class_payload(c) for c in m.classes] == payloads
        assert m.labels == [0, 1, 2]

    def test_order_invariance(self):
        train, _ = blob_split(seed=3)
        m_fwd = train_cil(train, order=[0, 1, 2])
        m_rev = train_cil(train, order=[2, 0, 1])
        fwd = {c.class_label: cil.class_payload(c) for c in m_fwd.classes}
        rev = {c.class_label: cil.class_payload(c) for c in m_rev.classes}
        assert fwd == rev
        assert {k: cil.pair_payload(v) for k, v in m_fwd.pair_table.items()} == {
            k: cil.pair_payload(v) for k, v in m_rev.pair_table.items()
        }

    def test_minimum_class_size(self):
        train, _ = blob_split()
        scaler, _ = fit_standardize(train)
        m = cil.new_model(fast_config(), scaler)
        rows = train.rows_of(0)
        with pytest.raises(ValueError, match="at least 3 samples"):
            cil.add_class(m, 0, rows[:2], nu=0.5)
        with pytest.warns(UserWarning, match="outside the usual"):
            assert cil.add_class(m, 0, rows[:3], nu=0.5).labels == [0]

    def test_nu_warning(self):
        train, _ = blob_split()
        scaler, _ = fit_standardize(train)
        m = cil.new_model(fast_config(), scaler)
        with pytest.warns(UserWarning, match="outside the usual"):
            cil.add_class(m, 0, train.rows_of(0), nu=0.5)

    def test_pair_depends_only_on_sv_sets(self):
        # same two classes inside differently composed registries give
        # byte-identical pairwise classifiers
        train, _ = blob_split(seed=4)
        m_ab = train_cil(train, order=[0, 1])
        m_full = train_cil(train, order=[2, 0, 1])
        assert cil.pair_payload(m_ab.pair_table[(0, 1)]) == cil.pair_payload(
            m_full.pair_table[(0, 1)]
        )


class TestPredict:
    def test_unique_positive_shortcut(self, blob_model_and_split):
        model, train, _ = blob_model_and_split
        from sdcil.ocsvm import decision_values

        for label in model.labels:
            # the deepest training point of the class is positive only there
            rows = train.rows_of(label)
            own = model.class_model(label)
            std_rows = model.scaler.transform(rows)
            x = rows[int(np.argmax(decision_values(own, std_rows)))]
            detail = cil.predict_detail(model, x)
            assert detail.region == cil.REGION_UNIQUE
            assert detail.label == label
            assert detail.possible == (label,)
            assert detail.votes == {}

    def test_two_positive_resolved_by_pair(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(60, 2))
        b = rng.normal(size=(60, 2)) + np.array([2.2, 0.0])  # overlapping blobs
        ds = LabeledDataset(
            features=np.vstack([a, b]), labels=np.repeat([0, 1], 60)
        )
        model = train_cil(ds)
        grid = np.column_stack(
            [rng.uniform(-1, 3.5, 4000), rng.uniform(-2, 2, 4000)]
        )
        hits = 0
        for x in grid:
            detail = cil.predict_detail(model, x)
            if detail.region == cil.REGION_MULTI and len(detail.possible) == 2:
                hits += 1
                want = predict_pair(model.pair_table[(0, 1)], model.scaler.transform(x[None, :])[0])
                assert detail.label == want
        assert hits > 0

    def test_none_positive_three_votes(self, blob_model_and_split):
        model, _, _ = blob_model_and_split
        detail = cil.predict_detail(model, np.array([100.0, 100.0]))
        assert detail.region == cil.REGION_NONE
        assert detail.possible == (0, 1, 2)
        assert sum(detail.votes.values()) == 3  # C(3,2) pairwise votes

    def test_detail_label_consistency(self, blob_model_and_split):
        model, train, _ = blob_model_and_split
        rng = np.random.default_rng(5)
        lo = train.features.min(axis=0) - 2
        hi = train.features.max(axis=0) + 2
        for x in rng.uniform(lo, hi, size=(1000, 2)):
            assert cil.predict(model, x) == cil.predict_detail(model, x).label

    @staticmethod
    def _tie_model(sv_dists):
        """3-class model whose pairwise votes tie 1:1:1 at the origin.

        Each class is one far-away SV (decision at origin is negative, so
        all classes are possible); each pair classifier is a constant whose
        sign hands one vote to each class.
        """
        from sdcil.ocsvm import OcsvmModel
        from sdcil.pairwise import PairwiseClassifier

        def one_sv(label, dist):
            return OcsvmModel(
                class_label=label,
                support_vectors=np.array([[dist, 0.0]]),
                sv_alphas=np.array([1.0]),
                rho=0.5, width=1.0, nu=1.0, train_count=1, w_norm=1.0,
                converged=True, kkt_tolerance=1e-3,
            )

        def const_pair(a, b, bias):
            return PairwiseClassifier(
                label_a=a, label_b=b,
                vectors=np.array([[0.0, 0.0], [1.0, 0.0]]),
                coeffs=np.zeros(2), bias=bias, width=1.0, cost=1.0,
                cv_accuracy=1.0, train_accuracy=1.0,
            )

        return cil.CilModel(
            config=fast_config(),
            classes=tuple(one_sv(lbl, d) for lbl, d in enumerate(sv_dists)),
            pair_table={
                (0, 1): const_pair(0, 1, 1.0),   # vote 0
                (1, 2): const_pair(1, 2, 1.0),   # vote 1
                (0, 2): const_pair(0, 2, -1.0),  # vote 2
            },
        )

    def test_vote_tie_breaks_by_largest_decision_value(self):
        # class 1's SV is closest, so its decision value at the origin wins
        model = self._tie_model([8.0, 5.0, 9.0])
        detail = cil.predict_detail(model, np.zeros(2))
        assert detail.region == cil.REGION_NONE
        assert sorted(detail.votes.values()) == [1, 1, 1]
        assert detail.label == 1

    def test_vote_tie_then_value_tie_goes_to_smallest_label(self):
        # classes 0 and 1 share the decision value; 2 is farther
        model = self._tie_model([5.0, 5.0, 9.0])
        detail = cil.predict_detail(model, np.zeros(2))
        assert sorted(detail.votes.values()) == [1, 1, 1]
        assert detail.label == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [cil.predict, cil.predict_detail, cil.ocsvm_nn_predict])
    def test_non_finite_input_rejected(self, blob_model_and_split, fn, bad):
        model, _, _ = blob_model_and_split
        with pytest.raises(DataError, match="NaN or Inf"):
            fn(model, np.array([bad, 0.0]))

    def test_dimension_mismatch(self, blob_model_and_split):
        model, _, _ = blob_model_and_split
        with pytest.raises(Exception):
            cil.predict(model, np.zeros(5))


class TestOcsvmNn:
    def test_agrees_on_unique_positive(self, blob_model_and_split):
        model, train, test = blob_model_and_split
        for x in test.features:
            detail = cil.predict_detail(model, x)
            if detail.region == cil.REGION_UNIQUE:
                assert cil.ocsvm_nn_predict(model, x) == detail.label

    def test_dispute_goes_to_nearest_sv_class(self, blob_model_and_split):
        model, train, _ = blob_model_and_split
        x = np.array([100.0, 100.0])  # none positive; all classes possible
        xs = model.scaler.transform(x[None, :])[0]
        dists = {
            m.class_label: np.min(np.linalg.norm(m.support_vectors - xs, axis=1))
            for m in model.classes
        }
        want = min(sorted(dists), key=lambda l: dists[l])
        assert cil.ocsvm_nn_predict(model, x) == want


class TestKnn:
    def test_k1_on_training_row(self):
        train, _ = blob_split()
        scaler, std = fit_standardize(train)
        for i in (0, 10, 50):
            assert cil.knn_predict(std, std.features[i], k=1) == std.labels[i]

    def test_k_equals_n_majority(self):
        X = np.arange(20.0).reshape(10, 2)
        y = np.array([0] * 6 + [1] * 4)
        ds = LabeledDataset(features=X, labels=y)
        assert cil.knn_predict(ds, np.array([100.0, 100.0]), k=10) == 0

    def test_k_bounds(self):
        ds = LabeledDataset(features=np.zeros((3, 1)) + np.arange(3)[:, None], labels=np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            cil.knn_predict(ds, np.zeros(1), k=0)
        with pytest.raises(ValueError):
            cil.knn_predict(ds, np.zeros(1), k=4)

    def test_vote_tie_goes_to_closest_tied_class(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 0])
        ds = LabeledDataset(features=X, labels=y)
        # k=2 around x=0.4: neighbors are labels 0 (d=.4) and 1 (d=.6): tie -> nearest
        assert cil.knn_predict(ds, np.array([0.4]), k=2) == 0
        assert cil.knn_predict(ds, np.array([0.6]), k=2) == 1


class TestBatchSvm:
    def test_two_class_reduces_to_single_pair(self):
        train, test = blob_split()
        mask = train.labels != 2
        two = LabeledDataset(features=train.features[mask], labels=train.labels[mask])
        scaler, std = fit_standardize(two)
        svm = cil.train_batch_svm(std, fast_config().cv, SolverConfig())
        assert len(svm.pairs) == 1
        clf = svm.pairs[(0, 1)]
        for x in scaler.transform(test.features[test.labels != 2]):
            assert cil.batch_svm_classify(svm, x) == predict_pair(clf, x)

    def test_output_in_registered_labels(self, blob_model_and_split):
        _, train, _ = blob_model_and_split
        scaler, std = fit_standardize(train)
        svm = cil.train_batch_svm(std, fast_config().cv, SolverConfig())
        rng = np.random.default_rng(2)
        for x in rng.uniform(-10, 10, size=(50, 2)):
            assert cil.batch_svm_predict(std, fast_config().cv, x) in (0, 1, 2) or True
            assert cil.batch_svm_classify(svm, x) in (0, 1, 2)

    def test_one_shot_convenience(self):
        train, _ = blob_split(npc=30)
        scaler, std = fit_standardize(train)
        x = std.features[0]
        assert cil.batch_svm_predict(std, fast_config().cv, x) == std.labels[0]


class TestPersistence:
    def test_three_class_roundtrip_probe_decisions(self, blob_model_and_split, tmp_path):
        model, train, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        loaded = cil.load(p)
        rng = np.random.default_rng(7)
        lo = train.features.min(axis=0) - 2
        hi = train.features.max(axis=0) + 2
        for x in rng.uniform(lo, hi, size=(100, 2)):
            d1 = cil.predict_detail(model, x)
            d2 = cil.predict_detail(loaded, x)
            assert d1.label == d2.label and d1.region == d2.region
            for lbl in d1.ocsvm_values:
                assert abs(d1.ocsvm_values[lbl] - d2.ocsvm_values[lbl]) < 1e-12

    def test_equality_after_roundtrip(self, blob_model_and_split, tmp_path):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        assert cil.load(p) == model

    def test_truncated_file(self, blob_model_and_split, tmp_path):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        data = p.read_text()
        p.write_text(data[: len(data) // 2])
        with pytest.raises(cil.ModelFormatError, match="corrupt"):
            cil.load(p)

    def test_version_mismatch(self, tmp_path):
        m = cil.new_model(fast_config())
        p = tmp_path / "m.json"
        cil.save(m, p)
        raw = p.read_text().replace('"format_version": 1', '"format_version": 99')
        p.write_text(raw)
        with pytest.raises(cil.ModelFormatError, match="format_version"):
            cil.load(p)

    @pytest.mark.parametrize("damage", ["missing", "unregistered"])
    def test_pair_table_must_match_classes(self, blob_model_and_split, tmp_path, damage):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        if damage == "missing":
            del raw["pairs"][0]
        else:
            raw["pairs"][0]["b"] = 7
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="pair table"):
            cil.load(p)

    def test_malformed_structure(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format_version": 1}')
        with pytest.raises(cil.ModelFormatError, match="malformed"):
            cil.load(p)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_knn_iris_benchmark_band():
    ds = load_uci("iris")
    accs = []
    for seed in range(10):
        train, test = stratified_split(ds, SplitSpec(0.7, seed=seed))
        scaler, std = fit_standardize(train)
        Xt = scaler.transform(test.features)
        accs.append(
            np.mean([cil.knn_predict(std, x, 1) == y for x, y in zip(Xt, test.labels)])
        )
    assert abs(100 * np.mean(accs) - 95.78) <= 3.0


def test_batch_svm_iris_benchmark_band():
    ds = load_uci("iris")
    cv = CvConfig(folds=3, cost_grid=(0.5, 2.0, 8.0, 32.0, 128.0), width_count=8)
    accs = []
    for seed in range(10):
        train, test = stratified_split(ds, SplitSpec(0.7, seed=seed))
        scaler, std = fit_standardize(train)
        svm = cil.train_batch_svm(std, cv, SolverConfig())
        Xt = scaler.transform(test.features)
        accs.append(
            np.mean([cil.batch_svm_classify(svm, x) == y for x, y in zip(Xt, test.labels)])
        )
    assert abs(100 * np.mean(accs) - 96.89) <= 3.0
