import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcil.cil import knn_labels
from sdcil.dataset import (
    STD_EPSILON,
    DataError,
    LabeledDataset,
    Scaler,
    SplitSpec,
    fit_standardize,
    load_csv,
    load_features_csv,
    load_uci,
    make_toy,
    make_waveform,
    save_csv,
    stratified_split,
)


class TestLoadCsv:
    def test_bundled_iris_shape(self, tmp_path):
        ds = load_uci("iris")
        assert (ds.n, ds.d, len(ds.class_ids)) == (150, 4, 3)
        # round-trips through the CSV writer/reader
        p = tmp_path / "iris_copy.csv"
        save_csv(ds, p)
        again = load_csv(p)
        assert np.array_equal(again.features, ds.features)
        assert np.array_equal(again.labels, ds.labels)

    def test_single_row(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1.0,2.0,A\n")
        ds = load_csv(p)
        assert (ds.n, ds.d) == (1, 2)
        assert ds.labels.tolist() == [0]
        assert ds.label_names == {0: "A"}

    def test_non_numeric_feature_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0,A\n1.0,oops,B\n")
        with pytest.raises(DataError, match=r"bad\.csv:2"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_header_detected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("f1,f2,label\n1.0,2.0,A\n3.0,4.0,B\n")
        ds = load_csv(p)
        assert ds.n == 2
        assert ds.label_names == {0: "A", 1: "B"}

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0,A\n1.0,B\n")
        with pytest.raises(DataError, match=r"ragged\.csv:2"):
            load_csv(p)

    @pytest.mark.parametrize("text, load, message", [
        ("x,y\n\n1.0,2.0\n\n3.0\n", load_features_csv, "blank.csv:5: expected 2 columns, got 1"),
        ("\n1.0,2.0,A\n\n\n1.0,oops,B\n", load_csv, "blank.csv:5: non-numeric feature value 'oops'"),
    ], ids=["short-row", "non-numeric"])
    def test_error_names_file_line_after_blank_rows(self, tmp_path, text, load, message):
        p = tmp_path / "blank.csv"
        p.write_text(text)
        with pytest.raises(DataError) as err:
            load(p)
        assert str(err.value).endswith(message)

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("1.0,nan,A\n2.0,3.0,B\n")
        with pytest.raises(DataError, match="NaN"):
            load_csv(p)

    def test_label_ids_dense_in_first_appearance_order(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("1,9,z\n2,8,x\n3,7,z\n4,6,y\n")
        ds = load_csv(p)
        assert ds.labels.tolist() == [0, 1, 0, 2]
        assert ds.label_names == {0: "z", 1: "x", 2: "y"}

    def test_features_only_loader(self, tmp_path):
        p = tmp_path / "feat.csv"
        p.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        X = load_features_csv(p)
        assert X.shape == (2, 2)


class TestStandardize:
    def test_two_point_example(self):
        ds = LabeledDataset(features=np.array([[0.0], [2.0]]), labels=np.array([0, 0]))
        scaler, std = fit_standardize(ds)
        assert scaler.mean[0] == 1.0 and scaler.std[0] == 1.0
        assert std.features.ravel().tolist() == [-1.0, 1.0]

    def test_idempotence(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        ds = LabeledDataset(features=X, labels=np.zeros(40, dtype=int))
        _, std1 = fit_standardize(ds)
        scaler2, std2 = fit_standardize(std1)
        assert np.max(np.abs(scaler2.mean)) < 1e-9
        assert np.max(np.abs(scaler2.std - 1.0)) < 1e-9
        assert np.max(np.abs(std2.features - std1.features)) < 1e-9

    def test_constant_column(self):
        X = np.column_stack([np.full(5, 5.0), np.arange(5.0)])
        ds = LabeledDataset(features=X, labels=np.zeros(5, dtype=int))
        scaler, std = fit_standardize(ds)
        assert scaler.constant_columns == (0,)
        assert np.all(std.features[:, 0] == 0.0)
        assert scaler.std[0] > 0.0

    @pytest.mark.parametrize("value", [5.0, 1e5 + 0.1, -1e300, 1.7e308])
    @pytest.mark.parametrize("n", [60, 150])
    def test_equal_column_scales_to_zero(self, value, n):
        # the mean of n equal values can miss the value by an ulp, whose
        # square overflows at 1e300
        X = np.column_stack([np.full(n, value), np.arange(float(n))])
        scaler, std = fit_standardize(LabeledDataset(features=X, labels=np.zeros(n, dtype=int)))
        assert scaler.constant_columns == (0,)
        assert scaler.mean[0] == value and scaler.std[0] == STD_EPSILON
        assert std.features[:, 0].tolist() == [0.0] * n
        assert scaler.transform(X[:3])[:, 0].tolist() == [0.0] * 3

    @pytest.mark.parametrize("n", [60, 150])
    def test_overflowing_spread_names_the_column(self, n):
        X = np.column_stack([np.arange(float(n)), np.where(np.arange(n) % 2, 1e300, -1e300)])
        with pytest.raises(DataError, match="feature column 1 cannot be standardized"):
            fit_standardize(LabeledDataset(features=X, labels=np.zeros(n, dtype=int)))

    def test_training_moments(self):
        rng = np.random.default_rng(4)
        X = rng.normal(loc=3.0, scale=7.0, size=(100, 5))
        ds = LabeledDataset(features=X, labels=np.zeros(100, dtype=int))
        _, std = fit_standardize(ds)
        assert np.max(np.abs(std.features.mean(0))) < 1e-9
        assert np.max(np.abs(std.features.std(0) - 1.0)) < 1e-9

    def test_needs_two_rows(self):
        ds = LabeledDataset(features=np.array([[1.0]]), labels=np.array([0]))
        with pytest.raises(DataError):
            fit_standardize(ds)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=rng.uniform(0.1, 100), size=(20, 4)) + rng.uniform(-50, 50)
        ds = LabeledDataset(features=X, labels=np.zeros(20, dtype=int))
        scaler, std = fit_standardize(ds)
        back = scaler.inverse(std.features)
        assert np.max(np.abs(back - X)) <= 1e-9 * max(1.0, np.max(np.abs(X)))

    def test_scaler_rejects_nonpositive_std(self):
        with pytest.raises(DataError):
            Scaler(mean=np.zeros(2), std=np.array([1.0, 0.0]))


class TestStratifiedSplit:
    @staticmethod
    def synthetic(class_sizes):
        sizes = list(class_sizes)
        n = sum(sizes)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        rng = np.random.default_rng(0)
        return LabeledDataset(features=rng.normal(size=(n, 3)), labels=labels)

    # published benchmark class sizes -> published train/test totals
    @pytest.mark.parametrize(
        "sizes,want_train,want_test",
        [
            ((50, 50, 50), 105, 45),  # iris (105/45; the 35-test figure is inconsistent)
            ((70, 70, 70), 147, 63),  # seeds
            ((500, 268), 538, 230),  # pima
            ((570, 178), 524, 224),  # transfusion
        ],
    )
    def test_benchmark_counts(self, sizes, want_train, want_test):
        ds = self.synthetic(sizes)
        train, test = stratified_split(ds, SplitSpec(0.7, seed=3))
        assert (train.n, test.n) == (want_train, want_test)

    def test_waveform_counts(self):
        ds = make_waveform()
        train, test = stratified_split(ds, SplitSpec(0.7, seed=0))
        assert (train.n, test.n) == (3500, 1500)

    def test_deterministic(self):
        ds = self.synthetic((30, 40, 20))
        a1, b1 = stratified_split(ds, SplitSpec(0.7, seed=9))
        a2, b2 = stratified_split(ds, SplitSpec(0.7, seed=9))
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.labels, b2.labels)

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_partition_preserves_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        ds = LabeledDataset(
            features=rng.normal(size=(n, 2)),
            labels=rng.integers(0, 3, size=n),
        )
        if min(np.bincount(ds.labels, minlength=3)[np.unique(ds.labels)]) < 2:
            return
        train, test = stratified_split(ds, SplitSpec(0.7, seed=seed))
        assert train.n + test.n == n
        merged = np.vstack([train.features, test.features])
        key = lambda X: np.lexsort(X.T)
        assert np.allclose(merged[key(merged)], ds.features[key(ds.features)])

    def test_single_sample_class_names_class(self):
        ds = LabeledDataset(
            features=np.arange(8.0).reshape(4, 2), labels=np.array([0, 0, 0, 5])
        )
        with pytest.raises(DataError, match="class 5"):
            stratified_split(ds, SplitSpec(0.7, seed=0))

    def test_disjointness(self):
        ds = self.synthetic((25, 25))
        ds = LabeledDataset(
            features=ds.features + np.arange(50)[:, None] * 1000.0, labels=ds.labels
        )
        train, test = stratified_split(ds, SplitSpec(0.7, seed=4))
        train_rows = {tuple(r) for r in train.features}
        test_rows = {tuple(r) for r in test.features}
        assert not train_rows & test_rows


class TestMakeToy:
    def test_blobs_nearest_neighbor_separable(self):
        ds = make_toy("blobs", 300, seed=1)
        assert ds.n == 900 and ds.d == 2 and len(ds.class_ids) == 3
        train, test = stratified_split(ds, SplitSpec(0.7, seed=0))
        scaler, std_train = fit_standardize(train)
        Xt = scaler.transform(test.features)
        acc = np.mean(knn_labels(std_train, Xt, k=1) == test.labels)
        assert acc >= 0.98

    def test_rings_annulus_nonconvex(self):
        ds = make_toy("rings", 200, seed=2)
        annulus = ds.rows_of(1)
        centroid = annulus.mean(axis=0)
        # centroid falls in the hole: closer to origin than every annulus point
        radii = np.linalg.norm(annulus, axis=1)
        assert np.linalg.norm(centroid) < radii.min()

    def test_deterministic(self):
        a = make_toy("moons-like", 50, seed=11)
        b = make_toy("moons-like", 50, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_min_size(self):
        with pytest.raises(DataError):
            make_toy("blobs", 9, seed=0)

    def test_unknown_shape(self):
        with pytest.raises(DataError, match="unknown toy shape"):
            make_toy("spiral", 50, seed=0)


class TestWaveform:
    def test_shape_and_balance(self):
        ds = make_waveform()
        assert (ds.n, ds.d) == (5000, 21)
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [1667, 1667, 1666]

    def test_deterministic(self):
        assert np.array_equal(make_waveform(seed=3).features, make_waveform(seed=3).features)

    def test_wave_structure(self):
        # denoised class means are convex combinations of two triangular
        # waves, so the mean of class 0 peaks between positions 7 and 15
        ds = make_waveform()
        mean0 = ds.rows_of(0).mean(axis=0)
        assert 5 <= int(np.argmax(mean0)) + 1 <= 17
        assert mean0.max() > 2.0


class TestLoadUci:
    def test_unknown_name(self):
        with pytest.raises(DataError, match="unknown dataset"):
            load_uci("adult")

    def test_user_supplied_requires_dir(self):
        with pytest.raises(DataError, match="data_dir"):
            load_uci("seeds")

    def test_missing_file_message(self, tmp_path):
        with pytest.raises(DataError, match="seeds.csv"):
            load_uci("seeds", tmp_path)

    def test_wrong_shape_rejected(self, tmp_path):
        p = tmp_path / "seeds.csv"
        p.write_text("1.0,2.0,A\n3.0,4.0,B\n")
        with pytest.raises(DataError, match="expected 210 rows x 7"):
            load_uci("seeds", tmp_path)
