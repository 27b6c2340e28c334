import errno
import json
import re
import warnings
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import V2_MODEL, fast_config, random_registry, train_cil
from oracles import class_values, pair_decisions, reference_batch_svm, reference_details, registry_pair_decisions
from sdcil import cil
from sdcil.cli import bench_cil_config
from sdcil.dataset import (
    STD_EPSILON,
    DataError,
    LabeledDataset,
    SplitSpec,
    fit_standardize,
    load_uci,
    make_toy,
    make_waveform,
    stratified_split,
)
from sdcil.kernels import squared_distances
from sdcil.ocsvm import OcsvmModel
from sdcil.pairwise import CvConfig, PairwiseClassifier
from sdcil.smo import SolverConfig


def blob_split(seed=0, npc=80):
    ds = make_toy("blobs", npc, seed=seed)
    return stratified_split(ds, SplitSpec(0.7, seed=seed))


@pytest.fixture(scope="module")
def constant_column_model():
    """A 3-class blobs model whose third feature is 0 in every training
    row, so the scaler floors its std at 1e-12 and a finite 1e300 there
    scales to Inf; and its training set."""
    train, _ = blob_split()
    train = LabeledDataset(
        features=np.column_stack([train.features, np.zeros(train.n)]),
        labels=train.labels, label_names=train.label_names,
    )
    return train_cil(train), train


# every prediction entry point, called on the registry and one row x
ROW_ENTRY_POINTS = [
    cil.predict,
    cil.predict_detail,
    pytest.param(lambda model, x: cil.ocsvm_nn_labels(model, x[None, :]), id="ocsvm_nn_labels"),
    pytest.param(lambda model, x: cil.predict_labels(model, x[None, :]), id="predict_labels"),
    # the bad row comes second: the whole matrix is checked before any row is returned
    pytest.param(
        lambda model, x: next(cil.predict_details(model, np.vstack([np.zeros_like(x), x]))),
        id="predict_details",
    ),
]


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

    @pytest.mark.parametrize("n", [30, 600])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_class_rows_rejected_first(self, n, bad):
        # at 600 rows the bad row is one that the width grid's 500-row
        # median subsample skips
        X = np.random.default_rng(n).normal(size=(n, 2))
        skipped = set(range(n)) - set(np.linspace(0, n - 1, 500).astype(int).tolist())
        X[min(skipped) if skipped else 3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no training step runs, so none warns
            with pytest.raises(DataError, match="NaN or Inf"):
                cil.add_class(cil.new_model(fast_config()), 0, X, 0.2)

    def test_row_overflowing_when_scaled_rejected(self, constant_column_model):
        model, train = constant_column_model
        X = train.rows_of(2).copy()
        X[3, 2] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is rejected, not warned about
            with pytest.raises(DataError, match="overflows to Inf or NaN when scaled"):
                cil.add_class(model, 3, X, 0.2)

    @pytest.mark.parametrize("value", [1.7e308, -1e151])
    def test_class_rows_too_large_when_scaled_rejected(self, value):
        X = np.random.default_rng(0).normal(size=(30, 2))
        X[3, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflowing square is rejected, not warned about
            with pytest.raises(DataError, match=r"row norm exceeds 1e\+150 when scaled"):
                cil.add_class(cil.new_model(fast_config()), 0, X, 0.2)

    @pytest.mark.parametrize("label", [2**63, -2**63 - 1, 10**29])
    def test_label_outside_int64_rejected_before_training(self, monkeypatch, label):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cil, "beps_partition", no_training)
        train, _ = blob_split()
        with pytest.raises(ValueError, match="outside the int64 range"):
            cil.add_class(cil.new_model(fast_config()), label, train.rows_of(0), 0.2)

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
        for label in model.labels:
            # the deepest training point of the class is positive only there
            rows = train.rows_of(label)
            x = rows[int(np.argmax([d.ocsvm_values[label] for d in cil.predict_details(model, rows)]))]
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
        decisions = registry_pair_decisions(model, (0, 1), model.scaler.transform(grid))
        wants = np.where(decisions > 0.0, 0, 1).tolist()
        hits = 0
        for detail, want in zip(cil.predict_details(model, grid), wants):
            if detail.region == cil.REGION_MULTI and len(detail.possible) == 2:
                hits += 1
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
    def _tie_model(sv_dists, labels=(0, 1, 2), order=(0, 1, 2), center=(0.0, 0.0), wins=(True, False, True)):
        """3-class model whose pairwise votes are fixed, by default a 1:1:1
        tie, at center (the origin by default).

        Class labels[i] is one SV at center + (sv_dists[i], 0), far enough
        away that its decision at center is negative, so all classes are
        possible; classes at equal distances share their SV and so their
        class value exactly. The classes register in the given order of
        positions in labels. Each pair classifier is a constant: wins[j]
        hands the vote of the j-th pair in sorted key order to its smaller
        label. The default wins make the cycle 0 > 1 > 2 > 0.
        """

        def one_sv(label, dist):
            return OcsvmModel(
                class_label=label,
                support_vectors=np.array([[center[0] + dist, center[1]]]),
                sv_alphas=np.array([1.0]),
                rho=0.5, width=1.0, nu=1.0, train_count=1, converged=True,
            )

        def const_pair(a, b, bias):
            return PairwiseClassifier(
                label_a=a, label_b=b,
                coeffs=np.zeros(2), bias=bias, width=1.0, cost=1.0,
                cv_accuracy=1.0, train_accuracy=1.0, converged=True,
            )

        return cil.CilModel(
            config=fast_config(),
            classes=tuple(one_sv(labels[i], sv_dists[i]) for i in order),
            pair_table={
                (a, b): const_pair(a, b, 1.0 if a_wins else -1.0)
                for (a, b), a_wins in zip(combinations(sorted(labels), 2), wins)
            },
        )

    # wins for the sorted pairs (a, b), (a, c), (b, c) that make a cycle:
    # a > b > c > a, and the other way round
    CYCLES = ((True, False, True), (False, True, False))

    @pytest.mark.parametrize("step", ["votes", "value", "label"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_tie_break_steps(self, step, data):
        """Most votes, then the larger class value, then the smaller label:
        each draw is built so that the named step decides it, over random
        labels, registration orders, SV distances and positions, and the
        batch and per-row paths agree with the reference."""
        labels = data.draw(st.lists(st.integers(0, 60), min_size=3, max_size=3, unique=True))
        order = data.draw(st.permutations(range(3)))
        center = data.draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
        near, far = data.draw(st.sampled_from([(3.0, 3.5), (3.0, 4.0), (3.5, 4.0)]))
        if step == "votes":
            wins = data.draw(st.sampled_from([w for w in product((True, False), repeat=3) if w not in self.CYCLES]))
            dists = data.draw(st.lists(st.sampled_from([near, far]), min_size=3, max_size=3))
        else:
            # a vote tie; then one nearest class, or two or three that share
            # the nearest SV and so tie on class value too
            wins = data.draw(st.sampled_from(self.CYCLES))
            nearest = 1 if step == "value" else data.draw(st.integers(2, 3))
            dists = data.draw(st.permutations([near] * nearest + [far] * (3 - nearest)))
        model = self._tie_model(dists, labels, order, center, wins)
        X = np.tile(center, (data.draw(st.integers(1, 300)), 1))

        want = reference_details(model, X)
        assert_same_details(cil.predict_details(model, X), want)
        assert_same_details([cil.predict_detail(model, X[0])], reference_details(model, X[:1]))
        assert_label_views_match(model, X)

        votes = dict.fromkeys(sorted(labels), 0)
        for (a, b), a_wins in zip(combinations(sorted(labels), 2), wins):
            votes[a if a_wins else b] += 1
        closest = [lbl for lbl, dist in zip(labels, dists) if dist == min(dists)]
        if step == "votes":
            expected = max(votes, key=votes.get)
            assert sorted(votes.values()) == [0, 1, 2]
        else:
            expected = min(closest)
            assert sorted(votes.values()) == [1, 1, 1]
            assert (len(closest) == 1) == (step == "value")
        for detail in want:
            assert detail.region == cil.REGION_NONE
            assert detail.votes == votes
            assert detail.label == expected

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
    @pytest.mark.parametrize("fn", ROW_ENTRY_POINTS)
    def test_non_finite_input_rejected(self, blob_model_and_split, fn, bad):
        model, _, _ = blob_model_and_split
        with pytest.raises(DataError, match="NaN or Inf values"):
            fn(model, np.array([bad, 0.0]))

    @pytest.mark.parametrize("fn", ROW_ENTRY_POINTS)
    def test_row_overflowing_when_scaled_rejected(self, constant_column_model, fn):
        model, _ = constant_column_model
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is rejected, not warned about
            with pytest.raises(DataError, match="overflows to Inf or NaN when scaled"):
                fn(model, np.array([0.0, 0.0, 1e300]))

    @pytest.mark.parametrize("fn", ROW_ENTRY_POINTS)
    @pytest.mark.parametrize("x", [[1.7e308, 0.0], [0.0, -1e160]], ids=["near-max", "past-bound"])
    def test_row_too_large_when_scaled_rejected(self, blob_model_and_split, fn, x):
        # squared distances of such rows would be Inf - Inf: a NaN class
        # value and a silent label
        model, _, _ = blob_model_and_split
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflowing square is rejected, not warned about
            with pytest.raises(DataError, match=r"row norm exceeds 1e\+150 when scaled"):
                fn(model, np.array(x))

    def test_rows_inside_the_bound_have_no_nan(self, blob_model_and_split):
        model, _, _ = blob_model_and_split
        X = model.scaler.inverse(0.5 * cil.MAX_NORM * np.array([[0.6, -0.8], [-1.0, 0.0], [0.0, 1.0]]))
        for detail in cil.predict_details(model, X):
            assert not np.isnan(list(detail.ocsvm_values.values())).any()
            assert detail.region == cil.REGION_NONE and detail.label in model.labels
        labels, regions = cil.predict_labels(model, X)
        assert regions.tolist() == [2, 2, 2] and set(labels.tolist()) <= set(model.labels)

    def test_dimension_mismatch(self, blob_model_and_split):
        model, _, _ = blob_model_and_split
        with pytest.raises(Exception):
            cil.predict(model, np.zeros(5))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 600),  # crosses the 256-row chunk boundary
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.0, 4.0),
    )
    def test_batch_matches_single_row(self, blob_model_and_split, n, seed, spread):
        """predict_labels gives the labels and regions of predict_details,
        and each row's one-row predict_detail agrees with both. A one-row
        chunk is multiplied with a dot kernel and a larger one with gemv, so
        a class value may move in the last bits: rows with a class value
        within 1e-12 of 0, whose region that can change, are not compared."""
        model, train, _ = blob_model_and_split
        lo = train.features.min(axis=0) - spread
        hi = train.features.max(axis=0) + spread
        X = np.random.default_rng(seed).uniform(lo, hi, size=(n, 2))
        batch = list(cil.predict_details(model, X))
        labels, regions = cil.predict_labels(model, X)
        assert labels.tolist() == [b.label for b in batch]
        assert regions.tolist() == [cil.REGIONS.index(b.region) for b in batch]
        for b, x in zip(batch, X, strict=True):
            one = cil.predict_detail(model, x)
            assert b.ocsvm_values.keys() == one.ocsvm_values.keys()
            for lbl, v in one.ocsvm_values.items():
                assert abs(b.ocsvm_values[lbl] - v) <= 1e-12
            if min(map(abs, one.ocsvm_values.values())) <= 1e-12:
                continue
            assert (b.label, b.region, b.possible, b.votes) == (
                one.label, one.region, one.possible, one.votes
            )


def segment(layout: cil.PredictionLayout, key) -> slice:
    """Pair key's span of the layout's pair arrays."""
    i = layout.pairs.ids[key]
    return slice(layout.pairs.starts[i], layout.pairs.starts[i] + layout.pairs.sizes[i])


def stacked_columns(layout: cil.PredictionLayout, key) -> list[int]:
    """The distance columns of pair key's two classes' SVs, lower label
    first, which its coefficients follow."""
    return [col for lbl in key for col in range(layout.columns[lbl].start, layout.columns[lbl].stop)]


def raw_probes(rng, model: cil.CilModel, n: int) -> np.ndarray:
    """Rows near the classes' SVs and farther out, in raw (unscaled) space,
    so that every region occurs."""
    svs = np.vstack([m.support_vectors for m in model.classes])
    Xs = svs[rng.integers(0, svs.shape[0], n)] + rng.normal(scale=rng.uniform(0.1, 3.0, (n, 1)), size=(n, svs.shape[1]))
    return model.scaler.inverse(Xs)


class TestSharedDistances:
    """The chunked path computes each class's distances once and gives the
    dispute classifiers their two classes' blocks; the one-model APIs are
    the reference."""

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(2, 5),
        d=st.integers(1, 6),
        n=st.integers(cil._CHUNK_ROWS + 1, 3 * cil._CHUNK_ROWS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_model_apis(self, k, d, n, seed):
        rng = np.random.default_rng(seed)
        grown = random_registry(rng, k + 1, d)
        model = replace(
            grown, classes=grown.classes[:k],
            pair_table={key: p for key, p in grown.pair_table.items() if set(key) <= set(grown.labels[:k])},
        )
        X = raw_probes(rng, grown, n)
        Xs = model.scaler.transform(X)
        details = list(cil.predict_details(model, X))

        # the reference takes the same row blocks: numpy multiplies a
        # one-row block (n = 257 leaves one) by a dot kernel instead of
        # gemv, which rounds differently
        blocks = [Xs[i:i + cil._CHUNK_ROWS] for i in range(0, n, cil._CHUNK_ROWS)]
        for m in model.classes:
            got = np.array([dt.ocsvm_values[m.class_label] for dt in details])
            want = np.concatenate([class_values(m, block) for block in blocks])
            assert got.tobytes() == want.tobytes()

        winners = {
            (a, b): np.where(registry_pair_decisions(model, (a, b), Xs) > 0.0, a, b) for a, b in model.pair_table
        }
        for i, dt in enumerate(details):
            if len(dt.possible) == 1:
                assert dt.votes == {}
                continue
            want = dict.fromkeys(dt.possible, 0)
            for key in combinations(dt.possible, 2):
                want[int(winners[key][i])] += 1
            assert dt.votes == want
            assert want[dt.label] == max(want.values())

        # registering one more class leaves the others' values untouched
        for before, after in zip(details, cil.predict_details(grown, X)):
            for lbl, v in before.ocsvm_values.items():
                assert np.float64(after.ocsvm_values[lbl]).tobytes() == np.float64(v).tobytes()

    @classmethod
    def _layout_bytes(cls, layout):
        return tuple(
            cls._layout_bytes(v) if isinstance(v, cil.PairTable)
            else (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in layout
        )

    @classmethod
    def _derived_layout_bytes(cls, model):
        """The prediction layout computed from the registry alone."""
        stops = np.cumsum([m.m for m in model.classes]).tolist()
        columns = {m.class_label: slice(stop - m.m, stop) for m, stop in zip(model.classes, stops)}
        keys = sorted(model.pair_table)
        pairs = [model.pair_table[key] for key in keys]
        sizes = [p.coeffs.size for p in pairs]
        return cls._layout_bytes(cil.PredictionLayout(
            columns=columns,
            positions={m.class_label: i for i, m in enumerate(model.classes)},
            sorted_labels=tuple(sorted(model.labels)),
            sq_norms=np.concatenate([(m.support_vectors * m.support_vectors).sum(axis=1) for m in model.classes]),
            divisors=np.concatenate([np.full(m.m, -2.0 * m.width * m.width) for m in model.classes]),
            rhos=np.array([m.rho for m in model.classes]),
            pairs=cil.PairTable(
                ids={key: i for i, key in enumerate(keys)},
                columns=np.concatenate([np.r_[columns[a], columns[b]] for a, b in keys]),
                divisors=np.concatenate([np.full(p.coeffs.size, -2.0 * p.width * p.width) for p in pairs]),
                coeffs=np.concatenate([p.coeffs for p in pairs]),
                starts=np.array([0, *np.cumsum(sizes)[:-1]]),
                sizes=np.array(sizes),
                biases=np.array([p.bias for p in pairs]),
                labels=np.array(keys),
            ),
        ))

    def test_sv_norms_are_not_saved(self, blob_model_and_split, tmp_path):
        model, train, _ = blob_model_and_split
        assert all(set(json.loads(cil.class_payload(m))) == {
            "label", "nu", "width", "rho", "sv_matrix", "sv_alphas", "train_count", "converged",
        } for m in model.classes)
        assert self._layout_bytes(model.layout) == self._derived_layout_bytes(model)
        assert "layout" not in repr(model)
        # a prediction layout that no longer matches the registry changes no
        # saved or compared byte
        other = replace(model)
        layout = other.layout
        object.__setattr__(other, "layout", layout._replace(
            sq_norms=np.zeros_like(layout.sq_norms), divisors=np.ones_like(layout.divisors),
            pairs=layout.pairs._replace(
                columns=layout.pairs.columns[::-1].copy(), divisors=np.ones_like(layout.pairs.divisors),
                coeffs=np.zeros_like(layout.pairs.coeffs), biases=np.ones_like(layout.pairs.biases),
                labels=layout.pairs.labels[:, ::-1].copy(),
            ),
        ))
        assert self._layout_bytes(other.layout) != self._derived_layout_bytes(model)
        assert [cil.class_payload(m) for m in other.classes] == [cil.class_payload(m) for m in model.classes]
        cil.save(model, tmp_path / "a.json")
        cil.save(other, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert other == model
        # load() and replace(), through which add_class builds the grown
        # registry, derive the layout afresh
        assert self._layout_bytes(cil.load(tmp_path / "b.json").layout) == self._derived_layout_bytes(model)
        fresh = replace(model)
        object.__setattr__(fresh, "layout", other.layout)
        assert self._layout_bytes(replace(fresh).layout) == self._derived_layout_bytes(model)
        grown = cil.add_class(fresh, 9, train.rows_of(0) + 40.0)
        assert self._layout_bytes(grown.layout) == self._derived_layout_bytes(grown)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 12), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_pair_segments(self, k, d, seed):
        """Each pair's segment of the layout's pair arrays holds its two
        classes' distance columns, lower label first, its coefficients and
        its divisor; the segments follow sorted key order and cover the
        arrays."""
        model = random_registry(np.random.default_rng(seed), k, d)
        layout = model.layout
        svs = np.vstack([m.support_vectors for m in model.classes])
        assert list(layout.pairs.ids) == sorted(model.pair_table)
        stop = 0
        for key, i in layout.pairs.ids.items():
            clf = model.pair_table[key]
            assert (layout.pairs.starts[i], layout.pairs.sizes[i]) == (stop, clf.coeffs.size)
            span = slice(stop, stop + clf.coeffs.size)
            assert span == segment(layout, key)
            assert layout.pairs.columns[span].tolist() == stacked_columns(layout, key)
            assert layout.pairs.coeffs[span].tobytes() == clf.coeffs.tobytes()
            assert np.all(layout.pairs.divisors[span] == -2.0 * clf.width * clf.width)
            assert layout.pairs.biases[i] == clf.bias
            assert tuple(layout.pairs.labels[i].tolist()) == key
            stop = span.stop
        assert stop == layout.pairs.columns.size == (k - 1) * svs.shape[0]
        for name in ("divisors", "coeffs"):
            assert getattr(layout.pairs, name).shape == layout.pairs.columns.shape

    def test_pair_needs_a_coefficient_per_vector(self):
        # one short pair would shift every later pair's segment
        model = random_registry(np.random.default_rng(0), 3, 2)
        key = min(model.pair_table)
        short = replace(model.pair_table[key], coeffs=model.pair_table[key].coeffs[:-1])
        with pytest.raises(ValueError, match="one coefficient per support vector"):
            replace(model, pair_table={**model.pair_table, key: short})

    def test_class_needs_a_support_vector(self):
        # ocsvm_nn_labels reads each class's nearest vector, as one segment
        # of the distance columns per class
        model = random_registry(np.random.default_rng(0), 3, 2)
        empty = replace(model.classes[1], support_vectors=np.zeros((0, 2)), sv_alphas=np.zeros(0))
        with pytest.raises(ValueError, match=re.escape(f"classes [{empty.class_label}] have no support vectors")):
            replace(model, classes=(model.classes[0], empty, model.classes[2]))

    def test_each_pair_checked_alone(self, blob_model_and_split, tmp_path):
        """One pair with an extra coefficient and the next with one too few
        keep the total right; each pair is still rejected, in memory and
        in a file, as is a coefficient array that is not 1-D."""
        model, _, _ = blob_model_and_split
        first, second = sorted(model.pair_table)[:2]
        p, q = model.pair_table[first], model.pair_table[second]
        shifted = {
            **model.pair_table,
            first: replace(p, coeffs=np.append(p.coeffs, 0.0)),
            second: replace(q, coeffs=q.coeffs[:-1]),
        }
        with pytest.raises(ValueError, match=re.escape(f"pair {first} needs one coefficient per support vector")):
            cil.CilModel(config=model.config, scaler=model.scaler, classes=model.classes, pair_table=shifted)
        with pytest.raises(ValueError, match="1-D"):
            replace(model, pair_table={**model.pair_table, first: replace(p, coeffs=p.coeffs[None, :])})

        path = tmp_path / "m.json"
        cil.save(model, path)
        raw = json.loads(path.read_text())
        entries = {(e["a"], e["b"]): e for e in raw["pairs"]}
        entries[first]["coeffs"].append(0.0)
        entries[second]["coeffs"].pop()
        path.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="one coefficient per support vector"):
            cil.load(path)


def assert_label_views_match(model, X):
    """predict_labels gives the labels and region codes of
    tests/oracles.py::reference_details, and ocsvm_nn_labels the labels
    of its nearest-SV form."""
    want = reference_details(model, X)
    labels, regions = cil.predict_labels(model, X)
    assert (labels.dtype, regions.dtype) == (np.dtype(int), np.dtype(np.uint8))
    assert labels.tolist() == [dt.label for dt in want]
    assert regions.tolist() == [cil.REGIONS.index(dt.region) for dt in want]
    nn = cil.ocsvm_nn_labels(model, X)
    assert nn.dtype == np.dtype(int)
    assert nn.tolist() == [dt.label for dt in reference_details(model, X, nearest_sv=True)]


def assert_same_details(got, want):
    """Equal labels, regions, candidate classes and votes, and byte-equal
    class values in the same order."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.label, g.region, g.possible) == (w.label, w.region, w.possible)
        assert list(g.votes.items()) == list(w.votes.items())
        assert list(g.ocsvm_values) == list(w.ocsvm_values)
        assert np.array(list(g.ocsvm_values.values())).tobytes() == np.array(list(w.ocsvm_values.values())).tobytes()


class TestFusedPrediction:
    """The fused chunk path gives what per-class decision_values and
    per-pair predict_pair calls gave (tests/oracles.py::reference_details):
    class values bit for bit, and equal votes, labels and regions. A pair's
    decision is a segment sum here and a BLAS dot there, so it may differ
    in the last bits, which moves no vote unless it lies that close to 0."""

    @settings(max_examples=40, deadline=None)
    @given(
        # 12 classes: a none-region row votes over 66 pairs, and
        # multi-region rows take subsets of the pair table
        k=st.integers(2, 12),
        d=st.integers(1, 5),
        n=st.integers(1, 600),  # crosses the 256-row chunk boundary
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, k, d, n, seed):
        rng = np.random.default_rng(seed)
        model = random_registry(rng, k, d)
        X = raw_probes(rng, model, n)
        assert_same_details(cil.predict_details(model, X), reference_details(model, X))
        for x in X[:3]:
            assert_same_details([cil.predict_detail(model, x)], reference_details(model, x[None, :]))
        assert_label_views_match(model, X)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 3, 6]),
        d=st.integers(1, 4),
        # an empty X, one row, and each side of the first two chunk edges
        n=st.sampled_from([0, 1, 255, 256, 257, 513]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_label_views_match_reference(self, k, d, n, seed):
        """The label views settle whole chunks in arrays; a registry of one
        class has no pair to vote with. Vote and value ties are drawn in
        TestPredict.test_tie_break_steps."""
        rng = np.random.default_rng(seed)
        model = random_registry(rng, k, d)
        assert_label_views_match(model, raw_probes(rng, model, n))

    def test_wide_table_one_row_votes(self):
        """One-row predict_detail over 10 classes (45 pairs), on rows of
        every region and of candidate sets of many sizes."""
        rng = np.random.default_rng(3)
        model = random_registry(rng, 10, 2)
        X = raw_probes(rng, model, 200)
        details = [cil.predict_detail(model, x) for x in X]
        sizes = {len(dt.possible) for dt in details if dt.region == cil.REGION_MULTI}
        assert {cil.REGION_NONE, cil.REGION_UNIQUE} <= {dt.region for dt in details}
        assert {2, 3, 4, 5, 6, 7} <= sizes
        for dt, x in zip(details, X):
            assert_same_details([dt], reference_details(model, x[None, :]))

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 7),
        d=st.integers(1, 5),
        n=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_class_values_ignore_other_classes(self, k, d, n, seed):
        rng = np.random.default_rng(seed)
        grown = random_registry(rng, k + 1, d)
        kept = set(grown.labels[:k])
        model = replace(
            grown, classes=grown.classes[:k],
            pair_table={key: p for key, p in grown.pair_table.items() if set(key) <= kept},
        )
        X = raw_probes(rng, grown, n)
        for before, after in zip(cil.predict_details(model, X), cil.predict_details(grown, X), strict=True):
            for lbl, v in before.ocsvm_values.items():
                assert np.float64(after.ocsvm_values[lbl]).tobytes() == np.float64(v).tobytes()


def nn_label(model, x) -> int:
    """ocsvm_nn_labels for one raw-space row."""
    return int(cil.ocsvm_nn_labels(model, x[None, :])[0])


class TestOcsvmNn:
    def test_agrees_on_unique_positive(self, blob_model_and_split):
        model, train, test = blob_model_and_split
        for x in test.features:
            detail = cil.predict_detail(model, x)
            if detail.region == cil.REGION_UNIQUE:
                assert nn_label(model, x) == detail.label

    def test_dispute_goes_to_nearest_sv_class(self, blob_model_and_split):
        model, train, _ = blob_model_and_split
        x = np.array([100.0, 100.0])  # none positive; all classes possible
        xs = model.scaler.transform(x[None, :])[0]
        dists = {
            m.class_label: np.min(np.linalg.norm(m.support_vectors - xs, axis=1))
            for m in model.classes
        }
        want = min(sorted(dists), key=lambda l: dists[l])
        assert nn_label(model, x) == want

    def test_batch_matches_single_row(self, blob_model_and_split):
        model, train, _ = blob_model_and_split
        lo, hi = train.features.min(axis=0) - 3.0, train.features.max(axis=0) + 3.0
        X = np.random.default_rng(17).uniform(lo, hi, size=(600, 2))  # crosses 256-row chunks
        regions = [d.region for d in cil.predict_details(model, X)]
        assert regions.count(cil.REGION_UNIQUE) < len(regions)  # disputes are settled too
        labels = cil.ocsvm_nn_labels(model, X)
        assert labels.tolist() == [nn_label(model, x) for x in X]


# rows that a baseline would otherwise label: a norm whose square
# overflows (Inf - Inf in a squared distance), NaN and Inf
UNBOUNDED_ROWS = [
    ([1.7e308, 0.0], r"row norm exceeds 1e\+150"),
    ([1e200, 1e200], r"row norm exceeds 1e\+150"),
    ([np.nan, 0.0], "NaN or Inf"),
    ([-np.inf, 0.0], "NaN or Inf"),
]


class TestKnn:
    @pytest.mark.parametrize("row, message", UNBOUNDED_ROWS)
    def test_unbounded_row_rejected(self, row, message):
        train, _ = blob_split()
        _, std = fit_standardize(train)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected, not warned about
            with pytest.raises(DataError, match=message):
                cil.knn_labels(std, np.array([[0.0, 0.0], row]))

    def test_k1_on_training_row(self):
        train, _ = blob_split()
        scaler, std = fit_standardize(train)
        for i in (0, 10, 50):
            assert cil.knn_labels(std, std.features[i], k=1).tolist() == [std.labels[i]]

    def test_k_equals_n_majority(self):
        X = np.arange(20.0).reshape(10, 2)
        y = np.array([0] * 6 + [1] * 4)
        ds = LabeledDataset(features=X, labels=y)
        assert cil.knn_labels(ds, np.array([[100.0, 100.0]]), k=10).tolist() == [0]

    def test_k_bounds(self):
        ds = LabeledDataset(features=np.zeros((3, 1)) + np.arange(3)[:, None], labels=np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            cil.knn_labels(ds, np.zeros((1, 1)), k=0)
        with pytest.raises(ValueError):
            cil.knn_labels(ds, np.zeros((1, 1)), k=4)

    def test_chunks_match_one_row_at_a_time(self):
        # 5,000 two-column training rows put 13 test rows in a chunk
        rng = np.random.default_rng(5)
        ds = LabeledDataset(features=rng.normal(size=(5000, 2)), labels=rng.integers(0, 3, 5000))
        X = rng.normal(size=(120, 2))
        for k in (1, 4):
            rows = [cil.knn_labels(ds, x, k=k)[0] for x in X]
            assert cil.knn_labels(ds, X, k=k).tolist() == rows

    def test_vote_tie_goes_to_closest_tied_class(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 0])
        ds = LabeledDataset(features=X, labels=y)
        # k=2 around x=0.4: neighbors are labels 0 (d=.4) and 1 (d=.6): tie -> nearest
        assert cil.knn_labels(ds, np.array([[0.4], [0.6]]), k=2).tolist() == [0, 1]


class TestBatchSvm:
    @pytest.fixture(scope="class")
    def blobs_svm(self):
        train, _ = blob_split(npc=30)
        _, std = fit_standardize(train)
        return cil.train_batch_svm(std, fast_config().cv)

    @pytest.mark.parametrize("row, message", UNBOUNDED_ROWS)
    def test_unbounded_row_rejected(self, blobs_svm, row, message):
        # in the second 256-row chunk, so the whole input is checked first
        X = np.zeros((300, 2))
        X[280] = row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                cil.batch_svm_classify(blobs_svm, X)

    def test_two_class_reduces_to_single_pair(self):
        train, test = blob_split()
        mask = train.labels != 2
        two = LabeledDataset(features=train.features[mask], labels=train.labels[mask])
        scaler, std = fit_standardize(two)
        svm = cil.train_batch_svm(std, fast_config().cv, SolverConfig())
        assert len(svm.pairs) == 1
        clf = svm.pairs[(0, 1)]
        Xt = scaler.transform(test.features[test.labels != 2])
        decisions = pair_decisions(clf, squared_distances(Xt, svm.rows[0]), squared_distances(Xt, svm.rows[1]))
        assert np.array_equal(cil.batch_svm_classify(svm, Xt), np.where(decisions > 0.0, 0, 1))

    def test_output_in_registered_labels(self, blob_model_and_split):
        _, train, _ = blob_model_and_split
        scaler, std = fit_standardize(train)
        svm = cil.train_batch_svm(std, fast_config().cv, SolverConfig())
        rng = np.random.default_rng(2)
        out = cil.batch_svm_classify(svm, rng.uniform(-10, 10, size=(50, 2)))
        assert out.shape == (50,)
        assert set(out.tolist()) <= {0, 1, 2}

    def test_matches_stacked_reference(self):
        """One distance block per class, each pair's kernel from two blocks
        side by side, labels rows as one stacked product per pair did, on a
        waveform split (iris trials: test_batch_svm_iris_benchmark_band)."""
        train, test = stratified_split(make_waveform(n=450, seed=3), SplitSpec(0.7, seed=3))
        scaler, std = fit_standardize(train)
        svm = cil.train_batch_svm(std, fast_config().cv)
        assert set(svm.rows) == {0, 1, 2}
        for a, b in svm.pairs:
            assert svm.pairs[(a, b)].coeffs.size == len(svm.rows[a]) + len(svm.rows[b])
        Xt = scaler.transform(test.features)  # 135 rows, and 300 more: two chunks
        Xt = np.vstack([Xt, np.random.default_rng(0).normal(scale=2.0, size=(300, Xt.shape[1]))])
        assert np.array_equal(cil.batch_svm_classify(svm, Xt), reference_batch_svm(svm, Xt))

    def test_one_class_and_empty_input_give_int64_labels(self, blobs_svm):
        # a one-class table has no pair to vote with: every row takes its class
        one = cil.BatchSvm(rows={5: blobs_svm.rows[0]}, pairs={})
        out = cil.batch_svm_classify(one, np.zeros((3, 2)))
        assert out.dtype == np.int64 and out.tolist() == [5, 5, 5]
        out = cil.batch_svm_classify(blobs_svm, np.empty((0, 2)))
        assert out.dtype == np.int64 and out.shape == (0,)

    def test_one_shot_convenience(self):
        train, _ = blob_split(npc=30)
        scaler, std = fit_standardize(train)
        svm = cil.train_batch_svm(std, fast_config().cv)
        assert cil.batch_svm_classify(svm, std.features[:1])[0] == std.labels[0]


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

    @pytest.mark.parametrize("failure", ["dump", "fsync"])
    def test_interrupted_write_keeps_old_file(self, blob_model_and_split, tmp_path, monkeypatch, failure):
        # a write that fails part-way leaves the old model byte for byte,
        # loadable, and no temporary file beside it
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(cil.new_model(fast_config()), p)
        before = p.read_bytes()

        def partial_dump(obj, f, **kwargs):
            f.write('{"format_version": 2, "classes": [')
            raise OSError(errno.EFBIG, "File too large")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        if failure == "dump":
            monkeypatch.setattr(cil.json, "dump", partial_dump)
        else:
            monkeypatch.setattr(cil.os, "fsync", failing_fsync)
        with pytest.raises(OSError) as err:
            cil.save(model, p)
        assert err.value.filename == str(p)
        assert p.read_bytes() == before
        assert cil.load(p) == cil.new_model(fast_config())
        assert [q.name for q in tmp_path.iterdir()] == ["m.json"]

    def test_save_replaces_whole_file(self, blob_model_and_split, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("x" * 10**6)
        cil.save(blob_model_and_split[0], p)
        assert cil.load(p) == blob_model_and_split[0]
        assert [q.name for q in tmp_path.iterdir()] == ["m.json"]

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
        saved = p.read_text()
        for version in (99, 1):
            p.write_text(saved.replace('"format_version": 2', f'"format_version": {version}'))
            with pytest.raises(cil.ModelFormatError, match=f"unsupported format_version {version} "):
                cil.load(p)

    @pytest.mark.parametrize("damage", ["missing", "unregistered", "unregistered-v1"])
    def test_pair_table_must_match_classes(self, blob_model_and_split, tmp_path, damage):
        """A pair table without a pair, or with a pair that names a label no
        class has, is rejected when the model is built in memory and when
        it is loaded, from a fresh save or (the "-v1" case) from the
        checked-in fixture file, with the missing and unexpected keys
        named."""
        checked_in = damage.endswith("v1")
        model = cil.load(V2_MODEL) if checked_in else blob_model_and_split[0]
        first = min(model.pair_table)
        table = {key: clf for key, clf in model.pair_table.items() if key != first}
        unexpected = []
        if damage.startswith("unregistered"):
            unexpected = [(first[0], 7)]
            table[unexpected[0]] = replace(model.pair_table[first], label_b=7)
        message = re.escape(f"pair table does not match the classes (missing [{first}], unexpected {unexpected})")
        with pytest.raises(ValueError, match=message):
            cil.CilModel(config=model.config, scaler=model.scaler, classes=model.classes, pair_table=table)

        p = tmp_path / "m.json"
        if checked_in:
            raw = json.loads(V2_MODEL.read_text())
        else:
            cil.save(model, p)
            raw = json.loads(p.read_text())
        if damage == "missing":
            del raw["pairs"][0]
        else:
            raw["pairs"][0]["b"] = 7
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match=message):
            cil.load(p)

    @pytest.mark.parametrize("source", ["v1", "v2"])
    def test_pair_listed_twice(self, blob_model_and_split, tmp_path, source):
        p = tmp_path / "m.json"
        if source == "v1":  # the checked-in fixture file
            raw = json.loads(V2_MODEL.read_text())
        else:
            cil.save(blob_model_and_split[0], p)
            raw = json.loads(p.read_text())
        raw["pairs"].append(dict(raw["pairs"][0], bias=5.0))
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match=r"lists \[\(0, 1\)\] more than once"):
            cil.load(p)

    def test_class_listed_twice(self, blob_model_and_split, tmp_path):
        model, _, _ = blob_model_and_split
        message = r"the registry lists classes \[0\] more than once"
        with pytest.raises(ValueError, match=message):
            cil.CilModel(config=model.config, scaler=model.scaler,
                         classes=model.classes + (model.classes[0],), pair_table=model.pair_table)
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        raw["classes"].append(raw["classes"][0])
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match=message):
            cil.load(p)

    @pytest.mark.parametrize("entries", ["classes", "pairs"])
    def test_kernel_width_must_be_positive(self, blob_model_and_split, tmp_path, entries):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        raw[entries][0]["width"] = 0.0
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="kernel width"):
            cil.load(p)

    def test_kernel_width_squared_must_not_underflow(self, blob_model_and_split, tmp_path):
        # exp(0 / -2 s^2) is NaN when s^2 underflows to 0
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        raw["classes"][0]["width"] = 1e-200
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="kernel width"):
            cil.load(p)

    def test_support_vectors_within_bound(self, blob_model_and_split, tmp_path):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        raw["classes"][1]["sv_matrix"][0][0] = 1.7e308
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match=r"support vector's norm exceeds 1e\+150 \(class 1\)"):
            cil.load(p)

    @pytest.mark.parametrize("std", [5e-324, 1e-300, 9.99e-13, STD_EPSILON])
    def test_scaler_std_floor(self, blob_model_and_split, tmp_path, std):
        # a std below the floor fit_standardize gives a constant column
        # overflows the model's own rows when they are scaled
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        raw["scaler"]["std"][1] = std
        p.write_text(json.dumps(raw))
        if std == STD_EPSILON:
            assert cil.load(p).scaler.std[1] == STD_EPSILON
            return
        with pytest.raises(cil.ModelFormatError, match=r"scaler std entry is below 1e-12"):
            cil.load(p)

    @pytest.mark.parametrize("where", ["scaler mean", "scaler std", "sv_matrix", "sv_alphas", "coeffs"])
    def test_null_number_rejected(self, tmp_path, where):
        # numpy reads a null in a float list as NaN
        raw = json.loads(V2_MODEL.read_text())
        if where.startswith("scaler"):
            raw["scaler"][where.split()[1]][0] = None
        elif where == "sv_matrix":
            raw["classes"][0]["sv_matrix"][0][0] = None
        else:
            raw["classes" if where == "sv_alphas" else "pairs"][0][where][0] = None
        p = tmp_path / "m.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="null where a number belongs"):
            cil.load(p)

    def test_pair_cost_times_coefficients_must_be_finite(self, blob_model_and_split, tmp_path):
        # inside the box, but partial sums of opposite signs could overflow
        # to Inf - Inf
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        pair = raw["pairs"][0]
        pair["cost"] = 1e308
        pair["coeffs"] = [1e308 if c > 0 else -1e308 for c in pair["coeffs"]]
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match=r"cost x coefficients must be finite \(pair \(0, 1\)\)"):
            cil.load(p)

    @pytest.mark.parametrize("labels", ["pairs", "single-class"])
    def test_labels_outside_int64_rejected(self, blob_model_and_split, tmp_path, labels):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        if labels == "single-class":
            raw["classes"], raw["pairs"] = raw["classes"][:1], []
            raw["classes"][0]["label"] = 2**64
        else:
            # every use of label 2 moves to 2**63, so the pair table matches
            for entry in raw["classes"]:
                entry["label"] = 2**63 if entry["label"] == 2 else entry["label"]
            for entry in raw["pairs"]:
                entry["b"] = 2**63 if entry["b"] == 2 else entry["b"]
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="outside the int64 range"):
            cil.load(p)

    def test_train_count_too_large_for_a_float(self, blob_model_and_split, tmp_path):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        raw["classes"][0]["train_count"] = 10**400
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="malformed model file"):
            cil.load(p)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, blob_model_and_split, tmp_path, token):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        raw["classes"][0]["rho"] = "RHO"
        p.write_text(json.dumps(raw).replace('"RHO"', token))
        with pytest.raises(cil.ModelFormatError, match="non-finite number"):
            cil.load(p)

    @pytest.mark.parametrize("part", ["scaler", "class"])
    def test_feature_dimension_must_agree(self, blob_model_and_split, tmp_path, part):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        if part == "scaler":
            raw["scaler"]["mean"].append(0.0)
            raw["scaler"]["std"].append(1.0)
        else:
            raw["classes"][0]["sv_matrix"] = [row + [0.0] for row in raw["classes"][0]["sv_matrix"]]
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="feature dimension"):
            cil.load(p)

    @pytest.mark.parametrize("part", ["class", "pair"])
    def test_array_lengths_must_agree(self, blob_model_and_split, tmp_path, part):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        entry, key = (raw["classes"][0], "sv_alphas") if part == "class" else (raw["pairs"][0], "coeffs")
        del entry[key][-1]
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="malformed model file"):
            cil.load(p)

    @pytest.mark.parametrize("part", ["class", "pair"])
    def test_alphas_must_lie_in_box(self, blob_model_and_split, tmp_path, part):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        if part == "class":
            entry, key = raw["classes"][0], "sv_alphas"
            bound = 1.0 / (entry["nu"] * entry["train_count"])
        else:
            entry, key = raw["pairs"][0], "coeffs"
            bound = -entry["cost"]
        entry[key][0] = bound
        p.write_text(json.dumps(raw))
        cil.load(p)  # on the bound is inside the box
        entry[key][0] = 1.01 * bound
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="dual box"):
            cil.load(p)

    @pytest.mark.parametrize("cls, name, value", [
        (SolverConfig, "max_passes", 0), (SolverConfig, "max_passes", -5),
        (CvConfig, "width_count", 0), (cil.CilConfig, "width_count", 0),
        (cil.CilConfig, "nu_default", 5.0), (cil.CilConfig, "nu_default", 0.0),
        (cil.CilConfig, "nu_default", float("nan")), (cil.CilConfig, "k_neighbors", 1),
        (cil.CilConfig, "side_threshold", 0.5), (cil.CilConfig, "side_threshold", 1.5),
    ])
    def test_config_range_checked_by_constructor(self, cls, name, value):
        # the check load() makes of a saved config, as it builds one
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("damage", ["missing", "unknown"])
    def test_config_keys_must_match(self, tmp_path, damage):
        p = tmp_path / "m.json"
        cil.save(cil.new_model(fast_config()), p)
        raw = json.loads(p.read_text())
        if damage == "missing":
            del raw["config"]["solver"]["seed"]
        else:
            raw["config"]["cv"]["shuffle"] = True
        p.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="malformed model file"):
            cil.load(p)

    @pytest.mark.parametrize("config", ["default", "fast", "bench"])
    def test_config_roundtrip_is_byte_identical(self, tmp_path, config):
        config = {"default": cil.CilConfig(), "fast": fast_config(), "bench": bench_cil_config(0.2)}[config]
        p, q = tmp_path / "m.json", tmp_path / "again.json"
        cil.save(cil.new_model(config), p)
        loaded = cil.load(p)
        assert loaded.config == config
        cil.save(loaded, q)
        assert q.read_bytes() == p.read_bytes()

    def test_malformed_structure(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(f'{{"format_version": {cil.FORMAT_VERSION}}}')
        with pytest.raises(cil.ModelFormatError, match="malformed"):
            cil.load(p)

    def test_save_stores_each_sv_once(self, blob_model_and_split, tmp_path):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        assert raw["format_version"] == cil.FORMAT_VERSION
        assert all(set(e) == {
            "a", "b", "width", "cost", "bias", "coeffs", "cv_accuracy", "train_accuracy", "converged",
        } for e in raw["pairs"])
        loaded = cil.load(p)
        for key, clf in model.pair_table.items():
            # a pair holds coefficients only, which follow its two classes'
            # SVs: the layout reads their distance columns side by side
            layout = loaded.layout
            assert layout.pairs.columns[segment(layout, key)].tolist() == stacked_columns(layout, key)
            assert loaded.pair_table[key].coeffs.tobytes() == clf.coeffs.tobytes()

    @pytest.mark.parametrize("flag", [False])
    def test_convergence_roundtrip(self, blob_model_and_split, tmp_path, flag):
        model, _, _ = blob_model_and_split
        first = min(model.pair_table)
        model = replace(
            model,
            classes=(replace(model.classes[0], converged=flag),) + model.classes[1:],
            pair_table={**model.pair_table, first: replace(model.pair_table[first], converged=flag)},
        )
        p = tmp_path / "m.json"
        cil.save(model, p)
        loaded = cil.load(p)
        assert [m.converged for m in loaded.classes] == [flag, True, True]
        assert {k: clf.converged for k, clf in loaded.pair_table.items()} == {
            k: flag if k == first else True for k in model.pair_table
        }

    def test_converged_must_be_a_flag(self, blob_model_and_split, tmp_path):
        model, _, _ = blob_model_and_split
        p = tmp_path / "m.json"
        cil.save(model, p)
        raw = json.loads(p.read_text())
        for flag in (1, None):
            raw["pairs"][0]["converged"] = flag
            p.write_text(json.dumps(raw))
            with pytest.raises(cil.ModelFormatError, match="converged must be true or false"):
                cil.load(p)


@pytest.fixture(scope="module")
def v1_and_rewrite(tmp_path_factory):
    """The checked-in fixture file (the "v1" of the tests' names) and its
    rewrite by save(), loaded."""
    p = tmp_path_factory.mktemp("rewrite") / "m.json"
    cil.save(cil.load(V2_MODEL), p)
    return cil.load(V2_MODEL), cil.load(p)


def test_fixture_resaves_byte_identically(tmp_path):
    p = tmp_path / "m.json"
    cil.save(cil.load(V2_MODEL), p)
    assert p.read_bytes() == V2_MODEL.read_bytes()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2 * cil._CHUNK_ROWS), seed=st.integers(0, 2**32 - 1))
def test_v1_and_rewrite_predict_alike(v1_and_rewrite, n, seed):
    fixed, rewrite = v1_and_rewrite
    X = raw_probes(np.random.default_rng(seed), fixed, n)
    for a, b in zip(cil.predict_details(fixed, X), cil.predict_details(rewrite, X), strict=True):
        assert (a.label, a.region, a.possible, a.votes) == (b.label, b.region, b.possible, b.votes)
        assert a.ocsvm_values.keys() == b.ocsvm_values.keys()
        assert np.array(list(a.ocsvm_values.values())).tobytes() == np.array(list(b.ocsvm_values.values())).tobytes()


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_v1_fixture_matches_reference(v1_and_rewrite, n, seed):
    fixed, _ = v1_and_rewrite
    X = raw_probes(np.random.default_rng(seed), fixed, n)
    assert_same_details(cil.predict_details(fixed, X), reference_details(fixed, X))
    assert_same_details([cil.predict_detail(fixed, X[0])], reference_details(fixed, X[:1]))
    assert cil.ocsvm_nn_labels(fixed, X).tolist() == [dt.label for dt in reference_details(fixed, X, nearest_sv=True)]


def json_paths(node, path=()):
    """The path of node and of every value inside it, as key and index tuples."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


FIXTURE_JSON = json.loads(V2_MODEL.read_text())
FIXTURE_PATHS = list(json_paths(FIXTURE_JSON))
# what a mutation writes: nulls, bools, integers past int64, the extreme
# floats, signed zeros, strings, and empty and nested containers
MUTATION_VALUES = st.sampled_from([
    None, True, False, 2**70, -(2**70), 1e308, -1e308, 5e-324, 0.0, -0.0,
    "", "x", "1", [], {}, [[]], [1.0, [2.0]], {"a": {"b": []}},
])
MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(FIXTURE_PATHS), MUTATION_VALUES),
    st.tuples(st.just("delete"), st.sampled_from(FIXTURE_PATHS[1:]), st.none()),
    st.tuples(st.just("duplicate"), st.sampled_from([q for q in FIXTURE_PATHS[1:] if isinstance(q[-1], int)]), st.none()),
)


def mutated(op: str, path: tuple, value):
    """The fixture's JSON with the value at path replaced by value, deleted,
    or (a list item) written twice."""
    raw = json.loads(V2_MODEL.read_text())
    if not path:
        return value
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if op == "replace":
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    else:
        parent.insert(path[-1], parent[path[-1]])
    return raw


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(max_examples=150, deadline=None)
@given(mutation=MUTATIONS, seed=st.integers(0, 2**32 - 1))
def test_mutated_file_is_rejected_or_predicts(mutation_dir, mutation, seed):
    """A model file with one value replaced, deleted or duplicated either
    raises ModelFormatError at load, or loads into a model that predicts
    registered labels for raw rows near its support vectors, whose detail
    view agrees, and which save() writes back byte for byte."""
    p, again = mutation_dir / "m.json", mutation_dir / "again.json"
    p.write_text(json.dumps(mutated(*mutation)))
    try:
        model = cil.load(p)
    except cil.ModelFormatError:
        return
    svs = np.vstack([m.support_vectors for m in model.classes])
    rng = np.random.default_rng(seed)
    Z = svs[rng.integers(0, svs.shape[0], 20)] + rng.normal(scale=0.1, size=(20, svs.shape[1]))
    with np.errstate(over="ignore"):  # a raw row that overflows is not a probe
        X = Z if model.scaler is None else model.scaler.inverse(Z)
    X = X[np.isfinite(X).all(axis=1)]
    labels, regions = cil.predict_labels(model, X)
    assert set(labels.tolist()) <= set(model.labels)
    details = list(cil.predict_details(model, X))
    assert [(d.label, d.region) for d in details] == [(int(l), cil.REGIONS[r]) for l, r in zip(labels, regions)]
    cil.save(model, p)
    cil.save(cil.load(p), again)
    assert again.read_bytes() == p.read_bytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_knn_iris_benchmark_band():
    ds = load_uci("iris")
    accs = []
    for seed in range(10):
        train, test = stratified_split(ds, SplitSpec(0.7, seed=seed))
        scaler, std = fit_standardize(train)
        Xt = scaler.transform(test.features)
        accs.append(np.mean(cil.knn_labels(std, Xt, 1) == test.labels))
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
        labels = cil.batch_svm_classify(svm, Xt)
        assert np.array_equal(labels, reference_batch_svm(svm, Xt))
        accs.append(np.mean(labels == test.labels))
    assert abs(100 * np.mean(accs) - 96.89) <= 3.0
