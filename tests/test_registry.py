"""The registry as a state machine: classes of random shapes and labels
arrive in any order, between save/load round trips and predictions, and
the registry's contracts hold after every step."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import fast_config
from sdcil import cil
from sdcil.dataset import Scaler

MAX_CLASSES = 4
# fixed for the registry's life, as new_model takes it, so a class's
# payload can depend on its rows alone
SCALER = Scaler(mean=np.array([0.5, -1.0]), std=np.array([2.0, 0.5]))
COORD = st.floats(-6.0, 6.0)
SPREAD = st.floats(0.1, 3.0)


def registry() -> cil.CilModel:
    return cil.new_model(fast_config(), SCALER)


class Registry(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model = registry()
        self.rows = {}  # label -> its class rows, in arrival order
        self.alone = {}  # label -> the class payload of the class trained alone
        self.reversed = {}  # pair key -> its payload, its classes added in the opposite order
        self.tmp = tempfile.TemporaryDirectory()

    def teardown(self):
        self.tmp.cleanup()

    @precondition(lambda self: len(self.rows) < MAX_CLASSES)
    @rule(label=st.integers(-5, 60), n=st.integers(6, 16), center=st.tuples(COORD, COORD),
          spread=st.tuples(SPREAD, SPREAD), seed=st.integers(0, 2**32 - 1))
    def add_class(self, label, n, center, spread, seed):
        assume(label not in self.rows)
        X = np.array(center) + np.array(spread) * np.random.default_rng(seed).normal(size=(n, 2))
        self.model = cil.add_class(self.model, label, X)
        solo = cil.add_class(registry(), label, X)
        self.alone[label] = cil.class_payload(solo.classes[0])
        # each pair again in a registry of its two classes, the new one first
        for old, old_rows in self.rows.items():
            pair = cil.add_class(solo, old, old_rows)
            self.reversed[min(old, label), max(old, label)] = cil.pair_payload(*pair.pair_table.values())
            assert cil.class_payload(pair.class_model(old)) == self.alone[old]
        self.rows[label] = X

    @rule()
    def save_and_load(self):
        path = Path(self.tmp.name) / "model.json"
        cil.save(self.model, path)
        loaded = cil.load(path)
        assert loaded == self.model
        self.model = loaded

    @precondition(lambda self: self.rows)
    @rule(n=st.integers(1, 300), pad=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def predict(self, n, pad, seed):
        """The label views agree with the detail view, and each row alone
        with the batch. A one-row chunk is multiplied with a dot kernel and a
        larger one with gemv, so rows with a class value within 1e-12 of 0,
        whose region that can change, are compared in their values only."""
        rows = np.vstack(list(self.rows.values()))
        X = np.random.default_rng(seed).uniform(rows.min(axis=0) - pad, rows.max(axis=0) + pad, size=(n, 2))
        details = list(cil.predict_details(self.model, X))
        labels, regions = cil.predict_labels(self.model, X)
        assert labels.tolist() == [dt.label for dt in details]
        assert regions.tolist() == [cil.REGIONS.index(dt.region) for dt in details]
        for dt, x in zip(details, X, strict=True):
            one = cil.predict_detail(self.model, x)
            assert list(one.ocsvm_values) == list(dt.ocsvm_values)
            assert all(abs(one.ocsvm_values[lbl] - v) <= 1e-12 for lbl, v in dt.ocsvm_values.items())
            if min(map(abs, one.ocsvm_values.values())) > 1e-12:
                assert (one.label, one.region, one.possible, one.votes) == (dt.label, dt.region, dt.possible, dt.votes)

    @invariant()
    def payloads_depend_on_class_data_only(self):
        """Each class's payload is that of its class trained alone, and each
        pair's that of its two classes registered alone in the opposite
        order: neither depends on arrival order or on the other classes."""
        assert {m.class_label: cil.class_payload(m) for m in self.model.classes} == self.alone
        assert {key: cil.pair_payload(p) for key, p in self.model.pair_table.items()} == self.reversed


TestRegistry = Registry.TestCase
TestRegistry.settings = settings(max_examples=15, stateful_step_count=8, deadline=None)
