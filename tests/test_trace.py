"""The benchmark's traced surface, and the paper's training-cost claim in
hardware-free counts taken through it.

perfbench/tracing.py replaces program functions by module attribute and
reads counts from their results, so every function it patches must keep
its name, where its callers look it up, and its return type. These tests
import that file as it is and run it around small fits.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import fast_config
from sdcil import cil
from sdcil.dataset import LabeledDataset, fit_standardize, make_toy

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# patch-table entries whose functions no longer exist
DEAD_LAYERS = {"ocsvm.kernel_matrix", "pairwise.kernel_matrix", "cil.decision_values", "cil.predict_pair"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fit(train: LabeledDataset, labels) -> cil.CilModel:
    scaler, _ = fit_standardize(train)
    model = cil.new_model(fast_config(), scaler)
    for label in labels:
        model = cil.add_class(model, label, train.rows_of(label))
    return model


def iterations(summary) -> int:
    return summary["work"]["smo.solve_binary_dual"] + summary["work"]["smo.solve_ocsvm_dual"]


def test_traced_run_matches_untraced(tracing):
    ds = make_toy("blobs", 20, seed=3)
    probes = np.vstack([ds.features[::7], [[3.0, 2.0], [-4.0, 9.0]]])
    untraced = fit(ds, ds.class_ids)
    want = [cil.predict_detail(untraced, x).label for x in probes]
    originals = (cil.add_class, cil.predict_detail, cil.train_pair)
    tracer = tracing.Tracer()
    with tracer.installed():
        model = fit(ds, ds.class_ids)
        got = [cil.predict_detail(model, x).label for x in probes]
    assert (cil.add_class, cil.predict_detail, cil.train_pair) == originals
    assert got == want
    assert [cil.class_payload(m) for m in model.classes] == [cil.class_payload(m) for m in untraced.classes]
    assert [cil.pair_payload(p) for p in model.pair_table.values()] == [
        cil.pair_payload(p) for p in untraced.pair_table.values()
    ]
    summary = tracer.summary()
    assert summary["calls"]["smo.solve_binary_dual"] > 0
    assert summary["calls"]["smo.solve_ocsvm_dual"] > 0
    assert summary["calls"]["cil.add_class"] == 3
    assert summary["counts"]["kernels.gram_from_sqdist.calls"] > 0
    assert summary["counts"]["kernels.gram_from_sqdist.cells"] > 0
    assert sum(summary["counts"][f"cil.predict.{r}"] for r in ("unique", "multi", "none")) == len(probes)
    assert set(summary["absent"]) <= DEAD_LAYERS


def test_every_cv_solve_is_traced(tracing):
    # perfbench counts binary solves, CV solves and refits at
    # pairwise.solve_binary_dual: every pair must make one call there per
    # (width, fold, cost), folds being n on leave-one-out, then one refit.
    # Class 2 keeps 12 rows, so its pairs run leave-one-out and the others
    # stratified folds.
    ds = make_toy("blobs", 40, seed=1)
    keep = (ds.labels != 2) | (np.cumsum(ds.labels == 2) <= 12)
    ds = LabeledDataset(features=ds.features[keep], labels=ds.labels[keep])
    tracer = tracing.Tracer()
    with tracer.installed():
        model = fit(ds, ds.class_ids)
    cv = fast_config().cv
    grid, schemes = 0, set()
    for a, b in model.pair_table:
        m_a, m_b = model.class_model(a).m, model.class_model(b).m
        folds = cv.folds if min(m_a, m_b) >= 2 * cv.folds else m_a + m_b
        schemes.add(folds == cv.folds)
        grid += folds * cv.width_count * len(cv.cost_grid)
    assert schemes == {True, False}
    summary = tracer.summary()
    pairs = len(model.pair_table)
    assert summary["calls"]["smo.solve_binary_dual"] == grid + pairs
    assert summary["refits"] == pairs
    assert summary["pair_solves"] - summary["refits"] == grid


def five_blobs(n_per_class: int = 30, seed: int = 0) -> LabeledDataset:
    """Five 2-D Gaussian classes on a ring, overlapping a little."""
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.arange(5) / 5
    centers = 3.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    y = np.repeat(np.arange(5), n_per_class)
    return LabeledDataset(features=centers[y] + rng.normal(scale=0.8, size=(y.size, 2)), labels=y)


def test_adding_a_class_costs_less_than_a_batch_retrain(tracing):
    # the paper's claim: the k-th class trains one one-class SVM and k - 1
    # pairs on stored support vectors, where a batch 1vs1 retrain trains
    # k(k - 1)/2 pairs on all rows; counted in kernel cells and iterations
    ds = five_blobs()
    k = len(ds.class_ids)
    model = fit(ds, ds.class_ids[:-1])
    _, std = fit_standardize(ds)
    incremental, batch = tracing.Tracer(), tracing.Tracer()
    with incremental.installed():
        cil.add_class(model, ds.class_ids[-1], ds.rows_of(ds.class_ids[-1]))
    with batch.installed():
        cil.train_batch_svm(std, fast_config().cv, fast_config().solver)
    add, retrain = incremental.summary(), batch.summary()
    assert add["calls"]["pairwise.train_pair"] == k - 1
    assert retrain["calls"]["pairwise.train_pair"] == k * (k - 1) // 2
    add_cells = add["counts"]["kernels.gram_from_sqdist.cells"]
    retrain_cells = retrain["counts"]["kernels.gram_from_sqdist.cells"]
    assert 0 < add_cells < retrain_cells
    assert 0 < iterations(add) < iterations(retrain)


def test_stored_numbers():
    # a class stores its SVs (SVs x d numbers in all), and every pair one
    # coefficient per SV of its two classes, so each SV has one coefficient
    # in each of its class's k - 1 pairs: SVs x d + SVs x (k - 1) numbers,
    # (SV/n) x (1 + (k - 1)/d) times the n x d raw numbers
    ds = five_blobs()
    model = fit(ds, ds.class_ids)
    k, d = len(model.classes), ds.features.shape[1]
    svs = sum(m.m for m in model.classes)
    assert sum(m.support_vectors.size for m in model.classes) == svs * d
    assert sum(clf.coeffs.size for clf in model.pair_table.values()) == svs * (k - 1)
    stored = svs * d + svs * (k - 1)
    assert stored / ds.features.size == pytest.approx(svs / ds.n * (1 + (k - 1) / d), rel=1e-12)
