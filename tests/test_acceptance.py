"""Acceptance gate: one pass/fail line per criterion.

The three benchmark datasets that cannot be generated or bundled
(seeds, pima, transfusion) are read from SDCIL_DATA_DIR (default
tests/data/); their criteria report SKIP when the files are absent.
Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import time

import numpy as np
import pytest

from conftest import DATA_DIR, fast_config, train_cil
from oracles import dual_objective, pgd_binary_objective, pgd_ocsvm_objective, registry_pair_decisions
from sdcil import cil
from sdcil.cli import run_trials
from sdcil.dataset import (
    SplitSpec,
    fit_standardize,
    load_uci,
    make_toy,
    stratified_split,
)
from sdcil.geometry import beps_partition, default_k_neighbors, select_width
from sdcil.kernels import candidate_widths, gram
from sdcil.ocsvm import model_from_solution
from sdcil.smo import BOUND_MARGIN, SolverConfig, solve_binary_dual, solve_ocsvm_dual

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def table2_run(name: str, methods=("sdcil",), data_dir=None):
    ds = load_uci(name, data_dir)
    t0 = time.perf_counter()
    reports = run_trials(ds, name, methods, trials=10, base_seed=0)
    return reports, time.perf_counter() - t0


needs_file = lambda fname: pytest.mark.skipif(
    not (DATA_DIR / fname).exists(),
    reason=f"{fname} not found in {DATA_DIR}; fetch it per README to enable this criterion",
)


class TestCriterion1TableII:
    def test_iris(self):
        reports, dt = table2_run("iris")
        mean = 100 * reports["sdcil"].mean_accuracy
        ok = abs(mean - 95.78) <= 3.0 and dt < 30.0
        report("criterion 1 (Table II: iris)", ok,
               f"SD-CIL mean {mean:.2f} vs 95.78 (tol 3.0), runtime {dt:.1f}s < 30s")

    @needs_file("seeds.csv")
    def test_seeds(self):
        reports, dt = table2_run("seeds", data_dir=DATA_DIR)
        mean = 100 * reports["sdcil"].mean_accuracy
        ok = abs(mean - 92.06) <= 3.0 and dt < 60.0
        report("criterion 1 (Table II: seeds)", ok,
               f"SD-CIL mean {mean:.2f} vs 92.06 (tol 3.0), runtime {dt:.1f}s < 60s")

    @needs_file("pima.csv")
    def test_pima_and_direction(self):
        reports, dt = table2_run("pima", methods=("sdcil", "ocsvm-nn"), data_dir=DATA_DIR)
        mean = 100 * reports["sdcil"].mean_accuracy
        nn = 100 * reports["ocsvm-nn"].mean_accuracy
        ok = abs(mean - 74.43) <= 3.5 and dt < 180.0 and nn <= mean - 4.0
        report("criterion 1 (Table II: pima + direction)", ok,
               f"SD-CIL {mean:.2f} vs 74.43 (tol 3.5), OCSVM-NN {nn:.2f} "
               f"(needs <= {mean - 4.0:.2f}), runtime {dt:.1f}s < 180s")

    @needs_file("transfusion.csv")
    def test_transfusion(self):
        reports, dt = table2_run("transfusion", data_dir=DATA_DIR)
        mean = 100 * reports["sdcil"].mean_accuracy
        ok = abs(mean - 76.34) <= 4.0 and dt < 180.0
        report("criterion 1 (Table II: transfusion)", ok,
               f"SD-CIL mean {mean:.2f} vs 76.34 (tol 4.0), runtime {dt:.1f}s < 180s")

    def test_waveform_and_direction(self):
        reports, dt = table2_run("waveform", methods=("sdcil", "ocsvm-nn"))
        mean = 100 * reports["sdcil"].mean_accuracy
        nn = 100 * reports["ocsvm-nn"].mean_accuracy
        ok = abs(mean - 85.26) <= 3.0 and dt < 1200.0 and nn <= mean - 4.0
        report("criterion 1 (Table II: waveform + direction)", ok,
               f"SD-CIL {mean:.2f} vs 85.26 (tol 3.0), OCSVM-NN {nn:.2f} "
               f"(needs <= {mean - 4.0:.2f}), runtime {dt:.1f}s < 1200s")


class TestCriterion2OracleEquivalence:
    def test_smo_matches_projected_gradient(self):
        rng = np.random.default_rng(2024)
        cfg = SolverConfig(kkt_tolerance=1e-7)
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(5, 21))
            X = rng.normal(size=(n, 3))
            K = gram(X, float(rng.uniform(0.5, 3.0)))
            nu = max(float(rng.uniform(0.15, 0.9)), 1.5 / n)
            sol = solve_ocsvm_dual(K, nu, cfg)
            oracle = pgd_ocsvm_objective(K, nu)
            worst = max(worst, abs(dual_objective(K, sol.alphas) - oracle) / max(abs(oracle), 1e-300))
        for trial in range(50):
            n = int(rng.integers(5, 21))
            X = rng.normal(size=(n, 3))
            K = gram(X, float(rng.uniform(0.5, 3.0)))
            y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            C = float(rng.uniform(0.5, 50.0))
            sol = solve_binary_dual(K, y, C, cfg)
            oracle = pgd_binary_objective(K, y, C)
            worst = max(worst, abs(dual_objective(K, sol.alphas, y) - oracle) / max(abs(oracle), 1e-300))
        dt = time.perf_counter() - t0
        ok = worst < 1e-6 and dt < 60.0
        report("criterion 2 (QP oracle equivalence)", ok,
               f"worst relative objective gap {worst:.2e} over 100 instances "
               f"(tol 1e-6), runtime {dt:.1f}s < 60s")


class TestCriterion3NuProperty:
    def test_bounds_over_random_trainings(self):
        rng = np.random.default_rng(77)
        checked = 0
        worst_hi, worst_lo = -np.inf, np.inf
        while checked < 100:
            n = int(rng.integers(10, 60))
            nu = float(rng.uniform(0.1, 0.9))
            if nu * n < 1.0:
                continue
            X = rng.normal(size=(n, int(rng.integers(2, 6))))
            s = float(rng.uniform(0.3, 5.0))
            # the path select_width trains a class through
            sol = solve_ocsvm_dual(gram(X, s), nu, SolverConfig(kkt_tolerance=1e-5, seed=checked))
            m = model_from_solution(X, nu, s, sol)
            if not m.converged:
                continue
            C = 1.0 / (nu * n)
            bounded = float(np.mean(m.sv_alphas >= C - BOUND_MARGIN) * m.m / n)
            frac = m.m / n
            worst_hi = max(worst_hi, bounded - nu)
            worst_lo = min(worst_lo, frac - nu)
            assert bounded <= nu + 2.0 / n
            assert frac >= nu - 2.0 / n
            checked += 1
        report("criterion 3 (nu-property)", True,
               f"100 converged trainings: bounded-SV excess max {worst_hi:+.4f} "
               f"(cap +2/l), SV-fraction deficit min {worst_lo:+.4f} (floor -2/l)")


class TestCriterion4ModifiedMies:
    @pytest.mark.parametrize("cls,shape_name", [(0, "disk"), (1, "ring")])
    def test_width_selection_contract(self, cls, shape_name):
        ds = make_toy("rings", 150, seed=11)
        train, _ = stratified_split(ds, SplitSpec(0.7, seed=0))
        _, std = fit_standardize(train)
        X = std.rows_of(cls)
        part = beps_partition(X, default_k_neighbors(X.shape[0]), 0.7)
        sel = select_width(X, 0.2, candidate_widths(X, 30), part, SolverConfig())
        frac = sel.model.m / sel.model.train_count
        edge_rows = set(map(tuple, X[part.edge_indices]))
        in_edge = sum(tuple(r) in edge_rows for r in sel.model.support_vectors)
        share = in_edge / sel.model.m
        ok = (0.2 <= frac <= 0.3) and share >= 0.8 and not sel.fallback
        report(f"criterion 4 (modified MIES: {shape_name})", ok,
               f"SV fraction {frac:.3f} in [0.2, 0.3], {100 * share:.0f}% of SVs "
               f"in the edge set (needs >= 80%)")


class TestCriterion5IncrementalEqualsBatch:
    @staticmethod
    def _random_blobs(rng, n_classes, n_per_class=40):
        centers = rng.uniform(-1, 1, size=(n_classes, 2)) * 6.0
        X = np.vstack([c + rng.normal(scale=0.7, size=(n_per_class, 2)) for c in centers])
        y = np.repeat(np.arange(n_classes), n_per_class)
        from sdcil.dataset import LabeledDataset

        return LabeledDataset(features=X, labels=y)

    def test_order_independence_and_preservation(self):
        rng = np.random.default_rng(5150)
        worst_case = ""
        for case in range(20):
            k = int(rng.integers(3, 6))
            ds = self._random_blobs(rng, k)
            scaler, _ = fit_standardize(ds)
            order_a = list(rng.permutation(k))
            order_b = list(rng.permutation(k))

            def build(order):
                model = cil.new_model(fast_config(), scaler)
                snapshots = []
                for label in order:
                    model = cil.add_class(model, int(label), ds.rows_of(int(label)), 0.2)
                    # all previously recorded payloads must be unchanged
                    for lbl, payload in snapshots:
                        assert cil.class_payload(model.class_model(lbl)) == payload
                    snapshots.append(
                        (int(label), cil.class_payload(model.class_model(int(label))))
                    )
                return model

            ma, mb = build(order_a), build(order_b)
            pa = {c.class_label: cil.class_payload(c) for c in ma.classes}
            pb = {c.class_label: cil.class_payload(c) for c in mb.classes}
            assert pa == pb, f"case {case}: class payloads differ between orders"
            qa = {key: cil.pair_payload(v) for key, v in ma.pair_table.items()}
            qb = {key: cil.pair_payload(v) for key, v in mb.pair_table.items()}
            assert qa == qb, f"case {case}: pair payloads differ between orders"
            worst_case = f"{case + 1} cases, up to {k} classes"
        report("criterion 5 (incremental = batch)", True,
               f"payload bytes identical across arrival orders; prior payloads "
               f"untouched after every add ({worst_case})")


class TestCriterion6ShortcutSoundness:
    def test_unique_positive_always_wins(self, blob_model_and_split):
        model, train, _ = blob_model_and_split
        rng = np.random.default_rng(909)
        lo = train.features.min(axis=0) - 3
        hi = train.features.max(axis=0) + 3
        probes = rng.uniform(lo, hi, size=(10_000, 2))
        uniques = 0
        for detail in cil.predict_details(model, probes):
            if detail.region == cil.REGION_UNIQUE:
                uniques += 1
                only = detail.possible[0]
                assert detail.label == only
                assert detail.votes == {}
                assert detail.ocsvm_values[only] > 0
        ok = uniques > 0
        report("criterion 6 (shortcut soundness)", ok,
               f"{uniques}/10000 probes landed unique-positive; every one "
               f"returned that class with no votes cast")


class TestCriterion7ToyAccuracy:
    @pytest.mark.parametrize(
        "shape,npc,paper_mean",
        [("blobs", 300, 99.49), ("rings", 200, 99.26)],
    )
    def test_generated_analogue_accuracy(self, shape, npc, paper_mean):
        ds = make_toy(shape, npc, seed=2)
        reports = run_trials(ds, shape, ("sdcil",), trials=3, base_seed=0)
        accs = [100 * t.accuracy for t in reports["sdcil"].trials]
        ok = all(a >= 98.0 for a in accs)
        report(f"criterion 7 (toy analogue: {shape})", ok,
               f"per-trial accuracy {[f'{a:.2f}' for a in accs]} (needs >= 98; "
               f"published toys reached {paper_mean})")


class TestCriterion8Persistence:
    def test_roundtrip_decision_values(self, blob_model_and_split, rings_model_and_split, tmp_path):
        rng = np.random.default_rng(404)
        for tag, (model, train, _) in (
            ("blobs", blob_model_and_split),
            ("rings", rings_model_and_split),
        ):
            p = tmp_path / f"{tag}.json"
            cil.save(model, p)
            loaded = cil.load(p)
            lo = train.features.min(axis=0) - 2
            hi = train.features.max(axis=0) + 2
            probes = rng.uniform(lo, hi, size=(100, 2))
            worst = 0.0
            for d1, d2 in zip(cil.predict_details(model, probes), cil.predict_details(loaded, probes)):
                for lbl in d1.ocsvm_values:
                    worst = max(worst, abs(d1.ocsvm_values[lbl] - d2.ocsvm_values[lbl]))
            Xs = model.scaler.transform(probes)
            for key in model.pair_table:
                drift = registry_pair_decisions(model, key, Xs) - registry_pair_decisions(loaded, key, Xs)
                worst = max(worst, float(np.max(np.abs(drift))))
            assert worst < 1e-12, f"{tag}: worst decision drift {worst:.2e}"
        report("criterion 8 (persistence)", True,
               "save/load preserved all decision values within 1e-12 on 100 "
               "probes per model (class and pair decisions)")
