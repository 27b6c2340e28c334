import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import V2_MODEL, random_registry
from sdcil import cil, geometry
from oracles import reference_batch_svm
from sdcil.cli import EXIT_INPUT, EXIT_OK, EXIT_TRAINING, EvalReport, TrialResult, bench_cil_config, main, map_grid
from sdcil.dataset import LabeledDataset, SplitSpec, fit_standardize, load_csv, make_toy, save_csv, stratified_split

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SRC = Path(cil.__file__).parents[1]


@pytest.fixture(scope="module")
def blobs_csv(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "blobs.csv"
    save_csv(make_toy("blobs", 60, seed=8), p)
    return p


def run(*argv):
    return main([str(a) for a in argv])


def save_csv_rows(path, rows):
    """Write a features-only CSV, each value as repr of its float."""
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([[repr(float(v)) for v in r] for r in rows])


def mark_unconverged(monkeypatch, key):
    """Make cil.add_class record the pair key, when it trains it, as a
    refit that did not converge."""
    add_class = cil.add_class

    def add_marked(model, *args):
        grown, table = add_class(model, *args), {}
        if key in grown.pair_table.keys() - model.pair_table.keys():
            table = {key: replace(grown.pair_table[key], converged=False)}
        return replace(grown, pair_table={**grown.pair_table, **table})

    monkeypatch.setattr(cil, "add_class", add_marked)


class TestTrain:
    def test_train_writes_model(self, blobs_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert run("train", blobs_csv, "--out", out, "--nu", "0.2") == EXIT_OK
        model = cil.load(out)
        assert len(model.classes) == 3 and len(model.pair_table) == 3
        text = capsys.readouterr().out
        assert "sv_fraction" in text and "3 classes, 3 pairwise" in text

    @pytest.mark.parametrize("unconverged", [[], [(0, 2)]])
    def test_unconverged_pair_warns(self, blobs_csv, tmp_path, capsys, monkeypatch, unconverged):
        # a refit that did not converge is kept and saved, with one warning
        # line; a normal run warns of nothing
        out = tmp_path / "model.json"
        for key in unconverged:
            mark_unconverged(monkeypatch, key)
        assert run("train", blobs_csv, "--out", out) == EXIT_OK
        lines = [f"warning: pair {k}: the refit did not converge\n" for k in unconverged]
        assert capsys.readouterr().err == "".join(lines)
        assert [k for k, clf in cil.load(out).pair_table.items() if not clf.converged] == unconverged

    def test_order_reversed_identical_payloads(self, blobs_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("train", blobs_csv, "--out", a) == EXIT_OK
        assert run("train", blobs_csv, "--out", b, "--order", "2,1,0") == EXIT_OK
        ma, mb = cil.load(a), cil.load(b)
        pa = {c.class_label: cil.class_payload(c) for c in ma.classes}
        pb = {c.class_label: cil.class_payload(c) for c in mb.classes}
        assert pa == pb
        assert {k: cil.pair_payload(v) for k, v in ma.pair_table.items()} == {
            k: cil.pair_payload(v) for k, v in mb.pair_table.items()
        }

    @pytest.mark.parametrize("column", ["equal", "spread"])
    @pytest.mark.parametrize("npc", [20, 50])
    def test_huge_column(self, tmp_path, capsys, npc, column):
        """A column of 1e300 in every row trains a model that loads and
        predicts; a column of +-1e300, whose spread overflows, exits 2
        before training."""
        ds = make_toy("blobs", npc, seed=3)
        extra = np.full(ds.n, 1e300) if column == "equal" else np.where(np.arange(ds.n) % 2, 1e300, -1e300)
        data, out = tmp_path / "d.csv", tmp_path / "m.json"
        save_csv(LabeledDataset(features=np.column_stack([ds.features, extra]), labels=ds.labels), data)
        if column == "spread":
            assert run("train", data, "--out", out) == EXIT_INPUT
            assert "feature column 2 cannot be standardized" in capsys.readouterr().err
            assert not out.exists()
            return
        assert run("train", data, "--out", out) == EXIT_OK
        assert cil.load(out).scaler.constant_columns == (2,)
        assert run("predict", out, data) == EXIT_OK
        assert "accuracy: 100.00 percent" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert run("train", tmp_path / "nope.csv", "--out", tmp_path / "m.json") == EXIT_INPUT

    @pytest.mark.parametrize("order, message", [
        ("0,zzz", "unknown class label 'zzz'"),
        ("0,7", "--order names classes not in the data: [7]"),
        ("0,1,0", "--order names classes more than once: [0]"),
    ])
    def test_bad_order_rejected_before_training(self, blobs_csv, tmp_path, capsys, order, message):
        out = tmp_path / "m.json"
        assert run("train", blobs_csv, "--out", out, "--order", order) == EXIT_INPUT
        text, err = capsys.readouterr()
        assert message in err
        assert "width=" not in text  # no class trained
        assert not out.exists()

    def test_training_failure_exit_code(self, blobs_csv, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("solver gave up")

        monkeypatch.setattr(cil, "add_class", fail)
        out = tmp_path / "m.json"
        assert run("train", blobs_csv, "--out", out) == EXIT_TRAINING
        assert "training error: solver gave up" in capsys.readouterr().err
        assert not out.exists()


class TestFileErrors:
    """A path that cannot be read or written exits 2 with a message that
    names it, and an output path is checked before anything trains."""

    @pytest.fixture(scope="class")
    def model_path(self, blobs_csv, tmp_path_factory):
        p = tmp_path_factory.mktemp("model") / "m.json"
        assert run("train", blobs_csv, "--out", p) == EXIT_OK
        return p

    @pytest.mark.parametrize("which", ["missing model", "model is a directory", "data is a directory"])
    def test_unreadable_path_exit_code(self, model_path, blobs_csv, tmp_path, capsys, which):
        capsys.readouterr()
        model, data = {
            "missing model": (tmp_path / "nope.json", blobs_csv),
            "model is a directory": (tmp_path, blobs_csv),
            "data is a directory": (model_path, tmp_path),
        }[which]
        bad = data if which == "data is a directory" else model
        assert run("predict", model, data) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(bad) in err

    @pytest.fixture
    def no_training(self, monkeypatch):
        def add_class(*args, **kwargs):
            raise AssertionError("trained before checking the output path")

        monkeypatch.setattr(cil, "add_class", add_class)

    @pytest.mark.parametrize("kind", ["missing directory", "directory"])
    def test_bad_output_path_checked_before_training(self, model_path, blobs_csv, tmp_path, capsys,
                                                     no_training, kind):
        out = tmp_path / "nope" / "m.json" if kind == "missing directory" else tmp_path
        rows = tmp_path / "rows.csv"
        rows.write_text("0.0,0.0\n1.0,1.0\n0.5,0.0\n")
        before = model_path.read_bytes()
        for argv in (("train", blobs_csv, "--out", out),
                     ("add-class", model_path, rows, "--label", "7", "--out", out),
                     ("evaluate", blobs_csv, "--method", "knn", "--trials", "2", "--out", out)):
            capsys.readouterr()
            assert run(*argv) == EXIT_INPUT
            stdout, err = capsys.readouterr()
            assert stdout == "" and str(out) in err
        assert model_path.read_bytes() == before


    @pytest.mark.parametrize("buffering", ["block", "unbuffered"])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_closed_stdout(self, model_path, blobs_csv, tmp_path, command, buffering):
        # `sdcil train ... | head -1`: the reader is gone before the first
        # line. Unbuffered, the first print meets the closed pipe; buffered,
        # the flush does. Either way the command finishes its work, prints
        # no traceback and exits with its own code.
        out = tmp_path / "m.json"
        argv = ["train", blobs_csv, "--out", out] if command == "train" else ["predict", model_path, blobs_csv]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "sdcil.cli", *map(str, argv)], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == EXIT_OK, err
        assert "Traceback" not in err and "BrokenPipeError" not in err
        if command == "train":
            assert cil.load(out) == cil.load(model_path)


@pytest.fixture(scope="module")
def two_class_model(blobs_csv, tmp_path_factory):
    """A model file of blobs classes 0 and 1, and a CSV of class 2's rows."""
    d = tmp_path_factory.mktemp("two")
    model_p, newcls = d / "m.json", d / "c2.csv"
    assert run("train", blobs_csv, "--out", model_p, "--order", "0,1") == EXIT_OK
    save_csv_rows(newcls, load_csv(blobs_csv).rows_of(2))
    return model_p, newcls


# (section, field, value): a saved config value of the wrong type
CONFIG_DAMAGE = [
    ("solver", "seed", 1.5), ("solver", "seed", "x"), ("solver", "max_passes", 1.5),
    ("cv", "seed", 1.5), ("cv", "folds", 2.5), ("cv", "width_count", 1.5),
    (None, "width_count", 2.5), (None, "k_neighbors", 2.5),
    (None, "side_threshold", "a"), (None, "nu_default", "a"),
    # a bool is not a number, and null is taken only where the field may be None
    ("cv", "folds", True), (None, "nu_default", False), (None, "width_count", None),
    ("cv", "cost_grid", [0.5, "a"]), ("cv", "width_grid", [True]),
]

# (section, field, value): a saved config value of the right type whose
# range no class can be trained with; 2**70 is no int64
CONFIG_RANGE_DAMAGE = [
    ("solver", "max_passes", 0), ("solver", "max_passes", -5),
    (None, "width_count", 0), (None, "width_count", 2**70),
    ("cv", "width_count", 0), ("cv", "width_count", 2**70),
    (None, "nu_default", 5.0), (None, "nu_default", 0.0),
    (None, "k_neighbors", 1), (None, "side_threshold", 0.5),
]


class TestAddClass:
    @pytest.mark.parametrize(
        "section, name, value", CONFIG_RANGE_DAMAGE,
        ids=[f"{'.'.join(filter(None, (s, n)))}={v!r}" for s, n, v in CONFIG_RANGE_DAMAGE],
    )
    def test_config_range_checked_at_load(self, two_class_model, tmp_path, capsys, section, name, value):
        model_p, newcls = two_class_model
        raw = json.loads(model_p.read_text())
        (raw["config"][section] if section else raw["config"])[name] = value
        damaged = tmp_path / "m.json"
        damaged.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match=f"malformed model file .*{name}"):
            cil.load(damaged)
        capsys.readouterr()
        assert run("add-class", damaged, newcls, "--label", "2") == EXIT_INPUT
        assert "malformed model file" in capsys.readouterr().err

    def test_out_of_memory_exit_code(self, two_class_model, tmp_path, capsys, monkeypatch):
        # a real allocation this large is unsafe to try, so the class's
        # distance matrix raises as numpy would
        def no_memory(*args, **kwargs):
            raise MemoryError(
                "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"
            )

        monkeypatch.setattr(geometry, "squared_distances", no_memory)
        model_p, newcls = two_class_model
        out = tmp_path / "grown.json"
        assert run("add-class", model_p, newcls, "--label", "2", "--out", out) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
            "and data type float64\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, name, value", CONFIG_DAMAGE,
        ids=[f"{'.'.join(filter(None, (s, n)))}={v!r}" for s, n, v in CONFIG_DAMAGE],
    )
    def test_config_type_checked_at_load(self, two_class_model, tmp_path, capsys, section, name, value):
        model_p, newcls = two_class_model
        raw = json.loads(model_p.read_text())
        (raw["config"][section] if section else raw["config"])[name] = value
        damaged = tmp_path / "m.json"
        damaged.write_text(json.dumps(raw))
        with pytest.raises(cil.ModelFormatError, match="has the wrong type"):
            cil.load(damaged)
        capsys.readouterr()
        assert run("add-class", damaged, newcls, "--label", "2") == EXIT_INPUT
        assert "malformed model file" in capsys.readouterr().err

    def test_incremental_equals_from_scratch(self, blobs_csv, tmp_path):
        partial = tmp_path / "partial.json"
        full = tmp_path / "full.json"
        newcls = tmp_path / "class2.csv"
        save_csv_rows(newcls, load_csv(blobs_csv).rows_of(2))

        # scaler comes from the full file in both paths; only classes differ
        assert run("train", blobs_csv, "--out", partial, "--order", "0,1") == EXIT_OK
        assert len(cil.load(partial).classes) == 2
        assert run("add-class", partial, newcls, "--label", "2") == EXIT_OK
        assert run("train", blobs_csv, "--out", full) == EXIT_OK

        m_inc, m_full = cil.load(partial), cil.load(full)
        assert {c.class_label: cil.class_payload(c) for c in m_inc.classes} == {
            c.class_label: cil.class_payload(c) for c in m_full.classes
        }
        assert {k: cil.pair_payload(v) for k, v in m_inc.pair_table.items()} == {
            k: cil.pair_payload(v) for k, v in m_full.pair_table.items()
        }

    def test_add_keeps_prior_bytes_and_counts(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        assert run("train", blobs_csv, "--out", model_p, "--order", "0,1") == EXIT_OK
        before = json.loads(model_p.read_text())
        newcls = tmp_path / "c2.csv"
        save_csv_rows(newcls, load_csv(blobs_csv).rows_of(2))
        out2 = tmp_path / "m2.json"
        assert run("add-class", model_p, newcls, "--label", "2", "--out", out2) == EXIT_OK
        after = json.loads(out2.read_text())
        assert len(after["classes"]) == 3 and len(after["pairs"]) == 3
        assert after["classes"][:2] == before["classes"]
        assert after["pairs"][0] == before["pairs"][0]
        assert "added class 2" in capsys.readouterr().out

    def test_unconverged_pair_warns(self, blobs_csv, tmp_path, capsys, monkeypatch):
        model_p, newcls = tmp_path / "m.json", tmp_path / "c2.csv"
        assert run("train", blobs_csv, "--out", model_p, "--order", "0,1") == EXIT_OK
        save_csv_rows(newcls, load_csv(blobs_csv).rows_of(2))
        capsys.readouterr()
        mark_unconverged(monkeypatch, (1, 2))
        assert run("add-class", model_p, newcls, "--label", "2") == EXIT_OK
        assert capsys.readouterr().err == "warning: pair (1, 2): the refit did not converge\n"
        assert [k for k, clf in cil.load(model_p).pair_table.items() if not clf.converged] == [(1, 2)]

    def test_duplicate_label_exit_code(self, blobs_csv, tmp_path):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p)
        newcls = tmp_path / "dup.csv"
        save_csv_rows(newcls, load_csv(blobs_csv).rows_of(0))
        assert run("add-class", model_p, newcls, "--label", "0") == EXIT_INPUT

    def test_two_row_class_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p, "--order", "0,1")
        newcls = tmp_path / "two.csv"
        save_csv_rows(newcls, load_csv(blobs_csv).rows_of(2)[:2])
        assert run("add-class", model_p, newcls, "--label", "2", "--nu", "0.5") == EXIT_INPUT
        assert "at least 3 samples" in capsys.readouterr().err

    def test_label_outside_int64_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p, "--order", "0,1")
        newcls = tmp_path / "new.csv"
        save_csv_rows(newcls, load_csv(blobs_csv).rows_of(2))
        assert run("add-class", model_p, newcls, "--label", "100000000000000000000000000000") == EXIT_INPUT
        assert "outside the int64 range" in capsys.readouterr().err

    def test_short_row_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p, "--order", "0,1")
        rows = load_csv(blobs_csv).rows_of(2).tolist()
        rows[4] = rows[4][:1]
        newcls = tmp_path / "short.csv"
        save_csv_rows(newcls, rows)
        assert run("add-class", model_p, newcls, "--label", "2") == EXIT_INPUT
        assert "short.csv:5: expected 2 columns, got 1" in capsys.readouterr().err


class TestPredictCmd:
    def test_wrong_column_count_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p)
        data = tmp_path / "one.csv"
        data.write_text("0.5\n1.5\n")
        assert run("predict", model_p, data) == EXIT_INPUT
        assert "model expects 2 features, file has 1 columns" in capsys.readouterr().err

    def test_labeled_file_reports_accuracy(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p)
        assert run("predict", model_p, blobs_csv) == EXIT_OK
        err = capsys.readouterr().err
        assert "accuracy" in err

    @pytest.mark.parametrize("order", [None, "0"])
    def test_reports_region_mix(self, tmp_path, capsys, order):
        """One stderr line gives the unique, multi and none counts and the
        number of rows the dispute vote settled; stdout holds the labels."""
        # three overlapping blobs, so that some rows are claimed twice
        rng = np.random.default_rng(0)
        y = np.repeat([0, 1, 2], 40)
        centers = np.array([(0.0, 0.0), (2.2, 0.0), (1.1, 1.9)])
        ds = LabeledDataset(features=centers[y] + rng.normal(size=(y.size, 2)), labels=y)
        save_csv(ds, tmp_path / "train.csv")
        model_p = tmp_path / "m.json"
        run("train", tmp_path / "train.csv", "--out", model_p, *(["--order", order] if order else []))
        model = cil.load(model_p)
        rows = rng.uniform(ds.features.min(axis=0) - 3, ds.features.max(axis=0) + 3, (300, 2))
        data = tmp_path / "rows.csv"
        save_csv_rows(data, rows)
        capsys.readouterr()
        assert run("predict", model_p, data) == EXIT_OK
        out, err = capsys.readouterr()
        details = list(cil.predict_details(model, rows))
        assert out.split() == [str(d.label) for d in details]
        counts = {region: sum(d.region == region for d in details) for region in cil.REGIONS}
        voted = sum(bool(d.votes) for d in details)
        if order is None:  # three classes: every region occurs and is voted on
            assert min(counts.values()) > 0
            assert voted == counts[cil.REGION_MULTI] + counts[cil.REGION_NONE]
        else:  # one class: nothing to vote on
            assert voted == 0 and counts[cil.REGION_NONE] > 0
        assert err.splitlines() == [
            f"regions: {counts[cil.REGION_UNIQUE]} unique, {counts[cil.REGION_MULTI]} multi, "
            f"{counts[cil.REGION_NONE]} none; {voted} rows voted"
        ]

    def test_missing_pair_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p)
        raw = json.loads(model_p.read_text())
        del raw["pairs"][0]
        model_p.write_text(json.dumps(raw))
        assert run("predict", model_p, blobs_csv) == EXIT_INPUT
        assert "pair table" in capsys.readouterr().err

    def test_row_too_large_when_scaled_exit_code(self, blobs_csv, tmp_path, capsys):
        # the row's squared distances would be Inf - Inf, a NaN class value
        model_p, rows = tmp_path / "m.json", tmp_path / "rows.csv"
        run("train", blobs_csv, "--out", model_p)
        capsys.readouterr()
        rows.write_text("0.0,0.0\n1.7e308,0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflowing square is rejected, not warned about
            assert run("predict", model_p, rows) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert "row norm exceeds 1e+150 when scaled" in err
        assert out == ""  # no row's label is printed

    def test_train_count_overflow_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p)
        raw = json.loads(model_p.read_text())
        raw["classes"][0]["train_count"] = 10**400
        model_p.write_text(json.dumps(raw))
        assert run("predict", model_p, blobs_csv) == EXIT_INPUT
        assert "malformed model file" in capsys.readouterr().err

    def test_non_finite_model_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p)
        raw = json.loads(model_p.read_text())
        raw["classes"][0]["rho"] = float("nan")
        model_p.write_text(json.dumps(raw))
        assert run("predict", model_p, blobs_csv) == EXIT_INPUT
        assert "non-finite number NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("entries,key", [("classes", "sv_alphas"), ("pairs", "coeffs")])
    def test_short_coefficients_exit_code(self, blobs_csv, tmp_path, capsys, entries, key):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p)
        raw = json.loads(model_p.read_text())
        del raw[entries][0][key][-1]
        model_p.write_text(json.dumps(raw))
        assert run("predict", model_p, blobs_csv) == EXIT_INPUT
        assert "malformed model file" in capsys.readouterr().err


    def test_version_1_file_exit_code(self, blobs_csv, tmp_path, capsys):
        # a version-1 file holds each pair's vectors and no convergence flags
        raw = json.loads(V2_MODEL.read_text())
        svs = {c["label"]: c["sv_matrix"] for c in raw["classes"]}
        raw["format_version"] = 1
        for entry in raw["classes"] + raw["pairs"]:
            del entry["converged"]
        for pair in raw["pairs"]:
            pair["vectors"] = svs[pair["a"]] + svs[pair["b"]]
        model_p = tmp_path / "m.json"
        model_p.write_text(json.dumps(raw))
        assert run("predict", model_p, blobs_csv) == EXIT_INPUT
        assert "unsupported format_version 1 " in capsys.readouterr().err

    def test_duplicate_pair_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        raw = json.loads(V2_MODEL.read_text())
        raw["pairs"].append(dict(raw["pairs"][0], bias=5.0))
        model_p.write_text(json.dumps(raw))
        assert run("predict", model_p, blobs_csv) == EXIT_INPUT
        assert "more than once" in capsys.readouterr().err

    def test_alpha_out_of_box_exit_code(self, blobs_csv, tmp_path, capsys):
        model_p = tmp_path / "m.json"
        run("train", blobs_csv, "--out", model_p)
        raw = json.loads(model_p.read_text())
        raw["pairs"][0]["coeffs"][0] = 2.0 * raw["pairs"][0]["cost"]
        model_p.write_text(json.dumps(raw))
        assert run("predict", model_p, blobs_csv) == EXIT_INPUT
        assert "dual box" in capsys.readouterr().err


class TestEvaluate:
    def test_batch_svm_trial(self, blobs_csv, tmp_path, capsys):
        """A batch-svm trial runs to completion, and its accuracy is that of
        the stacked reference on the trial's split."""
        out = tmp_path / "rep.csv"
        assert run("evaluate", blobs_csv, "--method", "batch-svm", "--trials", "1", "--seed", "4",
                   "--out", out) == EXIT_OK
        assert "batch-svm on blobs: " in capsys.readouterr().out
        with open(out) as f:
            (row,) = list(csv.DictReader(f))
        train, test = stratified_split(load_csv(blobs_csv), SplitSpec(0.7, seed=4))
        scaler, std = fit_standardize(train)
        cfg = bench_cil_config(0.2)
        svm = cil.train_batch_svm(std, cfg.cv, cfg.solver)
        labels = reference_batch_svm(svm, scaler.transform(test.features))
        assert float(row["accuracy"]) == float(np.sum(labels == test.labels)) / test.n

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_exit_code(self, blobs_csv, capsys, trials):
        assert run("evaluate", blobs_csv, "--method", "knn", "--trials", trials) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert f"error: need at least one trial, got {trials}" in err and "percent" not in out

    def test_deterministic_given_seed(self, blobs_csv, tmp_path, capsys):
        r1 = tmp_path / "r1.csv"
        r2 = tmp_path / "r2.csv"
        assert run("evaluate", blobs_csv, "--method", "knn", "--trials", "3",
                   "--seed", "5", "--out", r1) == EXIT_OK
        assert run("evaluate", blobs_csv, "--method", "knn", "--trials", "3",
                   "--seed", "5", "--out", r2) == EXIT_OK
        strip_timing = lambda p: [row[:-1] for row in csv.reader(open(p))]
        assert strip_timing(r1) == strip_timing(r2)

    def test_report_csv_schema(self, blobs_csv, tmp_path):
        out = tmp_path / "rep.csv"
        run("evaluate", blobs_csv, "--method", "sdcil", "--trials", "2", "--out", out)
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["method", "dataset", "trial", "seed", "accuracy",
                           "unique_pos", "multi_pos", "none_pos", "train_seconds"]
        assert len(rows) == 3
        accs = [float(r[4]) for r in rows[1:]]
        assert all(0.0 <= a <= 1.0 for a in accs)

    @pytest.mark.parametrize("method", ["knn", "batch-svm"])
    def test_unbounded_row_exit_code(self, blobs_csv, tmp_path, capsys, method):
        # a baseline rejects the row instead of scoring a label for it
        data = tmp_path / "bad.csv"
        data.write_text(blobs_csv.read_text() + "1.7e308,0.0,0\n")
        assert run("evaluate", data, "--method", method, "--trials", "3") == EXIT_INPUT
        out, err = capsys.readouterr()
        assert "error:" in err and "percent" not in out

    def test_mean_std_recomputable(self):
        trials = tuple(
            TrialResult(seed=i, accuracy=a, unique_pos=0, multi_pos=0, none_pos=0,
                        train_seconds=0.0)
            for i, a in enumerate([0.5, 0.75, 1.0])
        )
        rep = EvalReport(method="knn", dataset="x", trials=trials)
        assert abs(rep.mean_accuracy - np.mean([0.5, 0.75, 1.0])) < 1e-12
        assert abs(rep.std_accuracy - np.std([0.5, 0.75, 1.0], ddof=1)) < 1e-12


class TestMap:
    @pytest.fixture(scope="class")
    def model_path(self, blobs_csv, tmp_path_factory):
        p = tmp_path_factory.mktemp("map") / "m.json"
        assert run("train", blobs_csv, "--out", p) == EXIT_OK
        return p

    def test_raster_outputs(self, model_path, tmp_path):
        prefix = tmp_path / "map"
        assert run("map", model_path, "--bounds=-3,9,-3,9", "--res", "40,30",
                   "--out", prefix) == EXIT_OK
        labels = (tmp_path / "map_labels.pgm").read_text().split()
        assert labels[0] == "P2"
        assert labels[1:3] == ["40", "30"]
        vals = set(map(int, labels[4:]))
        assert vals == {0, 1, 2}  # every class appears on this window
        regions = (tmp_path / "map_regions.pgm").read_text().split()
        assert set(map(int, regions[4:])) <= {0, 1, 2}
        with open(tmp_path / "map_svs.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["x", "y", "label"]
        assert len(rows) > 3

    def test_grid_agrees_with_predict(self, model_path):
        model = cil.load(model_path)
        bounds, res = (-3.0, 9.0, -3.0, 9.0), (25, 20)
        labels, regions, xs, ys = map_grid(model, bounds, res)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            r = int(rng.integers(0, res[1]))
            c = int(rng.integers(0, res[0]))
            detail = cil.predict_detail(model, np.array([xs[c], ys[r]]))
            assert labels[r, c] == detail.label

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_rasters_agree_with_predict_detail(self, k):
        """Both rasters, cell by cell, over a grid of several prediction
        chunks that holds every region: the label raster holds per-row
        predict_detail's label and the region raster its region code, in
        the narrowest types."""
        # seed 2 gives unique, multi and none cells for every k here
        model = random_registry(np.random.default_rng(2), k, 2)
        svs = model.scaler.inverse(np.vstack([m.support_vectors for m in model.classes]))
        lo, hi = svs.min(axis=0), svs.max(axis=0)
        pad = 0.25 * (hi - lo)
        res = (30, 20)
        assert res[0] * res[1] > cil._CHUNK_ROWS
        labels, regions, xs, ys = map_grid(model, (lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1]), res)
        # labels below 256: one byte each, like the region codes
        assert max(model.labels) < 256
        assert (labels.dtype, regions.dtype) == (np.uint8, np.uint8)
        assert labels.shape == regions.shape == (res[1], res[0])
        assert set(np.unique(regions).tolist()) == {0, 1, 2}
        code = {cil.REGION_UNIQUE: 0, cil.REGION_MULTI: 1, cil.REGION_NONE: 2}
        for r, y in enumerate(ys):
            for c, x in enumerate(xs):
                detail = cil.predict_detail(model, np.array([x, y]))
                assert (labels[r, c], regions[r, c]) == (detail.label, code[detail.region])

    def test_deep_centroid_cell(self, model_path, blobs_csv):
        model = cil.load(model_path)
        ds = load_csv(blobs_csv)
        rows = ds.rows_of(0)
        deep = rows[int(np.argmax([d.ocsvm_values[0] for d in cil.predict_details(model, rows)]))]
        labels, _, xs, ys = map_grid(model, (deep[0] - .1, deep[0] + .1, deep[1] - .1, deep[1] + .1), (3, 3))
        assert labels[1, 1] == 0

    def test_single_cell_raster(self, model_path, tmp_path):
        prefix = tmp_path / "one"
        assert run("map", model_path, "--bounds", "0,1,0,1", "--res", "1,1",
                   "--out", prefix) == EXIT_OK
        assert (tmp_path / "one_labels.pgm").exists()

    @pytest.mark.parametrize("bounds, res", [
        ("1,0,0,1", "4,4"), ("0,1,0", "4,4"), ("0,1,a,1", "4,4"),
        ("0,1,0,1", "0,4"), ("0,1,0,1", "4"), ("0,1,0,1", "4,x"),
    ])
    def test_bad_bounds_or_res_exit_code(self, model_path, tmp_path, capsys, bounds, res):
        assert run("map", model_path, f"--bounds={bounds}", "--res", res, "--out", tmp_path / "x") == EXIT_INPUT
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _with_class(blobs_csv, tmp_path, label) -> Path:
        """A model of classes 0 and 1 of the blobs, plus their class 2 as label."""
        model_p = tmp_path / "m.json"
        assert run("train", blobs_csv, "--out", model_p, "--order", "0,1") == EXIT_OK
        rows = tmp_path / "rows.csv"
        save_csv_rows(rows, load_csv(blobs_csv).rows_of(2))
        assert run("add-class", model_p, rows, "--label", label) == EXIT_OK
        return model_p

    @pytest.mark.parametrize("label", ["-3", "65536", "70000"])
    def test_label_outside_pgm_range_exit_code(self, blobs_csv, tmp_path, capsys, label):
        model_p = self._with_class(blobs_csv, tmp_path, label)
        capsys.readouterr()
        prefix = tmp_path / "map"
        assert run("map", model_p, "--bounds=-3,9,-3,9", "--res", "4,4", "--out", prefix) == EXIT_INPUT
        assert f"labels [{label}] lie outside" in capsys.readouterr().err
        assert not list(tmp_path.glob("map_*"))

    def test_in_range_labels_write_rasters(self, blobs_csv, tmp_path):
        """Labels up to 65535 pass, and the rasters hold map_grid's cells
        as plain PGM text, maxval the largest label shown."""
        model_p = self._with_class(blobs_csv, tmp_path, "65535")
        prefix = tmp_path / "map"
        assert run("map", model_p, "--bounds=-3,9,-3,9", "--res", "7,5", "--out", prefix) == EXIT_OK
        labels, regions, _, _ = map_grid(cil.load(model_p), (-3.0, 9.0, -3.0, 9.0), (7, 5))
        assert labels.max() == 65535
        for raster, maxval, name in ((labels, 65535, "labels"), (regions, 2, "regions")):
            text = f"P2\n7 5\n{maxval}\n" + "".join(" ".join(map(str, row)) + "\n" for row in raster.tolist())
            assert (tmp_path / f"map_{name}.pgm").read_bytes() == text.encode("ascii")

    def test_wrong_dimension_exit(self, tmp_path):
        p = tmp_path / "hi_d.csv"
        save_csv(LabeledDataset(np.random.default_rng(0).normal(size=(60, 3)), np.arange(60) % 2), p)
        model_p = tmp_path / "m3.json"
        assert run("train", p, "--out", model_p) == EXIT_OK
        assert run("map", model_p, "--bounds", "0,1,0,1", "--res", "4,4",
                   "--out", tmp_path / "x") == EXIT_INPUT


class TestBenchAndGenerate:
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_bench_no_trials_exit_code(self, tmp_path, capsys, trials):
        assert run("bench", "--datasets", tmp_path, "--methods", "knn", "--trials", trials) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert f"error: need at least one trial, got {trials}" in err and "percent" not in out

    def test_generate_shapes(self, tmp_path):
        out = tmp_path / "rings.csv"
        assert run("generate", "--shape", "rings", "--n-per-class", "50",
                   "--seed", "3", "--out", out) == EXIT_OK
        ds = load_csv(out)
        assert ds.n == 100 and len(ds.class_ids) == 2

    def test_bench_skips_missing_datasets(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        # only knn on the always-available datasets; missing CSVs are skipped
        assert run("bench", "--datasets", tmp_path, "--methods", "knn",
                   "--trials", "2", "--out", out) == EXIT_OK
        captured = capsys.readouterr()
        assert "skipping seeds" in captured.err
        assert "skipping pima" in captured.err
        assert "skipping transfusion" in captured.err
        with open(out) as f:
            rows = list(csv.reader(f))
        datasets = {r[0] for r in rows[1:]}
        assert datasets == {"iris", "waveform"}
        for r in rows[1:]:
            assert r[1] == "knn"
            assert 0.0 <= float(r[2]) <= 100.0
