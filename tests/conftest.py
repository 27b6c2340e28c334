import os
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sdcil import cil
from sdcil.dataset import Scaler, fit_standardize, make_toy, stratified_split, SplitSpec
from sdcil.ocsvm import OcsvmModel
from sdcil.pairwise import CvConfig, PairwiseClassifier
from sdcil.smo import SolverConfig

# Directory holding the user-supplied benchmark CSVs (seeds.csv, pima.csv,
# transfusion.csv). Tests needing them skip when absent.
DATA_DIR = Path(os.environ.get("SDCIL_DATA_DIR", Path(__file__).parent / "data"))

# A 3-class blobs model (make_toy("blobs", 20, seed=5), train_cil defaults)
# as save() writes it in format version 2.
V2_MODEL = Path(__file__).parent / "fixtures" / "blobs3_v2.json"


def fast_config(nu: float = 0.2) -> cil.CilConfig:
    """Small grids so unit tests stay quick; contracts don't depend on them."""
    return cil.CilConfig(
        nu_default=nu,
        width_count=12,
        cv=CvConfig(folds=3, cost_grid=(0.5, 8.0, 64.0), width_count=4),
        solver=SolverConfig(),
    )


def train_cil(train_ds, nu=0.2, config=None, order=None):
    scaler, _ = fit_standardize(train_ds)
    model = cil.new_model(config or fast_config(nu), scaler)
    for label in order or train_ds.class_ids:
        model = cil.add_class(model, label, train_ds.rows_of(label), nu)
    return model


def random_registry(rng, k: int, d: int) -> cil.CilModel:
    """k classes with random SVs, registered in random label order, and a
    pair per class pair with one coefficient per SV of its two classes."""
    labels = [int(v) for v in rng.choice(50, size=k, replace=False)]
    classes = []
    for label in labels:
        m = int(rng.integers(1, 9))
        alphas = rng.uniform(0.1, 1.0, m)
        classes.append(OcsvmModel(
            class_label=label,
            support_vectors=rng.normal(size=(m, d)) + 2.0 * rng.normal(size=d),
            sv_alphas=alphas,
            rho=float(rng.uniform(0.05, 0.5) * alphas.sum()),
            width=float(rng.uniform(0.5, 3.0)),
            nu=0.2, train_count=5 * m, converged=True,
        ))
    sizes = {m.class_label: m.m for m in classes}
    pairs = {}
    for a, b in combinations(sorted(labels), 2):
        pairs[(a, b)] = PairwiseClassifier(
            label_a=a, label_b=b,
            coeffs=rng.uniform(-1.0, 1.0, sizes[a] + sizes[b]), bias=float(rng.uniform(-0.3, 0.3)),
            width=float(rng.uniform(0.5, 3.0)), cost=1.0, cv_accuracy=1.0, train_accuracy=1.0,
            converged=True,
        )
    scaler = Scaler(mean=rng.normal(size=d), std=rng.uniform(0.5, 2.0, d))
    return cil.CilModel(config=fast_config(), scaler=scaler, classes=tuple(classes), pair_table=pairs)


@pytest.fixture(scope="session")
def blob_model_and_split():
    ds = make_toy("blobs", 100, seed=42)
    train, test = stratified_split(ds, SplitSpec(0.7, seed=0))
    return train_cil(train), train, test


@pytest.fixture(scope="session")
def rings_model_and_split():
    ds = make_toy("rings", 150, seed=42)
    train, test = stratified_split(ds, SplitSpec(0.7, seed=0))
    return train_cil(train), train, test
