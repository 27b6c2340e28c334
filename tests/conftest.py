import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sdcil import cil
from sdcil.dataset import fit_standardize, make_toy, stratified_split, SplitSpec
from sdcil.pairwise import CvConfig
from sdcil.smo import SolverConfig

# Directory holding the user-supplied benchmark CSVs (seeds.csv, pima.csv,
# transfusion.csv). Tests needing them skip when absent.
DATA_DIR = Path(os.environ.get("SDCIL_DATA_DIR", Path(__file__).parent / "data"))

# A 3-class blobs model (make_toy("blobs", 20, seed=5), train_cil defaults)
# written by the format-version-1 save() of commit 36d90a1, which stored
# every pair's vectors beside its classes' support vectors.
V1_MODEL = Path(__file__).parent / "fixtures" / "blobs3_v1.json"


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
