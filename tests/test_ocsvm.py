import numpy as np
import pytest

from sdcil import cil
from sdcil.geometry import beps_partition, default_k_neighbors, select_width
from sdcil.kernels import candidate_widths, gram
from sdcil.ocsvm import OcsvmModel, model_from_solution
from sdcil.smo import BOUND_MARGIN, SolverConfig, solve_ocsvm_dual

CFG = SolverConfig(kkt_tolerance=1e-5)


def train_ocsvm(X, nu, s, cfg):
    """One one-class solve at width s, built into a model as select_width
    builds its winner."""
    return model_from_solution(X, nu, s, solve_ocsvm_dual(gram(X, s), nu, cfg))


def decision_values(model, X):
    """The model's class values for the rows of X, through cil's prediction
    path on a registry of this class alone (no scaler)."""
    registry = cil.CilModel(config=cil.CilConfig(), classes=(model,))
    return np.array([d.ocsvm_values[model.class_label] for d in cil.predict_details(registry, np.atleast_2d(X))])


def disk_points(n=200, seed=0):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0, 1, n))
    t = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def unbounded_svs(model):
    hi = 1.0 / (model.nu * model.train_count)
    mask = (model.sv_alphas > BOUND_MARGIN) & (model.sv_alphas < hi - BOUND_MARGIN)
    return model.support_vectors[mask]


@pytest.fixture(scope="module")
def disk_model():
    X = disk_points()
    part = beps_partition(X, default_k_neighbors(X.shape[0]), 0.7)
    sel = select_width(X, 0.2, candidate_widths(X, 20), part, CFG)
    return sel.model, X


class TestTrainOcsvm:
    def test_two_symmetric_points(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = train_ocsvm(X, 0.5, 1.0, CFG)
        assert m.m == 2
        assert np.allclose(m.sv_alphas, [0.5, 0.5], atol=1e-9)
        assert m.converged

    def test_disk_sv_fraction_with_selected_width(self, disk_model):
        model, _ = disk_model
        assert 0.2 <= model.m / model.train_count <= 0.3

    def test_unbounded_svs_on_hyperplane(self, disk_model):
        model, _ = disk_model
        svs = unbounded_svs(model)
        assert svs.shape[0] >= 1
        assert np.all(np.abs(decision_values(model, svs)) <= 10 * CFG.kkt_tolerance)

    def test_alpha_invariants(self, disk_model):
        model, _ = disk_model
        hi = 1.0 / (model.nu * model.train_count)
        assert np.all(model.sv_alphas > 1e-8)
        assert abs(model.sv_alphas.sum() - 1.0) < 1e-8
        assert np.all(model.sv_alphas <= hi + 1e-10)

    def test_nonconverged_flag_surfaces(self):
        X = disk_points(60, seed=3)
        m = train_ocsvm(X, 0.3, 0.4, SolverConfig(kkt_tolerance=1e-12, max_passes=2))
        assert not m.converged

    def test_nu_warning_outside_usual_range(self):
        X = disk_points(30, seed=4)
        with pytest.warns(UserWarning, match="nu=0.6"):
            cil.add_class(cil.new_model(), 0, X, nu=0.6)

    def test_needs_two_rows(self):
        # a class's one-class SVM is trained by add_class, which needs 3
        # rows for the edge partition; the width grid alone needs 2
        for n in (1, 2):
            with pytest.raises(ValueError, match="at least 3"):
                cil.add_class(cil.new_model(), 0, disk_points(n), nu=1.0)
        with pytest.raises(ValueError, match="at least 2"):
            candidate_widths(np.array([[1.0, 2.0]]))


class TestDecisionValue:
    def test_far_point_approaches_minus_rho(self, disk_model):
        model, _ = disk_model
        far = np.array([1000.0, -1000.0])
        assert decision_values(model, far)[0] == pytest.approx(-model.rho, abs=1e-12)

    def test_centroid_of_blob_inside(self, disk_model):
        model, X = disk_model
        assert decision_values(model, X.mean(axis=0))[0] > 0

    def test_dimension_mismatch(self, disk_model):
        model, _ = disk_model
        with pytest.raises(ValueError, match="dimension"):
            decision_values(model, np.zeros((4, 3)))

    def test_batch_matches_single(self, disk_model):
        model, X = disk_model
        batch = decision_values(model, X[:7])
        single = [decision_values(model, x[None, :])[0] for x in X[:7]]
        assert np.allclose(batch, single, atol=1e-14)

    def test_zero_at_unbounded_sv(self, disk_model):
        model, _ = disk_model
        sv = unbounded_svs(model)[:1]
        assert abs(decision_values(model, sv)[0]) <= 10 * CFG.kkt_tolerance

    def test_centroid_deeper_than_hull_points(self, disk_model):
        model, X = disk_model
        from scipy.spatial import ConvexHull

        hull = ConvexHull(X)
        centroid_value = decision_values(model, X.mean(axis=0))[0]
        assert centroid_value > decision_values(model, X[hull.vertices]).max()


class TestPredictOne:
    """The membership rule: inside exactly when the decision value is > 0."""

    def test_point_nudged_inward_from_sv(self, disk_model):
        model, X = disk_model
        centroid = X.mean(axis=0)
        svs = unbounded_svs(model)[:3]
        steps = centroid - svs
        steps /= np.linalg.norm(steps, axis=1)[:, None]
        assert np.all(decision_values(model, svs + 0.01 * model.width * steps) > 0.0)

    def test_far_point_negative(self, disk_model):
        model, _ = disk_model
        far = np.full(2, 100.0 * model.width)
        assert decision_values(model, far)[0] < 0.0
        assert model.rho > 0

    def test_exact_zero_is_negative(self):
        # single SV with alpha=1 and rho=1: decision at the SV is exactly 0
        m = OcsvmModel(
            class_label=0,
            support_vectors=np.array([[0.0, 0.0]]),
            sv_alphas=np.array([1.0]),
            rho=1.0,
            width=1.0,
            nu=1.0,
            train_count=1,
            converged=True,
        )
        assert decision_values(m, np.zeros(2))[0] == 0.0
        # a class claims a row only on a strictly positive value
        detail = cil.predict_detail(cil.CilModel(config=cil.CilConfig(), classes=(m,)), np.zeros(2))
        assert detail.region == cil.REGION_NONE


class TestSvFraction:
    def test_two_point_model(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = train_ocsvm(X, 0.5, 1.0, CFG)
        assert m.m / m.train_count == 1.0

    @pytest.mark.parametrize("trial", range(20))
    def test_nu_property_lower_bound(self, trial):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(20, 60))
        nu = float(rng.uniform(0.1, 0.4))
        if nu * n < 1:
            nu = 1.5 / n
        X = rng.normal(size=(n, 3))
        m = train_ocsvm(X, nu, float(rng.uniform(0.5, 4.0)), CFG)
        assert m.converged
        assert m.m / m.train_count >= nu - 2.0 / n


def test_model_reconstructible_from_fields(disk_model):
    model, X = disk_model
    clone = OcsvmModel(
        class_label=model.class_label,
        support_vectors=model.support_vectors.copy(),
        sv_alphas=model.sv_alphas.copy(),
        rho=model.rho,
        width=model.width,
        nu=model.nu,
        train_count=model.train_count,
        converged=model.converged,
    )
    rng = np.random.default_rng(9)
    P = rng.uniform(-2, 2, size=(100, 2))
    assert np.max(np.abs(decision_values(clone, P) - decision_values(model, P))) < 1e-12
