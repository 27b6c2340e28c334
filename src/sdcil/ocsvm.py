"""Per-class one-class SVM: training and decision values.

A trained model keeps only the rows with nonzero dual coefficients (the
support vectors); everything needed at predict time is (SVs, alphas, rho,
width). The SVs' squared norms are derived from them when a model is built
and kept beside them for the distance computation; they are not saved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelWidth, check_width, gram, kernel_from_sqdist, squared_distances, squared_norms
from .smo import DualSolution, SolverConfig, solve_ocsvm_dual

# Dual coefficients at or below this are treated as zero and dropped.
SV_THRESHOLD = 1e-8

# Empirically sensible range for nu; values outside it are legal but warned.
NU_SOFT_RANGE = (0.1, 0.4)


@dataclass(frozen=True)
class OcsvmModel:
    class_label: int
    support_vectors: np.ndarray  # m x d
    sv_alphas: np.ndarray  # m
    rho: float
    width: KernelWidth
    nu: float
    train_count: int
    converged: bool | None  # None when unknown (a version-1 file)
    # squared_norms(support_vectors), derived whenever a model is built
    sv_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sv_sq_norms", squared_norms(self.support_vectors))

    @property
    def m(self) -> int:
        return self.support_vectors.shape[0]

    @property
    def d(self) -> int:
        return self.support_vectors.shape[1]


def train_ocsvm(
    X_class: np.ndarray,
    nu: float,
    s: KernelWidth,
    cfg: SolverConfig,
    class_label: int = 0,
) -> OcsvmModel:
    """Train a one-class SVM on one class's rows at kernel width s.

    A non-converged solve still yields a model, flagged so callers can
    reject it.
    """
    X = np.asarray(X_class, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need an n x d matrix with n >= 2")
    s = check_width(s)
    if not NU_SOFT_RANGE[0] <= nu <= NU_SOFT_RANGE[1]:
        warnings.warn(
            f"nu={nu} outside the usual [{NU_SOFT_RANGE[0]}, {NU_SOFT_RANGE[1]}] range",
            stacklevel=2,
        )
    sol = solve_ocsvm_dual(gram(X, s), nu, cfg)
    return model_from_solution(X, nu, s, sol, class_label)


def model_from_solution(
    X: np.ndarray, nu: float, s: KernelWidth, sol: DualSolution, class_label: int = 0
) -> OcsvmModel:
    """Build the retained-SV model from a dual solution over X."""
    keep = sol.alphas > SV_THRESHOLD
    if not keep.any():
        raise RuntimeError("no support vectors retained; solver produced a zero solution")
    return OcsvmModel(
        class_label=int(class_label),
        support_vectors=X[keep],
        sv_alphas=sol.alphas[keep],
        rho=float(sol.offset),
        width=float(s),
        nu=float(nu),
        train_count=int(X.shape[0]),
        converged=bool(sol.converged),
    )


def decision_values(model: OcsvmModel, X: np.ndarray) -> np.ndarray:
    """Sum of alpha_i * k(sv_i, x) minus rho, for each row x of X.

    Positive means inside the learned support."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.d:
        raise ValueError(f"dimension mismatch: model expects d={model.d}, got {X.shape[1]}")
    d2 = squared_distances(X, model.support_vectors, yy=model.sv_sq_norms)
    return kernel_from_sqdist(d2, model.width) @ model.sv_alphas - model.rho
