"""Per-class one-class SVM: the model built from a dual solution.

A trained model keeps only the rows with nonzero dual coefficients (the
support vectors); everything needed at predict time is (SVs, alphas, rho,
width), and its decision value at x is sum_i alpha_i k(sv_i, x) - rho.
Training (geometry.select_width) and prediction (cil) live with their
callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelWidth
from .smo import DualSolution

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
    converged: bool  # whether the chosen width's solve met the KKT tolerance

    @property
    def m(self) -> int:
        return self.support_vectors.shape[0]

    @property
    def d(self) -> int:
        return self.support_vectors.shape[1]


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

