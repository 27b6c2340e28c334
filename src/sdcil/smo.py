"""Sequential pairwise coordinate optimization for the two SVM duals.

Both duals are one problem (Chang & Lin, LIBSVM, ACM TIST 2011), solved by
maximal-KKT-violating-pair working-set selection from a feasible start:

  min 1/2 a'Qa + p'a   s.t. y'a = Delta,  0 <= a_i <= C,  Q_ij = y_i y_j K_ij

  one-class:  y = 1, p = 0,  Delta = 1, C = 1/(nu*l)
  binary:     p = -e, Delta = 0

The one-class objective is the negated form of the usual maximization of
-1/2 a'Ka; the optimizer and constraints are identical. Each entry point
supplies its validation, start point, objective and the sign of its offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix

# Alphas within this margin of a bound count as bound-active when recovering
# the offset; well below 1/(nu*l) for any dataset in scope.
BOUND_MARGIN = 1e-8

# Floor for the curvature term K_ii + K_jj - 2 K_ij of a working pair.
_CURVATURE_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and determinism knobs for one dual solve."""

    kkt_tolerance: float = 1e-3
    max_passes: int | None = None  # None -> max(10 * n, 10000)
    seed: int = 0

    def __post_init__(self):
        if self.kkt_tolerance <= 0:
            raise ValueError("kkt_tolerance must be positive")

    def resolve_max_passes(self, n: int) -> int:
        if self.max_passes is not None:
            return int(self.max_passes)
        return max(10 * n, 10000)


@dataclass(frozen=True)
class DualSolution:
    """Result of one dual solve."""

    alphas: np.ndarray
    offset: float  # rho for the one-class dual, bias b for the binary dual
    objective: float
    iterations: int
    converged: bool
    kkt_violation: float


def _smo(
    Kv: np.ndarray, y: np.ndarray, C: float, alpha: np.ndarray, G: np.ndarray, cfg: SolverConfig
) -> tuple[int, float]:
    """Minimize from the feasible point alpha, whose gradient is G = Q alpha + p.

    alpha and G are updated in place. Returns the iteration count and the
    final KKT violation: max of r = -y*G over I_up minus min of r over I_low.
    The loop keeps r rather than G; as y is +-1, r -= t*(K_i - K_j) rounds
    exactly like G += y*(t*(K_i - K_j)) followed by r = -y*G.
    """
    pos = y > 0
    r = -y * G
    max_iter = cfg.resolve_max_passes(y.shape[0])
    it = 0
    violation = np.inf
    while it < max_iter:
        can_inc = alpha < C - BOUND_MARGIN
        can_dec = alpha > BOUND_MARGIN
        ri = np.where(np.where(pos, can_inc, can_dec), r, -np.inf)  # I_up
        rj = np.where(np.where(pos, can_dec, can_inc), r, np.inf)  # I_low
        i = int(np.argmax(ri))
        j = int(np.argmin(rj))
        violation = float(ri[i] - rj[j])
        if violation <= cfg.kkt_tolerance:
            break
        eta = max(Kv[i, i] + Kv[j, j] - 2.0 * Kv[i, j], _CURVATURE_FLOOR)
        # move along u = y_i e_i - y_j e_j, which keeps y'a fixed
        yi, yj = y[i], y[j]
        room_i = C - alpha[i] if yi > 0 else alpha[i]
        room_j = alpha[j] if yj > 0 else C - alpha[j]
        t = min(violation / eta, room_i, room_j)
        alpha[i] += yi * t
        alpha[j] -= yj * t
        if t == room_i:
            alpha[i] = C if yi > 0 else 0.0
        if t == room_j:
            alpha[j] = 0.0 if yj > 0 else C
        r -= t * (Kv[:, i] - Kv[:, j])
        it += 1
    G[:] = -y * r
    return it, violation


def _bias(y: np.ndarray, C: float, alpha: np.ndarray, G: np.ndarray) -> float:
    """Bias b from the value -y*G that each point's KKT condition suggests:
    the mean over unbounded support vectors, else the midpoint of the KKT
    bracket over bound-active points (one-sided if a side is empty)."""
    r = -y * G
    at_zero = alpha <= BOUND_MARGIN
    at_c = alpha >= C - BOUND_MARGIN
    unbounded = ~at_zero & ~at_c
    if np.any(unbounded):
        return float(np.mean(r[unbounded]))
    pos = y > 0
    lower = r[(at_zero & pos) | (at_c & ~pos)]  # b >= r there
    upper = r[(at_zero & ~pos) | (at_c & pos)]  # b <= r there
    if lower.size and upper.size:
        return 0.5 * (float(np.max(lower)) + float(np.min(upper)))
    if lower.size:
        return float(np.max(lower))
    if upper.size:
        return float(np.min(upper))
    raise RuntimeError("cannot recover offset: no active constraints at all")


def solve_ocsvm_dual(K: GramMatrix, nu: float, cfg: SolverConfig) -> DualSolution:
    """Solve the one-class dual over the Gram matrix K.

    The start point puts equal mass on ceil(nu*l) points chosen in seeded
    order (the projection of the uniform-1/l assignment onto the feasible
    set). rho is the negated bias of the general form: the mean of K@a over
    unbounded support vectors, falling back to the midpoint of the KKT
    bracket formed by the bound-active points.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    Kv = K.values
    l = Kv.shape[0]
    if nu * l < 1.0:
        raise ValueError(f"infeasible: nu * l = {nu * l:.3g} < 1")
    C = 1.0 / (nu * l)

    order = np.random.default_rng(cfg.seed).permutation(l)
    m = int(np.ceil(nu * l))
    alpha = np.zeros(l)
    alpha[order[:m]] = 1.0 / m
    G = Kv @ alpha
    y = np.ones(l)
    it, violation = _smo(Kv, y, C, alpha, G, cfg)
    return DualSolution(
        alphas=alpha,
        offset=-_bias(y, C, alpha, G),
        objective=0.5 * float(alpha @ G),
        iterations=it,
        converged=violation <= cfg.kkt_tolerance,
        kkt_violation=max(violation, 0.0),
    )


def solve_binary_dual(K: GramMatrix, y: np.ndarray, C: float, cfg: SolverConfig) -> DualSolution:
    """Solve the soft-margin binary dual over the Gram matrix K.

    y must contain both +1 and -1. The solve starts from a = 0, and the bias
    is recovered like rho: mean of y_t - f_t over unbounded support vectors,
    else the KKT-bracket midpoint over bound-active points.
    """
    Kv = K.values
    y = np.asarray(y, dtype=float).ravel()
    n = Kv.shape[0]
    if y.shape[0] != n:
        raise ValueError("label vector length must match Gram size")
    if not (np.all(np.abs(y) == 1.0) and np.any(y > 0) and np.any(y < 0)):
        raise ValueError("labels must be in {-1,+1} with both classes present")
    if C <= 0:
        raise ValueError("C must be positive")

    alpha = np.zeros(n)
    G = -np.ones(n)
    it, violation = _smo(Kv, y, C, alpha, G, cfg)
    return DualSolution(
        alphas=alpha,
        offset=_bias(y, C, alpha, G),
        objective=0.5 * float(alpha @ G) - 0.5 * float(np.sum(alpha)),
        iterations=it,
        converged=violation <= cfg.kkt_tolerance,
        kkt_violation=max(violation, 0.0),
    )
