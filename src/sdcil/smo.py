"""Sequential pairwise coordinate optimization for the two SVM duals.

Both duals are one problem (Chang & Lin, LIBSVM, ACM TIST 2011), solved by
maximal-KKT-violating-pair working-set selection from a feasible start:

  min 1/2 a'Qa + p'a   s.t. y'a = Delta,  0 <= a_i <= C,  Q_ij = y_i y_j K_ij

  one-class:  y = 1, p = 0,  Delta = 1, C = 1/(nu*l)
  binary:     p = -e, Delta = 0

The one-class objective is the negated form of the usual maximization of
-1/2 a'Ka; the optimizer and constraints are identical. Each entry point
supplies its validation, start point, objective and the sign of its offset.
The binary dual takes an optional start point (alpha seeding, DeCoste &
Wagstaff, KDD 2000): any feasible a, such as the solution of the same
problem at a smaller C, which stays feasible as the box grows. The gradient
is recomputed from it, and a zero start gives exactly the cold solve.

One iteration of the shared loop costs a few numpy calls. The index sets
I_up and I_low are built once, as penalty vectors added to the gradient
term, and a step updates only the two entries it moved. The gradient update
reads the contiguous rows K_i and K_j rather than the strided columns, so K
must be exactly symmetric; kernels.gram builds it so.
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

# Relative slack on the dual box and on y'a for a point the solver produced:
# its last step may round an alpha an ulp or so past a bound, and its steps
# drift y'a at the rounding level.
BOX_SLACK = 1e-9


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

    Kv must be exactly symmetric: the gradient update reads rows of Kv where
    the update formula has columns. alpha and G are updated in place. Returns
    the iteration count and the final KKT violation: max of r = -y*G over
    I_up minus min of r over I_low. The loop keeps r rather than G; as y is
    +-1, r -= t*(K_i - K_j) rounds exactly like G += y*(t*(K_i - K_j))
    followed by r = -y*G.

    I_up and I_low are kept as penalty vectors added to r: -0.0 (the exact
    additive identity, so r + -0.0 is r bit for bit) for a member and an
    infinity otherwise. A step moves only alpha_i and alpha_j, so only those
    two entries of each penalty change. The scalar work runs on Python
    floats, which round like numpy's float64.
    """
    C = float(C)
    hi = C - BOUND_MARGIN
    pos = y > 0
    can_inc = alpha < hi
    can_dec = alpha > BOUND_MARGIN
    up = np.where(np.where(pos, can_inc, can_dec), -0.0, -np.inf)  # I_up
    low = np.where(np.where(pos, can_dec, can_inc), -0.0, np.inf)  # I_low
    r = -y * G
    ri, rj, step = np.empty_like(r), np.empty_like(r), np.empty_like(r)
    a, ys, diag = alpha.tolist(), y.tolist(), Kv.diagonal().tolist()
    tol = cfg.kkt_tolerance
    max_iter = cfg.resolve_max_passes(y.shape[0])
    it = 0
    violation = np.inf
    while it < max_iter:
        np.add(r, up, out=ri)
        np.add(r, low, out=rj)
        i = int(ri.argmax())
        j = int(rj.argmin())
        violation = ri.item(i) - rj.item(j)
        if violation <= tol:
            break
        eta = max(diag[i] + diag[j] - 2.0 * Kv.item(i, j), _CURVATURE_FLOOR)
        # move along u = y_i e_i - y_j e_j, which keeps y'a fixed
        yi, yj, ai, aj = ys[i], ys[j], a[i], a[j]
        room_i = C - ai if yi > 0 else ai
        room_j = aj if yj > 0 else C - aj
        t = min(violation / eta, room_i, room_j)
        ai += yi * t
        aj -= yj * t
        if t == room_i:
            ai = C if yi > 0 else 0.0
        if t == room_j:
            aj = 0.0 if yj > 0 else C
        a[i], a[j] = ai, aj
        for k, ak, yk in ((i, ai, yi), (j, aj, yj)):
            inc, dec = ak < hi, ak > BOUND_MARGIN
            up[k] = -0.0 if (inc if yk > 0 else dec) else -np.inf
            low[k] = -0.0 if (dec if yk > 0 else inc) else np.inf
        np.subtract(Kv[i], Kv[j], out=step)
        step *= t
        r -= step
        it += 1
    alpha[:] = a
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


def _square(K: GramMatrix) -> np.ndarray:
    Kv = K.values
    if Kv.ndim != 2 or Kv.shape[0] != Kv.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {Kv.shape}")
    return Kv


def solve_ocsvm_dual(K: GramMatrix, nu: float, cfg: SolverConfig) -> DualSolution:
    """Solve the one-class dual over the Gram matrix K (square, exactly symmetric).

    The start point puts equal mass on ceil(nu*l) points chosen in seeded
    order (the projection of the uniform-1/l assignment onto the feasible
    set). rho is the negated bias of the general form: the mean of K@a over
    unbounded support vectors, falling back to the midpoint of the KKT
    bracket formed by the bound-active points.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    Kv = _square(K)
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


def solve_binary_dual(
    K: GramMatrix, y: np.ndarray, C: float, cfg: SolverConfig, start: np.ndarray | None = None
) -> DualSolution:
    """Solve the soft-margin binary dual over the Gram matrix K (square, exactly
    symmetric).

    y must contain both +1 and -1. The solve starts from start, or from a = 0
    when none is given. A start must be feasible: n finite values in [0, C]
    with y'a = 0, both up to a relative BOX_SLACK, as the alphas of a solve
    of the same problem at any cost <= C are; ValueError otherwise. The
    gradient y*(K(a*y)) - 1 is recomputed from it, which for a = 0 is
    exactly -1, so a zero start and no start give the same bytes. The bias is
    recovered like rho: mean of y_t - f_t over unbounded support vectors,
    else the KKT-bracket midpoint over bound-active points.
    """
    Kv = _square(K)
    y = np.asarray(y, dtype=float).ravel()
    n = Kv.shape[0]
    if y.shape[0] != n:
        raise ValueError("label vector length must match Gram size")
    if not (np.all(np.abs(y) == 1.0) and np.any(y > 0) and np.any(y < 0)):
        raise ValueError("labels must be in {-1,+1} with both classes present")
    if C <= 0:
        raise ValueError("C must be positive")

    alpha = np.zeros(n) if start is None else np.array(start, dtype=float)
    if alpha.shape != (n,):
        raise ValueError(f"start must hold {n} values, got shape {alpha.shape}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("start contains NaN or Inf values")
    if alpha.min() < 0.0 or alpha.max() > C * (1.0 + BOX_SLACK):
        raise ValueError(f"start leaves the box [0, C={C}]")
    if abs(float(y @ alpha)) > BOX_SLACK * float(alpha.sum()):
        raise ValueError("start violates y'a = 0")
    G = y * (Kv @ (alpha * y)) - 1.0
    it, violation = _smo(Kv, y, C, alpha, G, cfg)
    return DualSolution(
        alphas=alpha,
        offset=_bias(y, C, alpha, G),
        objective=0.5 * float(alpha @ G) - 0.5 * float(np.sum(alpha)),
        iterations=it,
        converged=violation <= cfg.kkt_tolerance,
        kkt_violation=max(violation, 0.0),
    )
