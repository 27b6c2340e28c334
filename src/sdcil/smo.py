"""Sequential pairwise coordinate optimization for the two SVM duals.

Both duals are one problem (Chang & Lin, LIBSVM, ACM TIST 2011), solved by
maximal-KKT-violating-pair working-set selection from a feasible start:

  min 1/2 a'Qa + p'a   s.t. y'a = Delta,  0 <= a_i <= C,  Q_ij = y_i y_j K_ij

  one-class:  y = 1, p = 0,  Delta = 1, C = 1/(nu*l)
  binary:     p = -e, Delta = 0

The one-class objective is the negated form of the usual maximization of
-1/2 a'Ka; the optimizer and constraints are identical. Each entry point
supplies its validation, start point and the sign of its offset.
The binary dual takes an optional start point (alpha seeding, DeCoste &
Wagstaff, KDD 2000): any feasible a, such as the solution of the same
problem at a smaller C, which stays feasible as the box grows. The gradient
is recomputed from it, and a zero start gives exactly the cold solve.

Both entry points take the kernel matrix as a plain array. A solve's state
is the KKT vector r = -y*G of the gradient G = Qa + p: an entry point
computes r from its start point, the loop picks its pairs from r and
updates it in place, and the offset is read from r.

The loop runs in C: _smo_loop.c, called through ctypes. It makes the picks
of _reference_smo, the loop as first merged, with the same float64
operations in the same order, so both loops give byte-equal alphas, KKT
vectors, iteration counts and violations. It is compiled on the first
solve, never on import, with `cc -O2 -ffp-contract=off -fPIC -shared` (or
$CC): no -ffast-math, no -march=native and no fused multiply-add, each of
which would change the rounding. The library is cached in
$XDG_CACHE_HOME/sdcil or ~/.cache/sdcil, named by the sha256 of the source
and the flags, and written atomically; a cached file that does not load is
rebuilt. When neither directory can hold it, it is built in a private
temporary directory, removed once the library is loaded. With no compiler,
a failed build or a library that will not load, _reference_smo runs
instead: the same models, several times slower.

Each iteration of _reference_smo rebuilds the I_up and I_low penalties,
picks with an argmax and an argmin, and updates r from the columns K_i and
K_j. An iteration of the C loop makes one pass over the n entries: the pass
that applies a step to r, from the rows K_i and K_j (so K must be exactly
symmetric, as kernels.gram builds it), also finds the next pair, so only
the first pick scans r on its own.

An iteration of the C loop costs well under a microsecond on the small pair
cross-validation problems, which take some 20 iterations each, so a binary
solve there costs mostly what it pays once: its checks, the start's KKT
vector, the ctypes call and the offset. Each takes a few numpy calls. The labels are checked as one Python set. A start's min and
max carry its NaN and Inf check. A zero start's KKT vector is y itself, as
its gradient is exactly -1 (K must be finite). One scratch array holds the
C loop's penalty vectors and its violation, and _bias reduces through
ndarray methods, bit for bit as tests/oracles.py::reference_bias.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Alphas within this margin of a bound count as bound-active when recovering
# the offset; well below 1/(nu*l) for any dataset in scope.
BOUND_MARGIN = 1e-8

# Floor for the curvature term K_ii + K_jj - 2 K_ij of a working pair.
_CURVATURE_FLOOR = 1e-12

# The C loop's source and its compiler flags; both name the cached library.
_LOOP_SOURCE = Path(__file__).with_name("_smo_loop.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120.0

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
        if not 0.0 < self.kkt_tolerance < math.inf:
            raise ValueError(f"kkt_tolerance must be positive and finite, got {self.kkt_tolerance}")
        if self.max_passes is not None and self.max_passes < 1:
            raise ValueError(f"max_passes must be None or >= 1, got {self.max_passes}")

    def resolve_max_passes(self, n: int) -> int:
        if self.max_passes is not None:
            return int(self.max_passes)
        return max(10 * n, 10000)


@dataclass(frozen=True)
class DualSolution:
    """Result of one dual solve."""

    alphas: np.ndarray
    offset: float  # rho for the one-class dual, bias b for the binary dual
    iterations: int
    converged: bool
    kkt_violation: float


def _smo(
    Kv: np.ndarray, y: np.ndarray, C: float, alpha: np.ndarray, r: np.ndarray, cfg: SolverConfig
) -> tuple[int, float]:
    """Minimize from the feasible point alpha, whose KKT vector is r = -y*G,
    with the C loop, or with _reference_smo when the C loop cannot be built
    or loaded. Both have _reference_smo's contract and give the same bytes."""
    loop = _compiled_loop()
    if loop is None:
        return _reference_smo(Kv, y, C, alpha, r, cfg)
    return _compiled_smo(loop, Kv, y, C, alpha, r, cfg)


def _reference_smo(
    Kv: np.ndarray, y: np.ndarray, C: float, alpha: np.ndarray, r: np.ndarray, cfg: SolverConfig
) -> tuple[int, float]:
    """Minimize from the feasible point alpha, whose KKT vector is r = -y*G,
    with the SMO loop as first merged.

    alpha and r are updated in place. Returns the iteration count and the
    final KKT violation: max of r over I_up minus min of r over I_low. Each
    set is a penalty added to r: -0.0 for a member (r + -0.0 is r bit for
    bit) and an infinity otherwise, so a NaN in r is picked first.
    """
    pos = y > 0
    max_iter = cfg.resolve_max_passes(y.shape[0])
    it = 0
    violation = np.inf
    while it < max_iter:
        can_inc = alpha < C - BOUND_MARGIN
        can_dec = alpha > BOUND_MARGIN
        ri = r + np.where(np.where(pos, can_inc, can_dec), -0.0, -np.inf)  # I_up
        rj = r + np.where(np.where(pos, can_dec, can_inc), -0.0, np.inf)  # I_low
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
    return it, violation


def _compiled_smo(
    loop, Kv: np.ndarray, y: np.ndarray, C: float, alpha: np.ndarray, r: np.ndarray, cfg: SolverConfig
) -> tuple[int, float]:
    """_reference_smo's contract through the C loop from _compiled_loop.

    The loop reads raw addresses, so Kv, y, alpha and r are copied unless
    they are C-contiguous float64 already, and alpha and r are written back
    in place. One scratch array holds the loop's I_up and I_low penalties and
    then its final violation."""
    n = y.shape[0]
    K = np.ascontiguousarray(Kv, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    a = np.ascontiguousarray(alpha, dtype=np.float64)
    rc = np.ascontiguousarray(r, dtype=np.float64)
    if n == 0 or K.shape != (n, n) or a.shape != (n,) or rc.shape != (n,):
        raise ValueError(f"need n >= 1, an n x n Gram matrix and n-vectors; got {K.shape}, {a.shape}, {rc.shape}")
    scratch = np.empty(2 * n + 1)
    at = _address(scratch)
    it = loop(
        _address(K), _address(y), _address(a), _address(rc), at, at + 8 * n,
        n, float(C), cfg.resolve_max_passes(n), cfg.kkt_tolerance, BOUND_MARGIN, _CURVATURE_FLOOR,
        at + 16 * n,
    )
    if a is not alpha:
        alpha[:] = a
    if rc is not r:
        r[:] = rc
    return it, scratch.item(2 * n)


def _address(x: np.ndarray) -> int:
    """The address of the C-contiguous array x's data. ctypes' from_buffer
    takes about a third of the time of x.ctypes.data, but only a writable
    array exports its buffer to it."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(x))
    except TypeError:
        return x.ctypes.data


@functools.cache
def _compiled_loop():
    """The C loop's entry point, built on the first call; None when there is
    no compiler, the build fails or the library will not load.

    The library is kept in the cache directory, and a cached file that will
    not load is rebuilt. Without a usable cache directory it is built in a
    private temporary directory, removed once the library is loaded."""
    try:
        name = _library_name(_LOOP_SOURCE.read_bytes())
    except OSError:
        return None
    cache = _cache_dir()
    if cache is not None:
        path = cache / name
        loop = _load(path) if path.exists() else None
        if loop is None and _build(path):
            loop = _load(path)
        if loop is not None:
            return loop
    with tempfile.TemporaryDirectory(prefix="sdcil-") as tmp:
        path = Path(tmp) / name
        return _load(path) if _build(path) else None


def _library_name(source: bytes) -> str:
    """The cached library's file name: the sha256 of the source and flags."""
    return f"smo_loop-{hashlib.sha256(source + ' '.join(_CFLAGS).encode()).hexdigest()}.so"


def _cache_dir() -> Path | None:
    """$XDG_CACHE_HOME/sdcil or ~/.cache/sdcil, created if need be; None when
    neither is an absolute path or the directory cannot be made."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "sdcil"
    if not path.is_absolute():
        return None
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path


def _build(path: Path) -> bool:
    """Compile the C loop into path, atomically: the compiler writes a
    temporary file beside it, which os.replace moves into place."""
    try:
        fd, tmp = tempfile.mkstemp(prefix=".build-", dir=path.parent)
        os.close(fd)
    except OSError:
        return False
    try:
        cmd = [*shlex.split(os.environ.get("CC") or "cc"), *_CFLAGS, "-o", tmp, str(_LOOP_SOURCE)]
        subprocess.run(
            cmd, check=True, timeout=_BUILD_TIMEOUT_S,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        os.replace(tmp, path)
        return True
    except (OSError, ValueError, subprocess.SubprocessError):
        return False
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _load(path: Path):
    """The sdcil_smo function of the library at path, or None when it will
    not load."""
    try:
        loop = ctypes.CDLL(str(path)).sdcil_smo
    except (OSError, AttributeError):
        return None
    pointer, double, long = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
    loop.argtypes = [pointer] * 6 + [long, double, long, double, double, double, pointer]
    loop.restype = long
    return loop


def _bias(y: np.ndarray, C: float, alpha: np.ndarray, r: np.ndarray) -> float:
    """Bias b from the value r = -y*G that each point's KKT condition
    suggests: the mean over unbounded support vectors, else the midpoint of
    the KKT bracket over bound-active points (one-sided if a side is empty).

    The mean is np.mean's: one pairwise sum, then a divide by the count."""
    at_zero = alpha <= BOUND_MARGIN
    at_c = alpha >= C - BOUND_MARGIN
    free = r[~(at_zero | at_c)]
    if free.size:
        return float(free.sum() / free.size)
    pos = y > 0
    neg = ~pos
    lower = r[(at_zero & pos) | (at_c & neg)]  # b >= r there
    upper = r[(at_zero & neg) | (at_c & pos)]  # b <= r there
    if lower.size and upper.size:
        return 0.5 * (float(lower.max()) + float(upper.min()))
    if lower.size:
        return float(lower.max())
    if upper.size:
        return float(upper.min())
    raise RuntimeError("cannot recover offset: no active constraints at all")


def _square(K: np.ndarray) -> None:
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {K.shape}")


def solve_ocsvm_dual(K: np.ndarray, nu: float, cfg: SolverConfig) -> DualSolution:
    """Solve the one-class dual over the Gram matrix K (square, exactly symmetric).

    The start point puts equal mass on ceil(nu*l) points chosen in seeded
    order (the projection of the uniform-1/l assignment onto the feasible
    set). rho is the negated bias of the general form: the mean of K@a over
    unbounded support vectors, falling back to the midpoint of the KKT
    bracket formed by the bound-active points.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    _square(K)
    l = K.shape[0]
    if nu * l < 1.0:
        raise ValueError(f"infeasible: nu * l = {nu * l:.3g} < 1")
    C = 1.0 / (nu * l)

    order = np.random.default_rng(cfg.seed).permutation(l)
    m = int(np.ceil(nu * l))
    alpha = np.zeros(l)
    alpha[order[:m]] = 1.0 / m
    y = np.ones(l)
    r = -y * (K @ alpha)
    it, violation = _smo(K, y, C, alpha, r, cfg)
    return DualSolution(
        alphas=alpha,
        offset=-_bias(y, C, alpha, r),
        iterations=it,
        converged=violation <= cfg.kkt_tolerance,
        kkt_violation=max(violation, 0.0),
    )


def solve_binary_dual(
    K: np.ndarray, y: np.ndarray, C: float, cfg: SolverConfig, start: np.ndarray | None = None
) -> DualSolution:
    """Solve the soft-margin binary dual over the Gram matrix K (square, exactly
    symmetric).

    y must contain both +1 and -1. The solve starts from start, or from a = 0
    when none is given. A start must be feasible: n finite values in [0, C]
    with y'a = 0, both up to a relative BOX_SLACK, as the alphas of a solve
    of the same problem at any cost <= C are; ValueError otherwise. The
    gradient y*(K(a*y)) - 1 is recomputed from it, which for a = 0 and a
    finite K is exactly -1, so a zero start and no start give the same
    bytes; no start skips the product. The bias is
    recovered like rho: mean of y_t - f_t over unbounded support vectors,
    else the KKT-bracket midpoint over bound-active points.
    """
    _square(K)
    y = np.asarray(y, dtype=float).ravel()
    n = K.shape[0]
    if y.shape[0] != n:
        raise ValueError("label vector length must match Gram size")
    if set(y.tolist()) != {-1.0, 1.0}:
        raise ValueError("labels must be in {-1,+1} with both classes present")
    if not 0.0 < C < math.inf:  # NaN fails both comparisons
        raise ValueError("C must be finite" if C > 0.0 else "C must be positive")

    if start is None:
        alpha = np.zeros(n)
        r = y.copy()  # -y * (y * (K @ 0) - 1), as the gradient at a = 0 is exactly -1
    else:
        alpha = np.array(start, dtype=float)
        if alpha.shape != (n,):
            raise ValueError(f"start must hold {n} values, got shape {alpha.shape}")
        # min and max carry any NaN, and an infinity is one of them
        lo, hi = alpha.min(), alpha.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("start contains NaN or Inf values")
        if lo < 0.0 or hi > C * (1.0 + BOX_SLACK):
            raise ValueError(f"start leaves the box [0, C={C}]")
        if abs(float(y @ alpha)) > BOX_SLACK * float(alpha.sum()):
            raise ValueError("start violates y'a = 0")
        r = -y * (y * (K @ (alpha * y)) - 1.0)
    it, violation = _smo(K, y, C, alpha, r, cfg)
    return DualSolution(
        alphas=alpha,
        offset=_bias(y, C, alpha, r),
        iterations=it,
        converged=violation <= cfg.kkt_tolerance,
        kkt_violation=max(violation, 0.0),
    )
