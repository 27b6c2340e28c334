"""Independent reference solvers for the dual QPs, used only by tests.

Accelerated projected gradient descent (FISTA, Beck & Teboulle 2009) with
exact Euclidean projections onto the feasible sets, written without
touching the package's solver code. Step size is 1/L with L the largest
eigenvalue of the quadratic term. The momentum restarts whenever it points
uphill (O'Donoghue & Candes 2015), and is off for steps below 1e-10.
Iteration cap 10^5 with an early exit once the iterate stops moving at
floating-point resolution.

`dual_objective` evaluates a dual at the alphas a solver returns, so that
a solve is compared with an oracle by its objective.

The rest are references that package code is held to: `gaussian`, the
kernel from its definition; `class_values` and `pair_decisions`, one class
model's values and one dispute classifier's decisions, each a kernel block
times its coefficients; `reference_bias`, the package's offset recovery as
first merged; `reference_details`, its prediction path before the fused
kernel passes; `reference_batch_svm`, the batch-SVM baseline with one
stacked kernel product per pair; `reference_squared_distances`, the
distance matrix as one whole-array expression; `reference_select_width`,
the width sweep with a fresh kernel matrix per candidate and the covering
gaps read along the edge rows; and `reference_beps_partition`, the edge
partition with one loop iteration per row and the neighbours from a full
stable sort. The last two take their distances from
`reference_squared_distances`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from sdcil import cil
from sdcil.geometry import _NORMAL_EPS, BoundaryPartition, CandidateRecord, WidthSelection
from sdcil.kernels import gram_from_sqdist, kernel_divisor, squared_distances, squared_norms
from sdcil.ocsvm import SV_THRESHOLD, model_from_solution
from sdcil.smo import BOUND_MARGIN, solve_ocsvm_dual

MAX_ITERS = 100_000
# consecutive-iterate displacement below this (sup-norm) counts as a fixed
# point; steps this small cannot change the objective at 1e-6 relative
_STALL_TOL = 1e-15
_STALL_RUNS = 50
# steps smaller than this (sup-norm) take no momentum: near the optimum it
# can keep an ulp-level jitter going in coordinates of 8 and more, whose ulp
# exceeds _STALL_TOL, so that the stall exit never trips (2 of criterion 2's
# 100 instances ran to the iteration cap with momentum at every step)
_PLAIN_TOL = 1e-10


def gaussian(x: np.ndarray, y: np.ndarray, s: float) -> float:
    """Gaussian kernel between two vectors: exp(-||x-y||^2 / (2 s^2))."""
    kernel_divisor(s)  # the package's width check
    s = float(s)
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-d2 / (2.0 * s * s)))


def class_values(model, Xs: np.ndarray, xx: np.ndarray | None = None) -> np.ndarray:
    """sum_i alpha_i k(sv_i, x) - rho for each row x of Xs (scaled space);
    xx, when given, is squared_norms(Xs)."""
    Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
    d2 = squared_distances(Xs, model.support_vectors, xx=xx)
    return gram_from_sqdist(d2, model.width).values @ model.sv_alphas - model.rho


def pair_decisions(clf, d2_a: np.ndarray, d2_b: np.ndarray) -> np.ndarray:
    """A dispute classifier's decisions for rows whose squared distances to
    its two classes' vectors are d2_a and d2_b; positive favors label_a."""
    return gram_from_sqdist(np.concatenate((d2_a, d2_b), axis=1), clf.width).values @ clf.coeffs + clf.bias


def registry_pair_decisions(model, key: tuple[int, int], Xs: np.ndarray) -> np.ndarray:
    """pair_decisions of model.pair_table[key] for the rows of Xs (scaled
    space), on the support vectors of the model's two classes."""
    return pair_decisions(
        model.pair_table[key], *(squared_distances(Xs, model.class_model(lbl).support_vectors) for lbl in key)
    )


def project_capped_simplex(v: np.ndarray, cap: float, total: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {0 <= x <= cap, sum(x) = total}.

    The projection is clip(v - tau, 0, cap) for the tau solving
    g(tau) = sum_i clip(v_i - tau, 0, cap) = total; g is piecewise linear
    and decreasing, so tau sits between two of the 2n breakpoints.
    """
    v = np.asarray(v, dtype=float)
    bps = np.concatenate([v - cap, v])
    bps.sort()
    g = np.clip(v[None, :] - bps[:, None], 0.0, cap).sum(axis=1)
    # g is decreasing in tau; find the segment bracketing `total`
    idx = int(np.searchsorted(-g, -total))
    if idx == 0:
        tau = bps[0] - (total - g[0])  # slope -n below the first breakpoint
        return np.clip(v - tau, 0.0, cap)
    if idx == len(bps):
        tau = bps[-1] + g[-1] - total
        return np.clip(v - tau, 0.0, cap)
    t1, t2, g1, g2 = bps[idx - 1], bps[idx], g[idx - 1], g[idx]
    tau = t1 if g1 == g2 else t1 + (g1 - total) * (t2 - t1) / (g1 - g2)
    return np.clip(v - tau, 0.0, cap)


def project_box_hyperplane(v: np.ndarray, y: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {0 <= x <= cap, y @ x = 0} for y in {-1,+1}^n.

    The projection is clip(v - tau*y, 0, cap); h(tau) = y @ clip(...) is
    piecewise linear and decreasing, with breakpoints where coordinates
    saturate, so tau comes from interpolating the bracketing segment.
    """
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    bps = np.concatenate([(v - cap) * y, v * y])
    bps.sort()
    h = np.clip(v[None, :] - bps[:, None] * y[None, :], 0.0, cap) @ y
    idx = int(np.searchsorted(-h, 0.0))
    # h runs from +n_pos*cap down to -n_neg*cap, so the root is interior
    assert 0 < idx < len(bps), "both label signs must be present with cap > 0"
    t1, t2, h1, h2 = bps[idx - 1], bps[idx], h[idx - 1], h[idx]
    tau = t1 if h1 == h2 else t1 + h1 * (t2 - t1) / (h1 - h2)
    return np.clip(v - tau * y, 0.0, cap)


def _pgd(grad, project, x0: np.ndarray, step: float, iters: int) -> np.ndarray:
    x = project(x0)
    y, t, stall = x, 1.0, 0
    for _ in range(iters):
        x_new = project(y - step * grad(y))
        moved = float(np.max(np.abs(x_new - x)))
        if moved < _STALL_TOL:
            stall += 1
            if stall >= _STALL_RUNS:
                return x_new
        else:
            stall = 0
        if moved < _PLAIN_TOL or float((y - x_new) @ (x_new - x)) > 0.0:
            t = 1.0  # the next step is a plain one
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_next) * (x_new - x)
        x, t = x_new, t_next
    return x


def pgd_ocsvm_objective(K: np.ndarray, nu: float, iters: int = MAX_ITERS) -> float:
    """min 1/2 a'Ka over {0 <= a <= 1/(nu l), sum a = 1}."""
    K = np.asarray(K, dtype=float)
    l = K.shape[0]
    cap = 1.0 / (nu * l)
    L = float(np.linalg.eigvalsh(K)[-1])
    step = 1.0 / max(L, 1e-12)
    a = _pgd(
        grad=lambda x: K @ x,
        project=lambda x: project_capped_simplex(x, cap),
        x0=np.full(l, 1.0 / l),
        step=step,
        iters=iters,
    )
    return 0.5 * float(a @ K @ a)


def pgd_binary_objective(K: np.ndarray, y: np.ndarray, C: float, iters: int = MAX_ITERS) -> float:
    """min 1/2 a'Qa - e'a over {0 <= a <= C, y @ a = 0}, Q = yy' * K."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    Q = np.outer(y, y) * K
    L = float(np.linalg.eigvalsh(Q)[-1])
    step = 1.0 / max(L, 1e-12)
    a = _pgd(
        grad=lambda x: Q @ x - 1.0,
        project=lambda x: project_box_hyperplane(x, y, C),
        x0=np.zeros(K.shape[0]),
        step=step,
        iters=iters,
    )
    return 0.5 * float(a @ Q @ a) - float(a.sum())


def dual_objective(K: np.ndarray, alphas: np.ndarray, y: np.ndarray | None = None) -> float:
    """1/2 a'Qa + p'a at a = alphas, Q = yy' * K: the one-class dual when y
    is None (y = 1, p = 0), else the binary dual (p = -e). The solvers are
    held to the oracles above through it."""
    K = np.asarray(K, dtype=float)
    a = np.asarray(alphas, dtype=float)
    if y is None:
        return 0.5 * float(a @ K @ a)
    ay = a * np.asarray(y, dtype=float)
    return 0.5 * float(ay @ K @ ay) - float(a.sum())


def reference_bias(y, C, alpha, r):
    """The offset recovery as first merged, through np.mean, np.max and
    np.min: the mean of r over unbounded points, else the midpoint of the
    KKT bracket over bound-active points (one-sided if a side is empty).

    Pins `smo._bias` bit for bit. With C <= 2 * BOUND_MARGIN a point can be
    at both bounds, and so in both sides of the bracket.
    """
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


def reference_details(model, X, nearest_sv: bool = False) -> list:
    """cil.predict_details as computed before the fused kernel passes,
    settled row by row in Python; with nearest_sv, a dispute goes to the
    class of the nearest support vector, as in cil.ocsvm_nn_labels. Its
    labels and regions also pin cil.predict_labels and cil.ocsvm_nn_labels,
    which settle in arrays.

    Per chunk of cil._CHUNK_ROWS rows: one squared-distance block and one
    class_values computation per class; then, per set of candidate
    classes, one pair_decisions computation per dispute classifier on its
    two classes' blocks side by side, or the class of the nearest support
    vector. Pins the fused path's class values bit for bit (numpy
    multiplies a one-row block with a dot kernel and a larger one with
    gemv, so the chunks must match), and its votes, labels and regions for
    equality: the fused path sums each pair's kernel terms by segment
    instead of a dot, so a pair's decision may differ in the last bits.
    """
    X = np.asarray(X, dtype=float)
    labels, details = model.labels, []
    for start in range(0, X.shape[0], cil._CHUNK_ROWS):
        Xs = X[start:start + cil._CHUNK_ROWS]
        if model.scaler is not None:
            Xs = model.scaler.transform(Xs)
        xx = squared_norms(Xs)
        blocks = {
            m.class_label: squared_distances(Xs, m.support_vectors, xx=xx, yy=squared_norms(m.support_vectors))
            for m in model.classes
        }
        columns = [class_values(m, Xs, xx).tolist() for m in model.classes]
        rows, disputes = [], {}
        for i, row in enumerate(zip(*columns)):
            values = dict(zip(labels, row))
            positive = [lbl for lbl, v in values.items() if v > 0.0]
            region = cil.REGION_UNIQUE if len(positive) == 1 else cil.REGION_MULTI if positive else cil.REGION_NONE
            possible = tuple(sorted(positive or values))
            if len(possible) > 1:
                disputes.setdefault(possible, []).append(i)
            rows.append([possible[0], region, possible, values, {}])
        for possible, idx in disputes.items():
            d2 = {lbl: blocks[lbl][idx] for lbl in possible}
            if nearest_sv:
                dists = [np.min(d2[lbl], axis=1) for lbl in possible]
                settled = [(possible[j], {}) for j in np.argmin(dists, axis=0).tolist()]
            else:
                settled = _reference_vote(model, possible, [rows[i][3] for i in idx], d2)
            for i, (label, votes) in zip(idx, settled):
                rows[i][0], rows[i][4] = label, votes
        details += [cil.PredictionDetail(*row) for row in rows]
    return details


def _reference_vote(model, possible, values, d2):
    votes = [dict.fromkeys(possible, 0) for _ in values]
    for a, b in combinations(possible, 2):
        decision = pair_decisions(model.pair_table[(a, b)], d2[a], d2[b])
        for row_votes, winner in zip(votes, np.where(decision > 0.0, a, b).tolist()):
            row_votes[winner] += 1
    settled = []
    for row_votes, row_values in zip(votes, values):
        top = max(row_votes.values())
        tied = [lbl for lbl, v in row_votes.items() if v == top]
        if len(tied) > 1:
            best = max(row_values[lbl] for lbl in tied)
            tied = [lbl for lbl in tied if row_values[lbl] == best]
        settled.append((min(tied), row_votes))
    return settled


def reference_batch_svm(svm, X) -> np.ndarray:
    """cil.batch_svm_classify as it was while each pair kept its stacked
    training rows: one kernel product per pair over the stacked rows of
    its two classes, lower label first, then a majority vote whose ties go
    to the smallest label."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.array(sorted(svm.rows))
    votes = np.zeros((X.shape[0], labels.size), dtype=int)
    for start in range(0, X.shape[0], cil._CHUNK_ROWS):
        chunk = slice(start, start + cil._CHUNK_ROWS)
        for clf in svm.pairs.values():
            vectors = np.vstack((svm.rows[clf.label_a], svm.rows[clf.label_b]))
            decision = gram_from_sqdist(squared_distances(X[chunk], vectors), clf.width).values @ clf.coeffs + clf.bias
            votes[chunk] += np.where(decision > 0.0, clf.label_a, clf.label_b)[:, None] == labels
    return labels[np.argmax(votes, axis=1)]


def reference_squared_distances(X, Y=None, *, xx=None, yy=None) -> np.ndarray:
    """kernels.squared_distances as it was before it worked through its
    result a block of rows at a time: the whole (xx + yy) - 2P expression
    at once, clipped at 0, with a 0 diagonal when Y is omitted."""
    X = np.asarray(X, dtype=float)
    if Y is None and not (X.flags.c_contiguous or X.flags.f_contiguous):
        X = np.ascontiguousarray(X)
    Z = X if Y is None else np.asarray(Y, dtype=float)
    xx = squared_norms(X) if xx is None else xx
    yy = squared_norms(Z) if yy is None else yy
    d2 = xx[:, None] + yy[None, :] - 2.0 * (X @ Z.T)
    np.maximum(d2, 0.0, out=d2)
    if Y is None:
        np.fill_diagonal(d2, 0.0)
    return d2


def reference_select_width(X_class, nu, candidates, part, cfg, class_label=0) -> WidthSelection:
    """geometry.select_width as it was before the sweep reused one kernel
    buffer: a fresh gram_from_sqdist matrix per candidate, and each edge
    point's gap to its nearest support vector taken along the edge rows of
    an np.ix_ block. Pins the sweep's records, choice and model exactly."""
    X = np.asarray(X_class, dtype=float)
    d2 = reference_squared_distances(X)
    edge_mask = np.zeros(X.shape[0], dtype=bool)
    edge_mask[part.edge_indices] = True
    records, solutions = [], []
    for s in sorted(float(s) for s in candidates):
        sol = solve_ocsvm_dual(gram_from_sqdist(d2, s).values, nu, cfg)
        solutions.append(sol)
        if not sol.converged:
            nan = float("nan")
            records.append(CandidateRecord(s, False, nan, nan, nan, False))
            continue
        keep = sol.alphas > SV_THRESHOLD
        frac = int(np.count_nonzero(keep)) / X.shape[0]
        score = float(np.mean(~edge_mask[keep]))
        gaps2 = d2[np.ix_(part.edge_indices, np.nonzero(keep)[0])]
        covering = float(np.sqrt(np.max(np.min(gaps2, axis=1)))) if part.edge_indices.size else 0.0
        records.append(CandidateRecord(s, True, frac, score, covering, nu <= frac <= 1.5 * nu))
    if not any(r.converged for r in records):
        raise RuntimeError("no candidate width converged")
    admitted = [i for i, r in enumerate(records) if r.admitted]
    fallback = not admitted
    if fallback:
        best = min((i for i, r in enumerate(records) if r.converged),
                   key=lambda i: abs(records[i].sv_fraction - 1.25 * nu))
        records[best] = replace(records[best], admitted=True, fallback=True)
    else:
        # min keeps the first of equal keys: the smaller width
        best = min(admitted, key=lambda i: (records[i].score, records[i].covering))
    chosen = records[best].s
    return WidthSelection(chosen, records, model_from_solution(X, nu, chosen, solutions[best], class_label), fallback)


def reference_beps_partition(X, k_neighbors, side_threshold) -> BoundaryPartition:
    """geometry.beps_partition as it was before the n x k x d block: one
    loop iteration per row, through np.linalg.norm and the @ product on
    that row's k x d differences. Pins the partition exactly."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    d2 = reference_squared_distances(X)
    np.fill_diagonal(d2, np.inf)  # exclude self
    nbr = np.argsort(d2, axis=1, kind="stable")[:, :k_neighbors]

    edge = np.zeros(n, dtype=bool)
    for i in range(n):
        diffs = X[nbr[i]] - X[i]
        norms = np.linalg.norm(diffs, axis=1)
        units = np.divide(diffs, norms[:, None], out=np.zeros_like(diffs), where=norms[:, None] > 0)
        normal = units.mean(axis=0)
        nn = np.linalg.norm(normal)
        if nn < _NORMAL_EPS:
            continue  # symmetric neighborhood: interior
        side = diffs @ (normal / nn)
        edge[i] = np.mean(side >= 0.0) >= side_threshold
    idx = np.arange(n)
    return BoundaryPartition(edge_indices=idx[edge], interior_indices=idx[~edge])
