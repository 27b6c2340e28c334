import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_beps_partition, reference_select_width
from sdcil.geometry import (
    DEFAULT_SIDE_THRESHOLD, BoundaryPartition, _nearest_neighbours, beps_partition, default_k_neighbors, select_width,
)
from sdcil.kernels import BLOCK_ROWS, candidate_widths, squared_distances
from sdcil.smo import SolverConfig

CFG = SolverConfig(kkt_tolerance=1e-5)


def disk_points(n=200, seed=0):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0, 1, n))
    t = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def annulus_points(n=200, seed=0):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(4, 9, n))
    t = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


class TestBepsPartition:
    def test_circle_all_edge(self):
        t = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        X = np.column_stack([np.cos(t), np.sin(t)])
        part = beps_partition(X, 4, 0.7)
        assert sorted(part.edge_indices.tolist()) == list(range(12))
        assert part.interior_indices.size == 0

    def test_five_by_five_grid(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        X = np.column_stack([xs.ravel(), ys.ravel()])
        part = beps_partition(X, 4, 0.7)
        boundary = {
            i for i, (x, y) in enumerate(X) if x in (0.0, 4.0) or y in (0.0, 4.0)
        }
        center = next(i for i, (x, y) in enumerate(X) if x == 2.0 and y == 2.0)
        edge = set(part.edge_indices.tolist())
        assert boundary <= edge  # 4 corners + 12 side midpoints
        assert len(boundary) == 16
        assert center in set(part.interior_indices.tolist())

    def test_gaussian_cloud_edge_points_farther_out(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 2))
        part = beps_partition(X, 10, 0.7)
        r = np.linalg.norm(X, axis=1)
        assert part.edge_indices.size > 0 and part.interior_indices.size > 0
        assert r[part.edge_indices].mean() > r[part.interior_indices].mean()

    def test_partition_is_exact_cover(self):
        X = disk_points(80, seed=5)
        part = beps_partition(X, 8, 0.7)
        both = np.concatenate([part.edge_indices, part.interior_indices])
        assert sorted(both.tolist()) == list(range(80))

    def test_permutation_covariant(self):
        X = disk_points(60, seed=7)
        part = beps_partition(X, 7, 0.7)
        rng = np.random.default_rng(3)
        perm = rng.permutation(60)
        part_p = beps_partition(X[perm], 7, 0.7)
        # edge membership travels with the rows
        edge_mask = np.zeros(60, dtype=bool)
        edge_mask[part.edge_indices] = True
        edge_mask_p = np.zeros(60, dtype=bool)
        edge_mask_p[part_p.edge_indices] = True
        assert np.array_equal(edge_mask_p, edge_mask[perm])

    def test_deterministic_with_duplicates(self):
        X = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 3 + [[0.5, 1.0]] * 2)
        a = beps_partition(X, 3, 0.7)
        b = beps_partition(X, 3, 0.7)
        assert np.array_equal(a.edge_indices, b.edge_indices)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 80),
        d=st.integers(1, 3),
        side=st.integers(1, 4),
    )
    # rows on both sides of the block edges
    @example(seed=5, n=BLOCK_ROWS + 1, d=2, side=3)
    @example(seed=6, n=2 * BLOCK_ROWS + 5, d=3, side=2)
    @settings(max_examples=60, deadline=None)
    def test_neighbours_match_full_stable_sort(self, seed, n, d, side):
        # points on a small integer grid: duplicate rows and tied distances
        rng = np.random.default_rng(seed)
        X = rng.integers(0, side + 1, size=(n, d)).astype(float)
        d2 = squared_distances(X)
        np.fill_diagonal(d2, np.inf)
        k = int(rng.integers(1, n))
        want = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert np.array_equal(_nearest_neighbours(d2, k), want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 90),
        d=st.integers(1, 25),
        shape=st.sampled_from(["gaussian", "lattice"]),
        default_k=st.booleans(),
        side_threshold=st.sampled_from([0.55, DEFAULT_SIDE_THRESHOLD, 1.0]),
    )
    # two lattice cases on a knife edge: a mean summed in another order, or
    # a normal length or side value from another dot product, flips a row
    @example(seed=136, n=83, d=6, shape="lattice", default_k=True, side_threshold=1.0)
    @example(seed=1345, n=57, d=9, shape="lattice", default_k=True, side_threshold=1.0)
    # neighbours found a block of rows at a time, on both sides of the block edges
    @example(seed=7, n=BLOCK_ROWS + 1, d=4, shape="lattice", default_k=True, side_threshold=DEFAULT_SIDE_THRESHOLD)
    @example(seed=8, n=2 * BLOCK_ROWS + 5, d=3, shape="gaussian", default_k=True, side_threshold=0.55)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_reference(self, seed, n, d, shape, default_k, side_threshold):
        # the n x k x d block rounds as the per-row loop did: lattice rows
        # repeat and put neighbours exactly on the tangent plane, where a
        # last-bit difference in a side value would flip the test
        rng = np.random.default_rng(seed)
        if shape == "gaussian":
            X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        else:
            X = rng.integers(-1, 2, size=(n, d)).astype(float)
        k = default_k_neighbors(n) if default_k else 2
        part = beps_partition(X, k, side_threshold)
        ref = reference_beps_partition(X, k, side_threshold)
        for got, want in ((part.edge_indices, ref.edge_indices), (part.interior_indices, ref.interior_indices)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_parameter_validation(self):
        X = disk_points(10)
        with pytest.raises(ValueError):
            beps_partition(X, 1, 0.7)
        with pytest.raises(ValueError):
            beps_partition(X, 10, 0.7)  # needs k+1 points
        with pytest.raises(ValueError):
            beps_partition(X, 3, 0.5)

    def test_default_k(self):
        assert default_k_neighbors(10) == 5
        assert default_k_neighbors(100) == 10
        assert default_k_neighbors(5) == 4


class TestSelectWidth:
    def test_disk_sv_fraction_in_band(self):
        X = disk_points(200, seed=0)
        part = beps_partition(X, default_k_neighbors(200), 0.7)
        sel = select_width(X, 0.2, candidate_widths(X, 20), part, CFG)
        assert not sel.fallback
        frac = sel.model.m / sel.model.train_count
        assert 0.2 <= frac <= 0.3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ring_svs_on_boundary(self, seed):
        X = annulus_points(210, seed=seed)
        part = beps_partition(X, default_k_neighbors(210), 0.7)
        sel = select_width(X, 0.2, candidate_widths(X, 20), part, CFG)
        sv = sel.model.support_vectors
        # match SVs back to training rows, then check edge membership
        edge = set(map(tuple, X[part.edge_indices]))
        in_edge = sum(tuple(row) in edge for row in sv)
        assert in_edge / sv.shape[0] >= 0.8

    def test_single_candidate_chosen(self):
        X = disk_points(150, seed=1)
        part = beps_partition(X, default_k_neighbors(150), 0.7)
        full = select_width(X, 0.2, candidate_widths(X, 20), part, CFG)
        sel = select_width(X, 0.2, [full.chosen], part, CFG)
        assert sel.chosen == full.chosen
        assert len(sel.per_candidate) == 1 and sel.per_candidate[0].admitted

    def test_chosen_is_admitted_and_converged(self):
        X = annulus_points(120, seed=3)
        part = beps_partition(X, default_k_neighbors(120), 0.7)
        sel = select_width(X, 0.2, candidate_widths(X, 15), part, CFG)
        chosen_recs = [r for r in sel.per_candidate if r.s == sel.chosen]
        assert len(chosen_recs) == 1
        assert chosen_recs[0].admitted and chosen_recs[0].converged
        assert sel.model.converged

    def test_nonconverged_candidates_skipped(self):
        X = disk_points(100, seed=4)
        part = beps_partition(X, default_k_neighbors(100), 0.7)
        cfg = SolverConfig(kkt_tolerance=1e-9, max_passes=40)
        cands = candidate_widths(X, 12)
        try:
            sel = select_width(X, 0.2, cands, part, cfg)
        except RuntimeError:
            return  # nothing converged at all: acceptable for this budget
        for rec in sel.per_candidate:
            if rec.s == sel.chosen:
                assert rec.converged

    def test_fallback_when_nothing_admitted(self):
        X = disk_points(100, seed=5)
        part = beps_partition(X, default_k_neighbors(100), 0.7)
        # only a far-too-small width: every point becomes an SV
        tiny = [0.01 * candidate_widths(X, 1)[0]]
        sel = select_width(X, 0.2, tiny, part, CFG)
        assert sel.fallback
        rec = sel.per_candidate[0]
        assert rec.fallback and rec.admitted
        assert sel.model is not None

    def test_no_candidates_rejected(self):
        X = disk_points(50, seed=6)
        part = beps_partition(X, default_k_neighbors(50), 0.7)
        with pytest.raises(ValueError, match="empty"):
            select_width(X, 0.2, [], part, CFG)

    def test_hull_vertices_covered_on_blobs(self):
        from scipy.spatial import ConvexHull

        from oracles import class_values

        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 2)) * 0.8
        part = beps_partition(X, default_k_neighbors(150), 0.7)
        sel = select_width(X, 0.2, candidate_widths(X, 20), part, CFG)
        hull = ConvexHull(X)
        sv_rows = set(map(tuple, sel.model.support_vectors))
        inside = class_values(sel.model, X[hull.vertices]) > 0.0
        covered = sum(
            bool(ins) or tuple(X[v]) in sv_rows for ins, v in zip(inside, hull.vertices)
        )
        assert covered / len(hull.vertices) >= 0.95


def class_shape(rng, shape, n, d):
    """n rows of one class in d dimensions, in one of a few layouts."""
    if shape == "gaussian":
        return rng.normal(size=(n, d))
    if shape == "anisotropic":
        return rng.normal(size=(n, d)) * np.geomspace(0.01, 10.0, d)
    if shape == "ring":
        X = rng.normal(size=(n, d))
        return X / np.linalg.norm(X, axis=1, keepdims=True) * rng.uniform(2.0, 3.0, (n, 1))
    # integer lattice points, many rows repeated
    return rng.integers(-2, 3, size=(n, d)).astype(float)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 60),
    d=st.integers(1, 5),
    shape=st.sampled_from(["gaussian", "anisotropic", "ring", "lattice"]),
    edges=st.sampled_from(["empty", "subset", "all", "beps"]),
    strided=st.booleans(),
    nu=st.sampled_from([0.1, 0.2, 0.35, 0.6]),
    count=st.integers(1, 8),
    max_passes=st.sampled_from([None, 3, 25]),
    scale=st.sampled_from([1.0, 0.02]),  # 0.02: widths so small that nothing is admitted
)
@settings(max_examples=80, deadline=None)
def test_select_width_matches_fresh_kernel_reference(seed, n, d, shape, edges, strided, nu, count, max_passes, scale):
    # the reused kernel buffer and the covering gaps read along SV rows
    # give every record and the chosen model bit for bit
    rng = np.random.default_rng(seed)
    A = class_shape(rng, shape, n, 2 * d)
    X = A[:, ::2] if strided else np.ascontiguousarray(A[:, :d])
    if edges == "beps":
        part = beps_partition(X, default_k_neighbors(n))
    else:
        edge = {"empty": np.zeros(n, bool), "all": np.ones(n, bool)}.get(edges)
        if edge is None:  # a strict, non-empty subset
            edge = rng.permutation(n) < rng.integers(1, n)
        idx = np.arange(n)
        part = BoundaryPartition(edge_indices=idx[edge], interior_indices=idx[~edge])
    try:
        cands = [scale * w for w in candidate_widths(X, count)]
    except ValueError:  # most rows identical
        cands = [scale]
    nu = max(nu, 2.0 / n)
    cfg = SolverConfig(kkt_tolerance=1e-3, max_passes=max_passes, seed=seed % 7)
    try:
        ref = reference_select_width(X, nu, cands, part, cfg, class_label=4)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="no candidate width converged"):
            select_width(X, nu, cands, part, cfg, class_label=4)
        return
    sel = select_width(X, nu, cands, part, cfg, class_label=4)
    # repr prints every float exactly, NaN and -0.0 included
    assert repr(sel.per_candidate) == repr(ref.per_candidate)
    assert (sel.chosen, sel.fallback) == (ref.chosen, ref.fallback)
    for name in ("support_vectors", "sv_alphas"):
        a, b = getattr(sel.model, name), getattr(ref.model, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for name in ("class_label", "rho", "width", "nu", "train_count", "converged"):
        assert repr(getattr(sel.model, name)) == repr(getattr(ref.model, name))


def test_select_width_covering_across_sv_blocks():
    # more support vectors than BLOCK_ROWS: the covering gaps are minima
    # over several blocks of SV rows, with the reference's bytes
    n = 2 * BLOCK_ROWS + 5
    X = disk_points(n, seed=3)
    part = beps_partition(X, default_k_neighbors(n))
    assert 0 < part.edge_indices.size < n
    cands = candidate_widths(X, 4)
    sel = select_width(X, 0.6, cands, part, CFG, class_label=2)
    ref = reference_select_width(X, 0.6, cands, part, CFG, class_label=2)
    assert max(r.sv_fraction for r in sel.per_candidate if r.converged) * n > BLOCK_ROWS
    assert repr(sel.per_candidate) == repr(ref.per_candidate)
    assert (sel.chosen, sel.fallback) == (ref.chosen, ref.fallback)
    for name in ("support_vectors", "sv_alphas"):
        assert getattr(sel.model, name).tobytes() == getattr(ref.model, name).tobytes()
