"""The batched d >= 2 envelope operators against their per-line and
per-threshold reference loops in ``oracles.py``, and the offset search of
the Pasch-Hausdorff transform against the dense all-pairs minimum: equal bit
for bit, except the lamination hull, whose batched fixpoint matches the
per-line one to 1e-12 of the sample scale.  The convex envelope keeps f at
the lower facets' vertices bit for bit, lies within 1e-12 of the sample
scale of its fresh-array reference elsewhere, and within 1e-9 of a per-node
LP everywhere."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from supcon import envelope
from supcon.envelope import lamination_hull, level_convex_lsc_envelope, pasch_hausdorff
from supcon.funcspace import GridSpec, SampledFunction, corpus_entry, sample
from test_envelope import _record_builds

KINDS = ("normal", "ties", "constant", "affine", "flat-sublevel")
HULL_VALUES = ("ties", "collinear", "signed-zero", "magnitudes", "nan")


def _hull_input(spacing: str, kind: str, m: int, seed: int):
    rng = np.random.default_rng(seed)
    if spacing == "uniform":
        x = float(rng.integers(-8, 9)) + 2.0 ** int(rng.integers(-4, 3)) * np.arange(m)
    else:
        x = float(rng.uniform(-5.0, 5.0)) + np.cumsum(rng.uniform(1e-3, 1.0, size=m))
    if kind == "ties":
        v = rng.integers(0, 3, size=m).astype(float)
    elif kind == "collinear":  # runs on random lines, up to one line for all;
        # rounding then decides which middle points the chain pops
        run = np.repeat(np.arange(m), rng.integers(1, m + 1, size=m))[:m]
        v = rng.standard_normal(m)[run] * x + rng.standard_normal(m)[run]
    elif kind == "signed-zero":
        v = rng.choice([-0.0, 0.0, -1.0, 1.0], size=m)
    elif kind == "magnitudes":
        v = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-300.0, 300.0, size=m)
    else:
        v = rng.standard_normal(m)
        v[rng.random(m) < 0.2] = np.nan
    return x, v


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["uniform", "random"]), st.sampled_from(HULL_VALUES),
       st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_lower_hull_1d_matches_indexed_chain(spacing, kind, m, seed):
    x, v = _hull_input(spacing, kind, m, seed)
    assert np.all(np.diff(x) > 0)
    with np.errstate(over="ignore", invalid="ignore"):
        got = envelope.lower_hull_1d(x, v)
        ref = oracles.lower_hull_1d(x, v)
        # the lamination hull's batched chain, at positions 0..m-1, on rows
        # that pop differently
        rows = np.stack([v, v[::-1], np.sort(v)])
        batched = envelope._lower_hull_lines(rows)
        per_row = [oracles.lower_hull_1d(np.arange(m, dtype=float), r) for r in rows]
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(batched, per_row, equal_nan=True)


def _values(kind: str, grid: GridSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    M = grid.node_count
    if kind == "normal":
        return rng.standard_normal(M)
    if kind == "ties":
        return rng.integers(0, 4, size=M).astype(float)
    if kind == "constant":
        return np.full(M, float(rng.integers(-3, 4)))
    coords = grid.node_coords()
    if kind == "affine":
        return coords @ rng.integers(-2, 3, size=grid.ndim) + float(rng.integers(-3, 4))
    # flat-sublevel: the lowest values sit on a grid line or plane, so the
    # first sublevel sets are collinear or coplanar (no full-dimensional hull)
    idx = np.indices(grid.shape).reshape(grid.ndim, -1).T
    on_flat = np.ones(M, dtype=bool)
    flat_dim = int(rng.integers(1, min(grid.ndim - 1, 2) + 1))  # line or plane
    for _ in range(grid.ndim - flat_dim):
        a, b = rng.choice(grid.ndim, size=2, replace=False)
        if rng.random() < 0.5:
            on_flat &= idx[:, a] == idx[:, b]
        else:
            on_flat &= idx[:, a] == rng.integers(0, grid.points_per_axis)
    low = rng.integers(0, 3, size=M).astype(float)
    high = 3.0 + rng.standard_normal(M) ** 2
    return np.where(on_flat, low, high)


def _sample(dims, points, kind, seed) -> SampledFunction:
    grid = GridSpec(dims, 1.0, points)
    return SampledFunction(grid, _values(kind, grid, seed))


# every dimension at P = 3 and 5; the 2x2 grids at P = 5 are drawn less often
# because the reference loops take seconds there
GRIDS = st.sampled_from([((1, 2), 3), ((1, 2), 5), ((1, 2), 7),
                         ((2, 1), 3), ((2, 1), 5), ((2, 1), 7),
                         ((2, 2), 3), ((2, 2), 3), ((2, 2), 5)])


@settings(max_examples=40, deadline=None)
@given(GRIDS, st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
@example(((1, 2), 9), "normal", 0)  # lines of 8 and 9 nodes take the chain
@example(((2, 1), 13), "ties", 1)
def test_lamination_hull_matches_per_line_oracle(grid, kind, seed):
    # the batched hull updates every line of a length at once and the oracle
    # one line after another, so the two exact fixpoints agree to rounding
    f = _sample(*grid, kind, seed)
    new, info = lamination_hull(f, full_output=True)
    ref, ref_info = oracles.lamination_hull(f, full_output=True)
    assert info["converged"] and ref_info["converged"]
    assert np.all(np.abs(new.values - ref.values) <= 1e-12 * np.max(np.abs(f.values)))


@settings(max_examples=30, deadline=None)
@given(GRIDS, st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_lslc_envelope_matches_per_threshold_oracle(grid, kind, seed):
    f = _sample(*grid, kind, seed)
    new = level_convex_lsc_envelope(f)
    ref = oracles.level_convex_lsc_envelope(f)
    assert np.array_equal(new.values, ref.values)


def _flat_node_set(grid: GridSpec, k: int, simplex: bool, seed: int) -> np.ndarray:
    """Nodes of a random k-dimensional affine sub-lattice of the grid's index
    lattice (a line, plane or 3-flat): k + 1 of them when ``simplex``, else
    a random subset of at least k + 2, or all when there are fewer."""
    rng = np.random.default_rng(seed)
    P, d = grid.points_per_axis, grid.ndim
    steps = rng.integers(-2, 3, size=(k, d))
    span = np.arange(-2 * (P - 1), 2 * P - 1)
    mults = np.stack(np.meshgrid(*[span] * k, indexing="ij"), axis=-1).reshape(-1, k)
    idx = rng.integers(0, P, size=d) + mults @ steps
    idx = np.unique(idx[np.all((idx >= 0) & (idx < P), axis=1)], axis=0)
    size = k + 1 if simplex else int(rng.integers(k + 2, max(k + 2, len(idx)) + 1))
    idx = idx[rng.permutation(len(idx))[:size]]
    return grid.node_coords()[np.ravel_multi_index(idx.T, grid.shape)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 2), (1, 3)]), st.sampled_from([3, 5]),
       st.sampled_from([1.0, 2.0]), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_flat_hull_membership_matches_the_lp(dims, points, radius, k, simplex, seed):
    # the traffic the lsc envelope sends a flat sublevel set: grid nodes on
    # a line, plane or 3-flat, asked about every node of the grid
    grid = GridSpec(dims, radius, points)
    assume(k < grid.ndim)
    pts = _flat_node_set(grid, k, simplex, seed)
    assume(len(pts) >= 2)
    coords = grid.node_coords()
    inside, hull = envelope._points_in_hull(pts, coords)
    assert hull is None
    assert np.array_equal(inside, oracles.points_in_flat_hull(pts, coords)[0])


# exampleD at P = 7 has 15,360 lower facets; its 368 nodes off the lower
# facets' vertices take them in 1,665-facet blocks at the oracle's width
FACET_CASES = [("exampleD", 7, None), ("random", 3, 1), ("random", 5, 2), ("random", 5, 3)]


@pytest.mark.parametrize("name, points, seed", FACET_CASES)
def test_facet_products_in_place_match_fresh_arrays(name, points, seed):
    if name == "exampleD":
        f = sample(corpus_entry(name), GridSpec((2, 2), 2.0, points))
    else:
        f = _sample((2, 2), points, "normal", seed)
    coords, flat = f.grid.node_coords(), f.values.ravel()
    # a vertex of a lower facet keeps f; the other nodes take the largest
    # plane, which the oracle sums in another order
    got = envelope._envelope_values_nd(coords, flat)
    hull = envelope.ConvexHull(np.hstack([coords, flat[:, None]]), qhull_options="Qt")
    vertex = np.zeros(len(flat), dtype=bool)
    vertex[hull.simplices[hull.equations[:, -2] < -1e-12]] = True
    assert vertex.any() and not vertex.all()
    assert np.array_equal(got[vertex], flat[vertex])
    ref = oracles.envelope_values_nd(coords, flat)
    assert np.all(np.abs(got - ref)[~vertex] <= 1e-12 * np.max(np.abs(flat)))
    eq = envelope.ConvexHull(coords[flat <= np.median(flat)]).equations
    for tol in (1e-9, -1e-9):
        assert np.array_equal(envelope._inside_facets(eq, coords, tol),
                              oracles.inside_facets(eq, coords, tol))


def _lp_envelope(f: SampledFunction) -> np.ndarray:
    """At each node, min sum_i lam_i f_i over the convex combinations
    sum_i lam_i x_i of the nodes that equal it: one HiGHS LP per node."""
    coords, flat = f.grid.node_coords(), f.values.ravel()
    A_eq = np.vstack([coords.T, np.ones(len(flat))])
    out = []
    for x in coords:
        res = envelope.linprog(flat, A_eq=A_eq, b_eq=np.append(x, 1.0), bounds=(0.0, None),
                               method="highs")
        assert res.success
        out.append(res.fun)
    return np.array(out)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["normal", "ties"]), st.integers(0, 2**32 - 1))
@example("W_sup", 0)
@example("arctan_det", 0)
@example("chi_det", 0)
@example("chi_det_open", 0)
@example("exampleD", 0)
@example("half_space_chi", 0)
@example("one_minus_chi_pair", 0)
def test_convex_envelope_matches_per_node_lp(source, seed):
    # the vertex rule and the plane values against an LP that knows neither
    if source in ("normal", "ties"):
        f = _sample((2, 2), 3, source, seed)
    else:
        f = sample(corpus_entry(source), GridSpec((2, 2), 2.0, 3))
    got = envelope.convex_envelope(f).values.ravel()
    scale = max(1.0, np.max(np.abs(f.values)))
    assert np.all(np.abs(got - _lp_envelope(f)) <= 1e-9 * scale)


@pytest.mark.parametrize("source", ["exampleD", "normal"])
def test_certified_unmerged_hull_matches_per_node_lp(monkeypatch, source):
    # at P = 5 both grids take the certified Qt Q0 build, so the LP checks it
    f = (sample(corpus_entry(source), GridSpec((2, 2), 2.0, 5)) if source == "exampleD"
         else _sample((2, 2), 5, source, 20240817))
    calls = _record_builds(monkeypatch)
    got = envelope.convex_envelope(f).values.ravel()
    assert calls == ["Qt Q0"]
    scale = max(1.0, np.max(np.abs(f.values)))
    assert np.all(np.abs(got - _lp_envelope(f)) <= 1e-9 * scale)


def test_lslc_full_output_counts_the_paths():
    # on the random 2x2 grid every path runs: hull builds, skipped
    # thresholds and certified ones
    f = _sample((2, 2), 5, "normal", 20240817)
    out, info = level_convex_lsc_envelope(f, full_output=True)
    assert np.array_equal(out.values, level_convex_lsc_envelope(f).values)
    assert info["hull_builds"] > 0
    assert info["thresholds_skipped"] > 0
    assert info["thresholds_certified"] > 0
    assert (info["hull_builds"] + info["thresholds_skipped"] + info["thresholds_certified"]
            <= len(np.unique(f.values)))
    # exampleD is its own envelope: after the first full-dimensional hull
    # every threshold is certified, and no other hull is built
    f = sample(corpus_entry("exampleD"), GridSpec((2, 2), 2.0, 7))
    info = level_convex_lsc_envelope(f, full_output=True)[1]
    assert info["hull_builds"] == 1 and info["thresholds_certified"] == 40
    # 1-d grids take the prefix-interval path: no hulls
    f1 = SampledFunction(GridSpec((1, 1), 1.0, 9), np.arange(9.0) % 3)
    assert level_convex_lsc_envelope(f1, full_output=True)[1] == {
        "hull_builds": 0, "hull_points": 0, "thresholds_skipped": 0,
        "thresholds_certified": 0}


def _bench_grids():
    # the corpus grids of the benchmark and its three random grids, drawn
    # the way it draws them
    for name in ("arctan_det", "exampleD", "W_sup"):
        yield name, sample(corpus_entry(name), GridSpec((2, 2), 2.0, 7))
    grid = GridSpec((2, 2), 2.0, 5)
    for seed in (20240817, 12345, 7):
        values = np.random.default_rng(seed).standard_normal(grid.node_count)
        yield f"random-{seed}", SampledFunction(grid, values.reshape(grid.shape))


@pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in _bench_grids()])
def test_lslc_certificates_match_the_last_vertex_rebuilds(f):
    # a certified threshold builds no hull; the values must not notice
    new, info = level_convex_lsc_envelope(f, full_output=True)
    assert np.array_equal(new.values, oracles.lsc_envelope_from_last_vertices(f).values)
    assert info["thresholds_certified"] > 0


def test_lslc_hulls_are_built_from_the_last_vertices(monkeypatch):
    # every successful Qhull call is recorded with the threshold it serves
    # (the largest value among its input nodes, since the new nodes are
    # always given); rebuilding each hull from the whole sublevel set would
    # have given Qhull sum(#{f <= t}) points over the same thresholds
    f = _sample((2, 2), 5, "normal", 20240817)
    coords = f.grid.node_coords()
    flat = f.values.ravel()
    node = {c.tobytes(): i for i, c in enumerate(coords)}
    sizes = []

    def recording(points, *args, **kwargs):
        hull = real(points, *args, **kwargs)
        if points.shape[1] < coords.shape[1]:
            return hull  # a flat sublevel set's hull in its SVD basis
        t = max(flat[node[p.tobytes()]] for p in points)
        sizes.append((len(points), int(np.sum(flat <= t))))
        return hull

    real = envelope.ConvexHull
    monkeypatch.setattr(envelope, "ConvexHull", recording)
    out, info = level_convex_lsc_envelope(f, full_output=True)
    monkeypatch.undo()
    assert len(sizes) == info["hull_builds"]
    assert info["hull_points"] == sum(given for given, _ in sizes)
    assert info["hull_points"] < sum(whole for _, whole in sizes)


@pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in [
    *_bench_grids(), ("flat-sublevel", _sample((2, 2), 5, "flat-sublevel", 3))]])
def test_lslc_runs_no_lp(monkeypatch, f):
    # every sublevel set, the flat ones too, is decided without an LP; the
    # oracle keeps its own
    def no_lp(*args, **kwargs):
        raise AssertionError("the lsc envelope solved an LP")

    monkeypatch.setattr(envelope, "linprog", no_lp)
    ref = oracles.level_convex_lsc_envelope(f)
    assert np.array_equal(level_convex_lsc_envelope(f).values, ref.values)


def _ph_values(kind: str, grid: GridSpec, seed: int) -> np.ndarray:
    if kind == "negative":
        # at most zero, with signed zeros among them
        rng = np.random.default_rng(seed)
        v = -np.abs(rng.standard_normal(grid.node_count))
        v[rng.random(grid.node_count) < 0.2] = -0.0
        return v
    return _values(kind, grid, seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([((1, 1), 3), ((1, 1), 11), ((1, 1), 41), ((1, 1), 201),
                        ((2, 2), 3), ((2, 2), 5), ((2, 2), 7)]),
       st.sampled_from(("normal", "ties", "constant", "negative")),
       st.sampled_from((0.05, 0.3, 1.0, 5.0, 64.0)),
       st.sampled_from((0.5, 2.0)),
       st.integers(0, 2**32 - 1))
def test_pasch_hausdorff_matches_dense_oracle(grid, kind, lam, radius, seed):
    dims, points = grid
    g = GridSpec(dims, radius, points)
    f = SampledFunction(g, _ph_values(kind, g, seed))
    new = pasch_hausdorff(f, lam).values
    ref = oracles.pasch_hausdorff(f, lam).values
    assert np.array_equal(new, ref)
    assert np.array_equal(np.signbit(new), np.signbit(ref))
