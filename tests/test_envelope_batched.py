"""The batched d >= 2 envelope operators against their per-line and
per-threshold reference loops in ``oracles.py``, and the offset search of
the Pasch-Hausdorff transform against the dense all-pairs minimum: equal bit
for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supcon import envelope
from supcon.envelope import lamination_hull, level_convex_lsc_envelope, pasch_hausdorff
from supcon.funcspace import GridSpec, SampledFunction, corpus_entry, sample

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
    assert np.array_equal(got, ref, equal_nan=True)


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
def test_lamination_hull_matches_per_line_oracle(grid, kind, seed):
    f = _sample(*grid, kind, seed)
    new, info = lamination_hull(f, full_output=True)
    ref, ref_info = oracles.lamination_hull(f, full_output=True)
    assert np.array_equal(new.values, ref.values)
    assert info == ref_info


@settings(max_examples=30, deadline=None)
@given(GRIDS, st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_lslc_envelope_matches_per_threshold_oracle(grid, kind, seed):
    f = _sample(*grid, kind, seed)
    new = level_convex_lsc_envelope(f)
    ref = oracles.level_convex_lsc_envelope(f)
    assert np.array_equal(new.values, ref.values)


# exampleD at P = 7 has 15,360 lower facets in 1,665-facet blocks: nine
# full blocks and a short last one
FACET_CASES = [("exampleD", 7, None), ("random", 3, 1), ("random", 5, 2), ("random", 5, 3)]


@pytest.mark.parametrize("name, points, seed", FACET_CASES)
def test_facet_products_in_place_match_fresh_arrays(name, points, seed):
    if name == "exampleD":
        f = sample(corpus_entry(name), GridSpec((2, 2), 2.0, points))
    else:
        f = _sample((2, 2), points, "normal", seed)
    coords, flat = f.grid.node_coords(), f.values.ravel()
    assert np.array_equal(envelope._envelope_values_nd(coords, flat),
                          oracles.envelope_values_nd(coords, flat))
    eq = envelope.ConvexHull(coords[flat <= np.median(flat)]).equations
    for tol in (1e-9, -1e-9):
        assert np.array_equal(envelope._inside_facets(eq, coords, tol),
                              oracles.inside_facets(eq, coords, tol))


def test_lslc_full_output_counts_the_paths():
    # on the random 2x2 grid every path runs: hull builds, skipped
    # thresholds, and LPs for the tiny first sublevel sets
    f = _sample((2, 2), 5, "normal", 20240817)
    out, info = level_convex_lsc_envelope(f, full_output=True)
    assert np.array_equal(out.values, level_convex_lsc_envelope(f).values)
    assert info["hull_builds"] > 0
    assert info["thresholds_skipped"] > 0
    assert info["lp_queries"] > 0
    assert info["thresholds_certified"] > 0
    assert (info["hull_builds"] + info["thresholds_skipped"] + info["thresholds_certified"]
            <= len(np.unique(f.values)))
    # exampleD is its own envelope: after the first full-dimensional hull
    # every threshold is certified, and no other hull is built
    f = sample(corpus_entry("exampleD"), GridSpec((2, 2), 2.0, 7))
    info = level_convex_lsc_envelope(f, full_output=True)[1]
    assert info["hull_builds"] == 1 and info["thresholds_certified"] == 40
    # 1-d grids take the prefix-interval path: no hulls, no LPs
    f1 = SampledFunction(GridSpec((1, 1), 1.0, 9), np.arange(9.0) % 3)
    assert level_convex_lsc_envelope(f1, full_output=True)[1] == {
        "hull_builds": 0, "hull_points": 0, "thresholds_skipped": 0,
        "thresholds_certified": 0, "lp_queries": 0}


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
