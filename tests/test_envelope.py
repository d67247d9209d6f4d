import itertools
import math

import numpy as np
import pytest

import oracles
from supcon.envelope import (PowerLawOverflowError, convex_envelope,
                             lamination_hull, level_convex_lsc_envelope,
                             lower_hull_1d, pasch_hausdorff,
                             power_law_envelope, rank_one_grid_directions)
from supcon.funcspace import (DEFAULT_SEED, GridSpec, SampledFunction, corpus_entry,
                              corpus_names, sample)


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately naive)
# ---------------------------------------------------------------------------

def hull_oracle_1d(x, v):
    """O(m^2) epigraph hull: at each node, the cheapest chord over it."""
    m = len(x)
    out = v.copy()
    for i in range(m):
        for j in range(m):
            for k in range(j + 1, m):
                if x[j] <= x[i] <= x[k]:
                    t = (x[i] - x[j]) / (x[k] - x[j])
                    out[i] = min(out[i], (1 - t) * v[j] + t * v[k])
    return out


def hull_oracle_2d(coords, v):
    """Caratheodory brute force: minimize over triples of points."""
    m = len(coords)
    out = v.copy()
    for i in range(m):
        p = coords[i]
        for a, b, c in itertools.combinations(range(m), 3):
            M = np.column_stack([coords[a] - coords[c], coords[b] - coords[c]])
            try:
                st = np.linalg.solve(M, p - coords[c])
            except np.linalg.LinAlgError:
                continue
            w = np.array([st[0], st[1], 1.0 - st[0] - st[1]])
            if np.all(w >= -1e-12):
                out[i] = min(out[i], w @ v[[a, b, c]])
    return out


def sublevel_hull_oracle_1d(x, v):
    """Smallest sampled threshold whose sublevel interval covers the node."""
    out = np.empty_like(v)
    for i in range(len(x)):
        best = np.inf
        for t in np.sort(v):
            sel = x[v <= t]
            if sel.min() <= x[i] <= sel.max():
                best = t
                break
        out[i] = best
    return out


# ---------------------------------------------------------------------------
# convex envelope
# ---------------------------------------------------------------------------

def test_convex_envelope_abs_unchanged():
    f = sample(corpus_entry("abs"), GridSpec((1, 1), 2.0, 41))
    E = convex_envelope(f)
    assert np.array_equal(E.values, f.values)


def test_convex_envelope_double_well_flat_between_wells():
    g = GridSpec((1, 1), 3.0, 61)
    f = sample(corpus_entry("double_well_1d"), g)
    E = convex_envelope(f)
    x = g.axis()
    assert np.max(np.abs(E.values[np.abs(x) <= 1.0])) == 0.0
    outside = np.abs(x) > 1.0
    assert np.array_equal(E.values[outside], f.values[outside])
    # cross-check against the naive oracle
    assert np.max(np.abs(E.values - hull_oracle_1d(x, f.values.copy()))) <= 1e-12


def test_convex_envelope_clamp_piecewise_linear():
    g = GridSpec((1, 1), 10.0, 201)
    f = sample(corpus_entry("clamp1d"), g)
    E = convex_envelope(f)
    x = g.axis()
    assert np.max(np.abs(E.values - np.maximum(0.0, x / 10.0))) <= 1e-12
    assert np.max(np.abs(E.values - hull_oracle_1d(x, f.values.copy()))) <= 1e-12


def test_convex_envelope_matches_oracle_random_1d():
    rng = np.random.default_rng(11)
    g = GridSpec((1, 1), 1.0, 41)
    for _ in range(5):
        f = SampledFunction(g, rng.normal(size=41))
        E = convex_envelope(f)
        assert np.max(np.abs(E.values - hull_oracle_1d(g.axis(), f.values.copy()))) <= 1e-12


def test_convex_envelope_matches_oracle_2d():
    rng = np.random.default_rng(12)
    g = GridSpec((1, 2), 1.0, 5)
    f = SampledFunction(g, rng.normal(size=25))
    E = convex_envelope(f)
    oracle = hull_oracle_2d(g.node_coords(), f.values.ravel().copy())
    assert np.max(np.abs(E.values.ravel() - oracle)) <= 1e-9


def test_convex_envelope_affine_input_unchanged():
    g = GridSpec((1, 2), 1.0, 5)
    coords = g.node_coords()
    vals = coords @ np.array([0.3, -0.7]) + 0.1
    E = convex_envelope(SampledFunction(g, vals))
    assert np.max(np.abs(E.values.ravel() - vals)) <= 1e-12


def test_convex_envelope_of_a_constant_2x2_sample_is_itself():
    f = SampledFunction(GridSpec((2, 2), 1.0, 3), np.full(81, 0.7))
    assert np.array_equal(convex_envelope(f).values, f.values)


def test_convex_envelope_raises_when_qhull_fails(monkeypatch):
    # no silent fallback: a Qhull failure under Qt Q0, Qt and QJ, or a lifted
    # hull without lower facets, is an error
    from scipy.spatial import QhullError

    from supcon import envelope

    f = SampledFunction(GridSpec((1, 2), 1.0, 5), np.random.default_rng(3).normal(size=25))
    calls = []

    def failing(points, qhull_options=None):
        calls.append(qhull_options)
        raise QhullError("QH6154 simulated failure")

    monkeypatch.setattr(envelope, "ConvexHull", failing)
    with pytest.raises(RuntimeError, match="Qt Q0, Qt and QJ"):
        convex_envelope(f)
    assert calls == ["Qt Q0", "Qt", "QJ"]

    class UpperOnly:  # the unmerged build fails, the merged one has no lower facet
        def __init__(self, points, qhull_options=None):
            if "Q0" in qhull_options:
                raise QhullError("QH6115 simulated concave ridge")
            self.equations = np.array([[0.0, 0.0, 1.0, -1.0]])

    monkeypatch.setattr(envelope, "ConvexHull", UpperOnly)
    with pytest.raises(RuntimeError, match="no lower facets"):
        convex_envelope(f)


def _record_builds(monkeypatch, tamper=None):
    """Wrap the envelope's ConvexHull: record each build's Qhull options, and
    hand the unmerged build's hull to ``tamper`` before the envelope sees it."""
    from supcon import envelope

    calls, build = [], envelope.ConvexHull

    def recording(points, qhull_options=None):
        calls.append(qhull_options)
        hull = build(points, qhull_options=qhull_options)
        return tamper(hull) if tamper and qhull_options == "Qt Q0" else hull

    monkeypatch.setattr(envelope, "ConvexHull", recording)
    return calls


def test_convex_envelope_takes_the_unmerged_build(monkeypatch):
    # one certified Qt Q0 build on exampleD and on each kept member of the
    # bench's power-law family; Q0 raises on the three P = 7 grids below, and
    # the merged Qt build serves them
    calls = _record_builds(monkeypatch)
    convex_envelope(sample(corpus_entry("exampleD"), GridSpec((2, 2), 2.0, 7)))
    assert calls == ["Qt Q0"]
    calls.clear()
    f = sample(corpus_entry("exampleD"), GridSpec((2, 2), 10.0, 5))
    rep = power_law_envelope(f, (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0), "convex-lower")
    assert rep.p_schedule == (2.0, 4.0, 8.0, 16.0)
    assert calls == ["Qt Q0"] * len(rep.p_schedule)
    for name in ("arctan_det", "chi_det"):
        calls.clear()
        convex_envelope(sample(corpus_entry(name), GridSpec((2, 2), 2.0, 7)))
        assert calls == ["Qt Q0", "Qt"], name


def test_convex_certificate_rejects_a_concave_ridge_and_falls_back(monkeypatch):
    # the Q0 hull of exampleD with its highest vertex lifted by 0.5 is not
    # locally convex: the envelope must come from the merged Qt build instead
    from types import SimpleNamespace

    from scipy.spatial import QhullError

    from supcon import envelope

    f = sample(corpus_entry("exampleD"), GridSpec((2, 2), 2.0, 7))
    coords, flat = f.grid.node_coords(), f.values.ravel()
    top = int(np.argmax(flat))
    tol = 1e-12 * max(1.0, np.max(np.abs(flat)))

    def lifted(hull):
        points = hull.points.copy()
        points[top, -1] += 0.5
        return SimpleNamespace(points=points, equations=hull.equations,
                               neighbors=hull.neighbors, simplices=hull.simplices)

    hull = envelope.ConvexHull(np.hstack([coords, flat[:, None]]), qhull_options="Qt Q0")
    assert top in hull.vertices
    assert envelope._locally_convex(hull, tol)
    assert not envelope._locally_convex(lifted(hull), tol)

    calls = _record_builds(monkeypatch, lifted)
    got = envelope._envelope_values_nd(coords, flat)
    assert calls == ["Qt Q0", "Qt"]

    def no_q0(hull):
        raise QhullError("QH6115 simulated concave ridge")

    monkeypatch.undo()
    _record_builds(monkeypatch, no_q0)
    assert np.array_equal(got, envelope._envelope_values_nd(coords, flat))


def test_convex_envelope_idempotent():
    f = sample(corpus_entry("double_well_1d"), GridSpec((1, 1), 3.0, 61))
    E1 = convex_envelope(f)
    E2 = convex_envelope(E1)
    assert np.max(np.abs(E1.values - E2.values)) <= 1e-12


# ---------------------------------------------------------------------------
# level-convex lsc envelope
# ---------------------------------------------------------------------------

def test_lslc_clamp_unchanged():
    f = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 10.0, 201))
    L = level_convex_lsc_envelope(f)
    assert np.array_equal(L.values, f.values)


def test_lslc_scalar_pair():
    pair = corpus_entry("one_minus_chi_pair",
                        xi0=np.array([[-1.0]]), eta0=np.array([[1.0]]))
    g = GridSpec((1, 1), 2.0, 41)
    f = sample(pair, g)
    L = level_convex_lsc_envelope(f)
    x = g.axis()
    expected = np.where(np.abs(x) <= 1.0, 0.0, 1.0)
    assert np.array_equal(L.values, expected)
    assert np.array_equal(L.values, sublevel_hull_oracle_1d(x, f.values.copy()))


def test_lslc_double_well():
    g = GridSpec((1, 1), 3.0, 61)
    f = sample(corpus_entry("double_well_1d"), g)
    L = level_convex_lsc_envelope(f)
    x = g.axis()
    assert np.max(np.abs(L.values[np.abs(x) <= 1.0])) == 0.0
    outside = np.abs(x) > 1.0
    assert np.array_equal(L.values[outside], f.values[outside])
    assert np.array_equal(L.values, sublevel_hull_oracle_1d(x, f.values.copy()))


def test_lslc_idempotent_and_2d():
    rng = np.random.default_rng(13)
    g = GridSpec((1, 2), 1.0, 5)
    f = SampledFunction(g, rng.normal(size=25))
    L1 = level_convex_lsc_envelope(f)
    L2 = level_convex_lsc_envelope(L1)
    assert np.max(np.abs(L1.values - L2.values)) <= 1e-12
    assert np.all(L1.values <= f.values + 1e-12)


# ---------------------------------------------------------------------------
# Pasch-Hausdorff
# ---------------------------------------------------------------------------

def test_ph_constant_fixed():
    g = GridSpec((1, 1), 1.0, 11)
    f = SampledFunction(g, np.full(11, 3.25))
    for lam in (0.5, 1.0, 8.0):
        assert np.array_equal(pasch_hausdorff(f, lam).values, f.values)


def test_ph_indicator_formula():
    pair = corpus_entry("one_minus_chi_pair",
                        xi0=np.array([[0.0]]), eta0=np.array([[0.0]]))
    g = GridSpec((1, 1), 2.0, 41)
    f = sample(pair, g)
    for lam in (0.5, 1.0, 2.0):
        ph = pasch_hausdorff(f, lam)
        assert np.array_equal(ph.values, np.minimum(1.0, lam * np.abs(g.axis())))


def test_ph_fixes_global_minimum():
    f = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 10.0, 201))
    i0 = 100  # node at 0
    for lam in (0.25, 1.0, 64.0):
        assert pasch_hausdorff(f, lam).values[i0] == 0.0


def test_ph_lipschitz_and_monotone():
    f = sample(corpus_entry("double_well_1d"), GridSpec((1, 1), 3.0, 61))
    h = f.grid.spacing
    prev = None
    for lam in (1.0, 2.0, 4.0):
        ph = pasch_hausdorff(f, lam)
        slopes = np.abs(np.diff(ph.values)) / h
        assert np.max(slopes) <= lam * (1.0 + 1e-9)
        if prev is not None:
            assert np.all(ph.values >= prev - 1e-12)
        prev = ph.values
        assert np.all(ph.values <= f.values + 1e-12)


def test_ph_converges_for_continuous_entries():
    for name in ("clamp1d", "double_well_1d", "exampleD_scalar"):
        f = sample(corpus_entry(name), GridSpec((1, 1), 3.0, 121))
        gap32 = np.max(f.values - pasch_hausdorff(f, 32.0).values)
        gap64 = np.max(f.values - pasch_hausdorff(f, 64.0).values)
        assert gap64 <= gap32 + 1e-12


def test_ph_rejects_nonpositive_lam():
    f = sample(corpus_entry("abs"), GridSpec((1, 1), 1.0, 5))
    with pytest.raises(ValueError):
        pasch_hausdorff(f, 0.0)


def test_ph_rejects_non_finite_lam():
    # lam = inf used to give NaN at every node (inf * 0 at the zero offset);
    # lam = True ran at lam = 1
    f = sample(corpus_entry("abs"), GridSpec((1, 1), 1.0, 5))
    for lam in (np.inf, np.nan, True, "2"):
        with pytest.raises(ValueError, match="lam"):
            pasch_hausdorff(f, lam)


# ---------------------------------------------------------------------------
# lamination hull
# ---------------------------------------------------------------------------

SCALAR = [name for name in corpus_names() if corpus_entry(name).dims == (1, 1)]


@pytest.mark.parametrize("name, radius, points", [(name, 3.0, 61) for name in SCALAR]
                         + [("abs", 10.0, 2001), ("exampleD_scalar", 10.0, 2001)])
def test_lamination_equals_convex_in_1d(name, radius, points):
    # a 1-d grid is one line, so its lamination hull is its convex envelope,
    # in one pass; at radius 10 and 2,001 points repeated chain sweeps took
    # 230 passes, each rounding a few nodes of the straight runs an ulp
    # lower, and ended up to 1.8e-13 off it
    f = sample(corpus_entry(name), GridSpec((1, 1), radius, points))
    lh, info = lamination_hull(f, full_output=True)
    assert info == {"sweeps": 1, "converged": True}
    assert np.array_equal(lh.values, convex_envelope(f).values)


@pytest.mark.parametrize("points", [41, 61])
@pytest.mark.parametrize("name", SCALAR)
def test_lamination_hull_in_1d_matches_the_per_line_oracle(name, points):
    f = sample(corpus_entry(name), GridSpec((1, 1), 10.0, points))
    ref, ref_info = oracles.lamination_hull(f, full_output=True)
    assert ref_info["converged"]
    scale = np.max(np.abs(f.values))
    assert np.all(np.abs(lamination_hull(f).values - ref.values) <= 1e-12 * scale)


@pytest.mark.parametrize("name", [name for name in SCALAR
                                  if corpus_entry(name).outside_mode == "plus-infinity"])
def test_power_law_lamination_upper_in_1d_is_the_convex_lower_family(name):
    # with no clamp collapse, the two brackets of a 1-d grid are one family
    f = sample(corpus_entry(name), GridSpec((1, 1), 10.0, 2001))
    hi = power_law_envelope(f, (2, 8, 32, 128), mode="lamination-upper")
    lo = power_law_envelope(f, (2, 8, 32, 128), mode="convex-lower")
    assert len(hi.per_p) == len(lo.per_p) == 4
    for a, b in zip(hi.per_p, lo.per_p):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(hi.limit_estimate.values, lo.limit_estimate.values)
    assert (hi.p_schedule, hi.shift, hi.caveats, hi.monotone_violation, hi.sup_gap_to_f) == \
        (lo.p_schedule, lo.shift, lo.caveats, lo.monotone_violation, lo.sup_gap_to_f)


def test_lamination_convex_input_unchanged():
    f = sample(corpus_entry("abs", dims=(2, 2)), GridSpec((2, 2), 1.0, 5))
    lh = lamination_hull(f)
    assert np.max(np.abs(lh.values - f.values)) <= 1e-12


def test_lamination_two_well_midpoint():
    # double well on 2x2 with rank-one connected bottoms at +-e11: along the
    # connecting segment the hull is the two-point laminate interpolation
    A = np.zeros((2, 2)); A[0, 0] = 1.0
    B = -A

    def dw2(arr):
        da = np.sum((arr - A) ** 2, axis=(-2, -1))
        db = np.sum((arr - B) ** 2, axis=(-2, -1))
        return np.minimum(da, db)

    g = GridSpec((2, 2), 2.0, 5)
    f = SampledFunction(g, dw2(g.nodes()).reshape(g.shape))
    lh, info = lamination_hull(f, full_output=True)
    assert info["converged"]
    mid = tuple([2] * 4)  # the origin node
    # direct two-point laminate value: 0.5*f(A) + 0.5*f(B) = 0
    assert lh.values[mid] == 0.0
    E = convex_envelope(f)
    assert np.all(E.values <= lh.values + 1e-12)
    assert np.all(lh.values <= f.values + 1e-12)


def _chord_excess(h: SampledFunction) -> float:
    """The most any node lies above a chord of one of its rank-one lines, by
    brute force over every triple j < i < k of every line and the hull's own
    chord formula ``w_j*v_j + w_k*v_k``; -inf when the grid has no line."""
    v = h.values.ravel()
    by_length = {}
    for step in rank_one_grid_directions(h.grid.dims):
        for line in oracles.sweep_lines(h.grid.shape, step):
            by_length.setdefault(len(line), []).append(line)
    worst = -np.inf
    for m, lines in by_length.items():
        vals = v[np.array(lines)]
        for j, i, k in itertools.combinations(range(m), 3):
            chord = (k - i) / (k - j) * vals[:, j] + (i - j) / (k - j) * vals[:, k]
            worst = max(worst, float(np.max(vals[:, i] - chord)))
    return worst


def _chord_certificate_cases():
    """The bench's random grid, the 2x2 corpus at P = 5 and 7 (with the
    bench's two corpus grids), and the normalized powers g^p that
    ``power_law_envelope`` hands the hull in the lamination-upper mode, at
    p = 32, 64 and 128 on P = 7."""
    rng = np.random.default_rng(DEFAULT_SEED)
    g5 = GridSpec((2, 2), 2.0, 5)
    cases = [("random P=5", SampledFunction(g5, rng.standard_normal(g5.node_count)))]
    names = [n for n in corpus_names() if corpus_entry(n).dims == (2, 2)]
    for P in (5, 7):
        cases += [(f"{n} P={P}", sample(corpus_entry(n), GridSpec((2, 2), 2.0, P)))
                  for n in names]
    for n in names:
        f = sample(corpus_entry(n), GridSpec((2, 2), 2.0, 7))
        work = f.values - min(0.0, float(f.values.min()))
        cases += [(f"{n} P=7 g^{p}", f.with_values((work / work.max()) ** p))
                  for p in (32, 64, 128)]
    return cases


CHORD_CASES = _chord_certificate_cases()


@pytest.mark.parametrize("f", [f for _, f in CHORD_CASES], ids=[n for n, _ in CHORD_CASES])
def test_lamination_hull_lies_on_or_below_every_rank_one_chord(f):
    # every line of a P <= 7 grid takes the chord kernel, so the exact stop
    # certifies the result: no node above any chord, not even by one ulp
    h, info = lamination_hull(f, full_output=True)
    assert info["converged"]
    assert _chord_excess(h) <= 0.0
    assert np.all(h.values <= f.values)


def test_lamination_line_tables_are_counted_before_they_are_built(monkeypatch):
    # on a 2x2 P = 5 grid every line has at most 5 nodes, so every proposal
    # is a chord triple; at 64 bytes each the 10,808 of them need 0.66 MB
    f = sample(corpus_entry("arctan_det"), GridSpec((2, 2), 2.0, 5))
    expected = lamination_hull(f).values
    triples = sum(math.comb(len(line), 3) for step in rank_one_grid_directions((2, 2))
                  for line in oracles.sweep_lines(f.grid.shape, step))
    monkeypatch.setenv("SUPCON_MEM_CAP_MB", str(64 * triples / 2**20 * 0.99))
    with pytest.raises(MemoryError, match=f"{triples} proposals exceed SUPCON_MEM_CAP_MB"):
        lamination_hull(f)
    with pytest.raises(MemoryError, match="SUPCON_MEM_CAP_MB"):
        power_law_envelope(f, (2.0, 4.0), mode="lamination-upper")
    monkeypatch.setenv("SUPCON_MEM_CAP_MB", str(64 * triples / 2**20 * 1.01))
    assert np.array_equal(lamination_hull(f).values, expected)


def test_lamination_idempotent():
    f = sample(corpus_entry("double_well_1d"), GridSpec((1, 1), 3.0, 61))
    l1 = lamination_hull(f)
    l2 = lamination_hull(l1)
    assert np.max(np.abs(l1.values - l2.values)) <= 1e-7


def test_rank_one_directions_deduplicated():
    dirs = rank_one_grid_directions((2, 2))
    seen = set(map(tuple, dirs.tolist()))
    assert len(seen) == len(dirs)
    # no direction is an integer multiple of another
    for i, d in enumerate(dirs):
        for j, e in enumerate(dirs):
            if i != j:
                assert not np.array_equal(2 * d, e)


# ---------------------------------------------------------------------------
# power-law family
# ---------------------------------------------------------------------------

def test_power_law_constant():
    g = GridSpec((1, 1), 1.0, 11)
    f = SampledFunction(g, np.full(11, 2.5))
    rep = power_law_envelope(f, (2, 4, 8))
    for sf in rep.per_p:
        assert np.max(np.abs(sf.values - 2.5)) <= 1e-12


def test_power_law_monotone_and_below_f():
    f = sample(corpus_entry("exampleD_scalar"), GridSpec((1, 1), 4.0, 201))
    rep = power_law_envelope(f, (2, 4, 8, 16, 32))
    assert rep.monotone_violation is None
    assert np.all(rep.limit_estimate.values <= f.values + 1e-7)


def test_power_law_clamp_collapses_to_minimum():
    f = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 10.0, 201))
    rep = power_law_envelope(f, (2, 8, 128))
    assert np.max(np.abs(rep.limit_estimate.values)) == 0.0
    assert rep.sup_gap_to_f == 1.0
    assert rep.gap_detected()
    assert any("clamp" in c for c in rep.caveats)


def test_power_law_negative_values_shift_recorded():
    f = sample(corpus_entry("arctan_det"), GridSpec((2, 2), 1.0, 5))
    rep = power_law_envelope(f, (2, 4))
    assert rep.shift > 0.0
    assert np.all(rep.limit_estimate.values <= f.values + 1e-7)


def test_power_law_coercivity_preserved():
    # f >= alpha|xi| - beta carries over to every per-p envelope
    for name, (alpha, beta) in {"exampleD_scalar": (0.5, 0.0), "abs": (1.0, 0.0),
                                "double_well_1d": (1.0, 2.0)}.items():
        entry = corpus_entry(name)
        g = GridSpec((1, 1), 3.0, 121)
        f = sample(entry, g)
        rep = power_law_envelope(f, (2, 8, 32))
        bound = alpha * np.abs(g.axis()) - beta
        for sf in rep.per_p:
            assert np.all(sf.values >= bound - 1e-9)


def test_power_law_scalar_collapse_coercive():
    # for coercive scalar entries the convex-lower limit approaches the
    # level-convex lsc envelope
    for name in ("exampleD_scalar", "double_well_1d"):
        g = GridSpec((1, 1), 4.0, 401)
        f = sample(corpus_entry(name), g)
        rep = power_law_envelope(f, (2, 8, 32, 128))
        L = level_convex_lsc_envelope(f)
        inner = np.abs(g.axis()) <= 2.0
        assert np.max(np.abs(rep.limit_estimate.values - L.values)[inner]) <= 0.05


@pytest.mark.parametrize("name, grid", [("double_well_1d", GridSpec((1, 1), 3.0, 61)),
                                        ("W_sup", GridSpec((2, 2), 2.0, 5))])
def test_power_law_lamination_upper_dominates_lower(name, grid):
    # on a 1-d grid the two families are one, so the order is tested in 2x2 too
    f = sample(corpus_entry(name), grid)
    lo = power_law_envelope(f, (2, 8), mode="convex-lower")
    hi = power_law_envelope(f, (2, 8), mode="lamination-upper")
    for a, b in zip(lo.per_p, hi.per_p):
        assert np.all(a.values <= b.values + 1e-9)


def test_power_law_schedule_validation():
    f = sample(corpus_entry("abs"), GridSpec((1, 1), 1.0, 5))
    with pytest.raises(ValueError):
        power_law_envelope(f, (4, 2))
    with pytest.raises(ValueError):
        power_law_envelope(f, (1.0, 2.0))
    with pytest.raises(ValueError, match="p_schedule"):
        power_law_envelope(f, ["2", "4"])  # was accepted
    with pytest.raises(ValueError, match="p_schedule"):
        power_law_envelope(f, 2.0)  # died in iteration, naming no setting


def test_power_law_multid_schedule_truncated_at_precision_wall():
    # the d >= 2 hull cannot resolve exponentially small powered values; the
    # schedule is cut there and the cut is recorded
    g = GridSpec((2, 2), 2.0, 3)
    f = sample(corpus_entry("exampleD"), g)
    rep = power_law_envelope(f, (2, 4, 8, 16, 32, 64, 128), mode="convex-lower")
    assert rep.p_schedule[-1] < 128.0
    assert any("dynamic range" in c for c in rep.caveats)
    assert rep.monotone_violation is None
    assert np.all(rep.limit_estimate.values <= f.values + 1e-7)


def test_power_law_multid_raises_when_every_exponent_is_dropped():
    # exampleD's least positive normalized value on this grid is 1/2, and
    # 2^-64 is already below the hull's 1e-12 window
    f = sample(corpus_entry("exampleD"), GridSpec((2, 2), 2.0, 3))
    with pytest.raises(PowerLawOverflowError, match="every scheduled exponent"):
        power_law_envelope(f, (64, 128), mode="convex-lower")


def test_power_law_overflow_guard():
    g = GridSpec((1, 1), 1.0, 5)
    f = SampledFunction(g, np.array([1e-13, 0.5, 1.0, 0.5, 1e-13]))
    with pytest.raises(PowerLawOverflowError):
        power_law_envelope(f, (2, 4))


def test_power_law_report_save(tmp_path):
    f = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 10.0, 41))
    rep = power_law_envelope(f, (2, 4))
    doc = rep.save(tmp_path, basename="pl")
    assert (tmp_path / "pl.json").exists()
    for ref in doc["per_p"]:
        assert (tmp_path / ref).exists()
    assert (tmp_path / doc["limit"]).exists()


def test_lower_hull_small_inputs():
    assert lower_hull_1d(np.array([0.0]), np.array([3.0])).tolist() == [3.0]
    assert lower_hull_1d(np.array([0.0, 1.0]), np.array([3.0, 1.0])).tolist() == [3.0, 1.0]
