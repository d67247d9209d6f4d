import itertools

import numpy as np
import pytest

from supcon.envelope import (PowerLawOverflowError, convex_envelope,
                             lamination_hull, level_convex_lsc_envelope,
                             lower_hull_1d, pasch_hausdorff,
                             power_law_envelope, rank_one_grid_directions)
from supcon.funcspace import GridSpec, SampledFunction, corpus_entry, sample


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
    # no silent fallback: a Qhull failure under both Qt and QJ, or a lifted
    # hull without lower facets, is an error
    from scipy.spatial import QhullError

    from supcon import envelope

    f = SampledFunction(GridSpec((1, 2), 1.0, 5), np.random.default_rng(3).normal(size=25))
    calls = []

    def failing(points, qhull_options=None):
        calls.append(qhull_options)
        raise QhullError("QH6154 simulated failure")

    monkeypatch.setattr(envelope, "ConvexHull", failing)
    with pytest.raises(RuntimeError, match="Qt and QJ"):
        convex_envelope(f)
    assert calls == ["Qt", "QJ"]

    class UpperOnly:
        def __init__(self, points, qhull_options=None):
            self.equations = np.array([[0.0, 0.0, 1.0, -1.0]])

    monkeypatch.setattr(envelope, "ConvexHull", UpperOnly)
    with pytest.raises(RuntimeError, match="no lower facets"):
        convex_envelope(f)


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

def test_lamination_equals_convex_in_1d():
    for name in ("clamp1d", "double_well_1d", "exampleD_scalar", "abs"):
        f = sample(corpus_entry(name), GridSpec((1, 1), 3.0, 61))
        lh = lamination_hull(f)
        assert np.max(np.abs(lh.values - convex_envelope(f).values)) <= 1e-9


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
    for name in ("exampleD_scalar", "abs", "double_well_1d"):
        entry = corpus_entry(name)
        alpha, beta = entry.coercivity
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


def test_power_law_lamination_upper_dominates_lower():
    g = GridSpec((1, 1), 3.0, 61)
    f = sample(corpus_entry("double_well_1d"), g)
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
