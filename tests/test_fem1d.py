import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from supcon.envelope import level_convex_lsc_envelope
from supcon.fem1d import (ORACLE_POINTS, FeMinimizeResult, FeOptions, _minimize_schedule,
                          _objective, _scalar_eval, envelope_oracle_1d,
                          gamma_limit_experiment, minimize_Fp)
from supcon.funcspace import GridSpec, corpus_entry, interpolating_evaluator, sample

OPTS = FeOptions()


def test_abs_at_zero_slope():
    res = minimize_Fp(corpus_entry("abs"), 2.0, 0.0, OPTS)
    assert res.min_value == 0.0
    assert np.max(np.abs(res.gradient_per_cell)) == 0.0


def test_double_well_oscillates_to_zero():
    res = minimize_Fp(corpus_entry("double_well_1d"), 2.0, 0.0, OPTS)
    assert res.min_value == 0.0
    slopes = np.unique(np.round(res.gradient_per_cell, 12))
    assert set(slopes.tolist()) <= {-1.0, 0.0, 1.0}


def test_clamp_large_p_approaches_lslc():
    res = minimize_Fp(corpus_entry("clamp1d"), 128.0, 2.0, OPTS)
    # level-convex lsc envelope of the clamp fixes the value 1 at t = 2
    grid = GridSpec((1, 1), OPTS.slope_bound, ORACLE_POINTS)
    lslc = level_convex_lsc_envelope(sample(corpus_entry("clamp1d"), grid))
    target = float(np.interp(2.0, grid.axis(), lslc.values))
    assert target == 1.0
    assert abs(res.min_value - target) <= 0.05


@pytest.mark.parametrize("name,xis", [
    ("clamp1d", (0.5, 1.0, 2.0)),
    ("exampleD_scalar", (0.0, 0.5, 1.5)),
    ("double_well_1d", (0.0, 1.5)),
])
def test_relaxation_identity_two_percent(name, xis):
    entry = corpus_entry(name)
    for p in (2.0, 8.0, 32.0):
        for xi in xis:
            fe = minimize_Fp(entry, p, xi, OPTS).min_value
            oracle = envelope_oracle_1d(entry, xi, p, slope_bound=OPTS.slope_bound)
            assert abs(fe - oracle) <= 0.02 * abs(oracle) + 1e-9, (name, p, xi)


def test_mean_constraint_exact():
    for xi in (-1.3, 0.0, 2.7):
        res = minimize_Fp(corpus_entry("exampleD_scalar"), 8.0, xi, OPTS)
        assert abs(res.gradient_per_cell.mean() - xi) <= 1e-10 * (1 + abs(xi))


def test_monotone_in_p():
    entry = corpus_entry("clamp1d")
    vals = [minimize_Fp(entry, p, 1.0, OPTS).min_value for p in (2.0, 4.0, 8.0, 16.0, 32.0)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 0.005 * max(1.0, abs(a))


def test_mesh_and_result_validation():
    with pytest.raises(ValueError, match="cells"):
        FeOptions(cells=1)
    # a count that is not an integer died inside numpy, naming no setting;
    # a scan of fewer than two nodes ran silently
    for name, bad in [("cells", v) for v in (64.0, 2.5, np.nan)] + \
                     [("scan_points", v) for v in (161.0, 2.5, np.nan, 1, 0, -3)]:
        with pytest.raises(ValueError, match=name):
            FeOptions(**{name: bad})
    for retired in ("restarts", "seed"):  # the FE search draws no random numbers
        with pytest.raises(TypeError, match=retired):
            FeOptions(**{retired: 1})
    for bound in (np.nan, np.inf, 0.0, -1.0, True, "10"):
        with pytest.raises(ValueError, match="slope_bound"):
            FeOptions(slope_bound=bound)
    with pytest.raises(ValueError):
        FeMinimizeResult(p=2.0, min_value=0.0,
                         gradient_per_cell=np.array([1.0, 1.0]),
                         iterations=0, converged=True, target_mean=0.0)
    with pytest.raises(ValueError):
        minimize_Fp(corpus_entry("abs"), 0.5, 0.0, OPTS)
    # xi = True ran at slope 1 and xi = "0.5" died in abs(), naming no setting
    for xi in (np.nan, 10.5, -np.inf, True, "0.5"):
        with pytest.raises(ValueError, match="boundary slope xi"):
            minimize_Fp(corpus_entry("abs"), 2.0, xi, OPTS)


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, 0.5, True, "2"])
def test_p_outside_one_to_infinity_rejected(p):
    # at p = NaN minimize_Fp returned NaN flagged converged; at p = inf both
    # returned 81.0, the largest value of f on the slope box; p = True ran
    # at p = 1
    with pytest.raises(ValueError, match="p must"):
        minimize_Fp(corpus_entry("double_well_1d"), p, 0.0, OPTS)
    with pytest.raises(ValueError, match="p must"):
        envelope_oracle_1d(corpus_entry("double_well_1d"), 0.0, p, slope_bound=10.0)


def test_envelope_oracle_rejects_a_bad_slope_box_or_xi():
    # abs at p = 2 gave 10.0 at xi = 20 on the box [-10, 10], NaN at
    # xi = NaN, and 10.0 at xi = 1 with slope_bound = -10 (a reversed grid)
    entry = corpus_entry("abs")
    for bound in (np.nan, np.inf, 0.0, -10.0, True, "10"):
        with pytest.raises(ValueError, match="slope_bound"):
            envelope_oracle_1d(entry, 1.0, 2.0, slope_bound=bound)
    for xi in (20.0, -10.5, np.nan, np.inf, True, "0.5"):
        with pytest.raises(ValueError, match="boundary slope xi"):
            envelope_oracle_1d(entry, xi, 2.0, slope_bound=10.0)
    assert envelope_oracle_1d(entry, -10.0, 2.0, slope_bound=10.0) == 10.0


def test_negative_supremand_rejected():
    def signed(arr):
        return np.asarray(arr)[..., 0, 0]

    with pytest.raises(ValueError):
        envelope_oracle_1d(signed, 0.0, 2.0, slope_bound=1.0)
    with pytest.raises(ValueError):
        minimize_Fp(signed, 2.0, 0.0, FeOptions(cells=8))


def test_nan_supremand_rejected():
    def nan_well(arr):
        t = np.asarray(arr)[..., 0, 0]
        return np.where(np.abs(t) > 1.9, np.nan, np.minimum((t - 1) ** 2, (t + 1) ** 2))

    def nan_gap(arr):
        # NaN only strictly between the scan nodes 0 and 0.125 of the default
        # options, so only an adjustment slope c can land on it
        t = np.asarray(arr)[..., 0, 0]
        return np.where((t > 0.01) & (t < 0.11), np.nan, np.abs(t))

    with pytest.raises(ValueError):
        envelope_oracle_1d(nan_well, 0.0, 8.0, slope_bound=10.0)
    with pytest.raises(ValueError):
        minimize_Fp(nan_well, 8.0, 0.0, OPTS)
    with pytest.raises(ValueError):
        minimize_Fp(nan_gap, 8.0, 0.3, OPTS)
    with pytest.raises(ValueError):
        _objective(_scalar_eval(nan_gap, 10.0), np.array([0.05, -0.05]), 8.0, 0.5, 1.0)


def test_nan_between_hull_support_nodes_rejected():
    # NaN only strictly between the default scan nodes 0 and 0.125, on the
    # hull-support node 0.01 of the slope box
    def nan_gap(arr):
        t = np.asarray(arr)[..., 0, 0]
        return np.where((t > 0.005) & (t < 0.015), np.nan, np.abs(t))

    for p in (8.0, 3.3):
        with pytest.raises(ValueError, match="finite"):
            minimize_Fp(nan_gap, p, 1.0)


def test_polish_batches_its_f_calls():
    # each polish step scores the rest of every walk's round in one f call
    entry = corpus_entry("clamp1d")
    calls = []

    def counted(arr):
        calls.append(len(arr))
        return entry(arr)

    res = minimize_Fp(counted, 8.0, 1.0, OPTS)
    assert len(calls) <= 60
    assert res.iterations == 8363


def test_infinite_supremand_rejected():
    # a plus-infinity sample queried past its radius is +inf on part of the
    # slope box; the scale would be inf and every powered value NaN
    f = interpolating_evaluator(sample(corpus_entry("abs"), GridSpec((1, 1), 5.0, 11)))
    with pytest.raises(ValueError, match="finite"):
        minimize_Fp(f, 8.0, 1.0, FeOptions(cells=16))
    with pytest.raises(ValueError, match="finite"):
        envelope_oracle_1d(f, 1.0, 8.0, slope_bound=10.0)


def test_floor_adjustment_slope_kept_on_a_wide_slope_box():
    # xi = -G/3 is a node of the 7-point scan; on 36 cells the scan pair
    # (-G, G) takes k = 24 cells at -G, 11 at G and c = G, which rounds to
    # G + 1.5e-11.  That floor k is a convex combination of a and b, so the
    # pair stays feasible, and the tent's zeros at -G and G give F_p = 0
    G = 1e4

    def tent(arr):
        return np.maximum(G - np.abs(np.asarray(arr)[..., 0, 0]), 0.0)

    opts = FeOptions(cells=36, slope_bound=G, scan_points=7)
    xi = float(np.linspace(-G, G, 7)[2])
    for p in (1.0, 2.0, 8.0):
        res = minimize_Fp(tent, p, xi, opts)
        assert res.min_value == 0.0, p
        g = res.gradient_per_cell
        assert np.sum(g == -G) == 24 and np.all(np.abs(g[g != -G] - G) <= 1e-14 * G)
        assert oracles.minimize_Fp(tent, p, xi, opts).min_value == 0.0


def test_f_is_read_inside_the_slope_box():
    # rounding puts a slope 5.8e-15 above 3, where the plus-infinity
    # interpolant of a radius-3 sample is +inf; f is read at its clip to the box
    f = interpolating_evaluator(sample(corpus_entry("abs"), GridSpec((1, 1), 3.0, 201)))
    res = minimize_Fp(f, 1.0, -2.7, FeOptions(slope_bound=3.0))
    assert abs(res.min_value - 2.7) <= 1e-12


SCALAR_ENTRIES = ("abs", "clamp1d", "double_well_1d", "exampleD_scalar")


def _piecewise_linear(seed, G):
    rng = np.random.default_rng(seed)
    knots = np.sort(rng.uniform(-1.2 * G, 1.2 * G, size=rng.integers(2, 8)))
    values = rng.uniform(0.0, 3.0, size=len(knots)) * (rng.random(len(knots)) < 0.8)
    return lambda arr: np.interp(np.asarray(arr)[..., 0, 0], knots, values)


FE_CASES = (st.sampled_from(SCALAR_ENTRIES + ("piecewise-linear",)), st.integers(0, 2**32 - 1),
            st.sampled_from([1.0, 2.5, 10.0]), st.integers(3, 41),
            st.sampled_from(["node", "midpoint", "uniform", "bound"]), st.floats(0.0, 1.0),
            st.integers(2, 64))


def _fe_case(name, seed, G, P, where, u, cells):
    """(f, xi, opts) of one drawn FE case: xi on a scan node, halfway between
    two, anywhere, or at -G or G."""
    step = 2.0 * G / (P - 1)
    i = round(u * (P - 2))
    xi = {"node": np.linspace(-G, G, P)[i], "midpoint": -G + (i + 0.5) * step,
          "uniform": -G + 2.0 * G * u, "bound": G if u < 0.5 else -G}[where]
    f = (_piecewise_linear(seed, G) if name == "piecewise-linear"
         else corpus_entry(name))
    return f, float(xi), FeOptions(cells=cells, slope_bound=G, scan_points=P)


def _outcome(minimize, f, p, xi, opts):
    try:
        return minimize(f, p, xi, opts)
    except (ValueError, OverflowError) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(*FE_CASES, st.sampled_from([1.0, 2.0, 3.3, 8.0, 128.0]))
@example("clamp1d", 0, 10.0, 161, "node", 0.5535, 64, 8.0)  # the default scan, xi = 1
# near-ties that an array ``**`` in place of the Python-float pows breaks: the
# powers (first) and the root (second and third) move the FE minimum
@example("exampleD_scalar", 455413639, 1.0, 19, "midpoint", 0.9462603322237104, 26, 3.3)
@example("exampleD_scalar", 2222323601, 1.0, 25, "midpoint", 0.7430379600974436, 43, 128.0)
@example("piecewise-linear", 1719417155, 10.0, 28, "node", 0.7192468659160054, 52, 3.3)
# a slope box so wide that rounding puts 8 floor-k adjustment slopes of the
# polish a few ulps past it, which are kept, while 1,586 ceil-k slopes outside
# it are skipped within speculated batches
@example("piecewise-linear", 3996984713, 1e4, 7, "node", 0.8749892669232, 57, 3.3)
def test_minimize_Fp_matches_per_pair_oracle(name, seed, G, P, where, u, cells, p):
    f, xi, opts = _fe_case(name, seed, G, P, where, u, cells)
    got = _outcome(minimize_Fp, f, p, xi, opts)
    ref = _outcome(oracles.minimize_Fp, f, p, xi, opts)
    if isinstance(ref, type) or isinstance(got, type):
        assert got == ref
        return
    assert got.min_value == ref.min_value
    assert np.array_equal(got.gradient_per_cell, ref.gradient_per_cell)
    assert (got.iterations, got.converged) == (ref.iterations, ref.converged)


def _solve_schedule(f, ps, xi, opts):
    return _minimize_schedule(_scalar_eval(f, opts.slope_bound), ps, xi, opts)[0]


SCHEDULES = st.lists(st.sampled_from([1.0, 2.0, 3.3, 8.0, 128.0]), min_size=1, max_size=4,
                     unique=True).map(lambda ps: tuple(sorted(ps)))


@settings(max_examples=40, deadline=None)
@given(*FE_CASES, SCHEDULES)
@example("clamp1d", 0, 10.0, 161, "node", 0.5535, 64, (2.0, 8.0, 128.0))
# the near-ties of test_minimize_Fp_matches_per_pair_oracle, each inside a
# schedule with other exponents
@example("exampleD_scalar", 455413639, 1.0, 19, "midpoint", 0.9462603322237104, 26,
         (1.0, 3.3, 8.0))
@example("exampleD_scalar", 2222323601, 1.0, 25, "midpoint", 0.7430379600974436, 43,
         (2.0, 3.3, 128.0))
@example("piecewise-linear", 1719417155, 10.0, 28, "node", 0.7192468659160054, 52,
         (1.0, 2.0, 3.3, 128.0))
@example("piecewise-linear", 3996984713, 1e4, 7, "node", 0.8749892669232, 57,
         (2.0, 3.3, 8.0))
def test_schedule_solve_matches_the_per_exponent_oracle(name, seed, G, P, where, u, cells, ps):
    # one pass over the schedule gives at each p the oracle's run at that p
    # alone; if a run at some p raises, the pass raises an error of one of them
    f, xi, opts = _fe_case(name, seed, G, P, where, u, cells)
    refs = [_outcome(oracles.minimize_Fp, f, p, xi, opts) for p in ps]
    got = _outcome(_solve_schedule, f, ps, xi, opts)
    errors = {ref for ref in refs if isinstance(ref, type)}
    if errors or isinstance(got, type):
        assert got in errors
        return
    assert [r.p for r in got] == list(ps)
    for row, ref in zip(got, refs):
        assert row.min_value == ref.min_value, row.p
        assert np.array_equal(row.gradient_per_cell, ref.gradient_per_cell), row.p
        assert (row.iterations, row.converged) == (ref.iterations, ref.converged), row.p


def test_schedule_solve_batches_its_f_calls():
    # 3 tables, 2 objective calls per p and one call per lockstep step: 73
    # calls for 7 exponents, where 7 runs of one exponent each make 385
    entry = corpus_entry("clamp1d")
    calls = []

    def counted(arr):
        calls.append(len(arr))
        return entry(arr)

    ps = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
    res = _solve_schedule(counted, ps, 1.0, OPTS)
    assert len(calls) <= 75
    assert res[2].iterations == 8363


def test_gamma_evaluates_the_slope_grid_once():
    # the grid of ORACLE_POINTS slopes serves the hull supports of every p,
    # the oracle rows and the lsc envelope; it was evaluated 2 times per p
    # and once more, 9 times for this schedule
    entry = corpus_entry("double_well_1d")
    x = np.linspace(-OPTS.slope_bound, OPTS.slope_bound, ORACLE_POINTS)
    seen = []

    def recording(arr):
        seen.append(np.asarray(arr)[..., 0, 0].copy())
        return entry(arr)

    rep = gamma_limit_experiment(recording, 0.0, (2, 8, 32, 128), OPTS)
    assert sum(len(t) == len(x) and np.array_equal(t, x) for t in seen) == 1
    for row in rep.rows:
        assert row["oracle_value"] == envelope_oracle_1d(entry, 0.0, row["p"],
                                                         slope_bound=OPTS.slope_bound)


def test_gamma_exampleD_consistent():
    entry = corpus_entry("exampleD_scalar")
    rep = gamma_limit_experiment(entry, 1.5, (2, 4, 8, 16, 32, 64, 128), OPTS,
                                 name="exampleD_scalar")
    assert rep.classification == "consistent-with-curl-infty"
    assert abs(rep.rows[-1]["normalized"] - rep.f_xi) <= 0.05 * rep.f_xi
    assert rep.lslc_at_xi == rep.f_xi


def test_gamma_clamp_gap_detected():
    entry = corpus_entry("clamp1d")
    rep = gamma_limit_experiment(entry, 1.0, (2, 4, 8, 16, 32, 64, 128), OPTS,
                                 name="clamp1d")
    assert rep.classification == "gap-detected"
    assert rep.rows[-1]["normalized"] < rep.f_xi


def test_gamma_constant_supremand():
    def const(arr):
        return np.full(np.asarray(arr).shape[:-2], 0.7)

    rep = gamma_limit_experiment(const, 0.3, (2, 8, 32), FeOptions(cells=16),
                                 name="const")
    for row in rep.rows:
        assert row["normalized"] == pytest.approx(0.7, abs=1e-12)
    assert rep.classification == "consistent-with-curl-infty"


def test_gamma_report_save(tmp_path):
    entry = corpus_entry("clamp1d")
    rep = gamma_limit_experiment(entry, 1.0, (2, 4), FeOptions(cells=16),
                                 name="clamp1d")
    rep.save(tmp_path, basename="g")
    assert (tmp_path / "g.json").exists()
    assert (tmp_path / "g_gradients.csv").exists()


def test_schedule_validation():
    with pytest.raises(ValueError):
        gamma_limit_experiment(corpus_entry("clamp1d"), 0.0, (8, 2))
    # a bare number died in iteration and xi = True ran and classified
    with pytest.raises(ValueError, match="p_schedule"):
        gamma_limit_experiment(corpus_entry("clamp1d"), 0.0, 2.0)
    for xi in (True, "0.5"):
        with pytest.raises(ValueError, match="boundary slope xi"):
            gamma_limit_experiment(corpus_entry("clamp1d"), xi, (2, 4), FeOptions(cells=16))
