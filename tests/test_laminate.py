import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supcon.classify import (_field_witness, _measure_gaps, _measure_witness,
                             _segment_witness, _two_gradient_candidates,
                             replay_witness)
from supcon.funcspace import corpus_entry, corpus_names
from supcon.laminate import (DEFAULT_DELTA_SCHEDULE,
                             check_curl_young_on_laminates,
                             check_periodic_weak_morrey,
                             search_strong_morrey_violation)
from supcon.matspace import is_rank_one_connected

SEED = 7
E11 = np.array([[1.0, 0.0], [0.0, 0.0]])


def _args(entry, budget=10_000):
    return dict(tol=1e-9, budget=budget, seed=SEED, radius=2.0,
                special_points=entry.special_points)


def _measure_record(f, atoms, weights):
    """The measure record of one measure, scored as the checkers score it."""
    atoms, weights = np.asarray(atoms, float)[None], np.asarray(weights, float)[None]
    (f_bary,), (sup,) = _measure_gaps(f, atoms, weights)
    return _measure_witness(atoms[0], weights[0], f_bary, sup)


def _trees(order, count=50):
    rng = np.random.default_rng(SEED)
    bar = rng.uniform(-2.0, 2.0, size=(count, 2, 2))
    atoms, wts = oracles._tree_atoms_batch(bar, order, rng, 2.0)
    return bar, atoms, wts


# ---------------------------------------------------------------------------
# laminate structure: the splitting trees and the measure records
# ---------------------------------------------------------------------------

def test_leaf_barycenter():
    # a tree of order zero is the Dirac mass at its barycenter
    bar, atoms, wts = _trees(0)
    assert np.array_equal(atoms[:, 0], bar)
    assert np.array_equal(wts, np.ones((len(bar), 1)))


def test_split_barycenter_midpoint():
    entry = corpus_entry("one_minus_chi_pair")
    w = _measure_record(entry, [E11, -E11], [0.5, 0.5])
    assert np.array_equal(w["barycenter"], np.zeros((2, 2)))
    assert w["f_barycenter"] == 1.0 and w["sup_support"] == 0.0
    assert replay_witness(entry, w) == 1.0


def test_second_order_barycenter_two_ways():
    # the record's barycenter (one weighted sum) and the replay's (a running
    # sum over the atoms) agree with the tree's
    bar, atoms, wts = _trees(2)
    entry = corpus_entry("arctan_det")
    for b, a, w in zip(bar, atoms, wts):
        rec = _measure_record(entry, a, w)
        assert np.max(np.abs(np.asarray(rec["barycenter"]) - b)) <= 1e-12
        running = sum(wt * np.asarray(m) for m, wt in rec["atoms"])
        assert np.max(np.abs(running - b)) <= 1e-12


def test_split_requires_rank_one_barycenters():
    # every split of a sampled tree, at every level, joins two barycenters
    # that differ by a rank-one matrix
    _, pts, wts = _trees(3)
    while pts.shape[1] > 1:
        half = pts.shape[1] // 2
        for left, right in zip(pts[:, :half].reshape(-1, 2, 2),
                               pts[:, half:].reshape(-1, 2, 2)):
            assert is_rank_one_connected(left, right)
        wl, wr = wts[:, :half, None, None], wts[:, half:, None, None]
        pts = (wl * pts[:, :half] + wr * pts[:, half:]) / (wl + wr)
        wts = wts[:, :half] + wts[:, half:]


def test_nu_ess_sup():
    entry = corpus_entry("one_minus_chi_pair")
    assert _measure_record(entry, [E11, -E11], [0.5, 0.5])["sup_support"] == 0.0
    assert _measure_record(entry, [np.zeros((2, 2))], [1.0])["sup_support"] == 1.0
    # a zero-weight atom is outside the support
    assert _measure_record(entry, [E11, np.zeros((2, 2))],
                           [1.0, 0.0])["sup_support"] == 0.0


def _nan_beyond_1_5(arr):
    # undefined (NaN) for t > 1.5, a bump of height 1 on |t| < 0.3, else 0
    t = np.asarray(arr, dtype=float)[..., 0, 0]
    return np.where(t > 1.5, np.nan, np.where(np.abs(t) < 0.3, 1.0, 0.0))


@pytest.mark.parametrize("swap", [False, True])
def test_nan_atom_counts_as_inf_in_either_order(swap):
    # the laminate of -1 and 2 has its barycenter 0 on the bump at weight
    # 2/3, but f is undefined at 2: its ess sup is +inf in either order, so
    # the battery (one pair, five weights) has no witness
    A, B = np.array([[-1.0]]), np.array([[2.0]])
    pair = (B, A) if swap else (A, B)
    v = check_curl_young_on_laminates(_nan_beyond_1_5, (1, 1), budget=5,
                                      special_points=pair)
    assert not v.violated and v.budget == 5
    lam = 1.0 / 3.0 if swap else 2.0 / 3.0
    measure = _measure_record(_nan_beyond_1_5, pair, [lam, 1.0 - lam])
    # the scorer's ess sup is NaN, which drops the gap; replay reads it as +inf
    assert np.isnan(measure["sup_support"])
    assert replay_witness(_nan_beyond_1_5, measure) == -np.inf
    field = _field_witness("two-gradient-field", np.zeros((1, 1)), 1.0, pair,
                           np.inf, theta=lam)
    assert replay_witness(_nan_beyond_1_5, field) == -np.inf


def test_sample_laminates_valid():
    for order in (1, 2, 3):
        bar, atoms, wts = _trees(order)
        assert atoms.shape == (50, 2 ** order, 2, 2)
        assert np.all(wts > 0)
        assert np.max(np.abs(wts.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.einsum("bm,bmij->bij", wts, atoms)
                             - bar)) <= 1e-12


def _relu_net(seed, dims, width=6):
    """A random piecewise-linear f: a signed sum of ReLUs of affine maps."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(width, dims[0] * dims[1]))
    d, a = rng.normal(size=width), rng.normal(size=width)

    def f(arr):
        x = np.asarray(arr, dtype=float)
        x = x.reshape(*x.shape[:-2], -1)
        return np.maximum(x @ c.T + d, 0.0) @ a
    return f


def _reduced_splits(f, atoms, wts):
    """Rebuild each tree's internal nodes from its leaves, every node the
    convex combination of its two children that a segment witness forms (the
    children of node j of a level of M nodes are nodes j and j + M of the
    next), then walk down from the root to the child with the larger value.
    Returns the barycenter value minus the leaves' max, and the split of
    largest gap on that path as (left, right, lam, gap), per tree."""
    levels = [(atoms, None)]
    pts, w = atoms, wts
    while pts.shape[1] > 1:
        half = pts.shape[1] // 2
        lam = w[:, :half] / (w[:, :half] + w[:, half:])
        pts = (lam[..., None, None] * pts[:, :half]
               + (1.0 - lam)[..., None, None] * pts[:, half:])
        w = w[:, :half] + w[:, half:]
        levels.insert(0, (pts, lam))
    vals = [f(p) for p, _ in levels]
    g = vals[0][:, 0] - vals[-1].max(axis=1)
    splits = []
    for b in range(len(atoms)):
        j, best = 0, None
        for k in range(len(levels) - 1):
            kids = (j, j + 2 ** k)
            gap = vals[k][b, j] - max(vals[k + 1][b, c] for c in kids)
            if best is None or gap > best[3]:
                left, right = (levels[k + 1][0][b, c] for c in kids)
                best = (left, right, float(levels[k][1][b, j]), gap)
            j = max(kids, key=lambda c: vals[k + 1][b, c])
        splits.append(best)
    return g, splits


def _check_tree_reduction(f, dims, order, seed, count=32):
    """Assert the finite-order reduction on ``count`` random trees; returns
    how many trees violate the laminate inequality."""
    rng = np.random.default_rng(seed)
    bar = rng.uniform(-2.0, 2.0, size=(count, *dims))
    atoms, wts = oracles._tree_atoms_batch(bar, order, rng, 2.0)
    g, splits = _reduced_splits(f, atoms, wts)
    violating = 0
    for g_b, (left, right, lam, gap) in zip(g, splits):
        if not g_b > 0:
            continue
        violating += 1
        assert order * gap >= g_b - 1e-12
        assert is_rank_one_connected(left, right)
        witness = _segment_witness(left, right, lam, f)
        assert witness["gap"] == pytest.approx(gap, abs=1e-12)
        assert replay_witness(f, witness) == pytest.approx(witness["gap"], abs=1e-12)
    return violating


_SMALL_ENTRIES = [n for n in corpus_names() if corpus_entry(n).dims in ((1, 1), (2, 2))]


def _supremand(name, seed):
    if name.startswith("relu"):
        dims = (1, 1) if name.endswith("(1, 1)") else (2, 2)
        return _relu_net(seed, dims), dims
    entry = corpus_entry(name)
    return entry, entry.dims


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_SMALL_ENTRIES + ["relu (1, 1)", "relu (2, 2)"]),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_a_violating_tree_has_a_rank_one_split_of_gap_g_over_order(name, order, seed):
    # a tree of order k with f(barycenter) - max over its leaves = g > 0
    # falls by g over the k steps of the larger-child path, so one split on
    # it is a rank-one segment with gap >= g/k: the laminate inequality on
    # finite laminates is rank-one level convexity
    f, dims = _supremand(name, seed)
    _check_tree_reduction(f, dims, order, seed)


@pytest.mark.parametrize("name", ["double_well_1d", "relu (1, 1)", "relu (2, 2)"])
def test_the_tree_reduction_sees_violating_trees(name):
    # the property above is not vacuous: order-3 trees violate the
    # inequality on these supremands
    f, dims = _supremand(name, SEED)
    assert _check_tree_reduction(f, dims, 3, SEED, count=200) > 0


# ---------------------------------------------------------------------------
# laminate-side inequality
# ---------------------------------------------------------------------------

def test_curl_young_clamp_holds():
    entry = corpus_entry("clamp1d")
    v = check_curl_young_on_laminates(entry, entry.dims, **_args(entry))
    assert not v.violated


def test_curl_young_pair_violated_by_simple_laminate():
    entry = corpus_entry("one_minus_chi_pair")
    v = check_curl_young_on_laminates(entry, entry.dims, **_args(entry))
    assert v.violated
    assert v.witness["gap"] == 1.0
    assert replay_witness(entry, v.witness) == 1.0


def test_curl_young_arctan_det_holds_10k():
    entry = corpus_entry("arctan_det")
    v = check_curl_young_on_laminates(entry, entry.dims, **_args(entry, budget=10_000))
    assert not v.violated
    assert v.budget >= 10_000


def test_curl_young_chi_det_holds():
    entry = corpus_entry("chi_det")
    v = check_curl_young_on_laminates(entry, entry.dims, **_args(entry, budget=5_000))
    assert not v.violated


def test_curl_young_segment_stream_finds_and_replays_a_violation():
    # no special points: the rank-one segment stream's first Halton block,
    # 20_000 // 6 = 3_333 pairs at weight 1/4, crosses the barrier between
    # the rank-one connected wells +-e11 of a 2x2 double well (on a 1x1 entry
    # the rank-one run is the level-convexity run); the witness is the
    # segment's two-atom measure
    A = np.zeros((2, 2))
    A[0, 0] = 1.0

    def two_well(arr):
        return np.minimum(np.sum((arr - A) ** 2, axis=(-2, -1)),
                          np.sum((arr + A) ** 2, axis=(-2, -1)))

    v = check_curl_young_on_laminates(two_well, (2, 2), budget=20_000)
    assert v.violated and v.budget == 3_333
    assert v.witness["kind"] == "measure" and len(v.witness["atoms"]) == 2
    assert replay_witness(two_well, v.witness) == v.witness["gap"]


def test_periodic_search_rejects_a_nan_radius():
    # its samples were all NaN, and it reported "holds"
    with pytest.raises(ValueError, match="radius"):
        check_periodic_weak_morrey(corpus_entry("abs"), [[0.5]], (1, 1), budget=1000,
                                   radius=np.nan)


@pytest.mark.parametrize("budget", [1, 10, 40])
def test_curl_young_stops_at_budget(budget):
    # the rank-one run, special-pair battery included, is cut at the budget
    for name in corpus_names():
        entry = corpus_entry(name)
        v = check_curl_young_on_laminates(entry, entry.dims, **_args(entry, budget))
        assert v.budget <= budget, name
        assert v.violated or v.budget == budget, name


# ---------------------------------------------------------------------------
# test fields: the two-gradient witnesses
# ---------------------------------------------------------------------------

def test_realize_1d_hat():
    # the periodic witness of the double well at 0 is the +-1 hat: slopes
    # -1 and 1 on halves, boundary values at most theta(1-theta)|2| = 1/2
    entry = corpus_entry("double_well_1d")
    v = check_periodic_weak_morrey(entry, np.zeros((1, 1)), entry.dims,
                                   **_args(entry, budget=2_000))
    assert v.witness["field_values"] == [[[-1.0]], [[1.0]]]
    assert v.witness["theta"] == 0.5
    assert replay_witness(entry, v.witness) == 1.0


def test_realize_degenerate_lambda_gives_zero_field():
    # xi at an end of a special pair: the laminate of weight 0 or 1 is the
    # Dirac at xi, whose field is zero, so the stream does not emit it and
    # goes straight to its Halton batches
    A, B = E11, -E11
    kw = dict(seed=SEED, count=5, radius=2.0)
    for xi in (A, B):
        got = list(_two_gradient_candidates(xi, (2, 2), special_points=(A, B), **kw))
        want = list(_two_gradient_candidates(xi, (2, 2), special_points=(), **kw))
        assert len(got) == len(want) == 1
        for g, w in zip(got[0], want[0]):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("name", corpus_names())
def test_periodic_spend_stays_within_budget(name):
    # the special-pair battery stops at the budget like every other stream
    entry = corpus_entry(name)
    for xi in entry.special_points:
        for budget in (1, 3, 10):
            v = check_periodic_weak_morrey(entry, xi, entry.dims,
                                           **_args(entry, budget=budget))
            assert v.budget <= budget, (xi, budget, v.budget)


@pytest.mark.parametrize("name", [n for n in corpus_names()
                                  if corpus_entry(n).dims == (2, 2)])
def test_two_gradient_stream_is_rank_one(name):
    # a Lipschitz field with exactly two gradients exists only when their
    # jump is rank-one, so every candidate of the stream the three Morrey
    # searches share, special-pair battery included, must be rank-one
    entry = corpus_entry(name)
    for xi in entry.special_points:
        for Mp, Mm, _ in _two_gradient_candidates(
                xi, entry.dims, seed=SEED, count=50, radius=2.0,
                special_points=entry.special_points):
            for a, b in zip(Mp, Mm):
                assert is_rank_one_connected(a, b), (xi, a, b)


def test_realize_rejects_non_rank_one():
    # I and 0 are not rank-one connected: the periodic search never realizes
    # them as a sawtooth through their midpoint, so 1 - chi_{I, 0} holds there
    def f(arr):
        arr = np.asarray(arr, dtype=float)
        hit = (np.all(arr == np.eye(2), axis=(-2, -1))
               | np.all(arr == 0.0, axis=(-2, -1)))
        return np.where(hit, 0.0, 1.0)
    pts = (np.eye(2), np.zeros((2, 2)))
    v = check_periodic_weak_morrey(f, 0.5 * np.eye(2), (2, 2), tol=1e-9,
                                   budget=500, seed=SEED, special_points=pts)
    assert not v.violated and v.budget == 500


def test_doubling_layers_halves_boundary():
    # the scaled-laminate rows: boundary values theta(1-theta)|M+ - M-|/layers
    # stay within each delta, and halve exactly where the layers double
    entry = corpus_entry("one_minus_chi_pair")
    mid = 0.5 * (entry.special_points[0] + entry.special_points[1])
    w = search_strong_morrey_violation(entry, mid, entry.dims, **_args(entry)).witness
    assert w["family"] == "scaled-periodic-laminate"
    Mp, Mm = (np.asarray(m) for m in w["field_values"])
    c = w["theta"] * (1.0 - w["theta"]) * np.linalg.norm(Mp - Mm)
    layers = w["layers_per_delta"]
    for k, row in enumerate(w["per_delta"]):
        assert c / layers[k] <= row["delta"]
        if k and layers[k] == 2 * layers[k - 1]:
            assert c / layers[k] == (c / layers[k - 1]) / 2.0


def test_field_measure_duality():
    # a sawtooth and its laminate replay to the same gap: the field's
    # gradient values and volume fractions are the laminate's atoms and weights
    entry = corpus_entry("one_minus_chi_pair")
    lam = 0.25
    mid = lam * E11 + (1.0 - lam) * (-E11)
    f_mid = float(entry(mid))
    ess = max(float(entry(E11)), float(entry(-E11)))
    field = _field_witness("two-gradient-field", mid, f_mid, [E11, -E11], ess,
                           theta=lam)
    measure = _measure_witness([E11, -E11], [lam, 1.0 - lam], f_mid, ess)
    assert replay_witness(entry, field) == replay_witness(entry, measure) == 1.0
    assert field["gap"] == measure["gap"] == 1.0


# ---------------------------------------------------------------------------
# periodic-weak checker
# ---------------------------------------------------------------------------

def test_periodic_pair_violated_with_unit_gap():
    entry = corpus_entry("one_minus_chi_pair")
    mid = 0.5 * (entry.special_points[0] + entry.special_points[1])
    v = check_periodic_weak_morrey(entry, mid, entry.dims, **_args(entry))
    assert v.violated
    assert v.witness["ess_sup"] == 0.0
    assert abs(v.witness["gap"] - 1.0) <= 1e-12
    assert replay_witness(entry, v.witness) == 1.0


def test_periodic_clamp_holds():
    entry = corpus_entry("clamp1d")
    for xi in (0.0, 0.5, 1.0):
        v = check_periodic_weak_morrey(entry, np.array([[xi]]), entry.dims,
                                       **_args(entry, budget=3_000))
        assert not v.violated


def test_periodic_constant_holds_with_equality():
    const = corpus_entry("clamp1d")
    v = check_periodic_weak_morrey(const, np.array([[5.0]]), const.dims,
                                   **_args(const, budget=2_000))
    # f is constant 1 above t=1: every sawtooth matches it, none undercuts
    assert not v.violated


def test_periodic_double_well_violated():
    entry = corpus_entry("double_well_1d")
    v = check_periodic_weak_morrey(entry, np.array([[0.0]]), entry.dims,
                                   **_args(entry, budget=2_000))
    assert v.violated


# ---------------------------------------------------------------------------
# strong Morrey search
# ---------------------------------------------------------------------------

def test_strong_pair_persistent_unit_gap():
    entry = corpus_entry("one_minus_chi_pair")
    mid = 0.5 * (entry.special_points[0] + entry.special_points[1])
    v = search_strong_morrey_violation(entry, mid, entry.dims, **_args(entry))
    assert v.violated
    per_delta = v.witness["per_delta"]
    assert len(per_delta) == len(DEFAULT_DELTA_SCHEDULE)
    for row in per_delta:
        assert abs(row["gap"] - 1.0) <= 1e-12
    assert v.witness["epsilon"] == pytest.approx(1.0, abs=1e-8)
    assert v.witness["layers_per_delta"][-1] >= 2 ** 11


def test_strong_clamp_holds():
    entry = corpus_entry("clamp1d")
    for xi in (0.0, 0.5, 1.0):
        v = search_strong_morrey_violation(entry, np.array([[xi]]), entry.dims,
                                           **_args(entry, budget=3_000))
        assert not v.violated, xi


def test_strong_arctan_det_holds():
    entry = corpus_entry("arctan_det")
    for p in entry.special_points[:3]:
        v = search_strong_morrey_violation(entry, p, entry.dims,
                                           **_args(entry, budget=3_000))
        assert not v.violated


def test_strong_chi_det_violated_at_jump():
    # the closed threshold jumps down in every neighborhood of det = 1:
    # affine probes keep the unit gap at every delta
    entry = corpus_entry("chi_det")
    v = search_strong_morrey_violation(entry, np.eye(2), entry.dims, **_args(entry))
    assert v.violated
    assert v.witness["family"] == "affine-probe"
    for row in v.witness["per_delta"]:
        assert row["gap"] >= 1.0 - 1e-12


def test_strong_chi_det_open_holds_at_jump():
    entry = corpus_entry("chi_det_open")
    v = search_strong_morrey_violation(entry, np.eye(2), entry.dims,
                                       **_args(entry, budget=3_000))
    assert not v.violated


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_strong_holds_where_f_xi_is_not_finite(value):
    # chi_det is violated at the identity with a unit gap; with f NaN or
    # +-inf near xi no gap is finite (a delta row of the affine table whose
    # probes are all +inf gives inf - inf), so the search holds, and warns
    # of nothing
    entry, xi = corpus_entry("chi_det"), np.eye(2)

    def f(arr):
        arr = np.asarray(arr, dtype=float)
        near = (np.abs(arr - xi) < 0.25).all(axis=(-2, -1))
        return np.where(near, value, entry(arr))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = search_strong_morrey_violation(f, xi, entry.dims, **_args(entry, budget=3_000))
    assert not v.violated
    assert v.budget == search_strong_morrey_violation(
        entry, xi, entry.dims, **_args(entry, budget=3_000)).budget


def test_strong_continuous_decay_filtered():
    # affine probes dent a merely-continuous supremand at every finite delta,
    # but the dent shrinks with delta and must not read as a violation
    entry = corpus_entry("exampleD_scalar")
    v = search_strong_morrey_violation(entry, np.array([[0.5]]), entry.dims,
                                       **_args(entry, budget=3_000))
    assert not v.violated


def test_strong_periodic_weak_run_consistency():
    # wherever the small-boundary search finds nothing, the periodic and
    # zero-boundary searches of the same run must find nothing either
    from supcon.classify import search_weak_morrey_violation
    for name in ("clamp1d", "arctan_det", "W_sup", "exampleD_scalar"):
        entry = corpus_entry(name)
        for p in entry.special_points[:2]:
            s = search_strong_morrey_violation(entry, p, entry.dims,
                                               **_args(entry, budget=2_000))
            if not s.violated:
                w = search_weak_morrey_violation(entry, p, entry.dims,
                                                 **_args(entry, budget=2_000))
                q = check_periodic_weak_morrey(entry, p, entry.dims,
                                               **_args(entry, budget=2_000))
                assert not w.violated and not q.violated, (name, p)
