"""Property tests for the structural invariants of the envelope operators
and checkers, on randomized inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supcon.classify import (check_level_convex, check_rank_one_qcx,
                             replay_witness)
from supcon.envelope import (convex_envelope, lamination_hull,
                             level_convex_lsc_envelope, pasch_hausdorff)
from supcon.funcspace import GridSpec, SampledFunction, corpus_entry


def _random_sample(seed, points=21, radius=1.0):
    rng = np.random.default_rng(seed)
    g = GridSpec((1, 1), radius, points)
    return SampledFunction(g, rng.normal(size=points))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_convex_envelope_is_convex_along_the_grid(seed):
    f = _random_sample(seed)
    E = convex_envelope(f).values
    second_diff = E[2:] - 2 * E[1:-1] + E[:-2]
    assert np.min(second_diff) >= -1e-10
    assert np.all(E <= f.values + 1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_lslc_sublevel_sets_are_intervals(seed):
    f = _random_sample(seed)
    L = level_convex_lsc_envelope(f).values
    for t in np.unique(L):
        idx = np.flatnonzero(L <= t + 1e-12)
        # a convex sublevel set on a 1-d grid is a contiguous index range
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


def test_lslc_sublevel_sets_hull_consistent_2d():
    rng = np.random.default_rng(99)
    g = GridSpec((1, 2), 1.0, 5)
    coords = g.node_coords()
    for _ in range(10):
        f = SampledFunction(g, rng.normal(size=g.node_count))
        L = level_convex_lsc_envelope(f).values.ravel()
        from supcon.envelope import _points_in_hull
        for t in np.unique(L):
            members = L <= t + 1e-12
            inside = _points_in_hull(coords[members], coords)[0]
            # no grid point strictly inside the hull may sit above the level
            assert not np.any(inside & ~members)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 16.0))
def test_pasch_hausdorff_is_lipschitz_and_below_positive_part(seed, lam):
    f = _random_sample(seed)
    ph = pasch_hausdorff(f, lam).values
    h = f.grid.spacing
    assert np.max(np.abs(np.diff(ph))) <= lam * h * (1.0 + 1e-9)
    # the max against the distance truncates at zero: f_lam <= f only holds
    # on the positive part, f_lam <= max(f, 0) everywhere
    assert np.all(ph <= np.maximum(f.values, 0.0) + 1e-12)
    shifted = f.with_values(f.values - f.values.min())
    ph_shifted = pasch_hausdorff(shifted, lam).values
    assert np.all(ph_shifted <= shifted.values + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_ordering_chain_random_scalar(seed):
    f = _random_sample(seed)
    E = convex_envelope(f).values
    H = lamination_hull(f).values
    L = level_convex_lsc_envelope(f).values
    assert np.all(E <= H + 1e-12) and np.all(H <= f.values + 1e-12)
    assert np.all(E <= L + 1e-12) and np.all(L <= f.values + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_violated_witnesses_replay_across_seeds(seed):
    for name in ("double_well_1d", "arctan_det"):
        entry = corpus_entry(name)
        for checker in (check_level_convex, check_rank_one_qcx):
            v = checker(entry, entry.dims, tol=1e-9, budget=2_000, seed=seed,
                        radius=2.0, special_points=entry.special_points)
            if v.violated:
                gap = replay_witness(entry, v.witness)
                assert abs(gap - v.witness["gap"]) <= 1e-12
                assert gap > v.tol
