"""The array form of the weak-Morrey search layer against the per-candidate,
per-triangle and per-trial reference loops in ``oracles.py``, the shared
two-gradient candidate stream against the laminate generator it replaced, and
the three field searches against their copies from before the shared field
scorer: equal bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supcon import laminate
from supcon.classify import (_cutoff_values, _simplicial_search,
                             _two_gradient_candidates,
                             search_weak_morrey_violation)
from supcon.funcspace import corpus_entry

CORPUS_2x2 = ("arctan_det", "W_sup", "exampleD", "chi_det", "one_minus_chi_pair")
CORPUS_1x1 = ("double_well_1d", "abs", "clamp1d", "exampleD_scalar")


def _rank_one_pairs(rng, xi, count):
    """Special points in rank-one pairs A, B through xi; every other pair
    lies along the coordinate axes with an integer jump and theta = 1/2."""
    N, n = xi.shape
    pts = []
    for k in range(count):
        if k % 2:
            a = np.zeros(N)
            a[rng.integers(N)] = 1.0
            nu = np.zeros(n)
            nu[rng.integers(n)] = float(rng.choice([-1.0, 1.0]))
            t = float(rng.integers(1, 4))
        else:
            a, nu = rng.normal(size=N), rng.normal(size=n)
            t = float(rng.uniform(0.1, 3.0))
        w = t * np.outer(a, nu)
        theta = 0.5 if k % 2 else float(rng.uniform(0.1, 0.9))
        pts += [xi + (1.0 - theta) * w, xi - theta * w]
    return pts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3)]),
       st.sampled_from(["halton", "pairs", "corpus"]),
       st.integers(0, 2**32 - 1))
def test_cutoff_values_match_per_candidate_oracle(dims, kind, seed):
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=dims) * float(rng.choice([0.0, 0.5, 2.0]))
    special = ()
    if kind == "pairs":
        special = _rank_one_pairs(rng, xi, 6)
    elif kind == "corpus" and dims == (2, 2):
        entry = corpus_entry(CORPUS_2x2[seed % len(CORPUS_2x2)])
        special = entry.special_points
        xi = np.asarray(special[seed % len(special)], dtype=float)
    batches = list(_two_gradient_candidates(xi, dims, seed=seed % 1000, count=300,
                                            radius=float(rng.uniform(0.5, 3.0)),
                                            special_points=special, rank_one=False))
    for Mp, Mm, theta in batches:
        new = _cutoff_values(xi, Mp, Mm, theta)
        ref = oracles.cutoff_values(xi, Mp, Mm, theta)
        assert np.array_equal(new, ref)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 1), (2, 2), (2, 3)]),
       st.sampled_from(["halton", "pairs", "corpus"]),
       st.sampled_from([None, 0.5, 2.0, 8.0]),
       st.integers(0, 2**32 - 1))
def test_rank_one_stream_matches_laminate_oracle(dims, kind, grad_cap, seed):
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=dims) * float(rng.choice([0.0, 0.5, 2.0]))
    special = ()
    if kind == "pairs":
        special = _rank_one_pairs(rng, xi, 6)
    elif kind == "corpus" and dims != (2, 3):
        names = CORPUS_1x1 if dims == (1, 1) else CORPUS_2x2
        special = corpus_entry(names[seed % len(names)]).special_points
        xi = np.asarray(special[seed % len(special)], dtype=float)
    kw = dict(seed=seed % 1000, count=int(rng.integers(1, 600)),
              radius=float(rng.uniform(0.5, 3.0)), special_points=special,
              grad_cap=grad_cap)
    new = list(_two_gradient_candidates(xi, dims, rank_one=True, **kw))
    ref = list(oracles.laminate_candidates(None, xi, dims, **kw))
    assert len(new) == len(ref)
    for got, want in zip(new, ref):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _smooth(dims, seed):
    rng = np.random.default_rng(seed)
    A, B = rng.normal(size=dims), rng.normal(size=dims)
    c = float(rng.uniform(-0.5, 0.5))

    def f(arr):
        arr = np.asarray(arr, dtype=float)
        return (np.sum(np.sin(A * arr + B), axis=(-2, -1))
                + c * np.sum(arr ** 2, axis=(-2, -1)))
    return f


def _corpus_or_smooth(dims, use_corpus, seed):
    if use_corpus and dims in ((1, 1), (2, 2)):
        names = CORPUS_1x1 if dims == (1, 1) else CORPUS_2x2
        return corpus_entry(names[seed % len(names)])
    return _smooth(dims, seed)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
       st.booleans(),
       st.integers(2, 4), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_simplicial_search_matches_per_triangle_oracle(dims, use_corpus, depth,
                                                       restarts, seed):
    rng = np.random.default_rng(seed)
    f = _corpus_or_smooth(dims, use_corpus, seed)
    xi = rng.normal(size=dims)
    kw = dict(seed=seed % 100_000, depth=depth, restarts=restarts)
    best, values, its = _simplicial_search(f, xi, dims, **kw)
    ref_best, ref_values, ref_its = oracles.simplicial_search(f, xi, dims, **kw)
    assert best == ref_best
    assert its == ref_its
    assert np.array_equal(np.array(values), np.array(ref_values))


def _nan_where_a00_above(f, c):
    def g(arr):
        arr = np.asarray(arr, dtype=float)
        return np.where(arr[..., 0, 0] > c, np.nan, f(arr))
    return g


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
       st.booleans(),
       st.sampled_from([None, 0.3, 1.0, 1.9]),
       st.integers(2, 4), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_simplicial_search_matches_per_trial_oracle(dims, use_corpus, nan_above,
                                                    depth, restarts, seed):
    # one f call per speculated batch must pick the same trials, states and
    # sample count as one f call per trial, NaN ess sups included
    rng = np.random.default_rng(seed)
    f = _corpus_or_smooth(dims, use_corpus, seed)
    if nan_above is not None:
        f = _nan_where_a00_above(f, nan_above)
    xi = rng.normal(size=dims) * float(rng.choice([0.0, 0.5, 1.0]))
    kw = dict(seed=seed % 100_000, depth=depth, restarts=restarts)
    best, values, its = _simplicial_search(f, xi, dims, **kw)
    ref_best, ref_values, ref_its = oracles.simplicial_search_per_trial(f, xi, dims, **kw)
    assert best == ref_best
    assert its == ref_its
    assert np.array_equal(np.array(values), np.array(ref_values))


@pytest.mark.parametrize("name", ["arctan_det", "W_sup"])
def test_simplicial_search_calls_f_once_per_batch(name):
    f = corpus_entry(name)
    calls = []

    def spy(arr):
        calls.append(1)
        return f(arr)

    kw = dict(seed=20240817, depth=4, restarts=4)
    xi = np.zeros((2, 2))
    best, _, its = _simplicial_search(spy, xi, (2, 2), **kw)
    ref_best, _, trials = oracles.simplicial_search_per_trial(f, xi, (2, 2), **kw)
    assert (best, its) == (ref_best, trials)
    assert len(calls) <= trials / 10


def _nan_double_well():
    # undefined (NaN) for t > 1.9, as in the NaN-masking test of test_classify
    entry = corpus_entry("double_well_1d")
    return _nan_where_a00_above(entry, 1.9), entry.special_points


FIELD_SEARCHES = {
    "weak": (search_weak_morrey_violation, oracles.search_weak_morrey_violation),
    "periodic": (laminate.check_periodic_weak_morrey,
                 oracles.check_periodic_weak_morrey),
    "strong": (laminate.search_strong_morrey_violation,
               oracles.search_strong_morrey_violation),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FIELD_SEARCHES)),
       st.sampled_from(CORPUS_1x1 + CORPUS_2x2 + ("nan_double_well",)),
       st.booleans(),
       st.integers(1, 3000),
       st.sampled_from([0.5, 2.0, 8.0]),
       st.integers(0, 2**32 - 1))
def test_field_searches_match_their_own_loops(search, name, at_special, budget,
                                              K, seed):
    if name == "nan_double_well":
        f, special = _nan_double_well()
        dims = (1, 1)
    else:
        f = corpus_entry(name)
        special, dims = f.special_points, f.dims
    rng = np.random.default_rng(seed)
    if at_special:
        xi = np.asarray(special[seed % len(special)], dtype=float)
    else:
        xi = rng.normal(size=dims) * float(rng.choice([0.5, 1.0, 2.0]))
    kw = dict(tol=1e-9, budget=budget, seed=seed % 100_000,
              radius=float(rng.choice([1.0, 2.0, 3.0])), special_points=special)
    if search == "strong":
        kw["K"] = K
    new, ref = FIELD_SEARCHES[search]
    assert new(f, xi, dims, **kw).to_dict() == ref(f, xi, dims, **kw).to_dict()
