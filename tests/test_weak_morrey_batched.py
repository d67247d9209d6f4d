"""The array form of the weak-Morrey search layer against the per-candidate
reference loop in ``oracles.py``, the shared two-gradient candidate stream
against the laminate generator it replaced, the field scorer against its
copy from before it bounded the cutoff layer by the pair of gradient values,
and the three field searches against their copies from before the shared
field scorer: equal bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from supcon import laminate
from supcon.classify import (_best_field, _cutoff_values, _two_gradient_candidates,
                             search_weak_morrey_violation)
from supcon.funcspace import corpus_entry, corpus_names

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
                                            special_points=special))
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
    new = list(_two_gradient_candidates(xi, dims, **kw))
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


def _nan_where_a00_above(f, c):
    def g(arr):
        arr = np.asarray(arr, dtype=float)
        return np.where(arr[..., 0, 0] > c, np.nan, f(arr))
    return g


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


@pytest.mark.parametrize("budget", [100, 1_000])
def test_weak_morrey_search_spends_exactly_its_budget(budget):
    # 904 and 1_804 samples while a simplicial descent ran after the stream
    entry = corpus_entry("arctan_det")
    v = search_weak_morrey_violation(entry, np.zeros((2, 2)), entry.dims, budget=budget,
                                     seed=20240817, special_points=entry.special_points)
    assert v.budget == budget


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["weak", "periodic"]),
       st.sampled_from(corpus_names()),
       st.sampled_from(["special", "zero", "random"]),
       st.integers(1, 3000),
       st.integers(0, 2**32 - 1))
def test_weak_field_searches_spend_at_most_their_budget(search, name, at, budget, seed):
    f = corpus_entry(name)
    special, dims = f.special_points, f.dims
    rng = np.random.default_rng(seed)
    xi = {"special": lambda: np.asarray(special[seed % len(special)], dtype=float),
          "zero": lambda: np.zeros(dims),
          "random": lambda: rng.normal(size=dims) * float(rng.choice([0.5, 1.0, 2.0]))}[at]()
    v = FIELD_SEARCHES[search][0](f, xi, dims, budget=budget, seed=seed % 100_000,
                                  special_points=special)
    assert 1 <= v.budget <= budget


def _indicator(dims, seed):
    """Values in {0, 1, 2}: ties between candidates everywhere."""
    rng = np.random.default_rng(seed)
    A, c = rng.normal(size=dims), float(rng.uniform(-1.0, 1.0))

    def f(arr):
        arr = np.asarray(arr, dtype=float)
        return ((np.sum(A * arr, axis=(-2, -1)) > c).astype(float)
                + (np.max(np.abs(arr), axis=(-2, -1)) > 1.5))
    return f


def _minus_inf_at_pairs(f, xi, batches, rng):
    """f, but -inf exactly at both gradient values of up to three candidates
    of one batch of the stream; the first one's cutoff values read -1e3, so
    its full ess sup is finite and, for the f used here, the batch's least.
    f itself when the stream is empty."""
    if not batches:
        return f
    N, n = xi.shape
    Mp, Mm, theta = batches[int(rng.integers(len(batches)))]
    js = rng.choice(len(Mp), size=min(3, len(Mp)), replace=False)
    pairs = np.concatenate([Mp[js], Mm[js]]).reshape(-1, N * n)
    low = _cutoff_values(xi, Mp[js[:1]], Mm[js[:1]], theta[js[:1]]).reshape(-1, N * n)

    def hits(flat, rows):
        return (flat[:, None, :] == rows[None]).all(axis=-1).any(axis=-1)

    def g(arr):
        arr = np.asarray(arr, dtype=float)
        flat = arr.reshape(-1, N * n)
        out = np.where(hits(flat, low), -1e3, np.asarray(f(arr), dtype=float).ravel())
        return np.where(hits(flat, pairs), -np.inf, out).reshape(arr.shape[:-2])
    return g


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3)]),
       st.sampled_from(["corpus", "smooth", "indicator"]),
       st.sampled_from([None, "nan", "minus_inf"]),
       st.sampled_from([None, "pairs", "corpus"]),
       st.booleans(),
       st.sampled_from([None, 0.5, 2.0, 8.0]),
       st.one_of(st.integers(1, 600), st.integers(4000, 9000)),
       st.integers(0, 2**32 - 1))
# a candidate before i0 whose bound ties e0; a -inf pair that decides the minimum
@example((2, 2), "corpus", None, None, False, None, 3, 0)
@example((2, 2), "corpus", "minus_inf", None, False, None, 4, 0)
def test_cutoff_field_scorer_matches_its_full_batch_oracle(dims, kind, hole, special,
                                                           stop, grad_cap, count,
                                                           seed):
    # scoring the cutoff layer only where the pair bound leaves a candidate
    # able to be the batch's first minimum picks the same field, bit for bit
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=dims) * float(rng.choice([0.0, 0.5, 2.0]))
    entry = None
    if kind == "corpus" and dims == (2, 2):
        f = entry = corpus_entry(CORPUS_2x2[seed % len(CORPUS_2x2)])
    elif kind == "indicator":
        f = _indicator(dims, seed)
    else:
        f = _smooth(dims, seed)
    points = ()
    if special == "pairs":
        points = _rank_one_pairs(rng, xi, 6)
    elif special == "corpus" and entry is not None:
        points = entry.special_points
        xi = np.asarray(points[seed % len(points)], dtype=float)
    stream = dict(seed=seed % 1000, count=count, radius=float(rng.uniform(0.5, 3.0)),
                  special_points=points, grad_cap=grad_cap)
    if hole == "nan":
        f = _nan_where_a00_above(f, float(rng.uniform(-1.0, 1.0)))
    elif hole == "minus_inf":
        batches = list(_two_gradient_candidates(xi, dims, **stream))
        f = _minus_inf_at_pairs(f, xi, batches, rng)
    kw = dict(tol=1e-9, stop=stop, cutoff=True, **stream)
    f_xi = float(f(xi))
    used, best, values, theta = _best_field(f, xi, f_xi, dims, **kw)
    ref_used, ref_best, ref_values, ref_theta = oracles.best_field(f, xi, f_xi, dims, **kw)
    assert used == ref_used
    assert np.array_equal(best, ref_best)
    assert theta == ref_theta
    assert (values is None) == (ref_values is None)
    if values is not None:
        assert np.array_equal(np.array(values), np.array(ref_values))


def test_strong_search_scores_its_affine_family_in_one_f_call():
    # the 12 deltas times 3 magnitudes took one f call each; the laminate
    # family's batches take two each, and f(xi) one
    entry = corpus_entry("W_sup")
    xi = np.asarray(entry.special_points[0], dtype=float)
    kw = dict(seed=5, radius=2.0, special_points=entry.special_points)
    calls = []

    def spy(arr):
        calls.append(1)
        return entry(arr)

    laminate.search_strong_morrey_violation(spy, xi, entry.dims, K=8.0, budget=2000, **kw)
    batches = list(_two_gradient_candidates(xi, entry.dims, count=1000, grad_cap=8.0, **kw))
    assert len(calls) == 1 + 2 * len(batches) + 1
