"""Samples computed once: the segment checkers and the two-atom measure
stream against their per-weight loops in ``oracles.py``, equal bit for bit;
the curl-Young checker, which reads the rank-one run, against its old second
spliced run; the Halton kernel against scipy's scrambled Halton engine, bit
for bit; and the Halton draws and segment-checker runs that the checkers of
one ``classify_report`` share."""

import contextlib
import dataclasses
import math
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from supcon import classify, laminate
from supcon.classify import (ClassifyConfig, check_level_convex,
                             check_polyquasiconvex_necessary,
                             check_rank_one_qcx, classify_report)
from supcon.funcspace import corpus_entry, corpus_names

CORPUS = {(1, 1): ("double_well_1d", "abs", "clamp1d", "exampleD_scalar"),
          (2, 2): ("arctan_det", "W_sup", "exampleD", "chi_det", "one_minus_chi_pair")}


def _supremand(dims, kind, rng, seed):
    """A corpus entry, a convex quadratic (no violation: the budget runs
    out) or a nonconvex smooth function."""
    if kind == "corpus" and dims in CORPUS:
        names = CORPUS[dims]
        return corpus_entry(names[seed % len(names)])
    C, A, B = rng.normal(size=dims), rng.normal(size=dims), rng.normal(size=dims)

    def f(arr):
        arr = np.asarray(arr, dtype=float)
        if kind == "smooth":
            return np.sum(np.sin(A * arr + B), axis=(-2, -1))
        return np.sum((arr - C) ** 2, axis=(-2, -1))
    return f


def _with_nan(f, c):
    def g(arr):
        arr = np.asarray(arr, dtype=float)
        return np.where(arr[..., 0, 0] > c, np.nan, f(arr))
    return g


def _special_points(dims, rng, count):
    """Random points, every other one a rank-one step from the one before,
    so the rank-one battery is not empty."""
    N, n = dims
    pts = []
    for k in range(count):
        if k % 2 and pts:
            pts.append(pts[-1] + float(rng.uniform(0.2, 2.0))
                       * np.outer(rng.normal(size=N), rng.normal(size=n)))
        else:
            pts.append(rng.uniform(-2.0, 2.0, size=dims))
    return pts


CHECKERS = {
    "level_convex": (check_level_convex, False),
    "rank_one": (check_rank_one_qcx, True),
    "polyquasiconvex": (check_polyquasiconvex_necessary, None),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(CHECKERS)),
       st.sampled_from([(1, 1), (2, 1), (2, 2)]),
       st.sampled_from(["corpus", "convex", "smooth"]),
       st.sampled_from([None, 0.3, 1.5]),
       st.integers(0, 8),
       st.one_of(st.integers(1, 60), st.integers(60, 6000)),
       st.integers(0, 2**32 - 1))
def test_segment_checkers_match_per_weight_oracle(notion, dims, kind, nan_above,
                                                  n_special, budget, seed):
    # small budgets stop inside the battery or the coarse grid; the last
    # Halton blocks of every budget run out in the middle of their weights
    rng = np.random.default_rng(seed)
    f = _supremand(dims, kind, rng, seed)
    special = _special_points(dims, rng, n_special)
    if nan_above is not None:
        f = _with_nan(f, nan_above)
    kw = dict(tol=1e-9, budget=budget, seed=seed % 100_000,
              radius=float(rng.choice([1.0, 2.0, 3.0])), special_points=special)
    checker, rank_one = CHECKERS[notion]
    got = checker(f, dims, **kw).to_dict()
    if rank_one is None:
        with mock.patch.object(classify, "_run_segment_checker",
                               oracles.run_segment_checker):
            want = checker(f, dims, **kw).to_dict()
    else:
        want = oracles.run_segment_checker(notion, f, dims, rank_one=rank_one,
                                           **kw).to_dict()
    assert got == want


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (2, 2)]),
       st.sampled_from(["corpus", "convex", "smooth"]),
       st.sampled_from([None, 0.3, 1.5]),
       st.integers(0, 8),
       st.one_of(st.integers(1, 60), st.integers(60, 6000)),
       st.integers(0, 2**32 - 1))
# batteries that use the budget up before a violating pair that the
# lambda-major battery of a run at the full budget reaches and reports
@example((1, 1), "smooth", None, 3, 2, 3)
@example((2, 2), "smooth", None, 8, 3, 5)
def test_curl_young_matches_its_spliced_oracle(dims, kind, nan_above, n_special,
                                               budget, seed):
    # past a clean special-pair battery the rank-one run's own battery is
    # clean too, and its Halton phase is the splice's run on what is left;
    # small budgets run out inside the battery
    rng = np.random.default_rng(seed)
    f = _supremand(dims, kind, rng, seed)
    special = _special_points(dims, rng, n_special)
    if nan_above is not None:
        f = _with_nan(f, nan_above)
    kw = dict(tol=1e-9, budget=budget, seed=seed % 100_000,
              radius=float(rng.choice([1.0, 2.0, 3.0])), special_points=special)
    got = laminate.check_curl_young_on_laminates(f, dims, **kw).to_dict()
    assert got == oracles.check_curl_young_on_laminates(f, dims, **kw).to_dict()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (2, 2)]),
       st.integers(0, 8),
       st.one_of(st.integers(0, 60), st.integers(60, 3000)),
       st.integers(0, 2**32 - 1))
def test_two_atom_measures_match_per_weight_oracle(dims, n_special, count, seed):
    rng = np.random.default_rng(seed)
    kw = dict(seed=seed % 100_000, count=count, radius=float(rng.choice([1.0, 2.0])),
              special_points=_special_points(dims, rng, n_special))
    if count < 1:  # the oracle returns empty arrays; the stream rejects the count
        with pytest.raises(ValueError, match="count"):
            classify.two_atom_measures(dims, **kw)
        return
    atoms, weights = classify.two_atom_measures(dims, **kw)
    atoms_ref, weights_ref = oracles.two_atom_measures(dims, **kw)
    assert atoms.shape == atoms_ref.shape == (len(weights), 2, *dims)
    assert np.array_equal(atoms, atoms_ref)
    assert np.array_equal(weights, weights_ref)


# where a base's prefix phase gains a level: b^k - 1, b^k and b^k + 1
EDGE_COUNTS = sorted({b ** k + e for b in (2, 3, 5, 7, 11, 13) for k in range(1, 13)
                      for e in (-1, 0, 1) if 1 <= b ** k + e <= 4096})


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20),
       st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(1, 4096)),
       st.one_of(st.sampled_from([0, 2**31 + 5, 2**32 - 1, 2**63]),
                 st.integers(0, 2**64 - 1)),
       st.integers(1, 4096))
def test_halton_kernel_equals_scipy_bit_for_bit(dim, count, seed, prefix):
    got, want = classify._scrambled_halton(dim, count, seed), oracles.halton(dim, count, seed)
    assert got.shape == want.shape == (count, dim)
    assert got.strides == want.strides  # the same column-major layout
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    head = classify._scrambled_halton(dim, min(prefix, count), seed)
    assert np.array_equal(head.view(np.uint64), got[:len(head)].view(np.uint64))


@pytest.mark.parametrize("seed", [-1, -2**63])
def test_halton_kernel_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError):
        oracles.halton(3, 10, seed)
    with pytest.raises(ValueError):
        classify._scrambled_halton(3, 10, seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3000), st.integers(1, 3000),
       st.integers(0, 2**32 - 1))
def test_shared_halton_draws_equal_fresh_draws(dim, first, second, seed):
    with classify._shared_halton():
        for count in (first, second, first):
            got = classify._halton(dim, count, seed)
            assert np.array_equal(got, oracles.halton(dim, count, seed))
            assert not got.flags.writeable
    assert classify._shared.get() is None
    assert classify._halton(dim, first, seed).flags.writeable


def _without_timestamp(rep):
    doc = rep.to_dict()
    doc.pop("timestamp")
    return doc


def test_classify_report_builds_each_halton_sequence_once_per_growth(monkeypatch):
    calls, builds = defaultdict(list), defaultdict(list)
    halton, kernel = classify._halton, classify._scrambled_halton

    def counted_halton(dim, count, seed):
        calls[dim, seed].append(count)
        return halton(dim, count, seed)

    def spy_kernel(dim, count, seed):
        builds[dim, seed].append(count)
        return kernel(dim, count, seed)

    monkeypatch.setattr(classify, "_halton", counted_halton)
    monkeypatch.setattr(classify, "_scrambled_halton", spy_kernel)
    entry, cfg = corpus_entry("arctan_det"), ClassifyConfig(budget=100_000)
    shared = classify_report(entry, cfg)
    assert builds.keys() == calls.keys()
    for key, counts in calls.items():
        growths = [c for i, c in enumerate(counts) if c > max(counts[:i], default=0)]
        assert builds[key] == growths, key
    n_calls = sum(map(len, calls.values()))
    n_builds = sum(map(len, builds.values()))
    assert n_builds < n_calls

    # drawn afresh on every call, the report is the same; with no shared
    # scope every segment run is scored again too, so there are more calls
    monkeypatch.setattr(classify, "_shared_halton", contextlib.nullcontext)
    calls.clear()
    builds.clear()
    fresh = classify_report(entry, cfg)
    n_calls = sum(map(len, calls.values()))
    assert sum(map(len, builds.values())) == n_calls
    assert _without_timestamp(fresh) == _without_timestamp(shared)


def test_halton_draws_are_dropped_when_the_report_returns_or_raises(monkeypatch):
    entry, cfg = corpus_entry("clamp1d"), ClassifyConfig(budget=2_000)
    classify_report(entry, cfg)
    assert classify._shared.get() is None

    held = {}

    def fail(*args, **kwargs):
        held.update(classify._shared.get()[0])
        raise RuntimeError("checker failed")

    monkeypatch.setattr(classify, "check_polyquasiconvex_necessary", fail)
    with pytest.raises(RuntimeError, match="checker failed"):
        classify_report(entry, cfg)
    assert held  # the two checkers before it drew into the report's cache
    assert classify._shared.get() is None


SEGMENT_CHECKERS = {
    "level_convex": check_level_convex,
    "rank_one": check_rank_one_qcx,
    "polyquasiconvex": check_polyquasiconvex_necessary,
    "curl_young_laminates": laminate.check_curl_young_on_laminates,
}


@pytest.mark.parametrize("name", corpus_names())
def test_classify_report_scores_each_segment_run_once(name, monkeypatch):
    points = [0]
    entry = corpus_entry(name)

    def evaluator(arr):
        points[0] += math.prod(arr.shape[:-2])
        return entry.evaluator(arr)

    counted = dataclasses.replace(entry, evaluator=evaluator)
    cfg = ClassifyConfig(budget=20_000)
    shared = classify_report(counted, cfg)
    shared_points, points[0] = points[0], 0

    # each checker on its own, outside any report, gives the report's verdict
    kw = dict(tol=cfg.tol, budget=cfg.budget, seed=cfg.seed, radius=cfg.radius,
              special_points=entry.special_points)
    for notion, checker in SEGMENT_CHECKERS.items():
        assert checker(entry, entry.dims, **kw).to_dict() == shared.verdicts[notion].to_dict()

    # so does a report that shares nothing, whose f sees more points
    monkeypatch.setattr(classify, "_shared_halton", contextlib.nullcontext)
    fresh = classify_report(counted, cfg)
    assert _without_timestamp(fresh) == _without_timestamp(shared)
    assert shared_points < points[0]


@pytest.mark.parametrize("name", corpus_names())
def test_classify_report_serves_curl_young_the_rank_one_run(name, monkeypatch):
    # past its battery (f at both points and at five weights of each special
    # rank-one pair) the curl-Young checker reads the rank-one run that the
    # report already scored, so f sees nothing more
    points, seen = [0], []
    entry = corpus_entry(name)

    def evaluator(arr):
        points[0] += math.prod(arr.shape[:-2])
        return entry.evaluator(arr)

    checker = laminate.check_curl_young_on_laminates

    def counted_checker(*args, **kwargs):
        before = points[0]
        v = checker(*args, **kwargs)
        seen.append(points[0] - before)
        return v

    monkeypatch.setattr(laminate, "check_curl_young_on_laminates", counted_checker)
    classify_report(dataclasses.replace(entry, evaluator=evaluator),
                    ClassifyConfig(budget=20_000))
    pairs = list(classify._special_pairs(entry.special_points, rank_one=True))
    assert len(seen) == 1
    assert seen[0] <= 7 * len(pairs)
