"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Everything here drives the public API at the stated budgets and tolerances,
apart from criterion 9, which also checks the splitting-tree sampler and the
witness builders that the checkers use; oracles are recomputed, never
hard-coded from the implementation under test.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from supcon.classify import (ClassifyConfig, _field_witness, _measure_witness,
                             _tree_atoms_batch, check_level_convex,
                             check_rank_one_qcx, check_supremal_jensen,
                             classify_report, replay_witness,
                             search_weak_morrey_violation, two_atom_measures)
from supcon.envelope import (convex_envelope, lamination_hull,
                             level_convex_lsc_envelope, pasch_hausdorff,
                             power_law_envelope)
from supcon.fem1d import FeOptions, envelope_oracle_1d, minimize_Fp
from supcon.funcspace import GridSpec, SampledFunction, corpus_entry, sample
from supcon.laminate import (check_curl_young_on_laminates,
                             check_periodic_weak_morrey,
                             search_strong_morrey_violation)
from supcon.matspace import is_rank_one_connected

SEED = 20240817
P_SCHEDULE = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
DELTAS = tuple(2.0 ** -k for k in range(1, 13))

HIERARCHY_CORPUS = ("clamp1d", "exampleD_scalar", "arctan_det",
                    "one_minus_chi_pair", "double_well_1d", "chi_det")
HIERARCHY_NOTIONS = ("level_convex", "rank_one", "polyquasiconvex",
                     "weak_morrey", "periodic_weak_morrey", "strong_morrey")


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_hierarchy_reproduction():
    with criterion(1, "hierarchy flags reproduced on the six-entry corpus, "
                      "budget 1e5, zero inconsistencies, under 2 minutes"):
        t0 = time.time()
        cfg = ClassifyConfig(budget=100_000, seed=SEED)
        for name in HIERARCHY_CORPUS:
            entry = corpus_entry(name)
            rep = classify_report(entry, cfg)
            assert rep.inconsistencies == [], name
            for notion in HIERARCHY_NOTIONS:
                documented = entry.documented_properties[notion]
                violated = rep.verdicts[notion].violated
                assert documented == (not violated), (name, notion)
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_2_pair_triple_verdict():
    with criterion(2, "indicator-pair: weak holds, periodic violated with "
                      "unit gap to 1e-12, strong gap persists to delta 2^-12"):
        entry = corpus_entry("one_minus_chi_pair")
        mid = 0.5 * (entry.special_points[0] + entry.special_points[1])
        args = dict(tol=1e-9, budget=20_000, seed=SEED, radius=2.0,
                    special_points=entry.special_points)

        weak = search_weak_morrey_violation(entry, mid, entry.dims, **args)
        assert weak.outcome == "holds-within-budget"

        per = check_periodic_weak_morrey(entry, mid, entry.dims, **args)
        assert per.violated
        assert per.witness["ess_sup"] == 0.0
        assert abs(per.witness["gap"] - 1.0) <= 1e-12
        assert entry.value(mid) == 1.0

        strong = search_strong_morrey_violation(
            entry, mid, entry.dims, **args)
        assert strong.violated
        rows = strong.witness["per_delta"]
        assert [r["delta"] for r in rows] == list(DELTAS)
        for row in rows:
            assert abs(row["gap"] - 1.0) <= 1e-12


def test_criterion_3_arctan_det():
    with criterion(3, "arctan(det): level convexity violated with replayable "
                      "witness; rank-one and laminate checks hold over 1e4"):
        entry = corpus_entry("arctan_det")
        args = dict(tol=1e-9, seed=SEED, radius=2.0,
                    special_points=entry.special_points)

        lv = check_level_convex(entry, entry.dims, budget=20_000, **args)
        assert lv.violated
        assert abs(replay_witness(entry, lv.witness) - lv.witness["gap"]) <= 1e-12

        ro = check_rank_one_qcx(entry, entry.dims, budget=10_000, **args)
        assert not ro.violated and ro.budget >= 10_000

        cy = check_curl_young_on_laminates(entry, entry.dims, budget=10_000, **args)
        assert not cy.violated and cy.budget >= 10_000


def test_criterion_4_power_law_coercive():
    with criterion(4, "coercive scalar shelf: p=128 convex-lower envelope "
                      "within 0.05 of f on |t| <= 2, monotone in p"):
        grid = GridSpec((1, 1), 4.0, 801)  # h = 0.01
        f = sample(corpus_entry("exampleD_scalar"), grid)
        rep = power_law_envelope(f, P_SCHEDULE, mode="convex-lower")
        assert rep.monotone_violation is None
        inner = np.abs(grid.axis()) <= 2.0
        gap = np.max(np.abs(rep.limit_estimate.values - f.values)[inner])
        assert gap <= 0.05, gap


def test_criterion_5_power_law_gap_clamp():
    with criterion(5, "bounded clamp: p=128 convex-lower value at t=1 is "
                      "<= 0.5 while f(1)=1; gap flagged"):
        grid = GridSpec((1, 1), 10.0, 2001)
        f = sample(corpus_entry("clamp1d"), grid)
        rep = power_law_envelope(f, P_SCHEDULE, mode="convex-lower")
        i1 = int(np.argmin(np.abs(grid.axis() - 1.0)))
        assert f.values[i1] == 1.0
        assert rep.limit_estimate.values[i1] <= 0.5
        assert rep.gap_detected()
        assert rep.sup_gap_to_f >= 0.5


def _suffix_min_chord_oracle(x, v):
    """Independent O(m^2) hull oracle: chords anchored at j, suffix-min slopes."""
    m = len(x)
    out = v.copy()
    for j in range(m - 1):
        slopes = (v[j + 1:] - v[j]) / (x[j + 1:] - x[j])
        suffix = np.minimum.accumulate(slopes[::-1])[::-1]
        cand = v[j] + (x[j + 1:] - x[j]) * suffix
        np.minimum(out[j + 1:], cand, out=out[j + 1:])
    return out


def test_criterion_6_oracle_equivalences():
    with criterion(6, "oracle equivalences: lamination==convex in 1d, "
                      "FE matches the envelope within 2%, hull matches brute force"):
        # (a) one-dimensional lamination hull equals the convex envelope
        scalar_corpus = ["clamp1d", "double_well_1d", "exampleD_scalar", "abs"]
        for name in scalar_corpus:
            f = sample(corpus_entry(name), GridSpec((1, 1), 3.0, 121))
            lam = lamination_hull(f)
            conv = convex_envelope(f)
            assert np.max(np.abs(lam.values - conv.values)) <= 1e-9, name
        pair = corpus_entry("one_minus_chi_pair",
                            xi0=np.array([[-1.0]]), eta0=np.array([[1.0]]))
        f = sample(pair, GridSpec((1, 1), 2.0, 41))
        assert np.max(np.abs(lamination_hull(f).values
                             - convex_envelope(f).values)) <= 1e-9

        # (b) FE minimum on the unit interval matches ((f^p)**)^{1/p} within 2%
        opts = FeOptions(seed=SEED)
        cases = {"clamp1d": (0.5, 1.0, 2.0),
                 "exampleD_scalar": (0.0, 0.5, 1.5),
                 "double_well_1d": (0.0, 1.5),
                 "abs": (0.0, 1.0)}
        for name, xis in cases.items():
            entry = corpus_entry(name)
            for p in (2.0, 8.0, 32.0):
                for xi in xis:
                    fe = minimize_Fp(entry, p, xi, opts).min_value
                    oracle = envelope_oracle_1d(entry, xi, p, slope_bound=opts.slope_bound)
                    assert abs(fe - oracle) <= 0.02 * abs(oracle) + 1e-9, \
                        (name, p, xi)

        # (c) convex_envelope equals an independent brute-force hull oracle
        rng = np.random.default_rng(SEED)
        for vals in (sample(corpus_entry("double_well_1d"),
                            GridSpec((1, 1), 3.0, 1001)).values,
                     sample(corpus_entry("clamp1d"),
                            GridSpec((1, 1), 10.0, 1001)).values,
                     rng.normal(size=1001)):
            g = GridSpec((1, 1), 1.0, 1001)
            f = SampledFunction(g, vals)
            E = convex_envelope(f)
            oracle = _suffix_min_chord_oracle(g.axis(), np.asarray(vals, float))
            assert np.max(np.abs(E.values - oracle)) <= 1e-12


def test_criterion_7_jensen_equals_level_convexity():
    with criterion(7, "supremal Jensen over two-atom measures agrees with "
                      "level convexity across the whole corpus, matched seeds"):
        from supcon.funcspace import corpus_names
        for name in corpus_names():
            entry = corpus_entry(name)
            count = 4_000
            lv = check_level_convex(entry, entry.dims, tol=1e-9, budget=count,
                                    seed=SEED, radius=2.0,
                                    special_points=entry.special_points)
            atoms, weights = two_atom_measures(entry.dims, seed=SEED, count=count,
                                               radius=2.0,
                                               special_points=entry.special_points)
            jn = check_supremal_jensen(entry, atoms, weights, tol=1e-9, seed=SEED)
            assert lv.violated == jn.violated, name


def test_criterion_8_pasch_hausdorff():
    with criterion(8, "Pasch-Hausdorff transforms are lam-Lipschitz, "
                      "monotone in lam, and tighten as lam doubles"):
        cases = [("clamp1d", GridSpec((1, 1), 10.0, 201)),
                 ("double_well_1d", GridSpec((1, 1), 3.0, 121)),
                 ("exampleD_scalar", GridSpec((1, 1), 4.0, 121)),
                 ("arctan_det", GridSpec((2, 2), 1.0, 5))]
        for name, grid in cases:
            f = sample(corpus_entry(name), grid)
            h = grid.spacing
            prev = None
            for lam in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
                ph = pasch_hausdorff(f, lam)
                for axis in range(grid.ndim):
                    slopes = np.abs(np.diff(ph.values, axis=axis)) / h
                    assert np.max(slopes) <= lam * (1.0 + 1e-9), (name, lam)
                if prev is not None:
                    assert np.all(ph.values >= prev - 1e-12), (name, lam)
                prev = ph.values
            gap32 = np.max(f.values - pasch_hausdorff(f, 32.0).values)
            gap64 = np.max(f.values - pasch_hausdorff(f, 64.0).values)
            assert gap64 <= gap32 + 1e-12, name


def test_criterion_9_invariant_suites():
    with criterion(9, "idempotence, ordering chain, barycenter consistency, "
                      "field/measure duality: 1e3 trials each; delta halving "
                      "on every row of the strong witness"):
        rng = np.random.default_rng(SEED)
        trials = 1_000

        # idempotence + ordering chain on random scalar samples
        g1 = GridSpec((1, 1), 1.0, 21)
        for k in range(trials):
            f = SampledFunction(g1, rng.normal(size=21))
            E = convex_envelope(f)
            L = level_convex_lsc_envelope(f)
            H = lamination_hull(f)
            assert np.max(np.abs(convex_envelope(E).values - E.values)) <= 1e-12
            assert np.max(np.abs(level_convex_lsc_envelope(L).values
                                 - L.values)) <= 1e-12
            assert np.max(np.abs(lamination_hull(H).values - H.values)) <= 1e-7
            assert np.all(E.values <= H.values + 1e-12)
            assert np.all(H.values <= f.values + 1e-12)
            assert np.all(E.values <= L.values + 1e-12)
            assert np.all(L.values <= f.values + 1e-12)

        # a smaller matrix-space batch keeps the chain honest in 2x2
        g2 = GridSpec((2, 2), 1.0, 3)
        for k in range(20):
            f = SampledFunction(g2, rng.normal(size=g2.node_count))
            E = convex_envelope(f)
            H = lamination_hull(f)
            L = level_convex_lsc_envelope(f)
            assert np.all(E.values <= H.values + 1e-9)
            assert np.all(H.values <= f.values + 1e-9)
            assert np.all(E.values <= L.values + 1e-9)
            assert np.all(L.values <= f.values + 1e-9)

        # barycenter consistency of the random splitting trees
        for order in (1, 2, 3):
            bar = rng.uniform(-2.0, 2.0, size=(trials, 2, 2))
            atoms, wts = _tree_atoms_batch(bar, order, rng, 2.0)
            assert np.all(wts > 0)
            assert np.max(np.abs(wts.sum(axis=1) - 1.0)) <= 1e-12
            assert np.max(np.abs(np.einsum("bm,bmij->bij", wts, atoms)
                                 - bar)) <= 1e-12
            half = atoms.shape[1] // 2  # sibling atoms sit half a row apart
            for left, right in zip(atoms[:, :half].reshape(-1, 2, 2),
                                   atoms[:, half:].reshape(-1, 2, 2)):
                assert is_rank_one_connected(left, right)

        # field/measure duality on random rank-one pairs: a sawtooth record
        # and the record of its laminate replay to the same gap
        entry = corpus_entry("exampleD")
        for k in range(trials):
            a = rng.normal(size=2)
            nu = rng.normal(size=2)
            if np.linalg.norm(a) < 1e-6 or np.linalg.norm(nu) < 1e-6:
                continue
            w = np.outer(a, nu / np.linalg.norm(nu))
            xi = rng.normal(size=(2, 2))
            eta = xi - w
            lam = float(rng.uniform(0.1, 0.9))
            mid = lam * xi + (1.0 - lam) * eta
            f_mid = float(entry(mid))
            ess = max(float(entry(xi)), float(entry(eta)))
            field = _field_witness("two-gradient-field", mid, f_mid, [xi, eta],
                                   ess, theta=lam)
            measure = _measure_witness([xi, eta], [lam, 1.0 - lam], f_mid, ess)
            a_gap = replay_witness(entry, field)    # f(mid) - ess sup f(mid + D phi)
            b_gap = replay_witness(entry, measure)  # f(barycenter) - ess sup over atoms
            assert abs(a_gap - b_gap) <= 1e-12 * (1.0 + abs(b_gap))

        # delta halving: every scaled-laminate row of criterion 2's strong
        # search keeps its boundary values theta(1-theta)|M+ - M-|/layers <= delta
        entry = corpus_entry("one_minus_chi_pair")
        mid = 0.5 * (entry.special_points[0] + entry.special_points[1])
        strong = search_strong_morrey_violation(
            entry, mid, entry.dims, tol=1e-9,
            budget=20_000, seed=SEED, radius=2.0,
            special_points=entry.special_points)
        wit = strong.witness
        assert wit["family"] == "scaled-periodic-laminate"
        Mp, Mm = (np.asarray(m) for m in wit["field_values"])
        c = wit["theta"] * (1.0 - wit["theta"]) * np.linalg.norm(Mp - Mm)
        assert len(wit["layers_per_delta"]) == len(DELTAS)
        for row, layers in zip(wit["per_delta"], wit["layers_per_delta"]):
            assert c / layers <= row["delta"]
