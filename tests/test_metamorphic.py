"""Metamorphic twins: invariances that theory fixes, checked without an oracle.

The supremal notions are sublevel-set notions, so the level-convex lsc
envelope commutes with every strictly increasing h: each node's value is
the smallest sampled threshold whose sublevel hull holds it, and h maps
sublevel sets of f onto those of h∘f.  The envelope only compares and picks
sampled values, so the twin holds bit for bit.  Convex hulls commute with
affine bijections, so the envelope also commutes with every symmetry σ of a
2x2 grid: lslc(f∘σ) = lslc(f)∘σ, whatever order σ puts the nodes in.  The
classify searches compare f values too, so on h∘f each notion keeps the
outcome, sample count and witness kind it has on f; h(t) = 2t + 1 doubles
every gap, and no gap these searches meet lies between tol/2 and tol;
h = exp stretches each gap by its own factor, and on the corpus none
crosses tol under it either.  The
weak and periodic field searches keep the least ess sup of a max over
gradient values, and t ↦ 2^k t is exact in floating point, so on 2^k f with
tol scaled by 2^k they pick the same fields bit for bit: the same outcome,
samples, theta and gradient values, every f value and gap times 2^k.  So
does the strong search, whose per-delta gaps and epsilon scale with them.
The lamination hull lowers a node to a chord value or a 1-d hull value of
its line, and both scale exactly by 2^k, as does its stop test; so it
commutes with 2^k scaling bit for bit, sweep for sweep.  The convex
envelope commutes with it too, but only to rounding: Qhull's facet
equations of 2^k f are not exactly those of f scaled.  The power-law family
commutes with it bit for bit in both modes: its shift and maximum scale
exactly, so the normalized samples, and every envelope taken of their
powers, are the same; each member, the gap to f and the worst monotone
breach (its tolerance a fixed fraction of the sample range) scale by 2^k.
Transposition ξ ↦ ξᵀ maps rank-one matrices, minors and the box onto
themselves, so each classify outcome of f(ξᵀ), with the special points
transposed, is f's.  So does every signed permutation ξ ↦ UξV (U, V
permutation matrices with signs; on 1x1 entries ξ ↦ −ξ): it maps the box
and the rank-one matrices onto themselves and the minors onto minors up
to sign, so f(UξV), its special points mapped back by ξ ↦ UᵀξVᵀ, keeps
f's outcomes.
"""

import dataclasses
import functools

import numpy as np
import pytest

from supcon import laminate
from supcon.classify import ClassifyConfig, classify_report, search_weak_morrey_violation
from supcon.cli import DEFAULT_P_SCHEDULE
from supcon.envelope import (convex_envelope, lamination_hull, level_convex_lsc_envelope,
                             power_law_envelope)
from supcon.funcspace import (DEFAULT_SEED, GridSpec, SampledFunction, corpus_entry,
                              corpus_names, sample)

INCREASING = {
    "2t+1": lambda t: 2.0 * t + 1.0,
    "exp": np.exp,
    "t^3+t": lambda t: t ** 3 + t,
}


def _grid(dims):
    # 61 nodes on a scalar axis, 5 per axis (625 nodes) on a 2x2 grid
    return GridSpec(dims, 2.0, 61 if dims == (1, 1) else 5)


@pytest.mark.parametrize("h", INCREASING, ids=list(INCREASING))
@pytest.mark.parametrize("name", corpus_names())
def test_lslc_commutes_with_increasing_maps(name, h):
    entry = corpus_entry(name)
    f = sample(entry, _grid(entry.dims))
    twin = level_convex_lsc_envelope(f.with_values(INCREASING[h](f.values)))
    mapped = INCREASING[h](level_convex_lsc_envelope(f).values)
    assert np.array_equal(twin.values, mapped)


def _lamination_grids():
    """The bench's three 2x2 grids and W_sup at P = 5."""
    g5 = GridSpec((2, 2), 2.0, 5)
    rng = np.random.default_rng(DEFAULT_SEED)
    return {"arctan_det": sample(corpus_entry("arctan_det"), GridSpec((2, 2), 2.0, 7)),
            "exampleD": sample(corpus_entry("exampleD"), GridSpec((2, 2), 2.0, 7)),
            "random": SampledFunction(g5, rng.standard_normal(g5.node_count)),
            "W_sup": sample(corpus_entry("W_sup"), g5)}


LAMINATION_GRIDS = _lamination_grids()


@pytest.mark.parametrize("k", (-10, -3, 5, 10))
@pytest.mark.parametrize("name", LAMINATION_GRIDS)
def test_lamination_hull_commutes_with_power_of_two_scaling(name, k):
    f = LAMINATION_GRIDS[name]
    c = 2.0 ** k
    h, info = lamination_hull(f, full_output=True)
    twin, twin_info = lamination_hull(f.with_values(c * f.values), full_output=True)
    assert np.array_equal(twin.values, c * h.values)
    assert twin_info == info


def _convex_grids():
    """The 2x2 corpus at P = 5 and 7 and the bench's three random P = 5 grids."""
    grids = {f"{name}-P{P}": sample(corpus_entry(name), GridSpec((2, 2), 2.0, P))
             for name in corpus_names() if corpus_entry(name).dims == (2, 2)
             for P in (5, 7)}
    g5 = GridSpec((2, 2), 2.0, 5)
    for seed in (20240817, 12345, 7):
        grids[f"random-{seed}"] = SampledFunction(
            g5, np.random.default_rng(seed).standard_normal(g5.node_count))
    return grids


CONVEX_GRIDS = _convex_grids()


@functools.cache
def _convex(name):
    return convex_envelope(CONVEX_GRIDS[name]).values


@pytest.mark.parametrize("k", (-10, -3, 5, 10))
@pytest.mark.parametrize("name", CONVEX_GRIDS)
def test_convex_envelope_commutes_with_power_of_two_scaling(name, k):
    # Qhull's facet normals do not scale exactly with the samples, so the
    # planes read back at the nodes off the vertices move by a few ulps
    f = CONVEX_GRIDS[name]
    c = 2.0 ** k
    twin = convex_envelope(f.with_values(c * f.values)).values
    assert np.all(np.abs(twin - c * _convex(name)) <= 1e-12 * c * np.max(np.abs(f.values)))


#: (entry, radius, points per axis, mode): the bench's two 2x2 powerlaw ops
#: first, then smaller 2x2 and 1-d grids, two of them with a monotone breach
POWER_LAW_CASES = [("exampleD", 10.0, 5, "convex-lower"),
                   ("W_sup", 10.0, 5, "lamination-upper"),
                   ("arctan_det", 10.0, 5, "lamination-upper"),
                   ("chi_det", 2.0, 5, "convex-lower"),
                   ("one_minus_chi_pair", 2.0, 5, "lamination-upper"),
                   ("double_well_1d", 10.0, 41, "convex-lower"),
                   ("double_well_1d", 4.0, 61, "lamination-upper"),
                   ("abs", 10.0, 41, "lamination-upper"),
                   ("exampleD_scalar", 4.0, 61, "convex-lower")]


@functools.cache
def _power_law(case):
    name, radius, points, mode = case
    entry = corpus_entry(name)
    f = sample(entry, GridSpec(entry.dims, radius, points))
    return f, power_law_envelope(f, DEFAULT_P_SCHEDULE, mode)


@pytest.mark.parametrize("k", (-10, -3, 5, 10))
@pytest.mark.parametrize("case", POWER_LAW_CASES,
                         ids=["-".join(map(str, c)) for c in POWER_LAW_CASES])
def test_power_law_family_commutes_with_power_of_two_scaling(case, k):
    f, rep = _power_law(case)
    c = 2.0 ** k
    twin = power_law_envelope(f.with_values(c * f.values), DEFAULT_P_SCHEDULE, case[3])
    assert twin.p_schedule == rep.p_schedule
    for got, want in zip(twin.per_p, rep.per_p):
        assert np.array_equal(got.values, c * want.values)
    assert twin.sup_gap_to_f == c * rep.sup_gap_to_f
    if rep.monotone_violation is None:
        assert twin.monotone_violation is None
    else:
        p, node, gap = rep.monotone_violation
        assert twin.monotone_violation == (p, node, c * gap)


# grid symmetries ξ ↦ σ(ξ) of a 2x2 grid, acting on the (ξ11, ξ12, ξ21, ξ22)
# axes of its value array
SYMMETRIES = {
    "transpose": lambda v: v.transpose(0, 2, 1, 3),
    "flip": lambda v: v[::-1],
    "row-swap": lambda v: v.transpose(2, 3, 0, 1),
    "negate": lambda v: v[::-1, ::-1, ::-1, ::-1],
}


def _symmetry_grids():
    for name in corpus_names():
        entry = corpus_entry(name)
        if entry.dims == (2, 2):
            yield pytest.param(sample(entry, _grid(entry.dims)), id=name)
    grid = GridSpec((2, 2), 2.0, 5)
    values = np.random.default_rng(20240817).standard_normal(grid.node_count)
    yield pytest.param(SampledFunction(grid, values.reshape(grid.shape)), id="random")


@pytest.mark.parametrize("f", _symmetry_grids())
def test_lslc_commutes_with_grid_symmetries(f):
    env = level_convex_lsc_envelope(f).values
    for name, sigma in SYMMETRIES.items():
        twin = level_convex_lsc_envelope(f.with_values(np.ascontiguousarray(sigma(f.values))))
        assert np.array_equal(twin.values, sigma(env)), name


def _summary(verdict):
    return verdict.outcome, verdict.budget, verdict.witness and verdict.witness["kind"]


@pytest.mark.parametrize("name", corpus_names())
def test_classify_verdicts_survive_an_increasing_map(name):
    entry = corpus_entry(name)
    config = ClassifyConfig(budget=20_000)
    want = {k: _summary(v) for k, v in classify_report(entry, config).verdicts.items()}
    for h in ("2t+1", "exp"):
        twin = dataclasses.replace(entry, evaluator=lambda a, h=INCREASING[h]: h(entry.evaluator(a)))
        got = classify_report(twin, config).verdicts
        assert {k: _summary(v) for k, v in got.items()} == want, h


def _transposed(entry):
    """f(ξᵀ), its special points transposed: a twin whose every notion holds
    or fails with f's, since rank-one directions, minors and the box map onto
    themselves under ξ ↦ ξᵀ."""
    return dataclasses.replace(
        entry, evaluator=lambda a: entry.evaluator(np.swapaxes(a, -1, -2)),
        special_points=tuple(np.asarray(p, dtype=float).T for p in entry.special_points))


@pytest.mark.parametrize("seed", (DEFAULT_SEED, 12345, 7))
@pytest.mark.parametrize("name", [n for n in corpus_names() if corpus_entry(n).dims == (2, 2)])
def test_classify_outcomes_survive_transposition(name, seed):
    entry = corpus_entry(name)
    config = ClassifyConfig(budget=20_000, seed=seed)
    want, got = (classify_report(e, config).verdicts for e in (entry, _transposed(entry)))
    assert {k: v.outcome for k, v in got.items()} == {k: v.outcome for k, v in want.items()}


#: signed permutations ξ ↦ UξV as (U, V): three on 2x2 entries, ξ ↦ −ξ on 1x1
SIGNED_PERMUTATIONS = {
    (2, 2): [(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)),
             (np.eye(2), np.diag([-1.0, 1.0])),
             (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))],
    (1, 1): [(-np.eye(1), np.eye(1))],
}


def _permuted(entry, U, V):
    """f(UξV), its special points mapped back by ξ ↦ UᵀξVᵀ."""
    return dataclasses.replace(
        entry, evaluator=lambda a: entry.evaluator(U @ a @ V),
        special_points=tuple(U.T @ np.asarray(p, dtype=float) @ V.T
                             for p in entry.special_points))


@pytest.mark.parametrize("seed", (DEFAULT_SEED, 12345, 7))
@pytest.mark.parametrize("name", corpus_names())
def test_classify_outcomes_survive_signed_permutations(name, seed):
    entry = corpus_entry(name)
    config = ClassifyConfig(budget=20_000, seed=seed)
    want = {k: v.outcome for k, v in classify_report(entry, config).verdicts.items()}
    for U, V in SIGNED_PERMUTATIONS[entry.dims]:
        got = classify_report(_permuted(entry, U, V), config).verdicts
        assert {k: v.outcome for k, v in got.items()} == want, (U, V)


FIELD_SEARCHES = {"weak": search_weak_morrey_violation,
                  "periodic": laminate.check_periodic_weak_morrey}


def _scaled(verdict, c):
    """The verdict with tol and every f value of its witness times c."""
    d = verdict.to_dict()
    d["tol"] *= c
    if d["witness"] is not None:
        for key in ("f_xi", "ess_sup", "gap"):
            d["witness"][key] *= c
    return d


@pytest.mark.parametrize("name", corpus_names())
def test_field_searches_pick_the_same_fields_under_power_of_two_scaling(name):
    entry = corpus_entry(name)
    points = [np.asarray(p, dtype=float) for p in entry.special_points]
    kw = dict(budget=1_000, special_points=entry.special_points)
    for search, run in FIELD_SEARCHES.items():
        for xi in points + [np.zeros(entry.dims)]:
            want = run(entry, xi, entry.dims, tol=1e-9, **kw)
            for k in range(-10, 11):
                c = 2.0 ** k

                def twin(a):
                    return c * np.asarray(entry(a), dtype=float)

                got = run(twin, xi, entry.dims, tol=1e-9 * c, **kw)
                assert got.to_dict() == _scaled(want, c), (search, xi.tolist(), k)


def _strong_scaled(verdict, c):
    """The strong verdict with tol and every f value and gap of its witness
    (each per-delta gap and epsilon too) times c."""
    d = _scaled(verdict, c)
    w = d["witness"]
    if w is not None:
        w["epsilon"] *= c
        for row in w["per_delta"]:
            row["gap"] *= c
    return d


@pytest.mark.parametrize("name", corpus_names())
def test_strong_search_picks_the_same_fields_under_power_of_two_scaling(name):
    # the laminate family keeps the least ess sup of a max and the affine
    # family the least value of each delta's probes; the persistence rule
    # compares gaps with each other and with tol, all times 2^k
    entry = corpus_entry(name)
    points = [np.asarray(p, dtype=float) for p in entry.special_points]
    kw = dict(budget=1_000, special_points=entry.special_points)
    run = laminate.search_strong_morrey_violation
    for xi in points + [np.zeros(entry.dims)]:
        want = run(entry, xi, entry.dims, tol=1e-9, **kw)
        for k in range(-10, 11):
            c = 2.0 ** k

            def twin(a):
                return c * np.asarray(entry(a), dtype=float)

            got = run(twin, xi, entry.dims, tol=1e-9 * c, **kw)
            assert got.to_dict() == _strong_scaled(want, c), (xi.tolist(), k)
