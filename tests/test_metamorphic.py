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
every gap, and no gap these searches meet lies between tol/2 and tol.  The
weak and periodic field searches keep the least ess sup of a max over
gradient values, and t ↦ 2^k t is exact in floating point, so on 2^k f with
tol scaled by 2^k they pick the same fields bit for bit: the same outcome,
samples, theta and gradient values, every f value and gap times 2^k.  So
does the strong search, whose per-delta gaps and epsilon scale with them.
"""

import dataclasses

import numpy as np
import pytest

from supcon import laminate
from supcon.classify import ClassifyConfig, classify_report, search_weak_morrey_violation
from supcon.envelope import level_convex_lsc_envelope
from supcon.funcspace import GridSpec, SampledFunction, corpus_entry, corpus_names, sample

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
    twin = dataclasses.replace(entry, evaluator=lambda a: 2.0 * entry.evaluator(a) + 1.0)
    config = ClassifyConfig(budget=20_000)
    want, got = (classify_report(e, config).verdicts for e in (entry, twin))
    assert {k: _summary(v) for k, v in got.items()} == {k: _summary(v) for k, v in want.items()}


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
