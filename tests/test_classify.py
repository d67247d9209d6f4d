import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from supcon import laminate
from supcon.classify import (ClassifyConfig, _aslist, _measure_gaps, _probe_points,
                             check_level_convex,
                             check_polyquasiconvex_necessary,
                             check_rank_one_qcx, check_supremal_jensen,
                             classify_report, probe_verdict, replay_witness,
                             search_weak_morrey_violation, two_atom_measures,
                             verdict_inconsistencies)
from supcon.funcspace import (GridSpec, corpus_entry, interpolating_evaluator,
                              sample, write_json)

SEED = 42


def _checker_args(entry, budget=20_000):
    return dict(tol=1e-9, budget=budget, seed=SEED, radius=2.0,
                special_points=entry.special_points)


# ---------------------------------------------------------------------------
# level convexity
# ---------------------------------------------------------------------------

def test_level_convex_arctan_det_violated():
    entry = corpus_entry("arctan_det")
    # the textbook witness: midpoints of the two singular diagonals pick up
    # determinant that neither endpoint has
    xi, eta = np.diag([2.0, 0.0]), np.diag([0.0, 2.0])
    assert entry.value(0.5 * xi + 0.5 * eta) == pytest.approx(math.pi / 4)
    assert entry.value(xi) == 0.0 and entry.value(eta) == 0.0

    v = check_level_convex(entry, entry.dims, **_checker_args(entry))
    assert v.violated
    assert replay_witness(entry, v.witness) == pytest.approx(v.witness["gap"], abs=1e-12)
    assert v.witness["gap"] > v.tol


def test_level_convex_clamp_holds():
    entry = corpus_entry("clamp1d")
    v = check_level_convex(entry, entry.dims, **_checker_args(entry))
    assert not v.violated
    assert v.budget == 20_000


def test_level_convexity_stream_counts_the_coarse_grid_before_building_it():
    # the stream built all 5^d coarse nodes before it tested whether their
    # pairs fit the budget: on a 4x4 matrix that was "Unable to allocate
    # 1.11 TiB" before the first sample
    def fro(a):
        return np.sqrt(np.sum(a * a, axis=(-2, -1)))
    v = check_level_convex(fro, (4, 4), budget=100)
    assert not v.violated and v.budget == 100
    atoms, weights = two_atom_measures((4, 4), seed=SEED, count=100)
    assert atoms.shape == (100, 2, 4, 4) and weights.shape == (100, 2)


def test_the_coarse_level_convexity_grid_does_not_read_the_memory_cap(monkeypatch):
    # the stream sizes its coarse grid against the budget; built as a GridSpec
    # it read SUPCON_MEM_CAP_MB, and a value that does not parse failed here
    monkeypatch.setenv("SUPCON_MEM_CAP_MB", "abc")
    v = check_level_convex(corpus_entry("abs"), (1, 1), budget=1000)
    assert not v.violated and v.budget == 1000


def test_level_convex_double_well_violated():
    entry = corpus_entry("double_well_1d")
    v = check_level_convex(entry, entry.dims, **_checker_args(entry))
    assert v.violated
    # the canonical witness exists regardless of which one the search hit
    assert entry.value(np.array([[0.0]])) == 1.0
    assert entry.value(np.array([[1.0]])) == 0.0


def test_level_convex_non_finite_gaps_do_not_mask_violations():
    # segments with both endpoints and the midpoint outside the sampled box
    # give inf - inf = NaN gaps; they must not hide the gap-1/4 witnesses
    # inside the box in the same batch
    coarse = sample(corpus_entry("double_well_1d"), GridSpec((1, 1), 1.0, 61))
    ev = interpolating_evaluator(coarse)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = check_level_convex(ev, (1, 1), tol=1e-6, budget=2000, radius=2.0)
    assert v.violated
    assert v.witness["gap"] == 0.25
    assert replay_witness(ev, v.witness) == v.witness["gap"]


def _slab(arr):
    # +inf on the slab |t| < 1/2, 0 off it: every gap a checker can find
    # here is inf - 0, which no replay reproduces to 1e-12
    t = np.asarray(arr, dtype=float)[..., 0, 0]
    return np.where(np.abs(t) < 0.5, np.inf, 0.0)


def _slab_calls():
    calls = {}
    for dims in ((1, 1), (2, 2)):
        e11 = np.zeros(dims)
        e11[0, 0] = 1.0
        zero = np.zeros(dims)
        calls |= {
            f"level_convex{dims}": lambda d=dims: check_level_convex(_slab, d, budget=2_000),
            f"rank_one{dims}": lambda d=dims: check_rank_one_qcx(_slab, d, budget=2_000),
            f"curl_young{dims}": lambda d=dims, e=e11: laminate.check_curl_young_on_laminates(
                _slab, d, budget=20, special_points=(e, -e)),
            f"periodic{dims}": lambda d=dims, z=zero: laminate.check_periodic_weak_morrey(
                _slab, z, d, budget=500),
            f"weak{dims}": lambda d=dims, z=zero: search_weak_morrey_violation(
                _slab, z, d, budget=500),
            f"strong{dims}": lambda d=dims, z=zero: laminate.search_strong_morrey_violation(
                _slab, z, d, budget=500),
        }
    calls["jensen"] = lambda: check_supremal_jensen(
        _slab, [[[[-1.0]], [[1.0]]]], [[0.5, 0.5]])
    calls["polyquasiconvex(2, 2)"] = lambda: check_polyquasiconvex_necessary(
        _slab, (2, 2), budget=20_000)
    return calls


@pytest.mark.parametrize("call", sorted(_slab_calls()))
def test_non_finite_gap_never_backs_a_violation(call):
    with np.errstate(invalid="ignore"):
        v = _slab_calls()[call]()
        if v.violated:
            gap = v.witness["gap"]
            assert math.isfinite(gap)
            assert abs(replay_witness(_slab, v.witness) - gap) <= 1e-12
    json.dumps(v.to_dict(), allow_nan=False)


@pytest.mark.parametrize("search", ["weak", "periodic", "strong"])
def test_field_searches_nan_values_do_not_mask_violations(search):
    # a double well left undefined (NaN) for t > 1.9: the NaN in a batch of
    # field values must not hide the oscillation between the wells at xi = 0
    from supcon import laminate
    entry = corpus_entry("double_well_1d")

    def f(arr):
        arr = np.asarray(arr, dtype=float)
        return np.where(arr[..., 0, 0] > 1.9, np.nan, entry(arr))

    run = {"weak": search_weak_morrey_violation,
           "periodic": laminate.check_periodic_weak_morrey,
           "strong": laminate.search_strong_morrey_violation}[search]
    v = run(f, np.zeros((1, 1)), (1, 1), tol=1e-9, budget=2000, seed=20240817,
            radius=2.0, special_points=entry.special_points)
    assert v.violated
    assert v.witness["gap"] == 1.0
    assert replay_witness(f, v.witness) == 1.0
    if search != "strong":
        assert v.budget == 2


@pytest.mark.parametrize("search", ["weak", "periodic", "strong"])
def test_field_searches_minus_inf_values_do_not_mask_violations(search):
    # the double well at -inf for |t| > 1.2 and on 0.2 < |t| < 0.3: a field
    # with every value there, or an affine probe at t = 0.25, has an infinite
    # gap that backs no violation; it must not hide the finite gap of the
    # oscillation between the wells at xi = 0, nor enter the witness
    from supcon import laminate
    entry = corpus_entry("double_well_1d")

    def f(arr):
        arr = np.asarray(arr, dtype=float)
        t = np.abs(arr[..., 0, 0])
        return np.where((t > 1.2) | ((0.2 < t) & (t < 0.3)), -np.inf, entry(arr))

    run = {"weak": search_weak_morrey_violation,
           "periodic": laminate.check_periodic_weak_morrey,
           "strong": laminate.search_strong_morrey_violation}[search]
    v = run(f, np.zeros((1, 1)), (1, 1), tol=1e-9, budget=2000, seed=20240817,
            radius=2.0, special_points=entry.special_points)
    assert v.violated
    assert v.witness["gap"] == 1.0
    assert replay_witness(f, v.witness) == 1.0
    json.dumps(v.to_dict(), allow_nan=False)


# ---------------------------------------------------------------------------
# rank-one quasiconvexity
# ---------------------------------------------------------------------------

def test_rank_one_arctan_det_holds():
    entry = corpus_entry("arctan_det")
    v = check_rank_one_qcx(entry, entry.dims, **_checker_args(entry, budget=10_000))
    assert not v.violated
    assert v.budget >= 10_000


def test_rank_one_pair_violated_at_midpoint():
    entry = corpus_entry("one_minus_chi_pair")
    v = check_rank_one_qcx(entry, entry.dims, **_checker_args(entry))
    assert v.violated
    assert v.witness["gap"] == 1.0
    assert replay_witness(entry, v.witness) == 1.0


def test_rank_one_convex_entry_holds():
    entry = corpus_entry("abs", dims=(2, 2))
    v = check_rank_one_qcx(entry, entry.dims, **_checker_args(entry, budget=5_000))
    assert not v.violated


def test_scalar_collapse_rank_one_equals_level():
    # in one dimension every pair is rank-one connected, so the notions agree
    for name in ("clamp1d", "double_well_1d", "exampleD_scalar", "abs"):
        entry = corpus_entry(name)
        lv = check_level_convex(entry, entry.dims, **_checker_args(entry, budget=5_000))
        ro = check_rank_one_qcx(entry, entry.dims, **_checker_args(entry, budget=5_000))
        assert lv.violated == ro.violated, name


# ---------------------------------------------------------------------------
# supremal Jensen
# ---------------------------------------------------------------------------

def _measure(*atoms):
    """One measure of 1x1 atoms, given as (value, weight) pairs, as the
    (atoms, weights) arrays of a batch of one."""
    return (np.array([[[[m]] for m, _ in atoms]]),
            np.array([[w for _, w in atoms]]))


def test_jensen_dirac_equality():
    entry = corpus_entry("double_well_1d")
    v = check_supremal_jensen(entry, *_measure((0.5, 1.0)))
    assert not v.violated


def test_jensen_two_atom_level_convex_holds():
    entry = corpus_entry("clamp1d")
    assert not check_supremal_jensen(entry, *_measure((-1.0, 0.5), (2.0, 0.5))).violated


def test_jensen_double_well_violated():
    entry = corpus_entry("double_well_1d")
    v = check_supremal_jensen(entry, *_measure((-1.0, 0.5), (1.0, 0.5)))
    assert v.violated
    assert v.witness["gap"] == 1.0
    assert replay_witness(entry, v.witness) == 1.0


def test_jensen_zero_weight_atom_excluded_from_support():
    atoms, weights = _measure((0.0, 1.0), (9.0, 0.0))
    entry = corpus_entry("abs")
    # the support is the atom at 0 alone: f there, not at the atom at 9
    assert _measure_gaps(entry, atoms, weights)[1].tolist() == [0.0]
    # dirac at 0 still holds even though the zero-weight atom has huge value
    assert not check_supremal_jensen(entry, atoms, weights).violated


def test_jensen_equivalent_to_level_convexity_matched_seeds():
    for name in ("clamp1d", "double_well_1d", "arctan_det", "W_sup"):
        entry = corpus_entry(name)
        lv = check_level_convex(entry, entry.dims, **_checker_args(entry, budget=3_000))
        atoms, weights = two_atom_measures(entry.dims, seed=SEED, count=3_000,
                                           radius=2.0,
                                           special_points=entry.special_points)
        jn = check_supremal_jensen(entry, atoms, weights)
        assert lv.violated == jn.violated, name


def _nan_beyond_1_5(arr):
    # undefined (NaN) for t > 1.5, a bump of height 1 on |t| < 0.3, else 0
    t = np.asarray(arr, dtype=float)[..., 0, 0]
    return np.where(t > 1.5, np.nan, np.where(np.abs(t) < 0.3, 1.0, 0.0))


@pytest.mark.parametrize("swap", [False, True])
def test_jensen_nan_atom_counts_as_inf_in_either_order(swap):
    # the barycenter 0 sits on the bump, but the atom at 2 has no value: the
    # ess sup is undefined, which counts as +inf, not as the other atom's 0
    atoms = [(np.array([[-1.0]]), 2.0 / 3.0), (np.array([[2.0]]), 1.0 / 3.0)]
    if swap:
        atoms.reverse()
    assert not check_supremal_jensen(_nan_beyond_1_5, *_measure(
        *((m[0, 0], w) for m, w in atoms))).violated
    forged = {"kind": "measure", "atoms": [[_aslist(m), w] for m, w in atoms]}
    assert replay_witness(_nan_beyond_1_5, forged) == -math.inf
    segment = {"kind": "segment", "xi": [[atoms[0][0][0, 0]]],
               "eta": [[atoms[1][0][0, 0]]], "lam": atoms[0][1]}
    assert replay_witness(_nan_beyond_1_5, segment) == -math.inf


def test_supremal_jensen_rejects_invalid_measures():
    entry = corpus_entry("arctan_det")
    atoms = np.stack([np.eye(2), np.eye(2)])[None]
    with pytest.raises(ValueError, match="summing to one"):
        check_supremal_jensen(entry, atoms, [[0.6, 0.6]])
    with pytest.raises(ValueError, match="nonnegative"):
        check_supremal_jensen(entry, atoms, [[-0.1, 1.1]])
    with pytest.raises(ValueError, match="summing to one"):  # one row of two is off
        check_supremal_jensen(entry, np.concatenate([atoms, atoms]),
                              [[0.5, 0.5], [0.5, 0.5 + 1e-9]])
    # a batch of no measures reported "holds-within-budget" on 0 samples
    for bad_atoms, weights in ((atoms, [[1.0]]), (atoms, [0.5, 0.5]),
                               (atoms[0], [[0.5, 0.5]]), (atoms[:0], np.empty((0, 2)))):
        with pytest.raises(ValueError, match="atoms must be"):
            check_supremal_jensen(entry, bad_atoms, weights)
    for value in (math.nan, math.inf, -math.inf):  # a NaN atom reported "holds"
        bad_atoms = atoms.copy()
        bad_atoms[0, 1, 0, 0] = value
        with pytest.raises(ValueError, match="atoms must have finite"):
            check_supremal_jensen(entry, bad_atoms, [[0.5, 0.5]])


@pytest.mark.parametrize("count", [0, -5])
def test_two_atom_measures_reject_a_count_below_one(count):
    # both returned empty arrays
    with pytest.raises(ValueError, match="count"):
        two_atom_measures((1, 1), seed=SEED, count=count)


def test_two_atom_measures_reject_a_count_that_is_not_an_integer():
    # died with a TypeError (slice indices) inside the pair stream
    with pytest.raises(ValueError, match="count must be an integer"):
        two_atom_measures((1, 1), seed=1, count=1.5)


# ---------------------------------------------------------------------------
# polyquasiconvexity necessary condition
# ---------------------------------------------------------------------------

def test_polyqcx_arctan_det_holds():
    entry = corpus_entry("arctan_det")
    v = check_polyquasiconvex_necessary(entry, entry.dims, **_checker_args(entry))
    assert not v.violated


def test_polyqcx_double_well_reduces_to_level_convexity():
    entry = corpus_entry("double_well_1d")
    v = check_polyquasiconvex_necessary(entry, entry.dims, **_checker_args(entry))
    assert v.violated


def test_polyqcx_pair_violated_by_rank_one_combo():
    entry = corpus_entry("one_minus_chi_pair")
    v = check_polyquasiconvex_necessary(entry, entry.dims, **_checker_args(entry))
    assert v.violated
    assert v.witness["minor_residual"] == 0.0
    assert replay_witness(entry, v.witness) == pytest.approx(v.witness["gap"], abs=1e-12)


def test_polyqcx_chi_det_holds():
    entry = corpus_entry("chi_det")
    v = check_polyquasiconvex_necessary(entry, entry.dims, **_checker_args(entry))
    assert not v.violated


def test_polyqcx_negative_abs_det_violated():
    # -|det| bends upward across the sign change of the determinant along
    # rank-one segments, a clean fully-synthetic violation
    def neg_abs_det(arr):
        return -np.abs(np.linalg.det(np.asarray(arr, dtype=float)))

    v = check_polyquasiconvex_necessary(neg_abs_det, (2, 2), tol=1e-9,
                                        budget=20_000, seed=SEED, radius=2.0)
    assert v.violated
    assert replay_witness(neg_abs_det, v.witness) == pytest.approx(
        v.witness["gap"], abs=1e-12)


def test_polyqcx_every_counted_sample_reaches_f():
    # the whole budget goes to the rank-one segment stream: one Halton block
    # of 20_000 // 6 = 3_333 pairs, each probed at the 5 grid weights and one
    # random weight (19_998 samples), then a block of 1 pair probed at the
    # first 2 weights.  One midpoint per sample, and the two endpoints once
    # per pair, shared by its weights: 20_000 + 2 * (3_333 + 1) = 26_668
    entry = corpus_entry("abs", dims=(2, 2))
    seen = 0

    def f(arr):
        nonlocal seen
        arr = np.asarray(arr, dtype=float)
        seen += arr.size // 4
        return entry(arr)

    v = check_polyquasiconvex_necessary(f, (2, 2), budget=20_000)
    assert not v.violated and v.budget == 20_000
    assert seen == 26_668


def test_polyqcx_trees_outside_the_box_raise_no_warning():
    # a rank-one segment whose midpoint leaves the sampled box (the box is
    # convex) has an endpoint outside it too, so its gap is inf - inf:
    # undefined, skipped, and not a warning
    coarse = sample(corpus_entry("abs", dims=(2, 2)), GridSpec((2, 2), 1.0, 5))
    ev = interpolating_evaluator(coarse)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = check_polyquasiconvex_necessary(ev, (2, 2), tol=1e-6, budget=20_000,
                                            radius=2.0)
    assert not v.violated and v.budget == 20_000


# ---------------------------------------------------------------------------
# weak Morrey search
# ---------------------------------------------------------------------------

def test_weak_double_well_sawtooth():
    entry = corpus_entry("double_well_1d")
    v = search_weak_morrey_violation(entry, np.array([[0.0]]), entry.dims,
                                     **_checker_args(entry, budget=2_000))
    assert v.violated
    assert v.witness["ess_sup"] == 0.0
    assert v.witness["gap"] == 1.0
    assert replay_witness(entry, v.witness) == 1.0


def test_weak_pair_midpoint_protected_by_rigidity():
    entry = corpus_entry("one_minus_chi_pair")
    mid = 0.5 * (entry.special_points[0] + entry.special_points[1])
    v = search_weak_morrey_violation(entry, mid, entry.dims,
                                     **_checker_args(entry, budget=10_000))
    assert not v.violated


def test_weak_arctan_det_holds():
    entry = corpus_entry("arctan_det")
    v = search_weak_morrey_violation(entry, np.zeros((2, 2)), entry.dims,
                                     **_checker_args(entry, budget=3_000))
    assert not v.violated


def test_weak_scalar_pair_fails():
    # for n = 1 the zero-boundary notion collapses onto level convexity,
    # so the scalar indicator pair is caught by an exact zigzag
    entry = corpus_entry("one_minus_chi_pair",
                         xi0=np.array([[-1.0]]), eta0=np.array([[1.0]]))
    v = search_weak_morrey_violation(entry, np.array([[0.0]]), entry.dims,
                                     **_checker_args(entry, budget=3_000))
    assert v.violated


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def test_classify_report_clamp_all_hold():
    rep = classify_report(corpus_entry("clamp1d"), ClassifyConfig(budget=5_000, seed=SEED))
    assert all(not v.violated for v in rep.verdicts.values())
    assert rep.inconsistencies == []
    assert rep.documented_mismatches == []


def test_classify_report_arctan_det():
    rep = classify_report(corpus_entry("arctan_det"), ClassifyConfig(budget=5_000, seed=SEED))
    assert rep.verdicts["level_convex"].violated
    for notion in ("rank_one", "polyquasiconvex", "weak_morrey",
                   "periodic_weak_morrey", "strong_morrey"):
        assert not rep.verdicts[notion].violated, notion
    assert rep.inconsistencies == []
    assert rep.documented_mismatches == []


def test_classify_report_pair():
    rep = classify_report(corpus_entry("one_minus_chi_pair"),
                          ClassifyConfig(budget=5_000, seed=SEED))
    assert not rep.verdicts["weak_morrey"].violated
    for notion in ("rank_one", "periodic_weak_morrey", "strong_morrey",
                   "level_convex", "polyquasiconvex"):
        assert rep.verdicts[notion].violated, notion
    assert rep.inconsistencies == []
    assert rep.documented_mismatches == []


def test_classify_report_json_serializable_and_threaded():
    rep = classify_report(corpus_entry("double_well_1d"),
                          ClassifyConfig(budget=2_000, seed=SEED))
    doc = rep.to_dict()
    text = json.dumps(doc, sort_keys=True)
    assert "level_convex" in text
    assert doc["verdicts"]["level_convex"]["statement"]


def test_checkers_work_on_interpolated_samples():
    # grid-backed evaluator with the looser tolerance the interpolation needs
    from supcon.funcspace import GridSpec, interpolating_evaluator, sample
    entry = corpus_entry("double_well_1d")
    sf = sample(entry, GridSpec((1, 1), 3.0, 121))
    ev = interpolating_evaluator(sf)
    v = check_level_convex(ev, (1, 1), tol=1e-6, budget=2_000, seed=SEED,
                           radius=2.0, special_points=entry.special_points)
    assert v.violated


@pytest.mark.parametrize("name, special", [("double_well_1d", True), ("double_well_1d", False),
                                           ("one_minus_chi_pair", True)])
def test_classify_report_passes_its_settings_to_every_checker(name, special):
    # at non-default settings each verdict is its checker's, run on its own;
    # the field notions split max(1000, budget // 10) over the probe points.
    # Without special points every double-well violation comes from the
    # Halton stream, so a radius left at its default moves its witness.
    entry = corpus_entry(name)
    if not special:
        entry = dataclasses.replace(entry, special_points=())
    cfg = ClassifyConfig(budget=20_000, tol=1e-7, seed=3, radius=1.5)
    kw = dict(tol=cfg.tol, seed=cfg.seed, radius=cfg.radius,
              special_points=entry.special_points)
    pointwise = {"level_convex": check_level_convex, "rank_one": check_rank_one_qcx,
                 "polyquasiconvex": check_polyquasiconvex_necessary,
                 "curl_young_laminates": laminate.check_curl_young_on_laminates}
    fields = {"weak_morrey": search_weak_morrey_violation,
              "periodic_weak_morrey": laminate.check_periodic_weak_morrey,
              "strong_morrey": laminate.search_strong_morrey_violation}
    want = {notion: check(entry, entry.dims, budget=cfg.budget, **kw)
            for notion, check in pointwise.items()}
    for notion, search in fields.items():
        want[notion] = probe_verdict(
            notion, _probe_points(entry.special_points, entry.dims),
            max(1000, cfg.budget // 10),
            lambda p, b, search=search: search(entry, p, entry.dims, budget=b, **kw),
            tol=cfg.tol, seed=cfg.seed)
    got = classify_report(entry, cfg).verdicts
    assert set(got) == set(want)
    for notion, v in want.items():
        assert json.dumps(got[notion].to_dict(), sort_keys=True) == \
            json.dumps(v.to_dict(), sort_keys=True), notion


def test_verdict_inconsistency_detection():
    rep = classify_report(corpus_entry("clamp1d"), ClassifyConfig(budget=1_000, seed=SEED))
    verdicts = dict(rep.verdicts)
    # forge an inconsistent combination to make sure the rule fires
    forged = verdicts["rank_one"]
    forged.outcome = "violated"
    forged.witness = {"kind": "segment", "xi": [[0.0]], "eta": [[1.0]],
                      "lam": 0.5, "gap": 1.0}
    lines = verdict_inconsistencies(verdicts)
    assert any("rank_one" in line for line in lines)


@pytest.mark.parametrize("field, value", [("budget", 0), ("tol", -1.0), ("tol", math.nan),
                                          ("tol", math.inf), ("radius", 0.0),
                                          ("radius", math.nan), ("radius", math.inf),
                                          ("budget", True), ("tol", False), ("radius", "2")])
def test_classify_config_rejects_bad_settings_naming_them(field, value):
    # a bool passed as a number and a string died in a bare TypeError
    with pytest.raises(ValueError, match=field):
        ClassifyConfig(**{field: value})


def test_classify_config_rejects_a_budget_that_is_not_an_integer():
    # was accepted; the report then died on a slice index inside the stream
    with pytest.raises(ValueError, match="budget must be an integer"):
        ClassifyConfig(budget=2.5)


def test_a_report_with_numpy_integer_settings_writes_plain_json(tmp_path):
    # numpy integers pass the count check, and json.dump then failed on the
    # report: "Object of type int64 is not JSON serializable"
    entry = corpus_entry("abs")
    got = classify_report(entry, ClassifyConfig(budget=np.int64(2000), seed=np.int64(3)))
    write_json(got.to_dict(), tmp_path / "got.json")
    write_json(classify_report(entry, ClassifyConfig(budget=2000, seed=3)).to_dict(),
               tmp_path / "want.json")
    got, want = (json.loads((tmp_path / name).read_text()) for name in ("got.json", "want.json"))
    assert got["config"] == {"budget": 2000, "tol": 1e-9, "seed": 3, "radius": 2.0}
    assert dict(got, timestamp="") == dict(want, timestamp="")


# every public checker, called on the double well with one setting replaced
CHECKERS = {
    "level_convex": lambda e, **kw: check_level_convex(e, e.dims, **kw),
    "rank_one": lambda e, **kw: check_rank_one_qcx(e, e.dims, **kw),
    "polyquasiconvex": lambda e, **kw: check_polyquasiconvex_necessary(e, e.dims, **kw),
    "weak_morrey": lambda e, **kw: search_weak_morrey_violation(e, [[0.0]], e.dims, **kw),
    "curl_young": lambda e, **kw: laminate.check_curl_young_on_laminates(e, e.dims, **kw),
    "periodic": lambda e, **kw: laminate.check_periodic_weak_morrey(e, [[0.0]], e.dims, **kw),
    "strong_morrey": lambda e, **kw: laminate.search_strong_morrey_violation(
        e, [[0.0]], e.dims, **kw),
}
BAD_SETTINGS = [("tol", math.nan), ("tol", math.inf), ("tol", -1.0), ("budget", 0),
                ("budget", -5), ("radius", math.nan), ("radius", 0.0), ("budget", True),
                ("tol", False), ("radius", True), ("radius", "2")]


@pytest.mark.parametrize("field, value", BAD_SETTINGS)
@pytest.mark.parametrize("checker", CHECKERS)
def test_checkers_reject_the_settings_classify_config_rejects(checker, field, value):
    # each reported "holds" on no samples or at a hollow tol, or a violation
    # with a negative gap, before it checked its settings
    entry = corpus_entry("double_well_1d")
    with pytest.raises(ValueError, match=field):
        CHECKERS[checker](entry, **{field: value})


@pytest.mark.parametrize("checker", CHECKERS)
def test_checkers_reject_a_budget_that_is_not_an_integer(checker):
    # check_level_convex died with a TypeError (slice indices) inside the
    # pair stream; the field searches ran on a rounded-down count
    with pytest.raises(ValueError, match="budget must be an integer"):
        CHECKERS[checker](corpus_entry("abs"), budget=2.5)


BAD_SEEDS = [2.5, -3, None, "7", False]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_classify_config_rejects_a_bad_seed_naming_it(seed):
    # was accepted; the checkers then died on a TypeError from SeedSequence,
    # on "+=: 'NoneType'" or on numpy's "expected non-negative integer"
    with pytest.raises(ValueError, match="seed must be"):
        ClassifyConfig(seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
@pytest.mark.parametrize("checker", CHECKERS)
def test_checkers_reject_a_bad_seed_naming_it(checker, seed):
    with pytest.raises(ValueError, match="seed must be"):
        CHECKERS[checker](corpus_entry("abs"), seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_jensen_probe_verdict_and_measures_reject_a_bad_seed_naming_it(seed):
    entry = corpus_entry("abs")
    atoms, weights = two_atom_measures((1, 1), seed=SEED, count=10)
    calls = [lambda: check_supremal_jensen(entry, atoms, weights, seed=seed),
             lambda: two_atom_measures((1, 1), seed=seed, count=10),
             lambda: probe_verdict("weak_morrey", [np.zeros((1, 1))], 100,
                                   lambda p, b: search_weak_morrey_violation(
                                       entry, p, (1, 1), budget=b), tol=1e-9, seed=seed)]
    for call in calls:
        with pytest.raises(ValueError, match="seed must be"):
            call()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_supremal_jensen_rejects_a_bad_tol(tol):
    atoms, weights = two_atom_measures((1, 1), seed=SEED, count=10)
    with pytest.raises(ValueError, match="tol"):
        check_supremal_jensen(corpus_entry("double_well_1d"), atoms, weights, tol=tol)


def _strong_search_on_w_sup(xi, budget, **kw):
    entry = corpus_entry("W_sup")
    return laminate.search_strong_morrey_violation(
        entry, xi, entry.dims, budget=budget, special_points=entry.special_points, **kw)


@pytest.mark.parametrize("probes, budget, tol, field", [
    ([], 1000, 1e-9, "probes"), ([np.zeros((2, 2))], 0, 1e-9, "budget"),
    ([np.zeros((2, 2))], -5, 1e-9, "budget"), ([np.zeros((2, 2))], 1000, math.nan, "tol")])
def test_probe_verdict_rejects_a_hollow_setting(probes, budget, tol, field):
    # each reported "holds": on 0 samples without probes, on 468 at budget 0
    # or -5 (one sample per probe) and on 1_148 at a NaN tol
    with pytest.raises(ValueError, match=field):
        probe_verdict("strong_morrey", probes, budget,
                      lambda xi, b: _strong_search_on_w_sup(xi, b, tol=1e-9), tol=tol)


FIELD_SEARCHES = {
    "weak_morrey": search_weak_morrey_violation,
    "periodic": laminate.check_periodic_weak_morrey,
    "strong_morrey": laminate.search_strong_morrey_violation,
}


@pytest.mark.parametrize("name, xi", [("abs", [[math.nan]]), ("abs", [[math.inf]]),
                                      ("abs", [[-math.inf]]),
                                      ("arctan_det", [[math.inf, 0.0], [0.0, 0.0]])])
@pytest.mark.parametrize("search", FIELD_SEARCHES)
def test_field_searches_reject_a_non_finite_xi(search, name, xi):
    # at xi = nan on abs each reported "holds", on 20_036, 20_000 and 19_972
    # samples; at the infinite xi on arctan_det the weak search died in an SVD
    entry = corpus_entry(name)
    with pytest.raises(ValueError, match=r"\bxi\b"):
        FIELD_SEARCHES[search](entry, xi, entry.dims, special_points=entry.special_points)


SPECIAL_POINT_USERS = {
    "level_convex": check_level_convex,
    "rank_one": check_rank_one_qcx,
    "polyquasiconvex": check_polyquasiconvex_necessary,
    "curl_young": laminate.check_curl_young_on_laminates,
    "weak_morrey": lambda f, dims, **kw: search_weak_morrey_violation(f, [[0.0]], dims, **kw),
    "periodic": lambda f, dims, **kw: laminate.check_periodic_weak_morrey(f, [[0.0]], dims, **kw),
    "strong_morrey": lambda f, dims, **kw: laminate.search_strong_morrey_violation(
        f, [[0.0]], dims, **kw),
    "two_atom_measures": lambda f, dims, budget, **kw: two_atom_measures(
        dims, seed=SEED, count=budget, **kw),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("user", SPECIAL_POINT_USERS)
def test_special_point_users_reject_a_non_finite_point(user, bad):
    # with [[nan]] every user of the rank-one pair test died in an SVD ("did
    # not converge"), the level-convexity and polyquasiconvexity checkers
    # reported "violated" on 12 samples and the measures held NaN atoms; with
    # [[inf]] or [[-inf]] every checker reported "violated"
    entry = corpus_entry("double_well_1d")
    with pytest.raises(ValueError, match="special_points"):
        SPECIAL_POINT_USERS[user](entry, entry.dims, budget=50,
                                  special_points=[[[bad]], [[1.0]]])


@pytest.mark.parametrize("radius", [0.0, math.nan, 1e-12])
def test_rank_one_stream_raises_on_a_radius_that_keeps_no_pair(radius):
    # at |t| <= 1e-8 throughout, every Halton block kept nothing and the
    # stream drew forever; a NaN radius or 0 is rejected up front
    entry = corpus_entry("abs")
    with pytest.raises(ValueError, match="radius"):
        check_rank_one_qcx(entry, entry.dims, budget=100, radius=radius)


def test_documented_mismatches_name_both_directions():
    expected = {"abs": "level_convex documented to fail but no violation found within budget",
                "double_well_1d": "level_convex documented to hold but a violation was found"}
    for name, line in expected.items():
        entry = corpus_entry(name)
        flags = dict(entry.documented_properties)
        flags["level_convex"] = not flags["level_convex"]
        flipped = dataclasses.replace(entry, documented_properties=flags)
        rep = classify_report(flipped, ClassifyConfig(budget=1_000, seed=SEED))
        assert rep.documented_mismatches == [line], name


def test_probe_points_add_the_origin_when_no_special_point_is_it():
    shifted = corpus_entry("one_minus_chi_pair", xi0=np.diag([3.0, 0.0]),
                           eta0=np.diag([1.0, 0.0]))  # midpoint diag(2, 0)
    probes = _probe_points(shifted.special_points, shifted.dims)
    assert len(probes) == 4 and np.array_equal(probes[-1], np.zeros((2, 2)))
    centred = corpus_entry("one_minus_chi_pair")  # its midpoint is the origin
    assert len(_probe_points(centred.special_points, centred.dims)) == 3


def test_probe_points_keep_the_origin_when_six_special_points_come_first():
    # with six special points before the origin, or none at it, all six
    # probes were special points and the origin was dropped
    pts = [np.array([[t]]) for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
    for points in (pts, pts + [np.zeros((1, 1))]):
        probes = _probe_points(points, (1, 1))
        assert len(probes) == 6 and np.array_equal(probes[-1], np.zeros((1, 1)))
        assert all(np.array_equal(p, q) for p, q in zip(probes, pts[:5]))
    # an origin among the first six stays where it is
    probes = _probe_points(pts[:3] + [np.zeros((1, 1))] + pts[3:], (1, 1))
    assert [float(p[0, 0]) for p in probes] == [1.0, 2.0, 3.0, 0.0, 4.0, 5.0]
