import numpy as np
import pytest

from supcon.classify import replay_witness
from supcon.funcspace import corpus_entry
from supcon.laminate import (DEFAULT_DELTA_SCHEDULE, Laminate, TestField,
                             check_curl_young_on_laminates,
                             check_periodic_weak_morrey, laminate_barycenter,
                             nu_ess_sup, realize_simple_laminate,
                             sample_laminates,
                             search_strong_morrey_violation)

SEED = 7
E11 = np.array([[1.0, 0.0], [0.0, 0.0]])


def _args(entry, budget=10_000):
    return dict(tol=1e-9, budget=budget, seed=SEED, radius=2.0,
                special_points=entry.special_points)


# ---------------------------------------------------------------------------
# laminate structure
# ---------------------------------------------------------------------------

def test_leaf_barycenter():
    L = Laminate(matrix=np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(laminate_barycenter(L), [[1.0, 2.0], [3.0, 4.0]])


def test_split_barycenter_midpoint():
    L = Laminate(lam=0.5, left=Laminate(matrix=E11), right=Laminate(matrix=-E11))
    assert np.array_equal(laminate_barycenter(L), np.zeros((2, 2)))


def test_second_order_barycenter_two_ways():
    inner = Laminate(lam=0.5, left=Laminate(matrix=2.0 * E11),
                     right=Laminate(matrix=-E11))
    outer = Laminate(lam=0.5, left=inner, right=Laminate(matrix=-0.5 * E11))
    from_atoms = laminate_barycenter(outer)
    recursive = outer.barycenter()
    assert np.max(np.abs(from_atoms - recursive)) <= 1e-12
    weights = [w for _, w in outer.atoms()]
    assert abs(sum(weights) - 1.0) <= 1e-12
    assert all(w > 0 for w in weights)


def test_split_requires_rank_one_barycenters():
    with pytest.raises(ValueError):
        Laminate(lam=0.5, left=Laminate(matrix=np.eye(2)),
                 right=Laminate(matrix=np.zeros((2, 2))))
    with pytest.raises(ValueError):
        Laminate(lam=1.5, left=Laminate(matrix=E11),
                 right=Laminate(matrix=-E11))


def test_nu_ess_sup():
    entry = corpus_entry("one_minus_chi_pair")
    L = Laminate(lam=0.5, left=Laminate(matrix=E11), right=Laminate(matrix=-E11))
    assert nu_ess_sup(L, entry) == 0.0
    assert nu_ess_sup(Laminate(matrix=np.zeros((2, 2))), entry) == 1.0


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
    L = Laminate(lam=lam, left=Laminate(matrix=pair[0]), right=Laminate(matrix=pair[1]))
    assert nu_ess_sup(L, _nan_beyond_1_5) == np.inf
    field = realize_simple_laminate(pair[0], pair[1], lam)
    assert field.ess_sup(_nan_beyond_1_5, np.zeros((1, 1))) == np.inf


def test_sample_laminates_valid():
    lams = sample_laminates((2, 2), seed=SEED, count=50, max_order=3)
    for L in lams:
        atoms = L.atoms()
        assert abs(sum(w for _, w in atoms) - 1.0) <= 1e-12
        assert L.order() <= 3
        assert np.max(np.abs(laminate_barycenter(L) - L.barycenter())) <= 1e-12


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


# ---------------------------------------------------------------------------
# field realization
# ---------------------------------------------------------------------------

def test_realize_1d_hat():
    fld = realize_simple_laminate(np.array([[1.0]]), np.array([[-1.0]]), 0.5)
    dist = {g.item(): v for v, g in fld.gradient_distribution()}
    assert dist == {1.0: 0.5, -1.0: 0.5}
    assert fld.boundary_sup == 0.5  # |xi - eta| * lam(1-lam) = 2 * 0.25
    assert fld.kind == "periodic"


def test_realize_degenerate_lambda_gives_zero_field():
    fld = realize_simple_laminate(E11, -E11, 1.0)
    assert fld.grad_bound == 0.0
    assert all(np.all(g == 0.0) for _, g in fld.cells)


def test_realize_rejects_non_rank_one():
    with pytest.raises(ValueError):
        realize_simple_laminate(np.eye(2), np.zeros((2, 2)), 0.5)


def test_doubling_layers_halves_boundary():
    for layers in (1, 2, 4, 8):
        f1 = realize_simple_laminate(E11, -E11, 0.3, layers=layers)
        f2 = realize_simple_laminate(E11, -E11, 0.3, layers=2 * layers)
        assert f2.boundary_sup == f1.boundary_sup / 2.0
        assert f2.grad_bound == f1.grad_bound


def test_field_measure_duality():
    # the field's gradient statistics coincide with the laminate weights
    entry = corpus_entry("one_minus_chi_pair")
    lam = 0.25
    fld = realize_simple_laminate(E11, -E11, lam, layers=4)
    dist = fld.gradient_distribution()
    vols = sorted(v for v, _ in dist)
    assert vols == [lam, 1.0 - lam]
    mid = lam * E11 + (1.0 - lam) * (-E11)
    L = Laminate(lam=lam, left=Laminate(matrix=E11), right=Laminate(matrix=-E11))
    assert fld.ess_sup(entry, mid) == nu_ess_sup(L, entry)


def test_transition_layer_breaks_two_value_structure():
    # the smoothed variant inserts a zero-gradient band; the indicator pair
    # then sees the barycenter itself and the gap closes
    entry = corpus_entry("one_minus_chi_pair")
    A, B = entry.special_points[0], entry.special_points[1]
    mid = 0.5 * (A + B)
    sharp = realize_simple_laminate(A, B, 0.5)
    smooth = realize_simple_laminate(A, B, 0.5, transition_fraction=0.2)
    assert sharp.ess_sup(entry, mid) == 0.0
    assert smooth.ess_sup(entry, mid) == 1.0
    vols = [v for v, _ in smooth.cells]
    assert abs(sum(vols) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        realize_simple_laminate(A, B, 0.5, transition_fraction=0.5)


def test_realize_rotated_normal():
    # lamination normal along (1,1)/sqrt(2): the rotated-cube construction
    a = np.array([1.0, 0.0])
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    xi = np.outer(a, nu)
    fld = realize_simple_laminate(xi, -xi, 0.5)
    assert fld.normal is not None
    assert abs(np.linalg.norm(fld.normal) - 1.0) <= 1e-12
    assert abs(abs(np.dot(fld.normal, nu)) - 1.0) <= 1e-12


def test_testfield_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        TestField(cells=((0.5, np.zeros((1, 1))),), boundary_sup=0.0,
                  grad_bound=0.0, kind="periodic")  # volumes must sum to 1
    with pytest.raises(ValueError):
        TestField(cells=((1.0, np.zeros((1, 1))),), boundary_sup=0.1,
                  grad_bound=0.0, kind="zero-boundary")
    fld = realize_simple_laminate(E11, -E11, 0.5, layers=2)
    fld.to_csv(tmp_path / "field.csv")
    text = (tmp_path / "field.csv").read_text().splitlines()
    assert text[0] == "cell,volume,grad_0,grad_1,grad_2,grad_3"
    assert len(text) == 1 + len(fld.cells)


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
