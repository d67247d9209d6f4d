import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supcon.funcspace import (GridSpec, SampledFunction, corpus_entry,
                              corpus_names, hierarchy_breaks,
                              interpolate, interpolating_evaluator, load_csv,
                              sample, save_csv)
from supcon.matspace import minors_batch


# ---------------------------------------------------------------------------
# corpus values
# ---------------------------------------------------------------------------

def test_arctan_det_at_identity():
    assert corpus_entry("arctan_det").value(np.eye(2)) == math.atan(1.0)
    assert corpus_entry("arctan_det").value(np.eye(2)) == pytest.approx(math.pi / 4)


def test_clamp_branches():
    assert corpus_entry("clamp1d").value(np.array([[0.5]])) == 0.5
    assert corpus_entry("clamp1d").value(np.array([[-3.0]])) == 0.0
    assert corpus_entry("clamp1d").value(np.array([[7.0]])) == 1.0


def test_W_sup_small_norm_zero_det():
    # |xi| <= 1 keeps the shelf at zero and arctan(0) = 0
    assert corpus_entry("W_sup").value(np.diag([1.0, 0.0])) == 0.0
    assert corpus_entry("W_sup").value(0.5 * np.diag([1.0, 0.0])) == 0.0
    # shelf ramp plus determinant term
    assert corpus_entry("W_sup").value(np.diag([2.0, 0.0])) == 1.0
    assert corpus_entry("W_sup").value(np.eye(2)) == pytest.approx(
        max(math.sqrt(2) - 1.0, math.atan(1.0)))


def test_chi_det_closed_vs_open_threshold():
    assert corpus_entry("chi_det").value(np.eye(2)) == 1.0
    assert corpus_entry("chi_det_open").value(np.eye(2)) == 0.0
    assert corpus_entry("chi_det").value(2.0 * np.eye(2)) == 1.0
    assert corpus_entry("chi_det").value(np.diag([2.0, 0.0])) == 0.0


def test_det_threshold_exact_on_dyadic_input():
    # det = 1 exactly; a batched LU gives 0.9999999999999999 here
    A = np.array([[0.75, 0.125], [1.75, 1.625]])
    assert corpus_entry("chi_det").value(A) == 1.0
    assert corpus_entry("chi_det_open").value(A) == 0.0


_EIGHTHS = st.integers(-16, 16).map(lambda k: k / 8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_EIGHTHS, min_size=4, max_size=4), min_size=1,
                max_size=40))
def test_corpus_det_is_the_exact_det_and_the_minors_det(rows):
    A = np.array(rows, dtype=float).reshape(-1, 2, 2)
    exact = np.array([float(Fraction(a[0, 0]) * Fraction(a[1, 1])
                            - Fraction(a[0, 1]) * Fraction(a[1, 0])) for a in A])
    assert np.array_equal(corpus_entry("chi_det")(A), (exact >= 1.0).astype(float))
    assert np.array_equal(corpus_entry("chi_det_open")(A), (exact > 1.0).astype(float))
    assert np.array_equal(corpus_entry("arctan_det")(A), np.arctan(exact))
    assert np.array_equal(corpus_entry("arctan_det")(A),
                          np.arctan(minors_batch(A)[..., -1]))


def test_exampleD_profile():
    f = corpus_entry("exampleD_scalar")
    assert f.value(np.array([[0.5]])) == 0.5
    assert f.value(np.array([[-1.5]])) == 1.0
    assert f.value(np.array([[3.0]])) == 1.5
    g = corpus_entry("exampleD")
    assert g.value(np.zeros((2, 2))) == 0.0
    # Frobenius norm 3 lands on the coercive branch: value |xi|/2
    assert g.value(np.diag([3.0, 0.0])) == 1.5


def test_one_minus_chi_pair_atoms():
    f = corpus_entry("one_minus_chi_pair")
    xi0, eta0, mid = f.special_points
    assert f.value(xi0) == 0.0
    assert f.value(eta0) == 0.0
    assert f.value(mid) == 1.0


def test_half_space_chi():
    f = corpus_entry("half_space_chi")
    e = np.zeros((2, 2)); e[0, 0] = 1.0
    assert f.value(e) == 1.0
    assert f.value(0.999 * e) == 0.0


def test_unknown_name_and_dims_mismatch():
    with pytest.raises(KeyError):
        corpus_entry("no_such_function").value(np.eye(2))
    with pytest.raises(ValueError):
        corpus_entry("arctan_det")(np.zeros((1, 1)))


def test_documented_flags_consistent_across_corpus():
    for name in corpus_names():
        assert hierarchy_breaks(corpus_entry(name).documented_properties) == []


# ---------------------------------------------------------------------------
# grid + sampling
# ---------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec((1, 1), 1.0, 4)  # even
    with pytest.raises(ValueError):
        GridSpec((1, 1), -1.0, 5)
    with pytest.raises(ValueError):
        GridSpec((0, 1), 1.0, 5)
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            GridSpec((1, 1), radius, 5)
    # (2, 2), 2.0, 7.5 was accepted with node_count 3164.0625 and died in
    # axis() with a TypeError; dims (2.0, 2) was accepted too
    for dims, points, field in (((2, 2), 7.5, "points_per_axis"),
                                ((2, 2), 7.0, "points_per_axis"),
                                ((2.0, 2), 5, "dims"), ((1, 1.0), 5, "dims")):
        with pytest.raises(ValueError, match=field):
            GridSpec(dims, 2.0, points)
    g = GridSpec((np.int64(1), np.int32(1)), 2.0, np.int64(5))  # numpy integers are integers
    assert g.node_count == 5 and len(g.axis()) == 5


@pytest.mark.parametrize("dims", [(2,), (1, 1, 1), 2, None])
def test_gridspec_rejects_dims_that_are_not_a_pair(dims):
    # (2,) failed with "not enough values to unpack", 2 and None with a TypeError
    with pytest.raises(ValueError, match="dims"):
        GridSpec(dims, 1.0, 5)


def test_memory_cap(monkeypatch):
    monkeypatch.setenv("SUPCON_MEM_CAP_MB", "0.001")
    with pytest.raises(MemoryError):
        GridSpec((2, 2), 1.0, 9)


@pytest.mark.parametrize("cap", ["nan", "inf", "0", "-5", "abc"])
def test_memory_cap_rejects_bad_values(monkeypatch, cap):
    monkeypatch.setenv("SUPCON_MEM_CAP_MB", cap)
    with pytest.raises(ValueError, match="SUPCON_MEM_CAP_MB"):
        GridSpec((1, 1), 1.0, 41)


def test_sample_abs_three_points():
    f = sample(corpus_entry("abs"), GridSpec((1, 1), 1.0, 3))
    assert f.values.tolist() == [1.0, 0.0, 1.0]


def test_sample_clamp_five_points():
    f = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 2.0, 5))
    assert f.values.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]


def test_sample_chi_det_identity_node():
    grid = GridSpec((2, 2), 2.0, 5)
    f = sample(corpus_entry("chi_det"), grid)
    ax = grid.axis().tolist()
    i1 = ax.index(1.0)
    i0 = ax.index(0.0)
    assert f.values[(i1, i0, i0, i1)] == 1.0


def test_sample_round_trip_with_eval():
    entry = corpus_entry("arctan_det")
    grid = GridSpec((2, 2), 2.0, 5)
    f = sample(entry, grid)
    nodes = grid.nodes()
    for idx in (0, 100, grid.node_count - 1):
        assert interpolate(f, nodes[idx]) == entry.value(nodes[idx])


def test_interpolate_midpoint_linear():
    f = SampledFunction(GridSpec((1, 1), 1.0, 3), np.array([0.0, 0.0, 1.0]))
    assert interpolate(f, np.array([[0.5]])) == 0.5


def test_interpolate_outside_modes():
    g = GridSpec((1, 1), 1.0, 3)
    f = SampledFunction(g, np.array([1.0, 0.0, 1.0]), "plus-infinity")
    assert interpolate(f, np.array([[2.0]])) == math.inf
    f2 = SampledFunction(g, np.array([1.0, 0.0, 1.0]), "clamp-to-boundary")
    assert interpolate(f2, np.array([[2.0]])) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.floats(-1.0, 1.0))
def test_interpolation_is_monotone_between_nodes(seed, x):
    rng = np.random.default_rng(seed)
    g = GridSpec((1, 1), 1.0, 5)
    vals = rng.normal(size=5)
    f = SampledFunction(g, vals)
    v = interpolate(f, np.array([[x]]))
    ax = g.axis()
    i = min(int(np.floor((x + 1.0) / g.spacing)), 3)
    lo, hi = sorted((vals[i], vals[i + 1]))
    assert lo - 1e-12 <= v <= hi + 1e-12


def test_interpolation_monotone_2d():
    rng = np.random.default_rng(5)
    g = GridSpec((1, 2), 1.0, 3)
    f = SampledFunction(g, rng.normal(size=9))
    q = np.array([[0.3, -0.2]])
    v = interpolate(f, q)
    assert f.values.min() - 1e-12 <= v <= f.values.max() + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([((1, 1), 3), ((1, 1), 7), ((2, 2), 3), ((2, 2), 5)]),
       st.sampled_from(["plus-infinity", "clamp-to-boundary"]),
       st.sampled_from([1.0, 2.0, 0.7]), st.integers(0, 2**32 - 1))
def test_interpolation_matches_per_point_oracle(grid, mode, radius, seed):
    # each coordinate is a node, a point between nodes, a box face or a point
    # outside the box, so queries mix all of these within one batch
    (dims, points), rng = grid, np.random.default_rng(seed)
    g = GridSpec(dims, radius, points)
    f = SampledFunction(g, rng.normal(size=g.node_count), mode)
    shape = (3, 4, *dims)
    choices = np.stack([rng.choice(g.axis(), size=shape),
                        rng.uniform(-radius, radius, size=shape),
                        rng.choice([-radius, radius], size=shape),
                        rng.choice([-1.0, 1.0], size=shape)
                        * radius * rng.uniform(1.0 + 1e-12, 2.0, size=shape)])
    queries = np.take_along_axis(choices, rng.integers(0, 4, size=(1, *shape)), 0)[0]
    ref = np.array([oracles.interpolate(f, m) for m in queries.reshape(-1, *dims)])
    assert np.array_equal(interpolating_evaluator(f)(queries), ref.reshape(3, 4))
    assert np.array_equal([interpolate(f, m) for m in queries.reshape(-1, *dims)], ref)


def test_interpolation_nan_query_gives_nan():
    clamp = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 2.0, 5))
    ev = interpolating_evaluator(clamp)
    out = ev(np.array([[[np.nan]], [[0.5]]]))
    assert np.isnan(out[0]) and out[1] == ev(np.array([[[0.5]]]))[0]
    assert math.isnan(interpolate(clamp, [np.nan]))
    # NaN wins over the +inf of a query that also leaves the box
    rng = np.random.default_rng(3)
    f = SampledFunction(GridSpec((2, 2), 1.0, 5), rng.normal(size=625), "plus-infinity")
    q = rng.uniform(-1.5, 1.5, size=(6, 2, 2))
    q[1, 0, 1] = q[4, 1, 1] = np.nan
    q[4, 0, 0] = 3.0
    out = interpolating_evaluator(f)(q)
    assert np.isnan(out[[1, 4]]).all()
    rest = [0, 2, 3, 5]
    assert np.array_equal(out[rest], interpolating_evaluator(f)(q[rest]))


def test_values_must_be_finite():
    with pytest.raises(ValueError):
        SampledFunction(GridSpec((1, 1), 1.0, 3), np.array([0.0, math.inf, 0.0]))


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    entry = corpus_entry("double_well_1d")
    f = sample(entry, GridSpec((1, 1), 3.0, 21))
    path = tmp_path / "dw.csv"
    save_csv(f, path)
    assert (tmp_path / "dw.json").exists()
    g = load_csv(path)
    assert np.array_equal(g.values, f.values)
    assert g.grid == f.grid
    assert g.outside_mode == f.outside_mode


def test_csv_header_layout(tmp_path):
    f = sample(corpus_entry("arctan_det"), GridSpec((2, 2), 1.0, 3))
    path = tmp_path / "a.csv"
    save_csv(f, path)
    header = path.read_text().splitlines()[0]
    assert header == "axis_0,axis_1,axis_2,axis_3,value"


def test_csv_sidecar_contents(tmp_path):
    f = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 2.0, 5))
    save_csv(f, tmp_path / "c.csv")
    meta = json.loads((tmp_path / "c.json").read_text())
    assert meta == {"dims": [1, 1], "radius": 2.0, "points_per_axis": 5,
                    "outside_mode": "clamp-to-boundary"}


@pytest.mark.parametrize("dims,points,radius", [((1, 1), 2001, 3.0), ((2, 2), 5, 2.0),
                                                ((2, 2), 7, 0.7)])
def test_save_csv_bytes_match_the_csv_writer(tmp_path, dims, points, radius):
    # the old csv.writer loop in oracles.py is the reference, byte for byte,
    # with signed zero, huge, subnormal and long-repr values among the rows
    g = GridSpec(dims, radius, points)
    rng = np.random.default_rng(points)
    vals = rng.standard_normal(g.node_count) * 10.0 ** rng.integers(-300, 300, g.node_count)
    vals[:5] = [-0.0, 0.0, 1e300, 5e-324, 1 / 3]
    f = SampledFunction(g, vals, "clamp-to-boundary")
    save_csv(f, tmp_path / "new.csv")
    oracles.save_csv(f, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    # and load_csv reads every value back bit for bit
    assert load_csv(tmp_path / "new.csv").values.tobytes() == f.values.tobytes()


def _random_grid_csv(tmp_path, radius):
    rng = np.random.default_rng(5)
    f = SampledFunction(GridSpec((2, 2), radius, 3), rng.normal(size=3 ** 4))
    path = tmp_path / "r.csv"
    save_csv(f, path)
    return path


def test_load_csv_rejects_reordered_rows(tmp_path):
    path = _random_grid_csv(tmp_path, 2.0)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + rows[::-1]) + "\n")
    with pytest.raises(ValueError, match="axis columns"):
        load_csv(path)


def test_load_csv_rejects_axes_of_another_radius(tmp_path):
    path = _random_grid_csv(tmp_path, 1.0)
    meta = json.loads((tmp_path / "r.json").read_text())
    meta["radius"] = 2.0
    (tmp_path / "r.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="axis columns"):
        load_csv(path)


@pytest.mark.filterwarnings("ignore:Input line")  # numpy notes the skipped blank line
def test_load_csv_takes_exactly_one_row_per_node(tmp_path):
    path = _random_grid_csv(tmp_path, 2.0)
    header, *rows = path.read_text().splitlines()
    want = load_csv(path).values

    def load(head, lines):
        path.write_text("\n".join([head, *lines]) + "\n")
        return load_csv(path)

    with pytest.raises(ValueError, match="header"):
        load("axis_0,value", rows)
    with pytest.raises(ValueError):  # a short row
        load(header, rows[:3] + [rows[3].rsplit(",", 1)[0]] + rows[4:])
    for lines in (rows + rows[-1:], rows[:-1], rows[:3] + [""] + rows[4:]):
        with pytest.raises(ValueError, match="do not match the grid"):
            load(header, lines)  # an extra row, a missing one, a blank line for one
    # a blank line between rows is skipped
    assert np.array_equal(load(header, rows[:3] + [""] + rows[3:]).values, want)


@pytest.mark.parametrize("points", [7.9, 7.0])
def test_load_csv_rejects_a_sidecar_grid_size_that_is_not_an_integer(tmp_path, points):
    # a points_per_axis of 7.9 went through int() and loaded a 7-point grid
    f = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 2.0, 7))
    save_csv(f, tmp_path / "c.csv")
    meta = json.loads((tmp_path / "c.json").read_text())
    (tmp_path / "c.json").write_text(json.dumps(dict(meta, points_per_axis=points)))
    with pytest.raises(ValueError, match="points_per_axis"):
        load_csv(tmp_path / "c.csv")
