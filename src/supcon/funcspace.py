"""Supremand corpus and grid sampling over boxes in R^{N x n}.

The corpus collects the closed-form example supremands that drive every
checker and envelope experiment in this package, each with its documented
convexity flags (which notions hold, which fail).  A supremand is evaluated
batch-wise: the evaluator accepts an array of shape ``(..., N, n)`` and
returns values of shape ``(...)``.

Grids are regular, centered boxes ``[-R, R]^{N*n}`` with an odd number of
points per axis, so the origin and symmetric pairs are exact grid nodes.
Functions restricted to a grid (``SampledFunction``) carry an
``outside_mode`` describing their extension beyond the box:

* ``"plus-infinity"`` for coercive supremands (the envelope of the restricted
  function then over-estimates the global one only through truncation), and
* ``"clamp-to-boundary"`` for bounded supremands (values continue constantly;
  a convex lower bound of such an extension collapses to the global minimum,
  which downstream envelope code handles explicitly).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .matspace import det2

__all__ = [
    "GridSpec",
    "SampledFunction",
    "CorpusEntry",
    "corpus_entry",
    "corpus_names",
    "sample",
    "interpolate",
    "interpolating_evaluator",
    "save_csv",
    "load_csv",
    "write_json",
    "hierarchy_breaks",
    "HIERARCHY_IMPLIES",
    "DEFAULT_SEED",
]

MODE_PLUS_INFINITY = "plus-infinity"
MODE_CLAMP = "clamp-to-boundary"

#: Seed of every seeded search and experiment unless the caller sets one.
DEFAULT_SEED = 20240817

#: Implications valid for every Borel-measurable supremand: if the key notion
#: holds, each listed notion holds as well.  (Implications needing extra
#: hypotheses, e.g. lower or upper semicontinuity, are deliberately absent.)
#: The same table checks the documented flags of the corpus and, with the
#: classifier's verdicts, flags a search that missed a witness another found.
HIERARCHY_IMPLIES = {
    "level_convex": ("polyquasiconvex", "rank_one", "weak_morrey",
                     "periodic_weak_morrey", "curl_young_laminates"),
    "polyquasiconvex": ("rank_one", "weak_morrey", "periodic_weak_morrey",
                        "curl_young_laminates"),
    "strong_morrey": ("periodic_weak_morrey", "weak_morrey", "rank_one"),
    "periodic_weak_morrey": ("weak_morrey", "rank_one"),
    "curl_young_laminates": ("rank_one",),
    "curl_infinity": ("strong_morrey", "periodic_weak_morrey", "weak_morrey", "rank_one"),
}


def hierarchy_breaks(holds: dict) -> list[tuple[str, str]]:
    """The (strong, weak) pairs of ``HIERARCHY_IMPLIES``, in table order,
    that a notion -> True (holds) / False (fails) map contradicts: strong
    holds but weak fails.  An absent notion is unknown and breaks nothing."""
    return [(strong, weak) for strong, weaker in HIERARCHY_IMPLIES.items()
            if holds.get(strong) is True
            for weak in weaker if holds.get(weak) is False]


def _check_count(name, value, least=1):
    """``value`` if it is an integer (an int or a numpy integer, not a bool
    or 2.0) of at least ``least``; else fail naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return value


def _check_real(name, value, low, closed=False):
    """``value`` if it is a real number (not a bool), finite, and above
    ``low`` (at least ``low`` when ``closed``); else fail naming it."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (low <= value if closed else low < value) or not value < math.inf):
        raise ValueError(f"{name} must be finite and {'>=' if closed else '>'} {low:g}, "
                         f"got {value!r}")
    return value


def _memory_cap_bytes() -> float:
    text = os.environ.get("SUPCON_MEM_CAP_MB", "512")
    try:
        return _check_real("SUPCON_MEM_CAP_MB", float(text), 0.0) * 1024 * 1024
    except ValueError:
        raise ValueError(f"SUPCON_MEM_CAP_MB must be a finite number > 0, got {text!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Regular grid on the box [-radius, radius]^{N*n}, odd points per axis."""

    dims: tuple[int, int]
    radius: float
    points_per_axis: int

    def __post_init__(self) -> None:
        try:
            N, n = self.dims
        except (TypeError, ValueError):
            raise ValueError(f"dims must be a pair (N, n), got {self.dims!r}") from None
        _check_count("dims", N)
        _check_count("dims", n)
        _check_real("radius", self.radius, 0.0)
        if _check_count("points_per_axis", self.points_per_axis, least=3) % 2 == 0:
            raise ValueError(f"points_per_axis must be odd, got {self.points_per_axis!r}")
        if self.node_count * 8 > _memory_cap_bytes():
            raise MemoryError(
                f"grid of {self.node_count} nodes exceeds SUPCON_MEM_CAP_MB"
            )

    @property
    def ndim(self) -> int:
        return self.dims[0] * self.dims[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.ndim

    @property
    def node_count(self) -> int:
        return self.points_per_axis ** self.ndim

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / (self.points_per_axis - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.points_per_axis)

    def nodes(self) -> np.ndarray:
        """All grid nodes, shape (node_count, N, n), row-major node order."""
        return _grid_nodes(self.dims, self.radius, self.points_per_axis)

    def node_coords(self) -> np.ndarray:
        """All grid nodes as flat coordinate vectors, shape (node_count, N*n)."""
        return self.nodes().reshape(-1, self.ndim)


@dataclass(frozen=True)
class SampledFunction:
    """A supremand restricted to a grid; values stored per node, all finite."""

    grid: GridSpec
    values: np.ndarray
    outside_mode: str = MODE_PLUS_INFINITY

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.size != self.grid.node_count:
            raise ValueError("values length must match grid node count")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        if self.outside_mode not in (MODE_PLUS_INFINITY, MODE_CLAMP):
            raise ValueError(f"unknown outside_mode {self.outside_mode!r}")
        object.__setattr__(self, "values", vals.reshape(self.grid.shape))

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, np.asarray(values, dtype=float),
                               self.outside_mode)


@dataclass(frozen=True)
class CorpusEntry:
    """A closed-form supremand with its documented convexity flags.

    ``documented_properties`` maps notion identifiers (those of
    ``HIERARCHY_IMPLIES``) to True (holds) / False (fails); notions with no
    established status are absent.  ``basis`` is a one-line reason for the
    flags.  ``special_points`` are matrices worth probing first in any
    disproof search (jump points, indicator atoms, well bottoms).
    """

    name: str
    dims: tuple[int, int]
    evaluator: Callable[[np.ndarray], np.ndarray]
    documented_properties: dict[str, bool]
    basis: str = ""
    special_points: tuple = ()
    outside_mode: str = MODE_PLUS_INFINITY
    coercivity: tuple[float, float] | None = None  # (alpha, beta): f >= alpha|xi| - beta

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        if arr.shape[-2:] != self.dims:
            raise ValueError(
                f"{self.name} expects matrices of shape {self.dims}, got {arr.shape[-2:]}"
            )
        return self.evaluator(arr)

    def value(self, xi) -> float:
        return float(self(np.asarray(xi, dtype=float).reshape(self.dims)))


# ---------------------------------------------------------------------------
# corpus evaluators
# ---------------------------------------------------------------------------

def _fro(arr: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(arr * arr, axis=(-2, -1)))


def _clamp01(t: np.ndarray) -> np.ndarray:
    # 0 for t <= 0, t on [0, 1], 1 for t >= 1
    return np.clip(t, 0.0, 1.0)


def _double_well(t: np.ndarray) -> np.ndarray:
    return np.minimum((t - 1.0) ** 2, (t + 1.0) ** 2)


def _exampleD_profile(r: np.ndarray) -> np.ndarray:
    # |xi| below 1, then a flat shelf, then |xi|/2: level convex, continuous,
    # linearly coercive, yet not rank-one convex (the shelf kills midpoint
    # convexity of the restriction to lines).
    return np.where(r <= 1.0, r, np.where(r <= 2.0, 1.0, 0.5 * r))


def _h_shelf(t: np.ndarray) -> np.ndarray:
    # 0 up to 1, linear ramp to 1 at 2, then flat.
    return np.clip(t - 1.0, 0.0, 1.0)


def _scalarize(fn):
    def ev(arr: np.ndarray) -> np.ndarray:
        return fn(arr[..., 0, 0])
    return ev


def _mk_abs(dims=(1, 1)) -> CorpusEntry:
    N, n = dims
    pts = [np.zeros(dims)]
    e = np.zeros(dims); e[0, 0] = 1.0
    pts += [e, -e]
    return CorpusEntry(
        name="abs", dims=dims, evaluator=_fro,
        documented_properties={
            "level_convex": True, "polyquasiconvex": True, "strong_morrey": True,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "curl_young_laminates": True, "curl_infinity": True,
        },
        basis="a norm: convex, continuous, coercive, nonnegative",
        special_points=tuple(np.asarray(p, dtype=float) for p in pts),
        outside_mode=MODE_PLUS_INFINITY,
        coercivity=(1.0, 0.0),
    )


def _mk_clamp1d() -> CorpusEntry:
    return CorpusEntry(
        name="clamp1d", dims=(1, 1), evaluator=_scalarize(_clamp01),
        documented_properties={
            "level_convex": True, "polyquasiconvex": True, "strong_morrey": True,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "curl_young_laminates": True, "curl_infinity": False,
        },
        basis="nondecreasing continuous scalar clamp: level convex but bounded, "
              "so the power-law limit drops below it",
        special_points=tuple(np.array([[t]]) for t in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)),
        outside_mode=MODE_CLAMP,
    )


def _mk_double_well_1d() -> CorpusEntry:
    return CorpusEntry(
        name="double_well_1d", dims=(1, 1), evaluator=_scalarize(_double_well),
        documented_properties={
            "level_convex": False, "polyquasiconvex": False, "strong_morrey": False,
            "periodic_weak_morrey": False, "weak_morrey": False, "rank_one": False,
            "curl_young_laminates": False, "curl_infinity": False,
        },
        basis="scalar two-well energy: oscillation between the wells beats the "
              "barrier, so every scalar notion fails at once",
        special_points=tuple(np.array([[t]]) for t in (-1.0, 0.0, 1.0, 2.0)),
        outside_mode=MODE_PLUS_INFINITY,
        coercivity=(1.0, 2.0),
    )


def _mk_exampleD_scalar() -> CorpusEntry:
    return CorpusEntry(
        name="exampleD_scalar", dims=(1, 1),
        evaluator=_scalarize(lambda t: _exampleD_profile(np.abs(t))),
        documented_properties={
            "level_convex": True, "polyquasiconvex": True, "strong_morrey": True,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "curl_young_laminates": True, "curl_infinity": True,
        },
        basis="level convex, continuous, linearly coercive shelf profile",
        special_points=tuple(np.array([[t]]) for t in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)),
        outside_mode=MODE_PLUS_INFINITY,
        coercivity=(0.5, 0.0),
    )


def _mk_exampleD(dims=(2, 2)) -> CorpusEntry:
    e = np.zeros(dims); e[0, 0] = 1.0
    return CorpusEntry(
        name="exampleD", dims=dims,
        evaluator=lambda a: _exampleD_profile(_fro(a)),
        documented_properties={
            "level_convex": True, "polyquasiconvex": True, "strong_morrey": True,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "curl_young_laminates": True, "curl_infinity": True,
        },
        basis="level convex, continuous, coercive shelf of the norm; "
              "not rank-one convex (flat shelf kills midpoint convexity)",
        special_points=(np.zeros(dims), e, 2.0 * e, 3.0 * e, -e),
        outside_mode=MODE_PLUS_INFINITY,
        coercivity=(0.5, 0.0),
    )


def _mk_arctan_det() -> CorpusEntry:
    pts = [
        np.diag([2.0, 0.0]), np.diag([0.0, 2.0]), np.eye(2), np.zeros((2, 2)),
        np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), -np.eye(2),
        np.array([[1.0, 1.0], [0.0, 1.0]]),
    ]
    return CorpusEntry(
        name="arctan_det", dims=(2, 2),
        evaluator=lambda a: np.arctan(det2(a)),
        documented_properties={
            "level_convex": False, "polyquasiconvex": True, "strong_morrey": True,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "curl_young_laminates": True,
        },
        basis="bounded monotone function of the determinant: a level convex, "
              "lower semicontinuous function of the minors, yet not level "
              "convex in the matrix itself",
        special_points=tuple(pts),
        outside_mode=MODE_CLAMP,
    )


def _mk_chi_det() -> CorpusEntry:
    pts = [
        np.eye(2), np.diag([2.0, 0.0]), np.diag([0.0, 2.0]), np.zeros((2, 2)),
        2.0 * np.eye(2), np.diag([1.0, 2.0]),
    ]
    return CorpusEntry(
        name="chi_det", dims=(2, 2),
        evaluator=lambda a: (det2(a) >= 1.0).astype(float),
        documented_properties={
            "level_convex": False, "polyquasiconvex": True, "strong_morrey": False,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "curl_young_laminates": True, "curl_infinity": False,
        },
        basis="indicator of {det >= 1}: a level convex function of the minors, "
              "but the closed threshold jumps the wrong way, so it is not "
              "lower semicontinuous and the small-boundary inequality fails",
        special_points=tuple(pts),
        outside_mode=MODE_CLAMP,
    )


def _mk_chi_det_open() -> CorpusEntry:
    ent = _mk_chi_det()
    return CorpusEntry(
        name="chi_det_open", dims=(2, 2),
        evaluator=lambda a: (det2(a) > 1.0).astype(float),
        documented_properties={
            "level_convex": False, "polyquasiconvex": True, "strong_morrey": True,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "curl_young_laminates": True,
        },
        basis="indicator of {det > 1}: lower semicontinuous variant, hence the "
              "small-boundary inequality survives",
        special_points=ent.special_points,
        outside_mode=MODE_CLAMP,
    )


def _mk_one_minus_chi_pair(xi0=None, eta0=None) -> CorpusEntry:
    if xi0 is None:
        xi0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    if eta0 is None:
        eta0 = np.array([[-1.0, 0.0], [0.0, 0.0]])
    xi0 = np.asarray(xi0, dtype=float)
    eta0 = np.asarray(eta0, dtype=float)
    if xi0.ndim == 0:
        xi0 = xi0.reshape(1, 1)
    if eta0.ndim == 0:
        eta0 = eta0.reshape(1, 1)
    if xi0.shape != eta0.shape:
        raise ValueError("pair atoms must share dimensions")
    dims = xi0.shape
    atoms = np.stack([xi0, eta0])

    def ev(arr: np.ndarray) -> np.ndarray:
        d0 = _fro(arr - xi0)
        d1 = _fro(arr - eta0)
        return np.where(np.minimum(d0, d1) <= 1e-12, 0.0, 1.0)

    scalar = dims[1] == 1 and dims[0] == 1
    props = {
        "level_convex": False, "polyquasiconvex": False, "strong_morrey": False,
        "periodic_weak_morrey": False, "rank_one": False,
        "curl_young_laminates": False,
        # zero-boundary rigidity protects the pair only in the truly
        # gradient-constrained case n > 1; for scalars the notion collapses
        # onto level convexity and fails with it.
        "weak_morrey": not scalar,
        "curl_infinity": False,
    }
    mid = 0.5 * (xi0 + eta0)
    return CorpusEntry(
        name="one_minus_chi_pair", dims=dims, evaluator=ev,
        documented_properties=props,
        basis="one minus the indicator of a rank-one connected pair: the "
              "connecting laminate kills the periodic and small-boundary "
              "inequalities, while exact zero-boundary fields cannot reach "
              "the pair (two-gradient rigidity)",
        special_points=(xi0.copy(), eta0.copy(), mid),
        outside_mode=MODE_CLAMP,
    )


def _mk_W_sup() -> CorpusEntry:
    def ev(arr: np.ndarray) -> np.ndarray:
        return np.maximum(_h_shelf(_fro(arr)), np.arctan(det2(arr)))

    pts = [
        np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5 * np.eye(2),
        np.zeros((2, 2)), np.diag([2.0, 0.0]), np.eye(2),
    ]
    return CorpusEntry(
        name="W_sup", dims=(2, 2), evaluator=ev,
        documented_properties={
            "level_convex": False, "strong_morrey": True,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "curl_young_laminates": True, "curl_infinity": False,
        },
        basis="supremum of a norm shelf and arctan(det): bounded, continuous, "
              "satisfies the measure-side inequality but is not coercive, so "
              "the power-law limit falls strictly below it",
        special_points=tuple(pts),
        outside_mode=MODE_CLAMP,
    )


def _mk_half_space_chi(dims=(2, 2)) -> CorpusEntry:
    e = np.zeros(dims); e[0, 0] = 1.0

    def ev(arr: np.ndarray) -> np.ndarray:
        return (arr[..., 0, 0] >= 1.0).astype(float)

    return CorpusEntry(
        name="half_space_chi", dims=dims, evaluator=ev,
        documented_properties={
            "level_convex": True, "polyquasiconvex": True,
            "periodic_weak_morrey": True, "weak_morrey": True, "rank_one": True,
            "strong_morrey": False, "curl_young_laminates": True,
            "curl_infinity": False,
        },
        basis="indicator of the closed half space in the first entry: level "
              "convex but not lower semicontinuous, which alone defeats the "
              "small-boundary inequality",
        special_points=(e, np.zeros(dims), 2.0 * e, 0.5 * e),
        outside_mode=MODE_CLAMP,
    )


_REGISTRY: dict[str, Callable[..., CorpusEntry]] = {
    "abs": _mk_abs,
    "clamp1d": _mk_clamp1d,
    "double_well_1d": _mk_double_well_1d,
    "exampleD_scalar": _mk_exampleD_scalar,
    "exampleD": _mk_exampleD,
    "arctan_det": _mk_arctan_det,
    "chi_det": _mk_chi_det,
    "chi_det_open": _mk_chi_det_open,
    "one_minus_chi_pair": _mk_one_minus_chi_pair,
    "W_sup": _mk_W_sup,
    "half_space_chi": _mk_half_space_chi,
}


def corpus_names() -> list[str]:
    return sorted(_REGISTRY)


def corpus_entry(name: str, **params) -> CorpusEntry:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown corpus entry {name!r}; known: {corpus_names()}") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# sampling and interpolation
# ---------------------------------------------------------------------------

def sample(entry: CorpusEntry, grid: GridSpec) -> SampledFunction:
    """Evaluate a corpus entry at every grid node (exact, vectorized)."""
    if entry.dims != grid.dims:
        raise ValueError(f"entry dims {entry.dims} do not match grid dims {grid.dims}")
    vals = entry(grid.nodes())
    return SampledFunction(grid, vals.reshape(grid.shape), entry.outside_mode)


def interpolating_evaluator(f: SampledFunction):
    """Batch evaluator backed by multilinear interpolation of a sampled
    function, suitable for the checkers: each (N, n) query of a (..., N, n)
    batch takes the values of its 2^d surrounding nodes.  Outside the box the
    outside_mode applies: +inf sentinel, or evaluation at the clamped
    coordinates.  A query with a NaN coordinate gives NaN.

    Interpolation error dominates analytic roundoff, so run checkers against
    such evaluators with tol around 1e-6 rather than the analytic 1e-9.
    """
    g = f.grid
    R = g.radius

    def ev(arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        x = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])
        if x.shape[1] != g.ndim:
            raise ValueError("query point has wrong dimension")
        outside = np.any(np.abs(x) > R, axis=1)
        # a query with a NaN coordinate is interpolated at the corner -R, so
        # its node indices stay in range, and then set to NaN
        undefined = np.any(np.isnan(x), axis=1)
        x = np.clip(np.where(undefined[:, None], -R, x), -R, R)
        pos = (x + R) / g.spacing
        i0 = np.minimum(np.floor(pos).astype(int), g.points_per_axis - 2)
        frac = pos - i0
        val = np.zeros(len(x))
        for corner in range(2 ** g.ndim):
            w = np.ones(len(x))
            idx = []
            for d in range(g.ndim):
                bit = (corner >> d) & 1
                idx.append(i0[:, d] + bit)
                w *= frac[:, d] if bit else (1.0 - frac[:, d])
            # the values are finite, so a zero weight adds +-0.0 to a sum that
            # starts at +0.0, which leaves it as skipping the corner would
            val += w * f.values[tuple(idx)]
        if f.outside_mode == MODE_PLUS_INFINITY:
            val[outside] = math.inf
        val[undefined] = math.nan
        return val.reshape(arr.shape[:-2])
    return ev


def interpolate(f: SampledFunction, xi) -> float:
    """Multilinear interpolation at the one point ``xi``."""
    return float(interpolating_evaluator(f)(np.reshape(xi, (1, -1))))


# ---------------------------------------------------------------------------
# CSV + sidecar persistence
# ---------------------------------------------------------------------------

def _grid_nodes(dims, radius, points_per_axis) -> np.ndarray:
    """``GridSpec(dims, radius, points_per_axis).nodes()`` without the grid's
    checks or its SUPCON_MEM_CAP_MB cap, for a caller that sized it already."""
    ax = np.linspace(-radius, radius, points_per_axis)
    grids = np.meshgrid(*([ax] * (dims[0] * dims[1])), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1).reshape(-1, *dims)


def _json_scalar(obj):
    """A numpy scalar's value, for ``json.dump``; any other object fails."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(obj, path) -> None:
    """Write ``obj`` as indented, key-sorted JSON with a trailing newline,
    creating the parent directory; a numpy scalar is written as its value."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_scalar)
        fh.write("\n")


def _sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def save_csv(f: SampledFunction, csv_path) -> None:
    """One row per node (row-major): axis_0,...,axis_{d-1},value; grid in a JSON sidecar."""
    d = f.grid.ndim
    # the bytes of csv.writer's default dialect: no field needs quoting,
    # lines end in \r\n
    axis = [repr(c) for c in f.grid.axis().tolist()]
    rows = itertools.product(axis, repeat=d)
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join([f"axis_{k}" for k in range(d)] + ["value"]) + "\r\n")
        fh.writelines(",".join((*row, v)) + "\r\n"
                      for row, v in zip(rows, map(repr, f.values.ravel().tolist())))
    meta = {
        "dims": list(f.grid.dims),
        "radius": f.grid.radius,
        "points_per_axis": f.grid.points_per_axis,
        "outside_mode": f.outside_mode,
    }
    write_json(meta, _sidecar_path(csv_path))


def load_csv(csv_path) -> SampledFunction:
    """Read a ``save_csv`` file back.  After the header come exactly one row
    of d + 1 floats per node (blank lines are skipped); the axis columns must
    be the sidecar grid's nodes in row-major order (within 1e-9 * radius)."""
    with open(_sidecar_path(csv_path)) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError("CSV sidecar must hold a JSON object")
    for key in ("dims", "radius", "points_per_axis", "outside_mode"):
        if key not in meta:
            raise ValueError(f"CSV sidecar has no {key!r} field")
    dims = meta["dims"]
    grid = GridSpec(tuple(dims) if isinstance(dims, list) else dims, meta["radius"],
                    meta["points_per_axis"])
    with open(csv_path) as fh:
        if len(fh.readline().split(",")) != grid.ndim + 1:
            raise ValueError("CSV header does not match grid dimension")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=grid.node_count + 1)
    if rows.shape != (grid.node_count, grid.ndim + 1):
        raise ValueError(f"CSV rows x columns {rows.shape} do not match the grid's "
                         f"{(grid.node_count, grid.ndim + 1)}")
    coords, vals = rows[:, :-1], rows[:, -1]
    if not np.all(np.abs(coords - grid.node_coords()) <= 1e-9 * grid.radius):
        raise ValueError("CSV axis columns do not match the sidecar grid nodes")
    return SampledFunction(grid, vals, meta["outside_mode"])
