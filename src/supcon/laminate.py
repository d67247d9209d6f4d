"""Finite-order laminates and the test-field checkers built on them.

A laminate is a probability measure on matrices produced by recursive
rank-one splitting; it is the computable subclass of homogeneous gradient
Young measures, and the workhorse behind three checkers:

* the measure-side inequality ``f(barycenter) <= ess-sup over atoms`` on
  laminates of order up to three (a necessary condition for the Young-measure
  quasiconvexity notions),
* the periodic small-oscillation inequality, disproved by realizing a simple
  laminate as a periodic sawtooth field (built in the cube adapted to the
  lamination normal when that normal is not axis-aligned), and
* the eps-K-delta small-boundary inequality, disproved when a gap persists
  as the boundary budget delta shrinks: scaled sawtooths keep their gradient
  statistics while their boundary values decay like 1/layers, and small
  affine probes expose lower-semicontinuity failures.

The sawtooth candidates of the last two are scored by the classify module's
shared field scorer, and the laminate gaps by its shared gap rule.  The
searches only ever report a violation with a replayable witness; a clean
pass means nothing more than "no counterexample within budget".
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .classify import (DEFAULT_DELTA_SCHEDULE, HOLDS, LAMBDA_GRID, VIOLATED,
                       Verdict, _aslist, _best_field, _ess_sup, _field_witness,
                       _random_rank_one, _special_pairs, _tree_atoms_batch,
                       _worst_gap)
from .funcspace import DEFAULT_SEED
from .matspace import is_rank_one_connected, second_singular_ratio

__all__ = [
    "Laminate",
    "TestField",
    "laminate_barycenter",
    "nu_ess_sup",
    "sample_laminates",
    "check_curl_young_on_laminates",
    "realize_simple_laminate",
    "check_periodic_weak_morrey",
    "search_strong_morrey_violation",
    "DEFAULT_DELTA_SCHEDULE",
]


@dataclass(frozen=True)
class Laminate:
    """Rank-one splitting tree: a Dirac leaf, or a split of two sub-laminates.

    A split node mixes its children with weights (lam, 1 - lam); their
    barycenters must differ by a rank-one matrix.
    """

    matrix: np.ndarray | None = None
    lam: float | None = None
    left: "Laminate | None" = None
    right: "Laminate | None" = None

    def __post_init__(self) -> None:
        if self.matrix is not None:
            if self.lam is not None or self.left is not None or self.right is not None:
                raise ValueError("a leaf carries only its matrix")
            object.__setattr__(self, "matrix",
                               np.asarray(self.matrix, dtype=float))
            return
        if self.left is None or self.right is None or self.lam is None:
            raise ValueError("a split needs lam, left and right")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("split weight must lie strictly between 0 and 1")
        diff = self.left.barycenter() - self.right.barycenter()
        s1, ratio = second_singular_ratio(diff)
        if s1 <= 1e-9 or ratio > 1e-9:
            raise ValueError("split barycenters must differ by a rank-one matrix")

    @property
    def is_leaf(self) -> bool:
        return self.matrix is not None

    def barycenter(self) -> np.ndarray:
        if self.is_leaf:
            return self.matrix.copy()
        return (self.lam * self.left.barycenter()
                + (1.0 - self.lam) * self.right.barycenter())

    def atoms(self) -> list[tuple[np.ndarray, float]]:
        """Atom list (matrix, weight); weights are positive and sum to one."""
        if self.is_leaf:
            return [(self.matrix.copy(), 1.0)]
        out = [(m, self.lam * w) for m, w in self.left.atoms()]
        out += [(m, (1.0 - self.lam) * w) for m, w in self.right.atoms()]
        return out

    def order(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.order(), self.right.order())


def laminate_barycenter(L: Laminate) -> np.ndarray:
    """Weighted atom sum; equals the recursive split combination."""
    return sum(w * m for m, w in L.atoms())


def nu_ess_sup(L: Laminate, f) -> float:
    """max of f over the atoms carrying positive weight; +inf if one is NaN."""
    return _ess_sup([f(m) for m, w in L.atoms() if w > 0])


def sample_laminates(dims, *, seed, count, radius=2.0,
                     max_order=3) -> list[Laminate]:
    """Seeded random laminates of order up to max_order around random barycenters."""
    N, n = dims
    rng = np.random.default_rng(seed)

    def build(bar, depth):
        if depth == 0:
            return Laminate(matrix=bar)
        w = _random_rank_one(rng, 1, N, n, radius)[0]
        theta = float(rng.uniform(0.15, 0.85))
        left = build(bar + (1.0 - theta) * w, depth - 1)
        right = build(bar - theta * w, depth - 1)
        return Laminate(lam=theta, left=left, right=right)

    out = []
    for i in range(count):
        bar = rng.uniform(-radius, radius, size=(N, n))
        out.append(build(bar, int(rng.integers(1, max_order + 1))))
    return out


def check_curl_young_on_laminates(f, dims, *, tol=1e-9, budget=20_000,
                                  seed=DEFAULT_SEED, radius=2.0,
                                  special_points=()) -> Verdict:
    """Violated iff some laminate of order at most three has
    f(barycenter) > ess-sup of f over its atoms (plus tol).

    Simple laminates on special rank-one pairs run first (exact atoms), then
    blocks of seeded random laminates of order 1, 1, 1, 2, 2, 3 in turn.
    """
    notion = "curl_young_laminates"
    N, n = dims
    used = 0

    def measure_witness(atoms, weights, gap):
        bary = np.einsum("m,mij->ij", weights, atoms)
        return {
            "kind": "measure",
            "atoms": [[_aslist(m), float(w)] for m, w in zip(atoms, weights)],
            "barycenter": _aslist(bary),
            "f_barycenter": float(f(bary)),
            "sup_support": float(np.max(f(np.asarray(atoms)))),
            "gap": float(gap),
        }

    # battery: simple laminates on special rank-one pairs, exact atoms
    for A, B in _special_pairs(special_points, rank_one=True):
        sup = _ess_sup([f(A), f(B)])
        for lam in LAMBDA_GRID:
            used += 1
            bar = lam * A + (1.0 - lam) * B
            gap = float(f(bar)) - sup
            if gap > tol:
                witness = measure_witness(np.stack([A, B]),
                                          np.array([lam, 1.0 - lam]), gap)
                return Verdict(notion, VIOLATED, witness, used, tol, seed)

    rng = np.random.default_rng(seed)
    block = 4096
    orders = [1, 1, 1, 2, 2, 3]  # sampling mix; simple laminates dominate
    oi = 0
    while used < budget:
        m = min(block, budget - used)
        order = orders[oi % len(orders)]
        oi += 1
        bar = rng.uniform(-radius, radius, size=(m, N, n))
        atoms, wts = _tree_atoms_batch(bar, order, rng, radius)
        used += m
        bary = np.einsum("bm,bmij->bij", wts, atoms)
        sup = np.max(f(atoms.reshape(-1, N, n)).reshape(m, -1), axis=1)
        i, gap = _worst_gap(f(bary), sup)
        if gap > tol:
            witness = measure_witness(atoms[i], wts[i], gap)
            return Verdict(notion, VIOLATED, witness, used, tol, seed)
    return Verdict(notion, HOLDS, None, used, tol, seed)


# ---------------------------------------------------------------------------
# test fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestField:
    """Piecewise-constant-gradient field on the unit cube, cells as volume
    fractions.  boundary_sup bounds |phi| on the boundary, grad_bound is the
    essential sup of |D phi|."""

    __test__ = False  # not a pytest class, despite the name

    cells: tuple  # ((volume_fraction, gradient ndarray), ...)
    boundary_sup: float
    grad_bound: float
    kind: str  # zero-boundary | periodic | scaled-periodic
    layers: int = 1
    normal: tuple | None = None  # lamination normal nu (unit), if laminar

    def __post_init__(self) -> None:
        vols = np.array([v for v, _ in self.cells])
        if np.any(vols < 0):
            raise ValueError("cell volumes must be nonnegative")
        if abs(vols.sum() - 1.0) > 1e-12:
            raise ValueError("cell volumes must sum to one")
        if self.kind == "zero-boundary" and self.boundary_sup != 0.0:
            raise ValueError("zero-boundary fields must have boundary_sup == 0")
        if self.kind not in ("zero-boundary", "periodic", "scaled-periodic"):
            raise ValueError(f"unknown field kind {self.kind!r}")

    def gradient_distribution(self) -> list[tuple[float, np.ndarray]]:
        """Aggregated (volume, gradient) pairs over distinct gradient values."""
        agg: list[tuple[float, np.ndarray]] = []
        for v, g in self.cells:
            for i, (vv, gg) in enumerate(agg):
                if np.array_equal(g, gg):
                    agg[i] = (vv + v, gg)
                    break
            else:
                agg.append((v, np.asarray(g, dtype=float)))
        return agg

    def ess_sup(self, f, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        return _ess_sup([f(xi + g) for v, g in self.cells if v > 0])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            ncomp = self.cells[0][1].size if self.cells else 0
            writer.writerow(["cell", "volume"] + [f"grad_{k}" for k in range(ncomp)])
            for i, (v, g) in enumerate(self.cells):
                writer.writerow([i, repr(float(v))]
                                + [repr(float(x)) for x in np.ravel(g)])


def realize_simple_laminate(xi, eta, lam: float, layers: int = 1,
                            transition_fraction: float = 0.0) -> TestField:
    """Periodic sawtooth whose gradient is (1-lam)(xi-eta) on volume fraction
    lam and -lam(xi-eta) on fraction 1-lam.

    With L layers the profile is compressed L-fold, which divides the
    boundary values by L while keeping the gradient statistics: boundary_sup
    = |xi - eta| * lam(1-lam) / layers.  When the lamination normal is not
    the first axis the field lives in the correspondingly rotated cube; the
    cells record volume fractions, which rotation leaves untouched.

    transition_fraction > 0 flattens that fraction of each period at the
    sawtooth peaks (a zero-gradient band, mean-preserving).  Off by default:
    it destroys the exact two-value gradient structure that the indicator
    counterexamples rely on.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if not 0.0 <= transition_fraction < 0.5:
        raise ValueError("transition_fraction must lie in [0, 0.5)")
    if lam in (0.0, 1.0):
        zero = np.zeros_like(xi)
        return TestField(cells=((1.0, zero),), boundary_sup=0.0, grad_bound=0.0,
                         kind="periodic", layers=layers)
    if not is_rank_one_connected(xi, eta):
        raise ValueError("xi - eta must be a rank-one matrix")

    diff = xi - eta
    U, S, Vt = np.linalg.svd(diff)
    nu = Vt[0]
    for x in nu:  # canonical sign for determinism
        if x != 0.0:
            if x < 0.0:
                nu = -nu
            break
    amp = float(S[0])  # |a| with nu unit
    g_plus = (1.0 - lam) * diff
    g_minus = -lam * diff
    # consecutive slabs differ by +-(xi - eta): rank-one, aligned with nu
    tau = transition_fraction
    cells = []
    for _ in range(layers):
        cells.append((lam * (1.0 - tau) / layers, g_plus))
        cells.append(((1.0 - lam) * (1.0 - tau) / layers, g_minus))
        if tau > 0.0:
            cells.append((tau / layers, np.zeros_like(diff)))
    return TestField(
        cells=tuple(cells),
        boundary_sup=amp * lam * (1.0 - lam) / layers,
        grad_bound=max(np.linalg.norm(g_plus), np.linalg.norm(g_minus)),
        kind="periodic" if layers == 1 else "scaled-periodic",
        layers=layers,
        normal=tuple(float(x) for x in nu),
    )


# ---------------------------------------------------------------------------
# periodic-weak checker
# ---------------------------------------------------------------------------

def check_periodic_weak_morrey(f, xi, dims, *, tol=1e-9, budget=20_000,
                               seed=DEFAULT_SEED, radius=2.0,
                               special_points=()) -> Verdict:
    """Violated iff a periodic sawtooth achieves ess-sup f(xi + D phi) below
    f(xi) - tol.  The family is the realize_simple_laminate one, built in the
    cube rotated to the lamination normal; compressing layers changes nothing
    here because the gradient statistics are scale-invariant."""
    notion = "periodic_weak_morrey"
    xi = np.asarray(xi, dtype=float).reshape(dims)
    f_xi = float(f(xi))
    used, ess, values, theta = _best_field(
        f, xi, f_xi, dims, tol=tol, stop=True, seed=seed, count=budget,
        radius=radius, special_points=special_points, rank_one=True)
    if ess < f_xi - tol:
        witness = _field_witness("two-gradient-field", xi, f_xi, values, ess,
                                 theta=theta)
        return Verdict(notion, VIOLATED, witness, used, tol, seed)
    return Verdict(notion, HOLDS, None, used, tol, seed)


# ---------------------------------------------------------------------------
# strong Morrey search
# ---------------------------------------------------------------------------

def search_strong_morrey_violation(f, xi, dims, *, K=8.0,
                                   delta_schedule=DEFAULT_DELTA_SCHEDULE,
                                   tol=1e-9, budget=20_000, seed=DEFAULT_SEED,
                                   radius=2.0, special_points=()) -> Verdict:
    """Look for a gap below f(xi) that persists as the boundary budget
    delta shrinks, under the gradient bound K.

    Two families: scaled sawtooth laminates (their gap is delta-independent,
    since compressing layers shrinks the boundary values but not the gradient
    statistics) and affine probes phi = eta x with |eta| shrinking along the
    schedule (these expose lower-semicontinuity failures; for a continuous
    supremand their gap decays with delta and is filtered out by the
    persistence rule: the gap at the smallest delta must be at least half the
    gap at the largest).
    """
    notion = "strong_morrey"
    N, n = dims
    xi = np.asarray(xi, dtype=float).reshape(dims)
    f_xi = float(f(xi))
    deltas = tuple(sorted(delta_schedule, reverse=True))

    # laminate family: delta-independent gap
    used, lam_ess, lam_values, theta = _best_field(
        f, xi, f_xi, dims, tol=tol, stop=False, seed=seed, count=budget // 2,
        radius=radius, special_points=special_points, rank_one=True,
        grad_cap=K)
    lam_gap = f_xi - lam_ess

    # affine family: probe magnitudes tied to each delta
    rng = np.random.default_rng(seed + 3)
    n_dirs = max(8, (budget - used) // max(1, 3 * len(deltas)))
    dirs = [np.asarray(p, dtype=float) - xi for p in special_points]
    dirs = [d for d in dirs if np.linalg.norm(d) > 1e-12]
    extra = rng.normal(size=(n_dirs, N, n))
    dirs += [e for e in extra]
    D = np.array([d / np.linalg.norm(d.ravel()) for d in dirs])
    affine_gaps = []
    affine_args = []
    for delta in deltas:
        m0 = min(K, 2.0 * delta / math.sqrt(n))
        best_gap, best_arg = -np.inf, None
        for mag in (m0, m0 / 2.0, m0 / 4.0):
            probes = xi[None] + mag * D
            vals = f(probes)
            vals = np.where(np.isnan(vals), np.inf, vals)
            used += len(D)
            i = int(np.argmin(vals))
            if f_xi - float(vals[i]) > best_gap:
                best_gap = f_xi - float(vals[i])
                best_arg = probes[i]
        affine_gaps.append(best_gap)
        affine_args.append(best_arg)

    per_delta = [max(lam_gap, ag) for ag in affine_gaps]
    # a genuine lower-semicontinuity failure keeps its gap as delta shrinks;
    # the dents mere continuity produces decay linearly and are filtered here
    affine_persists = (affine_gaps[-1] > tol
                       and affine_gaps[-1] >= 0.5 * max(affine_gaps))
    laminate_persists = lam_gap > tol

    if laminate_persists or affine_persists:
        if laminate_persists and lam_gap >= affine_gaps[-1]:
            Mp, Mm = lam_values
            w = Mp - Mm
            c = theta * (1.0 - theta) * float(np.linalg.norm(w.ravel()))
            layers = [max(1, math.ceil(c / d)) for d in deltas]
            witness = _field_witness(
                "two-gradient-field", xi, f_xi, [Mp, Mm],
                max(float(f(Mp)), float(f(Mm))), theta=theta,
                family="scaled-periodic-laminate", layers_per_delta=layers,
                per_delta=[{"delta": d, "gap": g}
                           for d, g in zip(deltas, per_delta)],
                epsilon=min(per_delta) - tol)
        else:
            witness = {
                "kind": "affine-field",
                "xi": _aslist(xi),
                "family": "affine-probe",
                "field_values": [_aslist(affine_args[-1])],
                "ess_sup": f_xi - affine_gaps[-1],
                "f_xi": f_xi,
                "gap": affine_gaps[-1],
                "per_delta": [{"delta": d, "gap": g}
                              for d, g in zip(deltas, per_delta)],
                "epsilon": min(per_delta) - tol,
            }
        return Verdict(notion, VIOLATED, witness, used, tol, seed)
    return Verdict(notion, HOLDS, None, used, tol, seed)
