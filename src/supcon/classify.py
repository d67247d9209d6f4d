"""Checkers and disproof searches for the supremal convexity notions.

Every checker is one-sided: "holds-within-budget" only records that the
search exhausted its sample budget without a counterexample, while
"violated" comes with a structured witness whose replay reproduces the gap
to 1e-12.  The notions handled here are the pointwise ones (level convexity,
rank-one quasiconvexity, the necessary midpoint condition of
polyquasiconvexity, the supremal Jensen inequality) plus the zero-boundary
(weak Morrey) disproof search.  The laminate, periodic and small-boundary
checkers live in the laminate module and use the machinery here: the
rank-one segment checker, the two-gradient candidates and ``_best_field``.
``classify_report`` pulls everything together into one table and
cross-validates the verdicts against the implication hierarchy.

Sampling is deterministic given the seed: a battery of entry-specific
special points runs first, then low-discrepancy (Halton) and seeded random
batches until the budget is exhausted.  The checkers of one report share one
dict, each key tagged by its maker: one Halton draw per seed, each
special-pair list, each segment-checker run (the laminate checker is the
rank-one run, relabelled) and each scored two-gradient pair run (the
periodic search reads the weak search's).  The Halton points are
scipy's scrambled stream, bit for bit, from a numpy kernel: classify needs
no scipy.  Every search scores its batches by one of two shared rules:
``_worst_gap`` takes the largest finite gap of a batch of segments or
measures, and ``_best_field`` the least ess sup over the gradient values of
two-gradient test fields, an ess sup of NaN or -inf counting as +inf.  A
measure is an (atoms, weights) pair of arrays, and ``_measure_gaps`` scores
a batch of them in two f calls.  In every checker a gap must be finite to
back a violation: a non-finite one cannot be replayed.
"""

from __future__ import annotations

import copy
import datetime
import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, asdict

import numpy as np

from .funcspace import (DEFAULT_SEED, CorpusEntry, _check_count, _check_real,
                        _grid_nodes, hierarchy_breaks)
from .matspace import is_rank_one_connected
# perfbench/tracer.py wraps this binding by name; --trace 1 fails without it
from .matspace import minors_batch  # noqa: F401

__all__ = [
    "Verdict",
    "Report",
    "ClassifyConfig",
    "NOTION_STATEMENTS",
    "check_level_convex",
    "check_rank_one_qcx",
    "check_supremal_jensen",
    "check_polyquasiconvex_necessary",
    "search_weak_morrey_violation",
    "probe_verdict",
    "classify_report",
    "two_atom_measures",
    "replay_witness",
    "DEFAULT_DELTA_SCHEDULE",
]

HOLDS = "holds-within-budget"
VIOLATED = "violated"

#: Deterministic midpoint weights probed before random ones.
LAMBDA_GRID = (0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75)

#: Most Halton points drawn in one block of a pair or candidate stream.
HALTON_BLOCK = 4096

#: Boundary budgets delta of the small-boundary (strong Morrey) search, largest first.
DEFAULT_DELTA_SCHEDULE = tuple(2.0 ** -k for k in range(1, 13))

#: Field-based notions are probed at no more than this many points per entry.
MAX_PROBE_POINTS = 6

#: What each checker actually tests, embedded in every verdict and report.
NOTION_STATEMENTS = {
    "level_convex":
        "f(lam*xi + (1-lam)*eta) <= max(f(xi), f(eta)) for all xi, eta and 0 < lam < 1",
    "rank_one":
        "the level-convexity inequality restricted to pairs with rank(xi - eta) = 1",
    "polyquasiconvex":
        "necessary condition: f(xi) <= max_i f(xi_i) whenever the minors vector "
        "of xi is a convex combination of the minors vectors of the xi_i",
    "supremal_jensen":
        "f(barycenter(mu)) <= mu-ess-sup of f for every probability measure mu",
    "weak_morrey":
        "f(xi) <= ess sup over the unit cube of f(xi + D phi) for every "
        "Lipschitz phi vanishing on the boundary",
    "periodic_weak_morrey":
        "f(xi) <= ess sup of f(xi + D phi) for every periodic Lipschitz phi "
        "(tested in the cube adapted to the lamination normal)",
    "strong_morrey":
        "for every eps and K there is delta > 0 such that no field with "
        "gradient bound K and boundary values below delta undercuts f(xi) by eps",
    "curl_young_laminates":
        "f(barycenter(nu)) <= nu-ess-sup of f for every finite laminate nu",
}


@dataclass
class Verdict:
    """Outcome of one checker: holds within budget, or a replayable witness."""

    notion: str
    outcome: str
    witness: dict | None
    budget: int
    tol: float
    seed: int
    statement: str = ""

    def __post_init__(self) -> None:
        if not self.statement:
            self.statement = NOTION_STATEMENTS.get(self.notion, "")

    @property
    def violated(self) -> bool:
        return self.outcome == VIOLATED

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _mat(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _aslist(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def _ess_sup(values) -> float:
    """The largest of the values; an undefined one (NaN) makes it +inf."""
    v = np.asarray(values, dtype=float)
    return math.inf if np.isnan(v).any() else float(v.max())


def _measure_gaps(f, atoms, weights):
    """f at the barycenter and the ess sup of f over the support (the atoms
    of positive weight) of each measure of a batch: atoms (B, M, N, n),
    weights (B, M).  f is called twice, on every atom and on every
    barycenter.  A NaN on the support makes that ess sup NaN, so
    ``_worst_gap`` drops the measure's gap."""
    vals = f(atoms.reshape(-1, *atoms.shape[2:])).reshape(weights.shape)
    sup = np.where(weights > 0, vals, -np.inf).max(axis=1)
    return f(np.einsum("bm,bmij->bij", weights, atoms)), sup


def replay_witness(f, witness: dict) -> float:
    """Recompute a witness gap from scratch; must match the stored gap to 1e-12.

    Weighted points (``segment``, ``measure``, ``minor-combination``) are
    scored as one measure; a test field (``two-gradient-field``,
    ``cutoff-field``, ``affine-field``) by its stored gradient values.  Any
    other kind raises ``ValueError``.
    """
    kind = witness["kind"]
    if kind in ("segment", "measure", "minor-combination"):  # weighted points
        if kind == "segment":
            lam = witness["lam"]
            points, weights = (witness["xi"], witness["eta"]), (lam, 1.0 - lam)
        elif kind == "measure":
            points, weights = zip(*witness["atoms"])
        else:
            points, weights = witness["points"], witness["weights"]
        (f_bary,), (sup,) = _measure_gaps(f, _mat(points)[None], _mat(weights)[None])
        return float(f_bary) - _ess_sup([sup])
    if kind in ("two-gradient-field", "affine-field", "cutoff-field"):
        xi = _mat(witness["xi"])
        return float(f(xi)) - _ess_sup([f(_mat(m)) for m in witness["field_values"]])
    raise ValueError(f"unknown witness kind {kind!r}")


def _segment_witness(xi, eta, lam, f) -> dict:
    mid = lam * xi + (1.0 - lam) * eta
    fx, fe, fm = float(f(xi)), float(f(eta)), float(f(mid))
    return {
        "kind": "segment",
        "xi": _aslist(xi), "eta": _aslist(eta), "lam": float(lam),
        "f_xi": fx, "f_eta": fe, "f_mid": fm,
        "gap": fm - max(fx, fe),
    }


def _measure_witness(atoms, weights, f_bary, sup) -> dict:
    """A measure by its atoms and weights, with f at its barycenter and the
    ess sup of f over its support."""
    return {
        "kind": "measure",
        "atoms": [[_aslist(m), float(w)] for m, w in zip(atoms, weights)],
        "barycenter": _aslist(np.einsum("m,mij->ij", weights, atoms)),
        "f_barycenter": float(f_bary),
        "sup_support": float(sup),
        "gap": float(f_bary) - float(sup),
    }


def _field_witness(kind, xi, f_xi, values, ess_sup, **extra) -> dict:
    """A test field through xi: its gradient values and their ess sup."""
    return {
        "kind": kind,
        "xi": _aslist(xi),
        "field_values": [_aslist(v) for v in values],
        "ess_sup": ess_sup,
        "f_xi": f_xi,
        "gap": f_xi - ess_sup,
        **extra,
    }


# ---------------------------------------------------------------------------
# sampling streams
# ---------------------------------------------------------------------------

_shared: ContextVar[dict | None] = ContextVar("_shared", default=None)


@contextmanager
def _shared_halton():
    """Share one store among the calls inside the block, then drop it."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _once(key, make):
    """``make()``, made once per key inside a ``_shared_halton`` block and
    at every call outside one.  A key starts with its maker's tag; one that
    holds ``id(f)`` keeps f in its value, so no other f can take that id
    while the store lives."""
    store = _shared.get()
    if store is None:
        return make()
    if key not in store:
        store[key] = make()
    return store[key]


def _points_key(points) -> tuple:
    """A store key for a list of points: each one's shape and bytes."""
    return tuple((p.shape, p.tobytes()) for p in map(_mat, points))


def _scrambled_halton(dim: int, count: int, seed: int) -> np.ndarray:
    """Owen's randomized Halton points (arXiv:1706.02808), bit for bit as
    ``scipy.stats.qmc.Halton(dim, scramble=True, seed=seed).random(count)``
    draws them, in the same (count, dim) column-major layout.

    Coordinate j runs in the j-th prime base b.  One generator shuffles,
    base by base, one row of digit permutations per level k at which
    1 - b^-(k+1) < 1 in doubles (``permuted`` along the rows draws what a
    ``shuffle`` of each row in turn draws).  Point i is the sum over k of
    perm[k][digit k of i] * b^-(k+1), added level by level with the factor
    divided by b at each step.  While b^k < count the partial sums depend
    on i mod b^(k+1) only, so they are built over those residues (up to the
    first multiple of b^k at or above count); above that every digit is 0
    and a level is one scalar add.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((dim, count))
    primes = (p for p in itertools.count(2) if all(p % q for q in range(2, math.isqrt(p) + 1)))
    for row, b in zip(out, primes):
        levels = math.ceil(54 / math.log2(b)) - 1
        perms = rng.permuted(np.repeat(np.arange(b)[None], levels, axis=0), axis=1)
        sums, factor, k = np.zeros(1), 1.0 / b, 0
        while len(sums) < count:
            digits = perms[k, :-(-count // len(sums))]  # those of some i < count
            sums = (sums[None, :] + (digits * factor)[:, None]).ravel()
            factor, k = factor / b, k + 1
        row[:] = sums[:count]
        for perm in perms[k:]:
            row += perm[0] * factor
            factor /= b
    return out.T


def _halton(dim: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points, in ``dim`` coordinates, of the scrambled
    Halton sequence of ``seed``: the leading block of any longer or wider draw
    (a point depends on its index alone, a coordinate on the bases before it).
    In a ``_shared_halton`` block the store holds one draw per seed, under
    ``("halton", seed)``: a call wanting more rows or columns than it holds
    redraws at the larger of each, and each call gets a read-only block."""
    store, key = _shared.get(), ("halton", seed)
    if store is None:
        return _scrambled_halton(dim, count, seed)
    rows, cols = store[key].shape if key in store else (0, 0)
    if rows < count or cols < dim:
        store[key] = _scrambled_halton(max(dim, cols), max(count, rows), seed)
        store[key].flags.writeable = False
    return store[key][:count, :dim]


def _check_settings(budget=None, tol=None, radius=None, seed=0) -> None:
    """Reject a search setting that leaves the search nothing honest to do,
    or a seed that is not an integer >= 0, naming it; NaN fails each test,
    and a budget, tol or radius left None is not checked."""
    if budget is not None:
        _check_count("budget", budget)
    if tol is not None:
        _check_real("tol", tol, 0.0, closed=True)
    if radius is not None:
        _check_real("radius", radius, 0.0)
    _check_count("seed", seed, least=0)


def _finite(name, x) -> np.ndarray:
    """x as a float array; a NaN or infinite entry fails naming it."""
    x = _mat(x)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must have finite entries only")
    return x


def _special_pairs(special_points, rank_one: bool):
    """The list of pairs of distinct special points (the rank-one connected
    ones with ``rank_one``), listed once per report (``_once``)."""
    def pairs():
        pts = [_finite("special_points", p) for p in special_points]
        return [(a, b) for a, b in itertools.combinations(pts, 2) if not np.array_equal(a, b)
                and (not rank_one or is_rank_one_connected(a, b))]
    return _once(("special", rank_one, *_points_key(special_points)), pairs)


def _unit_rank_one(H, N, keep=True):
    """The rows of Halton columns [a | nu], mapped to [-1, 1], that have
    |a|, |nu| > 1e-8 and ``keep``: their mask and the unit rank-one matrices
    (a / |a|) (x) (nu / |nu|)."""
    a, nu = 2.0 * H[:, :N] - 1.0, 2.0 * H[:, N:] - 1.0
    na, nn = np.linalg.norm(a, axis=1), np.linalg.norm(nu, axis=1)
    ok = (na > 1e-8) & (nn > 1e-8) & keep
    return ok, (a[ok] / na[ok, None])[:, :, None] * (nu[ok] / nn[ok, None])[:, None, :]


def _segment_batches(dims, *, seed, budget, radius, special_points=(),
                     rank_one=False):
    """Yield (xi, eta, takes) pair blocks; the total triple count stops at budget.

    ``takes`` lists the block's probes in order, each a (lam, k): its first
    k pairs at weight lam.  The deterministic battery of special-point pairs
    (at the lambda grid) comes first, then Halton pair blocks, each pair
    probed at the lambda grid plus one seeded-random lambda; a rank-one
    block that keeps no pair (|t| <= 1e-8 throughout) raises.
    """
    N, n = dims
    d = N * n
    used = 0

    def cut(count, lams):
        nonlocal used
        takes = []
        for lam in lams:
            take = min(count, budget - used)
            if take <= 0:
                break
            takes.append((lam, take))
            used += take
        return takes

    battery = list(_special_pairs(special_points, rank_one))
    takes = cut(len(battery), LAMBDA_GRID)
    if takes:
        yield (np.array([a for a, _ in battery]),
               np.array([b for _, b in battery]), takes)

    # exhaustive coarse-grid pairs when the budget affords them, counted
    # first: the 5^d nodes alone take 140 MB at d = 9 and 1.1 TiB at d = 16
    if not rank_one and 5 ** d * (5 ** d - 1) // 2 * len(LAMBDA_GRID) <= budget - used:
        nodes = _grid_nodes(dims, radius, 5)
        ii, jj = np.triu_indices(len(nodes), k=1)
        yield nodes[ii], nodes[jj], cut(len(ii), LAMBDA_GRID)

    rng = np.random.default_rng(seed)
    halton_seed = seed
    while used < budget:
        m = min(HALTON_BLOCK, max(1, (budget - used) // (len(LAMBDA_GRID) + 1)))
        if rank_one:
            H = _halton(d + N + n + 1, m, halton_seed)
            t = (2.0 * H[:, -1] - 1.0) * 2.0 * radius
            ok, w = _unit_rank_one(H[:, d:-1], N, np.abs(t) > 1e-8)
            if not ok.any():
                raise ValueError(f"radius {radius!r} leaves no rank-one pair of a "
                                 "Halton block with |t| > 1e-8")
            xi = ((2.0 * H[ok, :d] - 1.0) * radius).reshape(-1, N, n)
            eta = xi + t[ok, None, None] * w
        else:
            H = _halton(2 * d, m, halton_seed)
            xi = ((2.0 * H[:, :d] - 1.0) * radius).reshape(-1, N, n)
            eta = ((2.0 * H[:, d:] - 1.0) * radius).reshape(-1, N, n)
        halton_seed += 1
        lams = LAMBDA_GRID + (float(rng.uniform(0.05, 0.95)),)
        yield xi, eta, cut(len(xi), lams)


def _worst_gap(top, sup) -> tuple[int, float]:
    """Index and value of the largest finite gap ``top - sup`` of a batch."""
    with np.errstate(invalid="ignore"):  # inf - inf outside the box
        gaps = top - sup
    # a non-finite gap cannot be replayed; it must not hide the others
    gaps = np.where(np.isfinite(gaps), gaps, -np.inf)
    i = int(np.argmax(gaps))
    return i, float(gaps[i])


def _backs_violation(gap, tol) -> bool:
    """Whether a gap backs a violation: above tol, and finite, so it replays."""
    return math.isfinite(gap) and gap > tol


def _score_segments(f, dims, *, tol, budget, seed, radius, special_points,
                    rank_one):
    """Score the pair stream of ``_segment_batches``: (outcome, witness, samples)."""
    used = 0
    for xi, eta, takes in _segment_batches(dims, seed=seed, budget=budget,
                                           radius=radius,
                                           special_points=special_points,
                                           rank_one=rank_one):
        # every weight of a block shares its endpoints: f sees each pair once
        k = takes[0][1]
        xi, eta = xi[:k], eta[:k]
        sup = np.maximum(f(xi), f(eta))
        for lam, take in takes:
            used += take
            x, e = xi[:take], eta[:take]
            i, gap = _worst_gap(f(lam * x + (1.0 - lam) * e), sup[:take])
            if gap > tol:
                return VIOLATED, _segment_witness(x[i], e[i], lam, f), used
    return HOLDS, None, used


def _run_segment_checker(notion, f, dims, *, tol, budget, seed, radius,
                         special_points, rank_one) -> Verdict:
    """``notion``'s verdict from a segment-checker run, made once per report
    (``_once``): one run serves every notion that passes its arguments (the
    laminate checker reads the rank-one run; when min(N, n) = 1 every pair is
    rank-one, so that is the level-convexity run), each with its own copy."""
    _check_settings(budget, tol, radius, seed)
    rank_one = rank_one and min(dims) >= 2
    key = ("segments", id(f), tuple(dims), tol, budget, seed, radius, rank_one,
           *_points_key(special_points))
    _, outcome, witness, used = _once(key, lambda: (f, *_score_segments(
        f, dims, tol=tol, budget=budget, seed=seed, radius=radius,
        special_points=special_points, rank_one=rank_one)))
    return Verdict(notion, outcome, copy.deepcopy(witness), used, tol, seed)


# ---------------------------------------------------------------------------
# the four pointwise checkers
# ---------------------------------------------------------------------------

def check_level_convex(f, dims, *, tol=1e-9, budget=100_000,
                       seed=DEFAULT_SEED, radius=2.0,
                       special_points=()) -> Verdict:
    """Search for a midpoint above the endpoint maximum on arbitrary segments."""
    return _run_segment_checker("level_convex", f, dims, tol=tol, budget=budget,
                                seed=seed, radius=radius,
                                special_points=special_points, rank_one=False)


def check_rank_one_qcx(f, dims, *, tol=1e-9, budget=100_000,
                       seed=DEFAULT_SEED, radius=2.0,
                       special_points=()) -> Verdict:
    """Same search restricted to rank-one connected pairs."""
    return _run_segment_checker("rank_one", f, dims, tol=tol, budget=budget,
                                seed=seed, radius=radius,
                                special_points=special_points, rank_one=True)


def two_atom_measures(dims, *, seed, count, radius=2.0, special_points=()):
    """The level-convexity sample stream as two-atom measures, so the Jensen
    checker and the level-convexity checker see the same data: atoms
    (count, 2, N, n) and weights (count, 2), one stack per take."""
    _check_count("count", count)
    _check_settings(radius=radius, seed=seed)
    atoms, weights = [np.empty((0, 2, *dims))], [np.empty((0, 2))]
    for xi, eta, takes in _segment_batches(dims, seed=seed, budget=count,
                                           radius=radius,
                                           special_points=special_points,
                                           rank_one=False):
        for lam, take in takes:
            atoms.append(np.stack([xi[:take], eta[:take]], axis=1))
            weights.append(np.tile([lam, 1.0 - lam], (take, 1)))
    return np.concatenate(atoms), np.concatenate(weights)


def check_supremal_jensen(f, atoms, weights, *, tol=1e-9,
                          seed=DEFAULT_SEED) -> Verdict:
    """Violated iff some measure has f(barycenter) above the ess sup of f
    over its support by a finite gap above tol.  Measure b has atoms[b]
    (M, N, n) and weights[b] (M,); all are scored in one batch, and the
    witness is the worst one."""
    _check_settings(tol=tol, seed=seed)
    atoms, weights = _finite("atoms", atoms), _mat(weights)
    if atoms.ndim != 4 or atoms.shape[:2] != weights.shape:
        raise ValueError("atoms must be (B, M, N, n) and weights (B, M)")
    if len(atoms) == 0:
        raise ValueError("atoms must be a batch of at least one measure")
    if not (np.all(weights >= 0) and np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12)):
        raise ValueError("weights must be nonnegative, each row summing to one within 1e-12")
    f_bary, sup = _measure_gaps(f, atoms, weights)
    i, gap = _worst_gap(f_bary, sup)
    if gap > tol:
        witness = _measure_witness(atoms[i], weights[i], f_bary[i], sup[i])
        return Verdict("supremal_jensen", VIOLATED, witness, len(atoms), tol, seed)
    return Verdict("supremal_jensen", HOLDS, None, len(atoms), tol, seed)


def check_polyquasiconvex_necessary(f, dims, *, tol=1e-9, budget=100_000,
                                    seed=DEFAULT_SEED, radius=2.0,
                                    special_points=()) -> Verdict:
    """Midpoint test on combinations whose minors vectors are consistent.

    The minors are affine along rank-one segments, so every rank-one pair
    is such a combination; when min(N, n) = 1 the minors are the entries
    and every pair is one.  The whole budget goes to that segment stream,
    and a violation is reported as a two-point ``minor-combination``.  A
    rank-one splitting tree of order k reaches nothing more: if f at its
    barycenter exceeds the max over its leaves by g > 0, one of its splits
    is a rank-one segment with gap at least g/k (follow the child with the
    larger value at each level; the values fall by g over k steps).  So
    the checker tests only the combinations that laminates give.
    """
    v = _run_segment_checker("polyquasiconvex", f, dims, tol=tol, budget=budget,
                             seed=seed, radius=radius,
                             special_points=special_points, rank_one=True)
    if v.violated:
        w = v.witness
        w["kind"] = "minor-combination"
        w["points"] = [w.pop("xi"), w.pop("eta")]
        w["weights"] = [w["lam"], 1.0 - w.pop("lam")]
        w["minor_residual"] = 0.0
    return v


# ---------------------------------------------------------------------------
# weak Morrey disproof search (zero-boundary fields)
# ---------------------------------------------------------------------------

def _two_gradient_candidates(xi, dims, *, seed, count, radius, special_points):
    """Mean-zero two-gradient candidates (M_plus, M_minus, theta) through xi.

    Yields batches of absolute gradient values xi + (1 - theta) w and
    xi - theta w, w = t a (x) nu.  Every jump M_plus - M_minus is rank-one:
    only then does a Lipschitz field with these two gradients exist
    (Ball-James rigidity).  Rank-one special-point pairs whose segment
    passes through xi come first, with the points themselves as exact
    values, at most ``count`` of them; then seeded Halton batches.
    """
    N, n = dims
    xi = np.asarray(xi, dtype=float)
    battery_p, battery_m, battery_t = [], [], []
    for a, b in _special_pairs(special_points, rank_one=True):
        if len(battery_p) >= count:
            break
        diff = (a - b).ravel()
        nrm2 = float(diff @ diff)  # > 0: the pair is rank-one connected
        theta = float((xi - b).ravel() @ diff / nrm2)
        if not 1e-9 < theta < 1.0 - 1e-9:
            continue
        if np.max(np.abs(theta * a + (1.0 - theta) * b - xi)) > 1e-12 * (1 + np.max(np.abs(xi))):
            continue
        battery_p.append(a)
        battery_m.append(b)
        battery_t.append(theta)
    if battery_p:
        yield np.array(battery_p), np.array(battery_m), np.array(battery_t)

    halton_seed = seed
    done = len(battery_p)
    while done < count:
        m = min(HALTON_BLOCK, count - done)
        H = _halton(N + n + 2, m, halton_seed)
        halton_seed += 1
        ok, w = _unit_rank_one(H[:, :-2], N)
        t = (H[ok, -2] * 2.0 + 1e-3) * radius          # magnitude in (0, 2R]
        theta = 0.05 + 0.9 * H[ok, -1]
        w = t[:, None, None] * w
        Mp = xi[None] + (1.0 - theta)[:, None, None] * w
        Mm = xi[None] - theta[:, None, None] * w
        done += len(Mp)
        yield Mp, Mm, theta


def _cutoff_values(xi, Mp, Mm, theta):
    """Gradient values of the pyramid-cutoff layer for each laminate candidate.

    Clipping the sawtooth against the boundary-distance cone introduces cells
    with gradients +-K a (x) e_j, K the sawtooth slope bound; those values
    join the essential supremum.  Every jump Mp - Mm is rank-one (see
    ``_two_gradient_candidates``), so its leading singular vector is the
    direction a.  Returns (B, 2n) extra value matrices.
    """
    N, n = xi.shape
    w = (Mp - Mm)  # = t * a (x) nu per candidate
    # slope bound of the profile: max(theta, 1-theta) * |w|
    wn = np.linalg.norm(w.reshape(len(w), -1), axis=1)
    K = np.maximum(theta, 1.0 - theta) * wn
    # direction a from w's row space: w = a (x) nu with |a (x) nu| = |a|
    # recover a as the dominant left factor
    U, S, _ = np.linalg.svd(w)
    a_vec = U[:, :, 0] * (S[:, 0] / np.maximum(wn, 1e-300))[:, None] * K[:, None]
    step = a_vec[:, None, :, None] * np.eye(n)[:, None, :]  # [:, j] = a (x) e_j
    return np.stack([xi + step, xi - step], axis=2).reshape(len(w), 2 * n, N, n)


def _scored_pairs(f, xi, dims, stream):
    """The read-only batches (Mp, Mm, theta, max(f(Mp), f(Mm))) of the two-gradient candidates
    through xi, scored as far as read; one run per f, xi, dims and stream in a report
    (``_once``).  The store keeps a tee of it that never advances; each reader's
    copy replays what earlier readers scored, then scores on."""
    def scored():
        for Mp, Mm, theta in _two_gradient_candidates(xi, dims, **stream):
            batch = (Mp, Mm, theta, np.maximum(f(Mp), f(Mm)))
            for a in batch:
                a.flags.writeable = False
            yield batch
    key = ("pairs", id(f), xi.tobytes(), tuple(dims), stream["seed"], stream["count"],
           stream["radius"], *_points_key(stream["special_points"]))
    return copy.copy(_once(key, lambda: (f, itertools.tee(scored(), 1)[0]))[1])


def _best_field(f, xi, f_xi, dims, *, tol, stop, cutoff=False, **stream):
    """The two-gradient field of ``_two_gradient_candidates(xi, dims,
    **stream)`` with the least essential supremum of f over its gradient
    values (with ``cutoff``, also over the cutoff layer's).  In a report the
    periodic search reads the pairs the weak search scored (``_scored_pairs``).

    A NaN or -inf ess sup counts as +inf; the first strict minimum is kept.  With
    ``stop`` the search ends after the first batch whose minimum undercuts
    ``f_xi`` by a finite gap above tol.  Returns (samples, least ess sup, its
    gradient values, its theta); the values are None when no ess sup is
    below +inf.

    The cutoff layer only raises an ess sup, so the pair's (NaN as +inf,
    -inf kept: a -inf pair bounds nothing) bounds it below.  The layer is
    scored at i0, the first least bound, giving e0, then at each j with
    bound < e0, or bound = e0 and j <= i0; every other candidate has
    (ess sup, j) above (e0, i0).  f and the SVD score each matrix on its
    own, so a subset gets the same bits as the whole batch.
    """
    used, best, best_values, best_theta = 0, np.inf, None, None
    for Mp, Mm, theta, ess in _scored_pairs(f, xi, dims, stream):
        used += len(Mp)
        rows = np.arange(len(ess))
        if cutoff:
            def layer(ix):  # full ess sups of candidates ix, and their cutoff values
                extras = _cutoff_values(xi, Mp[ix], Mm[ix], theta[ix])
                full = np.maximum(ess[ix], f(extras).max(axis=1))
                return np.where(np.isfinite(full), full, np.inf), extras

            bound = np.where(np.isnan(ess), np.inf, ess)
            i0 = int(np.argmin(bound))
            (e0,), _ = layer([i0])
            rows = np.flatnonzero((bound < e0) | ((bound == e0) & (rows <= i0)))
            ess, extras = layer(rows)
        # a NaN or -inf ess sup gives no finite gap; it must not hide one
        ess = np.where(np.isfinite(ess), ess, np.inf)
        k = int(np.argmin(ess))
        if ess[k] < best:
            i = rows[k]
            best = float(ess[k])
            best_values = [Mp[i], Mm[i]] + (list(extras[k]) if cutoff else [])
            best_theta = float(theta[i])
        if stop and _backs_violation(f_xi - best, tol):
            break
    return used, best, best_values, best_theta


def _field_search(notion, f, xi, dims, cutoff, tol, budget, seed, radius,
                  special_points) -> Verdict:
    """``notion``'s verdict from the two-gradient fields through xi, scored by
    ``_best_field`` up to the first batch that backs a violation; with
    ``cutoff`` the cutoff layer's values join each ess sup."""
    _check_settings(budget, tol, radius, seed)
    xi = _finite("xi", xi).reshape(dims)
    f_xi = float(f(xi))
    used, best, values, theta = _best_field(
        f, xi, f_xi, dims, tol=tol, stop=True, cutoff=cutoff, seed=seed,
        count=budget, radius=radius, special_points=special_points)
    if _backs_violation(f_xi - best, tol):
        kind = "cutoff-field" if cutoff else "two-gradient-field"
        witness = _field_witness(kind, xi, f_xi, values, best, theta=theta)
        return Verdict(notion, VIOLATED, witness, used, tol, seed)
    return Verdict(notion, HOLDS, None, used, tol, seed)


def search_weak_morrey_violation(f, xi, dims, *, tol=1e-9, budget=20_000,
                                 seed=DEFAULT_SEED, radius=2.0,
                                 special_points=()) -> Verdict:
    """Minimize the essential supremum of f(xi + D phi) over zero-boundary fields.

    The whole budget goes to the two-gradient candidates through xi: exact
    two-slope zigzags when n = 1 (every mean-zero two-slope profile is
    realizable with zero boundary there), laminates cut off by the
    boundary-distance pyramid for n >= 2 (the cutoff layer's gradients join
    the supremum, as two-gradient rigidity demands).  The verdict's budget is
    the candidates scored, never more than ``budget``.
    """
    return _field_search("weak_morrey", f, xi, dims, dims[1] >= 2, tol, budget, seed,
                         radius, special_points)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass
class ClassifyConfig:
    """The search settings of a report; a bad one fails naming itself."""

    budget: int = 100_000
    tol: float = 1e-9
    seed: int = DEFAULT_SEED
    radius: float = 2.0

    def __post_init__(self) -> None:
        _check_settings(self.budget, self.tol, self.radius, self.seed)


@dataclass
class Report:
    name: str
    dims: tuple[int, int]
    verdicts: dict
    inconsistencies: list
    documented_mismatches: list
    config: dict
    timestamp: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _probe_points(entry_points, dims) -> list[np.ndarray]:
    """The first ``MAX_PROBE_POINTS`` special points, the last one giving way
    to the origin when it is not among them."""
    pts = [np.asarray(p, dtype=float) for p in entry_points[:MAX_PROBE_POINTS]]
    zero = np.zeros(dims)
    if not any(np.array_equal(p, zero) for p in pts):
        pts = pts[:MAX_PROBE_POINTS - 1] + [zero]
    return pts


def probe_verdict(notion, probes, budget, search, *, tol,
                  seed=DEFAULT_SEED) -> Verdict:
    """Run ``search(point, per_probe_budget)`` at each probe point in turn,
    splitting the budget evenly.  Violated at the first violated probe; the
    verdict's budget is every sample spent up to there."""
    _check_settings(budget, tol, seed=seed)
    if len(probes) == 0:
        raise ValueError("probes must hold at least one point")
    per_probe = max(1, budget // len(probes))
    used = 0
    for p in probes:
        v = search(p, per_probe)
        used += v.budget
        if v.violated:
            v.budget = used
            return v
    return Verdict(notion, HOLDS, None, used, tol, seed)


def verdict_inconsistencies(verdicts: dict) -> list[str]:
    holds = {notion: not v.violated for notion, v in verdicts.items()}
    return [f"{strong} holds within budget but {weak} is violated"
            for strong, weak in hierarchy_breaks(holds)]


def classify_report(entry: CorpusEntry, config: ClassifyConfig | None = None) -> Report:
    """Run every checker on a corpus entry and cross-validate the verdicts.

    Field-based notions (weak, periodic, strong) are probed at up to
    ``MAX_PROBE_POINTS`` points, the first special points of the entry with
    the origin always among them; a notion is violated if any probe point
    is.  Hierarchy inconsistencies are flagged but the report is still
    produced.  Every checker receives the same settings, ``config``'s.
    """
    from . import laminate  # deferred: laminate depends on Verdict above

    cfg = config or ClassifyConfig()
    f, dims = entry, entry.dims
    kw = dict(asdict(cfg), special_points=entry.special_points)
    probes = _probe_points(entry.special_points, dims)

    def field_verdict(notion, search):
        return probe_verdict(notion, probes, max(1000, cfg.budget // 10),
                             lambda p, b: search(f, p, dims, **dict(kw, budget=b)),
                             tol=cfg.tol, seed=cfg.seed)

    # each checker is read off its module when the report runs (a tracer may wrap it)
    with _shared_halton():  # one draw per seed for this report
        rank_one = check_rank_one_qcx(f, dims, **kw)  # on 2x2, the widest Halton draws first
        verdicts = {
            "level_convex": check_level_convex(f, dims, **kw),
            "rank_one": rank_one,
            "polyquasiconvex": check_polyquasiconvex_necessary(f, dims, **kw),
            "weak_morrey": field_verdict("weak_morrey", search_weak_morrey_violation),
            "periodic_weak_morrey": field_verdict(
                "periodic_weak_morrey", laminate.check_periodic_weak_morrey),
            "strong_morrey": field_verdict(
                "strong_morrey", laminate.search_strong_morrey_violation),
            "curl_young_laminates": laminate.check_curl_young_on_laminates(f, dims, **kw),
        }
    inconsistencies = verdict_inconsistencies(verdicts)

    mismatches = []
    for notion, documented in sorted(entry.documented_properties.items()):
        v = verdicts.get(notion)
        if v is None:
            continue
        if documented and v.violated:
            mismatches.append(f"{notion} documented to hold but a violation was found")
        if not documented and not v.violated:
            mismatches.append(f"{notion} documented to fail but no violation found within budget")

    return Report(
        name=entry.name, dims=dims, verdicts=verdicts,
        inconsistencies=inconsistencies, documented_mismatches=mismatches,
        config=asdict(cfg),
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
