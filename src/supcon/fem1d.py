"""One-dimensional finite-element power-law experiment.

Minimizes ``F_p(u) = (integral of f^p(u'))^{1/p}`` over piecewise-affine u
on a uniform mesh of the unit interval, with affine boundary data of slope
xi, i.e. over per-cell slopes with prescribed mean; the domain has length 1,
so no |domain|^{1/p} factor is divided out.  In one dimension the relaxed
value of this inner problem is the convex envelope of ``f^p`` at xi (at most
two active slopes, plus one adjustment cell to meet the mean constraint
exactly on a finite mesh), which is what makes the experiment an
oracle-checkable probe of the power-law limit: the minimum is compared
against the grid convex envelope of ``f^p`` and, as p grows, against the
level-convex lsc envelope of f.

The solver exploits exactly that structure: a two-slope scan with an
adjustment cell, then a pattern-search polish of the two slopes; it draws no
random numbers.  Slopes live in the box [-slope_bound, slope_bound]; the
oracle envelope is computed on the same box so both sides see the same
relaxation.  ``FeOptions`` holds every setting, ``cells`` included, and the
report echoes it.

The scan evaluates f once per table: once on the scan grid, once at the
adjustment slopes of every (a, b) pair.  The polish walks advance in
lockstep, one f call per step, and each walk speculates: a step scores the
rest of its pattern-search round as if every earlier move were rejected, and
keeps the moves up to the first accepted one.  The powered terms
(f/scale)^p and the 1/p root stay Python-float pows, because numpy's array
``**`` differs from them in the last ulp for some inputs, and a near-tie
would then pick another profile; the results are bit-identical to the
per-pair loop.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .envelope import level_convex_lsc_envelope, lower_hull_1d
from .funcspace import (MODE_PLUS_INFINITY, GridSpec, SampledFunction, _check_count,
                        _check_real, _check_schedule, write_json)

__all__ = [
    "FeOptions",
    "FeMinimizeResult",
    "GammaReport",
    "minimize_Fp",
    "gamma_limit_experiment",
    "envelope_oracle_1d",
]


POLISH_ROUNDS = 40  # pattern-search rounds of each polish walk
TOL = 1e-9  # least improvement, relative to the scale of f, a polish move keeps
ORACLE_POINTS = 2001  # odd: slope-box nodes of the envelope oracles and hull supports
CONSISTENCY_TOL = 0.02  # a limit this close to f(xi) (relative, >= 1) is consistent


@dataclass
class FeOptions:
    """The settings of the FE experiment; the mesh has ``cells`` cells."""

    cells: int = 64
    slope_bound: float = 10.0
    scan_points: int = 161

    def __post_init__(self) -> None:
        _check_count("cells", self.cells, least=2)
        _check_count("scan_points", self.scan_points, least=2)
        _check_real("slope_bound", self.slope_bound, 0.0)


@dataclass
class FeMinimizeResult:
    p: float
    min_value: float
    gradient_per_cell: np.ndarray
    iterations: int
    converged: bool
    target_mean: float = 0.0

    def __post_init__(self) -> None:
        g = np.asarray(self.gradient_per_cell, dtype=float)
        scale = 1.0 + abs(self.target_mean)
        if abs(float(g.mean()) - self.target_mean) > 1e-10 * scale:
            raise ValueError("gradient mean must match the boundary slope")
        self.gradient_per_cell = g


def _scalar_eval(f, G):
    """f on an array of slopes, each read at its clip to the slope box
    [-G, G]: rounding can put an adjustment slope a few ulps past the box."""
    def fs(t):
        t = np.clip(np.asarray(t, dtype=float), -G, G)
        return np.asarray(f(t[..., None, None]), dtype=float)
    return fs


def _objective(fs, g, p, h, scale):
    vals = _nonnegative(fs(g))
    mean_p = float(np.mean((vals / scale) ** p))
    return scale * (h * len(g) * mean_p) ** (1.0 / p)


def _hull_support_slopes(fs, xi, G, p, scale):
    """Endpoints of the convex-envelope supporting segment of f^p at xi.

    In one dimension the relaxed minimizer oscillates between at most two
    slopes: the hull's tangency points bracketing xi.  Their fine-grid
    estimates seed the discrete polish.
    """
    x = np.linspace(-G, G, ORACLE_POINTS)
    v = (_nonnegative(fs(x)) / scale) ** p
    hull = lower_hull_1d(x, v)
    on_hull = np.abs(v - hull) <= 1e-12 * (1.0 + np.abs(v))
    left = np.flatnonzero(on_hull & (x <= xi))
    right = np.flatnonzero(on_hull & (x >= xi))
    a = float(x[left[-1]]) if len(left) else float(xi)
    b = float(x[right[0]]) if len(right) else float(xi)
    return a, b


def _nonnegative(vals):
    """``vals``, once checked nonnegative and finite: an infinite value would
    make the scale infinite and every powered value NaN."""
    if not np.all((vals >= 0) & (vals < np.inf)):  # NaN fails too
        raise ValueError("f must be nonnegative and finite on the explored slope range")
    return vals


def _powers(vals, p, scale):
    """(v/scale)^p per value, as Python-float pows: numpy's array ``**`` can
    differ from them in the last ulp, and the FE minima would move with it."""
    return np.array([(v / scale) ** p for v in vals.tolist()])


def _two_slope_values(fs, a, b, xi, m, G, p, scale, qa=None, qb=None):
    """Best k-cells-at-a / rest-at-b / one-adjustment-cell profile of each
    slope pair (a[i], b[i]), a[i] <= xi <= b[i].

    k is the floor or the ceiling of theta*m clamped to [0, m-1], theta the
    weight of a in xi; the adjustment slope c meets the mean exactly.  For
    the floor, c is a convex combination of a and b, so it is kept even
    where rounding puts it a few ulps past the slope box; a ceiling whose c
    leaves the box is skipped.  Returns arrays (val, k, c): the better k per
    pair, the floor on a tie.  f is evaluated in one call, at the c of every
    k kept, and at its a and b too unless their (f/scale)^p come in as
    ``qa``, ``qb``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # a == b is masked
        theta = np.where(a == b, 1.0, (b - xi) / (b - a))
    tm = (theta * m)[:, None]
    k = np.concatenate([np.floor(tm), np.ceil(tm)], axis=1)
    k = np.minimum(np.maximum(k, 0), m - 1).astype(int)
    c = m * xi - k * a[:, None] - (m - k - 1) * b[:, None]
    ok = np.abs(c) <= G + 1e-12
    ok[:, 0] = True
    val = np.full(k.shape, np.nan)
    pair = np.nonzero(ok)[0]
    if qa is None:
        nodes = np.concatenate([a[pair], b[pair], c[ok]])
        qa, qb, qc = _powers(_nonnegative(fs(nodes)), p, scale).reshape(3, -1)
    else:
        qa, qb = qa[pair], qb[pair]
        qc = _powers(_nonnegative(fs(c[ok])), p, scale)
    kk = k[ok]
    mean_p = (kk * qa + (m - kk - 1) * qb + qc) / m
    root = 1.0 / p
    val[ok] = [scale * mp ** root for mp in mean_p.tolist()]
    j = (val[:, 1] < val[:, 0]).astype(int)  # False where the ceiling is NaN
    rows = np.arange(len(k))
    return val[rows, j], k[rows, j], c[rows, j]


def _polish(a, b, xi, G, step, rounds, tol):
    """Pattern search of the slope pair (a, b) from one start.

    A generator: it yields lists of pairs to evaluate and is sent back one
    (value, k, c) per pair.  A list holds the rest of the current round from
    the current pair, built as if every earlier move of it were rejected,
    without the moves that leave the box; the results after the first
    accepted move are dropped, and the next list starts at the move after
    it.  Returns the accepted (value, profile) in order, the number of
    neighbor evaluations the one-move-at-a-time search makes and whether the
    step fell below 1e-9.
    """
    (got,) = yield [(a, b)]
    cur = got[0]
    accepted = [(cur, ("pair", a, b, got[1], got[2]))]
    evaluations = 0
    for _ in range(rounds):
        improved = False
        moves = ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step),
                 (step, step), (-step, -step))
        while moves:
            pairs = [(j, na, nb) for j, (da, db) in enumerate(moves)
                     if (na := min(max(a + da, -G), G)) <= xi
                     and (nb := min(max(b + db, -G), G)) >= xi]
            if not pairs:
                break
            results = yield [(na, nb) for _, na, nb in pairs]
            rest = ()
            for (j, na, nb), got in zip(pairs, results):
                evaluations += 1
                if got[0] < cur - tol:
                    cur, a, b = got[0], na, nb
                    improved = True
                    accepted.append((cur, ("pair", a, b, got[1], got[2])))
                    rest = moves[j + 1:]
                    break
            moves = rest
        if not improved:
            step *= 0.5
            if step < 1e-9:
                return accepted, evaluations, True
    return accepted, evaluations, False


def _check_xi(xi, G):
    """Fail naming ``xi`` unless it is a real boundary slope in [-G, G]."""
    _check_real("boundary slope xi", xi, -G, closed=True)
    if not xi <= G:
        raise ValueError(f"boundary slope xi={xi!r} lies outside [-{G!r}, {G!r}]")


def minimize_Fp(f, p: float, xi: float, opts: FeOptions | None = None) -> FeMinimizeResult:
    """Minimize (sum_i h f^p(g_i))^{1/p}, h = 1/cells, over slopes g with mean xi.

    Slopes are confined to [-slope_bound, slope_bound], up to the rounding of
    the adjustment slope, and f is read at their clip to that box.  Requires
    a finite p >= 1 and f nonnegative and finite on the box.  If no polish walk
    shrinks its step below 1e-9 the result is still returned, flagged
    converged=False.
    """
    _check_real("p", p, 1.0, closed=True)
    opts = opts or FeOptions()
    m, G = opts.cells, opts.slope_bound
    fs = _scalar_eval(f, G)
    h = 1.0 / m
    _check_xi(xi, G)

    S = np.linspace(-G, G, opts.scan_points)
    S = np.unique(np.append(S, xi))
    vals = _nonnegative(fs(S))
    scale = max(float(vals.max()), float(fs(np.array([xi]))[0]), 1e-300)

    iterations = 0
    length_factor = (h * m) ** (1.0 / p)
    # constant profile is always feasible
    best_val = _objective(fs, np.full(m, xi), p, h, scale)
    best_profile = ("pair", xi, xi, m - 1, xi)

    # two-slope scan with adjustment cell over every pair a <= xi <= b of scan
    # nodes, a-major; keep several starts for the polish
    lo = np.flatnonzero(S <= xi)
    hi = np.flatnonzero(S >= xi)
    ia, ib = np.repeat(lo, len(hi)), np.tile(hi, len(lo))
    iterations += len(ia)
    q = _powers(vals, p, scale)
    val = _two_slope_values(fs, S[ia], S[ib], xi, m, G, p, scale, q[ia], q[ib])[0]
    val, a, b = val * length_factor, S[ia], S[ib]
    # the 8 lowest of the constant profile and the scan pairs, in that order
    # on ties; every value is finite here.  A scan pair below the constant
    # starts walk 0, whose first accepted entry scores it again, bit for bit
    first = np.argsort(np.append(best_val, val), kind="stable")[:8]
    polish_starts = list(zip(np.append(xi, a)[first].tolist(),
                             np.append(xi, b)[first].tolist()))
    # the envelope's supporting segment of f^p at xi is the continuum optimum
    polish_starts.append(_hull_support_slopes(fs, xi, G, p, scale))

    # pattern-search polish of the two slopes from every start; the walks do
    # not depend on one another, so they advance in lockstep, one batched
    # evaluation of all their speculated pairs per step, and their accepted
    # values are replayed in start order to pick the first strict minimum
    base_step = float(S[1] - S[0])  # S holds -G and G
    walks = [_polish(a, b, xi, G, base_step, POLISH_ROUNDS, TOL * scale)
             for a, b in polish_starts]
    results = [None] * len(walks)
    todo = [(i, w, next(w)) for i, w in enumerate(walks)]
    while todo:
        a, b = np.array([pair for t in todo for pair in t[2]]).T
        val, k, c = _two_slope_values(fs, a, b, xi, m, G, p, scale)
        got = zip((val * length_factor).tolist(), k.tolist(), c.tolist())
        advanced = []
        for i, w, pairs in todo:
            try:
                advanced.append((i, w, w.send([next(got) for _ in pairs])))
            except StopIteration as stop:
                results[i] = stop.value
        todo = advanced
    converged = False
    for accepted, evaluations, small_step in results:
        iterations += evaluations
        converged = converged or small_step
        for val, profile in accepted:
            if val < best_val:
                best_val, best_profile = val, profile

    g_best = _profile_to_slopes(best_profile, m)
    # exact mean projection, then the reported value matches the profile
    g_best = g_best + (xi - g_best.mean())
    best_val = _objective(fs, g_best, p, h, scale)
    return FeMinimizeResult(p=float(p), min_value=best_val,
                            gradient_per_cell=g_best, iterations=iterations,
                            converged=converged, target_mean=xi)


def _profile_to_slopes(profile, m):
    _, a, b, k, c = profile
    return np.array([a] * k + [b] * (m - k - 1) + [c], dtype=float)


def envelope_oracle_1d(f, xi: float, p: float, *, slope_bound: float) -> float:
    """((f^p)** (xi))^{1/p} on the slope box, via the exact grid lower hull."""
    _check_real("p", p, 1.0, closed=True)
    x = np.linspace(-slope_bound, slope_bound, ORACLE_POINTS)
    vals = _nonnegative(_scalar_eval(f, slope_bound)(x))
    scale = max(float(vals.max()), 1e-300)
    hull = lower_hull_1d(x, (vals / scale) ** p)
    return scale * float(np.interp(xi, x, hull)) ** (1.0 / p)


@dataclass
class GammaReport:
    name: str
    xi: float
    p_schedule: tuple
    rows: list
    f_xi: float
    lslc_at_xi: float
    classification: str
    options: dict

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["per_p"] = doc.pop("rows")
        return doc

    def save(self, outdir, basename: str = "gamma1d") -> None:
        outdir = Path(outdir)
        write_json(self.to_dict(), outdir / f"{basename}.json")
        with open(outdir / f"{basename}_gradients.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "cell", "slope"])
            for row in self.rows:
                for i, s in enumerate(row["gradient_per_cell"]):
                    w.writerow([row["p"], i, repr(float(s))])


def gamma_limit_experiment(f, xi: float, p_schedule, opts: FeOptions | None = None,
                           name: str = "") -> GammaReport:
    """Run minimize_Fp across the schedule and compare against the envelope
    oracles.

    Each minimum is matched against the grid convex envelope of f^p on the
    slope box; the final value is classified against f(xi): within
    ``CONSISTENCY_TOL`` of it means "consistent-with-curl-infty",
    strictly below it means "gap-detected".  The verdict is a finite-p,
    bounded-slope heuristic: right at a kink of a coercive supremand the
    residual gap decays only like log(p)/p, so push the schedule higher
    before reading much into a classification taken exactly there.
    """
    ps = _check_schedule(p_schedule, closed=True)
    opts = opts or FeOptions()
    _check_xi(xi, opts.slope_bound)
    fs = _scalar_eval(f, opts.slope_bound)
    f_xi = float(fs(np.array([xi]))[0])

    rows = []
    for p in ps:
        res = minimize_Fp(f, p, xi, opts)
        oracle = envelope_oracle_1d(f, xi, p, slope_bound=opts.slope_bound)
        rows.append({
            "p": p,
            "min_value": res.min_value,
            # the domain has length 1: nothing to normalize
            "normalized": res.min_value,
            "oracle_value": oracle,
            "gap_to_oracle": res.min_value - oracle,
            "converged": res.converged,
            "gradient_per_cell": [float(v) for v in res.gradient_per_cell],
        })

    # level-convex lsc envelope of f on the slope box, evaluated at xi
    grid = GridSpec((1, 1), opts.slope_bound, ORACLE_POINTS)
    sf = SampledFunction(grid, fs(grid.axis()), MODE_PLUS_INFINITY)
    lslc = level_convex_lsc_envelope(sf)
    lslc_at_xi = float(np.interp(xi, grid.axis(), lslc.values))

    final = rows[-1]["min_value"]
    ctol = CONSISTENCY_TOL * max(1.0, abs(f_xi))
    classification = ("consistent-with-curl-infty"
                      if f_xi - final <= ctol else "gap-detected")
    return GammaReport(
        name=name, xi=float(xi), p_schedule=ps, rows=rows, f_xi=f_xi,
        lslc_at_xi=lslc_at_xi, classification=classification,
        options=asdict(opts),
    )
