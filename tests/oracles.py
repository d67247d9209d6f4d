"""Reference implementations the batched operators must reproduce.

These are the straightforward loops the d >= 2 branches of
``lamination_hull`` and ``level_convex_lsc_envelope`` were first written as:
one Python monotone chain per grid line, and one Qhull hull (or one LP per
query) per sublevel threshold.  The lamination loop sweeps the directions
one after another and lowers each line to its 1-d hull, so it reaches the
batched hull's fixpoint by another path: the two agree to rounding, not bit
for bit.  That chain, ``lower_hull_1d``, is kept as it
ran on numpy-indexed scalars before ``envelope.lower_hull_1d`` moved to
Python floats, and the lamination and FE oracles call it.  The weak-Morrey
search layer has one more: one SVD per candidate for the cutoff-layer
values.  They are slow but easy to audit; the tests require the production
code to agree with them bit for bit.  Two more references are the
generators the production code replaced: the per-matrix minors vector
that ``minors_batch`` must match, and the laminate-side two-gradient
candidate stream that ``classify._two_gradient_candidates`` took over.  The last is the one-point
multilinear interpolation that ``interpolating_evaluator`` once called per
query.  The last pair is ``minimize_Fp`` as it was before its two-slope scan
was batched: one ``_two_slope_value`` call per slope pair, each evaluating f
one point at a time.  After it come the dense Pasch-Hausdorff transform,
which takes the minimum over every node pair in blocks of the full distance
matrix, and the ``csv.writer`` loop that ``save_csv`` once ran per node.
Then come the three field searches as they were when each scored its own
two-gradient batches, before ``classify._best_field`` took that over.  Last
are the segment checker and the two-atom measure stream as they were when
the pair stream yielded each weight of a block on its own, and the checker
called f at the endpoints once per weight; the stream gives the same
(atoms, weights) arrays.  The very last is the supremal Jensen loop as it
ran before ``classify._measure_gaps`` scored a whole batch of measures: one
measure at a time, one f call per atom of positive weight and one at the
barycenter, a NaN on the support counting as +inf.  The facet products of the
convex envelope and of the hull membership test are kept as they were before
they were computed in place: a fresh array per sum and quotient.  So is the
lsc loop as it ran before its separation certificates, rebuilding the hull
from the last vertices at every threshold it does not skip, with the one
LP per query near a flat sublevel set, ``points_in_flat_hull``, that the
envelope ran before it tested those sets in their SVD basis.  The random
rank-one splitting-tree generator is kept as the laminate and
polyquasiconvexity tree streams drew it before those streams became the
rank-one segment stream; the tests use it to check the finite-order
reduction of a tree to one of its splits.  The scrambled Halton draw of
``scipy.stats.qmc`` is kept as the engine ``classify`` drew from before its
own kernel, ``classify._scrambled_halton``, which must match it bit for bit.
The curl-Young laminate checker is the per-weight segment run on
rank-one pairs, its witness segment written out by hand as the two-atom
measure.  The two-gradient field scorer ``best_field`` is kept as it ran
before ``classify._best_field`` bounded each candidate's ess sup by its pair
of gradient values: the cutoff layer scored at every candidate of a batch.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError
from scipy.stats import qmc

from supcon.classify import (DEFAULT_DELTA_SCHEDULE, HOLDS, LAMBDA_GRID, VIOLATED,
                             Verdict, _aslist, _backs_violation, _cutoff_values,
                             _ess_sup, _field_witness, _halton, _measure_witness,
                             _segment_witness, _special_pairs, _two_gradient_candidates,
                             _worst_gap)
from supcon.envelope import rank_one_grid_directions
from supcon.fem1d import (ORACLE_POINTS, POLISH_ROUNDS, TOL, FeMinimizeResult, FeOptions,
                          _nonnegative, _objective, _profile_to_slopes, _scalar_eval)
from supcon.funcspace import (DEFAULT_SEED, MODE_PLUS_INFINITY, SampledFunction, _sidecar_path,
                              write_json)
from supcon.matspace import _index_sets, tau

LAMINATION_SWEEPS = 10_000  # the per-line oracle's safety cap


def lower_hull_1d(positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of (positions, values), sampled back at
    positions: the monotone chain on numpy-indexed scalars."""
    x = np.asarray(positions, dtype=float)
    v = np.asarray(values, dtype=float)
    m = len(x)
    if m <= 2:
        return v.copy()
    stack: list[int] = []
    for i in range(m):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            # pop k when it lies on or above chord (j, i)
            if (x[k] - x[j]) * (v[i] - v[j]) - (x[i] - x[j]) * (v[k] - v[j]) <= 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    hx = x[stack]
    hv = v[stack]
    return np.interp(x, hx, hv)


def sweep_lines(shape: tuple[int, ...], step: np.ndarray):
    """Yield flat-index arrays of the maximal grid lines with index step ``step``."""
    P = shape[0]
    d = len(shape)
    strides = np.array([P ** (d - 1 - i) for i in range(d)], dtype=int)
    idx = np.indices(shape).reshape(d, -1).T  # (M, d)
    prev = idx - step
    is_start = np.any((prev < 0) | (prev >= P), axis=1)
    starts = idx[is_start]
    # steps available along each axis before leaving the box
    caps = np.full(len(starts), np.iinfo(np.int64).max, dtype=np.int64)
    for a in range(d):
        s = step[a]
        if s > 0:
            caps = np.minimum(caps, (P - 1 - starts[:, a]) // s)
        elif s < 0:
            caps = np.minimum(caps, starts[:, a] // (-s))
    flat_step = int(step @ strides)
    flat_starts = starts @ strides
    for f0, cap in zip(flat_starts, caps):
        if cap >= 2:  # need at least 3 points for a nontrivial hull
            yield f0 + flat_step * np.arange(cap + 1)


def lamination_hull(f: SampledFunction, full_output: bool = False):
    """Per-line Gauss-Seidel sweeps: directions one after another, each line
    replaced by ``min(old, lower_hull_1d(old))``, stopping after a sweep
    that lowers no value."""
    g = f.grid
    vals = f.values.ravel().copy()
    dirs = rank_one_grid_directions(g.dims)
    lines = [list(sweep_lines(g.shape, d)) for d in dirs]
    sweeps = 0
    converged = False
    for sweeps in range(1, LAMINATION_SWEEPS + 1):
        lowered = False
        for dir_lines in lines:
            for line in dir_lines:
                old = vals[line]
                hull = lower_hull_1d(np.arange(len(line), dtype=float), old)
                lowered |= bool(np.any(hull < old))
                vals[line] = np.minimum(old, hull)
        if not lowered:
            converged = True
            break
    result = f.with_values(vals.reshape(g.shape))
    if full_output:
        return result, {"sweeps": sweeps, "converged": converged}
    return result


def envelope_values_nd(coords: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``envelope._envelope_values_nd`` as it was before each facet block was
    computed in place: a fresh product, sum and quotient per block, with the
    same block width."""
    if np.ptp(values) == 0.0:
        return values.copy()
    A = np.hstack([coords, np.ones((len(coords), 1))])
    sol, *_ = np.linalg.lstsq(A, values, rcond=None)
    if np.max(np.abs(A @ sol - values)) <= 1e-12 * max(1.0, np.max(np.abs(values))):
        return values.copy()
    lifted = np.hstack([coords, values[:, None]])
    try:
        eq = ConvexHull(lifted, qhull_options="Qt").equations
    except QhullError:
        eq = ConvexHull(lifted, qhull_options="QJ").equations
    lower = eq[eq[:, -2] < -1e-12]
    est = np.full(len(coords), -np.inf)
    chunk = max(1, 4_000_000 // max(1, len(coords)))
    for lo in range(0, len(lower), chunk):
        block = lower[lo:lo + chunk]
        vals = (coords @ block[:, :-2].T + block[:, -1]) / (-block[:, -2])
        np.maximum(est, vals.max(axis=1), out=est)
    return np.minimum(est, values)


def inside_facets(eq: np.ndarray, queries: np.ndarray, tol: float) -> np.ndarray:
    """Which queries are within ``tol`` of every facet: a fresh offset sum."""
    return np.all(queries @ eq[:, :-1].T + eq[:, -1] <= tol, axis=1)


def points_in_hull(points: np.ndarray, queries: np.ndarray,
                   tol: float = 1e-9) -> np.ndarray:
    """Boolean mask: which queries lie in conv(points)."""
    if len(points) == 0:
        return np.zeros(len(queries), dtype=bool)
    if len(points) == 1:
        return np.linalg.norm(queries - points[0], axis=1) <= tol
    d = points.shape[1]
    if len(points) > d:
        try:
            return inside_facets(ConvexHull(points).equations, queries, tol)
        except QhullError:
            pass
    # degenerate or tiny set: LP feasibility per query
    m = len(points)
    A_eq = np.vstack([points.T, np.ones(m)])
    out = np.zeros(len(queries), dtype=bool)
    for i, q in enumerate(queries):
        res = linprog(np.zeros(m), A_eq=A_eq, b_eq=np.append(q, 1.0),
                      bounds=(0.0, None), method="highs")
        out[i] = bool(res.success)
    return out


def points_in_flat_hull(points: np.ndarray,
                        queries: np.ndarray) -> tuple[np.ndarray, int]:
    """Hull membership for a degenerate or tiny point set (at least two points).

    Queries more than 1e-6 off the affine hull of the points cannot be convex
    combinations of them and are rejected outright; the others each get an LP
    feasibility solve.  Returns the mask and the number of LPs run.
    """
    centre = points.mean(axis=0)
    _, s, vt = np.linalg.svd(points - centre, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(points.shape) * np.finfo(float).eps))
    basis = vt[:rank]
    rel = queries - centre
    off = rel - (rel @ basis.T) @ basis
    near = np.flatnonzero(np.linalg.norm(off, axis=1) <= 1e-6)
    m = len(points)
    A_eq = np.vstack([points.T, np.ones(m)])
    out = np.zeros(len(queries), dtype=bool)
    for i in near:
        res = linprog(np.zeros(m), A_eq=A_eq, b_eq=np.append(queries[i], 1.0),
                      bounds=(0.0, None), method="highs")
        out[i] = bool(res.success)
    return out, len(near)


def level_convex_lsc_envelope(f: SampledFunction) -> SampledFunction:
    """One hull per distinct sampled threshold, for grids of dimension >= 2."""
    g = f.grid
    assert g.ndim >= 2, "the 1-d branch is unchanged; call the operator directly"
    flat = f.values.ravel()
    order = np.argsort(flat, kind="stable")
    svals = flat[order]
    coords = g.node_coords()
    out = flat.copy()
    assigned = np.zeros(len(flat), dtype=bool)
    thresholds = np.unique(svals)
    for t in thresholds:
        todo = ~assigned
        if not todo.any():
            break
        pts = coords[flat <= t]
        inside = points_in_hull(pts, coords[todo])
        idx = np.flatnonzero(todo)[inside]
        out[idx] = t
        assigned[idx] = True
    out = np.minimum(out, flat)
    return f.with_values(out.reshape(g.shape))


def lsc_envelope_from_last_vertices(f: SampledFunction) -> SampledFunction:
    """``level_convex_lsc_envelope`` before its separation certificates.

    A threshold whose new nodes lie strictly inside the last full-dimensional
    hull is skipped; every other one builds a hull, from the last hull's
    vertices and the new nodes once a full-dimensional hull exists."""
    g = f.grid
    assert g.ndim >= 2, "the 1-d branch is unchanged; call the operator directly"
    flat = f.values.ravel()
    coords = g.node_coords()
    out = flat.copy()
    assigned = np.zeros(len(flat), dtype=bool)
    eq = verts = None
    for t in np.unique(flat):
        todo = ~assigned
        if not todo.any():
            break
        new = coords[flat == t]
        if eq is not None and inside_facets(eq, new, -1e-9).all():
            continue
        pts = coords[flat <= t] if verts is None else np.vstack([verts, new])
        try:
            hull = ConvexHull(pts) if len(pts) > pts.shape[1] else None
        except QhullError:
            hull = None
        if len(pts) == 1:
            inside = np.linalg.norm(coords[todo] - pts[0], axis=1) <= 1e-9
        elif hull is None:
            inside = points_in_flat_hull(pts, coords[todo])[0]
        else:
            eq, verts = hull.equations, pts[hull.vertices]
            inside = inside_facets(eq, coords[todo], 1e-9)
        idx = np.flatnonzero(todo)[inside]
        out[idx] = t
        assigned[idx] = True
    return f.with_values(np.minimum(out, flat).reshape(g.shape))


def cutoff_values(xi, Mp, Mm, theta):
    """Cutoff-layer gradient values, one SVD per laminate candidate."""
    N, n = xi.shape
    w = (Mp - Mm)  # = t * a (x) nu per candidate
    # slope bound of the profile: max(theta, 1-theta) * |w|
    wn = np.linalg.norm(w.reshape(len(w), -1), axis=1)
    K = np.maximum(theta, 1.0 - theta) * wn
    # direction a from w's row space: w = a (x) nu with |a (x) nu| = |a|
    # recover a as the dominant left factor
    extras = np.empty((len(w), 2 * n, N, n))
    for i, Wi in enumerate(w):
        U, S, Vt = np.linalg.svd(Wi)
        a_vec = U[:, 0] * (S[0] / max(wn[i], 1e-300)) * K[i]
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            extras[i, 2 * j] = xi + np.outer(a_vec, e)
            extras[i, 2 * j + 1] = xi - np.outer(a_vec, e)
    return extras


def minors_array(mat: np.ndarray) -> np.ndarray:
    """Minors vector of a 2-d array, canonical ordering, as a flat array."""
    mat = np.asarray(mat, dtype=float)
    N, n = mat.shape
    out = np.empty(tau(N, n))
    k = 0
    for s, rows, cols in _index_sets(N, n):
        sub = mat[np.ix_(rows, cols)]
        if s == 1:
            out[k] = sub[0, 0]
        elif s == 2:  # exact 2x2 determinant, no LU roundoff
            out[k] = sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
        else:
            out[k] = float(np.linalg.det(sub))
        k += 1
    return out


def laminate_candidates(f, xi, dims, *, seed, count, radius, special_points,
                        grad_cap=None):
    """Yield (M_plus, M_minus, theta, ess) batches of two-value periodic
    fields centered at xi.  Special-point pairs through xi come first with
    exact values, at most ``count`` of them; then seeded rank-one batches."""
    N, n = dims
    xi = np.asarray(xi, dtype=float)
    bp, bm, bt = [], [], []
    for A, B in _special_pairs(special_points, rank_one=True):
        if len(bp) >= count:
            break
        diff = (A - B).ravel()
        nrm2 = float(diff @ diff)
        theta = float((xi - B).ravel() @ diff / nrm2)
        if not 1e-9 < theta < 1.0 - 1e-9:
            continue
        if np.max(np.abs(theta * A + (1.0 - theta) * B - xi)) > 1e-12 * (1 + np.max(np.abs(xi))):
            continue
        if grad_cap is not None and max(theta, 1.0 - theta) * math.sqrt(nrm2) > grad_cap:
            continue
        bp.append(A)
        bm.append(B)
        bt.append(theta)
    if bp:
        yield np.array(bp), np.array(bm), np.array(bt)

    halton_seed = seed
    done = len(bp)
    block = 4096
    while done < count:
        m = min(block, count - done)
        H = _halton(N + n + 2, m, halton_seed)
        halton_seed += 1
        a = 2.0 * H[:, :N] - 1.0
        nu = 2.0 * H[:, N:N + n] - 1.0
        na = np.linalg.norm(a, axis=1)
        nn = np.linalg.norm(nu, axis=1)
        ok = (na > 1e-8) & (nn > 1e-8)
        a, nu = a[ok] / na[ok, None], nu[ok] / nn[ok, None]
        t = (H[:, -2][ok] * 2.0 + 1e-3) * radius
        theta = 0.05 + 0.9 * H[:, -1][ok]
        w = t[:, None, None] * (a[:, :, None] * nu[:, None, :])
        Mp = xi[None] + (1.0 - theta)[:, None, None] * w
        Mm = xi[None] - theta[:, None, None] * w
        if grad_cap is not None:
            wn = np.linalg.norm(w.reshape(len(w), -1), axis=1)
            keep = np.maximum(1.0 - theta, theta) * wn <= grad_cap
            Mp, Mm, theta = Mp[keep], Mm[keep], theta[keep]
            if len(Mp) == 0:
                done += 1
                continue
        done += len(Mp)
        yield Mp, Mm, theta


def interpolate(f: SampledFunction, xi) -> float:
    """Multilinear interpolation among the 2^d surrounding nodes.

    Outside the box the outside_mode applies: +inf sentinel, or evaluation at
    the clamped coordinates.
    """
    x = np.asarray(xi, dtype=float).reshape(-1)
    g = f.grid
    if x.size != g.ndim:
        raise ValueError("query point has wrong dimension")
    R = g.radius
    if np.any(np.abs(x) > R):
        if f.outside_mode == MODE_PLUS_INFINITY:
            return math.inf
        x = np.clip(x, -R, R)
    h = g.spacing
    pos = (x + R) / h
    i0 = np.minimum(np.floor(pos).astype(int), g.points_per_axis - 2)
    frac = pos - i0
    val = 0.0
    for corner in range(2 ** g.ndim):
        w = 1.0
        idx = []
        for d in range(g.ndim):
            bit = (corner >> d) & 1
            idx.append(i0[d] + bit)
            w *= frac[d] if bit else (1.0 - frac[d])
        if w != 0.0:
            val += w * float(f.values[tuple(idx)])
    return val


def _two_slope_value(fs, a, b, xi, m, G, p, scale):
    """Best k-cells-at-a / rest-at-b / one-adjustment-cell profile, or None.

    The floor k is always kept: its c is a convex combination of a and b."""
    if not (min(a, b) - 1e-12 <= xi <= max(a, b) + 1e-12):
        return None
    if a == b:
        theta = 1.0
    else:
        theta = (b - xi) / (b - a)
    best = None
    for j, k in enumerate(sorted({int(np.floor(theta * m)), int(np.ceil(theta * m))})):
        k = min(max(k, 0), m - 1)
        c = m * xi - k * a - (m - k - 1) * b
        if j and abs(c) > G + 1e-12:
            continue
        fa, fb, fc = (float(fs(np.array([a]))[0]), float(fs(np.array([b]))[0]),
                      float(fs(np.array([c]))[0]))
        if min(fa, fb, fc) < 0:
            raise ValueError("f must be nonnegative on the explored slope range")
        mean_p = (k * (fa / scale) ** p + (m - k - 1) * (fb / scale) ** p
                  + (fc / scale) ** p) / m
        val = scale * mean_p ** (1.0 / p)
        if best is None or val < best[0]:
            best = (val, k, c)
    return best


def _hull_support_slopes(fs, xi, G, p, scale):
    """Endpoints of the convex-envelope supporting segment of f^p at xi,
    from the fine-grid hull of ``lower_hull_1d`` above."""
    x = np.linspace(-G, G, ORACLE_POINTS)
    v = (_nonnegative(fs(x)) / scale) ** p
    hull = lower_hull_1d(x, v)
    on_hull = np.abs(v - hull) <= 1e-12 * (1.0 + np.abs(v))
    left = np.flatnonzero(on_hull & (x <= xi))
    right = np.flatnonzero(on_hull & (x >= xi))
    a = float(x[left[-1]]) if len(left) else float(xi)
    b = float(x[right[0]]) if len(right) else float(xi)
    return a, b


def minimize_Fp(f, p: float, xi: float, opts: FeOptions | None = None) -> FeMinimizeResult:
    """Minimize (sum_i h f^p(g_i))^{1/p} over slopes g with mean(g) = xi.

    Slopes are confined to [-slope_bound, slope_bound], and f is read at
    their clip to that box.  Requires p >= 1 and f nonnegative on the box.
    If no polish walk shrinks its step below 1e-9 the result is still
    returned, flagged converged=False.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    opts = opts or FeOptions()
    fs = _scalar_eval(f, opts.slope_bound)
    m, G = opts.cells, opts.slope_bound
    h = 1.0 / m
    if abs(xi) > G:
        raise ValueError("boundary slope lies outside the slope box")

    S = np.linspace(-G, G, opts.scan_points)
    S = np.unique(np.append(S, xi))
    vals = fs(S)
    if np.any(vals < 0):
        raise ValueError("f must be nonnegative on the explored slope range")
    scale = max(float(vals.max()), float(fs(np.array([xi]))[0]), 1e-300)

    iterations = 0
    length_factor = (h * m) ** (1.0 / p)
    # constant profile is always feasible
    best_val = _objective(fs, np.full(m, xi), p, h, scale)
    best_profile = ("pair", xi, xi, m - 1, xi)

    # two-slope scan with adjustment cell; keep several starts for the polish
    starts = [(best_val, xi, xi)]
    lo = S[S <= xi]
    hi = S[S >= xi]
    for a in lo:
        for b in hi:
            iterations += 1
            got = _two_slope_value(fs, float(a), float(b), xi, m, G, p, scale)
            if got is not None:
                val = got[0] * length_factor
                starts.append((val, float(a), float(b)))
                if val < best_val:
                    best_val = val
                    best_profile = ("pair", float(a), float(b), got[1], got[2])
    starts.sort(key=lambda t: t[0])
    polish_starts = [(a, b) for _, a, b in starts[:8]]
    # the envelope's supporting segment of f^p at xi is the continuum optimum
    polish_starts.append(_hull_support_slopes(fs, xi, G, p, scale))

    # pattern-search polish of the two slopes, from every start
    converged = False
    base_step = float(S[1] - S[0]) if len(S) > 1 else 0.1
    for a0, b0 in polish_starts:
        a, b = a0, b0
        cur = None
        got = _two_slope_value(fs, a, b, xi, m, G, p, scale)
        if got is not None:
            cur = got[0] * length_factor
            if cur < best_val:
                best_val = cur
                best_profile = ("pair", a, b, got[1], got[2])
        step = base_step
        for _ in range(POLISH_ROUNDS):
            improved = False
            for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step),
                           (step, step), (-step, -step)):
                na = min(max(a + da, -G), G)
                nb = min(max(b + db, -G), G)
                if na > xi or nb < xi:
                    continue
                got = _two_slope_value(fs, na, nb, xi, m, G, p, scale)
                iterations += 1
                if got is not None:
                    val = got[0] * length_factor
                    if cur is None or val < cur - TOL * scale:
                        cur, a, b = val, na, nb
                        improved = True
                        if val < best_val:
                            best_val = val
                            best_profile = ("pair", a, b, got[1], got[2])
            if not improved:
                step *= 0.5
                if step < 1e-9:
                    converged = True
                    break

    g_best = _profile_to_slopes(best_profile, m)
    # exact mean projection, then the reported value matches the profile
    g_best = g_best + (xi - g_best.mean())
    best_val = _objective(fs, g_best, p, h, scale)
    return FeMinimizeResult(p=float(p), min_value=best_val,
                            gradient_per_cell=g_best, iterations=iterations,
                            converged=converged, target_mean=xi)


def pasch_hausdorff(f: SampledFunction, lam: float) -> SampledFunction:
    """f_lam(x) = min over grid nodes y of max(f(y), lam |x - y|), one block
    of rows of the dense distance matrix at a time."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    g = f.grid
    coords = g.node_coords()
    flat = f.values.ravel()
    out = np.empty_like(flat)
    # rows of at most 4M difference floats (32 MB); rows are independent, so
    # the block size cannot move the output
    chunk = max(1, 4_000_000 // coords.size)
    for lo in range(0, len(flat), chunk):
        hi = min(lo + chunk, len(flat))
        diff = coords[lo:hi, None, :] - coords[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        out[lo:hi] = np.min(np.maximum(flat[None, :], lam * dist), axis=1)
    return f.with_values(out.reshape(g.shape))


def save_csv(f: SampledFunction, csv_path, sidecar_path=None) -> None:
    """One row per node (row-major): axis_0,...,axis_{d-1},value; grid in a JSON sidecar."""
    csv_path = Path(csv_path)
    sidecar = Path(sidecar_path) if sidecar_path else _sidecar_path(csv_path)
    coords = f.grid.node_coords()
    vals = f.values.ravel()
    d = f.grid.ndim
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"axis_{k}" for k in range(d)] + ["value"])
        for row, v in zip(coords, vals):
            writer.writerow([repr(float(c)) for c in row] + [repr(float(v))])
    meta = {
        "dims": list(f.grid.dims),
        "radius": f.grid.radius,
        "points_per_axis": f.grid.points_per_axis,
        "outside_mode": f.outside_mode,
    }
    write_json(meta, sidecar)


def search_weak_morrey_violation(f, xi, dims, *, tol=1e-9, budget=20_000,
                                 seed=DEFAULT_SEED, radius=2.0,
                                 special_points=()) -> Verdict:
    """Minimize the essential supremum of f(xi + D phi) over zero-boundary fields.

    Families searched: exact two-slope zigzags when n = 1 (every mean-zero
    two-slope profile is realizable with zero boundary there), and laminates
    cut off by the boundary-distance pyramid for n >= 2 (the cutoff layer's
    gradients join the supremum, as two-gradient rigidity demands).
    """
    N, n = dims
    xi = np.asarray(xi, dtype=float).reshape(dims)
    f_xi = float(f(xi))
    used = 0
    best = np.inf
    best_witness = None

    for Mp, Mm, theta in _two_gradient_candidates(xi, dims, seed=seed,
                                                  count=budget, radius=radius,
                                                  special_points=special_points):
        used += len(Mp)
        ess = np.maximum(f(Mp), f(Mm))
        if n >= 2:
            extras = _cutoff_values(xi, Mp, Mm, theta)
            ess = np.maximum(ess, f(extras).max(axis=1))
        # an undefined ess sup (NaN) cannot be a witness; it must not hide one
        ess = np.where(np.isnan(ess), np.inf, ess)
        i = int(np.argmin(ess))
        if ess[i] < best:
            best = float(ess[i])
            values = [Mp[i], Mm[i]]
            kind = "two-gradient-field"
            if n >= 2:
                values += list(extras[i])
                kind = "cutoff-field"
            best_witness = _field_witness(kind, xi, f_xi, values, best,
                                          theta=float(theta[i]))
        if best < f_xi - tol:
            return Verdict("weak_morrey", VIOLATED, best_witness, used, tol, seed)
    return Verdict("weak_morrey", HOLDS, None, used, tol, seed)


def check_periodic_weak_morrey(f, xi, dims, *, tol=1e-9, budget=20_000,
                               seed=DEFAULT_SEED, radius=2.0,
                               special_points=()) -> Verdict:
    """Violated iff a periodic sawtooth achieves ess-sup f(xi + D phi) below
    f(xi) - tol.  The sawtooth realizes a simple laminate: xi + D phi takes
    the rank-one connected values M+ and M- on volume fractions theta and
    1 - theta, in layers normal to M+ - M- (the cube is rotated to that
    normal); the witness records both values and theta.  Compressing layers
    changes nothing here because the gradient statistics are scale-invariant."""
    notion = "periodic_weak_morrey"
    xi = np.asarray(xi, dtype=float).reshape(dims)
    f_xi = float(f(xi))
    used = 0
    for Mp, Mm, theta in _two_gradient_candidates(xi, dims, seed=seed,
                                                  count=budget, radius=radius,
                                                  special_points=special_points):
        used += len(Mp)
        ess = np.maximum(f(Mp), f(Mm))
        # an undefined ess sup (NaN) cannot be a witness; it must not hide one
        ess = np.where(np.isnan(ess), np.inf, ess)
        i = int(np.argmin(ess))
        if ess[i] < f_xi - tol:
            witness = _field_witness("two-gradient-field", xi, f_xi,
                                     [Mp[i], Mm[i]], float(ess[i]),
                                     theta=float(theta[i]))
            return Verdict(notion, VIOLATED, witness, used, tol, seed)
    return Verdict(notion, HOLDS, None, used, tol, seed)


def search_strong_morrey_violation(f, xi, dims, *,
                                   delta_schedule=DEFAULT_DELTA_SCHEDULE,
                                   tol=1e-9, budget=20_000, seed=DEFAULT_SEED,
                                   radius=2.0, special_points=()) -> Verdict:
    """Look for a gap below f(xi) that persists as the boundary budget
    delta shrinks.

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
    used = 0

    # laminate family: delta-independent gap
    lam_gap = -np.inf
    lam_best = None
    lam_budget = budget // 2
    for Mp, Mm, theta in _two_gradient_candidates(xi, dims, seed=seed,
                                                  count=lam_budget, radius=radius,
                                                  special_points=special_points):
        used += len(Mp)
        ess = np.maximum(f(Mp), f(Mm))
        ess = np.where(np.isnan(ess), np.inf, ess)
        i = int(np.argmin(ess))
        if f_xi - ess[i] > lam_gap:
            lam_gap = f_xi - float(ess[i])
            lam_best = (Mp[i], Mm[i], float(theta[i]))

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
        m0 = 2.0 * delta / math.sqrt(n)
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
            Mp, Mm, theta = lam_best
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


def segment_batches(dims, *, seed, budget, radius, special_points=(),
                    rank_one=False, block=4096):
    """Yield (xi, eta, lam) batches; total triple count stops at budget.

    The deterministic battery of special-point pairs (times the lambda grid)
    comes first, then Halton pair blocks, each pair probed at the lambda grid
    plus one seeded-random lambda.
    """
    N, n = dims
    d = N * n
    used = 0
    battery = list(_special_pairs(special_points, rank_one))
    if battery:
        xi = np.array([a for a, _ in battery])
        eta = np.array([b for _, b in battery])
        for lam in LAMBDA_GRID:
            take = min(len(xi), budget - used)
            if take <= 0:
                return
            yield xi[:take], eta[:take], np.full(take, lam)
            used += take

    # exhaustive coarse-grid pairs when the budget affords them
    if not rank_one:
        coarse = np.linspace(-radius, radius, 5)
        grids = np.meshgrid(*([coarse] * d), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1).reshape(-1, N, n)
        n_pairs = len(nodes) * (len(nodes) - 1) // 2
        if n_pairs * len(LAMBDA_GRID) <= budget - used:
            ii, jj = np.triu_indices(len(nodes), k=1)
            for lam in LAMBDA_GRID:
                take = min(len(ii), budget - used)
                if take <= 0:
                    return
                yield nodes[ii[:take]], nodes[jj[:take]], np.full(take, lam)
                used += take

    rng = np.random.default_rng(seed)
    halton_seed = seed
    while used < budget:
        m = min(block, max(1, (budget - used) // (len(LAMBDA_GRID) + 1)))
        if rank_one:
            H = _halton(d + N + n + 1, m, halton_seed)
            xi = (2.0 * H[:, :d] - 1.0) * radius
            a = 2.0 * H[:, d:d + N] - 1.0
            nu = 2.0 * H[:, d + N:d + N + n] - 1.0
            t = (2.0 * H[:, -1] - 1.0) * 2.0 * radius
            na = np.linalg.norm(a, axis=1)
            nn = np.linalg.norm(nu, axis=1)
            ok = (na > 1e-8) & (nn > 1e-8) & (np.abs(t) > 1e-8)
            xi, a, nu, t = xi[ok], a[ok], nu[ok], t[ok]
            if len(xi) == 0:
                halton_seed += 1
                continue
            w = (a / na[ok, None])[:, :, None] * (nu / nn[ok, None])[:, None, :]
            xi = xi.reshape(-1, N, n)
            eta = xi + t[:, None, None] * w
        else:
            H = _halton(2 * d, m, halton_seed)
            xi = ((2.0 * H[:, :d] - 1.0) * radius).reshape(-1, N, n)
            eta = ((2.0 * H[:, d:] - 1.0) * radius).reshape(-1, N, n)
        halton_seed += 1
        lams = list(LAMBDA_GRID) + [float(rng.uniform(0.05, 0.95))]
        for lam in lams:
            take = min(len(xi), budget - used)
            if take <= 0:
                return
            yield xi[:take], eta[:take], np.full(take, lam)
            used += take


def two_atom_measures(dims, *, seed, count, radius=2.0, special_points=()):
    atoms, weights = [], []
    for xi, eta, lam in segment_batches(dims, seed=seed, budget=count,
                                        radius=radius,
                                        special_points=special_points,
                                        rank_one=False):
        for x, e, l in zip(xi, eta, lam):
            atoms.append(np.stack([x, e]))
            weights.append([float(l), float(1.0 - l)])
    return (np.array(atoms).reshape(-1, 2, *dims),
            np.array(weights).reshape(-1, 2))


def run_segment_checker(notion, f, dims, *, tol, budget, seed, radius,
                        special_points, rank_one) -> Verdict:
    """The per-weight segment run.  When min(N, n) = 1 every matrix
    difference has rank one, so a rank-one run draws the level-convexity
    stream."""
    rank_one = rank_one and min(dims) >= 2
    used = 0
    for xi, eta, lam in segment_batches(dims, seed=seed, budget=budget,
                                        radius=radius,
                                        special_points=special_points,
                                        rank_one=rank_one):
        used += len(xi)
        mid = lam[:, None, None] * xi + (1.0 - lam[:, None, None]) * eta
        i, gap = _worst_gap(f(mid), np.maximum(f(xi), f(eta)))
        if gap > tol:
            witness = _segment_witness(xi[i], eta[i], float(lam[i]), f)
            return Verdict(notion, VIOLATED, witness, used, tol, seed)
    return Verdict(notion, HOLDS, None, used, tol, seed)


def supremal_jensen_gaps(f, atoms, weights) -> np.ndarray:
    """The gap f(barycenter) - ess sup over the support of each measure,
    row by row: atoms[b] (M, N, n) and weights[b] (M,)."""
    gaps = []
    for row, ws in zip(atoms, weights):
        bary = sum(w * m for m, w in zip(row, ws))
        sup = _ess_sup([f(m) for m, w in zip(row, ws) if w > 0])
        gaps.append(float(f(bary)) - sup)
    return np.array(gaps)


def _random_rank_one(rng, count, N, n, scale):
    a = rng.normal(size=(count, N))
    nu = rng.normal(size=(count, n))
    a /= np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    nu /= np.maximum(np.linalg.norm(nu, axis=1, keepdims=True), 1e-12)
    t = rng.uniform(0.1, 1.0, size=count) * scale
    return t[:, None, None] * a[:, :, None] * nu[:, None, :]


def _tree_atoms_batch(bar, order, rng, scale):
    """Vectorized full binary rank-one splitting trees around given
    barycenters: (B,N,n) -> atoms (B,2^order,N,n), weights (B,2^order).
    Each level splits node j into atoms j and j + M (M the nodes of that
    level), so the two children of a node sit half a row apart."""
    B, N, n = bar.shape
    pts = bar[:, None]
    wts = np.ones((B, 1))
    for _ in range(order):
        M = pts.shape[1]
        w = _random_rank_one(rng, B * M, N, n, scale).reshape(B, M, N, n)
        theta = rng.uniform(0.15, 0.85, size=(B, M))
        left = pts + (1.0 - theta)[..., None, None] * w
        right = pts - theta[..., None, None] * w
        pts = np.concatenate([left, right], axis=1)
        wts = np.concatenate([wts * theta, wts * (1.0 - theta)], axis=1)
    return pts, wts


def halton(dim, count, seed):
    """The first ``count`` points of scipy's scrambled Halton sequence of ``seed``."""
    return qmc.Halton(d=dim, scramble=True, seed=seed).random(count)


def check_curl_young_on_laminates(f, dims, *, tol=1e-9, budget=20_000,
                                  seed=DEFAULT_SEED, radius=2.0,
                                  special_points=()) -> Verdict:
    """The per-weight rank-one segment run, special pairs included, its
    witness segment written out as the two-atom measure: atom xi of weight
    lam, atom eta of weight 1 - lam, f at their barycenter against the
    larger endpoint value."""
    v = run_segment_checker("curl_young_laminates", f, dims, tol=tol, budget=budget,
                            seed=seed, radius=radius, special_points=special_points,
                            rank_one=True)
    if v.violated:
        seg = v.witness
        xi, eta, lam = np.array(seg["xi"]), np.array(seg["eta"]), seg["lam"]
        v.witness = _measure_witness(np.stack([xi, eta]), np.array([lam, 1.0 - lam]),
                                     seg["f_mid"], max(seg["f_xi"], seg["f_eta"]))
    return v


def best_field(f, xi, f_xi, dims, *, tol, stop, cutoff=False, **stream):
    """The two-gradient field of ``_two_gradient_candidates(xi, dims,
    **stream)`` with the least essential supremum of f over its gradient
    values (with ``cutoff``, also over the cutoff layer's).

    A NaN or -inf ess sup counts as +inf; the first strict minimum is kept.  With
    ``stop`` the search ends after the first batch whose minimum undercuts
    ``f_xi`` by a finite gap above tol.  Returns (samples, least ess sup, its
    gradient values, its theta); the values are None when no ess sup is
    below +inf.
    """
    used, best, best_values, best_theta = 0, np.inf, None, None
    for Mp, Mm, theta in _two_gradient_candidates(xi, dims, **stream):
        used += len(Mp)
        ess = np.maximum(f(Mp), f(Mm))
        if cutoff:
            extras = _cutoff_values(xi, Mp, Mm, theta)
            ess = np.maximum(ess, f(extras).max(axis=1))
        # a NaN or -inf ess sup gives no finite gap; it must not hide one
        ess = np.where(np.isfinite(ess), ess, np.inf)
        i = int(np.argmin(ess))
        if ess[i] < best:
            best = float(ess[i])
            best_values = [Mp[i], Mm[i]] + (list(extras[i]) if cutoff else [])
            best_theta = float(theta[i])
        if stop and _backs_violation(f_xi - best, tol):
            break
    return used, best, best_values, best_theta
