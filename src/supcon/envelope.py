"""Envelope operators on sampled functions.

Five operators, all pointwise infima over the grid:

* ``convex_envelope`` -- greatest convex minorant of the grid samples over the
  box (the exact lower hull of the lifted point set).
* ``level_convex_lsc_envelope`` -- at each node, the smallest sampled
  threshold t such that the node lies in the convex hull of the sublevel
  nodes; its sublevel sets are convex by construction.  In d >= 2 one Qhull
  hull serves all nodes until a later node may join the sublevel set: a
  threshold whose new nodes lie strictly inside the last hull is skipped,
  one that keeps every later node 1e-6 outside a separating plane builds no
  hull, and degenerate sublevel sets reject queries more than 1e-6 off their
  affine hull before any LP.
* ``pasch_hausdorff`` -- the sup-norm Lipschitz regularization
  ``f_lam(x) = min_y max(f(y), lam |x - y|)``, taken over index offsets in
  order of length and stopped once no farther node can lower a value.
* ``lamination_hull`` -- fixpoint of one-dimensional convexification sweeps
  along rank-one grid lines; an upper bracket for the quasiconvexification,
  squeezed between the convex envelope and f.  The disjoint lines of one
  direction are convexified together by a batched monotone chain.
* ``power_law_envelope`` -- the bracket family ``(E(f^p))^{1/p}`` for an
  increasing schedule of exponents, whose pointwise limit estimates the
  power-law (sup-of-roots) envelope.

The batched d >= 2 paths reproduce the plain per-line and per-threshold
loops, and the offset search the dense all-pairs minimum, bit for bit
(``tests/oracles.py`` keeps those loops as references).  scipy takes about a
second to import, so ``ConvexHull`` and ``linprog`` import it on first call:
the 1-d operators, ``pasch_hausdorff`` and ``lamination_hull`` never do.

Domain truncation is the central compromise: envelopes are computed on the
box only.  For samples extended by ``plus-infinity`` the result is the exact
envelope of the box-restricted function.  For bounded samples extended
constantly (``clamp-to-boundary``) a convex minorant of the *extension* is
bounded above on all of R^d and hence constant, so the power-law convex lower
bracket collapses to the global minimum; ``power_law_envelope`` honors this
(otherwise the box hull would not be a lower bound at all), records it as a
caveat, and ``convex_envelope`` itself always returns the box-restricted
hull.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .funcspace import MODE_CLAMP, SampledFunction, _check_real, save_csv, write_json

__all__ = [
    "convex_envelope",
    "level_convex_lsc_envelope",
    "pasch_hausdorff",
    "lamination_hull",
    "power_law_envelope",
    "PowerLawReport",
    "PowerLawOverflowError",
    "lower_hull_1d",
    "rank_one_grid_directions",
]

MODE_CONVEX_LOWER = "convex-lower"
MODE_LAMINATION_UPPER = "lamination-upper"
#: The lamination hull's rank-one directions have integer components in
#: [-DIRECTION_SPAN, DIRECTION_SPAN]; it stops after MAX_SWEEPS sweeps or
#: once a sweep moves no value by more than SWEEP_TOL.
DIRECTION_SPAN = 2
MAX_SWEEPS = 64
SWEEP_TOL = 1e-7
GAP_TOL = 0.1  # a power-law limit this far below f somewhere is a gap


def ConvexHull(*args, **kwargs):
    from scipy.spatial import ConvexHull
    return ConvexHull(*args, **kwargs)


def linprog(*args, **kwargs):
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


class PowerLawOverflowError(RuntimeError):
    """Raised when the sampled values span too many orders of magnitude for
    max-normalized powers to be meaningful."""


# ---------------------------------------------------------------------------
# 1-d kernel: monotone-chain lower hull, exact on the grid
# ---------------------------------------------------------------------------

def lower_hull_1d(positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of (positions, values), sampled back at positions.

    Positions must be strictly increasing.  O(m) monotone chain; collinear
    points are dropped so the hull is minimal, but the returned values are
    unaffected.  The chain runs on Python floats: indexing numpy scalars in
    the loop costs about 4x more, and the float ops are the same IEEE double
    ops in the same order, so the hull is bit-identical.
    """
    x = np.asarray(positions, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(x) <= 2:
        return v.copy()
    hx: list[float] = []
    hv: list[float] = []
    for px, pv in zip(x.tolist(), v.tolist()):
        # pop the top when it lies on or above the chord from the one below
        # it to the new point
        while len(hx) >= 2 and ((hx[-1] - hx[-2]) * (pv - hv[-2])
                                - (px - hx[-2]) * (hv[-1] - hv[-2]) <= 0.0):
            hx.pop()
            hv.pop()
        hx.append(px)
        hv.append(pv)
    return np.interp(x, hx, hv)


# ---------------------------------------------------------------------------
# convex envelope on the box
# ---------------------------------------------------------------------------

def _envelope_values_nd(coords: np.ndarray, values: np.ndarray) -> np.ndarray:
    if np.ptp(values) == 0.0:
        return values.copy()
    # affine samples are their own envelope; they also make qhull degenerate
    A = np.hstack([coords, np.ones((len(coords), 1))])
    sol, *_ = np.linalg.lstsq(A, values, rcond=None)
    if np.max(np.abs(A @ sol - values)) <= 1e-12 * max(1.0, np.max(np.abs(values))):
        return values.copy()
    # past the affine return the lifted set is full-dimensional, so Qhull
    # succeeds and lower facets exist; a failure is a fault, not a case
    from scipy.spatial import QhullError
    lifted = np.hstack([coords, values[:, None]])
    hull = None
    for opts in ("Qt", "QJ"):
        try:
            hull = ConvexHull(lifted, qhull_options=opts)
            break
        except QhullError as exc:
            error = exc
    if hull is None:
        raise RuntimeError(f"convex envelope: Qhull failed with Qt and QJ: {error}")
    eq = hull.equations  # rows: normal | offset, normal . z + offset <= 0
    lower = eq[eq[:, -2] < -1e-12]
    if len(lower) == 0:
        raise RuntimeError("convex envelope: the lifted hull has no lower facets")
    # facet plane: y = (normal_space . x + offset) / (-normal_last);
    # the envelope is the max over the lower facets, accumulated in chunks
    # of 4M floats (32 MB) in one buffer so the nodes-by-facets product never
    # materializes at once; the max is exact, but the BLAS product's rounding
    # depends on the block width, so another chunk size moves values by ulps
    est = np.full(len(coords), -np.inf)
    chunk = max(1, 4_000_000 // max(1, len(coords)))
    buf = np.empty((len(coords), min(chunk, len(lower))))
    for lo in range(0, len(lower), chunk):
        block = lower[lo:lo + chunk]
        vals = np.matmul(coords, block[:, :-2].T, out=buf[:, :len(block)])
        vals += block[:, -1]
        vals /= -block[:, -2]
        np.maximum(est, vals.max(axis=1), out=est)
    return np.minimum(est, values)


def convex_envelope(f: SampledFunction) -> SampledFunction:
    """Greatest convex minorant of the grid samples over the box.

    The result is below f pointwise and convex along every grid segment.
    One-dimensional grids use the exact monotone chain; higher dimensions
    the lower facets of the lifted hull.
    """
    g = f.grid
    flat = f.values.ravel()
    if g.ndim == 1:
        env = lower_hull_1d(g.axis(), flat)
    else:
        env = _envelope_values_nd(g.node_coords(), flat)
    return f.with_values(env.reshape(g.shape))


# ---------------------------------------------------------------------------
# level-convex lsc envelope
# ---------------------------------------------------------------------------

def _facet_distances(eq: np.ndarray, queries: np.ndarray) -> np.ndarray:
    dist = queries @ eq[:, :-1].T
    dist += eq[:, -1]
    return dist


def _inside_facets(eq: np.ndarray, queries: np.ndarray,
                   tol: float) -> np.ndarray:
    return np.all(_facet_distances(eq, queries) <= tol, axis=1)


def _points_in_flat_hull(points: np.ndarray,
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


def _points_in_hull(points: np.ndarray, queries: np.ndarray):
    """Which queries lie in conv(points), to 1e-9.

    Returns the boolean mask; when the hull is full-dimensional, the facet
    equations (rows: normal | offset, normal . z + offset <= 0 inside), the
    vertex points and the queries-by-facets distances, else None; and the
    number of LPs run."""
    if len(points) == 1:
        return np.linalg.norm(queries - points[0], axis=1) <= 1e-9, None, 0
    if len(points) > points.shape[1]:
        from scipy.spatial import QhullError
        try:
            hull = ConvexHull(points)
        except QhullError:  # flat point set: take the affine-hull path
            pass
        else:
            dist = _facet_distances(hull.equations, queries)
            return (np.all(dist <= 1e-9, axis=1),
                    (hull.equations, points[hull.vertices], dist), 0)
    inside, lps = _points_in_flat_hull(points, queries)
    return inside, None, lps


def level_convex_lsc_envelope(f: SampledFunction, full_output: bool = False):
    """Smallest-threshold sublevel-hull envelope.

    At each node the result is the smallest sampled value t such that the
    node lies in the convex hull of the nodes with value <= t.  Thresholds
    are the sorted distinct sampled values; no continuous search.

    On grids of dimension >= 2 a threshold costs at most one Qhull build,
    whose facet distances serve the membership test of the unassigned nodes
    and the certificates of the thresholds after it.  A threshold whose new
    nodes lie strictly inside the last full-dimensional hull (all facet
    distances <= -1e-9) is skipped: the polytope is unchanged.  Otherwise
    it is certified, and builds no hull, when every later unassigned node
    lies more than 1e-6 outside the grown sublevel hull by one of two
    separators: its witness facet (its farthest facet at the last build),
    pushed out to the farthest node joined since that build, or the
    direction from the last hull's vertex centroid to the node.  Only the
    new nodes are then assigned (their own value) and kept as pending: the
    next build takes the last hull's vertices and the pending and new nodes,
    which span the whole sublevel hull.  Sublevel sets with at most d points
    or of lower affine rank have no full-dimensional hull; there the queries
    more than 1e-6 off the affine hull are rejected outright and only the
    rest get an LP feasibility solve.  With ``full_output=True`` the return
    value is ``(result, info)`` with the counts ``hull_builds``,
    ``hull_points`` (the points given to those builds), ``thresholds_skipped``,
    ``thresholds_certified`` and ``lp_queries``.
    """
    g = f.grid
    flat = f.values.ravel()
    order = np.argsort(flat, kind="stable")
    svals = flat[order]
    info = {"hull_builds": 0, "hull_points": 0, "thresholds_skipped": 0,
            "thresholds_certified": 0, "lp_queries": 0}
    if g.ndim == 1:
        pos = g.axis()
        spos = pos[order]
        prefix_min = np.minimum.accumulate(spos)
        prefix_max = np.maximum.accumulate(spos)
        # first prefix index covering x from the left / right; both monotone
        k_max = np.searchsorted(prefix_max, pos, side="left")
        k_min = np.searchsorted(-prefix_min, -pos, side="left")
        k = np.maximum(k_max, k_min)
        out = svals[np.minimum(k, len(svals) - 1)]
    else:
        coords = g.node_coords()
        out = flat.copy()
        assigned = np.zeros(len(flat), dtype=bool)
        row = np.empty(len(flat), dtype=np.intp)
        hull = None  # the last full-dimensional sublevel hull, see _points_in_hull
        for t in np.unique(svals):
            todo = ~assigned
            if not todo.any():
                break
            at_t = flat == t
            new = coords[at_t]
            if hull is not None:
                eq, verts, dist = hull
                if _inside_facets(eq, new, -1e-9).all():
                    info["thresholds_skipped"] += 1
                    continue
                pending.append(new)
                # push the facets past the joined nodes, then keep the later
                # nodes that neither separator certifies
                joined = row[at_t & measured]
                np.maximum(push, dist[joined].max(axis=0, initial=-np.inf), out=push)
                later = np.flatnonzero(todo & ~at_t)
                w = witness[row[later]]
                later = later[dist[row[later], w] - push[w] <= 1e-6]
                if later.size:
                    u = coords[later] - centre
                    reach = ((np.vstack([verts, *pending]) - centre) @ u.T).max(axis=0)
                    later = later[(u * u).sum(axis=1) - reach
                                  <= 1e-6 * np.linalg.norm(u, axis=1)]
                if not later.size:
                    assigned |= at_t
                    info["thresholds_certified"] += 1
                    continue
            pts = coords[flat <= t] if hull is None else np.vstack([verts, *pending])
            hull = dist = None  # free the last distances before the next ones
            inside, hull, lps = _points_in_hull(pts, coords[todo])
            info["lp_queries"] += lps
            idx = np.flatnonzero(todo)[inside]
            out[idx] = t
            assigned[idx] = True
            if hull is not None:
                info["hull_builds"] += 1
                info["hull_points"] += len(pts)
                # rows of facet distances for the nodes unassigned before
                # this build, their witness facets, and the pushes (the nodes
                # assigned earlier lie within 1e-9 of this hull)
                measured, pending = todo, []
                row[todo] = np.arange(todo.sum())
                witness = hull[2].argmax(axis=1)
                push = np.full(len(hull[0]), 1e-9)
                centre = hull[1].mean(axis=0)
    result = f.with_values(np.minimum(out, flat).reshape(g.shape))
    if full_output:
        return result, info
    return result


# ---------------------------------------------------------------------------
# Pasch-Hausdorff (sup-norm Lipschitz regularization)
# ---------------------------------------------------------------------------

def _offsets_by_length(d: int, cap: int,
                       radius: float) -> tuple[np.ndarray, np.ndarray]:
    """One of each pair of integer offsets +-o in Z^d with every |o_k| <= cap
    and 0 < |o| <= radius (the one whose first nonzero entry is positive),
    in stable order of |o|, and their squared lengths.

    Built one axis at a time, dropping the partial offsets already outside
    the ball, so the cube (2 cap + 1)^d never materializes."""
    r = int(min(cap, radius))
    span = np.arange(-r, r + 1)
    offsets = np.zeros((1, 0), dtype=np.intp)
    norm2 = np.zeros(1, dtype=np.intp)
    for _ in range(d):
        offsets = np.hstack([np.repeat(offsets, len(span), axis=0),
                             np.tile(span, len(offsets))[:, None]])
        norm2 = np.repeat(norm2, len(span)) + np.tile(span * span, len(norm2))
        keep = norm2 <= radius * radius
        offsets, norm2 = offsets[keep], norm2[keep]
    lead = offsets[np.arange(len(offsets)), np.argmax(offsets != 0, axis=1)]
    offsets, norm2 = offsets[lead > 0], norm2[lead > 0]
    order = np.argsort(norm2, kind="stable")
    return offsets[order], norm2[order]


def pasch_hausdorff(f: SampledFunction, lam: float) -> SampledFunction:
    """f_lam(x) = min over grid nodes y of max(f(y), lam |x - y|).

    The result is lam-Lipschitz (Euclidean distance, sup combination),
    increases pointwise with lam, and recovers f from below as lam grows --
    for nonnegative samples.  The max against the distance term truncates at
    zero from below, so in general f_lam <= max(f, 0) and the transform is a
    minorant of f only where f >= 0; shift negative samples first if the
    minorant property matters.

    The minimum runs over the index offsets o = x - y, starting from the zero
    offset max(f, 0) and visiting the others in order of their nominal
    length h |o|, each pair +-o as one min/max over shifted slices of the
    grid.  Every value at offset o is at least max(min f, lam h |o|) (less a
    relative 1e-9 for the rounding of the coordinates); once that reaches
    the largest current value, no farther node can lower any value and the
    search stops.  Distances are summed from the node coordinates exactly as
    a dense distance matrix sums them, so the result is the minimum over all
    node pairs, bit for bit.
    """
    _check_real("lam", lam, 0.0)
    g = f.grid
    P, d = g.points_per_axis, g.ndim
    ax = g.axis()
    vals = f.values
    out = np.maximum(vals, 0.0)  # the zero offset: max(f(x), lam * 0)
    unit = lam * g.spacing * (1.0 - 1e-9)  # lam |x - y| >= unit |o|
    fmin = vals.min()
    offsets, norm2 = _offsets_by_length(d, P - 1, out.max() / unit)
    # squared coordinate differences at axis offset k, shaped for axis a
    kmax = int(np.abs(offsets).max(initial=0))
    diffs = [ax[k:] - ax[:P - k] for k in range(kmax + 1)]
    sq = [[(df * df).reshape((-1,) + (1,) * (d - 1 - a)) for df in diffs]
          for a in range(d)]
    shell = 0
    for o, n2 in zip(offsets.tolist(), norm2.tolist()):
        if n2 != shell:
            shell = n2
            if max(fmin, unit * np.sqrt(n2)) >= out.max():
                break
        xs = tuple(slice(k, P) if k >= 0 else slice(0, P + k) for k in o)
        ys = tuple(slice(0, P - k) if k >= 0 else slice(-k, P) for k in o)
        terms = np.broadcast_arrays(*(sq[a][abs(k)] for a, k in enumerate(o)))
        lam_dist = lam * np.sqrt(np.sum(np.stack(terms, axis=-1), axis=-1))
        for x, y in ((xs, ys), (ys, xs)):
            view = out[x]
            np.minimum(view, np.maximum(vals[y], lam_dist), out=view)
    return f.with_values(out)


# ---------------------------------------------------------------------------
# lamination hull (rank-one line sweeps)
# ---------------------------------------------------------------------------

def _primitive_vectors(k: int) -> list[tuple[int, ...]]:
    out = set()
    for vec in itertools.product(range(-DIRECTION_SPAN, DIRECTION_SPAN + 1), repeat=k):
        v = np.array(vec, dtype=int)
        if not v.any():
            continue
        g = np.gcd.reduce(np.abs(v[v != 0]))
        v = v // g
        if v[np.flatnonzero(v)[0]] < 0:  # the first nonzero entry is positive
            v = -v
        out.add(tuple(int(x) for x in v))
    return sorted(out)


def rank_one_grid_directions(dims: tuple[int, int]) -> np.ndarray:
    """Integer rank-one directions a (x) nu, components in +-DIRECTION_SPAN,
    deduplicated up to scaling.  Shape (K, N*n)."""
    N, n = dims
    # a dict keeps the first of equal outer products, in order
    dirs = dict.fromkeys(tuple(int(x) for x in np.outer(a, nu).ravel())
                         for a in _primitive_vectors(N) for nu in _primitive_vectors(n))
    return np.array(list(dirs), dtype=int)


def _direction_lines(shape: tuple[int, ...], step: np.ndarray) -> list[np.ndarray]:
    """The maximal grid lines with index step ``step`` and at least three
    nodes, as flat-index arrays stacked by line length, one (L, m) array per
    length m."""
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
    # need at least 3 points for a nontrivial hull
    return [flat_starts[caps == cap][:, None] + flat_step * np.arange(cap + 1)
            for cap in np.unique(caps[caps >= 2])]


def _lower_hull_lines(v: np.ndarray) -> np.ndarray:
    """``lower_hull_1d`` at positions 0..m-1 applied to every row of an
    (L, m) array at once.

    One monotone chain runs over all rows, popping only in the rows whose
    pop test holds; the test and the interpolation use the same float ops
    as the 1-d kernel and ``np.interp`` (hull vertices copied, the rest
    ``slope * (x - x_j) + v_j``), so every row matches it bit for bit.
    """
    L, m = v.shape
    pos = np.arange(m)
    x = pos.astype(float)
    rows = np.arange(L)
    stack = np.empty((L, m), dtype=np.intp)
    top = np.zeros(L, dtype=np.intp)  # stack height per row
    for i in range(m):
        live = rows[top >= 2]
        while live.size:
            j = stack[live, top[live] - 2]
            k = stack[live, top[live] - 1]
            vj = v[live, j]
            # pop k when it lies on or above chord (j, i)
            pop = (x[k] - x[j]) * (v[live, i] - vj) - (x[i] - x[j]) * (v[live, k] - vj) <= 0.0
            live = live[pop]
            top[live] -= 1
            live = live[top[live] >= 2]
        stack[rows, top] = i
        top += 1
    vertex = np.zeros((L, m), dtype=bool)
    vertex[np.repeat(rows, top), stack[pos < top[:, None]]] = True
    # bracketing vertices of every node (the end nodes are always vertices)
    left = np.maximum.accumulate(np.where(vertex, pos, 0), axis=1)
    right = np.minimum.accumulate(np.where(vertex, pos, m - 1)[:, ::-1], axis=1)[:, ::-1]
    r, c = np.nonzero(~vertex)
    lo = left[r, c]
    hi = right[r, c]
    vlo = v[r, lo]
    slope = (v[r, hi] - vlo) / (x[hi] - x[lo])
    out = v.copy()
    out[r, c] = slope * (x[c] - x[lo]) + vlo
    return out


def lamination_hull(f: SampledFunction, full_output: bool = False):
    """Fixpoint of 1-d convexification along every rank-one grid line.

    Each sweep replaces the values along every line in every direction of
    ``rank_one_grid_directions`` by their 1-d convex envelope.  Stops when a
    full sweep changes nothing by more than ``SWEEP_TOL``, or after
    ``MAX_SWEEPS`` (the last iterate is then returned with
    ``converged=False`` in the info dict).

    The directions are swept one after another (Gauss-Seidel).  Within one
    direction the lines are disjoint, so all lines of equal length are
    stacked and convexified by one batched monotone chain; the values equal
    those of ``lower_hull_1d`` applied line by line, bit for bit.
    """
    g = f.grid
    vals = f.values.ravel().copy()
    dirs = rank_one_grid_directions(g.dims)
    lines = [_direction_lines(g.shape, d) for d in dirs]
    sweeps = 0
    converged = False
    for sweeps in range(1, MAX_SWEEPS + 1):
        delta = 0.0
        for dir_lines in lines:
            for block in dir_lines:
                old = vals[block]
                new = _lower_hull_lines(old)
                delta = max(delta, float(np.max(old - new)))
                vals[block] = new
        if delta <= SWEEP_TOL:
            converged = True
            break
    result = f.with_values(vals.reshape(g.shape))
    if full_output:
        return result, {"sweeps": sweeps, "converged": converged}
    return result


# ---------------------------------------------------------------------------
# power-law bracket family
# ---------------------------------------------------------------------------

@dataclass
class PowerLawReport:
    """The family (E(f^p))^{1/p} for an increasing p schedule.

    ``per_p`` is pointwise nondecreasing in p (up to 1e-7; the worst breach,
    if any, is recorded in ``monotone_violation`` as (p, node, gap)) and the
    last member, ``limit_estimate``, never exceeds f.
    """

    mode: str
    p_schedule: tuple[float, ...]
    per_p: list[SampledFunction]
    limit_estimate: SampledFunction
    shift: float
    caveats: tuple[str, ...] = ()
    monotone_violation: tuple[float, int, float] | None = None
    sup_gap_to_f: float = 0.0

    def gap_detected(self) -> bool:
        """Whether the limit estimate falls more than ``GAP_TOL`` below f
        somewhere, the signature of a supremand that is not a power-law
        limit of its own quasiconvexified powers."""
        return self.sup_gap_to_f > GAP_TOL

    def save(self, outdir, basename: str = "powerlaw") -> dict:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        refs = []
        for p, sf in zip(self.p_schedule, self.per_p):
            ref = f"{basename}_p{p:g}.csv"
            save_csv(sf, outdir / ref)
            refs.append(ref)
        limit_ref = f"{basename}_limit.csv"
        save_csv(self.limit_estimate, outdir / limit_ref)
        doc = {
            "mode": self.mode,
            "p_schedule": list(self.p_schedule),
            "shift": self.shift,
            "caveats": list(self.caveats),
            "per_p": refs,
            "limit": limit_ref,
            "monotone_violation": (list(self.monotone_violation)
                                   if self.monotone_violation else None),
            "sup_gap_to_f": self.sup_gap_to_f,
            "gap_detected": self.gap_detected(),
        }
        write_json(doc, outdir / f"{basename}.json")
        return doc


def power_law_envelope(f: SampledFunction, p_schedule,
                       mode: str = MODE_CONVEX_LOWER) -> PowerLawReport:
    """Compute (E(f^p))^{1/p} for each p with E the convex envelope
    (``convex-lower``) or the lamination hull (``lamination-upper``).

    Negative samples are first shifted up by their minimum (recorded and
    undone afterwards; sup-norm envelopes commute with constant shifts).
    Powers are taken after max-normalization, which is exact by positive
    homogeneity of both envelope operators.
    """
    ps = tuple(float(_check_real("p_schedule", p, 1.0)) for p in p_schedule)
    if not ps or not all(a < b for a, b in zip(ps, ps[1:])):
        raise ValueError(f"p_schedule must be nonempty and increasing, got {list(ps)}")
    if mode not in (MODE_CONVEX_LOWER, MODE_LAMINATION_UPPER):
        raise ValueError(f"unknown mode {mode!r}")

    caveats = []
    vals = f.values.ravel()
    shift = max(0.0, -float(vals.min()))
    if shift > 0.0:
        caveats.append(f"values shifted up by {shift!r} before taking powers")
    work = vals + shift
    M = float(work.max())
    if M > 0.0:
        positive = work[work > 0.0]
        if positive.size and M / float(positive.min()) > 1e12:
            raise PowerLawOverflowError(
                "sampled values span more than 1e12 dynamic range")

    clamp_collapse = (mode == MODE_CONVEX_LOWER and f.outside_mode == MODE_CLAMP)
    if clamp_collapse:
        caveats.append(
            "clamp-to-boundary extension is globally bounded, so its convex "
            "lower bracket is the constant global minimum")
    elif f.outside_mode == MODE_CLAMP:
        caveats.append("box-restricted upper bracket of a bounded function")
    else:
        caveats.append(
            "box truncation: envelope of the restricted function "
            "over-estimates the global one near the boundary")

    g_norm = work / M if M > 0.0 else np.zeros_like(work)

    # The d >= 2 hull works at absolute precision, and the 1/p root amplifies
    # absolute errors on exponentially small powered values without bound, so
    # exponents that push the positive powered range past the reliable window
    # are dropped (the 1-d monotone chain is selection-based and immune).
    if (mode == MODE_CONVEX_LOWER and not clamp_collapse
            and f.grid.ndim >= 2 and M > 0.0):
        positive = g_norm[g_norm > 0.0]
        gmin = float(positive.min()) if positive.size else 1.0
        if gmin < 1.0:
            keep = tuple(p for p in ps if gmin ** p >= 1e-12)
            if not keep:
                raise PowerLawOverflowError(
                    "every scheduled exponent drives the powered values past "
                    "the reliable dynamic range of the multi-d hull")
            if keep != ps:
                caveats.append(
                    f"exponents beyond p={keep[-1]:g} dropped: powered values "
                    "would exceed the reliable dynamic range of the multi-d hull")
                ps = keep

    per_p = []
    for p in ps:
        gp = g_norm ** p
        if clamp_collapse:
            env = np.full_like(gp, float(gp.min()))
        elif mode == MODE_CONVEX_LOWER:
            env = convex_envelope(f.with_values(gp.reshape(f.grid.shape))).values.ravel()
        else:
            env = lamination_hull(f.with_values(gp.reshape(f.grid.shape))).values.ravel()
        est = M * np.power(np.maximum(env, 0.0), 1.0 / p) - shift
        per_p.append(f.with_values(est.reshape(f.grid.shape)))

    violation = None
    worst = 1e-7
    for (pa, fa), (pb, fb) in zip(zip(ps, per_p), zip(ps[1:], per_p[1:])):
        drop = fa.values.ravel() - fb.values.ravel()
        node = int(np.argmax(drop))
        if drop[node] > worst:
            worst = float(drop[node])
            violation = (pb, node, worst)

    sup_gap = float(np.max(vals - per_p[-1].values.ravel()))
    return PowerLawReport(
        mode=mode, p_schedule=ps, per_p=per_p, limit_estimate=per_p[-1],
        shift=shift, caveats=tuple(caveats), monotone_violation=violation,
        sup_gap_to_f=sup_gap,
    )
