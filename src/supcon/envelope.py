"""Envelope operators on sampled functions.

Five operators, all pointwise infima over the grid:

* ``convex_envelope`` -- greatest convex minorant of the grid samples over the
  box (the exact lower hull of the lifted point set).  In d >= 2 Qhull builds
  that hull first without facet merging (``Qt Q0``), about a third of the
  merged build's cost; the build is kept only if every ridge is certified
  convex, and otherwise the merged ``Qt`` build, then ``QJ``, serves.
* ``level_convex_lsc_envelope`` -- at each node, the smallest sampled
  threshold t such that the node lies in the convex hull of the sublevel
  nodes; its sublevel sets are convex by construction.  In d >= 2 one Qhull
  hull serves all nodes until a later node may join the sublevel set: a
  threshold whose new nodes lie strictly inside the last hull is skipped,
  one that keeps every later node 1e-6 outside a separating plane builds no
  hull, and a flat sublevel set rejects queries more than 1e-6 off its
  affine hull and tests the rest in that hull's SVD basis (an interval or a
  Qhull hull of lower dimension, no LP).
* ``pasch_hausdorff`` -- the sup-norm Lipschitz regularization
  ``f_lam(x) = min_y max(f(y), lam |x - y|)``, taken over index offsets in
  order of length and stopped once no farther node can lower a value.
* ``lamination_hull`` -- fixpoint of one-dimensional convexification sweeps
  along rank-one grid lines; an upper bracket for the quasiconvexification,
  squeezed between the convex envelope and f.  Each sweep lowers every node
  to its least chord value (short lines) or 1-d hull value (long lines), all
  lines of one length at once, and the loop stops after a sweep that lowers
  none.  A 1-d grid is one line: there the hull is the convex envelope.
* ``power_law_envelope`` -- the bracket family ``(E(f^p))^{1/p}`` for an
  increasing schedule of exponents, whose pointwise limit estimates the
  power-law (sup-of-roots) envelope.

The batched lsc path reproduces the plain per-threshold loop, and the
offset search the dense all-pairs minimum, bit for bit; the lamination hull
reaches the fixpoint of the plain per-line loop by another update order,
so it matches that loop to rounding (``tests/oracles.py`` keeps those loops
as references).  scipy takes about a second to import, so ``ConvexHull``
imports ``scipy.spatial`` on first call: the 1-d operators,
``pasch_hausdorff`` and ``lamination_hull`` never do, and no operator
imports ``scipy.optimize``.

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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .funcspace import (MODE_CLAMP, SampledFunction, _check_real, _check_schedule,
                        _memory_cap_bytes, save_csv, write_json)

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
#: [-DIRECTION_SPAN, DIRECTION_SPAN].  Its lines of up to CHORD_NODES nodes
#: take the chord kernel, longer ones the monotone chain.  MAX_SWEEPS is a
#: safety cap only.  The corpus grids stop within 70 sweeps; where sweeps
#: approach a fixpoint value of 0 geometrically, the exact stop waits until
#: the values underflow to 0, about 1,250 sweeps on some small grids.
DIRECTION_SPAN = 2
CHORD_NODES = 7
MAX_SWEEPS = 10_000
GAP_TOL = 0.1  # a power-law limit this far below f somewhere is a gap


def ConvexHull(*args, **kwargs):
    from scipy.spatial import ConvexHull
    return ConvexHull(*args, **kwargs)


# No operator solves an LP.  The wrapper stays for its two readers: the
# tracer binding of ``perfbench/tracer.py`` and the per-node LP oracle of the
# convex envelope tests.
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

def _locally_convex(hull, tol: float) -> bool:
    """Whether every ridge of a simplicial hull is convex: for each facet and
    each neighbour, the neighbour's vertex opposite their shared ridge lies
    within ``tol`` on the facet's inner side.  A closed surface that is
    locally convex at every ridge bounds a convex body (Tietze)."""
    eq, nb, simplices = hull.equations, hull.neighbors, hull.simplices
    own = np.arange(len(nb))[:, None]
    for k in range(nb.shape[1]):
        j = nb[:, k]
        far = simplices[j, np.argmax(nb[j] == own, axis=1)]
        if np.any(np.einsum("ij,ij->i", hull.points[far], eq[:, :-1]) + eq[:, -1] > tol):
            return False
    return True


def _envelope_values_nd(coords: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The lifted nodes' lower hull at the nodes: a vertex of a lower facet
    lies on it and keeps its value; every other node takes the largest lower
    plane ``y = [x, 1] . (normal_space | offset) / (-normal_last)``, capped.

    The hull is Qhull's unmerged build (``Qt Q0``) when it is locally convex
    at every ridge to 1e-12 of the sample scale: a closed, locally convex
    surface is the hull, so its lower facets give the envelope as the merged
    ones do.  A ``Q0`` build that raises (a concave ridge or a flipped facet)
    or fails that certificate gives way to the merged ``Qt`` build, then to
    ``QJ``."""
    if np.ptp(values) == 0.0:
        return values.copy()
    # affine samples are their own envelope; they also make qhull degenerate
    A = np.hstack([coords, np.ones((len(coords), 1))])
    sol, *_ = np.linalg.lstsq(A, values, rcond=None)
    tol = 1e-12 * max(1.0, np.max(np.abs(values)))
    if np.max(np.abs(A @ sol - values)) <= tol:
        return values.copy()
    # past the affine return the lifted set is full-dimensional, so Qhull
    # succeeds and lower facets exist; a failure is a fault, not a case
    from scipy.spatial import QhullError
    lifted = np.hstack([coords, values[:, None]])
    for opts in ("Qt Q0", "Qt", "QJ"):
        try:
            hull = ConvexHull(lifted, qhull_options=opts)
        except QhullError as exc:
            error = exc
            continue
        if opts != "Qt Q0" or _locally_convex(hull, tol):
            break
    else:
        raise RuntimeError(f"convex envelope: Qhull failed with Qt Q0, Qt and QJ: {error}")
    eq = hull.equations  # rows: normal | offset, normal . z + offset <= 0
    low = eq[:, -2] < -1e-12
    if not low.any():
        raise RuntimeError("convex envelope: the lifted hull has no lower facets")
    planes = np.delete(eq[low], -2, axis=1) / -eq[low, -2:-1]
    rest = np.ones(len(coords), dtype=bool)
    rest[hull.simplices[low]] = False
    x1 = A[rest]
    # the max over the lower planes, accumulated in chunks of 4M floats
    # (32 MB) in one buffer so the nodes-by-facets product never
    # materializes at once; the max is exact, but the BLAS product's rounding
    # depends on the block width, so another chunk size moves values by ulps
    est = np.full(len(x1), -np.inf)
    chunk = max(1, 4_000_000 // max(1, len(x1)))
    buf = np.empty((len(x1), min(chunk, len(planes))))
    for lo in range(0, len(planes), chunk):
        block = planes[lo:lo + chunk]
        vals = np.matmul(x1, block.T, out=buf[:, :len(block)])
        np.maximum(est, vals.max(axis=1), out=est)
    out = values.copy()
    out[rest] = np.minimum(est, values[rest])
    return out


def convex_envelope(f: SampledFunction) -> SampledFunction:
    """Greatest convex minorant of the grid samples over the box.

    The result is below f pointwise and convex along every grid segment.
    One-dimensional grids use the exact monotone chain; higher dimensions
    the lower facets of the lifted hull: a node that is a vertex of a lower
    facet keeps its value, and every other node takes the largest lower
    facet plane there.
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
    if len(queries) * len(eq) * 8 > _memory_cap_bytes():
        raise MemoryError(f"distances of {len(queries)} queries to {len(eq)} facets "
                          "exceed SUPCON_MEM_CAP_MB")
    dist = queries @ eq[:, :-1].T
    dist += eq[:, -1]
    return dist


def _inside_facets(eq: np.ndarray, queries: np.ndarray,
                   tol: float) -> np.ndarray:
    return np.all(_facet_distances(eq, queries) <= tol, axis=1)


def _points_in_hull(points: np.ndarray, queries: np.ndarray):
    """Which queries lie in conv(points), to 1e-9.

    The affine rank of the points, read off their SVD, picks the test.  At
    rank d one Qhull hull serves, and the second return value is its facet
    equations (rows: normal | offset, normal . z + offset <= 0 inside), its
    vertex points and the queries-by-facets distances.  At a lower rank it
    is None: the points are taken in the SVD basis of their affine hull,
    where they are full-dimensional, queries more than 1e-6 off that hull
    are rejected, and the rest are tested against an interval (rank 1) or
    one Qhull hull in R^rank."""
    if len(points) == 1:
        return np.linalg.norm(queries - points[0], axis=1) <= 1e-9, None
    centre = points.mean(axis=0)
    u, s, vt = np.linalg.svd(points - centre, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(points.shape) * np.finfo(float).eps))
    if rank == points.shape[1]:
        hull = ConvexHull(points)
        dist = _facet_distances(hull.equations, queries)
        return np.all(dist <= 1e-9, axis=1), (hull.equations, points[hull.vertices], dist)
    flat = u[:, :rank] * s[:rank]
    rel = queries - centre
    low = rel @ vt[:rank].T
    near = np.linalg.norm(rel - low @ vt[:rank], axis=1) <= 1e-6
    if rank == 1:
        inside = (low[:, 0] >= flat.min() - 1e-9) & (low[:, 0] <= flat.max() + 1e-9)
    else:
        inside = _inside_facets(ConvexHull(flat).equations, low, 1e-9)
    return near & inside, None


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
    which span the whole sublevel hull.  A sublevel set of affine rank below
    d has no full-dimensional hull: ``_points_in_hull`` tests it in the SVD
    basis of its affine hull, with no LP.  With ``full_output=True`` the
    return value is ``(result, info)`` with the counts ``hull_builds``
    (full-dimensional hulls), ``hull_points`` (the points given to those
    builds), ``thresholds_skipped`` and ``thresholds_certified``.
    """
    g = f.grid
    flat = f.values.ravel()
    order = np.argsort(flat, kind="stable")
    svals = flat[order]
    info = {"hull_builds": 0, "hull_points": 0, "thresholds_skipped": 0,
            "thresholds_certified": 0}
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
            inside, hull = _points_in_hull(pts, coords[todo])
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


def _line_groups(g) -> list[tuple]:
    """The rank-one lines of at least three nodes of every direction, one
    ``(propose, nodes, starts)`` group per line length m, in order of m.

    ``propose(vals)`` gives the values the lines propose at their interior
    nodes, sorted by node; ``nodes`` are those nodes and ``starts`` where
    each node's run begins.  Lines of m <= CHORD_NODES nodes propose
    ``w_j*v_j + w_k*v_k`` at i for every triple j < i < k, with
    ``w_j = (k - i) / (k - j)`` and ``w_k = (i - j) / (k - j)``; longer
    lines propose their monotone-chain 1-d hull.  The proposals are counted
    from the line lengths before any table is built; at 64 bytes each (32
    held, as much again to build or sweep) they must fit under
    ``SUPCON_MEM_CAP_MB``, or ``MemoryError`` is raised.
    """
    by_length: dict[int, list[np.ndarray]] = {}
    for step in rank_one_grid_directions(g.dims):
        for block in _direction_lines(g.shape, step):
            by_length.setdefault(block.shape[1], []).append(block)
    proposals = sum(sum(map(len, blocks)) * (math.comb(m, 3) if m <= CHORD_NODES else m - 2)
                    for m, blocks in by_length.items())
    if proposals * 64 > _memory_cap_bytes():
        raise MemoryError(f"rank-one line tables of {proposals} proposals exceed "
                          "SUPCON_MEM_CAP_MB")
    groups = []
    for m in sorted(by_length):
        table = np.concatenate(by_length[m])
        if m <= CHORD_NODES:
            j, i, k = np.array(list(itertools.combinations(range(m), 3))).T
        else:
            i = np.arange(1, m - 1)
        at = table[:, i].ravel()
        order = np.argsort(at, kind="stable")
        nodes, starts = np.unique(at[order], return_index=True)
        if m <= CHORD_NODES:
            tj, tk = (table[:, c].ravel()[order] for c in (j, k))
            wj, wk = (np.tile(w / (k - j), len(table))[order] for w in (k - i, i - j))
            propose = lambda v, tj=tj, tk=tk, wj=wj, wk=wk: v[tj] * wj + v[tk] * wk
        else:
            propose = lambda v, table=table, order=order: (
                _lower_hull_lines(v[table])[:, 1:-1].ravel()[order])
        groups.append((propose, nodes, starts))
    return groups


def lamination_hull(f: SampledFunction, full_output: bool = False):
    """Fixpoint of 1-d convexification along every rank-one grid line.

    A sweep visits the line groups of ``_line_groups`` in order of length
    and lowers every node whose least proposal (a chord value or a 1-d hull
    value) is below its value.  Values only fall, through finitely many
    floats, and the loop stops after the first sweep that lowers none
    (``converged=True`` in the info dict).  On lines of at most
    ``CHORD_NODES`` nodes that stop certifies that no node lies above any
    chord of its rank-one lines, by the same float formula.  Every step
    commutes with scaling by a power of two, so the hull does, bit for bit,
    short of underflow and overflow.  ``MAX_SWEEPS`` is a safety cap;
    reaching it returns the last iterate with ``converged=False``.  A 1-d
    grid is one line, whose hull is its convex envelope: one chain pass.
    """
    g, flat = f.grid, f.values.ravel()
    vals, sweeps, converged = ((lower_hull_1d(g.axis(), flat), 1, True) if g.ndim == 1
                               else _lamination_fixpoint(flat, _line_groups(g)))
    result = f.with_values(vals.reshape(g.shape))
    if full_output:
        return result, {"sweeps": sweeps, "converged": converged}
    return result


def _lamination_fixpoint(values: np.ndarray, groups: list[tuple]):
    """The sweeps of ``lamination_hull`` on a copy of the flat ``values``,
    over the line groups of ``_line_groups``: ``(vals, sweeps, converged)``."""
    vals = values.copy()
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        lowered = False
        for propose, nodes, starts in groups:
            new = np.minimum.reduceat(propose(vals), starts)
            lower = new < vals[nodes]
            if lower.any():
                vals[nodes[lower]] = new[lower]
                lowered = True
        if not lowered:
            return vals, sweeps, True
    return vals, sweeps, False


# ---------------------------------------------------------------------------
# power-law bracket family
# ---------------------------------------------------------------------------

@dataclass
class PowerLawReport:
    """The family (E(f^p))^{1/p} for an increasing p schedule.

    ``per_p`` is pointwise nondecreasing in p (up to 1e-7 of the range of
    the samples; the worst breach, if any, is recorded in
    ``monotone_violation`` as (p, node, gap)) and the last member,
    ``limit_estimate``, never exceeds f.
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
    ps = _check_schedule(p_schedule)
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

    # the rank-one lines depend on the grid only: one set serves every p; a
    # 1-d grid is one line, whose lamination hull is its convex envelope
    lines = mode == MODE_LAMINATION_UPPER and f.grid.ndim >= 2
    groups = _line_groups(f.grid) if lines else None
    per_p = []
    for p in ps:
        gp = g_norm ** p
        if clamp_collapse:
            env = np.full_like(gp, float(gp.min()))
        elif not lines:
            env = convex_envelope(f.with_values(gp.reshape(f.grid.shape))).values.ravel()
        else:
            env = _lamination_fixpoint(gp, groups)[0]
        est = M * np.power(np.maximum(env, 0.0), 1.0 / p) - shift
        per_p.append(f.with_values(est.reshape(f.grid.shape)))

    violation = None
    worst = 1e-7 * M  # of the sample range, so it scales with f
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
