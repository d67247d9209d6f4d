"""The laminate checker and the test-field searches built on laminates.

A laminate is a probability measure on matrices produced by recursive
rank-one splitting; it is the computable subclass of homogeneous gradient
Young measures.  Laminates live here as arrays: the atoms and weights of a
simple laminate, and the two gradient values and volume fraction of each
two-gradient test field.  Three checkers use them:

* the measure-side inequality ``f(barycenter) <= ess-sup over atoms`` on
  finite laminates (a necessary condition for the Young-measure
  quasiconvexity notions), which simple laminates decide,
* the periodic small-oscillation inequality, disproved by realizing a simple
  laminate as a periodic sawtooth field (built in the cube adapted to the
  lamination normal when that normal is not axis-aligned), and
* the small-boundary (strong Morrey) inequality, disproved when a gap
  persists as delta shrinks: scaled sawtooths keep their gradient statistics
  (and so a finite slope bound) while their boundary values decay like
  1/layers, and small affine probes expose lower-semicontinuity failures.

The first is the classify module's rank-one segment run, its witness
relabelled; that module's field scorer scores the sawtooth candidates of
the last two.  The searches only ever report a violation with a replayable
witness; a clean pass means nothing more than "no counterexample within
budget"."""

from __future__ import annotations

import math

import numpy as np

from .classify import (DEFAULT_DELTA_SCHEDULE, HOLDS, VIOLATED, Verdict,
                       _backs_violation, _best_field, _check_settings,
                       _field_search, _field_witness, _finite, _measure_witness,
                       _run_segment_checker)
from .funcspace import DEFAULT_SEED
# perfbench/tracer.py wraps this binding by name; --trace 1 fails without it
from .matspace import is_rank_one_connected  # noqa: F401

__all__ = [
    "check_curl_young_on_laminates",
    "check_periodic_weak_morrey",
    "search_strong_morrey_violation",
    "DEFAULT_DELTA_SCHEDULE",
]


def check_curl_young_on_laminates(f, dims, *, tol=1e-9, budget=20_000,
                                  seed=DEFAULT_SEED, radius=2.0,
                                  special_points=()) -> Verdict:
    """Violated iff some simple laminate has f(barycenter) > ess-sup of f
    over its two atoms (plus tol).

    That decides the inequality on finite laminates: if one of order k has
    f(barycenter) above the max over its atoms by g > 0, the values on the
    path to the larger child at each level fall by g over k steps, so some
    split is a rank-one segment with gap at least g/k.  Still no edge from
    rank-one to this notion in ``HIERARCHY_IMPLIES``, which holds only
    implications valid for every Borel supremand: infinite-order laminates,
    or their weak* closure, may need semicontinuity.

    So the checker is ``check_rank_one_qcx``'s run, special-pair battery
    included (in ``classify_report``, the very run it scored), with its
    witness segment relabelled as a two-atom measure.
    """
    v = _run_segment_checker("curl_young_laminates", f, dims, tol=tol, budget=budget,
                             seed=seed, radius=radius, special_points=special_points,
                             rank_one=True)
    if v.violated:
        w = v.witness
        v.witness = _measure_witness(np.array([w["xi"], w["eta"]]), [w["lam"], 1.0 - w["lam"]],
                                     w["f_mid"], max(w["f_xi"], w["f_eta"]))
    return v


# ---------------------------------------------------------------------------
# periodic-weak checker
# ---------------------------------------------------------------------------

def check_periodic_weak_morrey(f, xi, dims, *, tol=1e-9, budget=20_000,
                               seed=DEFAULT_SEED, radius=2.0,
                               special_points=()) -> Verdict:
    """Violated iff a periodic sawtooth achieves ess-sup f(xi + D phi) below
    f(xi) - tol.  The sawtooth realizes a simple laminate: xi + D phi takes
    the rank-one connected values M+ and M- on volume fractions theta and
    1 - theta, in layers normal to M+ - M- (the cube is rotated to that
    normal); the witness records both values and theta.  Compressing layers
    changes nothing here because the gradient statistics are scale-invariant."""
    return _field_search("periodic_weak_morrey", f, xi, dims, False, tol, budget, seed,
                         radius, special_points)


# ---------------------------------------------------------------------------
# strong Morrey search
# ---------------------------------------------------------------------------

def search_strong_morrey_violation(f, xi, dims, *, tol=1e-9, budget=20_000,
                                   seed=DEFAULT_SEED, radius=2.0,
                                   special_points=()) -> Verdict:
    """Look for a gap below f(xi) that persists as the boundary budget delta
    shrinks along ``DEFAULT_DELTA_SCHEDULE``, under any finite slope bound K.

    Two families: scaled sawtooth laminates (their gap is delta-independent,
    since compressing layers shrinks the boundary values but not the gradient
    statistics) and affine probes phi = eta x with |eta| shrinking along the
    schedule (these expose lower-semicontinuity failures; for a continuous
    supremand their gap decays with delta and is filtered out by the
    persistence rule: the gap at the smallest delta must be at least half the
    gap at the largest).
    """
    _check_settings(budget, tol, radius, seed)
    notion = "strong_morrey"
    N, n = dims
    xi = _finite("xi", xi).reshape(dims)
    f_xi = float(f(xi))
    deltas = DEFAULT_DELTA_SCHEDULE

    # laminate family: delta-independent gap
    used, lam_ess, lam_values, theta = _best_field(
        f, xi, f_xi, dims, tol=tol, stop=False, seed=seed, count=budget // 2,
        radius=radius, special_points=special_points)
    lam_gap = f_xi - lam_ess

    # affine family: probe magnitudes tied to each delta
    rng = np.random.default_rng(seed + 3)
    n_dirs = max(8, (budget - used) // max(1, 3 * len(deltas)))
    dirs = [np.asarray(p, dtype=float) - xi for p in special_points]
    dirs = [d for d in dirs if np.linalg.norm(d) > 1e-12]
    extra = rng.normal(size=(n_dirs, N, n))
    dirs += [e for e in extra]
    D = np.array([d / np.linalg.norm(d.ravel()) for d in dirs])
    # one row per delta: its three magnitudes' probes xi + mag * D, in one f call
    m0 = [2.0 * delta / math.sqrt(n) for delta in deltas]
    mags = np.array([(m, m / 2.0, m / 4.0) for m in m0])
    probes = (xi + mags[:, :, None, None, None] * D).reshape(len(deltas), -1, N, n)
    vals = f(probes.reshape(-1, N, n)).reshape(len(deltas), -1)
    vals = np.where(np.isfinite(vals), vals, np.inf)
    used += vals.size
    affine_gaps = [f_xi - v for v in vals.min(axis=1).tolist()]

    per_delta = [max(lam_gap, ag) for ag in affine_gaps]
    # a genuine lower-semicontinuity failure keeps its gap as delta shrinks;
    # the dents mere continuity produces decay linearly and are filtered here
    affine_persists = (_backs_violation(affine_gaps[-1], tol)
                       and affine_gaps[-1] >= 0.5 * max(affine_gaps))
    laminate_persists = _backs_violation(lam_gap, tol)

    if laminate_persists or affine_persists:
        rows = dict(per_delta=[{"delta": d, "gap": g}
                               for d, g in zip(deltas, per_delta)],
                    epsilon=min(per_delta) - tol)
        if laminate_persists and lam_gap >= affine_gaps[-1]:
            Mp, Mm = lam_values
            w = Mp - Mm
            c = theta * (1.0 - theta) * float(np.linalg.norm(w.ravel()))
            layers = [max(1, math.ceil(c / d)) for d in deltas]
            witness = _field_witness(
                "two-gradient-field", xi, f_xi, [Mp, Mm], lam_ess, theta=theta,
                family="scaled-periodic-laminate", layers_per_delta=layers,
                **rows)
        else:
            i = int(np.argmin(vals[-1]))
            witness = _field_witness("affine-field", xi, f_xi, [probes[-1, i]],
                                     float(vals[-1, i]),
                                     family="affine-probe", **rows)
        return Verdict(notion, VIOLATED, witness, used, tol, seed)
    return Verdict(notion, HOLDS, None, used, tol, seed)
