"""The three workloads: their ops, the inputs made from the seed, and the
oracle each op's output is checked against.

An op is one ``supcon`` CLI command, run in-process through
``supcon.cli.main``, or one library call.  ``BUILDERS[workload](supcon,
seed, tmp)`` makes the workload's inputs under ``tmp`` and returns its ops in
the order one pass runs them.  Each op's ``check`` receives what
its ``run`` returned, reads the written outputs back with its own CSV/JSON
parsing, and returns ``(problems, record)``: the oracle violations found
(empty when the op passed) and the deterministic outputs that go into the
workload's fingerprint (verdict outcomes, samples used, witness gaps,
envelope values, FE minima).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: The whole corpus at the seed commit; fixed here so a new entry does not
#: silently change the workload.
CORPUS = ("W_sup", "abs", "arctan_det", "chi_det", "chi_det_open", "clamp1d",
          "double_well_1d", "exampleD", "exampleD_scalar", "half_space_chi",
          "one_minus_chi_pair")
ENVELOPE_KINDS = ("convex", "lslc", "lamination", "pasch-hausdorff")
# (entry, boundary slope); the classification oracle is the curl_infinity flag
GAMMA_CASES = (("clamp1d", 1.0), ("exampleD_scalar", 0.5),
               ("double_well_1d", 0.0), ("abs", 1.0))
REPLAY_TOL = 1e-12
ORDER_TOL = 1e-9
FE_REL_TOL = 0.02
SLOPE_BOUND = 10.0  # FeOptions default; the gamma1d oracle box
ORACLE_POINTS = 2001  # FeOptions default


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list, object]]
    outdir: Path | None = None

    def reset(self) -> None:
        """Remove the previous execution's files, so a check never reads them."""
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)
            self.outdir.mkdir(parents=True)


def fingerprint(records) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()[:16]


def _read_grid_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(coords (M, d), values (M,)) of a CSV in the package's documented
    format: header ``axis_0,...,axis_{d-1},value``, one row per node."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[-1] != "value" or data.shape[1] != len(header):
        raise ValueError(f"{path}: unexpected CSV header {header}")
    return data[:, :-1], data[:, -1]


def _grid_coords(radius: float, points: int, ndim: int) -> np.ndarray:
    axis = np.linspace(-radius, radius, points)
    mesh = np.meshgrid(*([axis] * ndim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _run_cli(supcon, argv) -> tuple[int, str]:
    """``supcon.cli.main(argv)`` in-process, stdout captured.  ``main`` is
    looked up at every call, so a tracer's wrapper installed later is used."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = supcon.cli.main(list(argv))
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# hierarchy: classify the whole corpus
# ---------------------------------------------------------------------------

def _hierarchy(supcon, seed, tmp) -> list[Op]:
    ops = []
    for name in CORPUS:
        outdir = tmp / f"classify_{name}"
        argv = ["classify", "--corpus", name, "--budget", "100000",
                "--seed", str(seed), "--out", str(outdir)]
        ops.append(Op(f"classify {name}", lambda argv=argv: _run_cli(supcon, argv),
                      lambda res, name=name, outdir=outdir:
                      _check_classify(supcon, name, outdir, res),
                      outdir))
    return ops


def _check_classify(supcon, name, outdir, res):
    rc, _ = res
    if rc != 0:
        return [f"exit code {rc}"], None
    doc = json.loads((outdir / f"classify_{name}.json").read_text())
    entry = supcon.funcspace.corpus_entry(name)
    flags = entry.documented_properties
    problems = [f"inconsistency: {line}" for line in doc["inconsistencies"]]
    record = []
    for notion, v in sorted(doc["verdicts"].items()):
        violated = v["outcome"] == "violated"
        if notion in flags and flags[notion] == violated:
            problems.append(f"{notion}: {v['outcome']} against documented flag "
                            f"{flags[notion]}")
        gap = None
        if violated:
            w = v["witness"]
            gap = w["gap"]
            replayed = supcon.classify.replay_witness(entry, w)
            if not abs(replayed - gap) <= REPLAY_TOL:
                problems.append(f"{notion}: witness replays to {replayed!r}, "
                                f"reported gap {gap!r}")
            if not gap > v["tol"]:
                problems.append(f"{notion}: witness gap {gap!r} not above tol")
        record.append([notion, v["outcome"], v["budget"], gap])
    return problems, record


# ---------------------------------------------------------------------------
# envelopes2x2: the matrix-space operators and the CSV round trip
# ---------------------------------------------------------------------------

def _envelopes2x2(supcon, seed, tmp) -> list[Op]:
    fs = supcon.funcspace
    # seeded random-normal samples: the Qhull worst case; written with the
    # package's own writer and read back by the CLI through --input
    rng = np.random.default_rng(seed)
    grid = fs.GridSpec((2, 2), 2.0, 5)
    random_f = rng.standard_normal(grid.node_count)
    random_csv = tmp / "inputs" / "random_P5.csv"
    random_csv.parent.mkdir(parents=True, exist_ok=True)
    fs.save_csv(fs.SampledFunction(grid, random_f), random_csv)

    # (label, CLI source flags, node coordinates, f at the nodes, points per axis)
    inputs = []
    for name in ("arctan_det", "exampleD"):
        entry = fs.corpus_entry(name)
        coords = _grid_coords(2.0, 7, 4)
        inputs.append((name, ["--corpus", name, "--radius", "2", "--points", "7"],
                       coords, entry(coords.reshape(-1, 2, 2)), 7))
    inputs.append(("random_P5", ["--input", str(random_csv)], grid.node_coords(),
                   random_f, 5))

    convex = {}  # label -> values of the latest convex envelope of that input
    ops = []
    for label, source, coords, f, points in inputs:
        for kind in ENVELOPE_KINDS:
            outdir = tmp / f"envelope_{label}_{kind}"
            argv = ["envelope", *source, "--kind", kind, "--out", str(outdir)]
            ops.append(Op(
                f"envelope {label} {kind}", lambda argv=argv: _run_cli(supcon, argv),
                lambda res, label=label, kind=kind, outdir=outdir, coords=coords,
                f=f, points=points: _check_envelope(
                    label, kind, outdir / f"{label}_{kind}.csv", res, coords, f,
                    points, convex),
                outdir))
    for name, mode in (("exampleD", "convex-lower"), ("W_sup", "lamination-upper")):
        outdir = tmp / f"powerlaw_{name}"
        argv = ["powerlaw", "--corpus", name, "--points", "5", "--mode", mode,
                "--out", str(outdir)]
        ops.append(Op(f"powerlaw {name} {mode}", lambda argv=argv: _run_cli(supcon, argv),
                      lambda res, name=name, outdir=outdir:
                      _check_powerlaw(supcon, name, outdir, res),
                      outdir))
    return ops


def _check_envelope(label, kind, path, res, coords, f, points, convex):
    rc, _ = res
    if rc != 0:
        return [f"exit code {rc}"], None
    out_coords, vals = _read_grid_csv(path)
    if out_coords.shape != coords.shape or not np.allclose(out_coords, coords,
                                                            rtol=0, atol=1e-12):
        return ["output grid differs from the input grid"], None
    problems = []
    if kind == "pasch-hausdorff":
        # lam = 1 (the CLI default): 1-Lipschitz along every axis, and below
        # max(f, 0) because the distance term is nonnegative
        h = float(coords[1, -1] - coords[0, -1])
        cube = vals.reshape((points,) * coords.shape[1])
        steep = max(float(np.max(np.abs(np.diff(cube, axis=a))))
                    for a in range(cube.ndim))
        if steep > h + ORDER_TOL:
            problems.append(f"axis step {steep!r} exceeds lam*h = {h!r}")
        if np.any(vals > np.maximum(f, 0.0) + ORDER_TOL):
            problems.append("transform exceeds max(f, 0)")
    else:
        if np.any(vals > f + ORDER_TOL):
            problems.append(f"{kind} envelope exceeds f")
        if kind == "convex":
            convex[label] = vals
        elif label in convex and np.any(convex[label] > vals + ORDER_TOL):
            problems.append(f"convex envelope exceeds the {kind} envelope")
    return problems, [label, kind, _digest(vals)]


def _check_powerlaw(supcon, name, outdir, res):
    rc, _ = res
    if rc != 0:
        return [f"exit code {rc}"], None
    doc = json.loads((outdir / f"powerlaw_{name}.json").read_text())
    coords, limit = _read_grid_csv(outdir / doc["limit"])
    entry = supcon.funcspace.corpus_entry(name)
    f = entry(coords.reshape(-1, *entry.dims))
    problems = []
    if doc["monotone_violation"] is not None:
        problems.append(f"monotone violation {doc['monotone_violation']}")
    if np.any(limit > f + ORDER_TOL):
        problems.append("limit estimate exceeds f")
    digests = [_digest(_read_grid_csv(outdir / ref)[1]) for ref in doc["per_p"]]
    return problems, [name, doc["p_schedule"], doc["caveats"], doc["sup_gap_to_f"],
                      digests, _digest(limit)]


# ---------------------------------------------------------------------------
# scalar1d: the finite-element experiment, 1-d envelopes, interpolation
# ---------------------------------------------------------------------------

def _scalar1d(supcon, seed, tmp) -> list[Op]:
    fs = supcon.funcspace
    ops = []
    for name, xi in GAMMA_CASES:
        outdir = tmp / f"gamma1d_{name}"
        argv = ["gamma1d", "--corpus", name, "--xi", repr(xi), "--seed", str(seed),
                "--out", str(outdir)]
        ops.append(Op(f"gamma1d {name} xi={xi:g}", lambda argv=argv: _run_cli(supcon, argv),
                      lambda res, name=name, xi=xi, outdir=outdir:
                      _check_gamma(supcon, name, xi, outdir, res),
                      outdir))
    for name, radius, points in (("clamp1d", "10", "2001"),
                                 ("exampleD_scalar", "4", "801")):
        outdir = tmp / f"powerlaw_{name}"
        argv = ["powerlaw", "--corpus", name, "--radius", radius, "--points", points,
                "--mode", "convex-lower", "--out", str(outdir)]
        ops.append(Op(f"powerlaw {name} convex-lower", lambda argv=argv: _run_cli(supcon, argv),
                      lambda res, name=name, outdir=outdir:
                      _check_powerlaw(supcon, name, outdir, res),
                      outdir))

    well = fs.corpus_entry("double_well_1d")
    # interpolated convex envelope: level convex, so the check must hold and
    # spend its whole budget
    hull = supcon.envelope.convex_envelope(fs.sample(well, fs.GridSpec((1, 1), 3.0, 2001)))
    ops.append(_level_convex_op(supcon, "check_level_convex interpolated hull",
                                fs.interpolating_evaluator(hull), seed,
                                budget=20_000, expect="holds"))
    # the non-finite-gap repro: (-1, 1, 1/2) is a gap-1 witness inside the
    # sampled box, so the check must find a violation
    coarse = fs.sample(well, fs.GridSpec((1, 1), 1.0, 61))
    ops.append(_level_convex_op(supcon, "check_level_convex NaN repro",
                                fs.interpolating_evaluator(coarse), seed,
                                budget=2_000, expect="violated"))
    return ops


def _level_convex_op(supcon, label, ev, seed, *, budget, expect) -> Op:
    def run():
        return supcon.classify.check_level_convex(
            ev, (1, 1), tol=1e-6, budget=budget, seed=seed, radius=2.0)

    def check(v):
        problems = []
        gap = None
        if v.outcome != ("violated" if expect == "violated" else "holds-within-budget"):
            problems.append(f"expected {expect}, got {v.outcome}")
        if v.violated:
            gap = v.witness["gap"]
            replayed = supcon.classify.replay_witness(ev, v.witness)
            if not abs(replayed - gap) <= REPLAY_TOL:
                problems.append(f"witness replays to {replayed!r}, reported {gap!r}")
        elif v.budget < budget:
            problems.append(f"holds after {v.budget} of {budget} samples")
        return problems, [label, v.outcome, v.budget, gap]

    return Op(label, run, check)


def _envelope_oracle_1d(fvals: np.ndarray, x: np.ndarray, xi: float, p: float) -> float:
    """((f^p)**(xi))^{1/p}: the lower convex envelope of f^p at xi, by brute
    force over every chord (x_i <= xi <= x_j) of the sampled points."""
    scale = max(float(fvals.max()), 1e-300)
    g = (fvals / scale) ** p
    left, right = np.flatnonzero(x <= xi), np.flatnonzero(x >= xi)
    xl, xr = x[left][:, None], x[right][None, :]
    width = xr - xl
    w = np.divide(xr - xi, width, out=np.ones_like(width), where=width > 0)
    chords = w * g[left][:, None] + (1.0 - w) * g[right][None, :]
    return scale * float(chords.min()) ** (1.0 / p)


def _check_gamma(supcon, name, xi, outdir, res):
    rc, _ = res
    if rc != 0:
        return [f"exit code {rc}"], None
    doc = json.loads((outdir / f"gamma1d_{name}.json").read_text())
    entry = supcon.funcspace.corpus_entry(name)
    problems = []
    expected = ("consistent-with-curl-infty"
                if entry.documented_properties["curl_infinity"] else "gap-detected")
    if doc["classification"] != expected:
        problems.append(f"classified {doc['classification']}, curl_infinity "
                        f"flag says {expected}")
    x = np.linspace(-SLOPE_BOUND, SLOPE_BOUND, ORACLE_POINTS)
    fvals = entry(x[:, None, None])
    minima = []
    for row in doc["per_p"]:
        oracle = _envelope_oracle_1d(fvals, x, xi, row["p"])
        if abs(row["normalized"] - oracle) > FE_REL_TOL * abs(oracle) + 1e-12:
            problems.append(f"p={row['p']:g}: FE value {row['normalized']!r} is "
                            f"not within {FE_REL_TOL:.0%} of oracle {oracle!r}")
        minima.append(row["min_value"])
    return problems, [name, doc["classification"], minima]


BUILDERS = {
    "hierarchy": _hierarchy,
    "envelopes2x2": _envelopes2x2,
    "scalar1d": _scalar1d,
}
