"""Command-line front door.

Commands: ``corpus list``, ``envelope``, ``classify``, ``powerlaw``,
``gamma1d``, ``laminate-check``, ``morrey-search``.  Every run is seeded
(fixed default), echoes its effective configuration into the report, and
writes deterministic JSON (sorted keys; the classify report's timestamp is
the only run-dependent field).

Exit status: 0 on success, 1 on usage or I/O errors, 2 when an ``--expect``
assertion is contradicted by the verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import classify as clf
from . import envelope as env
from . import fem1d
from . import funcspace as fs
from . import laminate as lam

DEFAULT_P_SCHEDULE = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors (2 is reserved)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _json_dump(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _default_points(entry) -> int:
    # fine axis resolution is only affordable on scalar grids
    return 2001 if entry.dims == (1, 1) else 9


def _load_config_file(args) -> dict:
    """The --config object; every key must be a setting of this command."""
    if not getattr(args, "config", None):
        return {}
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: the config must be a JSON object")
    unknown = sorted(set(cfg) - set(vars(args)))
    if unknown:
        raise ValueError(f"{args.config}: unknown {args.command} settings {unknown}")
    return cfg


def _setting(args, cfg: dict, key: str, default):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _schedule(args, cfg: dict):
    """--p-schedule as comma-separated text, a config list, or the default."""
    schedule = _setting(args, cfg, "p_schedule", None)
    if isinstance(schedule, str):
        return tuple(float(p) for p in schedule.split(","))
    return schedule or DEFAULT_P_SCHEDULE


def _parse_xi(text: str, dims) -> np.ndarray:
    vals = [float(v) for v in text.split(",")]
    N, n = dims
    if len(vals) != N * n:
        raise ValueError(f"--xi needs {N * n} entries for dims {dims}")
    return np.array(vals).reshape(N, n)


def _expect_exit(expect: str | None, violated: bool) -> int:
    if expect is None:
        return 0
    if expect == "holds" and violated:
        return 2
    if expect == "violated" and not violated:
        return 2
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_corpus(args) -> int:
    rows = []
    for name in fs.corpus_names():
        entry = fs.corpus_entry(name)
        rows.append({
            "name": name,
            "dims": list(entry.dims),
            "outside_mode": entry.outside_mode,
            "documented_properties": entry.documented_properties,
            "basis": entry.basis,
        })
        flags = ", ".join(f"{k}={'y' if v else 'n'}"
                          for k, v in sorted(entry.documented_properties.items()))
        print(f"{name:22s} {entry.dims}  {flags}")
    if args.json:
        _json_dump(rows, Path(args.json))
    return 0


def cmd_envelope(args) -> int:
    cfg = _load_config_file(args)
    if not args.out:
        print("error: --out is required for envelope", file=sys.stderr)
        return 1
    if args.input:
        sf = fs.load_csv(args.input)
        name = Path(args.input).stem
    else:
        entry = fs.corpus_entry(args.corpus)
        radius = float(_setting(args, cfg, "radius", 2.0))
        points = int(_setting(args, cfg, "points",
                              min(41, _default_points(entry))))
        sf = fs.sample(entry, fs.GridSpec(entry.dims, radius, points))
        name = args.corpus
    kind = args.kind
    if kind == "convex":
        out = env.convex_envelope(sf)
    elif kind == "lslc":
        out = env.level_convex_lsc_envelope(sf)
    elif kind == "lamination":
        out = env.lamination_hull(sf)
    elif kind == "pasch-hausdorff":
        out = env.pasch_hausdorff(sf, args.lam)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fs.save_csv(out, outdir / f"{name}_{kind}.csv")
    print(f"wrote {outdir / f'{name}_{kind}.csv'}")
    return 0


def cmd_classify(args) -> int:
    cfg = _load_config_file(args)
    entry = fs.corpus_entry(args.corpus)
    config = clf.ClassifyConfig(
        budget=int(_setting(args, cfg, "budget", 100_000)),
        tol=float(_setting(args, cfg, "tol", 1e-9)),
        seed=int(_setting(args, cfg, "seed", fs.DEFAULT_SEED)),
        radius=float(_setting(args, cfg, "radius", 2.0)),
    )
    report = clf.classify_report(entry, config)
    doc = report.to_dict()
    if args.out:
        _json_dump(doc, Path(args.out) / f"classify_{entry.name}.json")
    for notion, v in report.verdicts.items():
        print(f"{entry.name}: {notion:24s} {v.outcome}")
    for line in report.inconsistencies:
        print(f"INCONSISTENT: {line}")
    for line in report.documented_mismatches:
        print(f"MISMATCH: {line}")
    any_violated = any(v.violated for v in report.verdicts.values())
    return _expect_exit(args.expect, any_violated)


def cmd_powerlaw(args) -> int:
    cfg = _load_config_file(args)
    if not args.out:
        print("error: --out is required for powerlaw", file=sys.stderr)
        return 1
    entry = fs.corpus_entry(args.corpus)
    radius = float(_setting(args, cfg, "radius", 10.0))
    points = int(_setting(args, cfg, "points", _default_points(entry)))
    schedule = _schedule(args, cfg)
    sf = fs.sample(entry, fs.GridSpec(entry.dims, radius, points))
    report = env.power_law_envelope(sf, schedule, mode=args.mode)
    outdir = Path(args.out)
    doc = report.save(outdir, basename=f"powerlaw_{entry.name}")
    print(f"wrote {outdir / ('powerlaw_' + entry.name + '.json')}"
          f" (mode={doc['mode']}, caveats={len(doc['caveats'])})")
    return 0


def cmd_gamma1d(args) -> int:
    cfg = _load_config_file(args)
    entry = fs.corpus_entry(args.corpus)
    if entry.dims != (1, 1):
        print("gamma1d only applies to scalar (1x1) corpus entries",
              file=sys.stderr)
        return 1
    schedule = _schedule(args, cfg)
    opts = fem1d.FeOptions(
        restarts=int(_setting(args, cfg, "restarts", 16)),
        seed=int(_setting(args, cfg, "seed", fs.DEFAULT_SEED)),
        slope_bound=float(_setting(args, cfg, "slope_bound", 10.0)),
    )
    mesh = fem1d.Mesh1D(cells=int(_setting(args, cfg, "cells", 64)), xi=args.xi)
    report = fem1d.gamma_limit_experiment(entry, args.xi, schedule, mesh, opts,
                                          name=entry.name)
    if args.out:
        report.save(Path(args.out), basename=f"gamma1d_{entry.name}")
    print(f"{entry.name} at xi={args.xi}: {report.classification} "
          f"(limit {report.rows[-1]['normalized']:.6g} vs f={report.f_xi:.6g})")
    return 0


def cmd_laminate_check(args) -> int:
    cfg = _load_config_file(args)
    entry = fs.corpus_entry(args.corpus)
    verdict = lam.check_curl_young_on_laminates(
        entry, entry.dims,
        tol=float(_setting(args, cfg, "tol", 1e-9)),
        budget=int(_setting(args, cfg, "budget", 20_000)),
        seed=int(_setting(args, cfg, "seed", fs.DEFAULT_SEED)),
        radius=float(_setting(args, cfg, "radius", 2.0)),
        special_points=entry.special_points)
    if args.out:
        _json_dump(verdict.to_dict(),
                   Path(args.out) / f"laminate_{entry.name}.json")
    print(f"{entry.name}: curl_young_laminates {verdict.outcome}")
    return _expect_exit(args.expect, verdict.violated)


def cmd_morrey_search(args) -> int:
    cfg = _load_config_file(args)
    entry = fs.corpus_entry(args.corpus)
    budget = int(_setting(args, cfg, "budget", 20_000))
    tol = float(_setting(args, cfg, "tol", 1e-9))
    seed = int(_setting(args, cfg, "seed", fs.DEFAULT_SEED))
    radius = float(_setting(args, cfg, "radius", 2.0))
    if args.xi:
        probes = [_parse_xi(args.xi, entry.dims)]
    else:
        probes = [np.asarray(p, dtype=float) for p in entry.special_points] \
            or [np.zeros(entry.dims)]

    notion, search = {
        "weak": ("weak_morrey", clf.search_weak_morrey_violation),
        "periodic": ("periodic_weak_morrey", lam.check_periodic_weak_morrey),
        "strong": ("strong_morrey", lam.search_strong_morrey_violation),
    }[args.notion]
    verdict = clf.probe_verdict(
        notion, probes, budget,
        lambda p, b: search(entry, p, entry.dims, tol=tol, budget=b, seed=seed,
                            radius=radius, special_points=entry.special_points),
        tol=tol, seed=seed)
    if args.out:
        _json_dump(verdict.to_dict(),
                   Path(args.out) / f"morrey_{args.notion}_{entry.name}.json")
    print(f"{entry.name}: {verdict.notion} {verdict.outcome}")
    return _expect_exit(args.expect, verdict.violated)


# ---------------------------------------------------------------------------

def build_parser() -> Parser:
    parser = Parser(prog="supcon",
                    description="supremal-convexity numerical laboratory")
    sub = parser.add_subparsers(dest="command", parser_class=Parser)

    def common(p, corpus_required=True):
        p.add_argument("--corpus", required=corpus_required,
                       help="corpus entry name (see `supcon corpus list`)")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--radius", type=float, default=None)
        p.add_argument("--out", help="output directory for reports")
        p.add_argument("--expect", choices=("holds", "violated"),
                       help="exit 2 if the verdicts contradict this")

    p = sub.add_parser("corpus", help="list the supremand corpus")
    p.add_argument("action", choices=("list",))
    p.add_argument("--json", help="also dump the table as JSON")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("envelope", help="compute an envelope, write CSV")
    common(p, corpus_required=False)
    p.add_argument("--input", help="SampledFunction CSV (with JSON sidecar)")
    p.add_argument("--kind", required=True,
                   choices=("convex", "lslc", "lamination", "pasch-hausdorff"))
    p.add_argument("--lam", type=float, default=1.0,
                   help="Lipschitz constant for pasch-hausdorff")
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("classify", help="run every checker on an entry")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("powerlaw", help="power-law envelope bracket family")
    common(p)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--p-schedule", dest="p_schedule", default=None)
    p.add_argument("--mode", default="convex-lower",
                   choices=("convex-lower", "lamination-upper"))
    p.set_defaults(func=cmd_powerlaw)

    p = sub.add_parser("gamma1d", help="1-d finite-element power-law experiment")
    common(p)
    p.add_argument("--xi", type=float, required=True, help="boundary slope")
    p.add_argument("--p-schedule", dest="p_schedule", default=None)
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--slope-bound", dest="slope_bound", type=float, default=None)
    p.set_defaults(func=cmd_gamma1d)

    p = sub.add_parser("laminate-check", help="laminate-side inequality check")
    common(p)
    p.set_defaults(func=cmd_laminate_check)

    p = sub.add_parser("morrey-search", help="zero-boundary / periodic / "
                       "small-boundary disproof search")
    common(p)
    p.add_argument("--notion", required=True,
                   choices=("weak", "periodic", "strong"))
    p.add_argument("--xi", help="comma-separated matrix entries (row-major)")
    p.set_defaults(func=cmd_morrey_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
