"""Command-line front door.

Commands: ``corpus list``, ``envelope``, ``classify``, ``powerlaw``,
``gamma1d``, ``laminate-check``, ``morrey-search``.  Each command takes only
the flags it reads.  ``--config FILE`` holds a JSON object of that command's
flags (key ``p_schedule`` is ``--p-schedule``, a list is comma-joined); they
go through the same parser, and the command line wins.  Every randomized run
is seeded (fixed default); every run echoes its effective configuration into
the report and writes deterministic JSON (sorted keys; the classify report's
timestamp is the only run-dependent field).

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


def integer(text: str) -> int:
    """An integer, also written as an integral float such as ``1e5`` (the
    form a JSON config may hold it in)."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError(text)
    return int(value)


def floats(text: str) -> tuple[float, ...]:
    """Comma-separated floats."""
    return tuple(float(p) for p in text.split(","))


#: The argparse keywords of each flag that several commands take.  A flag
#: without a default is None unless set, and the library's default applies.
FLAGS = {
    "corpus": dict(required=True, help="corpus entry name (see `supcon corpus list`)"),
    "budget": dict(type=integer),
    "tol": dict(type=float),
    "seed": dict(type=integer),
    "radius": dict(type=float),
    "points": dict(type=integer, help="grid points per axis"),
    "p_schedule": dict(type=floats, default=DEFAULT_P_SCHEDULE,
                       help="comma-separated increasing exponents p > 1"),
    "out": dict(help="output directory"),
    "expect": dict(choices=("holds", "violated"),
                   help="exit 2 if the verdicts contradict this"),
    "config": dict(help="JSON object of this command's flags; the command line wins"),
}


def _given(args, *names) -> dict:
    """The named settings that were set; the library's defaults stand for the rest."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _default_points(entry) -> int:
    # fine axis resolution is only affordable on scalar grids
    return 2001 if entry.dims == (1, 1) else 9


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
        fs.write_json(rows, Path(args.json))
    return 0


def cmd_envelope(args) -> int:
    if not args.out:
        raise ValueError("--out is required for envelope")
    if args.lam is not None and args.kind != "pasch-hausdorff":
        raise ValueError("--lam applies to --kind pasch-hausdorff only")
    if args.input:
        if args.radius is not None or args.points is not None:
            raise ValueError("--radius and --points apply to --corpus; "
                             "the --input sidecar fixes the grid")
        sf = fs.load_csv(args.input)
        name = Path(args.input).stem
    else:
        entry = fs.corpus_entry(args.corpus)
        radius = 2.0 if args.radius is None else args.radius
        points = min(41, _default_points(entry)) if args.points is None else args.points
        sf = fs.sample(entry, fs.GridSpec(entry.dims, radius, points))
        name = args.corpus
    kind = args.kind
    if kind == "convex":
        out = env.convex_envelope(sf)
    elif kind == "lslc":
        out = env.level_convex_lsc_envelope(sf)
    elif kind == "lamination":
        out = env.lamination_hull(sf)
    else:
        out = env.pasch_hausdorff(sf, 1.0 if args.lam is None else args.lam)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fs.save_csv(out, outdir / f"{name}_{kind}.csv")
    print(f"wrote {outdir / f'{name}_{kind}.csv'}")
    return 0


def cmd_classify(args) -> int:
    entry = fs.corpus_entry(args.corpus)
    config = clf.ClassifyConfig(**_given(args, "budget", "tol", "seed", "radius"))
    report = clf.classify_report(entry, config)
    if args.out:
        fs.write_json(report.to_dict(), Path(args.out) / f"classify_{entry.name}.json")
    for notion, v in report.verdicts.items():
        print(f"{entry.name}: {notion:24s} {v.outcome}")
    for line in report.inconsistencies:
        print(f"INCONSISTENT: {line}")
    for line in report.documented_mismatches:
        print(f"MISMATCH: {line}")
    any_violated = any(v.violated for v in report.verdicts.values())
    return _expect_exit(args.expect, any_violated)


def cmd_powerlaw(args) -> int:
    if not args.out:
        raise ValueError("--out is required for powerlaw")
    entry = fs.corpus_entry(args.corpus)
    points = _default_points(entry) if args.points is None else args.points
    sf = fs.sample(entry, fs.GridSpec(entry.dims, args.radius, points))
    report = env.power_law_envelope(sf, args.p_schedule, **_given(args, "mode"))
    outdir = Path(args.out)
    doc = report.save(outdir, basename=f"powerlaw_{entry.name}")
    print(f"wrote {outdir / ('powerlaw_' + entry.name + '.json')}"
          f" (mode={doc['mode']}, caveats={len(doc['caveats'])})")
    return 0


def cmd_gamma1d(args) -> int:
    entry = fs.corpus_entry(args.corpus)
    if entry.dims != (1, 1):
        raise ValueError("gamma1d only applies to scalar (1x1) corpus entries")
    opts = fem1d.FeOptions(**_given(args, "cells", "slope_bound"))
    report = fem1d.gamma_limit_experiment(entry, args.xi, args.p_schedule, opts,
                                          name=entry.name)
    if args.out:
        report.save(Path(args.out), basename=f"gamma1d_{entry.name}")
    print(f"{entry.name} at xi={args.xi}: {report.classification} "
          f"(limit {report.rows[-1]['min_value']:.6g} vs f={report.f_xi:.6g})")
    return 0


def cmd_laminate_check(args) -> int:
    entry = fs.corpus_entry(args.corpus)
    settings = _given(args, "budget", "tol", "seed", "radius")
    verdict = lam.check_curl_young_on_laminates(
        entry, entry.dims, special_points=entry.special_points, **settings)
    if args.out:
        fs.write_json(verdict.to_dict(), Path(args.out) / f"laminate_{entry.name}.json")
    print(f"{entry.name}: curl_young_laminates {verdict.outcome}")
    return _expect_exit(args.expect, verdict.violated)


def cmd_morrey_search(args) -> int:
    entry = fs.corpus_entry(args.corpus)
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
        notion, probes, args.budget,
        lambda p, b: search(entry, p, entry.dims, tol=args.tol, budget=b,
                            special_points=entry.special_points,
                            **_given(args, "seed", "radius")),
        tol=args.tol, **_given(args, "seed"))
    if args.out:
        fs.write_json(verdict.to_dict(),
                      Path(args.out) / f"morrey_{args.notion}_{entry.name}.json")
    print(f"{entry.name}: {verdict.notion} {verdict.outcome}")
    return _expect_exit(args.expect, verdict.violated)


# ---------------------------------------------------------------------------

def build_parser() -> Parser:
    """The ``supcon`` parser; ``parser.commands`` maps each command name to
    its subparser."""
    parser = Parser(prog="supcon",
                    description="supremal-convexity numerical laboratory")
    sub = parser.add_subparsers(dest="command", parser_class=Parser)
    parser.commands = sub.choices

    def command(name, func, summary, *flags, **defaults):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])
        p.set_defaults(func=func, **defaults)
        return p

    p = command("corpus", cmd_corpus, "list the supremand corpus")
    p.add_argument("action", choices=("list",))
    p.add_argument("--json", help="also dump the table as JSON")

    p = command("envelope", cmd_envelope, "compute an envelope, write CSV",
                "radius", "points", "out", "config")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", help=FLAGS["corpus"]["help"])
    source.add_argument("--input", help="SampledFunction CSV (with JSON sidecar)")
    p.add_argument("--kind", required=True,
                   choices=("convex", "lslc", "lamination", "pasch-hausdorff"))
    p.add_argument("--lam", type=float,
                   help="Lipschitz constant for pasch-hausdorff (default 1)")

    verdict_flags = ("corpus", "budget", "tol", "seed", "radius", "out", "expect",
                     "config")
    command("classify", cmd_classify, "run every checker on an entry", *verdict_flags)

    p = command("powerlaw", cmd_powerlaw, "power-law envelope bracket family",
                "corpus", "radius", "points", "p_schedule", "out", "config",
                radius=10.0)
    p.add_argument("--mode", choices=("convex-lower", "lamination-upper"))

    p = command("gamma1d", cmd_gamma1d, "1-d finite-element power-law experiment",
                "corpus", "p_schedule", "out", "config")
    p.add_argument("--xi", type=float, required=True, help="boundary slope")
    p.add_argument("--cells", type=integer)
    p.add_argument("--slope-bound", type=float)
    p.add_argument("--seed", type=integer,
                   help="deprecated and ignored (the FE search draws no random "
                        "numbers); goes with the next benchmark change")

    command("laminate-check", cmd_laminate_check, "laminate-side inequality check",
            *verdict_flags)

    p = command("morrey-search", cmd_morrey_search,
                "zero-boundary / periodic / small-boundary disproof search",
                *verdict_flags, budget=20_000, tol=1e-9)
    p.add_argument("--notion", required=True, choices=("weak", "periodic", "strong"))
    p.add_argument("--xi", help="comma-separated matrix entries (row-major)")

    return parser


def _with_config(parser: Parser, argv: list[str]) -> list[str]:
    """``argv`` with the settings of its ``--config`` file put right after the
    command name as that command's flags, ``--key=value``: the command's
    parser checks them like any flag, and the command line, read after them,
    wins."""
    command = parser.commands.get(argv[0]) if argv else None
    # argparse keeps a parser's flags only in this mapping
    flags = command._option_string_actions if command else {}
    if "--config" not in flags:
        return argv
    pre = Parser(prog=command.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    settings = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags or flag in ("--config", "--help"):
            raise ValueError(f"{path}: {key!r} is not a flag of {command.prog}")
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool)
                   for v in items):
            raise ValueError(f"{path}: {key!r} must be a string, a number or a list")
        settings.append(flag + "=" + ",".join(map(str, items)))
    return [argv[0], *settings, *argv[1:]]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        if not args.command:
            parser.print_help()
            return 1
        return args.func(args)
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
