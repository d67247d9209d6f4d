"""Alternating benchmark pairs: a parent commit against HEAD.

    python tools/bench_pairs.py PARENT [--label NAME] [--pairs 5]
        [--workloads hierarchy envelopes2x2 scalar1d] [--seeds 20240817]
        [--seconds 5]

Run it from the repository root.  It clones the repository twice into a
temporary directory, checked out at PARENT and at HEAD (committed files
only, as the benchmark sees them), and runs ``perfbench/run.py`` on the two
alternately: each pair runs both sides once, the parent first in even pairs
and HEAD first in odd ones.  It writes ``BENCH_<label>.json`` at the root
with, per workload and seed:

* each side's fingerprints, the most ops ``failed`` in any run, and whether
  every run was ``correct``;
* per end-to-end metric of ``BENCHMARK.json``: the values pair by pair, the
  medians of both sides, the interquartile range of the parent's runs, and
  the pairs HEAD won (a better value than the parent's in the same pair).

pytest does not collect this file: it lies outside ``testpaths``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "head")


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, where: Path) -> Path:
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(where))
    git("checkout", "--quiet", "--detach", rev, cwd=where)
    return where


def run_once(side: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    """The fingerprint and the result record of one ``perfbench/run.py`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=side, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    fingerprint = next(line.split()[1] for line in lines if line.startswith("fingerprint "))
    return fingerprint, json.loads(lines[-1])


def summarize(runs: dict, better: dict) -> dict:
    """The record of one workload and seed from each side's run results."""
    out = {side: {"fingerprints": sorted({fp for fp, _ in runs[side]}),
                  "failed": max(r["failed"] for _, r in runs[side]),
                  "correct": all(r["correct"] for _, r in runs[side])}
           for side in SIDES}
    metrics = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for _, r in runs[side]] for side in SIDES}
        q1, _, q3 = statistics.quantiles(values["parent"], n=4)
        sign = 1.0 if direction == "lower" else -1.0
        metrics[name] = {
            "unit": runs["parent"][0][1]["metrics"][name]["unit"],
            "better": direction,
            "pairs": [list(pair) for pair in zip(values["parent"], values["head"])],
            "parent_median": statistics.median(values["parent"]),
            "head_median": statistics.median(values["head"]),
            "parent_iqr": q3 - q1,
            "pairs_won": sum(sign * (h - p) < 0 for p, h in zip(values["parent"],
                                                                 values["head"])),
        }
    out["metrics"] = metrics
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the git revision to compare HEAD with")
    parser.add_argument("--label", help="names BENCH_<label>.json (default: HEAD's short hash)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--workloads", nargs="+",
                        default=["hierarchy", "envelopes2x2", "scalar1d"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[20240817])
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for an interquartile range")

    revs = {"parent": git("rev-parse", args.parent), "head": git("rev-parse", "HEAD")}
    label = args.label or revs["head"][:7]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = {"label": label, "revisions": revs, "pairs": args.pairs, "seconds": args.seconds,
           "machine": {"platform": platform.platform(), "machine": platform.machine(),
                       "python": platform.python_version()},
           "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: checkout(rev, Path(tmp) / side) for side, rev in revs.items()}
        for workload in args.workloads:
            for seed in args.seeds:
                runs = {side: [] for side in SIDES}
                for i in range(args.pairs):
                    for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                        runs[side].append(run_once(dirs[side], workload, seed, args.seconds))
                record = summarize(runs, better)
                doc["workloads"].setdefault(workload, {})[str(seed)] = record
                wall = record["metrics"]["wall_s"]
                print(f"{workload} seed {seed}: wall_s {wall['parent_median']:.4f} -> "
                      f"{wall['head_median']:.4f} s, won {wall['pairs_won']}/{args.pairs}; "
                      f"fingerprints {record['parent']['fingerprints']} -> "
                      f"{record['head']['fingerprints']}", flush=True)
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
