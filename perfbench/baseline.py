"""Measure a baseline: run the benchmark on several seeds per workload and
print, as JSON, the machine, the library versions and, per workload, each
end-to-end metric's median and quartiles (and of the unscaled pass wall
time), the ops failed, the fingerprint of every seed, and the per-layer
metrics of one traced run on the first seed.

    python3 perfbench/baseline.py --seeds 20240817,12345,1,2,3 > perfbench/baseline.json

Run it from the root of a source checkout, on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import BUILDERS  # noqa: E402


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
    }


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--workloads", default=",".join(BUILDERS))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    def run(workload, seed, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    doc = {"machine": machine(), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            lines, result = run(workload, seed, 0)
            fingerprint = next(l.split()[1] for l in lines if l.startswith("fingerprint "))
            unscaled = next(l.split()[3] for l in lines if l.startswith("unscaled pass:"))
            runs.append((seed, result, fingerprint, float(unscaled)))
            print(f"{workload} seed {seed}: {result}", file=sys.stderr)
        metrics = {name: _quartiles([r["metrics"][name]["value"] for _, r, _, _ in runs])
                   for name in runs[0][1]["metrics"]}
        metrics["unscaled_wall_s"] = _quartiles([u for _, _, _, u in runs])
        doc["workloads"][workload] = {
            "metrics": metrics,
            "attempted": sorted({r["attempted"] for _, r, _, _ in runs}),
            "failed": sorted({r["failed"] for _, r, _, _ in runs}),
            "correct": all(r["correct"] for _, r, _, _ in runs),
            "fingerprints": {str(seed): fp for seed, _, fp, _ in runs},
            "per_layer": {name: m["value"] for name, m in
                          run(workload, seeds[0], 1)[1]["metrics"].items()},
        }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
