"""supcon benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload hierarchy --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports ``supcon`` from the
checkout's ``src/`` and fails (exit 2) when there is none.  Scratch outputs go
to ``.perfbench_tmp/`` and trace files to ``.perfbench_out/`` in the checkout.

Workloads (closed loop: one client, one process, ops in sequence, no threads
beyond BLAS's):

* ``hierarchy``: ``supcon classify --budget 100000`` on each of the 11 corpus
  entries.  The classify/laminate searches and the corpus evaluators; no
  envelope or fem1d work, so it bypasses grid-operator changes.
* ``envelopes2x2``: ``supcon envelope`` with each kind on ``arctan_det`` and
  ``exampleD`` (radius 2, 7 points per axis) and on a seeded random-normal
  2x2 grid (5 points per axis) read through ``--input``, plus two 2x2
  ``supcon powerlaw`` runs.  All the matrix-space operator work.
* ``scalar1d``: four ``supcon gamma1d`` runs, two 1-d ``supcon powerlaw`` runs
  and two library calls of ``check_level_convex`` through
  ``interpolating_evaluator``.  fem1d, the 1-d kernels and interpolation.

With ``--trace 0`` the ops run pass after pass until ``--seconds`` have gone
by (at least one whole pass).  Every time is scaled to a nominal machine
speed by the ``reference()`` probe timed around it (see there).  The
end-to-end metrics are:

* ``wall_s`` / ``cpu_s``: wall / process CPU seconds of one pass, the sum over
  the ops of each op's median over its executions in the run;
* ``setup_s``: median time of three fresh processes that import
  ``supcon.cli`` and run ``supcon corpus list``, the floor every command pays;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The unscaled pass times are printed above the result.

With ``--trace 1`` each op runs once untraced and once traced (see
``tracer.py``); the metrics are the per-layer counts and self times of the
traced pass, ``trace.overhead_s`` (traced minus untraced pass wall) and
``trace.coverage`` (share of the traced pass inside top-level spans).

Every execution of an op is checked against its oracle (``workloads.py``).
``failed`` counts the ops with an execution that contradicted its oracle,
``attempted`` the ops run.  ``correct`` is false when an op raised or when a
repeated execution of an op gave a different answer from its first one.
The fingerprint printed before the result hashes the answers of each op's
first execution; the same code and seed give the same fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE = (
    "import contextlib, os, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import supcon.cli\n"
    "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
    "    sys.exit(supcon.cli.main(['corpus', 'list']))\n"
)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

#: Nominal seconds of ``reference()``; op times are scaled by its ratio to
#: the reference's measured time around each op.
REF_NOMINAL_S = 0.040
_REF_SMALL = np.linspace(-1.0, 1.0, 64)
# 16 MB: past the per-core cache, so the probe feels cache and memory contention
_REF_BIG = np.random.default_rng(0).standard_normal(1_000_000)
_REF_BUF = np.empty_like(_REF_BIG)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.coverage": "ratio"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _layer_unit(name: str) -> str:
    if name in TRACE_UNITS:
        return TRACE_UNITS[name]
    return "s" if name.endswith(".s") else "count"


def _ref_add(a, b):
    return a * b + 1.0


def reference() -> float:
    """Wall seconds of a fixed mix of interpreter loops, Python calls,
    small-array and large-array numpy calls: the kinds of work the ops
    spend their time in.

    On a shared host, other tenants can halve the speed of a virtual CPU
    within seconds.  Timing this probe right before and right after each op,
    and scaling the op by ``REF_NOMINAL_S`` over their mean, takes most of
    that drift out of the reported times.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    table = {}
    for i in range(30_000):
        table[i & 255] = _ref_add(float(i), 0.5)
    x = _REF_SMALL
    for _ in range(6_000):
        x = np.sqrt(x * x + 1.0) - 1.0
    for _ in range(6):
        np.multiply(_REF_BIG, 0.5, out=_REF_BUF)
        np.abs(_REF_BUF, out=_REF_BUF)
        np.add(_REF_BUF, _REF_BIG, out=_REF_BUF)
    return perf_counter() - t0


def measure_setup() -> float:
    """Median time of fresh ``supcon corpus list`` processes, each scaled by
    the reference probe timed around it."""
    times = []
    before = reference()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT,
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            _fail(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        after = reference()
        times.append(wall * REF_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def import_supcon():
    if not (SRC / "supcon" / "__init__.py").is_file():
        _fail(f"no supcon package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import supcon
    import supcon.classify
    import supcon.cli
    import supcon.envelope
    import supcon.fem1d
    import supcon.funcspace
    import supcon.laminate
    import supcon.matspace
    if Path(supcon.__file__).resolve().parent != (SRC / "supcon").resolve():
        _fail(f"imported supcon from {supcon.__file__}, not from {SRC}")
    return supcon


class Ledger:
    """Per-op timings, oracle outcomes and fingerprint records."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.wall = {op.name: [] for op in ops}
        self.cpu = {op.name: [] for op in ops}
        self.scale = {op.name: [] for op in ops}
        self.first = {}
        self.problems = {op.name: [] for op in ops}
        self.unstable = set()
        self.raised = set()
        self._ref = None

    def execute(self, op) -> None:
        """Run, time and check one execution of ``op``."""
        op.reset()
        if self._ref is None:
            self._ref = reference()
        if self.tracer is not None:
            self.tracer.active = True
        w0, c0 = perf_counter(), process_time()
        try:
            result = op.run()
        except Exception:
            traceback.print_exc()
            self.raised.add(op.name)
            self.problems[op.name].append("raised")
            self._ref = None
            return
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        wall, cpu = perf_counter() - w0, process_time() - c0
        ref = reference()
        self.wall[op.name].append(wall)
        self.cpu[op.name].append(cpu)
        self.scale[op.name].append(REF_NOMINAL_S / (0.5 * (self._ref + ref)))
        self._ref = ref
        try:
            problems, record = op.check(result)
        except Exception as exc:  # unreadable or missing output
            problems, record = [f"check raised {exc!r}"], None
        self.problems[op.name].extend(problems)
        if op.name not in self.first:
            self.first[op.name] = record
        elif record != self.first[op.name]:
            self.unstable.add(op.name)

    def scaled(self, samples) -> dict:
        return {name: [t * k for t, k in zip(times, self.scale[name])]
                for name, times in samples.items()}

    def per_pass(self, samples) -> float:
        return sum(statistics.median(v) for v in samples.values() if v)

    def failed(self) -> list:
        return [op.name for op in self.ops if self.problems[op.name]]

    def fingerprint(self) -> str:
        return workloads.fingerprint([[op.name, self.first.get(op.name)]
                                      for op in self.ops])

    def report(self) -> None:
        scaled = self.scaled(self.wall)
        for op in self.ops:
            walls = self.wall[op.name]
            times = (f"wall {statistics.median(walls):7.3f} s, "
                     f"scaled {statistics.median(scaled[op.name]):7.3f} s" if walls else "")
            status = "FAILED" if self.problems[op.name] else "ok"
            print(f"  {op.name:42s} x{len(walls)} {times}  {status}")
            for problem in dict.fromkeys(self.problems[op.name]):
                print(f"    {problem}")


def run_timed(ops, seconds: float) -> Ledger:
    ledger = Ledger(ops)
    start = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - start < seconds:
        for op in ops:
            if passes > 0 and perf_counter() - start >= seconds:
                break
            ledger.execute(op)
        passes += 1
    return ledger


def run_traced(supcon, ops, trace_path: Path) -> tuple[Ledger, dict]:
    tracer = Tracer({name: getattr(supcon, name) for name in
                     ("cli", "funcspace", "matspace", "envelope", "classify",
                      "laminate", "fem1d")})
    plain, traced = Ledger(ops), Ledger(ops, tracer)
    tracer.install()
    try:
        for op in ops:
            plain.execute(op)
            traced.execute(op)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    traced_wall = sum(sum(v) for v in traced.wall.values())
    plain_wall = sum(sum(v) for v in plain.wall.values())
    metrics = tracer.totals()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.coverage"] = tracer.top_level_s / traced_wall if traced_wall else 0.0
    for name, first in plain.first.items():
        if traced.first.get(name) != first:
            traced.unstable.add(name)
    traced.problems = {k: plain.problems[k] + traced.problems[k] for k in traced.problems}
    traced.raised |= plain.raised
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    supcon = import_supcon()
    setup_s = measure_setup() if not args.trace else None
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        tmp.mkdir(parents=True)
        ops = workloads.BUILDERS[args.workload](supcon, args.seed, tmp)
        if args.trace:
            trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
            ledger, values = run_traced(supcon, ops, trace_path)
            units = {name: _layer_unit(name) for name in LAYER_METRICS + list(TRACE_UNITS)}
        else:
            ledger = run_timed(ops, args.seconds)
            print(f"unscaled pass: wall {ledger.per_pass(ledger.wall):.4f} s, "
                  f"cpu {ledger.per_pass(ledger.cpu):.4f} s")
            values = {
                "wall_s": ledger.per_pass(ledger.scaled(ledger.wall)),
                "cpu_s": ledger.per_pass(ledger.scaled(ledger.cpu)),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = ledger.failed()
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    ledger.report()
    for name in sorted(ledger.unstable):
        print(f"  UNSTABLE: {name} gave different answers on repeated runs")
    print(f"fingerprint {ledger.fingerprint()}")
    print(f"ops {len(ops)} failed {len(failed)}")
    for name, value in values.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    result = {
        "correct": not ledger.raised and not ledger.unstable,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
