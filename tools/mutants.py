"""Mutation check of the tier-1 oracles: each mutant must fail its named tests.

Every bit-identical refactor leans on the Hypothesis oracles in
``tests/oracles.py``.  This script checks that they still kill the mutants
they were built to kill.  Run it from the repository root:

    python tools/mutants.py

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory.  A mutant whose source text does not occur exactly once in its
file is reported as stale and not run.  First the named tests of all mutants
run on the unmutated copy at each Hypothesis seed in ``SEEDS``, 1 to 5 (the
``(none)`` row); they must pass, or no kill means anything.  Then each mutant
is applied in turn and its tests run at each of those seeds, with Hypothesis'
example database cleared before every run.  A run that fails its tests kills the mutant.  A run that
cannot collect or start its tests is an error: it neither kills nor spares.

It prints a Markdown kill table and exits 1 if a mutant is stale, errs or
survives a seed, or if the unmutated copy fails.  pytest does not collect this
file: it lies outside ``testpaths`` and is not named ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)  # Hypothesis seeds every run uses


@dataclass(frozen=True)
class Mutant:
    name: str
    origin: str  # the change whose oracle or test it checks
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, any of which may kill it


SHARED = "tests/test_shared_samples.py"
LAMINATION = ("tests/test_envelope.py::test_lamination_hull_lies_on_or_below_every_rank_one_chord",
              "tests/test_metamorphic.py::test_lamination_hull_commutes_with_power_of_two_scaling",
              "tests/test_envelope_batched.py::test_lamination_hull_matches_per_line_oracle")
CERTIFIED = ("tests/test_envelope.py::"
             "test_convex_certificate_rejects_a_concave_ridge_and_falls_back",
             "tests/test_envelope.py::test_convex_envelope_takes_the_unmerged_build")
CONVEX = ("tests/test_envelope_batched.py::test_convex_envelope_matches_per_node_lp",
          "tests/test_envelope_batched.py::test_facet_products_in_place_match_fresh_arrays",
          "tests/test_metamorphic.py::test_convex_envelope_commutes_with_power_of_two_scaling")
FLAT_HULL = ("tests/test_envelope_batched.py::test_flat_hull_membership_matches_the_lp",
             "tests/test_envelope_batched.py::test_lslc_runs_no_lp",
             "tests/test_envelope_batched.py::test_lslc_envelope_matches_per_threshold_oracle",
             "tests/test_envelope_batched.py::"
             "test_lslc_certificates_match_the_last_vertex_rebuilds")
LSC = ("tests/test_envelope_batched.py::test_lslc_envelope_matches_per_threshold_oracle",
       "tests/test_envelope_batched.py::test_lslc_certificates_match_the_last_vertex_rebuilds",
       "tests/test_envelope_batched.py::test_lslc_runs_no_lp")
FE = ("tests/test_fem1d.py::test_minimize_Fp_matches_per_pair_oracle",
      "tests/test_fem1d.py::test_relaxation_identity_two_percent")
SCHEDULE = ("tests/test_fem1d.py::test_schedule_solve_matches_the_per_exponent_oracle",)
MONOTONE = ("tests/test_envelope.py::test_power_law_monotone_violation_matches_a_plain_loop",
            "tests/test_envelope.py::test_power_law_monotone_violation_finds_an_injected_drop")
MUTANTS = (
    Mutant("halton-factor-prefix", "scrambled Halton kernel", "src/supcon/classify.py",
           "factor, k = factor / b, k + 1", "factor, k = factor * (1.0 / b), k + 1",
           (f"{SHARED}::test_halton_kernel_equals_scipy_bit_for_bit",
            f"{SHARED}::test_shared_halton_draws_equal_fresh_draws")),
    Mutant("halton-factor-tail", "scrambled Halton kernel", "src/supcon/classify.py",
           "            factor /= b\n", "            factor *= 1.0 / b\n",
           (f"{SHARED}::test_halton_kernel_equals_scipy_bit_for_bit",
            f"{SHARED}::test_shared_halton_draws_equal_fresh_draws")),
    Mutant("curl-young-weights-swapped", "curl-Young is the rank-one run, relabelled",
           "src/supcon/laminate.py",
           '[w["lam"], 1.0 - w["lam"]]', '[1.0 - w["lam"], w["lam"]]',
           (f"{SHARED}::test_curl_young_equals_the_rank_one_run_relabelled",
            "tests/test_laminate.py::"
            "test_curl_young_segment_stream_finds_and_replays_a_violation")),
    Mutant("cutoff-bound-inf", "weak-Morrey cutoff bound", "src/supcon/classify.py",
           "bound = np.where(np.isnan(ess), np.inf, ess)",
           "bound = np.where(np.isfinite(ess), ess, np.inf)",
           ("tests/test_weak_morrey_batched.py::"
            "test_cutoff_field_scorer_matches_its_full_batch_oracle",)),
    Mutant("cutoff-tie-clause", "weak-Morrey cutoff bound", "src/supcon/classify.py",
           "((bound == e0) & (rows <= i0))", "(rows == i0)",
           ("tests/test_weak_morrey_batched.py::"
            "test_cutoff_field_scorer_matches_its_full_batch_oracle",)),
    Mutant("report-default-radius", "one settings record per report",
           "src/supcon/classify.py",
           "kw = dict(asdict(cfg), special_points=entry.special_points)",
           "kw = dict(asdict(cfg), radius=2.0, special_points=entry.special_points)",
           ("tests/test_classify.py::test_classify_report_passes_its_settings_to_every_checker",)),
    Mutant("report-no-special-points", "one settings record per report",
           "src/supcon/classify.py",
           "kw = dict(asdict(cfg), special_points=entry.special_points)",
           "kw = dict(asdict(cfg), special_points=())",
           ("tests/test_classify.py::test_classify_report_passes_its_settings_to_every_checker",)),
    Mutant("weak-search-overspends", "weak search spends at most its budget",
           "src/supcon/classify.py",
           "count=budget, radius=radius, special_points=special_points)",
           "count=budget + 1, radius=radius, special_points=special_points)",
           ("tests/test_weak_morrey_batched.py::test_weak_morrey_search_spends_exactly_its_budget",
            "tests/test_weak_morrey_batched.py::"
            "test_weak_field_searches_spend_at_most_their_budget")),
    Mutant("halton-store-ignores-seed", "one Halton draw per seed", "src/supcon/classify.py",
           'store, key = _shared.get(), ("halton", seed)',
           'store, key = _shared.get(), ("halton",)',
           (f"{SHARED}::test_classify_report_builds_each_halton_sequence_once_per_growth",
            "tests/test_blind_suite.py::test_blind_reports_share_nothing_they_would_not_draw_afresh",
            "tests/test_report_digests.py::test_every_report_matches_its_committed_digest")),
    Mutant("pair-run-scored-per-reader", "one two-gradient pair run per report",
           "src/supcon/classify.py",
           "return copy.copy(_once(key, lambda: (f, itertools.tee(scored(), 1)[0]))[1])",
           "return scored()",
           (f"{SHARED}::test_periodic_verdict_reads_the_pairs_the_weak_search_scored",
            f"{SHARED}::test_readers_that_take_turns_on_one_pair_run_equal_a_fresh_run")),
    Mutant("once-makes-afresh", "one store rule per report", "src/supcon/classify.py",
           "    if key not in store:\n        store[key] = make()\n",
           "    store[key] = make()\n",
           (f"{SHARED}::test_classify_report_scores_each_segment_run_once",
            f"{SHARED}::test_classify_report_serves_curl_young_the_rank_one_run",
            f"{SHARED}::test_periodic_verdict_reads_the_pairs_the_weak_search_scored")),
    Mutant("count-accepts-bool", "one home for setting checks", "src/supcon/funcspace.py",
           "isinstance(value, bool) or not isinstance(value, numbers.Integral)",
           "not isinstance(value, numbers.Integral)",
           ("tests/test_classify.py::test_checkers_reject_the_settings_classify_config_rejects",
            "tests/test_cli.py::"
            "test_envelope_input_with_a_malformed_sidecar_exits_1_naming_the_field")),
    Mutant("coarse-grid-before-count", "one home for setting checks",
           "src/supcon/classify.py",
           "    if not rank_one and 5 ** d",
           "    nodes = _grid_nodes(dims, radius, 5)\n    if not rank_one and 5 ** d",
           ("tests/test_classify.py::"
            "test_level_convexity_stream_counts_the_coarse_grid_before_building_it",)),
    Mutant("lamination-stop-slack", "exact lamination fixpoint", "src/supcon/envelope.py",
           "lower = new < vals[nodes]", "lower = new < vals[nodes] - 1e-9", LAMINATION),
    Mutant("lamination-chord-weights-swapped", "exact lamination fixpoint",
           "src/supcon/envelope.py",
           "v[tj] * wj + v[tk] * wk", "v[tj] * wk + v[tk] * wj",
           LAMINATION),
    Mutant("convex-vertex-skip-all-vertices", "convex envelope off its lower hull",
           "src/supcon/envelope.py",
           "rest[hull.simplices[low]] = False", "rest[hull.simplices] = False", CONVEX),
    Mutant("convex-plane-no-division", "convex envelope off its lower hull",
           "src/supcon/envelope.py",
           "planes = np.delete(eq[low], -2, axis=1) / -eq[low, -2:-1]",
           "planes = np.delete(eq[low], -2, axis=1)", CONVEX),
    Mutant("convex-q0-uncertified", "certified unmerged lifted hull", "src/supcon/envelope.py",
           'if opts != "Qt Q0" or _locally_convex(hull, tol):', "if True:",
           CERTIFIED + CONVEX),
    Mutant("convex-q0-certificate-side", "certified unmerged lifted hull",
           "src/supcon/envelope.py",
           'eq[:, :-1]) + eq[:, -1] > tol', 'eq[:, :-1]) + eq[:, -1] < -tol',
           CERTIFIED + CONVEX),
    Mutant("scalar-run-rank-one", "one segment run per 1x1 report", "src/supcon/classify.py",
           "    rank_one = rank_one and min(dims) >= 2\n", "",
           (f"{SHARED}::test_classify_report_serves_curl_young_the_rank_one_run",
            f"{SHARED}::test_segment_checkers_match_per_weight_oracle",
            f"{SHARED}::test_curl_young_equals_the_rank_one_run_relabelled",
            "tests/test_report_digests.py::test_every_report_matches_its_committed_digest")),
    Mutant("lamination-1d-sweeps", "1-d lamination hull in one chain pass",
           "src/supcon/envelope.py",
           "(lower_hull_1d(g.axis(), flat), 1, True) if g.ndim == 1",
           "(lower_hull_1d(g.axis(), flat), 1, True) if False",
           ("tests/test_envelope.py::test_lamination_equals_convex_in_1d",
            "tests/test_envelope.py::test_lamination_hull_in_1d_matches_the_per_line_oracle")),
    Mutant("flat-hull-no-offset-test", "sublevel-hull membership by SVD rank",
           "src/supcon/envelope.py",
           "    return near & inside, None\n", "    return inside, None\n", FLAT_HULL),
    Mutant("flat-hull-interval-no-tol", "sublevel-hull membership by SVD rank",
           "src/supcon/envelope.py",
           "(low[:, 0] >= flat.min() - 1e-9) & (low[:, 0] <= flat.max() + 1e-9)",
           "(low[:, 0] >= flat.min()) & (low[:, 0] <= flat.max())", FLAT_HULL),
    Mutant("lsc-1d-one-sided", "one path per lsc threshold", "src/supcon/envelope.py",
           "np.maximum(np.minimum.accumulate(flat), np.minimum.accumulate(flat[::-1])[::-1])",
           "np.minimum.accumulate(flat)", LSC),
    Mutant("lsc-certify-all", "one path per lsc threshold", "src/supcon/envelope.py",
           "                if not later.size:\n", "                if True:\n", LSC),
    Mutant("polish-keeps-first-profile", "one minimum per FE polish walk", "src/supcon/fem1d.py",
           '                    profile = ("pair", a, b, got[1], got[2])\n', "", FE),
    Mutant("scan-powers-first-p", "one FE scan table for every p", "src/supcon/fem1d.py",
           "        q = _powers(vals / scale, p)\n", "        q = _powers(vals / scale, ps[0])\n",
           SCHEDULE),
    Mutant("lockstep-neighbour-p", "one lockstep FE polish for every p", "src/supcon/fem1d.py",
           "        p = walk_p[row][pair]\n", "        p = walk_p[row - 1][pair]\n", SCHEDULE),
    Mutant("monotone-last-pair-only", "one scan for the worst monotone breach",
           "src/supcon/envelope.py",
           "drop = values[np.r_[0, :len(ps) - 1]] - values",
           "drop = values[np.r_[0:len(ps) - 1, len(ps) - 2]] - values", MONOTONE),
)


def run_tests(work: Path, tests, seed: int) -> str:
    """'pass', 'fail' or 'error' for one pytest run of ``tests`` in ``work``."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         f"--hypothesis-seed={seed}", *tests],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {0: "pass", 1: "fail"}.get(proc.returncode, "error")


def main() -> int:
    ok = True
    print("| mutant | origin | killed | seeds |")
    print("| --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)

        every_test = sorted({t for m in MUTANTS for t in m.tests})
        clean = [run_tests(work, every_test, seed) for seed in SEEDS]
        passed = [s for s, r in zip(SEEDS, clean) if r == "pass"]
        ok &= len(passed) == len(SEEDS)
        print(f"| (none) | unmutated copy | passes on {len(passed)}/{len(SEEDS)} "
              f"| {' '.join(f'{s}:{r}' for s, r in zip(SEEDS, clean))} |", flush=True)

        for m in MUTANTS:
            path = work / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                ok = False
                print(f"| {m.name} | {m.origin} | stale: text found "
                      f"{text.count(m.old)} times | |", flush=True)
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                results = [run_tests(work, m.tests, seed) for seed in SEEDS]
            finally:
                path.write_text(text)
            killed = results.count("fail")
            ok &= killed == len(SEEDS)
            outcome = {"fail": "killed", "pass": "survived", "error": "error"}
            print(f"| {m.name} | {m.origin} | {killed}/{len(SEEDS)} "
                  f"| {' '.join(f'{s}:{outcome[r]}' for s, r in zip(SEEDS, results))} |",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
