import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supcon.cli import build_parser, floats, main
from supcon.envelope import convex_envelope, pasch_hausdorff, power_law_envelope
from supcon.fem1d import FeOptions, gamma_limit_experiment
from supcon.funcspace import GridSpec, corpus_entry, load_csv, sample


def run_cli(*argv):
    return main(list(argv))


def run_proc(*argv):
    return subprocess.run([sys.executable, "-m", "supcon", *argv],
                          capture_output=True, text=True, timeout=60)


def test_corpus_list(capsys):
    assert run_cli("corpus", "list") == 0
    out = capsys.readouterr().out
    assert "clamp1d" in out and "arctan_det" in out


def test_corpus_list_json(tmp_path):
    path = tmp_path / "corpus.json"
    assert run_cli("corpus", "list", "--json", str(path)) == 0
    rows = json.loads(path.read_text())
    assert any(r["name"] == "one_minus_chi_pair" for r in rows)


def test_envelope_command_writes_reloadable_csv(tmp_path):
    code = run_cli("envelope", "--corpus", "double_well_1d", "--kind", "convex",
                   "--radius", "3.0", "--points", "61", "--out", str(tmp_path))
    assert code == 0
    out = load_csv(tmp_path / "double_well_1d_convex.csv")
    expected = convex_envelope(sample(corpus_entry("double_well_1d"),
                                      GridSpec((1, 1), 3.0, 61)))
    assert np.array_equal(out.values, expected.values)


def test_envelope_command_other_kinds(tmp_path):
    assert run_cli("envelope", "--corpus", "double_well_1d", "--kind",
                   "pasch-hausdorff", "--lam", "2.0", "--radius", "3",
                   "--points", "31", "--out", str(tmp_path)) == 0
    assert run_cli("envelope", "--corpus", "double_well_1d", "--kind",
                   "lamination", "--radius", "3", "--points", "31",
                   "--out", str(tmp_path)) == 0
    assert (tmp_path / "double_well_1d_pasch-hausdorff.csv").exists()
    assert (tmp_path / "double_well_1d_lamination.csv").exists()


def test_envelope_command_reingests_own_output(tmp_path):
    assert run_cli("envelope", "--corpus", "clamp1d", "--kind", "lslc",
                   "--radius", "2.0", "--points", "21", "--out", str(tmp_path)) == 0
    assert run_cli("envelope", "--input", str(tmp_path / "clamp1d_lslc.csv"),
                   "--kind", "convex", "--out", str(tmp_path)) == 0
    assert (tmp_path / "clamp1d_lslc_convex.csv").exists()


def test_classify_expect_exit_codes(tmp_path):
    base = ("classify", "--corpus", "double_well_1d", "--budget", "2000",
            "--out", str(tmp_path))
    assert run_cli(*base, "--expect", "violated") == 0
    assert run_cli(*base, "--expect", "holds") == 2
    report = json.loads((tmp_path / "classify_double_well_1d.json").read_text())
    assert report["verdicts"]["level_convex"]["outcome"] == "violated"


def test_classify_determinism_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("classify", "--corpus", "arctan_det", "--budget", "2000",
                       "--out", str(out)) == 0
    da = json.loads((a / "classify_arctan_det.json").read_text())
    db = json.loads((b / "classify_arctan_det.json").read_text())
    da.pop("timestamp"), db.pop("timestamp")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_powerlaw_command(tmp_path):
    code = run_cli("powerlaw", "--corpus", "clamp1d", "--radius", "10",
                   "--points", "201", "--mode", "convex-lower",
                   "--p-schedule", "2,8,32", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "powerlaw_clamp1d.json").read_text())
    assert doc["mode"] == "convex-lower"
    assert doc["gap_detected"] is True
    for ref in doc["per_p"]:
        assert (tmp_path / ref).exists()


def test_gamma1d_command(tmp_path):
    code = run_cli("gamma1d", "--corpus", "clamp1d", "--xi", "1.0",
                   "--p-schedule", "2,8", "--cells", "16", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "gamma1d_clamp1d.json").exists()


def test_gamma1d_seed_is_ignored(tmp_path):
    # --seed is still parsed but feeds nothing: the FE search draws no random numbers
    for seed in ("1", "2"):
        assert run_cli(*GAMMA1D, "--seed", seed, "--out", str(tmp_path / seed)) == 0
    for name in ("gamma1d_clamp1d.json", "gamma1d_clamp1d_gradients.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_gamma1d_rejects_matrix_entries():
    assert run_cli("gamma1d", "--corpus", "arctan_det", "--xi", "0.0") == 1


def test_laminate_check_expect(tmp_path):
    assert run_cli("laminate-check", "--corpus", "one_minus_chi_pair",
                   "--budget", "2000", "--expect", "violated",
                   "--out", str(tmp_path)) == 0
    assert run_cli("laminate-check", "--corpus", "clamp1d",
                   "--budget", "2000", "--expect", "violated") == 2


def test_morrey_search_per_notion(tmp_path):
    assert run_cli("morrey-search", "--corpus", "one_minus_chi_pair",
                   "--notion", "periodic", "--budget", "2000",
                   "--expect", "violated", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "morrey_periodic_one_minus_chi_pair.json").read_text())
    assert doc["outcome"] == "violated"
    assert doc["witness"]["gap"] == 1.0
    assert run_cli("morrey-search", "--corpus", "one_minus_chi_pair",
                   "--notion", "weak", "--budget", "2000",
                   "--expect", "holds") == 0


def test_morrey_search_explicit_xi():
    assert run_cli("morrey-search", "--corpus", "double_well_1d",
                   "--notion", "strong", "--xi", "0.0", "--budget", "2000",
                   "--expect", "violated") == 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 1000, "radius": 2.0}))
    out = tmp_path / "out"
    assert run_cli("classify", "--corpus", "clamp1d", "--config", str(cfg),
                   "--out", str(out)) == 0
    doc = json.loads((out / "classify_clamp1d.json").read_text())
    assert doc["config"]["budget"] == 1000
    out2 = tmp_path / "out2"
    assert run_cli("classify", "--corpus", "clamp1d", "--config", str(cfg),
                   "--budget", "1500", "--out", str(out2)) == 0
    doc2 = json.loads((out2 / "classify_clamp1d.json").read_text())
    assert doc2["config"]["budget"] == 1500


@pytest.mark.parametrize("content", ['{"budgte": 10}', '{"budget": 10, "threads": 4}',
                                     '[1000]'])
def test_config_file_rejects_unknown_keys_and_non_objects(tmp_path, content, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert run_cli("classify", "--corpus", "clamp1d", "--config", str(cfg)) == 1
    assert "error:" in capsys.readouterr().err


def test_classify_rejects_a_negative_seed_naming_it(tmp_path, capsys):
    # printed numpy's "expected non-negative integer", which names no flag
    assert run_cli("classify", "--corpus", "abs", "--seed", "-3", "--budget", "1000",
                   "--out", str(tmp_path)) == 1
    assert "seed must be at least 0, got -3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_morrey_search_reports_the_budget_of_every_probe(tmp_path):
    assert run_cli("morrey-search", "--corpus", "arctan_det", "--notion",
                   "periodic", "--budget", "3000", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "morrey_periodic_arctan_det.json").read_text())
    assert doc["outcome"] == "holds-within-budget"
    assert doc["budget"] == 3000  # 8 probes of 375 samples each


def test_unknown_corpus_exits_one():
    assert run_cli("classify", "--corpus", "nope") == 1


def test_missing_out_exits_one():
    assert run_cli("envelope", "--corpus", "clamp1d", "--kind", "convex") == 1
    assert run_cli("powerlaw", "--corpus", "clamp1d") == 1


def test_usage_errors_exit_one():
    proc = run_proc("no-such-command")
    assert proc.returncode == 1
    proc = run_proc("morrey-search", "--corpus", "clamp1d")  # missing --notion
    assert proc.returncode == 1


def test_no_command_prints_help():
    assert run_cli() == 1


def status(*argv):
    """main's exit status, also when argparse exits with it."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


GAMMA1D = ("gamma1d", "--corpus", "clamp1d", "--xi", "1.0", "--p-schedule", "2,8",
           "--cells", "8")
ENVELOPE = ("envelope", "--corpus", "clamp1d", "--kind", "convex", "--points", "21")
POWERLAW = ("powerlaw", "--corpus", "clamp1d", "--points", "21", "--p-schedule", "2,8")


UNREAD = [(base, flag) for base, flags in (
    (GAMMA1D, ("--budget", "--radius", "--tol", "--expect", "--restarts")),
    (ENVELOPE, ("--seed", "--tol", "--budget", "--expect")),
    (POWERLAW, ("--seed", "--tol", "--budget", "--expect"))) for flag in flags]


@pytest.mark.parametrize("base, flag", UNREAD, ids=[f"{b[0]}{f}" for b, f in UNREAD])
def test_flags_a_command_does_not_read_exit_one(tmp_path, base, flag, capsys):
    value = "holds" if flag == "--expect" else "5"
    assert status(*base, flag, value, "--out", str(tmp_path)) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_keys_reach_the_command_as_its_flags(tmp_path):
    def config(name, **settings):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(settings))
        return str(path)

    out = tmp_path / "classify"
    assert run_cli("classify", "--corpus", "double_well_1d", "--budget", "2000",
                   "--config", config("c", out=str(out), expect="holds")) == 2
    assert (out / "classify_double_well_1d.json").exists()

    sf = sample(corpus_entry("double_well_1d"), GridSpec((1, 1), 3.0, 31))
    assert run_cli("envelope", "--corpus", "double_well_1d", "--kind", "pasch-hausdorff",
                   "--radius", "3", "--points", "31", "--out", str(tmp_path),
                   "--config", config("lam", lam=5)) == 0
    out = load_csv(tmp_path / "double_well_1d_pasch-hausdorff.csv")
    assert np.array_equal(out.values, pasch_hausdorff(sf, 5.0).values)

    for schedule in ([2, 8], "2,8"):
        out = tmp_path / f"gamma1d_{type(schedule).__name__}"
        assert run_cli("gamma1d", "--corpus", "clamp1d", "--xi", "1.0", "--cells", "8",
                       "--config", config("p", p_schedule=schedule, out=str(out))) == 0
        doc = json.loads((out / "gamma1d_clamp1d.json").read_text())
        assert doc["p_schedule"] == [2.0, 8.0]
        assert doc["options"] == {"cells": 8, "scan_points": 161, "slope_bound": 10.0}

    # the command line wins over the config, here for kind
    out = tmp_path / "kind"
    assert run_cli("envelope", "--kind", "convex", "--config",
                   config("k", kind="lslc", corpus="clamp1d", points=21,
                          out=str(out))) == 0
    assert sorted(p.name for p in out.iterdir()) == ["clamp1d_convex.csv",
                                                      "clamp1d_convex.json"]


@pytest.mark.parametrize("content, message", [('{"func": 1}', "'func' is not a flag"),
                                              ('{"config": "x"}', "'config' is not a flag"),
                                              ('{"budget": "abc"}', "argument --budget")])
def test_config_keys_are_checked_as_flags(tmp_path, content, message, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert status("classify", "--corpus", "clamp1d", "--budget", "10",
                  "--config", str(cfg)) == 1
    assert message in capsys.readouterr().err


def test_config_budget_may_be_an_integral_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 1e5, "out": str(tmp_path)}))
    assert run_cli("laminate-check", "--corpus", "clamp1d", "--config", str(cfg)) == 0
    doc = json.loads((tmp_path / "laminate_clamp1d.json").read_text())
    assert doc["budget"] == 100_000


def test_envelope_lam_only_with_pasch_hausdorff(tmp_path, capsys):
    for kind in ("convex", "lslc", "lamination"):
        assert status("envelope", "--corpus", "clamp1d", "--kind", kind, "--lam", "5",
                      "--points", "21", "--out", str(tmp_path)) == 1
        assert "--lam applies to --kind pasch-hausdorff only" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert status("envelope", "--corpus", "clamp1d", "--kind", "pasch-hausdorff",
                  "--points", "21", "--out", str(tmp_path)) == 0
    out = load_csv(tmp_path / "clamp1d_pasch-hausdorff.csv")
    sf = sample(corpus_entry("clamp1d"), GridSpec((1, 1), 2.0, 21))
    assert np.array_equal(out.values, pasch_hausdorff(sf, 1.0).values)


def test_envelope_input_with_a_non_integer_sidecar_grid_size_exits_1(tmp_path, capsys):
    # a sidecar dims of [1.0, 1.0] died with a TypeError traceback
    assert run_cli("envelope", "--corpus", "clamp1d", "--kind", "lslc", "--radius", "2",
                   "--points", "21", "--out", str(tmp_path)) == 0
    sidecar = tmp_path / "clamp1d_lslc.json"
    sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), dims=[1.0, 1.0])))
    capsys.readouterr()
    assert status("envelope", "--input", str(tmp_path / "clamp1d_lslc.csv"),
                  "--kind", "convex", "--out", str(tmp_path)) == 1
    assert "dims" in capsys.readouterr().err
    assert not (tmp_path / "clamp1d_lslc_convex.csv").exists()


SIDECAR_FIELDS = ("dims", "radius", "points_per_axis", "outside_mode")


def _without(key):
    return lambda m: {k: v for k, v in m.items() if k != key}


@pytest.mark.parametrize("meta, field", [
    (lambda m: dict(m, dims=2), "dims"), (lambda m: dict(m, dims=[1]), "dims"),
    (lambda m: dict(m, radius=[2]), "radius"), (lambda m: [m], "sidecar"),
    (lambda m: dict(m, dims=[True, True]), "dims"),
    *[(_without(key), key) for key in SIDECAR_FIELDS]],
    ids=["dims-2", "dims-[1]", "radius-[2]", "list", "dims-[true,true]",
         *[f"no-{key}" for key in SIDECAR_FIELDS]])
def test_envelope_input_with_a_malformed_sidecar_exits_1_naming_the_field(tmp_path, capsys,
                                                                          meta, field):
    # dims 2, dims [true, true], radius [2] and a top-level list died with a
    # TypeError traceback; dims [1] printed "not enough values to unpack"; a
    # missing field printed a bare KeyError, "error: 'dims'"
    assert run_cli("envelope", "--corpus", "clamp1d", "--kind", "lslc", "--radius", "2",
                   "--points", "21", "--out", str(tmp_path)) == 0
    sidecar = tmp_path / "clamp1d_lslc.json"
    sidecar.write_text(json.dumps(meta(json.loads(sidecar.read_text()))))
    with pytest.raises(ValueError, match=field):
        load_csv(tmp_path / "clamp1d_lslc.csv")
    capsys.readouterr()
    assert status("envelope", "--input", str(tmp_path / "clamp1d_lslc.csv"),
                  "--kind", "convex", "--out", str(tmp_path)) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "clamp1d_lslc_convex.csv").exists()


def test_envelope_takes_one_source_and_no_grid_with_input(tmp_path):
    assert run_cli("envelope", "--corpus", "clamp1d", "--kind", "lslc", "--radius", "2",
                   "--points", "21", "--out", str(tmp_path)) == 0
    csv_path = str(tmp_path / "clamp1d_lslc.csv")
    assert status("envelope", "--corpus", "clamp1d", "--input", csv_path,
                  "--kind", "convex", "--out", str(tmp_path)) == 1
    assert run_cli("envelope", "--input", csv_path, "--radius", "2",
                   "--kind", "convex", "--out", str(tmp_path)) == 1
    assert not (tmp_path / "clamp1d_lslc_convex.csv").exists()


BAD_SCHEDULES = [("gamma1d", "2,nan"), ("gamma1d", "2,inf"), ("gamma1d", "0.5,2"),
                 ("gamma1d", "4,2"), ("gamma1d", ""), ("powerlaw", "2,inf"),
                 ("powerlaw", "2,nan")]


@pytest.mark.parametrize("command, schedule", BAD_SCHEDULES)
def test_bad_exponent_schedules_fail_naming_p_schedule(tmp_path, capsys, command, schedule):
    # an empty, non-finite, below-1 or non-increasing schedule is an error
    # in the library and exit 1 in the CLI, never a report
    ps = floats(schedule) if schedule else ()
    with pytest.raises(ValueError, match="p_schedule"):
        if command == "gamma1d":
            gamma_limit_experiment(corpus_entry("clamp1d"), 1.0, ps, FeOptions(cells=16))
        else:
            power_law_envelope(sample(corpus_entry("abs"), GridSpec((1, 1), 2.0, 41)), ps)
    if not schedule:  # the parser itself rejects an empty --p-schedule
        return
    setup = (("--corpus", "clamp1d", "--xi", "1.0", "--cells", "16") if command == "gamma1d"
             else ("--corpus", "abs", "--radius", "2", "--points", "41"))
    assert status(command, *setup, "--p-schedule", schedule, "--out", str(tmp_path)) == 1
    assert "p_schedule" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value, name", [("--xi", "nan", "xi"),
                                               ("--slope-bound", "nan", "slope_bound"),
                                               ("--slope-bound", "inf", "slope_bound"),
                                               ("--cells", "1", "cells")])
def test_bad_fe_settings_fail_naming_themselves(capsys, flag, value, name):
    # the later flag wins over the one in GAMMA1D
    assert status(*GAMMA1D, flag, value) == 1
    assert re.search(rf"\b{name}\b", capsys.readouterr().err)


BAD_SEARCH_SETTINGS = [
    (("classify", "--corpus", "abs", "--radius", "nan", "--budget", "2000"), "radius"),
    (("laminate-check", "--corpus", "abs", "--radius", "inf"), "radius"),
    (("envelope", "--corpus", "chi_det", "--radius", "nan", "--points", "5",
      "--kind", "convex"), "radius"),
    (("classify", "--corpus", "double_well_1d", "--tol", "nan"), "tol"),
    (("classify", "--corpus", "double_well_1d", "--tol", "inf"), "tol"),
    (("classify", "--corpus", "abs", "--budget", "0"), "budget"),
    (("classify", "--corpus", "abs", "--tol=-1"), "tol"),
    (("morrey-search", "--corpus", "abs", "--notion", "weak", "--budget", "0"), "budget"),
    (("morrey-search", "--corpus", "abs", "--notion", "weak", "--xi", "nan"), "xi"),
    (("morrey-search", "--corpus", "abs", "--notion", "periodic", "--xi", "inf"), "xi"),
    (("morrey-search", "--corpus", "abs", "--notion", "strong", "--radius", "nan"), "radius"),
    (("laminate-check", "--corpus", "abs", "--budget", "0"), "budget"),
    (("laminate-check", "--corpus", "abs", "--tol", "nan"), "tol"),
]


@pytest.mark.parametrize("argv, name", BAD_SEARCH_SETTINGS,
                         ids=[" ".join(argv[:1] + argv[3:]) for argv, _ in BAD_SEARCH_SETTINGS])
def test_bad_search_settings_exit_one_naming_themselves(tmp_path, argv, name):
    # each of these once ran without end, died with a traceback, wrote NaN
    # coordinates or reported a hollow "holds"; now each exits 1 at once
    proc = run_proc(*argv, "--out", str(tmp_path))
    assert proc.returncode == 1
    assert re.search(rf"\b{name}\b", proc.stderr)
    assert not any(tmp_path.iterdir())


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z0-9-]+)(?: list)?` \| (.*) \|$", readme, re.M))
    parser = build_parser()
    assert set(rows) == set(parser.commands)
    for name, sub in parser.commands.items():
        row = rows[name].replace("the `classify` flags", rows["classify"])
        documented = set(re.findall(r"--[a-z][a-z-]*", row))
        assert documented == set(sub._option_string_actions) - {"-h", "--help"}, name


SCIPY_PROBE = (
    "import sys\n"
    "from supcon.cli import main\n"
    "for argv in sys.argv[1:]:\n"
    "    assert main(argv.split()) == 0, argv\n"
    "print('scipy modules:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


def scipy_modules_after(*commands):
    """The scipy modules a fresh interpreter holds after running the commands."""
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *commands],
                          capture_output=True, text=True, check=True)
    line = proc.stdout.splitlines()[-1]
    assert line.startswith("scipy modules:"), proc.stdout
    return set(line.split()[2:])


def test_commands_import_scipy_only_for_what_they_use(tmp_path):
    # scipy is imported on first use (hulls), so the commands that build
    # none start without it; no command solves an LP
    assert scipy_modules_after(
        "corpus list",
        f"gamma1d --corpus clamp1d --xi 1.0 --cells 8 --p-schedule 2,4 --out {tmp_path}",
        "classify --corpus abs --budget 1000",
        f"envelope --corpus double_well_1d --kind convex --points 21 --out {tmp_path}",
        f"envelope --corpus double_well_1d --kind lslc --points 21 --out {tmp_path}",
        f"envelope --corpus arctan_det --kind lamination --points 5 --out {tmp_path}",
        f"envelope --corpus arctan_det --kind pasch-hausdorff --points 5 --out {tmp_path}",
        f"powerlaw --corpus clamp1d --points 21 --p-schedule 2,8 --out {tmp_path}",
        f"laminate-check --corpus abs --budget 500 --out {tmp_path}",
        f"morrey-search --corpus W_sup --notion strong --xi 0,0,0,0 --budget 500 "
        f"--out {tmp_path}") == set()
    loaded = scipy_modules_after(
        f"envelope --corpus arctan_det --kind convex --points 5 --out {tmp_path}",
        f"envelope --corpus arctan_det --kind lslc --points 5 --out {tmp_path}")
    assert "scipy.spatial" in loaded
    assert "scipy.optimize" not in loaded
