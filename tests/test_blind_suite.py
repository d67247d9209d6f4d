"""Classify blind: every corpus entry with its special points emptied.

With special points, almost every violation the bench sees comes from the
special-point batteries, so the seeded streams decide no record and the
seed moves nothing.  Blind, every violation comes from a sampled stream
(the coarse grid, Halton pairs, two-gradient candidates or the strong
search's random affine directions), so this suite is what guards the report's
shared store: each report must equal, bit for bit, the report that draws
and scores everything afresh, every violation must replay, and the
level-convex witnesses of ``W_sup`` and ``arctan_det`` must move with the
seed.  At budget 20,000 each seed finds the same 11 violations blind, each
a documented failure (``BLIND_VIOLATIONS``); the 66 reports
of the suite (11 entries, three seeds, shared and afresh) take about 0.6 s on
a 2-core x86 machine.

The other side is the answer key (``BATTERY_ONLY``, the same table as
README's): the documented failures that only the special-point battery
finds at budget 1e5, each with the special point or pair that decides it.
"""

import contextlib
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from supcon import classify
from supcon.classify import ClassifyConfig, classify_report, replay_witness
from supcon.funcspace import corpus_entry, corpus_names

SEEDS = (20240817, 12345, 7)
BUDGET = 20_000


#: Every violation the blind suite finds, on every seed: all documented failures.
BLIND_VIOLATIONS = {
    **{name: set() for name in corpus_names()},
    **{name: {"level_convex"} for name in ("W_sup", "arctan_det", "chi_det", "chi_det_open")},
    "double_well_1d": {"level_convex", "rank_one", "polyquasiconvex", "weak_morrey",
                       "periodic_weak_morrey", "strong_morrey", "curl_young_laminates"},
}


def _without_timestamp(rep):
    doc = rep.to_dict()
    doc.pop("timestamp")
    return doc


@pytest.mark.parametrize("name", corpus_names())
def test_blind_reports_share_nothing_they_would_not_draw_afresh(name, monkeypatch):
    entry = dataclasses.replace(corpus_entry(name), special_points=())
    shared = {seed: classify_report(entry, ClassifyConfig(budget=BUDGET, seed=seed))
              for seed in SEEDS}
    for seed, rep in shared.items():
        violated = {notion for notion, v in rep.verdicts.items() if v.violated}
        assert violated == BLIND_VIOLATIONS[name], seed
        assert not any(entry.documented_properties[notion] for notion in violated)
        for notion, v in rep.verdicts.items():
            if v.violated:
                assert abs(replay_witness(entry, v.witness) - v.witness["gap"]) <= 1e-12, \
                    (seed, notion)

    monkeypatch.setattr(classify, "_shared_halton", contextlib.nullcontext)
    for seed, rep in shared.items():
        fresh = classify_report(entry, ClassifyConfig(budget=BUDGET, seed=seed))
        assert _without_timestamp(fresh) == _without_timestamp(rep), seed


@pytest.mark.parametrize("name", ["W_sup", "arctan_det"])
def test_blind_level_convex_witnesses_move_with_the_seed(name):
    # no special pair decides these: the seed reaches the Halton pair stream
    entry = dataclasses.replace(corpus_entry(name), special_points=())
    witnesses = []
    for seed in SEEDS:
        v = classify_report(entry, ClassifyConfig(budget=BUDGET, seed=seed)).verdicts
        assert v["level_convex"].violated, seed
        witnesses.append(v["level_convex"].witness)
    assert all(a != b for i, a in enumerate(witnesses) for b in witnesses[i + 1:])


#: The special points that decide the answer key, by their README label.
POINTS = {"I": np.eye(2), "e11": np.diag([1.0, 0.0]), "-e11": np.diag([-1.0, 0.0]),
          "0": np.zeros((2, 2))}

#: The answer key: every documented failure that classify finds at budget 1e5
#: with the special points and misses blind, with the special point or pair
#: its witness uses.  Each lives on a null set (a closed threshold, a pair of
#: matrices), so no sampled stream can find it.
BATTERY_ONLY = {
    ("chi_det", "strong_morrey"): ("I",),
    ("half_space_chi", "strong_morrey"): ("e11",),
    **{("one_minus_chi_pair", notion): ("e11", "-e11")
       for notion in ("level_convex", "rank_one", "polyquasiconvex", "curl_young_laminates")},
    **{("one_minus_chi_pair", notion): ("0",)
       for notion in ("periodic_weak_morrey", "strong_morrey")},
}

#: The points of a witness: the pair of a segment or two-atom measure, the
#: probe point xi of a field.
WITNESS_POINTS = {
    "segment": lambda w: [w["xi"], w["eta"]],
    "minor-combination": lambda w: w["points"],
    "measure": lambda w: [atom for atom, _ in w["atoms"]],
    "affine-field": lambda w: [w["xi"]],
    "two-gradient-field": lambda w: [w["xi"]],
}


@pytest.mark.parametrize("seed", SEEDS)
def test_the_battery_alone_finds_exactly_the_answer_key(seed):
    found = set()
    for name in corpus_names():
        entry = corpus_entry(name)
        seen = classify_report(entry, ClassifyConfig(budget=100_000, seed=seed)).verdicts
        blind = classify_report(dataclasses.replace(entry, special_points=()),
                                ClassifyConfig(budget=100_000, seed=seed)).verdicts
        for notion, v in seen.items():
            if v.violated and not blind[notion].violated:
                found.add((name, notion))
                assert entry.documented_properties[notion] is False, (name, notion)
                want = [POINTS[label] for label in BATTERY_ONLY.get((name, notion), ())]
                assert np.array_equal(WITNESS_POINTS[v.witness["kind"]](v.witness), want), \
                    (name, notion)
    assert found == set(BATTERY_ONLY)


def test_readme_answer_key_matches_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (`[^|]*`) \| [^|]* \|$", readme, re.M)
    assert {(name, notion): tuple(re.findall(r"`([^`]*)`", points))
            for name, notion, points in rows} == BATTERY_ONLY
