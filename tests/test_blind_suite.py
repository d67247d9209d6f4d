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
"""

import contextlib
import dataclasses

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
