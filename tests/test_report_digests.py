"""The committed answers: a digest of every classify report of the corpus.

132 reports: the 11 corpus entries at seeds 20240817, 12345 and 7 and
budgets 20,000 and 100,000, each with its special points and blind (special
points emptied, as ``test_blind_suite.py`` builds them).  A digest is the
first 16 hex digits of the sha256 of the report's sorted-key JSON, without
its ``timestamp``.  ``report_digests.json`` holds them, keyed
``budget/seed/entry/special|blind``.  A change that moves a report on purpose
regenerates the table with ``python tools/report_digests.py``, which prints
the moved keys.  The 132 reports take about 2.5 s on a 2-core x86 machine.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from supcon.classify import ClassifyConfig, classify_report
from supcon.funcspace import corpus_entry, corpus_names

TABLE = Path(__file__).with_name("report_digests.json")
SEEDS = (20240817, 12345, 7)
BUDGETS = (20_000, 100_000)


def report_digests() -> dict[str, str]:
    """Every report's digest, keyed ``budget/seed/entry/special|blind``."""
    out = {}
    for budget in BUDGETS:
        for seed in SEEDS:
            cfg = ClassifyConfig(budget=budget, seed=seed)
            for name in corpus_names():
                entry = corpus_entry(name)
                for kind, e in (("special", entry),
                                ("blind", dataclasses.replace(entry, special_points=()))):
                    doc = classify_report(e, cfg).to_dict()
                    doc.pop("timestamp")
                    text = json.dumps(doc, sort_keys=True).encode()
                    out[f"{budget}/{seed}/{name}/{kind}"] = hashlib.sha256(text).hexdigest()[:16]
    return out


def test_every_report_matches_its_committed_digest():
    want = json.loads(TABLE.read_text())
    got = report_digests()
    assert len(got) == 132
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not moved, f"moved reports: {moved}"
