"""Rewrite ``tests/report_digests.json``, the digests of the 132 classify
reports that ``tests/test_report_digests.py`` checks, and print each key
whose digest moved (or appeared, or went away).  Run it from the repository
root after a change that moves a report on purpose:

    python tools/report_digests.py

Name each printed key and its cause in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_report_digests import TABLE, report_digests  # noqa: E402


def main() -> int:
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    new = report_digests()
    TABLE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    moved = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for key in moved:
        print(f"{key}: {old.get(key, 'none')} -> {new.get(key, 'none')}")
    print(f"{len(moved)} of {len(new)} digests moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
