"""Every binding the benchmark's tracer wraps must exist on ``supcon``.

``perfbench/tracer.py`` replaces functions by (module, attribute) name; a
refactor that moves or drops one of those names breaks ``--trace 1``.  The
tracer module is loaded without writing bytecode and nothing is installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up here
    try:
        with mock.patch.object(sys, "dont_write_bytecode", True):
            spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


@pytest.mark.parametrize("where, attr", [b for t in _targets() for b in t.bindings])
def test_tracer_binding_resolves(where, attr):
    module, _, cls = where.partition(".")
    owner = importlib.import_module(f"supcon.{module}")
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), f"supcon.{where}.{attr}"
