"""Every name a ``supcon`` module lists in ``__all__`` must exist.

``from supcon.classify import *`` raises on a stale entry only when it runs;
a refactor that deletes a public name and leaves it in ``__all__`` passes
every test that imports names one by one.
"""

import importlib
import pkgutil

import pytest

import supcon

MODULES = sorted(m.name for m in pkgutil.iter_modules(supcon.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"supcon.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"supcon.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"supcon.{name}.__all__ lists missing names {missing}"
    namespace = {}
    exec(f"from supcon.{name} import *", namespace)
    assert set(exported) <= set(namespace)
