"""Every exported name resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

import pytest

import seqsynth

# __main__ runs the command line when imported
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(seqsynth.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"seqsynth.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from seqsynth import *", namespace)
    assert "synthesize_batch" in namespace
