"""Guards on the package surface: every exported name exists, and the
benchmark's traced run (perfbench/run.py --trace 1) can wrap every call
site it names, so deleting a name it uses fails here first."""

import importlib
import os
import pkgutil
import sys

import genus4census

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from bench_step import layer_targets  # noqa: E402
from bench_trace import Tracer  # noqa: E402


def test_all_names_resolve():
    exported = 0
    for info in pkgutil.iter_modules(genus4census.__path__):
        mod = importlib.import_module(f"genus4census.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            exported += 1
    assert exported > 0


def test_layer_targets_build():
    targets = layer_targets(Tracer(), None)
    assert targets
    for mod, attr, wrapped in targets:
        assert wrapped.__wrapped__ is getattr(mod, attr), (mod.__name__, attr)
