"""Every exported name and every benchmark-traced name resolves.

``perfbench/tracer.py`` binds its span wrappers with ``getattr`` on
``cvq.<module>``, so deleting or renaming a traced function breaks every
traced benchmark run; these tests catch that at test time.  The tracer
file is only parsed, never imported or edited.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cvq

MODULES = sorted(m.name for m in pkgutil.iter_modules(cvq.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"cvq.{name}")
    missing = [a for a in getattr(module, "__all__", []) if not hasattr(module, a)]
    assert not missing, f"cvq.{name}.__all__ names undefined {missing}"


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    missing = [
        f"{mod}.{attr}" for mod, attr in targets
        if not hasattr(importlib.import_module(f"cvq.{mod}"), attr)
    ]
    assert not missing, f"perfbench/tracer.py traces missing names {missing}"
