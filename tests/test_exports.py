"""Public names: every name a module exports exists and is listed once."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import persuade as P
from corpus import perfbench

MODULES = ["persuade"] + [f"persuade.{m.name}" for m in pkgutil.iter_modules(P.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_each_existing_name_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [x for x in exported if not hasattr(module, x)] == []
    assert len(exported) == len(set(exported))


def test_every_name_the_benchmark_traces_exists():
    # The benchmark's tracer skips a name it cannot find, so its per-layer
    # metric would go missing without an error here.
    missing = []
    for module_name, attr, _, _ in perfbench("tracing").TARGETS:
        owner = importlib.import_module(f"persuade.{module_name}")
        for part in attr.split("."):  # "Class.method" is looked up on its class
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
