"""Public names: every name a module exports exists and is listed once."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import persuade as P

MODULES = ["persuade"] + [f"persuade.{m.name}" for m in pkgutil.iter_modules(P.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_each_existing_name_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [x for x in exported if not hasattr(module, x)] == []
    assert len(exported) == len(set(exported))
