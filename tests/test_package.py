"""The package namespace re-exports every public name of its submodules."""

import importlib
import pkgutil

import pytest

import aoiclock

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(aoiclock.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_is_exported(name):
    module = importlib.import_module(f"aoiclock.{name}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if n not in aoiclock.__all__] == []
    assert [n for n in names if getattr(aoiclock, n, None) is not getattr(module, n)] == []


def test_package_all_resolves():
    assert [n for n in aoiclock.__all__ if not hasattr(aoiclock, n)] == []
