"""Run every module's doctests under pytest."""

import doctest
import importlib
import pkgutil

import pytest

import chevalley_chow

# found, not listed, so that no module's doctests are ever skipped
MODULES = [chevalley_chow, *(importlib.import_module(f"chevalley_chow.{info.name}")
                             for info in pkgutil.iter_modules(chevalley_chow.__path__))]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(mod):
    result = doctest.testmod(mod, verbose=False)
    assert result.failed == 0
