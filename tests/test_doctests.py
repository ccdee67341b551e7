"""The docstring examples of every coxwide module."""

import doctest
import importlib
import pkgutil

import pytest

import coxwide

MODULES = sorted(m.name for m in pkgutil.iter_modules(coxwide.__path__,
                                                       "coxwide."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name

