"""The package's public API is the ``__all__`` of each library module."""

import importlib
import types

import pytest

import torusreg

MODULES = ("errors", "torus", "operators", "functionals", "solvers", "bregman", "vsc", "harness",
           "config")


def module_all(name):
    return importlib.import_module(f"torusreg.{name}").__all__


@pytest.mark.parametrize("module", MODULES)
def test_each_listed_name_is_the_package_name(module):
    owner = importlib.import_module(f"torusreg.{module}")
    for name in module_all(module):
        assert getattr(torusreg, name) is getattr(owner, name), name


def test_the_package_exports_no_other_name():
    listed = {name for module in MODULES for name in module_all(module)}
    extra = {name for name in vars(torusreg) if not name.startswith("_")} - listed
    assert all(isinstance(getattr(torusreg, name), types.ModuleType) for name in extra), extra
    # internal to the spectral route, importable from the module only
    assert not {"spectral_chain", "spectral_constants", "spectral_reports"} & set(vars(torusreg))
