"""Every exported name of the package resolves.

An ``__all__`` entry left behind by a deletion or rename breaks
``from nearfield import *`` and misleads readers of the API, so each one
must name an attribute of its module.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import nearfield

MODULES = ["nearfield"] + [
    f"nearfield.{info.name}" for info in pkgutil.iter_modules(nearfield.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", ["nearfield", "nearfield.special"])
def test_chi_polynomial_is_gone(name):
    module = importlib.import_module(name)
    assert not hasattr(module, "ChiPolynomial")
    assert "ChiPolynomial" not in module.__all__
