"""Every exported name of the package resolves.

An ``__all__`` entry left behind by a deletion or rename breaks
``from nearfield import *`` and misleads readers of the API, so each one
must name an attribute of its module.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import nearfield

from test_wronskian import INTEGER_ARGUMENTS

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


# parameter names that hold a degree, an order or a count
INTEGER_PARAMETERS = {
    "l", "j", "m", "s", "l_max", "s_max", "order", "n_terms", "power", "n_channels",
}


# result records: the constructor stores the degrees a checked function was
# given, and nothing reads them back
RECORDS = {"IntegralCheckReport"}


def _public_callables(module):
    """The public functions of ``module``, and the constructor and public methods of its classes."""
    for attr in module.__all__:
        value = getattr(module, attr)
        if not inspect.isclass(value):
            if callable(value):
                yield value
            continue
        if not issubclass(value, BaseException) and attr not in RECORDS:
            yield value
        for name, member in vars(value).items():
            if not name.startswith("_") and inspect.isfunction(member):
                yield member


def test_every_integer_parameter_is_in_the_integer_table():
    # a new public function, constructor or method with a degree, order or
    # count must join the table of tests/test_wronskian.py, which holds it
    # to the one integer rule
    covered = {(function, parameter) for function, parameter, *_ in INTEGER_ARGUMENTS}
    public = ["nearfield"] + [
        f"nearfield.{info.name}"
        for info in pkgutil.iter_modules(nearfield.__path__)
        if not info.name.startswith("_")
    ]
    missing = set()
    for name in public:
        for function in _public_callables(importlib.import_module(name)):
            for parameter in inspect.signature(function).parameters:
                if parameter in INTEGER_PARAMETERS and (function, parameter) not in covered:
                    missing.add(f"{function.__module__}.{function.__qualname__}({parameter})")
    assert not missing, f"integer parameters missing from INTEGER_ARGUMENTS: {sorted(missing)}"
