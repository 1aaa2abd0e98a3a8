"""Every package's ``__all__`` names only what the package defines.

A name left in ``__all__`` after its definition is deleted breaks
``from repro.<pkg> import *`` and misleads readers of the public API,
so ``repro`` and each of its subpackages are checked both ways.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def test_every_subpackage_is_checked():
    assert "repro.ml" in PACKAGES and "repro.tabular" in PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_succeeds(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)
