"""Every name a module lists in __all__ exists: a star import of each module
fails on a name left behind after its definition is deleted."""

import pkgutil

import pytest

import dyadbloom

# __main__ is the `python -m dyadbloom` entry point and exports nothing
MODULES = ["dyadbloom"] + [
    f"dyadbloom.{m.name}" for m in pkgutil.iter_modules(dyadbloom.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})

