"""Every name a module lists in __all__ exists: a star import of each module
fails on a name left behind after its definition is deleted.  No module
imports a sibling's private names."""

import ast
import pkgutil
from pathlib import Path

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



def test_no_module_imports_a_private_name_from_a_sibling():
    # a module's underscore names are its own: a sibling that needs one
    # should get a public name, or the code should move to its owner
    package = Path(dyadbloom.__file__).parent
    private = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "dyadbloom"
            ):
                names = [a.name for a in node.names if a.name.startswith("_")]
                if names:
                    private.setdefault(path.stem, []).extend(names)
    assert private == {}
