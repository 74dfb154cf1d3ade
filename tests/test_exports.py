"""Every name a module lists in __all__ exists: a star import of each module
fails on a name left behind after its definition is deleted.  No module
imports a sibling's private names, and every top-level name is read
somewhere in the package besides its own definition.  The names the
benchmark's tracer wraps, and the parser it reads, still resolve."""

import ast
import argparse
import importlib
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


def _defined(stmt: ast.stmt) -> list[str]:
    # the names a top-level statement binds, dunders aside
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _read(stmt: ast.stmt) -> set[str]:
    # the names a statement reads: loads, attributes and from-imports
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def test_every_top_level_name_is_read_besides_its_definition():
    # a refactor that leaves a helper, constant or class no code reads
    # fails here; a public name counts as read where the package imports it
    package = Path(dyadbloom.__file__).parent
    stmts = [(path.name, stmt) for path in sorted(package.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    reads = [_read(stmt) for _, stmt in stmts]
    unread = [f"{module}: {name}" for i, (module, stmt) in enumerate(stmts)
              for name in _defined(stmt)
              if not any(name in r for j, r in enumerate(reads) if j != i)]
    assert unread == []


# the (module, name) pairs of perfbench/tracing.py's WRAPPED table that
# resolve in the package: the tracer skips a name a module no longer has,
# so a rename would read as a layer metric of zero instead of failing
_TRACED = {
    ("grid", "analyze_leaves"), ("grid", "synthesize_leaves"), ("grid", "level_masses"),
    ("weights", "generate"), ("weights", "_generate_once"), ("weights", "a2_characteristic"),
    ("operators", "expansion_terms"), ("operators", "remainder_closed_form"),
    ("normest", "necessity_restriction_ratios"),
    ("normest", "necessity_test_function_bound"),
    ("stopping", "minimal_packing_constant"), ("stopping", "minimal_corona_constant"),
    ("stopping", "maximal_stopping_intervals"),
    ("suites", "make_trial"),
    ("serialize", "load_step_function"), ("serialize", "load_weight"),
    ("serialize", "read_json"), ("serialize", "write_json"),
    ("serialize", "save_step_function"),
    ("normest", "compute_norm_report"),
}


def test_the_names_the_benchmark_traces_resolve():
    # read, not imported: the table is parsed from the tracer's source
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (table,) = [stmt.value for stmt in ast.parse(source.read_text()).body
                if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in stmt.targets)]
    wrapped = {(module, name) for _, module, names in ast.literal_eval(table) for name in names}
    assert len(_TRACED) == 20 and _TRACED <= wrapped
    missing = [f"{module}.{name}" for module, name in sorted(_TRACED)
               if not callable(getattr(importlib.import_module(f"dyadbloom.{module}"), name, None))]
    assert missing == []


def test_build_parser_returns_a_new_parser_with_norms():
    # the norms-d12 workload reads the norms subcommand's options off a
    # parser of its own, so build_parser must not hand back a shared one
    from dyadbloom import cli

    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert "--mu" in sub.choices["norms"]._option_string_actions
