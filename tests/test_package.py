"""Every top-level function, class and constant of the package has a caller
inside the package: code that only tests use belongs under tests/."""

import ast
from pathlib import Path

import spacetime_hp

SRC = Path(spacetime_hp.__file__).parent

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    "cli.main": "the command-line entry point",
    "__init__.__version__": "the package version",
    "temporal_hp.quasi_interpolant": "the H^1/2 error diagnostic of ROADMAP item 4 will call it",
    "temporal_hp.hp_condition_report": "the level report of ROADMAP item 1 will carry its warnings",
    "metrics.error_functional": "the error surrogate of one solution, used by criterion 9",
    "solver.solve_parametric_ivp": "the scalar model problem of criterion 5",
}


def _defined(stmt):
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _used(node):
    """Names read anywhere below node, as plain names or attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_definition_has_a_caller():
    statements = [
        (path.stem, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    unused = []
    for module, stmt in statements:
        # a definition counts as called if any other top-level statement reads it
        others = set().union(*(_used(other) for _, other in statements if other is not stmt))
        unused += [
            f"{module}.{name}"
            for name in _defined(stmt)
            if name not in others and f"{module}.{name}" not in ALLOWED
        ]
    assert unused == []


def test_allowlist_is_current():
    defined = {
        f"{path.stem}.{name}"
        for path in SRC.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        for name in _defined(stmt)
    }
    assert set(ALLOWED) <= defined
