"""Every top-level function, class and constant of the package, and every
method and property of its classes, has a caller inside the package: code
that only tests use belongs under tests/. Every field of its dataclasses is
read inside the package, as an attribute. Every function parameter with a
default (a knob a caller may turn or leave alone) is listed with its reason.
Every config key is set by a shipped study, to more than one value across them.
Building the problems, u1's space-time quadrature and its load import no
scipy.special; only u1's exact solution does. Every name a module imports is
read in that module."""

import ast
import configparser
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import spacetime_hp
from spacetime_hp.cli import _KEYS, parse_config

SRC = Path(spacetime_hp.__file__).parent

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    "cli.main": "the command-line entry point",
    "__init__.__version__": "the package version",
    "temporal_hp.quasi_interpolant": "the H^1/2 error diagnostic of ROADMAP item 4 will call it",
    "temporal_hp.hp_condition_report": "the level report of ROADMAP item 1 will carry its warnings",
}

# dataclass fields kept without a reader in the package, each with its reason
UNREAD_FIELDS = {
    "problems.ManufacturedProblem.g": "the study benchmark reads it",
    "problems.ManufacturedProblem.u_exact": "the study benchmark reads it",
    "problems.ManufacturedProblem.du_dt_exact": "the study benchmark reads it",
    "metrics.StudyRecord.val_sq_elements": "the level report of ROADMAP item 1a will read it",
    "metrics.StudyRecord.der_sq_elements": "the level report of ROADMAP item 1a will read it",
}

# function parameters with a default, each with its reason
DEFAULTED = {
    "cli.run_study.log": "tests silence the per-level progress lines",
    "cli.main.argv": "None reads sys.argv; tests pass the arguments",
    "hilbert.assemble.multiplier": "the order-doubling checks of the transform matrices",
    "solver.SpaceTimeQuadrature.__init__.order_mult": "the order-doubling checks of the error",
    "temporal_hp.hp_condition_report.delta": "a constant of the slope condition; tests vary it",
    "temporal_hp.hp_condition_report.eps": "a constant of the slope condition; tests vary it",
}

# config keys that the shipped studies set to one value, each with its reason
SINGLE_VALUED_KEYS = {
    ("spatial", "export_meshes"): "an output switch that one study turns on",
}


def _defined(stmt):
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _definitions():
    """(qualified name, node) of each top-level definition of the package and
    of each method and property of its classes, dunders excepted."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for name in _defined(stmt):
                yield f"{path.stem}.{name}", stmt
            if isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ):
                        yield f"{path.stem}.{stmt.name}.{sub.name}", sub


def _reads(node):
    """How often each name is read below node, as a plain name or attribute."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def test_every_definition_has_a_caller():
    reads = sum((_reads(ast.parse(path.read_text())) for path in SRC.glob("*.py")), Counter())
    unused = []
    for qualified, node in _definitions():
        # a definition counts as called if its name is read outside its own code
        name = qualified.rsplit(".", 1)[1]
        if reads[name] == _reads(node)[name] and qualified not in ALLOWED:
            unused.append(qualified)
    assert unused == []


def test_allowlist_is_current():
    assert set(ALLOWED) <= {qualified for qualified, _ in _definitions()}


def _imported(tree):
    """Names the import statements below tree bind."""
    for sub in ast.walk(tree):
        if isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                yield alias.asname or alias.name.split(".")[0]


def test_every_import_is_read():
    # an imported name counts as read if it is loaded as a name, which the
    # base of an attribute also is
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in _imported(tree) if name not in loaded]
    assert unread == []


def _dataclass_fields():
    """Qualified names of the fields of the package's dataclasses."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in stmt.decorator_list]
            if any(getattr(d, "id", None) == "dataclass" for d in decorators):
                for sub in stmt.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        yield f"{path.stem}.{stmt.name}.{sub.target.id}"


def test_every_dataclass_field_is_read():
    # a field counts as read if some attribute read in the package has its name
    read = {
        sub.attr
        for path in SRC.glob("*.py")
        for sub in ast.walk(ast.parse(path.read_text()))
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    unread = [q for q in _dataclass_fields() if q.rsplit(".", 1)[1] not in read]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


def _defaulted(node, prefix):
    """Qualified names of the parameters with a default of every function
    below node."""
    for child in ast.iter_child_nodes(node):
        name = getattr(child, "name", None)
        qualified = f"{prefix}.{name or '<lambda>'}"
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = child.args
            positional = args.posonlyargs + args.args
            yield from (f"{qualified}.{a.arg}" for a in positional[len(positional) - len(args.defaults) :])
            kw = zip(args.kwonlyargs, args.kw_defaults)
            yield from (f"{qualified}.{a.arg}" for a, default in kw if default is not None)
        yield from _defaulted(child, qualified if name else prefix)


def test_every_defaulted_parameter_is_listed():
    # a new default needs an entry, and an entry whose parameter is gone goes
    found = [q for path in sorted(SRC.glob("*.py")) for q in _defaulted(ast.parse(path.read_text()), path.stem)]
    assert sorted(found) == sorted(DEFAULTED)


def test_every_config_key_is_varied_by_the_shipped_studies():
    # a key no study sets, or that every study sets alike, is a constant
    values = defaultdict(set)
    for path in sorted((SRC.parents[1] / "scripts").glob("*.cfg")):
        text = path.read_text()
        cfg = parse_config(text)
        written = configparser.ConfigParser()
        written.read_string(text)
        for section in written.sections():
            for key in written[section]:
                values[section, key].add(getattr(cfg, _KEYS[section, key][0]))
    unvaried = {key for key in _KEYS if len(values[key]) < 2}
    assert unvaried == set(SINGLE_VALUED_KEYS)
    assert all(values[key] for key in SINGLE_VALUED_KEYS)


def test_building_the_problems_leaves_scipy_special_unimported():
    # only u1's exact solution imports scipy.special: importing the CLI,
    # building every problem, u1's space-time quadrature and its load must
    # not pay for it, and the first evaluation of u1's exact solution does
    code = (
        "import sys, spacetime_hp.cli\n"
        "from spacetime_hp.hilbert import assemble\n"
        "from spacetime_hp.problems import PROBLEMS, get_problem\n"
        "from spacetime_hp.solver import SpaceTimeQuadrature, project_rhs\n"
        "from spacetime_hp.spatial_fem import assemble_spatial, uniform_interval_mesh\n"
        "from spacetime_hp.temporal_hp import make_basis, uniform_mesh\n"
        "problems = [get_problem(name) for name in PROBLEMS]\n"
        "print('scipy.special' in sys.modules)\n"
        "basis = make_basis(uniform_mesh(2.0, 2, 2))\n"
        "sx = assemble_spatial(uniform_interval_mesh((0, 1), 4))\n"
        "project_rhs(SpaceTimeQuadrature(get_problem('u1'), basis, sx), assemble(basis), sx)\n"
        "print('scipy.special' in sys.modules)\n"
        "get_problem('u1').u_exact(0.5, [0.5])\n"
        "print('scipy.special' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "False", "True"]
