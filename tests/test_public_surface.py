"""The package's public surface: every declared name exists and is read
outside its own tests, the package re-exports only what its modules declare
public, every error type is raised somewhere and exported, the verifier's
report classes keep the fields the benchmark reads, and the hand-written
source stays under its line ceiling."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import conelab
from conelab import errors, verifier

SRC = Path(conelab.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _lazy_names():
    """The names `conelab.__getattr__` resolves on first use, among every name
    a module of the package binds."""
    resolved = set()
    for module in MODULES:
        for name in vars(importlib.import_module(f"conelab.{module}")):
            try:
                conelab.__getattr__(name)
            except AttributeError:
                continue
            resolved.add(name)
    return resolved


def _package_imports():
    """(module, name) for every name conelab/__init__.py imports from a module,
    and ("solver", name) for every name it resolves on first use."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names] + [("solver", name) for name in sorted(_lazy_names())]


@pytest.mark.parametrize("module", MODULES)
def test_every_declared_name_exists(module):
    mod = importlib.import_module(f"conelab.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_the_package_exports_only_declared_names():
    imports = _package_imports()
    assert imports
    undeclared = [(module, name) for module, name in imports
                  if name not in importlib.import_module(f"conelab.{module}").__all__]
    assert not undeclared


def test_the_package_resolves_each_solver_name_on_first_use():
    # the leapfrog module loads with the first evolution or counterexample;
    # conelab.solve and `from conelab import solve` still reach its names
    from conelab import solver

    assert _lazy_names() == set(solver.__all__)
    for name in solver.__all__:
        assert getattr(conelab, name) is getattr(solver, name)
    for name in ("solver", "cli", "MAX_STORED_SLICES", "_stored_steps", "exact_spherical_wave"):
        with pytest.raises(AttributeError, match=name):
            conelab.__getattr__(name)


def test_every_error_is_raised_and_exported():
    source = "\n".join(p.read_text() for p in SRC.glob("*.py"))
    subclasses = [obj for obj in vars(errors).values()
                  if isinstance(obj, type) and issubclass(obj, errors.ConelabError)
                  and obj is not errors.ConelabError]
    assert len(subclasses) > 10
    exported = {name for module, name in _package_imports() if module == "errors"}
    for cls in subclasses:
        assert re.search(rf"raise {cls.__name__}\b", source), cls.__name__
        assert cls.__name__ in exported and getattr(conelab, cls.__name__) is cls
    assert "ConelabError" in exported


# The report fields the benchmark step (perfbench/child.py) reads; without
# this check only a full benchmark run would notice one going missing.
BENCHMARK_FIELDS = {
    "IdentityReport": {"rel_residual"},
    "PointwiseReport": {"passed", "mode", "margin_min"},
    "NlChainReport": {"passed", "gamma_min", "gamma_max", "margin"},
}


@pytest.mark.parametrize("report", sorted(BENCHMARK_FIELDS))
def test_the_reports_keep_the_fields_the_benchmark_reads(report):
    fields = {f.name for f in dataclasses.fields(getattr(verifier, report))}
    assert BENCHMARK_FIELDS[report] <= fields


# The methods the benchmark's traced run wraps through `vars(cls)[name]`
# (perfbench/tracer.py): inherited or renamed, they would escape the trace.
TRACED_METHODS = {
    "AnalyticField": {"derivs1", "derivs2"},
    "SplineEval": {"value", "derivs1", "derivs2"},
}


@pytest.mark.parametrize("cls", sorted(TRACED_METHODS))
def test_the_traced_methods_are_defined_on_their_classes(cls):
    from conelab import fields

    assert TRACED_METHODS[cls] <= set(vars(getattr(fields, cls)))


# A public name must be read: by another module of the package, by the
# benchmark (which also names traced attributes as strings) or by the
# acceptance criteria.  A name only its own tests reach is dead code, and
# a route that only tests run belongs in tests/_oracles.py.
ROOT = Path(__file__).resolve().parents[1]
UNREAD_BY_DESIGN = {}


def _reads():
    """Every name read in the package's modules, the benchmark's scripts and
    the acceptance tests: AST names, attributes and imported names, plus the
    identifier strings of the benchmark."""
    benchmark = sorted((ROOT / "perfbench").glob("*.py"))
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    names = set()
    for path in files + benchmark + [ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif (path in benchmark and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and node.value.isidentifier()):
                names.add(node.value)
    return names


def test_every_public_name_is_read_outside_its_tests():
    reads = _reads()
    unread = {(module, name) for module in MODULES
              for name in getattr(importlib.import_module(f"conelab.{module}"), "__all__", ())
              if name not in reads}
    assert unread == set(UNREAD_BY_DESIGN)


def _conelab_imports(module):
    """The conelab modules a module of the package imports, at any level of
    its source (function bodies included): relative imports by their module
    name, absolute ones by their full dotted name."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found.update(name for name in names if name.split(".")[0] == "conelab")
    return found


def test_quadrature_imports_only_errors_and_geometry():
    # the rules integrate point functions; currents hand them their flux
    # contractions, so quadrature needs nothing of currents or fields
    assert _conelab_imports("quadrature") == {"errors", "geometry"}
    assert {"quadrature", "errors"} <= _conelab_imports("verifier")


# Lines of hand-written source: every module of the package but the
# generated `_forms.py`.  A change that adds lines raises the ceiling with a
# CHANGES.md line that says why, so each change shows its line delta.
SOURCE_LINE_CEILING = 4314


def test_every_rate_is_one_log_log_fit():
    # verifier.log_slope is the only least-squares fit: the identity order,
    # the limit and pipeline slopes and the counterexample's tail read it
    calls = sum(p.read_text().count("polyfit") for p in SRC.glob("*.py") if p.name != "_forms.py")
    assert calls == 1
    assert "polyfit" in inspect.getsource(verifier.log_slope)


def test_hand_written_source_stays_under_its_line_ceiling():
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py") if p.name != "_forms.py")
    assert lines <= SOURCE_LINE_CEILING, lines
