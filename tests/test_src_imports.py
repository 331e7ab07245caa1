"""Layering guards over the package's imports.

The solver oracles live under ``tests/oracles`` and the benchmark helpers
under ``benchmarks/``; they check the production code from outside, so
an import the other way would ship test code in the package (and break
it wherever ``tests`` is not importable).

Inside the package, the pipeline layers (``core``, ``gpusim``,
``capacity``) never import the orchestration layers built on them
(``experiments``, ``sweep``, ``fleet``, ``service``).  The one store slot
in ``repro.core.store`` is what lets a pipeline layer persist artifacts
without such an import.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
FORBIDDEN = {"tests", "benchmarks"}

#: Package directory -> packages its modules may not import.
_ORCHESTRATION = ("repro.experiments", "repro.sweep", "repro.fleet", "repro.service")
LAYER_RULES = {"core": _ORCHESTRATION, "gpusim": _ORCHESTRATION, "capacity": _ORCHESTRATION}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # ``from repro import experiments`` names the package it imports.
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_src_never_imports_tests_or_benchmarks():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the walk really covers the package
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports {name}"
        for path in modules
        for lineno, name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] in FORBIDDEN
    ]
    assert offenders == []


def test_pipeline_layers_never_import_orchestration():
    offenders = []
    for package, forbidden in LAYER_RULES.items():
        modules = sorted((SRC / package).rglob("*.py"))
        assert modules, package
        offenders += [
            f"{path.relative_to(SRC.parent)}:{lineno} imports {name}"
            for path in modules
            for lineno, name in _imported_modules(ast.parse(path.read_text(), str(path)))
            if any(name == f or name.startswith(f + ".") for f in forbidden)
        ]
    assert offenders == []
