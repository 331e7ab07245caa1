"""Layering guard: the package never imports the test or benchmark trees.

The solver oracles live under ``tests/oracles`` and the benchmark helpers
under ``benchmarks/``; they check the production code from outside, so
an import the other way would ship test code in the package (and break
it wherever ``tests`` is not importable).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
FORBIDDEN = {"tests", "benchmarks"}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


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
