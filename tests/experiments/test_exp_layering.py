"""Layering: ``repro.report`` builds on ``repro.experiments``, never the reverse."""

from __future__ import annotations

import ast
import pathlib

import repro.experiments

PACKAGE_DIR = pathlib.Path(repro.experiments.__file__).parent


def imported_modules(path: pathlib.Path):
    """Absolute names of every module (and ``from`` target) ``path`` imports."""
    package = ["repro", "experiments"]
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package[: len(package) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def test_experiments_never_imports_report():
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in imported_modules(path)
        if name == "repro.report" or name.startswith("repro.report.")
    ]
    assert offenders == []
