"""The package imports only the standard library, numpy and yaml.

Test-only tools (hypothesis, pytest and its plugins) and anything else a
user would have to install must not be needed to import `trajscope`.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trajscope"
ALLOWED = {"numpy", "yaml", "trajscope"}


def imported_modules(path: Path) -> list[str]:
    """The top-level package of every import in a file; relative imports are trajscope."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("trajscope" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_the_standard_library_numpy_and_yaml(path) -> None:
    outside = [
        name for name in imported_modules(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED
    ]
    assert outside == [], f"{path.name} imports {outside}"


def test_the_import_guard_sees_third_party_imports(tmp_path) -> None:
    module = tmp_path / "m.py"
    module.write_text("import os\nimport hypothesis.strategies\nfrom pytest_benchmark import x\nfrom . import y\n")
    assert imported_modules(module) == ["os", "hypothesis", "pytest_benchmark", "trajscope"]
