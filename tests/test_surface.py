"""The library surface: the README's list of supported names is exactly
``quasidict.__all__``, and no module in ``src/quasidict`` imports a name it
never uses (a stdlib ``ast`` stand-in for a linter's unused-import rule)."""

import ast
import re
from pathlib import Path

import pytest

import quasidict

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quasidict"


def readme_surface():
    """The backticked names of the bullet list that follows the README Library
    section's sentence naming ``quasidict.__all__``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    after = section.split("`quasidict.__all__`", 1)[1]
    bullets = after.split("\n\n", 2)[1]
    assert bullets.startswith("- "), "the names must follow as a bullet list"
    return re.findall(r"`(\w+)`", bullets)


def test_readme_lists_exactly_the_exported_names():
    listed = readme_surface()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert sorted(listed) == sorted(quasidict.__all__)
    assert len(set(quasidict.__all__)) == len(quasidict.__all__)


def imported_names(tree, lines):
    """(bound name, line) of each import outside ``__future__``, except on a ``# noqa: F401`` statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def used_names(tree):
    """Every name the module reads, including inside string annotations and, in
    ``__init__.py``, the strings of ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_a_name_it_never_uses(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [f"{module}:{line}: {name}" for name, line in imported_names(tree, source.splitlines()) if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_the_unused_import_rule_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Iterator, Optional\n"
        "import numpy as np  # noqa: F401\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return sys.argv\n"
        "__all__ = ['os']\n"
    )
    tree = ast.parse(source)
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree, source.splitlines()) if name not in used] == ["Iterator"]
