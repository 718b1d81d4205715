"""numpy stays codag's only runtime dependency."""

import ast
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "codag")


def _top_level_imports(path: str):
    """The top-level module of every absolute import in ``path``, nested ones included."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_source_imports_only_stdlib_numpy_and_codag():
    allowed = set(sys.stdlib_module_names) | {"numpy", "codag"}
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "nnmodel.py" in modules
    foreign = [f"{name}: {module}" for name in modules
               for module in _top_level_imports(os.path.join(SRC, name)) if module not in allowed]
    assert foreign == []


def test_pyproject_lists_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in dependencies] == ["numpy"]
