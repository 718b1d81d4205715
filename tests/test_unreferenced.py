"""Every function and class in ``src/codag`` has a caller in ``src/codag``, and
every import is named by its module.

A definition counts as used when some name or attribute in the package
spells it outside the definition's own body; an import is not a use.
Dunders are left out, since Python calls them. An import counts as used
when a name in its own module spells it; an alias whose line carries
``noqa: F401`` is kept on purpose.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "codag")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def modules(src: str):
    """(file name, source text, syntax tree) of every ``src/*.py``."""
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                text = fh.read()
            yield fname, text, ast.parse(text, filename=fname)


def definitions_and_uses(src: str):
    """Every ``def`` and ``class`` in ``src/*.py`` as (file, node), and every
    name or attribute use as (file, line, column, name)."""
    defs, uses = [], []
    for fname, _, tree in modules(src):
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                defs.append((fname, node))
            elif isinstance(node, ast.Name):
                uses.append((fname, node.lineno, node.col_offset, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((fname, node.lineno, node.col_offset, node.attr))
    return defs, uses


def _inside(use, fname: str, node) -> bool:
    where, line, col, _ = use
    return (where == fname and (node.lineno, node.col_offset) <= (line, col)
            and line <= node.end_lineno)


def unreferenced(src: str) -> list[str]:
    """``file:line: name`` of each non-dunder definition that nothing uses."""
    defs, uses = definitions_and_uses(src)
    return [f"{fname}:{node.lineno}: {node.name}" for fname, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and all(_inside(use, fname, node) for use in uses if use[3] == node.name)]


def unused_imports(src: str) -> list[str]:
    """``file:line: name`` of each imported name that its module never names."""
    unused = []
    for fname, text, tree in modules(src):
        lines = text.splitlines()
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in named and "noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{fname}:{alias.lineno}: {name}")
    return unused


def test_every_definition_has_a_caller_in_the_package():
    defs, _ = definitions_and_uses(SRC)
    names = {node.name for _, node in defs}
    assert {"gradient", "Sgd", "train_epochs", "select_confident"} <= names
    missing = unreferenced(SRC)
    assert missing == [], "no use in src/codag:\n" + "\n".join(missing)


def test_every_import_is_named_by_its_module():
    unused = unused_imports(SRC)
    assert unused == [], "imported but never named:\n" + "\n".join(unused)
