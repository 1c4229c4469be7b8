"""No public name in ``mevsearch`` that only the tests use.

A public name is an undecorated module-level function or class of
``src/mevsearch/`` whose name does not start with ``_`` (decorated ones,
such as click commands and dataclasses, are out of scope).  It is used when
some file under ``src/``, ``demos/`` or ``bench/`` refers to it: as a name,
an attribute, an import alias, or a string constant equal to it.  The
re-exports in ``__init__.py`` do not count, and neither does a definition
naming itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mevsearch"


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_") and not node.decorator_list:
                yield node


def _references(tree, skip=()):
    """Every name ``tree`` refers to, outside the nodes in ``skip``."""
    skipped = {id(node) for top in skip for node in ast.walk(top)}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _source_files():
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                yield path


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _source_files()}
    definitions = {
        path: list(_public_definitions(tree))
        for path, tree in trees.items()
        if path.parent == PACKAGE
    }
    used = set()
    for path, tree in trees.items():
        # a definition's own body does not count as a use of its name
        for name in _references(tree, definitions.get(path, ())):
            used.add(name)
        for node in definitions.get(path, ()):
            used.update(set(_references(node)) - {node.name})
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path, nodes in definitions.items()
        for node in nodes
        if node.name not in used
    )
    assert unused == [], f"public names with no caller outside tests/: {unused}"
