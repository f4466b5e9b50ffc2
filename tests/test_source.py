"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equichar"


def test_every_private_name_has_a_library_caller():
    # a private function, method or class that only the tests reach is a
    # test route living in the library; tests/helpers.py is its place
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = {}  # name -> (file, line) of each use as a name or attribute
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((file, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((file, node.lineno))
    unused = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if not name.startswith("_") or dunder:
                continue
            if all(f == file and node.lineno <= line <= node.end_lineno
                   for f, line in uses.get(name, ())):
                unused.append("%s:%d %s" % (file, node.lineno, name))
    assert unused == []
