"""Import hygiene: every name a package module imports is used there.

A name counts as used when the module loads it anywhere (attribute chains
count through their root name), mentions it in a string annotation, or
lists it in ``__all__``.  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "morsevanish"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """(bound name, line) for each import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out.append((a.asname or a.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for a in node.names:
                out.append((a.asname or a.name, node.lineno))
    return out


def _string_annotations(tree):
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (args.posonlyargs + args.args
                                             + args.kwonlyargs)]
            notes += [args.vararg and args.vararg.annotation,
                      args.kwarg and args.kwarg.annotation, node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    yield ast.parse(sub.value, mode="eval")


def _used(tree):
    names = set()
    for root in [tree, *_string_annotations(tree)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: " + \
        ", ".join(unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import List, Tuple\n"
                     "import os.path\n"
                     "x: 'List[int]' = []\n")
    used = _used(tree)
    assert [n for n, _ in _imported(tree) if n not in used] == \
        ["Tuple", "os"]
