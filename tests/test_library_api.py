"""Every name the library defines is used by the library itself.

A module-level function or class, or a public method, that no other
code under src/froblab refers to serves only the tests (or nothing),
and belongs next to its users in tests/.  Only the command entry point
froblab.cli.main is called from outside.  A name counts as used when it
appears as a name, an attribute or an import anywhere in src/froblab
outside its own definition, and a method also when it overrides one of
a standard-library base class, which is then what calls it (argparse
calls ArgumentParser.error).
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "froblab"
ENTRY_POINTS = {"cli.main"}


def names_in(node):
    """Every identifier node refers to: names, attributes and imports."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name.rsplit(".", 1)[-1])
    return out


def overrides_library_base(classdef, name):
    """Whether a base written module.Class, from an imported library
    module, has a method of this name."""
    return any(
        hasattr(getattr(importlib.import_module(base.value.id), base.attr), name)
        for base in classdef.bases
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
    )


def definitions(tree, module):
    """(qualified name, identifier, node) of the module-level functions
    and classes, and of the public methods of those classes that
    override no library method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and not overrides_library_base(node, item.name)
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def unused_definitions(src):
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    counts = {}
    for tree in trees.values():
        for name in names_in(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in definitions(tree, module):
            own = names_in(node).count(name)
            if counts.get(name, 0) == own and qualname not in ENTRY_POINTS:
                unused.append(qualname)
    return unused


def test_every_library_name_is_used_in_the_library():
    assert unused_definitions(SRC) == []


def test_guard_catches_a_test_only_method(tmp_path):
    (tmp_path / "lib.py").write_text(
        "import argparse\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        raise ValueError(message)\n"
        "    def extra(self):\n"
        "        return 0\n"
        "Parser()\n"
        "class Space:\n"
        "    def from_vectors(self):\n"
        "        return Space()\n"
        "    def dim(self):\n"
        "        return 0\n"
        "def helper():\n"
        "    return helper\n"
        "def caller(s):\n"
        "    return s.dim()\n"
        "caller(Space())\n"
    )
    assert unused_definitions(tmp_path) == ["lib.Parser.extra", "lib.Space.from_vectors", "lib.helper"]
