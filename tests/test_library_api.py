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


# Every parameter with a default is a knob some caller in the library
# turns: a default that no call overrides is a constant in disguise, or
# a switch that only the tests flip.  A call sets a parameter by passing
# it by position or by name, and a call with *args or **kwargs sets
# them all.  Calls are matched by the name called, as above; a method's
# self or cls is not counted among the positions.


def defaulted_parameters(tree, module):
    """(qualified name, identifier, parameter, position) of every parameter
    with a default of the functions and methods, nested ones included; the
    position is None for a keyword-only parameter."""

    def visit(node, prefix, in_class):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, f"{prefix}{item.name}.", True)
            elif isinstance(item, ast.FunctionDef):
                args = item.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                bound = in_class and not static
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for k in range(first, len(positional)):
                    yield f"{prefix}{item.name}", item.name, positional[k].arg, k - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{item.name}", item.name, arg.arg, None
                yield from visit(item, f"{prefix}{item.name}.", False)
            else:
                yield from visit(item, prefix, in_class)

    yield from visit(tree, f"{module}.", False)


def calls_by_name(trees):
    """{called identifier: (most positional arguments, keywords, starred)}
    over every call in the trees."""
    calls = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            most, keywords, starred = calls.get(name, (0, set(), False))
            starred = starred or any(isinstance(a, ast.Starred) for a in call.args)
            starred = starred or any(k.arg is None for k in call.keywords)
            calls[name] = (max(most, len(call.args)), keywords | {k.arg for k in call.keywords}, starred)
    return calls


def unset_defaults(src):
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    calls = calls_by_name(trees.values())
    unset = []
    for module, tree in trees.items():
        for qualname, name, param, position in defaulted_parameters(tree, module):
            most, keywords, starred = calls.get(name, (0, set(), False))
            is_set = starred or param in keywords or (position is not None and position < most)
            if not is_set and qualname not in ENTRY_POINTS:
                unset.append(f"{qualname}({param})")
    return unset


def test_every_default_is_set_by_a_library_call():
    assert unset_defaults(SRC) == []


def test_guard_catches_a_default_no_caller_sets(tmp_path):
    (tmp_path / "lib.py").write_text(
        "class Poly:\n"
        "    @classmethod\n"
        "    def monomial(cls, m, c=1, *, scale=2):\n"
        "        return m\n"
        "    def shift(self, by=0):\n"
        "        return self\n"
        "def solve(a, reduced=False, cols=None):\n"
        "    def step(k=0):\n"
        "        return k\n"
        "    return step()\n"
        "def spread(*args, **kwargs):\n"
        "    return solve(*args), Poly().shift(**kwargs)\n"
        "def main(argv=None):\n"
        "    return Poly.monomial(1, scale=3), solve(1, reduced=True)\n"
    )
    assert unset_defaults(tmp_path) == ["lib.Poly.monomial(c)", "lib.solve.step(k)", "lib.main(argv)"]
