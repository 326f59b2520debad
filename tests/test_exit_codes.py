"""Only froblab.cli.main turns an outcome into an exit code.

The commands raise instead: a disagreement between two routes as
OracleMismatchError, bad input or a capacity limit as another
FroblabError, raised where it arises.  main maps each to its exit code
and writes the one stderr line.  So no other function of cli.py writes
to sys.stderr, calls exit, or returns an integer constant, and the
commands (the func defaults of the subparsers) return no value.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "froblab" / "cli.py"


def commands(tree):
    """The names given as func= to set_defaults."""
    return {
        kw.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "set_defaults"
        for kw in node.keywords
        if kw.arg == "func" and isinstance(kw.value, ast.Name)
    }


def own_nodes(func):
    """The nodes of a function body, not descending into nested functions."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def exit_code_choices(source):
    """(function, what) for each place outside main that writes to stderr,
    exits, or returns an exit code."""
    tree = ast.parse(source)
    cmds = commands(tree)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name == "main" and func in tree.body:
            continue
        for node in own_nodes(func):
            if isinstance(node, ast.Attribute) and node.attr == "stderr":
                found.append((func.name, "stderr"))
            elif isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id in ("exit", "quit"))
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "exit")
            ):
                found.append((func.name, "exit"))
            elif isinstance(node, ast.Return) and node.value is not None:
                if func.name in cmds:
                    found.append((func.name, "return"))
                elif isinstance(node.value, ast.Constant) and type(node.value.value) is int:
                    found.append((func.name, "return"))
    return sorted(found)


def test_only_main_chooses_an_exit_code():
    assert exit_code_choices(CLI.read_text(encoding="utf-8")) == []


def test_guard_catches_each_way_of_choosing_an_exit_code():
    source = (
        "import sys\n"
        "def cmd_run(args):\n"
        "    if args.bad:\n"
        "        print('error', file=sys.stderr)\n"
        "        return 1\n"
        "    return None\n"
        "def cmd_ok(args):\n"
        "    def inner():\n"
        "        return 2\n"
        "    return\n"
        "def helper(text):\n"
        "    sys.stderr.write(text)\n"
        "    sys.exit(3)\n"
        "def parse(text):\n"
        "    return int(text)\n"
        "def build(parser):\n"
        "    parser.set_defaults(func=cmd_run)\n"
        "    parser.set_defaults(func=cmd_ok)\n"
        "    return parser\n"
        "def main(argv):\n"
        "    print('error', file=sys.stderr)\n"
        "    return 1\n"
    )
    assert exit_code_choices(source) == [
        ("cmd_run", "return"),
        ("cmd_run", "return"),
        ("cmd_run", "stderr"),
        ("helper", "exit"),
        ("helper", "stderr"),
        ("inner", "return"),
    ]
