"""Only froblab.cli.main turns an outcome into an exit code.

The commands raise instead: a disagreement between two routes as
OracleMismatchError, bad input or a capacity limit as another
FroblabError, raised where it arises.  main maps each to its exit code
and writes the one stderr line, and returns the code of every outcome,
--help and --version included.  So no other function of cli.py writes to
sys.stderr or returns an integer constant, no function calls exit (only
the __main__ block does), and the commands (the functions of the COMMANDS
table) return no value.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "froblab" / "cli.py"


def commands(tree):
    """The functions that the module-level COMMANDS table names first in
    its entries."""
    return {
        entry.elts[0].id
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and any(isinstance(target, ast.Name) and target.id == "COMMANDS" for target in node.targets)
        for entry in node.value.values
        if isinstance(entry, ast.Tuple) and entry.elts and isinstance(entry.elts[0], ast.Name)
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
    """(function, what) for each place outside main that writes to stderr
    or returns an exit code, and each function, main included, that exits."""
    tree = ast.parse(source)
    cmds = commands(tree)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        is_main = func.name == "main" and func in tree.body
        for node in own_nodes(func):
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id in ("exit", "quit"))
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "exit")
            ):
                found.append((func.name, "exit"))
            elif is_main:
                continue
            elif isinstance(node, ast.Attribute) and node.attr == "stderr":
                found.append((func.name, "stderr"))
            elif isinstance(node, ast.Return) and node.value is not None:
                if func.name in cmds:
                    found.append((func.name, "return"))
                elif isinstance(node.value, ast.Constant) and type(node.value.value) is int:
                    found.append((func.name, "return"))
    return sorted(found)


def test_only_main_chooses_an_exit_code():
    source = CLI.read_text(encoding="utf-8")
    assert commands(ast.parse(source)) == {"cmd_analyze_complex", "cmd_analyze_hypersurface"}
    assert exit_code_choices(source) == []


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
        "COMMANDS = {'run': (cmd_run, None, {}), 'ok': (cmd_ok, 'path', {'--n': (parse, 1)})}\n"
        "def main(argv):\n"
        "    if not argv:\n"
        "        sys.exit(0)\n"
        "    print('error', file=sys.stderr)\n"
        "    return 1\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(main(sys.argv[1:]))\n"
    )
    assert exit_code_choices(source) == [
        ("cmd_run", "return"),
        ("cmd_run", "return"),
        ("cmd_run", "stderr"),
        ("helper", "exit"),
        ("helper", "stderr"),
        ("inner", "return"),
        ("main", "exit"),
    ]
