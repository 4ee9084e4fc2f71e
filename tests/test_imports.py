"""What each entry point imports. `import hhlab` loads no submodule and no
numpy, `import hhlab.cli` no scipy and only the modules every command
shares; a command imports the modules it runs.

An import inside a function runs on that function's first call, so it lands
inside the call a user times, and inside the timed operation of the
benchmark, which forks every operation after `import hhlab.cli` and imports
the traced modules before it starts the clock. So no function under
`src/hhlab` imports scipy, and only `cli` (one command's modules) and
`checks` (one check's modules) import sibling modules inside a function.
Everything else is imported at the top of the module that uses it.

Every name a module imports at its top level is read in that module: a
module imports what it uses, never a name for another module's sake.

Import state is per process, so the checks of what an import loads run
in fresh interpreters."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hhlab

PACKAGE = Path(hhlab.__file__).resolve().parent
SHARED = ["hhlab", "hhlab.checks", "hhlab.cli", "hhlab.errors",
          "hhlab.kernels", "hhlab.numerics"]
# the hhlab and scipy modules a child has loaded, as a Python expression,
# and the process-pool packages, which no command needs
LOADED = ("sorted(m for m in sys.modules if m.split('.')[0] in "
          "('hhlab', 'scipy', 'multiprocessing', 'concurrent'))")


def _fresh(code: str):
    """Run `code` in a new interpreter that imports this suite's package;
    the JSON value of its last line of standard output."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule_or_numpy():
    code = ("import json, sys, hhlab; print(json.dumps(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('hhlab', 'numpy'))))")
    assert _fresh(code) == ["hhlab"]


def test_cli_import_loads_no_scipy():
    code = f"import json, sys, hhlab.cli; print(json.dumps({LOADED}))"
    assert _fresh(code) == SHARED


# a command that loads no scipy, and the modules it adds to the shared ones
@pytest.mark.parametrize("argv,own", [
    (["--help"], []), (["kernels-selftest", "--n-configs", "2"], []),
    (["kernels-selftest", "--n-configs", "200"], []),
    (["ladder"], ["hhlab.ladder"])],
    ids=["help", "kernels-selftest", "kernels-selftest-200", "ladder"])
def test_command_without_scipy(argv, own, tmp_path):
    argv = argv + ["--quiet", "--output-dir", str(tmp_path)]
    code = ("import json, sys\n"
            "from hhlab.cli import main\n"
            "try:\n"
            f"    code = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"print(json.dumps([code, {LOADED}]))")
    assert _fresh(code) == [0, sorted(SHARED + own)]


def _function_imports(tree):
    """(line, module) of every import inside a function body; a relative
    import's module starts with its dots."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                yield from ((node.lineno, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.lineno, "." * node.level + (node.module or "")


def test_no_deferred_scipy_or_sibling_import():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for line, module in set(_function_imports(tree)):
            top = module.split(".")[0]
            if top == "scipy" or (top in ("", "hhlab") and path.name
                                  not in ("cli.py", "checks.py")):
                found.append(f"{path.name}:{line} imports {module}")
    assert not found, sorted(found)


def _top_level_imports(tree):
    """(line, bound name) of every import at a module's top level, in an
    `if` or `try` there too; `__future__` binds no name."""
    body = list(tree.body)
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            body += node.body + node.orelse + getattr(node, "finalbody", [])
            body += [line for handler in getattr(node, "handlers", [])
                     for line in handler.body]
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, (a.asname or a.name).split(".")[0])
                        for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name)
                        for a in node.names)


def test_every_top_level_import_is_used():
    # a name a module imports and never reads is a second route to it, kept
    # for some caller elsewhere: that caller imports it from its module
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} imports {name}"
                   for line, name in _top_level_imports(tree)
                   if name not in read]
    assert not unused, unused
