"""What each entry point imports. `import hhlab.cli` loads no scipy and only
the modules every command shares; a command imports the modules it runs.

An import inside a function runs on that function's first call, so it lands
inside the call a user times, and inside the timed operation of the
benchmark, which forks every operation after `import hhlab.cli` and imports
the traced modules before it starts the clock. So no function under
`src/hhlab` imports scipy, and only `cli` (one command's modules) and
`checks` (one check's modules) import sibling modules inside a function.
Everything else is imported at the top of the module that uses it.

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


def test_exports_are_their_modules_objects():
    code = ("import importlib, json, hhlab\n"
            "print(json.dumps(sorted(name for name, module in "
            "hhlab._EXPORTS.items() if getattr(hhlab, name) is not getattr("
            "importlib.import_module('hhlab.' + module), name))))")
    assert _fresh(code) == []


def test_dir_lists_every_export():
    listed = _fresh("import json, hhlab; print(json.dumps(dir(hhlab)))")
    assert set(hhlab._EXPORTS) <= set(listed)


def test_an_export_is_read_from_its_module_each_time(monkeypatch):
    from hhlab import navier
    assert hhlab.solve_positive is navier.solve_positive
    sentinel = object()
    monkeypatch.setattr(navier, "solve_positive", sentinel)
    assert hhlab.solve_positive is sentinel


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hhlab.no_such_name


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
