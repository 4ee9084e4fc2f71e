"""Every name the package exports has a caller outside the unit tests: a
module of the package, the acceptance battery or the benchmark harness.
A name that only unit tests reach is either a test oracle, listed with its
reason, or dead API to delete. The flags of every subcommand are pinned, so
a flag is added or dropped only together with its table entry."""

import ast
import re
from pathlib import Path

import pytest

from hhlab.cli import _COMMANDS, command_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hhlab"

# exported for the unit tests only, as references the package's own code is
# compared against
TEST_ORACLES = {
    "ladder_advance_direct": "the ladder step in plain arithmetic, the "
                             "reference for the log-space step",
    "shoot_from": "integrates the layer system from any radius, the "
                  "reference trajectory for the exact singular profiles",
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _sources():
    files = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return [p.read_text() for p in files]


def _referenced(name, sources):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not own.match(line)
               for text in sources for line in text.splitlines())


@pytest.mark.parametrize("name", _exported())
def test_export_has_a_caller(name):
    referenced = _referenced(name, _sources())
    if name in TEST_ORACLES:
        assert not referenced, f"{name} has a caller; drop its oracle entry"
    else:
        assert referenced, (f"{name} is exported but nothing outside the "
                            f"unit tests uses it")


# each subcommand's own flags in parser order; every parser starts with
# -h/--help and ends with the common flags
CLI_FLAGS = {
    "kernels-selftest": ["--n-configs", "--seed"],
    "ladder": ["--n", "--p", "--a", "--M", "--l0", "--alpha0", "--k-max"],
    "eigen": ["--n", "--m", "--R", "--nodes"],
    "solve": ["--n", "--m", "--p", "--t", "--R", "--nodes"],
    "shoot": ["--n", "--m", "--p", "--a", "--init", "--r-max", "--rtol",
              "--atol"],
    "scan": ["--n", "--m", "--p", "--a", "--u0", "--u1", "--higher",
             "--r-max", "--rtol", "--atol"],
    "singular": ["--n", "--m", "--a", "--p"],
    "report": ["--seed"],
}
COMMON_FLAGS = ["--output-dir", "--config", "--quiet"]


def test_cli_flags_are_pinned():
    surface = {name: [opt for action in command_parser(name)._actions
                      for opt in action.option_strings]
               for name in _COMMANDS}
    assert surface == {name: ["-h", "--help", *flags, *COMMON_FLAGS]
                       for name, flags in CLI_FLAGS.items()}
