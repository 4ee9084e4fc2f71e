"""Every public function and class a module of the package defines has a
caller outside the unit tests: a module of the package, the acceptance
battery or the benchmark harness. A name that only unit tests reach is
either a test oracle, listed with its reason, or dead API to delete. The
public names are read from the modules themselves, so a new one needs a
caller, not an entry here. The flags of every subcommand are pinned, each
with its entry in CLI_FLAGS. No public function takes a tolerance,
threshold or budget as a keyword unless a caller outside the unit tests
sets it."""

import importlib
import inspect
import re
from pathlib import Path
from types import FunctionType

import pytest

from hhlab.cli import _COMMANDS, command_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hhlab"

# public for the unit tests only, as references the package's own code is
# compared against
TEST_ORACLES = {
    "ladder_advance_direct": "the ladder step in plain arithmetic, the "
                             "reference for the log-space step",
}


def _public():
    """(module, name, object) of every public function and class the
    package's modules define."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"hhlab.{path.stem}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and \
                    getattr(obj, "__module__", None) == module.__name__:
                yield path.stem, name, obj


def _sources():
    files = sorted(PACKAGE.glob("*.py"))
    files += [ROOT / "tests" / "test_acceptance.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return [p.read_text() for p in files]


def _referenced(name, sources):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not own.match(line)
               for text in sources for line in text.splitlines())


# a name two modules define is read by name, so it is one case
@pytest.mark.parametrize("name", sorted({name for _, name, _ in _public()}))
def test_export_has_a_caller(name):
    referenced = _referenced(name, _sources())
    if name in TEST_ORACLES:
        assert not referenced, f"{name} has a caller; drop its oracle entry"
    else:
        assert referenced, (f"{name} is public but nothing outside the "
                            f"unit tests uses it")


# each subcommand's own flags in parser order; every parser starts with
# -h/--help and ends with the common flags
CLI_FLAGS = {
    "kernels-selftest": ["--n-configs", "--seed"],
    "ladder": ["--n", "--p", "--a", "--M", "--l0", "--alpha0", "--k-max"],
    "eigen": ["--n", "--m", "--R", "--nodes"],
    "solve": ["--n", "--m", "--p", "--t", "--R", "--nodes"],
    "shoot": ["--n", "--m", "--p", "--a", "--init", "--r-max"],
    "scan": ["--n", "--m", "--p", "--a", "--u0", "--u1", "--higher",
             "--r-max"],
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


# a keyword named like a tolerance, threshold or budget
SETTING = re.compile(r"(r|a|sign_)?tol|(\w+_)?budget|max_\w+|\w+_threshold")

# the keywords of that kind that stay, each with the caller outside the unit
# tests that sets it
SETTING_CALLERS = {
    ("rk.AdaptiveRK", "rtol"): "liouville: the tolerances of a shoot",
    ("rk.AdaptiveRK", "atol"): "liouville: the tolerances of a shoot",
    ("rk.LaneRK", "rtol"): "liouville: the tolerances of a scan",
    ("rk.LaneRK", "atol"): "liouville: the tolerances of a scan",
}


def _signatures():
    """(module.name, parameter names) of every public function, class
    constructor and method the package's modules define."""
    for module, name, obj in _public():
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", getattr(obj, attr))
                        for attr, member in vars(obj).items()
                        if not attr.startswith("_") and isinstance(
                            member, (FunctionType, classmethod,
                                     staticmethod))]
        for qualname, fn in members:
            try:
                params = inspect.signature(fn).parameters
            except ValueError:   # an exception class: no signature
                continue
            yield f"{module}.{qualname}", list(params)


def test_no_keyword_restates_a_setting():
    found = {(fn, param) for fn, params in _signatures() for param in params
             if SETTING.fullmatch(param)}
    unlisted = sorted(found - set(SETTING_CALLERS))
    assert not unlisted, f"no caller outside the unit tests sets {unlisted}"
    stale = sorted(set(SETTING_CALLERS) - found)
    assert not stale, f"listed keywords that are gone: {stale}"
