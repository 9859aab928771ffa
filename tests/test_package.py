"""The package namespace: each name loads its submodule on first use.

Every check runs in a fresh interpreter, since the test session has long
since loaded every submodule.
"""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PRELUDE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("sdrkit."))
"""


def _fresh(code):
    """Run code after PRELUDE in a new interpreter that imports sdrkit from
    this checkout, and return what it printed, read as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_import_loads_no_submodule_and_a_symbol_loads_only_localglobal():
    got = _fresh(
        "import sdrkit\n"
        "before = loaded()\n"
        "assert sdrkit.hilbert_symbol(2, 5, 5) == -1\n"
        "print(json.dumps([sdrkit.__file__, before, loaded()]))"
    )
    assert got == [os.path.join(SRC, "sdrkit", "__init__.py"), [], ["sdrkit.localglobal"]]


def test_every_exported_name_is_its_modules_object():
    got = _fresh(
        "import importlib, sdrkit\n"
        "wrong = [name for module, names in sdrkit._EXPORTS.items() for name in names\n"
        "         if getattr(sdrkit, name) is not getattr(importlib.import_module('sdrkit.' + module), name)]\n"
        "exported = [name for names in sdrkit._EXPORTS.values() for name in names]\n"
        "star = {}\n"
        "exec('from sdrkit import *', star)\n"
        "print(json.dumps([wrong, exported == sdrkit.__all__, sorted(set(star) - {'__builtins__'}),\n"
        "                  sorted(sdrkit.__all__), loaded()]))"
    )
    wrong, same_order, star, exported, modules = got
    assert wrong == [] and same_order
    assert star == exported and len(exported) == 83
    assert modules == sorted("sdrkit." + m for m in (
        "acceptance", "constructions", "f2core", "gf2k", "localglobal", "matgroups", "oracles", "quadforms"
    ))


def test_submodule_names_resolve_to_their_modules():
    got = _fresh(
        "import sdrkit\n"
        "print(json.dumps([sdrkit.matgroups.__name__, sdrkit.matgroups is sys.modules['sdrkit.matgroups'],\n"
        "                  'matgroups' in dir(sdrkit), 'subgroup_census' in dir(sdrkit), loaded()]))"
    )
    assert got == ["sdrkit.matgroups", True, True, True, ["sdrkit.f2core", "sdrkit.matgroups", "sdrkit.quadforms"]]


def test_unknown_name_raises_attribute_error_naming_it():
    got = _fresh(
        "import sdrkit\n"
        "try:\n"
        "    sdrkit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(sdrkit, 'cli'), loaded()]))"
    )
    assert got == ["module 'sdrkit' has no attribute 'no_such_name'", False, []]
