"""Each command imports only the modules it runs, and the package's public
names resolve on first use."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import inducibility

BASE = {"cli", "errors", "graphs"}  # what parsing and printing need


def modules_after(source: str) -> list[str]:
    """The modules a fresh interpreter holds after `source`."""
    env = dict(os.environ, PYTHONPATH=str(Path(inducibility.__file__).parents[1]))
    probe = f"import sys\n{source}\nprint(__import__('json').dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(source: str) -> list[str]:
    """The inducibility submodules a fresh interpreter holds after `source`."""
    return [m for m in modules_after(source) if m.startswith("inducibility.")]


COMMANDS = [
    (["density", "Bg", "DQc"], {"density", "mc"}),
    (["density", "Bg", "DQc", "--mc", "100"], {"density", "mc"}),
    (["ind", "Bg", "--n", "5", "--search", "--iters", "5"], {"density", "mc", "search"}),
    (["ind", "Bg", "--n", "5", "--exact"], {"density", "mc", "search"}),
    (["classify", "Bw", "--mc", "10"], {"brightness", "mc", "structure"}),
    (["tame", "Cr"], {"structure"}),
    (["construct", "blowup", "Cr", "--v0", "0,3", "--n", "32"],
     {"constructions", "density", "mc", "proba", "structure"}),
    (["bounds", "phi", "--s", "2"], {"bounds"}),
    (["proba", "binom", "--k", "3", "--p", "1/3", "--s", "1"], {"proba"}),
]
COMMAND_IDS = ["density", "density-mc", "ind-search", "ind-exact", "classify", "tame",
               "construct-blowup", "bounds-phi", "proba-binom"]


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=COMMAND_IDS)
def test_command_loads_only_its_modules(argv, modules):
    source = f"from inducibility import cli\nassert cli.main({argv!r}) == 0"
    assert loaded_after(source) == sorted(f"inducibility.{m}" for m in BASE | modules)


@pytest.mark.parametrize("argv", [
    ["ind", "Ch", "--n", "6", "--exact"],
    ["ind", "Bg", "--n", "5", "--search", "--iters", "5"],
    ["bounds", "phi", "--s", "2"],
], ids=["ind-exact", "ind-search", "bounds-phi"])
def test_command_loads_no_hashlib(argv):
    """Importing hashlib maps OpenSSL's libcrypto, about 3 MB of RSS per process."""
    source = f"from inducibility import cli\nassert cli.main({argv!r}) == 0"
    assert not {"hashlib", "_hashlib"} & set(modules_after(source))


@pytest.mark.parametrize("argv", [
    *(argv for argv, _ in COMMANDS),
    ["simulate-coloring", "DQc", "Cl", "--trials", "20"],
    ["verify", "appendix"],
], ids=[*COMMAND_IDS, "simulate-coloring", "verify"])
def test_command_loads_no_dataclasses(argv):
    """`dataclasses` imports inspect, ast, dis and tokenize, about 8 ms of every
    process's start-up; report records are named tuples instead."""
    source = f"from inducibility import cli\nassert cli.main({argv!r}) == 0"
    extra = set(modules_after(source)) - set(modules_after("pass"))
    assert not {"dataclasses", "inspect"} & extra


def test_no_module_imports_dataclasses():
    for path in Path(inducibility.__file__).parent.glob("*.py"):
        assert not re.search(r"^\s*(from|import) dataclasses\b", path.read_text(), re.M), path


def test_package_import_loads_no_submodule():
    assert loaded_after("import inducibility") == []


def test_every_public_name_resolves_to_its_submodule_object():
    assert inducibility.__all__ == sorted(set(inducibility.__all__))
    listed = dir(inducibility)
    for name in inducibility.__all__:
        value = getattr(inducibility, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert value.__module__.startswith("inducibility.")
        assert name in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(inducibility, "no_such_name")
