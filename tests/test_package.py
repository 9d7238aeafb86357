"""The package namespace is the union of its modules' ``__all__`` lists."""

import importlib
import os
import subprocess
import sys

import quiddity

MODULES = ("algebra", "dissections", "enumeration", "frieze", "surgery")


def test_each_module_lists_its_public_names_and_the_package_exports_them():
    for name in MODULES:
        module = importlib.import_module(f"quiddity.{name}")
        assert isinstance(module.__all__, list), name
        for public in module.__all__:
            assert getattr(quiddity, public) is getattr(module, public), (name, public)


def test_no_name_is_listed_by_two_modules():
    # a star import lets a later module shadow an earlier one's name silently
    owners = {}
    for name in MODULES:
        for public in importlib.import_module(f"quiddity.{name}").__all__:
            assert public not in owners, (public, owners.get(public), name)
            owners[public] = name


# imports the package afresh, as a reload or a benchmark's repeated set-up
# does, and prints the live objects after a full collection each time
_REIMPORT = """
import gc, importlib, sys
for _ in range(4):
    for name in [m for m in sys.modules if m.split(".")[0] == "quiddity"]:
        del sys.modules[name]
    importlib.import_module("quiddity")
    importlib.import_module("quiddity.cli")
    gc.collect()
    print(len(gc.get_objects()))
"""


def test_a_fresh_import_leaves_no_earlier_copy_alive():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True, text=True, env=env, check=True)
    counts = [int(line) for line in out.stdout.split()]
    # each copy kept alive would add well over a hundred objects
    assert counts[-1] - counts[1] < 50, counts
