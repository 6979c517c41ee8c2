"""Every exported name resolves, and the package export list has no duplicates."""

import importlib
import itertools
import os
import pkgutil
import subprocess
import sys

import pytest

import realbott

MODULES = ["realbott"] + [
    f"realbott.{info.name}" for info in pkgutil.iter_modules(realbott.__path__)
]

# the modules whose __all__ the package re-exports
REEXPORTED = [realbott.bottcore, realbott.census, realbott.euclid, realbott.f2poly]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_modules_with_export_lists():
    # the modules that declare __all__; a module losing it would make
    # test_all_names_resolve vacuous for it
    declared = [n for n in MODULES if hasattr(importlib.import_module(n), "__all__")]
    assert declared == [
        "realbott",
        "realbott.bottcore",
        "realbott.census",
        "realbott.euclid",
        "realbott.f2poly",
    ]


def test_package_exports_unique():
    assert len(realbott.__all__) == len(set(realbott.__all__))


def test_module_export_lists_disjoint():
    # a name in two lists would be silently shadowed by the later wildcard import
    for first, second in itertools.combinations(REEXPORTED, 2):
        shared = set(first.__all__) & set(second.__all__)
        assert not shared, f"{first.__name__} and {second.__name__} both export {shared}"


@pytest.mark.parametrize("module", REEXPORTED, ids=lambda m: m.__name__)
def test_package_names_are_module_objects(module):
    assert set(module.__all__) <= set(realbott.__all__)
    for n in module.__all__:
        assert getattr(realbott, n) is getattr(module, n), n


def test_star_import_binds_every_name():
    code = (
        "from realbott import *\n"
        "import realbott\n"
        "missing = [n for n in realbott.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )
    # import the same realbott as this process, however it was found
    src = os.path.dirname(os.path.dirname(realbott.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
