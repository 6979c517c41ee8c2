"""Every exported name resolves, and the package export list has no duplicates."""

import importlib
import pkgutil

import pytest

import realbott

MODULES = ["realbott"] + [
    f"realbott.{info.name}" for info in pkgutil.iter_modules(realbott.__path__)
]


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
    ]


def test_package_exports_unique():
    assert len(realbott.__all__) == len(set(realbott.__all__))
