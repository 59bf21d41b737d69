"""The package as declared in pyproject.toml: scripts, package data, modules."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import frobfix

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "frobfix"


def _project():
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


def test_script_targets_import():
    scripts = _project()["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"script {name!r} -> {target!r}"


def test_package_data_globs_match_files():
    globs = _project()["tool"]["setuptools"]["package-data"]["frobfix"]
    for pattern in globs:
        assert list(PACKAGE_DIR.glob(pattern)), f"package-data glob {pattern!r} matches no file"


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(frobfix.__path__, "frobfix.")]
    assert names
    for name in names:
        importlib.import_module(name)
