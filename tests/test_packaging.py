"""Tests for the package metadata in pyproject.toml."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_console_scripts_resolve():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr, None)
        assert callable(entry), f"console script {name!r} points at {target!r}"
