"""Every name a module exports through ``__all__`` resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("core", "typeclass", "distill", "form", "multilevel", "coherent", "simulate", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"athermal.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_cli_import_loads_no_scipy():
    # SciPy is a test dependency only: every CLI call pays the import of
    # athermal.cli, and scipy.special alone used to double it.
    code = ("import athermal.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
