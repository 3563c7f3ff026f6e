"""Every name a module exports through ``__all__`` resolves."""

import importlib

import pytest

MODULES = ("core", "typeclass", "distill", "form", "multilevel", "coherent", "simulate", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"athermal.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
