"""The package root re-exports the public API of each library module."""

import importlib

import pytest

import crucial

_LIBRARY = ("numerics", "loss", "sampler", "data", "trainer")


@pytest.mark.parametrize("name", _LIBRARY)
def test_the_root_gives_each_public_name_as_its_module_does(name):
    module = importlib.import_module(f"crucial.{name}")
    assert module.__all__
    differ = [n for n in module.__all__ if getattr(crucial, n, None) is not getattr(module, n)]
    assert differ == []
