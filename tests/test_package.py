"""The top-level ``repro`` namespace: lazy, yet complete."""

import importlib

import pytest

import repro


def test_every_public_name_resolves_to_its_module_attribute():
    assert sorted(repro._EXPORTS) == sorted(repro.__all__)
    for name in repro.__all__:
        module = importlib.import_module(repro._EXPORTS[name])
        assert getattr(repro, name) is getattr(module, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.Nope
    assert not hasattr(repro, "Nope")
