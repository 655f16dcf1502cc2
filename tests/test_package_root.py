"""``import wiregrid`` resolves each public name from its module on first use."""

import importlib

import pytest

import wiregrid


def test_every_public_name_is_its_modules_object_and_stays_bound():
    for name, module in wiregrid._MODULE_OF.items():
        assert getattr(wiregrid, name) is getattr(importlib.import_module(f"wiregrid.{module}"), name)
        assert name in vars(wiregrid)


def test_all_and_dir_list_every_public_name():
    assert sorted(wiregrid.__all__) == sorted(wiregrid._MODULE_OF)
    assert set(wiregrid.__all__) <= set(dir(wiregrid))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'wiregrid' has no attribute 'no_such_name'"):
        wiregrid.no_such_name  # noqa: B018
    assert not hasattr(wiregrid, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from wiregrid import *", namespace)
    namespace.pop("__builtins__")
    assert namespace == {name: getattr(wiregrid, name) for name in wiregrid.__all__}
