"""The package's lazy re-exports (PEP 562 ``__getattr__`` and ``__dir__``)."""

from __future__ import annotations

import importlib
import types

import pytest

import gaussrd


def test_every_export_is_its_defining_modules_attribute():
    for name in gaussrd.__all__:
        module = importlib.import_module(f"gaussrd.{gaussrd._EXPORTS[name]}")
        assert getattr(gaussrd, name) is getattr(module, name), name
        # The first access caches the name in the package namespace.
        assert vars(gaussrd)[name] is getattr(module, name), name


def test_dir_lists_every_export():
    assert set(gaussrd.__all__) <= set(dir(gaussrd))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gaussrd.no_such_name
    assert not hasattr(gaussrd, "no_such_name")


def test_submodules_still_import_through_the_package():
    from gaussrd import channel, regions
    assert isinstance(channel, types.ModuleType)
    assert channel.__name__ == "gaussrd.channel"
    assert regions.__name__ == "gaussrd.regions"
    assert regions.dr_bound is gaussrd.dr_bound
