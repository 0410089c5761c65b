"""The package's public names: ``__all__`` is derived from what
``lastlayer/__init__.py`` imports, so these tests pin what that derivation
must give."""

import types

import lastlayer


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lastlayer import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lastlayer.__all__)


def test_all_is_sorted_public_unique_and_resolves():
    names = lastlayer.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(lastlayer, name), types.ModuleType)
