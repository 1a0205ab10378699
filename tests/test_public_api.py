"""The package's public surface: every name in ``krawtchouk.__all__`` exists.

A name deleted from its module but left in ``__all__`` makes
``from krawtchouk import *`` raise AttributeError.
"""
import krawtchouk


def test_every_exported_name_resolves():
    missing = [name for name in krawtchouk.__all__ if not hasattr(krawtchouk, name)]
    assert missing == []
    assert len(set(krawtchouk.__all__)) == len(krawtchouk.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from krawtchouk import *", namespace)
    assert set(krawtchouk.__all__) <= set(namespace)
