"""The package's public names: ``__all__`` is the whole surface, once each."""

from types import ModuleType

import pktcheck


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pktcheck import *", namespace)
    namespace.pop("__builtins__")
    assert len(pktcheck.__all__) == len(set(pktcheck.__all__))
    assert set(namespace) == set(pktcheck.__all__)
    assert all(namespace[name] is getattr(pktcheck, name) for name in pktcheck.__all__)


def test_every_imported_public_name_is_exported():
    # a name dropped from __all__ but still imported (or the reverse) is a
    # half-removed export
    imported = {
        name for name, value in vars(pktcheck).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert imported == set(pktcheck.__all__)
