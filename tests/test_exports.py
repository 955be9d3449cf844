"""Every exported name resolves: the package's and each module's __all__."""

import importlib
import pkgutil

import pytest

import kinkzeta

MODULES = [kinkzeta] + [importlib.import_module(f"kinkzeta.{info.name}")
                        for info in pkgutil.iter_modules(kinkzeta.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
