"""Every exported name exists: the package imports (this module's own
``import oraclekit``), and each name in a module's ``__all__`` resolves
on that module."""

import importlib
import pkgutil

import oraclekit


def test_every_all_entry_resolves():
    names = [info.name for info in pkgutil.iter_modules(oraclekit.__path__, "oraclekit.")]
    assert "oraclekit.ghcsort" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            try:
                getattr(module, attr)
            except AttributeError:
                missing.append(f"{name}.{attr}")
    assert not missing, missing
