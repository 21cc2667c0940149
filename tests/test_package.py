"""The import surface: every module of the package imports by name, and
every name it exports exists."""

import importlib
import pkgutil
import types

import pytest

import phasorstab

MODULES = sorted(m.name for m in pkgutil.iter_modules(phasorstab.__path__))


def test_package_exports_only_its_version():
    public = {name for name in vars(phasorstab) if not name.startswith("_")}
    assert public <= set(MODULES)
    assert isinstance(phasorstab.__version__, str)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_by_name_and_its_exports_resolve(name):
    module = importlib.import_module(f"phasorstab.{name}")
    bound = getattr(phasorstab, name)
    # `import phasorstab.<name> as m` binds this attribute of the package
    assert isinstance(bound, types.ModuleType)
    assert bound is module
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"phasorstab.{name}.__all__ names {export!r}"
