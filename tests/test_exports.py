import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mechcert

MODULES = sorted(m.name for m in pkgutil.iter_modules(mechcert.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mechcert.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_every_package_import_resolves():
    tree = ast.parse(Path(mechcert.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mechcert.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_every_lazy_sim_name_resolves():
    from mechcert import sim

    assert mechcert._SIM_EXPORTS
    for name in mechcert._SIM_EXPORTS:
        assert getattr(mechcert, name) is getattr(sim, name), name
    with pytest.raises(AttributeError):
        mechcert.no_such_name
