"""The package namespace: every public name and submodule, each loaded on first use."""

import pkgutil

import pytest

import temporank as tr
from test_cli import run_python

SUBMODULES = [info.name for info in pkgutil.iter_modules(tr.__path__)
              if info.name != "__main__"]


@pytest.mark.parametrize("name", [name for name in tr.__all__ if name != "__version__"])
def test_public_name_is_its_home_modules_object(name):
    value = getattr(tr, name)
    home = tr.presets if name == "PRESET_NAMES" else getattr(tr, value.__module__.split(".")[1])
    assert getattr(home, name) is value
    assert vars(tr)[name] is value


def test_star_import_binds_all():
    namespace = {}
    exec("from temporank import *", namespace)
    assert all(namespace[name] is getattr(tr, name) for name in tr.__all__)


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(tr)
    assert set(tr.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


# this runs in a child process, where nothing has imported the submodule yet
RESOLVE_SUBMODULE = """
import sys
import temporank
name = sys.argv[1]
assert "temporank." + name not in sys.modules
module = getattr(temporank, name)
assert module is sys.modules["temporank." + name], module
"""


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_before_its_import(name):
    result = run_python("-c", RESOLVE_SUBMODULE, name)
    assert result.returncode == 0, result.stderr


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tr.no_such_name
    assert not hasattr(tr, "_kernels")
    # an optional module that is not there reads as missing, not as a crash
    with pytest.raises(ImportError):
        from temporank import _kernels  # noqa: F401
