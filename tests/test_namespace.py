import importlib
import subprocess
import sys

import pytest

import klblocks

CONSTRUCTORS = {"coinvariant_algebra", "hecke_algebra", "weyl_group"}


def test_all_lists_every_export_and_the_constructors():
    assert set(klblocks.__all__) == set(klblocks._SOURCE) | CONSTRUCTORS
    assert klblocks.__all__ == sorted(klblocks.__all__)


@pytest.mark.parametrize("name", sorted(set(klblocks.__all__) - CONSTRUCTORS))
def test_export_is_the_object_defined_in_its_submodule(name):
    module = importlib.import_module(f"klblocks.{klblocks._SOURCE[name]}")
    obj = getattr(klblocks, name)
    assert obj is getattr(module, name)
    assert obj.__module__ == module.__name__


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_share_one_object_per_type(name):
    build = getattr(klblocks, name)
    assert build("a2") is build("A2") is build(" A2 ")
    assert build("b3") is not build("A2")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from klblocks import *", namespace)
    for name in klblocks.__all__:
        assert namespace[name] is getattr(klblocks, name)


def test_dir_and_unknown_attribute():
    listing = dir(klblocks)
    assert "__all__" in listing
    assert set(klblocks.__all__) <= set(listing)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(klblocks, "no_such_name")
    assert not hasattr(klblocks, "no_such_name")


# Prints the loaded klblocks submodules after a bare import, after
# looking up a submodule and after looking up an exported function.
_LAZY_PROBE = """
import sys
import klblocks

def loaded():
    print(sorted(m for m in sys.modules if m.startswith("klblocks.")))

loaded()
assert klblocks.ratpoly is sys.modules["klblocks.ratpoly"]
loaded()
assert klblocks.rank is sys.modules["klblocks.linalg"].rank
loaded()
"""


def test_bare_import_loads_a_submodule_only_on_lookup(child_env):
    out = subprocess.run([sys.executable, "-c", _LAZY_PROBE], env=child_env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "[]",
        "['klblocks.ratpoly']",
        "['klblocks.linalg', 'klblocks.ratpoly']",
    ]
