import os

import pytest

import klblocks
from klblocks import coinvariant_algebra, hecke_algebra, weyl_group


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter that imports this klblocks."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(klblocks.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def a2():
    return weyl_group("A2")


@pytest.fixture(scope="session")
def b2():
    return weyl_group("B2")


@pytest.fixture(scope="session")
def a3():
    return weyl_group("A3")


@pytest.fixture(scope="session")
def b3():
    return weyl_group("B3")


@pytest.fixture(scope="session")
def hecke_a2():
    return hecke_algebra("A2")


@pytest.fixture(scope="session")
def hecke_a3():
    return hecke_algebra("A3")


@pytest.fixture(scope="session")
def hecke_b3():
    return hecke_algebra("B3")


@pytest.fixture(scope="session")
def coinv_a2():
    return coinvariant_algebra("A2")
