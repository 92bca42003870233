"""Shared ring fixtures for the test suite, and a test environment without
``$TORSIONLAB_CACHE``."""

from __future__ import annotations

import pytest

from torsionlab.fields import GF, QQ
from torsionlab.rings import make_ring
from torsionlab.syntax import parse_polynomial


@pytest.fixture(autouse=True)
def no_cache_from_the_environment(monkeypatch):
    # in-process CLI runs read $TORSIONLAB_CACHE as the default of --cache,
    # so no test writes into the cache the developer's shell names
    monkeypatch.delenv("TORSIONLAB_CACHE", raising=False)


def ring_qq_xy():
    return make_ring(QQ, ("x", "y"), reduced=True)


def ring_qq_xyz():
    return make_ring(QQ, ("x", "y", "z"), reduced=True)


def node_ring(p=5):
    """GF(p)[x,y]/(xy) with both branches declared, as in the running example."""
    field = GF(p)
    xy = parse_polynomial("x*y", ("x", "y"), field)
    x = parse_polynomial("x", ("x", "y"), field)
    y = parse_polynomial("y", ("x", "y"), field)
    return make_ring(
        field,
        ("x", "y"),
        ideal=[xy],
        minimal_primes=[[x], [y]],
        reduced=True,
        complete_intersection=True,
    )


@pytest.fixture
def QQxy():
    return ring_qq_xy()


@pytest.fixture
def QQxyz():
    return ring_qq_xyz()


@pytest.fixture
def node5():
    return node_ring(5)


@pytest.fixture
def node2():
    return node_ring(2)
