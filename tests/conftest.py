"""Fixtures of the shared test harness (tests/harness.py): the pinned
Sioux Falls setups, built once per session, and the call spy."""

import functools

import pytest

import harness
from cequil.regret import RegretOracle


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)``: :func:`harness.spy_on` through this test's
    monkeypatch, undone when the test ends."""
    return functools.partial(harness.spy_on, monkeypatch)


@pytest.fixture(scope="session")
def siouxfalls_net():
    return harness.siouxfalls_net()


@pytest.fixture(scope="session")
def learn_game():
    return harness.siouxfalls_game(harness.LEARN_PLAYERS)


@pytest.fixture(scope="session")
def audit_game():
    return harness.siouxfalls_game(harness.AUDIT_PLAYERS)


@pytest.fixture(scope="session")
def learn_basis(learn_game):
    return harness.stored_basis("learn", learn_game)


@pytest.fixture(scope="session")
def audit_oracle(audit_game):
    """The audit setup's regret oracle, on its stored basis."""
    return RegretOracle(audit_game, harness.stored_basis("audit", audit_game))
