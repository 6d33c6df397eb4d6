"""What the test modules share, defined once; conftest.py serves the
Sioux Falls setups from here as fixtures.

- The pinned setups: Sioux Falls at demand 3000 with the learn players
  (3) or the audit players (5), each on the CCP basis (N=5, seed 0) that
  ccp_select reached while HiGHS's dual simplex solved its master LP,
  stored in tests/data (test_basis.py pins both files), and the seed-13
  Dirichlet(0.1) weight stream of the audit.
- The LP reference: HiGHS through scipy, independent of cequil's simplex.
- The call spy: a module attribute wrapped so that its calls are recorded.
"""

import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from cequil.game import PlayerSpec, build_traffic_game
from cequil.polytope import project_simplex
from cequil.regret import BasisSet
from cequil.tntp import parse_net

DATA = Path(__file__).parent / "data"
DEMAND = 3000.0
LEARN_PLAYERS = ((1, 20), (13, 8), (7, 24))
AUDIT_PLAYERS = LEARN_PLAYERS + ((2, 19), (16, 3))
SETUPS = {"learn": LEARN_PLAYERS, "audit": AUDIT_PLAYERS}


@functools.cache
def siouxfalls_net():
    """tests/data's Sioux Falls network, parsed once: its arrays are read-only."""
    return parse_net((DATA / "siouxfalls_net.tntp").read_text())


def siouxfalls_game(players):
    """A new game on Sioux Falls, one player per (origin, destination) pair
    of ``players``, each at :data:`DEMAND`.  Its action sets solve their
    nominal LPs as it is built."""
    return build_traffic_game(siouxfalls_net(), [PlayerSpec(o, d, DEMAND) for o, d in players])


def stored_basis(setup, game):
    """The stored CCP basis of ``setup`` ("learn" or "audit"), its stacked
    joint actions split into the action sets of ``game``."""
    splits = np.cumsum([P.dim for P in game.action_sets])[:-1]
    X = np.load(DATA / f"siouxfalls_{setup}_basis.npy")
    return BasisSet([np.split(x, splits) for x in X])


def audit_stream(size):
    """The first ``size`` weights of the seed-13 Dirichlet(0.1) stream, each
    drawn on its own and passed through project_simplex."""
    rng = np.random.default_rng(13)
    return [project_simplex(rng.dirichlet(np.full(5, 0.1))) for _ in range(size)]


def highs(c, *lp, tight=False):
    """HiGHS's result for ``min c.x``, as scipy's ``linprog`` returns it.

    ``lp`` is a Polyhedron, or the arrays a Polyhedron is built from:
    ``eq_matrix, eq_rhs, lower, upper`` and optionally ``budget_coeffs,
    budget_limit``.  Arrays may describe an empty set, which HiGHS reports
    as status 2.  HiGHS runs at its default method and tolerances, or, with
    ``tight``, its dual simplex at feasibility tolerances 1e-10.
    """
    if len(lp) == 1:
        P = lp[0]
        lp = (P.eq_matrix, P.eq_rhs, P.lower, P.upper, P.budget_coeffs, P.budget_limit)
    A, b, lo, hi, budget, limit = (*lp, None, None)[:6]
    ub = {} if budget is None else {"A_ub": [budget], "b_ub": [limit]}
    tolerances = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    solver = {"method": "highs-ds", "options": tolerances} if tight else {"method": "highs"}
    return linprog(c, A_eq=A, b_eq=b, bounds=np.column_stack([lo, hi]), **ub, **solver)


class Call(NamedTuple):
    """One call :func:`spy_on` recorded: its arguments and what it returned."""

    args: tuple
    kwargs: dict
    result: object


def spy_on(mp, owner, name):
    """Replace ``owner.name`` through the MonkeyPatch ``mp`` by a wrapper
    that calls it and records every call that returns, in order of return,
    as a :class:`Call`; returns the list of records."""
    calls = []
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(Call(args, kwargs, result))
        return result

    mp.setattr(owner, name, spy)
    return calls
