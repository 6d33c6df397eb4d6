"""Correlated regret of finite-support joint-action distributions.

A distribution here is a weight vector ``w`` on the probability simplex
over ``N`` basis joint actions.  Player ``i``'s correlated regret is the
expected cost of following the sampled recommendation minus the best
expected cost achievable by a single constant deviation:

    regret_i(w) = sum_k w_k f_i(xhat_i^k, xhat_-i^k)
                  - min_{y in X_i} sum_k w_k f_i(y, xhat_-i^k)

:meth:`RegretOracle.report` is the one way to compute it: each call
solves every player's deviation problem afresh, and nothing is cached per
``w``.  Its :class:`RegretReport` brackets each player's regret between a
lower and a certified upper bound.  Regrets are signed, since a mixture can
beat every constant deviation, and are never clamped.  A distribution is
an (approximate) coarse correlated equilibrium exactly when every player's
regret is non-positive; :func:`verify_ce` tests that on a report.

The deviation ``y`` is one point for every recommendation: a player
commits to it before seeing what it was told.  So the condition certified
here is the *coarse* correlated equilibrium (CCE) condition of Moulin &
Vial (1978).  In Aumann's correlated equilibrium the deviation may depend
on the recommendation, which gives the larger regret ``sum_a min_y
sum_{k: xhat_i^k = a} w_k f_i(y, xhat_-i^k)``; every correlated
equilibrium is a coarse one, but not conversely.  "Correlated" in the
names of this module means the coarse notion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from cequil.polytope import _as_count, contains, frank_wolfe_min

__all__ = [
    "BasisSet",
    "RegretReport",
    "CeVerdict",
    "RegretOracle",
    "validate_weights",
    "verify_ce",
]


@dataclass(frozen=True, eq=False)
class BasisSet:
    """N joint actions, each a list of per-player action vectors.

    The vectors are stored as read-only copies in tuples, so the atom costs
    an oracle computes from a basis cannot go stale; the caller's arrays
    stay writable.
    """

    actions: Sequence[Sequence[np.ndarray]]

    def __post_init__(self):
        if len(self.actions) < 1:
            raise ValueError("a basis needs at least one joint action")
        m = len(self.actions[0])
        if m < 1:
            raise ValueError("a joint action needs at least one player")
        dims = [np.asarray(x).size for x in self.actions[0]]
        clean = []
        for joint in self.actions:
            if len(joint) != m:
                raise ValueError("inconsistent player count across joint actions")
            row = []
            for i, x in enumerate(joint):
                x = np.array(x, dtype=float)
                if x.size != dims[i]:
                    raise ValueError(f"inconsistent dimension for player {i}")
                x.flags.writeable = False
                row.append(x)
            clean.append(tuple(row))
        object.__setattr__(self, "actions", tuple(clean))

    @property
    def size(self) -> int:
        return len(self.actions)

    @property
    def num_players(self) -> int:
        return len(self.actions[0])

    def joint(self, k: int) -> np.ndarray:
        return np.concatenate(self.actions[k])

    def validate_feasible(self, game) -> None:
        """Raise unless the basis has one action per player of ``game`` and
        every per-player component lies in its action set."""
        if self.num_players != len(game.action_sets):
            raise ValueError(f"basis has {self.num_players} players, "
                             f"the game has {len(game.action_sets)}")
        for k, joint in enumerate(self.actions):
            for i, x in enumerate(joint):
                if not contains(game.action_sets[i], x):
                    raise ValueError(f"basis action {k}, player {i} is infeasible")


@dataclass(frozen=True, eq=False)
class RegretReport:
    """Per-player and average correlated regrets for one queried w, and
    each player's certified upper bound on its regret.

    The game builds player ``i``'s deviation objective F, and Frank-Wolfe
    stops at a point ``best_responses[i]`` with F there at least min F, so
    ``per_player[i] = E - F(best_responses[i])`` is a *lower* bound on the
    true regret ``E - min F`` (``E`` is the expected cost of following the
    recommendations).  ``upper[i] = E - bound``, with Frank-Wolfe's weak
    duality bound on min F (:class:`cequil.polytope.FwResult`), is an
    *upper* bound, whatever tolerance the simplex stopped at; it is the
    certificate :func:`verify_ce` reads.  ``fw_gaps[i]`` is Frank-Wolfe's
    stop-rule gap, which may understate ``upper[i] - per_player[i]``.
    """

    per_player: np.ndarray
    best_responses: List[np.ndarray]
    fw_gaps: np.ndarray
    upper: np.ndarray

    @property
    def average(self) -> float:
        return float(np.mean(self.per_player))


class CeVerdict(NamedTuple):
    """Outcome of :func:`verify_ce`; ``worst_regret`` is the worst
    player's certified upper bound (:class:`RegretReport`)."""

    is_equilibrium: bool
    worst_player: int
    worst_regret: float


def validate_weights(w, n: Optional[int] = None) -> np.ndarray:
    w = np.asarray(w, dtype=float).ravel()
    if n is not None and w.size != n:
        raise ValueError(f"weight vector has length {w.size}, expected {n}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < -1e-9):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
    return w


class RegretOracle:
    """Holds the per-basis quantities that every regret query reuses.

    On construction it evaluates each player's cost at every basis action
    (``atom_costs``), and the game condenses player ``i``'s scenarios (the
    others' actions in each basis action) into ``opp_totals[i]``.
    ``report(w)`` is then the only query: per player, the game builds the
    deviation objective from ``w`` and ``opp_totals[i]``, and one
    Frank-Wolfe run minimizes it.  Nothing is kept per ``w``.  ``average``
    is the mean regret, the scalar a learner queries.  Identical inputs give
    bitwise-identical reports.

    ``tol_gap=None`` stops each player's Frank-Wolfe run at a gap of
    ``1e-6 * max(1, |expected cost|)``; a given ``tol_gap >= 0`` is every
    player's gap target instead.  Both it and ``max_iter`` are checked on
    construction, as is the basis against the game.
    """

    def __init__(self, game, basis: BasisSet, tol_gap: Optional[float] = None,
                 max_iter: int = 2000):
        if tol_gap is not None and not tol_gap >= 0:
            raise ValueError(f"tol_gap must be None or >= 0, got {tol_gap}")
        max_iter = _as_count(max_iter, "max_iter")
        if max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
        basis.validate_feasible(game)
        self.game = game
        self.basis = basis
        self.tol_gap = tol_gap
        self.max_iter = max_iter
        m, N = basis.num_players, basis.size
        self.atom_costs = np.empty((m, N))
        self.opp_totals = []
        for i in range(m):
            scenarios = [[joint[p] for p in range(m) if p != i] for joint in basis.actions]
            self.atom_costs[i] = [game.cost(i, joint[i], others)
                                  for joint, others in zip(basis.actions, scenarios)]
            self.opp_totals.append(game.opponent_data(scenarios))

    def report(self, w) -> RegretReport:
        """Every player's regret, certified upper bound, FW gap and best
        response at ``w``."""
        w = validate_weights(w, self.basis.size)
        m = self.basis.num_players
        per = np.empty(m)
        gaps = np.empty(m)
        upper = np.empty(m)
        responses = []
        for i in range(m):
            expected = float(self.atom_costs[i] @ w)
            tol = self.tol_gap
            if tol is None:
                tol = 1e-6 * max(1.0, abs(expected))
            fun, line_poly = self.game.mixture_best_response(i, w, self.opp_totals[i])
            res = frank_wolfe_min(fun, self.game.action_sets[i], tol_gap=tol,
                                  max_iter=self.max_iter, line_poly=line_poly)
            per[i] = expected - res.value
            gaps[i] = res.gap
            upper[i] = expected - res.bound
            responses.append(res.point)
        return RegretReport(per, responses, gaps, upper)

    def average(self, w) -> float:
        return self.report(w).average


def verify_ce(report: RegretReport, tol: float = 1e-6) -> CeVerdict:
    """Equilibrium test on a report: every player's certified upper bound
    ``report.upper`` is at most ``tol``.

    The regret is the coarse one (module docstring), so a positive verdict
    certifies a ``tol``-coarse correlated equilibrium (Moulin & Vial 1978);
    the set of those contains the set of Aumann's correlated equilibria.
    ``tol`` may be negative, not NaN.
    """
    if np.isnan(tol):
        raise ValueError(f"tol must not be NaN, got {tol}")
    worst = int(np.argmax(report.upper))
    return CeVerdict(bool(report.upper[worst] <= tol), worst, float(report.upper[worst]))
