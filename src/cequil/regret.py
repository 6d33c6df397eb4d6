"""Correlated regret of finite-support joint-action distributions.

A distribution here is a weight vector ``w`` on the probability simplex
over ``N`` basis joint actions.  Player ``i``'s correlated regret is the
expected cost of following the sampled recommendation minus the best
expected cost achievable by a single constant deviation:

    regret_i(w) = sum_k w_k f_i(xhat_i^k, xhat_-i^k)
                  - min_{y in X_i} sum_k w_k f_i(y, xhat_-i^k)

:meth:`RegretOracle.report` is the one way to compute it: each call
solves every player's deviation problem afresh, and nothing is cached per
``w``.  The game builds the deviation objective F; Frank-Wolfe stops at a
point y with F(y) >= min F, so the reported regret ``E - F(y)`` is a
*lower* bound on the true regret.  Adding the Frank-Wolfe gap gives an
upper bound, but only up to the simplex's pricing tolerance ``1e-9 (1 +
max|grad F|)`` per unit of flow (about 1e-5 at flows in the thousands).
Regrets are signed, since a mixture can beat every constant deviation, and
are never clamped.  A distribution is an (approximate) coarse correlated
equilibrium exactly when every player's regret is non-positive;
:func:`verify_ce` tests that from the upper bound.

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
    """Per-player and average correlated regrets for one queried w."""

    per_player: np.ndarray
    best_responses: List[np.ndarray]
    fw_gaps: np.ndarray

    @property
    def average(self) -> float:
        return float(np.mean(self.per_player))


class CeVerdict(NamedTuple):
    """Outcome of :func:`verify_ce`; ``worst_regret`` is an upper bound.

    ``is_equilibrium`` certifies the coarse correlated equilibrium
    condition (one deviation per player for every recommendation; module
    docstring), which Aumann's correlated equilibria also satisfy."""

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
        """Every player's regret, FW gap and best response at ``w``."""
        w = validate_weights(w, self.basis.size)
        m = self.basis.num_players
        per = np.empty(m)
        gaps = np.empty(m)
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
            responses.append(res.point)
        return RegretReport(per, responses, gaps)

    def average(self, w) -> float:
        return self.report(w).average


def verify_ce(oracle: RegretOracle, w, tol: float = 1e-6) -> CeVerdict:
    """Equilibrium test: every player's regret is at most ``tol``.

    The regret is the coarse one (module docstring), so a positive verdict
    certifies a ``tol``-coarse correlated equilibrium (Moulin & Vial 1978);
    the set of those contains the set of Aumann's correlated equilibria.

    The reported regret is a lower bound, so the verdict, the worst player
    and the worst regret all use the upper bound ``regret + fw_gap``.  A
    negative gap is LP rounding and counts as zero.  The bound holds up to
    the LP pricing tolerance (module docstring).  ``tol`` may be negative.
    """
    if np.isnan(tol):
        raise ValueError(f"tol must not be NaN, got {tol}")
    rep = oracle.report(w)
    upper = rep.per_player + np.maximum(rep.fw_gaps, 0.0)
    worst = int(np.argmax(upper))
    return CeVerdict(bool(upper[worst] <= tol), worst, float(upper[worst]))
