"""Correlated regret of finite-support joint-action distributions.

A distribution here is a weight vector ``w`` on the probability simplex
over ``N`` basis joint actions.  Player ``i``'s correlated regret is the
expected cost of following the sampled recommendation minus the best
expected cost achievable by a single constant deviation:

    regret_i(w) = sum_k w_k f_i(xhat_i^k, xhat_-i^k)
                  - min_{y in X_i} sum_k w_k f_i(y, xhat_-i^k)

:meth:`RegretOracle.report` is the one way to compute it: each call
solves every player's deviation problem afresh, and nothing is cached per
``w``.  The minimization is a convex program solved by Frank-Wolfe, which
stops at a point y with F(y) >= min F, so the reported regret ``E - F(y)``
is a *lower* bound on the true regret.  The Frank-Wolfe gap g bounds
``F(y) - min F``, so the reported regret plus g is an upper bound.  Regrets
are signed: a mixture can beat every constant deviation, so negative values
are meaningful and are never clamped.  A distribution is an (approximate) correlated
equilibrium exactly when every player's regret is non-positive;
:func:`verify_ce` certifies that from the upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from cequil.polytope import contains, frank_wolfe_min

__all__ = [
    "BasisSet",
    "RegretReport",
    "CeVerdict",
    "RegretOracle",
    "validate_weights",
    "verify_ce",
]


@dataclass(frozen=True)
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
        """Raise unless every per-player component lies in its action set."""
        for k, joint in enumerate(self.actions):
            for i, x in enumerate(joint):
                if not contains(game.action_sets[i], x):
                    raise ValueError(f"basis action {k}, player {i} is infeasible")


@dataclass(frozen=True)
class RegretReport:
    """Per-player and average correlated regrets for one queried w."""

    per_player: np.ndarray
    average: float
    best_responses: List[np.ndarray]
    fw_gaps: np.ndarray


class CeVerdict(NamedTuple):
    """Outcome of :func:`verify_ce`; ``worst_regret`` is an upper bound."""

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
    (``atom_costs``) and, for traffic-style games exposing
    ``mixture_best_response``, the per-player opponent flow totals.
    ``report(w)`` is then the only query: it runs one Frank-Wolfe
    minimization per player on every call and keeps nothing per ``w``, so
    each report is a fresh object.  ``average(w)`` is its mean regret, the
    scalar a learner queries.  Identical inputs give bitwise-identical
    reports.

    ``tol_gap=None`` stops each player's Frank-Wolfe run at a gap of
    ``1e-6 * max(1, |expected cost|)``; a given ``tol_gap`` is every
    player's gap target instead.
    """

    def __init__(self, game, basis: BasisSet, tol_gap: Optional[float] = None,
                 max_iter: int = 2000):
        basis.validate_feasible(game)
        self.game = game
        self.basis = basis
        self.tol_gap = tol_gap
        self.max_iter = max_iter
        m, N = basis.num_players, basis.size
        self.atom_costs = np.empty((m, N))
        for i in range(m):
            for k, joint in enumerate(basis.actions):
                others = [joint[p] for p in range(m) if p != i]
                self.atom_costs[i, k] = game.cost(i, joint[i], others)
        self._fast = hasattr(game, "mixture_best_response")
        if self._fast:
            self.opp_totals = []
            for i in range(m):
                T = np.stack([
                    np.sum([joint[p] for p in range(m) if p != i], axis=0)
                    if m > 1 else np.zeros_like(joint[i])
                    for joint in basis.actions
                ])
                self.opp_totals.append(T)

    def _mixture_functions(self, i: int, w: np.ndarray):
        if self._fast:
            return self.game.mixture_best_response(i, w, self.opp_totals[i])
        game, basis = self.game, self.basis
        m = basis.num_players
        scenarios = [[joint[p] for p in range(m) if p != i] for joint in basis.actions]
        active = [(float(wk), opp) for wk, opp in zip(w, scenarios) if wk > 0.0]

        def fun(y: np.ndarray):
            val = 0.0
            grad = np.zeros_like(y)
            for wk, opp in active:
                val += wk * game.cost(i, y, opp)
                grad += wk * game.cost_gradient(i, y, opp)
            return val, grad

        return fun, None

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
            fun, line_poly = self._mixture_functions(i, w)
            res = frank_wolfe_min(fun, self.game.action_sets[i], tol_gap=tol,
                                  max_iter=self.max_iter, line_poly=line_poly)
            per[i] = expected - res.value
            gaps[i] = res.gap
            responses.append(res.point)
        return RegretReport(per, float(np.mean(per)), responses, gaps)

    def average(self, w) -> float:
        return self.report(w).average


def verify_ce(oracle: RegretOracle, w, tol: float = 1e-6) -> CeVerdict:
    """Certified equilibrium test: every player's regret is provably <= tol.

    The reported regret is a lower bound, so the verdict, the worst player
    and the worst regret all use the upper bound ``regret + fw_gap``.  A
    negative gap is LP rounding and counts as zero.
    """
    rep = oracle.report(w)
    upper = rep.per_player + np.maximum(rep.fw_gaps, 0.0)
    worst = int(np.argmax(upper))
    return CeVerdict(bool(upper[worst] <= tol), worst, float(upper[worst]))
