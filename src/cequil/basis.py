"""Basis joint-action selection.

Diversity objective: maximize the minimum pairwise l1 difference
``min_{i != j} |xhat^i - xhat^j|_1`` over feasible joint actions.  This is
a difference-of-convex program; the convex-concave procedure solves it by
linearizing the convex sum of pairwise differences around the current
iterate while keeping the epigraph-lifted constraints exact, so each
iteration is one sparse LP and the true objective never decreases.  That
master LP is highly degenerate, so HiGHS solves it by interior point with
crossover (IPX; Schork & Gondzio, Math. Prog. Comp. 2020): its iteration
count barely grows with N, where the dual simplex makes thousands of pivots
that do not move the objective.

The baseline ``random_basis`` assembles joint actions by minimizing a
random linear function (coefficients uniform on [0, 1]) over each
player's action set, one LP per player per action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag
from scipy.optimize import linprog

from cequil.polytope import _as_count, solve_lp
from cequil.regret import BasisSet

__all__ = [
    "CcpTrace",
    "min_pairwise_distance",
    "ccp_select",
    "random_basis",
]


@dataclass(frozen=True, eq=False)
class CcpTrace:
    """Iterate history of one ccp_select run; objectives are non-decreasing."""

    iterates: List[Tuple[BasisSet, float]]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def min_pairwise_distance(basis: BasisSet) -> float:
    """Smallest l1 difference over all pairs of joint actions; raises
    ``ValueError`` when any pair's difference is not finite."""
    if basis.size < 2:
        raise ValueError("need at least two joint actions")
    X = np.stack([basis.joint(k) for k in range(basis.size)])
    p, q = np.triu_indices(basis.size, 1)
    dist = np.abs(X[p] - X[q]).sum(axis=1)
    if not np.isfinite(dist).all():
        raise ValueError("a pairwise distance is not finite")
    return float(dist.min())


def random_basis(game, N: int, seed: int) -> BasisSet:
    """N joint actions, each a vertex minimizing a seeded random linear cost.

    The product LP decomposes into one LP per player, each with its own
    coefficient vector uniform on [0,1]^dim, drawn joint action by joint
    action and player by player.  ``Generator.uniform`` fills in sequence,
    so this is the stream of one joint draw per joint action split across
    the players.  Identical seeds give identical bases.  The action sets
    are nonempty and bounded, so each LP has an optimum.
    """
    N = _as_count(N, "N")
    if N < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(seed)
    return BasisSet([[solve_lp(rng.uniform(0.0, 1.0, P.dim), P).point
                      for P in game.action_sets] for _ in range(N)])


# ---------------------------------------------------------------------------
# Convex-concave procedure
# ---------------------------------------------------------------------------


def _ccp_master_lp(action_sets, Q: np.ndarray):
    """Constraint arrays of the linearized master LP; only its cost changes.

    ``Q`` is the P x N pair-incidence matrix: row r has +1 at p and -1 at q
    for the r-th pair p < q.  The columns are the N copies x of a joint
    action (N*D, D the summed player dims), the splits d+ and d- (P*D each,
    pair-major), the pair distances u (P) and s.  The rows, in order:

    * ``A_eq``: each copy's action-set equalities (copy-major, then
      player); then, pair by pair, its D split rows x^p - x^q - d+ + d- = 0
      followed by its distance row u - sum(d+) - sum(d-) = 0;
    * ``A_ub``: each copy's budget rows, then one dense max row per pair r,
      2 sum(u) - u_r - s <= 0, so s >= 2 sum(u) - min(u);
    * ``bounds``: each copy's action-set box; d+, d-, u >= 0; s free.

    With d+, d- >= 0, u is at least the pair's l1 distance, and minimizing
    s pushes it down to it.  Minimizing the cost -grad . x + s, with grad a
    subgradient of 2 sum(u) at the current copies, maximizes a minorant of
    min(u) that is tight there.  :func:`ccp_select` solves it by HiGHS's
    interior point method; its optimal face is wide, and crossover picks
    the vertex among the tied optima that becomes the next iterate.
    """
    P_u, N = Q.shape
    D = sum(P.dim for P in action_sets)
    eq = block_diag(*[P.eq_matrix for P in action_sets])
    budget = block_diag(*[P.budget_coeffs[None] if P.budget_coeffs is not None
                          else np.zeros((0, P.dim)) for P in action_sets])

    def per_copy(M):
        return sparse.kron(sparse.identity(N), M)

    def per_pair(M):  # M has D + 1 rows: D split rows, then the distance row
        return sparse.kron(sparse.identity(P_u), M)

    eye, ones = np.eye(D), np.ones((1, D))
    A_eq = sparse.bmat([
        [per_copy(eq), None, None, None, None],
        [sparse.kron(Q, np.vstack([eye, np.zeros((1, D))])), per_pair(np.vstack([-eye, -ones])),
         per_pair(np.vstack([eye, -ones])), per_pair(np.eye(D + 1)[:, -1:]),
         sparse.csr_matrix((P_u * (D + 1), 1))],
    ], format="csr")
    A_ub = sparse.bmat([
        [per_copy(budget), None, None],
        [None, sparse.csr_matrix((P_u, 2 * P_u * D)),
         np.hstack([2.0 - np.eye(P_u), -np.ones((P_u, 1))])],
    ], format="csr")
    for A in (A_eq, A_ub):
        A.eliminate_zeros()
    b_eq = np.concatenate([np.tile(np.concatenate([P.eq_rhs for P in action_sets]), N),
                           np.zeros(P_u * (D + 1))])
    limits = [P.budget_limit for P in action_sets if P.budget_coeffs is not None]
    b_ub = np.concatenate([np.tile(limits, N), np.zeros(P_u)])
    n_aux = 2 * P_u * D + P_u  # d+, d-, u
    lo = np.concatenate([np.tile(np.concatenate([P.lower for P in action_sets]), N),
                         np.zeros(n_aux), [-np.inf]])
    hi = np.concatenate([np.tile(np.concatenate([P.upper for P in action_sets]), N),
                         np.full(n_aux + 1, np.inf)])
    return A_eq, b_eq, A_ub, b_ub, np.stack([lo, hi], axis=1)


def ccp_select(game, N: int, max_iter: int = 100,
               seed: int = 0) -> Tuple[BasisSet, CcpTrace]:
    """Diverse basis via the convex-concave procedure, with the l1 distance.

    Starts from ``random_basis(game, N, seed)`` and iterates linearized
    master LPs until the true min-pairwise-distance objective improves by
    less than 1e-6 * (1 + objective) or ``max_iter`` is hit.  Each master
    LP is solved by HiGHS's interior point method plus crossover
    (``highs-ipm``), which on these degenerate LPs is faster than the dual
    simplex and more so as N grows; crossover returns a vertex of the
    optimal face, and that vertex is the next iterate.  A candidate
    whose objective falls, by rounding, is not accepted: the run stops at
    the previous iterate.  The trace records every accepted iterate; its
    objective sequence is non-decreasing, and the result weakly dominates
    the initialization.

    Raises
    ------
    RuntimeError
        if HiGHS fails on a master LP.  Over nonempty bounded action sets
        that LP is feasible and bounded, so a failure is the solver's; the
        message carries HiGHS's status and message.
    """
    N, max_iter = _as_count(N, "N"), _as_count(max_iter, "max_iter")
    if N < 2:
        raise ValueError("CCP selection needs N >= 2")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    p, q = np.triu_indices(N, 1)
    Q = np.zeros((p.size, N))
    Q[np.arange(p.size), p] = 1.0
    Q[np.arange(p.size), q] = -1.0
    A_eq, b_eq, A_ub, b_ub, bounds = _ccp_master_lp(game.action_sets, Q)
    splits = np.cumsum([P.dim for P in game.action_sets])[:-1]
    current = random_basis(game, N, seed)
    X = np.stack([current.joint(k) for k in range(N)])
    cost_rest = np.zeros(len(bounds) - X.size)  # d+, d-, u, s
    cost_rest[-1] = 1.0
    obj = min_pairwise_distance(current)
    iterates = [(current, obj)]
    converged = False
    for _ in range(max_iter):
        # grad = 2 Q^T sign(Q X); zeros break to +1 to keep runs reproducible
        sign = np.where(X[p] - X[q] >= 0.0, 1.0, -1.0)
        cost = np.concatenate([-2.0 * (Q.T @ sign).ravel(), cost_rest])
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs-ipm")
        if not res.success:
            raise RuntimeError(f"CCP master LP failed (HiGHS status {res.status}): "
                               f"{res.message}")
        X = res.x[:X.size].reshape(N, -1)
        candidate = BasisSet([np.split(x, splits) for x in X])
        new_obj = min_pairwise_distance(candidate)
        if new_obj < obj:
            # majorization guarantees ascent; a drop is rounding, so stop
            converged = True
            break
        improved = new_obj - obj
        current, obj = candidate, new_obj
        iterates.append((current, obj))
        if improved < 1e-6 * (1.0 + abs(new_obj)):
            converged = True
            break
    return current, CcpTrace(iterates, converged)

