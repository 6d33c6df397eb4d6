"""Basis joint-action selection.

Diversity objective: maximize the minimum pairwise l1 difference
``min_{i != j} |xhat^i - xhat^j|_1`` over feasible joint actions.  This is
a difference-of-convex program; the convex-concave procedure solves it by
linearizing the convex sum of pairwise differences around the current
iterate while keeping the epigraph-lifted constraints exact, so each
iteration is one sparse LP and the true objective never decreases.

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

from cequil.polytope import InfeasibleError, solve_lp
from cequil.regret import BasisSet

__all__ = [
    "CcpTrace",
    "min_pairwise_distance",
    "ccp_select",
    "random_basis",
    "basis_to_text",
    "basis_from_text",
    "save_basis",
    "load_basis",
]


@dataclass(frozen=True)
class CcpTrace:
    """Iterate history of one ccp_select run; objectives are non-decreasing."""

    iterates: List[Tuple[BasisSet, float]]
    converged: bool
    iterations: int


def min_pairwise_distance(basis: BasisSet) -> float:
    """Smallest l1 difference over all pairs of joint actions."""
    if basis.size < 2:
        raise ValueError("need at least two joint actions")
    joints = [basis.joint(k) for k in range(basis.size)]
    best = np.inf
    for p in range(len(joints)):
        for q in range(p + 1, len(joints)):
            best = min(best, float(np.abs(joints[p] - joints[q]).sum()))
    return best


def random_basis(game, N: int, seed: int) -> BasisSet:
    """N joint actions, each a vertex minimizing a seeded random linear cost.

    One coefficient vector uniform on [0,1]^dim is drawn per joint action
    and split across players; the product LP decomposes into one LP per
    player.  Identical seeds give identical bases.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(seed)
    dims = [P.dim for P in game.action_sets]
    actions = []
    for _ in range(N):
        c = rng.uniform(0.0, 1.0, sum(dims))
        joint = []
        offset = 0
        for i, P in enumerate(game.action_sets):
            sol = solve_lp(c[offset:offset + dims[i]], P)
            if sol.status != "optimal":
                raise InfeasibleError(f"player {i} action set is {sol.status}")
            joint.append(sol.point)
            offset += dims[i]
        actions.append(joint)
    return BasisSet(actions)


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
    min(u) that is tight there.  HiGHS's pivots, and with them the
    iterates, depend on the row order.
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
    less than 1e-6 * (1 + objective) or ``max_iter`` is hit.
    The trace records every accepted iterate; its objective sequence is
    non-decreasing, and the result weakly dominates the initialization.
    """
    if N < 2:
        raise ValueError("CCP selection needs N >= 2")
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
                      bounds=bounds, method="highs-ds")
        if not res.success:
            raise InfeasibleError(f"CCP master LP failed: {res.message}")
        X = res.x[:X.size].reshape(N, -1)
        candidate = BasisSet([np.split(x, splits) for x in X])
        new_obj = min_pairwise_distance(candidate)
        if new_obj < obj - 1e-9:
            # majorization guarantees ascent; a drop is numerical noise, stop
            converged = True
            break
        improved = new_obj - obj
        current, obj = candidate, new_obj
        iterates.append((current, obj))
        if improved < 1e-6 * (1.0 + abs(new_obj)):
            converged = True
            break
    return current, CcpTrace(iterates, converged, len(iterates) - 1)


# ---------------------------------------------------------------------------
# Basis file format
# ---------------------------------------------------------------------------
#
# Plain text, one joint action per block:
#
#     actions <N>
#     players <m>
#     dims <n_1> ... <n_m>
#     action <k>
#     player <i> <v_1> <v_2> ...
#
# Floats are written with repr() and round-trip exactly.


def basis_to_text(basis: BasisSet) -> str:
    dims = [x.size for x in basis.actions[0]]
    lines = [f"actions {basis.size}",
             f"players {basis.num_players}",
             "dims " + " ".join(str(d) for d in dims)]
    for k, joint in enumerate(basis.actions, start=1):
        lines.append(f"action {k}")
        for i, x in enumerate(joint, start=1):
            lines.append(f"player {i} " + " ".join(repr(float(v)) for v in x))
    return "\n".join(lines) + "\n"


def basis_from_text(text: str) -> BasisSet:
    tokens = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    head = {t[0]: t[1:] for t in tokens[:3]}
    try:
        N = int(head["actions"][0])
        m = int(head["players"][0])
        dims = [int(v) for v in head["dims"]]
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError("malformed basis file header") from exc
    if len(dims) != m:
        raise ValueError("dims line does not match player count")
    actions: List[List[np.ndarray]] = []
    for t in tokens[3:]:
        if t[0] == "action":
            if t[1:2] != [str(len(actions) + 1)]:
                raise ValueError(f"expected 'action {len(actions) + 1}', got {' '.join(t[:2])!r}")
            actions.append([])
        elif t[0] == "player" and actions:
            joint, k = actions[-1], len(actions)
            if len(joint) == m:
                raise ValueError(f"action {k}: more than the {m} players the header declares")
            if t[1:2] != [str(len(joint) + 1)]:
                raise ValueError(
                    f"action {k}: expected 'player {len(joint) + 1}', got {' '.join(t[:2])!r}")
            vals = np.array([float(v) for v in t[2:]])
            expect = dims[len(joint)]
            if vals.size != expect:
                raise ValueError(
                    f"action {k}: player {t[1]} has {vals.size} values, expected {expect}")
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                raise ValueError(
                    f"action {k}: player {t[1]} has non-finite value {t[2 + bad[0]]!r}")
            joint.append(vals)
        else:
            raise ValueError(f"unexpected basis file line starting with {t[0]!r}")
    short = [k for k, j in enumerate(actions, start=1) if len(j) < m]
    if short:
        raise ValueError(f"action {short[0]}: fewer than the {m} players the header declares")
    if len(actions) != N:
        raise ValueError(f"basis file declares {N} actions but contains {len(actions)}")
    return BasisSet(actions)


def save_basis(basis: BasisSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(basis_to_text(basis))


def load_basis(path) -> BasisSet:
    with open(path) as fh:
        return basis_from_text(fh.read())
