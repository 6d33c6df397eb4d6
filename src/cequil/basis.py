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


def _l1_subgradient_sign(diff: np.ndarray) -> np.ndarray:
    # fixed subgradient choice: zeros break to +1 to keep runs reproducible
    return np.where(diff >= 0.0, 1.0, -1.0)


def _ccp_master_lp(game, joints: List[np.ndarray], dims: List[int]):
    """One linearized master LP.

    Maximizes grad_T . x - s subject to the original action-set rows for
    every copy and the exact epigraph of the pairwise-difference sums
    (split variables d+ / d- per pair and coordinate, per-pair totals u,
    45-style max rows coupling them to s).  Returns the new joint actions.
    """
    N = len(joints)
    D = sum(dims)
    pairs = [(p, q) for p in range(N) for q in range(p + 1, N)]
    P_u = len(pairs)
    n_x = N * D
    n_d = P_u * D  # per split sign
    col_d_plus = n_x
    col_d_minus = n_x + n_d
    col_u = n_x + 2 * n_d
    col_s = col_u + P_u
    n_cols = col_s + 1

    offsets = np.concatenate([[0], np.cumsum(dims)])  # player offsets within a copy

    # objective: minimize -grad . x + s  (ordered-pair convention doubles
    # each unordered term)
    grad = np.zeros(n_x)
    for (p, q) in pairs:
        sg = _l1_subgradient_sign(joints[p] - joints[q])
        grad[p * D:(p + 1) * D] += 2.0 * sg
        grad[q * D:(q + 1) * D] -= 2.0 * sg
    cost = np.zeros(n_cols)
    cost[:n_x] = -grad
    cost[col_s] = 1.0

    rows_eq, cols_eq, vals_eq, rhs_eq = [], [], [], []
    rows_ub, cols_ub, vals_ub, rhs_ub = [], [], [], []

    def add_eq(cols, vals, rhs):
        r = len(rhs_eq)
        rows_eq.extend([r] * len(cols))
        cols_eq.extend(cols)
        vals_eq.extend(vals)
        rhs_eq.append(rhs)

    def add_ub(cols, vals, rhs):
        r = len(rhs_ub)
        rows_ub.extend([r] * len(cols))
        cols_ub.extend(cols)
        vals_ub.extend(vals)
        rhs_ub.append(rhs)

    # action-set rows for each copy and player
    lo = np.empty(n_cols)
    hi = np.empty(n_cols)
    lo[col_d_plus:col_u + P_u] = 0.0
    hi[col_d_plus:col_u + P_u] = np.inf
    lo[col_s] = -np.inf
    hi[col_s] = np.inf
    for k in range(N):
        base = k * D
        for i, P in enumerate(game.action_sets):
            off = base + offsets[i]
            lo[off:off + dims[i]] = P.lower
            hi[off:off + dims[i]] = P.upper
            eqm = P.eq_matrix
            for r in range(eqm.shape[0]):
                nz = np.nonzero(eqm[r])[0]
                add_eq((off + nz).tolist(), eqm[r, nz].tolist(), float(P.eq_rhs[r]))
            if P.budget_coeffs is not None:
                nz = np.nonzero(P.budget_coeffs)[0]
                add_ub((off + nz).tolist(), P.budget_coeffs[nz].tolist(),
                       float(P.budget_limit))

    # difference splits: x^p_l - x^q_l - d+ + d- = 0
    for pi, (p, q) in enumerate(pairs):
        dbase = pi * D
        for ell in range(D):
            add_eq([p * D + ell, q * D + ell,
                    col_d_plus + dbase + ell, col_d_minus + dbase + ell],
                   [1.0, -1.0, -1.0, 1.0], 0.0)
        # u_pq = sum_l (d+ + d-)
        cols = [col_u + pi]
        vals = [1.0]
        cols.extend(range(col_d_plus + dbase, col_d_plus + dbase + D))
        vals.extend([-1.0] * D)
        cols.extend(range(col_d_minus + dbase, col_d_minus + dbase + D))
        vals.extend([-1.0] * D)
        add_eq(cols, vals, 0.0)

    # max rows: 2 * sum_u - u_ij - s <= 0 for every pair (i, j)
    for pi in range(P_u):
        cols = list(range(col_u, col_u + P_u)) + [col_s]
        vals = [2.0] * P_u + [-1.0]
        vals[pi] = 1.0
        add_ub(cols, vals, 0.0)

    A_eq = sparse.csr_matrix((vals_eq, (rows_eq, cols_eq)), shape=(len(rhs_eq), n_cols))
    A_ub = sparse.csr_matrix((vals_ub, (rows_ub, cols_ub)), shape=(len(rhs_ub), n_cols))
    res = linprog(cost, A_ub=A_ub, b_ub=np.array(rhs_ub), A_eq=A_eq,
                  b_eq=np.array(rhs_eq), bounds=np.stack([lo, hi], axis=1),
                  method="highs-ds")
    if not res.success:
        raise InfeasibleError(f"CCP master LP failed: {res.message}")
    x = res.x[:n_x]
    return [x[k * D:(k + 1) * D].copy() for k in range(N)]


def _split_joint(joint: np.ndarray, dims: List[int]) -> List[np.ndarray]:
    out = []
    off = 0
    for d in dims:
        out.append(joint[off:off + d].copy())
        off += d
    return out


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
    dims = [P.dim for P in game.action_sets]
    current = random_basis(game, N, seed)
    obj = min_pairwise_distance(current)
    iterates = [(current, obj)]
    converged = False
    for _ in range(max_iter):
        joints = [current.joint(k) for k in range(N)]
        new_joints = _ccp_master_lp(game, joints, dims)
        candidate = BasisSet([_split_joint(j, dims) for j in new_joints])
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
    joint: List[np.ndarray] = []
    for t in tokens[3:]:
        if t[0] == "action":
            if joint:
                actions.append(joint)
            joint = []
        elif t[0] == "player":
            if len(joint) == m:
                raise ValueError(
                    f"action {len(actions) + 1}: more than the {m} players the header declares")
            vals = np.array([float(v) for v in t[2:]])
            expect = dims[len(joint)]
            if vals.size != expect:
                raise ValueError(
                    f"action {len(actions) + 1}: player {t[1]} has {vals.size} values, expected {expect}")
            joint.append(vals)
        else:
            raise ValueError(f"unexpected basis file line starting with {t[0]!r}")
    if joint:
        actions.append(joint)
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
