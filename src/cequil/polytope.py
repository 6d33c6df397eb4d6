"""Polyhedral action sets and the dense convex-optimization kernel.

This module provides the geometry every other part of the package sits on:

* :class:`Polyhedron` -- a feasible set ``{x : Ex = s, lo <= x <= hi,
  a.x <= gamma}`` (equalities, box bounds, one optional budget row).
* :func:`solve_lp` -- a bounded-variable revised simplex (two phases,
  Dantzig pricing with a Bland anti-cycling fallback).  Deterministic:
  identical inputs give bitwise-identical vertices.
* :func:`frank_wolfe_min` -- conditional-gradient minimization of a smooth
  convex function over a :class:`Polyhedron`, with away steps over the
  active vertex set and exact line search when the objective is polynomial
  along segments.  The returned gap ``g(x) = grad f(x).(x - v)`` is a valid
  suboptimality certificate.
* :func:`project_simplex` -- Euclidean projection onto the probability
  simplex.
* :func:`contains` -- feasibility check at a tolerance.

Everything here is a pure function of its inputs; the types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "Polyhedron",
    "LpSolution",
    "FwResult",
    "PolytopeError",
    "DimensionMismatch",
    "DegeneracyError",
    "InfeasibleError",
    "solve_lp",
    "frank_wolfe_min",
    "project_simplex",
    "contains",
    "TOL_FEAS",
]

#: Default feasibility tolerance for membership checks and LP cleanup.
TOL_FEAS = 1e-7


class PolytopeError(Exception):
    """Base class for errors raised by this module."""


class DimensionMismatch(PolytopeError, ValueError):
    """Vector dimensions do not match the polyhedron."""


class DegeneracyError(PolytopeError, RuntimeError):
    """The simplex made no progress after the anti-cycling cap."""


class InfeasibleError(PolytopeError, RuntimeError):
    """An operation that needs a feasible point was given an empty set."""


def _as_float_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Polyhedron:
    """Feasible set ``{x : eq_matrix x = eq_rhs, lower <= x <= upper,
    budget_coeffs . x <= budget_limit}``.

    ``eq_matrix`` is dense with one row per linear equality (for flow
    polytopes: one row per node, entries in {-1, 0, +1}); the budget row is
    optional.  Bounds may be infinite.  Degenerate sets (empty, single
    point) are legal; emptiness surfaces as an infeasible LP status.
    """

    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    budget_coeffs: Optional[np.ndarray] = None
    budget_limit: Optional[float] = None

    def __post_init__(self):
        lower = _as_float_vector(self.lower, "lower")
        upper = _as_float_vector(self.upper, "upper")
        eq = np.asarray(self.eq_matrix, dtype=float)
        if eq.ndim != 2:
            eq = eq.reshape(-1, lower.size)
        rhs = _as_float_vector(self.eq_rhs, "eq_rhs") if np.size(self.eq_rhs) else np.zeros(eq.shape[0])
        if eq.shape[0] != rhs.size:
            raise DimensionMismatch(
                f"eq_matrix has {eq.shape[0]} rows but eq_rhs has {rhs.size} entries"
            )
        if eq.shape[1] != lower.size or upper.size != lower.size:
            raise DimensionMismatch("eq_matrix columns and bound lengths disagree")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        bc = self.budget_coeffs
        if bc is not None:
            bc = _as_float_vector(bc, "budget_coeffs")
            if bc.size != lower.size:
                raise DimensionMismatch("budget_coeffs length does not match bounds")
            if self.budget_limit is None:
                raise ValueError("budget_coeffs given without budget_limit")
        for name, val in (("eq_matrix", eq), ("eq_rhs", rhs), ("lower", lower),
                          ("upper", upper), ("budget_coeffs", bc)):
            object.__setattr__(self, name, val)
        if self.budget_limit is not None:
            object.__setattr__(self, "budget_limit", float(self.budget_limit))

    @property
    def dim(self) -> int:
        return self.lower.size

    @staticmethod
    def box(lower, upper) -> "Polyhedron":
        """Axis-aligned box with no equality or budget rows."""
        lower = _as_float_vector(lower, "lower")
        return Polyhedron(np.zeros((0, lower.size)), np.zeros(0), lower, upper)

    @staticmethod
    def interval(lo: float, hi: float) -> "Polyhedron":
        """One-dimensional box [lo, hi]."""
        return Polyhedron.box([lo], [hi])

    @staticmethod
    def simplex(n: int) -> "Polyhedron":
        """The probability simplex as {x >= 0, 1.x = 1}."""
        return Polyhedron(np.ones((1, n)), np.ones(1), np.zeros(n), np.ones(n))


@dataclass(frozen=True)
class LpSolution:
    """Outcome of :func:`solve_lp`.

    ``status`` is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``.
    On ``"optimal"`` the point is a vertex satisfying every constraint
    within :data:`TOL_FEAS`.
    """

    point: Optional[np.ndarray]
    objective: Optional[float]
    status: str


# ---------------------------------------------------------------------------
# Bounded-variable revised simplex
# ---------------------------------------------------------------------------

_DUAL_TOL = 1e-9
_RATIO_TOL = 1e-10
_STALL_CAP = 50  # degenerate pivots before switching to Bland's rule
_MAX_PIVOTS = 50000  # pivots per phase before it gives up as 'stalled'


# Nonbasic variable states: 0 = basic, 1 = at lower, 2 = at upper,
# 3 = free at zero, 4 = fixed (lower == upper, never enters).
_BASIC, _AT_LO, _AT_HI, _FREE, _FIXED = 0, 1, 2, 3, 4


def _solve_bounded_lp(A, b, c, lower, upper):
    """min c.x  s.t.  A x = b, lower <= x <= upper.

    Two-phase revised simplex with an explicit basis inverse.  Pricing is
    Dantzig (most negative reduced cost) with deterministic lowest-index
    tie-breaking; after _STALL_CAP consecutive degenerate pivots it falls
    back to Bland's rule until the objective moves again.  Returns
    (status, x).
    """
    m, n = A.shape
    lo = lower.copy()
    hi = upper.copy()

    if m == 0:
        # No equalities: every variable moves straight to its better bound.
        if np.any((c > _DUAL_TOL) & ~np.isfinite(lo)) or np.any((c < -_DUAL_TOL) & ~np.isfinite(hi)):
            return "unbounded", None
        x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        up = (c < 0) & np.isfinite(hi)
        x[up] = hi[up]
        return "optimal", x

    # Nonbasic start: finite bound of least magnitude; free variables at 0.
    x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    pick_hi = np.isfinite(lo) & np.isfinite(hi) & (np.abs(hi) < np.abs(lo))
    x0 = np.where(pick_hi, hi, x0)

    resid = b - A @ x0
    sgn = np.where(resid >= 0.0, 1.0, -1.0)
    A_ext = np.hstack([A, np.diag(sgn)])
    lo_ext = np.concatenate([lo, np.zeros(m)])
    hi_ext = np.concatenate([hi, np.full(m, np.inf)])
    x = np.concatenate([x0, np.abs(resid)])
    basis = np.arange(n, n + m)
    binv = np.diag(sgn)

    state = np.empty(n + m, dtype=np.int8)
    state[:n] = np.where(
        lo == hi, _FIXED,
        np.where(x0 == lo, _AT_LO, np.where(np.isfinite(hi) & (x0 == hi), _AT_HI, _FREE)),
    )
    state[n:] = _BASIC

    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    st = _simplex_phase_np(A_ext, b, c1, lo_ext, hi_ext, x, basis, binv, state)
    if st == "stalled":
        raise DegeneracyError("phase 1 made no progress after the anti-cycling cap")
    feas_tol = 1e-8 * (1.0 + np.abs(b).max())
    if float(c1 @ x) > feas_tol:
        return "infeasible", None
    # Artificial variables are pinned to zero for phase 2.
    lo_ext[n:] = 0.0
    hi_ext[n:] = 0.0
    x[n:][state[n:] != _BASIC] = 0.0
    state[n:][state[n:] != _BASIC] = _FIXED

    c2 = np.concatenate([c, np.zeros(m)])
    st = _simplex_phase_np(A_ext, b, c2, lo_ext, hi_ext, x, basis, binv, state)
    if st == "stalled":
        raise DegeneracyError("phase 2 made no progress after the anti-cycling cap")
    if st == "unbounded":
        return "unbounded", None
    return "optimal", x[:n]


def _simplex_phase_np(A, b, c, lo, hi, x, basis, binv, state):
    """Primal iterations in place; returns 'optimal'|'unbounded'|'stalled'."""
    m, n_total = A.shape
    AT = np.ascontiguousarray(A.T)
    dual_tol = _DUAL_TOL * (1.0 + np.abs(c).max())

    # Pricing direction per nonbasic state: viol = dirmask * r is positive
    # exactly when moving the variable improves the objective.  Kept in sync
    # with `state`; FREE columns need |r| and get a slower path.
    dirmask = np.zeros(n_total)
    dirmask[state == _AT_LO] = -1.0
    dirmask[state == _AT_HI] = 1.0
    has_free = bool((state == _FREE).any())

    # Basis-aligned copies, updated in O(1) per pivot instead of regathered.
    xb = x[basis].copy()
    cb = c[basis].copy()
    lo_b = lo[basis].copy()
    hi_b = hi[basis].copy()

    def flush():
        x[basis] = xb

    stall = 0
    bland = False
    since_refresh = 0

    for _ in range(_MAX_PIVOTS):
        y = binv.T @ cb
        r = c - AT @ y
        viol = dirmask * r
        if has_free:
            free = state == _FREE
            viol[free] = np.abs(r[free])

        if bland:
            elig = np.flatnonzero(viol > dual_tol)
            if elig.size == 0:
                flush()
                return "optimal"
            j = int(elig[0])
        else:
            j = int(np.argmax(viol))
            if viol[j] <= dual_tol:
                flush()
                return "optimal"
        direction = 1.0 if r[j] < 0.0 else -1.0

        d = binv @ A[:, j]
        step_b = d if direction < 0.0 else -d  # x_B moves by step_b * t

        tgt = np.where(step_b > 0.0, hi_b, lo_b)
        small = np.abs(step_b) <= _RATIO_TOL
        denom = np.where(small, 1.0, step_b)
        ratios = np.where(small, np.inf, (tgt - xb) / denom)
        np.maximum(ratios, 0.0, out=ratios)

        t_own = hi[j] - lo[j]  # own-bound flip distance (inf for free vars)
        t_basic = float(ratios.min())
        t_star = min(t_basic, t_own)
        if not np.isfinite(t_star):
            flush()
            return "unbounded"

        stall = stall + 1 if t_star <= _RATIO_TOL else 0
        if stall > _STALL_CAP:
            bland = True
        elif t_star > _RATIO_TOL:
            bland = False

        if t_own <= t_basic:
            # Bound flip: the entering variable crosses to its other bound.
            xb += step_b * t_own
            x[j] = hi[j] if direction > 0 else lo[j]
            state[j] = _AT_HI if direction > 0 else _AT_LO
            dirmask[j] = 1.0 if direction > 0 else -1.0
            continue

        cand = np.flatnonzero(ratios <= t_star + _RATIO_TOL)
        if bland:
            leave = int(cand[np.argmin(basis[cand])])
        else:
            leave = int(cand[np.argmax(np.abs(step_b[cand]))])
        v_leave = int(basis[leave])

        xb += step_b * t_star
        enter_val = x[j] + direction * t_star
        # Snap the leaving variable exactly onto the bound it hit.
        if lo[v_leave] == hi[v_leave]:
            x[v_leave] = lo[v_leave]
            state[v_leave] = _FIXED
            dirmask[v_leave] = 0.0
        elif step_b[leave] > 0:
            x[v_leave] = hi[v_leave]
            state[v_leave] = _AT_HI
            dirmask[v_leave] = 1.0
        else:
            x[v_leave] = lo[v_leave]
            state[v_leave] = _AT_LO
            dirmask[v_leave] = -1.0

        basis[leave] = j
        state[j] = _BASIC
        dirmask[j] = 0.0
        xb[leave] = enter_val
        cb[leave] = c[j]
        lo_b[leave] = lo[j]
        hi_b[leave] = hi[j]

        piv = d[leave]
        if abs(piv) < 1e-12:
            raise DegeneracyError("vanishing pivot element")
        binv[leave, :] /= piv
        col = d.copy()
        col[leave] = 0.0
        binv -= np.outer(col, binv[leave, :])

        since_refresh += 1
        if since_refresh >= 100:
            since_refresh = 0
            try:
                binv[:, :] = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError as exc:
                raise DegeneracyError("singular basis during refactorization") from exc
            z = x.copy()
            z[basis] = 0.0
            xb[:] = binv @ (b - A @ z)
    flush()
    return "stalled"


def _standard_form(c, poly: Polyhedron):
    n = poly.dim
    if poly.budget_coeffs is not None:
        A = np.zeros((poly.eq_matrix.shape[0] + 1, n + 1))
        A[:-1, :n] = poly.eq_matrix
        A[-1, :n] = poly.budget_coeffs
        A[-1, n] = 1.0  # slack for the budget row
        b = np.concatenate([poly.eq_rhs, [poly.budget_limit]])
        lo = np.concatenate([poly.lower, [0.0]])
        hi = np.concatenate([poly.upper, [np.inf]])
        cc = np.concatenate([c, [0.0]])
    else:
        A, b = poly.eq_matrix, poly.eq_rhs
        lo, hi, cc = poly.lower, poly.upper, c
    return A, b, cc, lo, hi


def solve_lp(c, poly: Polyhedron) -> LpSolution:
    """Minimize ``c . x`` over a :class:`Polyhedron`.

    Returns a vertex on success (nonbasic coordinates sit exactly on their
    bounds).  The pivot rule is fixed, so identical inputs produce
    bitwise-identical solutions.

    Raises
    ------
    DimensionMismatch
        if ``c`` does not match the polyhedron dimension.
    DegeneracyError
        if no progress is made after the anti-cycling cap.
    """
    c = _as_float_vector(c, "c")
    if c.size != poly.dim:
        raise DimensionMismatch(f"cost has {c.size} entries, polyhedron has dim {poly.dim}")
    A, b, cc, lo, hi = _standard_form(c, poly)
    status, x = _solve_bounded_lp(A, b, cc, lo, hi)
    if status != "optimal":
        return LpSolution(None, None, status)
    point = x[: poly.dim].copy()
    return LpSolution(point, float(c @ point), "optimal")


# ---------------------------------------------------------------------------
# Frank-Wolfe with away steps
# ---------------------------------------------------------------------------


class FwResult(NamedTuple):
    point: np.ndarray
    gap: float
    iterations: int
    converged: bool


def _poly_min_on_interval(coeffs: np.ndarray, s_max: float) -> float:
    """Minimizer of a polynomial (coefficients low->high) on [0, s_max]."""
    coeffs = np.asarray(coeffs, dtype=float)
    scale = np.abs(coeffs).max()
    if scale == 0.0 or coeffs.size < 2:
        return 0.0
    trimmed = np.trim_zeros(np.where(np.abs(coeffs) < 1e-15 * scale, 0.0, coeffs), "b")
    if trimmed.size < 2:
        return 0.0
    der = np.polynomial.polynomial.polyder(trimmed)
    candidates = [0.0, s_max]
    if der.size == 1:
        pass  # linear objective: endpoints only
    else:
        roots = np.polynomial.polynomial.polyroots(der)
        for root in roots:
            if abs(root.imag) < 1e-9:
                s = float(root.real)
                if 0.0 < s < s_max:
                    candidates.append(s)
    vals = [float(np.polynomial.polynomial.polyval(s, trimmed)) for s in candidates]
    return candidates[int(np.argmin(vals))]


def _backtracking_step(fun, x, d, s_max, f0, slope):
    """Armijo backtracking from s_max; assumes slope = grad.d < 0."""
    s = s_max
    for _ in range(60):
        if fun(x + s * d)[0] <= f0 + 1e-4 * s * slope:
            return s
        s *= 0.5
    return 0.0


def _line_search(fun, x, d, s_max, f0, g0, line_poly):
    if s_max <= 0.0:
        return 0.0
    if line_poly is not None:
        return _poly_min_on_interval(line_poly(x, d), s_max)
    slope = float(g0 @ d)
    if slope >= 0.0:
        return 0.0
    # Quadratic probe: exact for quadratics, Armijo-guarded otherwise.
    f1 = fun(x + s_max * d)[0]
    curv = 2.0 * (f1 - f0 - slope * s_max) / (s_max * s_max)
    if curv > 1e-14 * (1.0 + abs(f0)):
        s = min(max(-slope / curv, 0.0), s_max)
        if s > 0.0 and fun(x + s * d)[0] <= f0 + 1e-4 * s * slope:
            return s
    if f1 <= f0 + 1e-4 * s_max * slope:
        return s_max
    return _backtracking_step(fun, x, d, s_max, f0, slope)


def frank_wolfe_min(
    fun: Callable[[np.ndarray], tuple],
    poly: Polyhedron,
    tol_gap: Optional[float] = None,
    max_iter: int = 2000,
    line_poly: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> FwResult:
    """Minimize a smooth convex function over a bounded polyhedron.

    ``fun(x)`` must return ``(value, gradient)``.  The linear subproblems go
    through :func:`solve_lp`; away steps over the running vertex set remove
    the zigzagging that keeps plain conditional gradient from certifying
    small gaps.  ``line_poly(x, d)``, when given, must return the exact
    coefficients (low order first) of ``s -> f(x + s d)``; the step is then
    found by exact polynomial minimization, otherwise by a quadratic probe
    with Armijo backtracking.

    ``tol_gap=None`` targets a 1e-6 reduction of the initial gap.
    Non-convergence is reported through ``converged=False`` and the final
    gap, never as an exception; an empty polyhedron raises
    :class:`InfeasibleError`.
    """
    seed_sol = solve_lp(np.zeros(poly.dim), poly)
    if seed_sol.status != "optimal":
        raise InfeasibleError(f"polyhedron is {seed_sol.status}")
    x = seed_sol.point
    verts = [x.copy()]
    alphas = [1.0]

    gap = np.inf
    tol = tol_gap
    it = 0
    for it in range(1, max_iter + 1):
        f0, g = fun(x)
        sol = solve_lp(g, poly)
        if sol.status != "optimal":
            raise InfeasibleError(f"linear oracle returned {sol.status}")
        v = sol.point
        gap = float(g @ (x - v))
        if tol is None:
            tol = 1e-6 * gap if gap > 0 else 0.0
        if gap <= tol:
            return FwResult(x, gap, it, True)

        scores = [float(g @ u) for u in verts]
        a_idx = int(np.argmax(scores))
        away_gap = scores[a_idx] - float(g @ x)

        if gap >= away_gap or len(verts) == 1:
            d = v - x
            s_max = 1.0
            s = _line_search(fun, x, d, s_max, f0, g, line_poly)
            if s <= 0.0:
                return FwResult(x, gap, it, gap <= tol)
            if s >= 1.0 - 1e-14:
                verts = [v.copy()]
                alphas = [1.0]
            else:
                for i in range(len(alphas)):
                    alphas[i] *= 1.0 - s
                key = v.tobytes()
                for i, u in enumerate(verts):
                    if u.tobytes() == key:
                        alphas[i] += s
                        break
                else:
                    verts.append(v.copy())
                    alphas.append(s)
        else:
            a = verts[a_idx]
            alpha_a = alphas[a_idx]
            d = x - a
            s_max = alpha_a / (1.0 - alpha_a) if alpha_a < 1.0 else 0.0
            s = _line_search(fun, x, d, s_max, f0, g, line_poly)
            if s <= 0.0:
                return FwResult(x, gap, it, gap <= tol)
            for i in range(len(alphas)):
                alphas[i] *= 1.0 + s
            alphas[a_idx] -= s
            if alphas[a_idx] <= 1e-13:
                del alphas[a_idx]
                del verts[a_idx]

        total = sum(alphas)
        alphas = [a_w / total for a_w in alphas]
        x = np.zeros(poly.dim)
        for a_w, u in zip(alphas, verts):
            x += a_w * u

    f0, g = fun(x)
    sol = solve_lp(g, poly)
    if sol.status == "optimal":
        gap = float(g @ (x - sol.point))
    return FwResult(x, gap, it, gap <= (tol if tol is not None else 0.0))


# ---------------------------------------------------------------------------
# Simplex projection and membership
# ---------------------------------------------------------------------------


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex; a matrix
    is projected row by row.

    Sort-based active-set solve along the last axis: the output is
    nonnegative, sums to one to machine precision, and projecting it again
    returns it unchanged.  Each row of a matrix's projection is bitwise
    equal to the projection of that row on its own.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValueError("project_simplex requires finite input")
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, v.shape[-1] + 1)
    rho = np.count_nonzero(u - css / idx > 0.0, axis=-1, keepdims=True)
    theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
    return np.maximum(v - theta, 0.0)


def contains(poly: Polyhedron, x, tol: float = TOL_FEAS) -> bool:
    """True iff ``x`` satisfies every constraint of ``poly`` within ``tol``."""
    x = _as_float_vector(x, "x")
    if x.size != poly.dim:
        raise DimensionMismatch(f"point has {x.size} entries, polyhedron has dim {poly.dim}")
    if poly.eq_matrix.shape[0]:
        if np.abs(poly.eq_matrix @ x - poly.eq_rhs).max() > tol:
            return False
    if np.any(x < poly.lower - tol) or np.any(x > poly.upper + tol):
        return False
    if poly.budget_coeffs is not None:
        if float(poly.budget_coeffs @ x) > poly.budget_limit + tol:
            return False
    return True
