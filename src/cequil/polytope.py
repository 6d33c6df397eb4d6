"""Polyhedral action sets and the dense convex-optimization kernel.

This module provides the geometry every other part of the package sits on:

* :class:`Polyhedron` -- a feasible set ``{x : Ex = s, lo <= x <= hi,
  a.x <= gamma}`` (equalities, box bounds, one optional budget row).
* :func:`solve_lp` -- a bounded-variable revised simplex (two phases,
  Dantzig pricing with a Bland anti-cycling fallback), the one LP path for
  every polyhedron, boxes included.  Phase 1 does not read the cost, so it
  runs once, when the polyhedron is constructed, and every call runs phase
  2 only.  Phase 2 starts from the polyhedron's phase-1 basis, or, given
  ``warm=`` a previous optimal solution on the same polyhedron, from that
  solution's basis.  Deterministic: identical inputs (``warm`` included)
  give bitwise-identical vertices.
* :func:`frank_wolfe_min` -- conditional-gradient minimization of a smooth
  convex function over a :class:`Polyhedron`, with away steps over the
  active vertex set and exact line search when the objective is polynomial
  along segments.  Each linear subproblem is warm-started from the previous
  iteration's; the chain lives inside one call, so the result is a pure
  function of the inputs.  The returned gap ``g(x) = grad f(x).(x - v)`` is
  a valid suboptimality certificate.
* :func:`project_simplex` -- Euclidean projection onto the probability
  simplex.
* :func:`contains` -- feasibility check at a tolerance.

Everything here is a pure function of its inputs; the types are immutable
after construction (their arrays, the phase-1 start included, are
read-only) and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    optional.  Bounds may be infinite but not NaN; every other entry must be
    finite.  Degenerate sets (empty, single point) are legal; emptiness
    surfaces as an infeasible LP status.  Construction runs simplex phase 1,
    so it raises :class:`DegeneracyError` if phase 1 stalls.
    """

    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    budget_coeffs: Optional[np.ndarray] = None
    budget_limit: Optional[float] = None
    # solve_lp's cost-independent phase-1 start (or "infeasible"), set once
    # by __post_init__.
    _lp_start: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        lower = _as_float_vector(self.lower, "lower")
        upper = _as_float_vector(self.upper, "upper")
        eq = np.asarray(self.eq_matrix, dtype=float)
        if eq.ndim != 2:
            eq = eq.reshape(-1, lower.size)
        rhs = _as_float_vector(self.eq_rhs, "eq_rhs")
        if eq.shape[0] != rhs.size:
            raise DimensionMismatch(
                f"eq_matrix has {eq.shape[0]} rows but eq_rhs has {rhs.size} entries"
            )
        if eq.shape[1] != lower.size or upper.size != lower.size:
            raise DimensionMismatch("eq_matrix columns and bound lengths disagree")
        if lower.size == 0:
            raise DimensionMismatch("a polyhedron needs at least one coordinate")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        bc = self.budget_coeffs
        if bc is not None:
            bc = _as_float_vector(bc, "budget_coeffs")
            if bc.size != lower.size:
                raise DimensionMismatch("budget_coeffs length does not match bounds")
            if self.budget_limit is None:
                raise ValueError("budget_coeffs given without budget_limit")
        limit = None if self.budget_limit is None else float(self.budget_limit)
        for name, val in (("eq_matrix", eq), ("eq_rhs", rhs), ("budget_coeffs", bc),
                          ("budget_limit", limit)):
            if val is not None and not np.isfinite(val).all():
                raise ValueError(f"{name} must be finite")
        for name, val in (("eq_matrix", eq), ("eq_rhs", rhs), ("lower", lower),
                          ("upper", upper), ("budget_coeffs", bc)):
            if val is not None:
                val = val.copy()
                val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "budget_limit", limit)
        object.__setattr__(self, "_lp_start", _phase1(*_standard_form(self)))

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
    within :data:`TOL_FEAS`, and it can warm-start the next
    :func:`solve_lp` on the same polyhedron.
    """

    point: Optional[np.ndarray]
    objective: Optional[float]
    status: str
    # (phase-1 start, basis, state): the start phase 2 ran from and the
    # read-only extended basis it ended with; None unless optimal.
    _final_basis: object = field(default=None, repr=False, compare=False)


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


def _phase1(A, b, lo, hi):
    """Feasible start for  min c.x  s.t.  A x = b, lo <= x <= hi.

    Phase 1 of the two-phase revised simplex: one artificial variable per
    row, driven to zero.  It never reads the cost, so one start serves every
    ``c``.  Returns ``"infeasible"`` or the read-only tuple
    ``(A_ext, b, lo_ext, hi_ext, x, basis, binv, state)`` with the
    artificials pinned to zero, which :func:`_phase2` starts from.
    """
    m, n = A.shape

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
    feas_tol = 1e-8 * (1.0 + np.abs(b).max(initial=0.0))
    if float(c1 @ x) > feas_tol:
        return "infeasible"
    # Artificial variables are pinned to zero for phase 2.
    lo_ext[n:] = 0.0
    hi_ext[n:] = 0.0
    x[n:][state[n:] != _BASIC] = 0.0
    state[n:][state[n:] != _BASIC] = _FIXED

    start = (A_ext, b, lo_ext, hi_ext, x, basis, binv, state)
    for arr in start:
        arr.flags.writeable = False
    return start


def _phase2(start, c, warm=None):
    """min c.x from a copy of a :func:`_phase1` start, or from the final
    basis ``warm = (start, basis, state)`` of an earlier phase 2 on it.

    Returns (status, x, final) with x over the first ``c.size`` variables
    and, on "optimal", ``final = (start, basis, state)`` read-only.
    """
    A_ext, b, lo_ext, hi_ext, x, basis, binv, state = start
    if warm is None:
        x, basis, binv, state = x.copy(), basis.copy(), binv.copy(), state.copy()
    else:
        # Nonbasic variables back on their bounds, basic ones solved for:
        # the refactorization the simplex runs every 100 pivots.
        basis, state = warm[1].copy(), warm[2].copy()
        x = np.where(state == _AT_HI, hi_ext, np.where(state == _FREE, 0.0, lo_ext))
        try:
            binv = np.linalg.inv(A_ext[:, basis])
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError("singular warm-start basis") from exc
        x[basis] = 0.0
        x[basis] = binv @ (b - A_ext @ x)
    c2 = np.zeros(x.size)
    c2[:c.size] = c
    st = _simplex_phase_np(A_ext, b, c2, lo_ext, hi_ext, x, basis, binv, state)
    if st == "stalled":
        raise DegeneracyError("phase 2 made no progress after the anti-cycling cap")
    if st == "unbounded":
        return "unbounded", None, None
    basis.flags.writeable = False
    state.flags.writeable = False
    return "optimal", x[:c.size], (start, basis, state)


def _simplex_phase_np(A, b, c, lo, hi, x, basis, binv, state):
    """Primal iterations in place; returns 'optimal'|'unbounded'|'stalled'.

    Pricing is Dantzig (most negative reduced cost) with deterministic
    lowest-index tie-breaking; after _STALL_CAP consecutive degenerate
    pivots it falls back to Bland's rule until the objective moves again.
    """
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
        t_basic = float(ratios.min(initial=np.inf))
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


def _standard_form(poly: Polyhedron):
    """(A, b, lo, hi) of ``poly`` with the budget row as an equality over a
    nonnegative slack column."""
    if poly.budget_coeffs is None:
        return poly.eq_matrix, poly.eq_rhs, poly.lower, poly.upper
    n = poly.dim
    A = np.zeros((poly.eq_matrix.shape[0] + 1, n + 1))
    A[:-1, :n] = poly.eq_matrix
    A[-1, :n] = poly.budget_coeffs
    A[-1, n] = 1.0  # slack for the budget row
    b = np.concatenate([poly.eq_rhs, [poly.budget_limit]])
    lo = np.concatenate([poly.lower, [0.0]])
    hi = np.concatenate([poly.upper, [np.inf]])
    return A, b, lo, hi


def solve_lp(c, poly: Polyhedron, warm: Optional[LpSolution] = None) -> LpSolution:
    """Minimize ``c . x`` over a :class:`Polyhedron`.

    Returns a vertex on success (nonbasic coordinates sit exactly on their
    bounds).  Every polyhedron, a box included, takes the same path: phase
    2 from a copy of the feasible start (or the verdict "infeasible") that
    ``poly`` computed when it was constructed.  ``poly`` is only read, so a
    call without ``warm`` is the same whatever was solved before and from
    whichever thread.  The pivot rule is fixed, so identical inputs produce
    bitwise-identical solutions.

    ``warm``, an earlier optimal solution on this polyhedron, starts phase
    2 from the basis that solution ended with instead; when consecutive
    costs are close (Frank-Wolfe gradients) few pivots remain.  The optimum
    is the same up to the pricing tolerance, but among tied optima a warm
    call may return another vertex than a cold one.

    Raises
    ------
    DimensionMismatch
        if ``c`` does not match the polyhedron dimension.
    DegeneracyError
        if phase 2 makes no progress after the anti-cycling cap.
    ValueError
        if ``warm`` is not an optimal solution on this polyhedron (its
        phase-1 start is not the one ``poly`` holds).
    """
    c = _as_float_vector(c, "c")
    if c.size != poly.dim:
        raise DimensionMismatch(f"cost has {c.size} entries, polyhedron has dim {poly.dim}")
    if warm is not None and warm.status != "optimal":
        raise ValueError(f"warm start must be an optimal solution, got {warm.status!r}")
    start = poly._lp_start
    if warm is not None and warm._final_basis[0] is not start:
        raise ValueError("warm start comes from another polyhedron")
    if start == "infeasible":
        return LpSolution(None, None, "infeasible")
    status, x, final = _phase2(start, c, None if warm is None else warm._final_basis)
    if status != "optimal":
        return LpSolution(None, None, status)
    point = x.copy()
    return LpSolution(point, float(c @ point), "optimal", final)


# ---------------------------------------------------------------------------
# Frank-Wolfe with away steps
# ---------------------------------------------------------------------------


class FwResult(NamedTuple):
    """Outcome of :func:`frank_wolfe_min`: the returned point, the objective
    there, the FW gap there, the iterations run and ``gap <= tol_gap``."""

    point: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool


def _poly_min_on_interval(coeffs: np.ndarray, s_max: float) -> float:
    """Minimizer on [0, s_max] of a polynomial (coefficients low->high) that
    is convex there, as every Frank-Wolfe line polynomial is.

    Convexity makes p' nondecreasing, so the step is 0 when p'(0) >= 0,
    s_max when p'(s_max) <= 0, and otherwise the root of p', found by
    Newton's method from the secant root with bisection whenever a Newton
    step leaves the bracket.  Horner's rule on Python floats evaluates p,
    p' and p'' together.  The root is returned only if its p is below both
    endpoints' (else the better endpoint), so rounding in the root search
    never makes a step worse than both ends of the segment.
    """
    c = [float(v) for v in coeffs]

    def horner(s):
        p = dp = ddp = 0.0
        for a in reversed(c):
            ddp = ddp * s + 2.0 * dp
            dp = dp * s + p
            p = p * s + a
        return p, dp, ddp

    if s_max <= 0.0:
        return 0.0
    p0, dp0, _ = horner(0.0)
    if dp0 >= 0.0:
        return 0.0
    p1, dp1, _ = horner(s_max)
    if dp1 <= 0.0:
        return s_max
    lo, hi = 0.0, s_max  # p'(lo) < 0 < p'(hi)
    s = s_max * dp0 / (dp0 - dp1)
    for _ in range(100):
        _, dp, ddp = horner(s)
        if dp < 0.0:
            lo = s
        elif dp > 0.0:
            hi = s
        else:
            break
        t = s - dp / ddp if ddp > 0.0 else -1.0
        if abs(t - s) <= 1e-15 * s_max:
            break  # Newton has converged
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        if t == s:
            break  # the bracket is down to adjacent floats
        s = t
    candidates = (0.0, s_max, s)
    vals = (p0, p1, horner(s)[0])
    return candidates[vals.index(min(vals))]


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
    tol_gap: float,
    max_iter: int = 2000,
    line_poly: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> FwResult:
    """Minimize a smooth convex function over a bounded polyhedron.

    ``fun(x)`` must return ``(value, gradient)``.  The linear subproblems go
    through :func:`solve_lp`, each warm-started from the previous
    iteration's solution (the first starts cold); the chain lives only
    inside this call, so the result is a pure function of the arguments.
    Away steps over the running vertex set remove the zigzagging that keeps
    plain conditional gradient from certifying small gaps.
    ``line_poly(x, d)``, when given, must return the exact coefficients
    (low order first) of ``s -> f(x + s d)``; the step is then the exact
    minimizer of that polynomial, found from the root of its derivative
    (this assumes ``f`` is convex; a root inside the segment is still kept
    only if it beats both ends).  Without it the step comes from a
    quadratic probe with Armijo backtracking.

    Iteration stops once the gap ``g(x) = grad f(x).(x - v)`` is at most
    ``tol_gap``.  The result carries ``value = f(x)`` at the returned point;
    the gap there bounds ``value - min f`` whether or not the run converged.
    Non-convergence is reported through ``converged=False`` and the final
    gap, never as an exception; an empty polyhedron raises
    :class:`InfeasibleError`.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    seed_sol = solve_lp(np.zeros(poly.dim), poly)
    if seed_sol.status != "optimal":
        raise InfeasibleError(f"polyhedron is {seed_sol.status}")
    x = seed_sol.point
    verts = [x.copy()]
    alphas = [1.0]

    # pass max_iter + 1 only measures the gap at the last iterate
    sol = None
    for it in range(1, max_iter + 2):
        f0, g = fun(x)
        sol = solve_lp(g, poly, warm=sol)
        if sol.status != "optimal":
            raise InfeasibleError(f"linear oracle returned {sol.status}")
        v = sol.point
        gap = float(g @ (x - v))
        if gap <= tol_gap or it > max_iter:
            return FwResult(x, f0, gap, min(it, max_iter), gap <= tol_gap)

        scores = [float(g @ u) for u in verts]
        a_idx = int(np.argmax(scores))
        away_gap = scores[a_idx] - float(g @ x)

        if gap >= away_gap or len(verts) == 1:
            d = v - x
            s_max = 1.0
            s = _line_search(fun, x, d, s_max, f0, g, line_poly)
            if s <= 0.0:
                return FwResult(x, f0, gap, it, gap <= tol_gap)
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
                return FwResult(x, f0, gap, it, gap <= tol_gap)
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
    """True iff ``x`` is finite and satisfies every constraint of ``poly``
    within ``tol``."""
    x = _as_float_vector(x, "x")
    if x.size != poly.dim:
        raise DimensionMismatch(f"point has {x.size} entries, polyhedron has dim {poly.dim}")
    if not np.isfinite(x).all():
        return False
    if poly.eq_matrix.shape[0]:
        if np.abs(poly.eq_matrix @ x - poly.eq_rhs).max() > tol:
            return False
    if np.any(x < poly.lower - tol) or np.any(x > poly.upper + tol):
        return False
    if poly.budget_coeffs is not None:
        if float(poly.budget_coeffs @ x) > poly.budget_limit + tol:
            return False
    return True
