"""Polyhedral action sets and the dense convex-optimization kernel.

This module provides the geometry every other part of the package sits on:

* :class:`Polyhedron` -- a feasible set ``{x : Ex = s, lo <= x <= hi,
  a.x <= gamma}`` (equalities, finite box bounds, one optional budget
  row).  The bounds are finite and construction rejects an empty set, so
  every action set is a nonempty compact convex set, as the equilibrium
  theory needs.
* :func:`solve_lp` -- a bounded-variable revised simplex (two phases,
  Dantzig pricing, ratio-test ties drawn at random in a long degenerate
  stall), the one LP path for every polyhedron, boxes included.  Every
  solve continues an :class:`LpSolution`: the simplex state it ended in
  (extended vertex, basis, basis inverse, pricing mask) is the next
  solve's start.  Phase 1 does not read the cost, so it runs once, when
  the polyhedron is constructed, and its vertex is kept as the solution of
  the zero cost; a call continues that one, or, given ``warm=``, an
  earlier solution on the same polyhedron.  The pricing mask is the one
  record of which bound each nonbasic variable sits at.  A pivot's ratio
  test runs in Python floats on the basic rows the entering column moves,
  which on a network polytope are few.  An LP over a nonempty bounded set
  has an optimum, so every call returns an optimal vertex or raises.
  Deterministic: identical inputs (``warm`` included) give
  bitwise-identical vertices.
* :func:`frank_wolfe_min` -- conditional-gradient minimization of a smooth
  convex function over a :class:`Polyhedron` from its phase-1 vertex, with
  away steps over the active vertex set, both kept by one weight update;
  every step is exact on its segment, found by one Illinois secant on the
  sign of the slope there (from the step polynomial when the objective
  supplies one, else from the gradient).  The linear subproblems form one
  warm chain: the first continues the polyhedron's nominal solution (the
  minimum of its budget row, solved once at construction; for a traffic
  polytope the free-flow route, which lies close to the optima of the
  gradients that follow; the phase-1 solution without a budget row), and
  each later one continues the previous iteration's.  The chain lives
  inside one call, so the result is a pure function of the inputs.
  The returned gap ``g(x) = grad f(x).(x - v)`` is the stop rule's; the
  returned ``bound`` on ``min f`` comes from the final LP basis's duals by
  weak duality, so it holds whatever tolerance the simplex stopped at.
* :func:`project_simplex` -- Euclidean projection onto the probability
  simplex.
* :func:`contains` -- feasibility check at :data:`TOL_FEAS`.

Everything here is a pure function of its inputs; :class:`Polyhedron` and
:class:`LpSolution` are immutable after construction (their arrays, the
phase-1 and nominal solutions included, are read-only) and safe to share
across threads.  A :class:`FwResult`'s point is the caller's own,
writable array.
"""

from __future__ import annotations

import math
import operator
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

#: Feasibility tolerance of membership checks and LP cleanup.
TOL_FEAS = 1e-7


class PolytopeError(Exception):
    """Base class for errors raised by this module."""


class DimensionMismatch(PolytopeError, ValueError):
    """Vector dimensions do not match the polyhedron."""


class DegeneracyError(PolytopeError, RuntimeError):
    """A simplex phase ran out of pivots (``_MAX_PIVOTS``) without reaching
    its optimum, or rounding left an entering column with no bound on its
    step.  Phase 1 raises it from :class:`Polyhedron`'s construction,
    phase 2 from :func:`solve_lp`."""


class InfeasibleError(PolytopeError, RuntimeError):
    """A :class:`Polyhedron` was constructed on an empty set: phase 1
    ended with positive infeasibility."""


def _as_count(value, name: str) -> int:
    """``value`` as an int, or a TypeError that names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _as_float_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """Feasible set ``{x : eq_matrix x = eq_rhs, lower <= x <= upper,
    budget_coeffs . x <= budget_limit}``.

    ``eq_matrix`` is a dense 2-D array with one row per linear equality
    (for flow polytopes: one row per node, entries in {-1, 0, +1}); the
    budget row is optional.  Every entry must be finite, the bounds
    included, so the set is a bounded box cut by the rows: an action set
    is compact.  It must also be nonempty: construction runs simplex phase
    1, and an empty set raises :class:`InfeasibleError`.  A single point is
    legal.  When there is a budget row, construction then solves the
    budget LP ``min budget_coeffs . x`` from the phase-1 solution: its
    optimal solution is the start of every :func:`frank_wolfe_min` LP chain
    on this set.  Construction raises :class:`DegeneracyError` if either LP
    runs out of pivots.
    """

    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    budget_coeffs: Optional[np.ndarray] = None
    budget_limit: Optional[float] = None
    # The phase-1 LpSolution, of the zero cost, that a cold solve_lp call
    # continues; set once by __post_init__.
    _origin: object = field(default=None, init=False, repr=False)
    # The LpSolution of min budget_coeffs.x continued from _origin, or
    # _origin itself when there is no budget row; set once by __post_init__.
    # frank_wolfe_min's LP chain continues it.
    _nominal: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        lower = _as_float_vector(self.lower, "lower")
        upper = _as_float_vector(self.upper, "upper")
        eq = np.asarray(self.eq_matrix, dtype=float)
        if eq.ndim != 2:
            raise DimensionMismatch(f"eq_matrix must be a matrix, got shape {eq.shape}")
        rhs = _as_float_vector(self.eq_rhs, "eq_rhs")
        if eq.shape[0] != rhs.size:
            raise DimensionMismatch(
                f"eq_matrix has {eq.shape[0]} rows but eq_rhs has {rhs.size} entries"
            )
        if eq.shape[1] != lower.size or upper.size != lower.size:
            raise DimensionMismatch("eq_matrix columns and bound lengths disagree")
        if lower.size == 0:
            raise DimensionMismatch("a polyhedron needs at least one coordinate")
        bc = self.budget_coeffs
        if bc is not None:
            bc = _as_float_vector(bc, "budget_coeffs")
            if bc.size != lower.size:
                raise DimensionMismatch("budget_coeffs length does not match bounds")
            if self.budget_limit is None:
                raise ValueError("budget_coeffs given without budget_limit")
        elif self.budget_limit is not None:
            raise ValueError("budget_limit given without budget_coeffs")
        limit = None if self.budget_limit is None else float(self.budget_limit)
        for name, val in (("eq_matrix", eq), ("eq_rhs", rhs), ("lower", lower),
                          ("upper", upper), ("budget_coeffs", bc), ("budget_limit", limit)):
            if val is not None and not np.isfinite(val).all():
                raise ValueError(f"{name} must be finite")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        for name, val in (("eq_matrix", eq), ("eq_rhs", rhs), ("lower", lower),
                          ("upper", upper), ("budget_coeffs", bc)):
            if val is not None:
                val = val.copy()
                val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "budget_limit", limit)
        object.__setattr__(self, "_origin", _phase1(self))
        object.__setattr__(self, "_nominal", self._origin if bc is None else solve_lp(bc, self))

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


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Outcome of :func:`solve_lp`: an optimal vertex ``point`` and the
    ``objective`` there.

    The point satisfies every constraint within :data:`TOL_FEAS`.  The
    solution is also the record of the simplex run: the standard form it
    ran on and the state it ended in, which the next :func:`solve_lp` on
    the same polyhedron can continue and :func:`_dual_bound` prices.
    ``point`` is a read-only view of that state's extended vertex.
    """

    point: np.ndarray
    objective: float
    # (A, A^T contiguous, b, lo, hi) of the standard form, shared by every
    # solution on one polyhedron: the bounds as tuples of Python floats,
    # which the simplex reads one entry at a time.
    _form: object = field(default=None, repr=False)
    # The read-only state the run ended in, which a later run continues from
    # a copy of: the extended vertex, the basis, its inverse, the pricing
    # mask (see _simplex_phase_np) and the pivots since the inverse was last
    # refactorized.
    _x: Optional[np.ndarray] = field(default=None, repr=False)
    _basis: Optional[np.ndarray] = field(default=None, repr=False)
    _binv: Optional[np.ndarray] = field(default=None, repr=False)
    _dirmask: Optional[np.ndarray] = field(default=None, repr=False)
    _since_refresh: int = field(default=0, repr=False)


# ---------------------------------------------------------------------------
# Bounded-variable revised simplex
# ---------------------------------------------------------------------------

_DUAL_TOL = 1e-9
_RATIO_TOL = 1e-10
_STALL_CAP = 50  # degenerate pivots before ratio-test ties are broken at random
_MAX_PIVOTS = 50000  # pivots per phase before it raises DegeneracyError
_REFACTOR_EVERY = 100  # pivots between refactorizations of the basis inverse
_FW_MAX_ITER = 2000  # Frank-Wolfe iterations per call before it stops unconverged


def _phase1(poly: Polyhedron) -> LpSolution:
    """The phase-1 solution of ``poly``: a feasible vertex of its standard
    form, the budget row an equality over a nonnegative slack column.

    Phase 1 of the two-phase revised simplex: one artificial variable per
    row, driven to zero.  It never reads the cost, so it runs once and its
    end state, with the artificials pinned to zero and the pivot count at
    zero, is returned as the solution of the zero cost, the one every
    :func:`solve_lp` call without ``warm`` continues.  Raises
    :class:`InfeasibleError` if the artificials cannot reach zero (the set
    is empty).
    """
    A, b, lo, hi = poly.eq_matrix, poly.eq_rhs, poly.lower, poly.upper
    if poly.budget_coeffs is not None:
        A = np.block([[A, np.zeros((A.shape[0], 1))], [poly.budget_coeffs, 1.0]])
        b, lo, hi = np.append(b, poly.budget_limit), np.append(lo, 0.0), np.append(hi, np.inf)
    m, n = A.shape

    # Nonbasic start: the bound of least magnitude, the lower one on a tie
    # (the budget slack's upper bound is +inf, so it starts at 0).
    x0 = np.where(np.abs(hi) < np.abs(lo), hi, lo)

    resid = b - A @ x0
    sgn = np.where(resid >= 0.0, 1.0, -1.0)
    A_ext = np.hstack([A, np.diag(sgn)])
    AT_ext = np.ascontiguousarray(A_ext.T)
    lo_ext = np.concatenate([lo, np.zeros(m)])
    hi_ext = np.concatenate([hi, np.full(m, np.inf)])
    x = np.concatenate([x0, np.abs(resid)])
    basis = np.arange(n, n + m)
    binv = np.diag(sgn)
    dirmask = np.zeros(n + m)
    dirmask[:n] = (x0 == hi) * 1.0 - (x0 == lo) * 1.0  # a fixed column is at both: 0

    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    _simplex_phase_np(A_ext, AT_ext, b, c1, tuple(lo_ext.tolist()),
                      tuple(hi_ext.tolist()), x, basis, binv, dirmask, 0)
    infeasibility = float(c1 @ x)
    if infeasibility > 1e-8 * (1.0 + np.abs(b).max(initial=0.0)):
        raise InfeasibleError(f"the polyhedron is empty (phase-1 infeasibility "
                              f"{infeasibility:.3g})")
    # Artificial variables are pinned to zero for phase 2, as fixed columns.
    # A nonbasic one left the basis onto 0.0, its only finite bound, so only
    # the mask changes; a basic one's mask is 0 already.
    lo_ext[n:] = 0.0
    hi_ext[n:] = 0.0
    dirmask[n:] = 0.0

    for arr in (A_ext, AT_ext, b, x, basis, binv, dirmask):
        arr.flags.writeable = False
    form = (A_ext, AT_ext, b, tuple(lo_ext.tolist()), tuple(hi_ext.tolist()))
    return LpSolution(x[:poly.dim], 0.0, form, x, basis, binv, dirmask)


def _ratio_test(step, xb, lo_b, hi_b, rng):
    """Ratio test of the bounded simplex on Python floats.

    ``step[i]`` is how fast basic variable ``i`` (value ``xb[i]``, bounds
    ``lo_b[i]``, ``hi_b[i]``) moves per unit step of the entering variable.
    Only rows with ``|step| > _RATIO_TOL`` bound the step; their ratio is
    the distance to the bound they move toward, clamped below at +0.0.
    Returns ``(t_basic, leave)``: the least ratio (``inf`` if no row bounds
    the step) and the leaving row, among the rows within ``_RATIO_TOL`` of
    it the first with the largest ``|step|``, or, given a generator
    ``rng`` (a stalled run), one drawn uniformly.  ``leave`` is -1 when
    ``t_basic`` is infinite.
    """
    rows = []
    t_basic = math.inf
    for i, s in enumerate(step):
        if s > _RATIO_TOL or s < -_RATIO_TOL:
            r = ((hi_b[i] if s > 0.0 else lo_b[i]) - xb[i]) / s
            r = r if r > 0.0 else 0.0  # as np.maximum: -0.0 becomes +0.0
            if r < t_basic:
                t_basic = r
            rows.append((i, r))
    if t_basic == math.inf:
        return t_basic, -1
    cut = t_basic + _RATIO_TOL
    if rng is not None:
        tied = [i for i, r in rows if r <= cut]
        return t_basic, tied[int(rng.integers(len(tied)))]
    leave, key = -1, -1.0
    for i, r in rows:
        if r <= cut and abs(step[i]) > key:
            key, leave = abs(step[i]), i
    return t_basic, leave


def _simplex_phase_np(A, AT, b, c, lo, hi, x, basis, binv, dirmask, since_refresh):
    """Primal iterations in place on the extended vertex ``x``, the
    ``basis``, its inverse ``binv`` and the pricing mask ``dirmask``; ``AT``
    is ``A.T``, contiguous, and the bounds ``lo``, ``hi`` are tuples of
    Python floats.  Returns the pivots since the last refactorization,
    ``since_refresh`` counting those made before the call.  ``dirmask`` is
    the one record of where each variable sits: -1 at its lower bound, +1
    at its upper bound, and 0 when it is basic or fixed (lower == upper,
    never enters), so ``dirmask * r > 0`` exactly when moving a variable
    off its bound improves the objective.

    The run is optimal once no pricing violation exceeds the dual
    tolerance; otherwise Dantzig pricing enters the largest (lowest index
    on ties).  Once more than _STALL_CAP consecutive pivots are degenerate,
    the ratio test draws the leaving row uniformly among the tied rows,
    until the objective moves again: Dantzig's rule with a fixed tie-break
    can cycle (Kuhn's example does), and a random draw leaves such a
    cycle.  The generator, ``default_rng(0)``, is created at
    the run's first such stall and lives only in the call, so identical
    inputs still give bitwise-identical results.  A run that
    is not optimal after _MAX_PIVOTS pricing passes raises
    :class:`DegeneracyError`.  Only the budget slack and, in phase 1,
    the artificials have an infinite (upper) bound; a bounded set, or
    phase 1's objective, which cannot fall below 0, puts a basic row in
    the way of every improving step, so a step that no row bounds comes
    from rounding and raises :class:`DegeneracyError`.
    The ratio test (:func:`_ratio_test`) runs in Python floats on the basic
    rows the entering column moves: on network polytopes these are a few of
    the rows, and numpy's per-call overhead on a short vector costs more
    than the arithmetic.  The refactorization, which recomputes ``binv``
    and ``x_B``, runs once ``since_refresh`` reaches _REFACTOR_EVERY.
    The pivot element ``d[leave]`` needs no guard: the ratio test only
    picks a row with ``|step| > _RATIO_TOL``, and ``|step| = |d|``.
    """
    dual_tol = _DUAL_TOL * (1.0 + np.abs(c).max())

    # Basis-aligned copies, updated in O(1) per pivot instead of regathered.
    xb = x[basis]
    cb = c[basis]
    basis_l = basis.tolist()
    lo_b = [lo[k] for k in basis_l]
    hi_b = [hi[k] for k in basis_l]

    stall = 0
    rng = None
    for _ in range(_MAX_PIVOTS):
        if since_refresh >= _REFACTOR_EVERY:
            since_refresh = 0
            try:
                binv[:, :] = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError as exc:
                raise DegeneracyError("singular basis during refactorization") from exc
            z = x.copy()
            z[basis] = 0.0
            xb[:] = binv @ (b - A @ z)
        y = binv.T @ cb
        r = c - AT @ y
        viol = dirmask * r

        j = int(viol.argmax())
        if viol[j] <= dual_tol:
            break
        direction = 1.0 if r[j] < 0.0 else -1.0

        d = binv @ AT[j]
        step_b = d if direction < 0.0 else -d  # x_B moves by step_b * t
        step_l = step_b.tolist()
        if stall > _STALL_CAP and rng is None:
            rng = np.random.default_rng(0)
        t_basic, leave = _ratio_test(step_l, xb.tolist(), lo_b, hi_b,
                                     rng if stall > _STALL_CAP else None)

        t_own = hi[j] - lo[j]  # own-bound flip distance (inf for the slack)
        t_star = min(t_basic, t_own)
        if not math.isfinite(t_star):
            raise DegeneracyError("no basic row bounds the entering column's step")

        stall = stall + 1 if t_star <= _RATIO_TOL else 0

        if t_own <= t_basic:
            # Bound flip: the entering variable crosses to its other bound.
            xb += step_b * t_own
            x[j] = hi[j] if direction > 0 else lo[j]
            dirmask[j] = 1.0 if direction > 0 else -1.0
            continue

        v_leave = basis_l[leave]
        xb += step_b * t_star
        enter_val = x[j] + direction * t_star
        # Snap the leaving variable exactly onto the bound it hit.
        if lo[v_leave] == hi[v_leave]:
            x[v_leave] = lo[v_leave]
            dirmask[v_leave] = 0.0
        elif step_l[leave] > 0:
            x[v_leave] = hi[v_leave]
            dirmask[v_leave] = 1.0
        else:
            x[v_leave] = lo[v_leave]
            dirmask[v_leave] = -1.0

        basis[leave] = j
        basis_l[leave] = j
        dirmask[j] = 0.0
        xb[leave] = enter_val
        cb[leave] = c[j]
        lo_b[leave] = lo[j]
        hi_b[leave] = hi[j]

        binv[leave, :] /= d[leave]
        col = d.copy()
        col[leave] = 0.0
        binv -= col[:, None] * binv[leave]
        since_refresh += 1
    else:
        raise DegeneracyError(f"the simplex is not optimal after {_MAX_PIVOTS} pivots")
    x[basis] = xb
    return since_refresh


def solve_lp(c, poly: Polyhedron, warm: Optional[LpSolution] = None) -> LpSolution:
    """Minimize ``c . x`` over a :class:`Polyhedron`.

    Returns an optimal vertex (nonbasic coordinates sit exactly on their
    bounds): ``poly`` is nonempty and bounded, so an optimum exists.  Every
    polyhedron, a box included, takes the same path: phase 2 continues a
    copy of an earlier solution's simplex state (extended vertex, basis,
    basis inverse, pricing mask, and the pivots since the inverse was last
    refactorized), so a chain of calls refactorizes every
    ``_REFACTOR_EVERY`` pivots in all, not on every entry.  The pivot rule
    is fixed, and a stall's tie-break generator is seeded anew in each
    call, so identical inputs produce bitwise-identical solutions.

    Without ``warm`` the call continues ``poly``'s phase-1 solution, the
    one :func:`_phase1` computed when ``poly`` was constructed.  ``poly`` is
    only read, so such a call is the same whatever was solved before and
    from whichever thread.  It does not continue the nominal solution that
    :func:`frank_wolfe_min`'s chains start from: among tied optima the
    start decides which vertex comes back, and the random and CCP bases
    are built from these vertices (starting there cut the learn basis's
    least pairwise distance by 8%).

    ``warm``, an earlier solution on this polyhedron, is continued instead.
    When consecutive costs are close (Frank-Wolfe gradients) few pivots
    remain.  ``warm`` is only read, so one solution can start any number of
    calls, each giving the same result.  The optimum is the same up to the
    pricing tolerance, but among tied optima a warm call may return another
    vertex than a cold one, and its basic coordinates carry the rounding of
    the pivots before it.

    Raises
    ------
    DimensionMismatch
        if ``c`` does not match the polyhedron dimension.
    DegeneracyError
        if phase 2 is not optimal after ``_MAX_PIVOTS`` pivots, or
        rounding leaves an entering column with no bound on its step.
    ValueError
        if ``c`` has a NaN or infinite entry, or if ``warm`` was solved on
        another polyhedron (its standard form is not the one ``poly``
        holds).
    """
    c = _as_float_vector(c, "c")
    if c.size != poly.dim:
        raise DimensionMismatch(f"cost has {c.size} entries, polyhedron has dim {poly.dim}")
    if not np.isfinite(c).all():
        raise ValueError("cost c must be finite")
    start = poly._origin if warm is None else warm
    form = poly._origin._form
    if start._form is not form:
        raise ValueError("warm start comes from another polyhedron")
    A_ext, AT_ext, b, lo_ext, hi_ext = form
    x, basis, binv, dirmask = (arr.copy() for arr in
                               (start._x, start._basis, start._binv, start._dirmask))
    c_ext = np.zeros(x.size)
    c_ext[:c.size] = c
    since_refresh = _simplex_phase_np(A_ext, AT_ext, b, c_ext, lo_ext, hi_ext,
                                      x, basis, binv, dirmask, start._since_refresh)
    for arr in (x, basis, binv, dirmask):
        arr.flags.writeable = False
    point = x[:c.size]
    return LpSolution(point, float(c @ point), form, x, basis, binv, dirmask, since_refresh)


def _dual_bound(c, sol: LpSolution) -> float:
    """Lower bound on ``min c.x`` over the polyhedron ``sol`` was solved on,
    by weak duality from the duals of ``sol``'s final basis.

    For any row prices ``y`` and every feasible ``x``, ``c.x = y.b + r.x``
    with ``r = c - A^T y``, so ``y.b`` plus the least of each ``r_j x_j``
    over the box bounds every ``c.x`` from below.  Here ``y = B^-T c_B``
    prices the final basis ``B`` through its inverse, as the simplex's
    last pricing pass did, so the basic columns' reduced costs are
    rounding and count as zero.  A budget row's dual above 0
    would give its slack an infinite term, so it is clipped to 0, and the
    reduced costs take the budget row back in.  The bound holds however far
    the simplex stopped from the optimum, and at an exact optimum it equals
    ``c.x``.  The budget slack's upper bound is the only infinite one, and
    after the clip its reduced cost is never negative, so the bound is
    finite.
    """
    _, AT_ext, b, lo, hi = sol._form
    c_ext = np.zeros(AT_ext.shape[0])
    c_ext[:c.size] = c
    y = sol._binv.T @ c_ext[sol._basis]
    r = c_ext - AT_ext @ y
    r[sol._basis] = 0.0
    if AT_ext.shape[0] - b.size > c.size and y[-1] > 0.0:  # a budget row, the last
        r += y[-1] * AT_ext[:, -1]
        y[-1] = 0.0
    # each r_j x_j is least at lo_j when r_j > 0 and at hi_j when r_j < 0;
    # r_j == 0 takes 0, not 0 * inf
    least_at = np.where(r > 0.0, lo, np.where(r < 0.0, hi, 0.0))
    return float(y @ b + r @ least_at)


# ---------------------------------------------------------------------------
# Frank-Wolfe with away steps
# ---------------------------------------------------------------------------


class FwResult(NamedTuple):
    """Outcome of :func:`frank_wolfe_min`: the returned point, the objective
    there, the FW gap there, the linear subproblems solved (one per
    iteration; a run that reaches the cap solves ``_FW_MAX_ITER + 1``, the
    last only to measure the gap), ``gap <= tol_gap`` and a lower bound on
    the minimum.

    ``gap`` is the stop rule's ``grad f(x).(x - v)`` at the LP vertex ``v``,
    which may understate the true gap ``grad f(x).x - min_u grad f(x).u``
    by as much as the simplex's pricing tolerance lets ``v`` miss the LP
    minimum.  ``bound = value - (grad f(x).x - LB)``, with ``LB`` the weak
    duality bound of the final LP basis, is below ``min f`` for a convex
    ``f`` whatever tolerance the simplex stopped at (up to rounding)."""

    point: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool
    bound: float


def _poly_slope(coeffs):
    """``(p', p'(0))`` for the polynomial ``p`` with ``coeffs`` (low order
    first); ``p'`` runs Horner's rule on Python floats."""
    dp = [k * a for k, a in enumerate(coeffs.tolist())][:0:-1]  # high order first

    def slope(s):
        v = 0.0
        for a in dp:
            v = v * s + a
        return v

    return slope, (dp[-1] if dp else 0.0)


def _line_step(slope, s_max, f_lo):
    """Exact minimizer on [0, s_max], ``s_max > 0``, of a convex ``phi``
    whose slope ``phi'(s)`` is ``slope(s)``; ``f_lo`` is ``phi'(0)``.  The
    step is 0 when ``f_lo >= 0`` and ``s_max`` when ``phi'(s_max) <= 0``.
    Otherwise an Illinois secant on the sign of ``phi'`` keeps a bracket
    with ``phi'(lo) < 0 < phi'(hi)`` and refines it down to adjacent
    floats, then returns ``lo``; a point where ``phi'`` is zero is returned
    at once.  ``phi'`` is never positive at the returned step, so for a
    convex ``phi`` the step never raises f."""
    if f_lo >= 0.0:
        return 0.0
    f_hi = slope(s_max)
    if f_hi <= 0.0:
        return s_max
    lo, hi, side = 0.0, s_max, 0
    while True:
        # bisect while a slope is infinite; a secant point that rounds
        # onto an end moves one float inside
        t = f_lo / (f_lo - f_hi) if -math.inf < f_lo < f_hi < math.inf else 0.5
        s = min(max(lo + t * (hi - lo), math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < s < hi:
            return lo
        f_s = slope(s)
        if f_s == 0.0:
            return s
        if f_s < 0.0:
            lo, f_lo = s, f_s
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = s, f_s
            if side > 0:
                f_lo *= 0.5
            side = 1


def _active_index(verts, v):
    """Index of the first active vertex within ``1e-9 (1 + max|v|)`` of
    ``v``, or None.  A warm LP may return an active vertex again with basic
    coordinates that differ by rounding, or from another basis of a
    degenerate vertex; ``v`` then joins that vertex instead of adding a
    near-copy that every later iteration would rescore."""
    tol = 1e-9 * (1.0 + np.abs(v).max())
    for i, u in enumerate(verts):
        if np.abs(u - v).max() <= tol:
            return i
    return None


def frank_wolfe_min(
    fun: Callable[[np.ndarray], tuple],
    poly: Polyhedron,
    tol_gap: float,
    line_poly: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> FwResult:
    """Minimize a smooth convex function over a polyhedron (nonempty and
    bounded, as every :class:`Polyhedron` is).

    ``fun(x)`` must return ``(value, gradient)``.  The run starts at the
    point of the polyhedron's phase-1 solution.  The linear subproblems go
    through :func:`solve_lp` as one warm chain, each continuing a solution:
    the first the polyhedron's nominal solution, the minimum of its budget
    row that construction solved (the phase-1 solution itself when there
    is no budget row), and each later one the previous iteration's.  A
    gradient of a congestion cost is close to the budget row's cost, so the
    first LP needs few pivots from there instead of many from the arbitrary
    phase-1 basis.  The start point stays the phase-1 vertex: starting at
    the nominal vertex cut the median call but made the slow calls slower
    and raised the iteration count.  Both solutions are constants of the
    polyhedron, and the chain lives only inside this call, so the result is
    a pure function of the arguments.
    Away steps over the running vertex set remove the zigzagging that keeps
    plain conditional gradient from certifying small gaps.  Both steps move
    ``x`` to ``x + t (target - x)``, ``t = s`` toward the LP vertex and
    ``t = -s`` away from an active one, so one update keeps the weights:
    each scales by ``1 - t``, the target gains ``t``, weights at most 1e-13
    drop out and the rest are renormalized.  Every step is the exact
    minimizer of the (assumed convex) ``f`` on its segment, found the same
    way: an Illinois secant on the sign of the slope ``phi'(s)`` of
    ``phi(s) = f(x + s d)``, which returns a point where ``phi'`` is not
    positive.  ``line_poly(x, d)``, when given, must return the exact
    coefficients (low order first) of ``phi``; then
    ``phi'`` is Horner's rule on their derivative and ``phi'(0)`` its
    linear coefficient.  Without it ``phi'(s) = grad f(x + s d).d``, one
    ``fun`` call each, and ``phi'(0) = g.d`` with the gradient at hand.

    Iteration stops once the gap ``g(x) = grad f(x).(x - v)`` is at most
    ``tol_gap >= 0``, at a zero step, or after ``_FW_MAX_ITER`` iterations.
    The result carries ``value = f(x)`` at the returned point and the gap
    there, which is the stop rule's: it may understate ``value - min f`` by
    :func:`solve_lp`'s pricing tolerance ``1e-9 (1 + max|g|)`` per unit of
    ``|v - v*|_1``.
    ``bound``, computed once at the returned point from the final LP basis's
    duals, is a lower bound on ``min f`` by weak duality whatever tolerance
    the simplex stopped at, whether or not the run converged.
    A run that the cap stops is ``converged=False``, never an exception.

    Raises
    ------
    ValueError
        if ``tol_gap`` is NaN or negative, or a gradient has a NaN or
        infinite entry.
    """
    if not tol_gap >= 0:
        raise ValueError(f"tol_gap must be >= 0, got {tol_gap}")
    x = poly._origin.point.copy()
    verts = [x.copy()]
    alphas = [1.0]

    # pass _FW_MAX_ITER + 1 only measures the gap at the last iterate
    sol = poly._nominal
    for it in range(1, _FW_MAX_ITER + 2):
        f0, g = fun(x)
        sol = solve_lp(g, poly, warm=sol)
        v = sol.point
        gap = float(g @ (x - v))
        if gap <= tol_gap or it > _FW_MAX_ITER:
            break

        scores = [float(g @ u) for u in verts]
        a_idx = max(range(len(scores)), key=scores.__getitem__)  # first maximum
        away = scores[a_idx] - float(g @ x) > gap
        if away:
            alpha_a = alphas[a_idx]
            d = x - verts[a_idx]
            # alpha_a < 1: with two or more active vertices every weight lies
            # in (0, 1), since weights at most 1e-13 were dropped before the
            # renormalization, and with one the away test compares 0 with a
            # gap above tol_gap >= 0
            s_max = alpha_a / (1.0 - alpha_a)
        else:
            d, s_max = v - x, 1.0
        if line_poly is None:
            f_lo = float(g @ d)

            def slope(s):
                return float(fun(x + s * d)[1] @ d)
        else:
            slope, f_lo = _poly_slope(line_poly(x, d))
        s = _line_step(slope, s_max, f_lo)
        if s <= 0.0:
            break

        if away:
            t, target = -s, a_idx
        else:
            t, target = s, _active_index(verts, v)
            if target is None:
                target = len(verts)
                verts.append(v)
                alphas.append(0.0)
        for i in range(len(alphas)):
            alphas[i] *= 1.0 - t
        alphas[target] += t
        for i in reversed(range(len(alphas))):
            if alphas[i] <= 1e-13:
                del alphas[i], verts[i]
        # left to right on purpose: from Python 3.12 on builtin sum
        # compensates float sums, so the iterates would depend on the version
        total = 0.0
        for a_w in alphas:
            total += a_w
        alphas = [a_w / total for a_w in alphas]
        x = np.zeros(poly.dim)
        for a_w, u in zip(alphas, verts):
            x += a_w * u
    # by convexity min f >= f(x) - g.x + min_u g.u, and the dual bound is
    # below that last minimum
    bound = f0 - (float(g @ x) - _dual_bound(g, sol))
    return FwResult(x, f0, gap, it, gap <= tol_gap, bound)


# ---------------------------------------------------------------------------
# Simplex projection and membership
# ---------------------------------------------------------------------------


def _project_sorted(v, u):
    """Rows of the 2-D ``v`` projected onto the simplex; ``u`` holds them
    sorted in descending order."""
    n = v.shape[1]
    css = u.cumsum(axis=1)
    css -= 1.0
    # for finite floats a > b exactly when a - b > 0 (gradual underflow)
    rho = (u > css / np.arange(1.0, n + 1.0)).sum(axis=1)
    theta = css[np.arange(rho.size), rho - 1] / rho
    out = v - theta[:, None]
    return np.maximum(out, 0.0, out=out)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex; a matrix
    is projected row by row.

    Sort-based active-set solve along the last axis: the output is
    nonnegative, sums to one to machine precision, and projecting it again
    returns it unchanged.  Each row of a matrix's projection is bitwise
    equal to the projection of that row on its own.  The solve's rounding
    grows with the entries, and an entry so large that subtracting 1 from
    it is lost in rounding or a sum overflows breaks it, so every row is
    checked, and one that does not sum to one within 1e-9 is solved again
    after subtracting its largest entry.  That leaves the exact projection
    unchanged, so every finite input lands on the simplex.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = v.shape[-1]
    if n == 0:
        raise ValueError(f"project_simplex needs at least one coordinate, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("project_simplex requires finite input")
    rows = v.reshape(-1, n)
    u = np.sort(rows, axis=1)[:, ::-1]
    # a row off the simplex is solved again, so its overflow or zero
    # division is no error
    with np.errstate(all="ignore"):
        out = _project_sorted(rows, u)
        redo = ~(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)  # NaN too
        if redo.any():
            # the threshold is at least top - 1, so an entry below that
            # projects to 0, and clipping it at top - 2 keeps the sums small
            # and finite
            top = u[redo, :1]
            out[redo] = _project_sorted(np.maximum(rows[redo] - top, -2.0),
                                        np.maximum(u[redo] - top, -2.0))
    return out.reshape(v.shape)


def contains(poly: Polyhedron, x) -> bool:
    """True iff ``x`` is finite and satisfies every constraint of ``poly``
    within :data:`TOL_FEAS`."""
    x = _as_float_vector(x, "x")
    if x.size != poly.dim:
        raise DimensionMismatch(f"point has {x.size} entries, polyhedron has dim {poly.dim}")
    if not np.isfinite(x).all():
        return False
    if poly.eq_matrix.shape[0]:
        if np.abs(poly.eq_matrix @ x - poly.eq_rhs).max() > TOL_FEAS:
            return False
    if np.any(x < poly.lower - TOL_FEAS) or np.any(x > poly.upper + TOL_FEAS):
        return False
    if poly.budget_coeffs is not None:
        if float(poly.budget_coeffs @ x) > poly.budget_limit + TOL_FEAS:
            return False
    return True
