import hashlib
import itertools
import sys
import threading
from math import comb

import numpy as np
import pytest

from cequil import polytope
from cequil.basis import random_basis
from cequil.game import PlayerSpec, build_traffic_game, demand_vector
from cequil.polytope import (
    DegeneracyError,
    DimensionMismatch,
    InfeasibleError,
    Polyhedron,
    contains,
    frank_wolfe_min,
    project_simplex,
    solve_lp,
)
from cequil.regret import RegretOracle
from cequil.tntp import build_incidence, parse_net

from harness import highs


def enumerate_vertices(poly, tol=1e-9):
    """Brute-force vertex enumeration for tiny polyhedra (test oracle).

    Tries every way of making n constraints active out of the equalities,
    bounds, and the budget row, solves the square system, and keeps feasible
    solutions.  Exponential; only for n <= 5.
    """
    n = poly.dim
    rows = [(poly.eq_matrix[i], poly.eq_rhs[i], True) for i in range(poly.eq_matrix.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e.copy(), poly.lower[j], False))
        rows.append((e.copy(), poly.upper[j], False))
    if poly.budget_coeffs is not None:
        rows.append((poly.budget_coeffs, poly.budget_limit, False))
    verts = []
    for combo in itertools.combinations(range(len(rows)), n):
        if not all(rows[i][2] for i in combo if rows[i][2]):
            pass
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        # must still satisfy every equality row
        if not contains(poly, x):
            continue
        if not any(np.allclose(x, v, atol=1e-8) for v in verts):
            verts.append(x)
    return verts


class TestSolveLp:
    def test_bound_active_minimum(self):
        sol = solve_lp(np.array([1.0]), Polyhedron.interval(0.0, 1.0))
        assert sol.point[0] == 0.0
        assert sol.objective == 0.0

    def test_equality_forces_sum(self):
        P = Polyhedron(np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2), np.ones(2))
        sol = solve_lp(np.array([-1.0, -1.0]), P)
        assert sol.objective == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(sol.point, [1.0, 0.0]) or np.allclose(sol.point, [0.0, 1.0])
        # fixed pivot rule: vertex is reproducible
        again = solve_lp(np.array([-1.0, -1.0]), P)
        assert (again.point == sol.point).all()

    def test_point_is_read_only(self):
        P = Polyhedron.simplex(3)
        cold = solve_lp([1.0, 2.0, 3.0], P)
        warm = solve_lp([3.0, 2.0, 1.0], P, warm=cold)
        for sol in (cold, warm):
            assert sol.point.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                sol.point[0] = 1.0

    def test_three_parallel_links(self):
        E = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        P = Polyhedron(E, np.array([1.0, -1.0]), np.zeros(3), np.ones(3))
        sol = solve_lp(np.array([2.0, 3.0, 1.0]), P)
        assert np.allclose(sol.point, [0.0, 0.0, 1.0], atol=1e-10)
        assert sol.objective == pytest.approx(1.0, abs=1e-10)

    def test_optimal_point_is_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            lo = rng.uniform(-2.0, 0.0, n)
            hi = lo + rng.uniform(0.1, 3.0, n)
            m = int(rng.integers(0, min(n, 2) + 1))
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            xf = lo + (hi - lo) * rng.uniform(0.2, 0.8, n)
            P = Polyhedron(A, A @ xf, lo, hi)
            sol = solve_lp(rng.normal(size=n), P)
            assert contains(P, sol.point)

    def test_objective_matches_vertex_enumeration(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 5))
            lo = np.zeros(n)
            hi = rng.uniform(0.5, 2.0, n)
            m = int(rng.integers(0, 2))
            A = rng.integers(-1, 2, size=(m, n)).astype(float)
            xf = hi * rng.uniform(0.2, 0.8, n)
            bc = rng.uniform(0.0, 1.0, n)
            P = Polyhedron(A, A @ xf, lo, hi, bc, float(bc @ xf) + 0.5)
            verts = enumerate_vertices(P)
            if not (1 <= len(verts) <= 10):
                continue
            c = rng.normal(size=n)
            sol = solve_lp(c, P)
            best = min(float(c @ v) for v in verts)
            assert sol.objective == pytest.approx(best, abs=1e-8)
            checked += 1

    def test_infeasible(self):
        # demand 2 through a capacity-1 link: the set is empty, so it is
        # refused at construction and solve_lp never sees it
        args = (np.array([[1.0], [-1.0]]), np.array([2.0, -2.0]), np.zeros(1), np.ones(1))
        with pytest.raises(InfeasibleError, match="the polyhedron is empty"):
            Polyhedron(*args)
        assert assert_matches_highs(np.ones(1), *args) is None

    def test_single_point_polyhedron(self):
        P = Polyhedron.box([0.5, -1.0], [0.5, -1.0])
        sol = solve_lp(np.array([3.0, -2.0]), P)
        assert np.allclose(sol.point, [0.5, -1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_lp(np.array([1.0, 2.0]), Polyhedron.interval(0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_rejected(self, siouxfalls_sets, bad):
        # a NaN or infinite cost used to run every allowed pivot and then
        # report that phase 2 made no progress
        P = siouxfalls_sets[0]
        c = np.random.default_rng(0).uniform(1.0, 2.0, P.dim)
        warm = solve_lp(c, P)
        c[3] = bad
        with pytest.raises(ValueError, match="c must be finite"):
            solve_lp(c, P)
        with pytest.raises(ValueError, match="c must be finite"):
            solve_lp(c, P, warm=warm)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(5)
        E = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        P = Polyhedron(E, np.array([1.0, -1.0]), np.zeros(3), np.ones(3),
                       np.array([1.0, 2.0, 3.0]), 2.5)
        for _ in range(10):
            c = rng.normal(size=3)
            a = solve_lp(c, P)
            b = solve_lp(c, P)
            assert (a.point == b.point).all()
            assert a.objective == b.objective


def fresh(P):
    """An equal polyhedron, constructed anew with its own phase-1 start."""
    return Polyhedron(P.eq_matrix, P.eq_rhs, P.lower, P.upper, P.budget_coeffs, P.budget_limit)


@pytest.fixture(scope="module")
def siouxfalls_sets(learn_game):
    return learn_game.action_sets


def random_chains(seed=5, count=40, length=10):
    """``count`` random polyhedra, dense rows over boxes of random widths
    with a few fixed columns and, on about half, a budget row, each with
    ``length`` random costs: (P, costs) pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        A = rng.normal(size=(m, n))
        lo = rng.uniform(-2.0, 0.0, n)
        hi = np.where(rng.uniform(size=n) < 0.1, lo, lo + rng.uniform(0.5, 3.0, n))
        x = lo + (hi - lo) * rng.uniform(size=n)
        budget = ()
        if rng.uniform() < 0.5:
            bc = rng.uniform(0.0, 1.0, n)
            budget = (bc, float(bc @ x) + rng.uniform(0.0, 0.5))
        P = Polyhedron(A, A @ x, lo, hi, *budget)
        yield P, [rng.normal(size=n) for _ in range(length)]


class TestStoredStart:
    def test_warm_equals_cold_and_highs(self, siouxfalls_sets):
        rng = np.random.default_rng(0)
        for P in siouxfalls_sets:
            P = fresh(P)
            for _ in range(200):
                c = rng.normal(size=P.dim)
                warm = solve_lp(c, P)
                cold = solve_lp(c, fresh(P))
                assert warm.point.tobytes() == cold.point.tobytes()
                assert warm.objective == cold.objective
                scale = 1.0 + np.abs(c).sum() * np.abs(warm.point).max()
                assert abs(warm.objective - highs_objective(c, P)) <= 1e-9 * scale

    def test_infeasible_stays_infeasible(self):
        # phase 1 keeps no verdict between constructions: every attempt on the
        # empty set raises, and the same arrays with a reachable demand build
        A = np.array([[1.0], [-1.0]])
        for _ in range(4):
            with pytest.raises(InfeasibleError, match="the polyhedron is empty"):
                Polyhedron(A, np.array([2.0, -2.0]), np.zeros(1), np.ones(1))
        P = Polyhedron(A, np.array([1.0, -1.0]), np.zeros(1), np.ones(1))
        for c in ([1.0], [-1.0], [0.0], [1.0]):
            assert solve_lp(np.array(c), P).point.tolist() == [1.0]

    def test_phase1_runs_once(self, siouxfalls_sets, monkeypatch, spy):
        calls = spy(polytope, "_phase1")
        monkeypatch.setattr(polytope, "_FW_MAX_ITER", 5)
        P = fresh(siouxfalls_sets[0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            solve_lp(rng.normal(size=P.dim), P)
        frank_wolfe_min(lambda y: (0.5 * float(y @ y), y), P, tol_gap=1e-9)
        assert len(calls) == 1

    def test_phase1_failure_is_not_stored(self, monkeypatch):
        failures = []
        phase1 = polytope._phase1

        def failing_twice(*args):
            if len(failures) < 2:
                failures.append(1)
                raise DegeneracyError("phase 1 made no progress")
            return phase1(*args)

        monkeypatch.setattr(polytope, "_phase1", failing_twice)
        for _ in range(2):
            with pytest.raises(DegeneracyError):
                Polyhedron.simplex(3)
        P = Polyhedron.simplex(3)
        monkeypatch.undo()
        c = np.array([2.0, 1.0, 3.0])
        assert solve_lp(c, P).point.tobytes() == solve_lp(c, fresh(P)).point.tobytes()

    def test_shared_across_threads(self, siouxfalls_sets):
        P = siouxfalls_sets[1]
        costs = np.random.default_rng(2).normal(size=(4, 50, P.dim))
        serial = [[solve_lp(c, fresh(P)).point for c in block] for block in costs]
        shared = fresh(P)
        results = [None] * 4

        def work(k):
            results[k] = [solve_lp(c, shared).point for c in costs[k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def bpr_objective(game):
    """A convex BPR-like objective over the links of ``game``, congested
    enough at demand 3000 that Frank-Wolfe takes interior steps:
    ``sum fft (y + 0.03 y^5 / (0.3 volume)^4)``, with its gradient."""
    fft, volume = game.fft, 0.3 * game.nominal_volume

    def fun(y):
        z = (y / volume) ** 4
        return float(fft @ (y + 0.03 * y * z)), fft * (1.0 + 0.15 * z)

    return fun


def polyhedra_without_nominal(siouxfalls_sets):
    """(name, polyhedron) pairs with no budget row, so no budget LP: a box,
    a simplex and a flow polytope without its budget row."""
    P = siouxfalls_sets[2]
    return [
        ("box", Polyhedron.box([0.0, -1.0, 0.5], [1.0, 2.0, 0.5])),
        ("simplex", Polyhedron.simplex(4)),
        ("no budget row", Polyhedron(P.eq_matrix, P.eq_rhs, P.lower, P.upper)),
    ]


class TestNominalStart:
    # Frank-Wolfe's bytes on the polyhedra without a nominal start, captured
    # when every Frank-Wolfe LP chain started from the phase-1 basis.
    NO_NOMINAL_SHA256 = "9fb8f8d96485401bdfd0881fcdb36c10eaf775fea4802ada716956e9df227552"

    def test_objective_matches_highs(self, siouxfalls_sets):
        for P in siouxfalls_sets:
            nominal = P._nominal
            ref = highs_objective(P.budget_coeffs, P)
            assert abs(nominal.objective - ref) <= 1e-9 * abs(ref)
            assert nominal.objective == float(P.budget_coeffs @ nominal.point)
            assert nominal._form is P._origin._form
            for arr in (nominal.point, nominal._x, nominal._basis, nominal._binv,
                        nominal._dirmask):
                assert not arr.flags.writeable

    def test_is_the_budgeted_game_nominal_cost(self, learn_game):
        # a player's budget row is its free-flow cost, so its minimum is
        # delta_i, the min-cost routing without the budget row
        for P, delta in zip(learn_game.action_sets, learn_game.deltas):
            assert P._nominal.objective == pytest.approx(delta, rel=1e-12)

    def test_none_without_a_budget_optimum(self, siouxfalls_sets):
        # every polyhedron has a budget optimum if it has a budget row: an
        # empty one raises at construction
        for name, P in polyhedra_without_nominal(siouxfalls_sets):
            assert P.budget_coeffs is None and P._nominal is P._origin, name

    def test_first_lp_continues_the_nominal_start(self, learn_game, monkeypatch, spy):
        warms = spy(polytope, "solve_lp")
        monkeypatch.setattr(polytope, "_FW_MAX_ITER", 3)
        P = learn_game.action_sets[0]
        frank_wolfe_min(bpr_objective(learn_game), P, tol_gap=1e-9)
        assert warms[0].kwargs["warm"] is P._nominal
        warms.clear()
        P = Polyhedron.simplex(3)
        frank_wolfe_min(lambda y: (0.5 * float(y @ y), y), P, tol_gap=1e-9)
        assert warms[0].kwargs["warm"] is P._origin

    def test_frank_wolfe_unchanged_without_nominal(self, learn_game, siouxfalls_sets):
        digest = hashlib.sha256()
        for name, P in polyhedra_without_nominal(siouxfalls_sets):
            if name == "no budget row":
                fun = bpr_objective(learn_game)
            else:
                target = {"box": [0.3, 0.4, 0.9], "simplex": [0.1, 0.25, 0.3, 0.45]}[name]

                def fun(y, t=np.array(target)):
                    return 0.25 * float(np.sum((y - t) ** 4)), (y - t) ** 3

            res = frank_wolfe_min(fun, P, tol_gap=1e-12)
            digest.update(res.point.tobytes())
            digest.update(np.array([res.value, res.gap, res.iterations]).tobytes())
        assert digest.hexdigest() == self.NO_NOMINAL_SHA256

    def test_pure_function_of_the_inputs(self, learn_game, siouxfalls_sets):
        fun = bpr_objective(learn_game)
        P = fresh(siouxfalls_sets[2])

        def run(poly):
            res = frank_wolfe_min(fun, poly, tol_gap=1e-12)
            return res.point.tobytes(), res.value, res.gap, res.iterations

        first = run(P)
        assert run(fresh(P)) == first
        rng = np.random.default_rng(3)
        sol = None
        for _ in range(20):
            solve_lp(rng.normal(size=P.dim), P)
            sol = solve_lp(rng.normal(size=P.dim), P, warm=sol)
        assert run(P) == first


def highs_objective(c, P):
    ref = highs(c, P)
    assert ref.status == 0
    return ref.fun


class TestWarmStart:
    def test_warm_chain_matches_cold_and_highs(self, siouxfalls_sets):
        rng = np.random.default_rng(3)
        for P in siouxfalls_sets:
            P = fresh(P)
            prev = None
            for _ in range(200):
                c = rng.normal(size=P.dim)
                sol = solve_lp(c, P, warm=prev)
                cold = solve_lp(c, P)
                assert contains(P, sol.point)
                scale = 1.0 + np.abs(c).sum() * np.abs(sol.point).max()
                assert abs(sol.objective - cold.objective) <= 1e-9 * scale
                assert abs(sol.objective - highs_objective(c, P)) <= 1e-9 * scale
                prev = sol
            # the chain leaves nothing behind: a cold call is as on a fresh copy
            c = rng.normal(size=P.dim)
            assert solve_lp(c, P).point.tobytes() == solve_lp(c, fresh(P)).point.tobytes()
            with pytest.raises(ValueError, match="another polyhedron"):
                solve_lp(c, fresh(P), warm=prev)

    def test_cold_call_continues_the_origin(self, siouxfalls_sets):
        # a call without warm continues the phase-1 solution: bitwise the
        # same solution and end state as a call that passes it as warm
        rng = np.random.default_rng(11)
        for P in (*siouxfalls_sets, Polyhedron.box([0.0, -1.0, 0.5], [1.0, 2.0, 0.5])):
            for c in rng.normal(size=(5, P.dim)):
                cold, warm = solve_lp(c, P), solve_lp(c, P, warm=P._origin)
                assert cold.objective == warm.objective
                assert cold._since_refresh == warm._since_refresh
                assert cold._form is warm._form is P._origin._form
                for a, b in ((cold.point, warm.point), (cold._x, warm._x),
                             (cold._basis, warm._basis), (cold._binv, warm._binv),
                             (cold._dirmask, warm._dirmask)):
                    assert a.tobytes() == b.tobytes()

    def test_close_costs_need_few_pivots(self, siouxfalls_sets, monkeypatch):
        # from the optimum of a nearby cost a warm start skips most pivots;
        # with no refactorization due, a phase's pivots are the rise of its
        # since_refresh count
        pivots = []
        simplex = polytope._simplex_phase_np

        def counting(*args):
            out = simplex(*args)
            pivots.append(out - args[-1])
            return out

        monkeypatch.setattr(polytope, "_REFACTOR_EVERY", 10 ** 9)
        rng = np.random.default_rng(4)
        for P in siouxfalls_sets:
            c = rng.uniform(1.0, 2.0, size=P.dim)
            first = solve_lp(c, P)
            c = c * (1.0 + 0.05 * rng.normal(size=P.dim))
            monkeypatch.setattr(polytope, "_simplex_phase_np", counting)
            cold = solve_lp(c, P)
            warm = solve_lp(c, P, warm=first)
            monkeypatch.setattr(polytope, "_simplex_phase_np", simplex)
            n_cold, n_warm = pivots
            assert n_warm <= 1 < n_cold
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
            pivots.clear()

    def test_warm_chains_share_a_fresh_polyhedron_across_threads(self, siouxfalls_sets):
        # chains in several threads only read the one phase-1 start of the
        # shared polyhedron, so each must match its serial run bitwise
        P = siouxfalls_sets[2]
        costs = np.random.default_rng(6).normal(size=(4, 2, 20, P.dim))

        def chains(poly, block):
            out = []
            for chain in block:
                prev = None
                for c in chain:
                    prev = solve_lp(c, poly, warm=prev)
                    out.append(prev.point)
            return out

        serial = [chains(fresh(P), block) for block in costs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = fresh(P)
                results = [None] * len(costs)

                def work(k):
                    results[k] = chains(shared, costs[k])

                threads = [threading.Thread(target=work, args=(k,)) for k in range(len(costs))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                for got, want in zip(results, serial):
                    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        finally:
            sys.setswitchinterval(interval)

    def test_warm_must_be_optimal_on_the_same_polyhedron(self):
        simplex, box = Polyhedron.simplex(2), Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        c = np.array([1.0, 2.0])
        on_simplex, on_box = solve_lp(c, simplex), solve_lp(c, box)
        assert solve_lp(-c, simplex, warm=on_simplex).point.tolist() == [0.0, 1.0]
        assert solve_lp(-c, box, warm=on_box).point.tolist() == [1.0, 1.0]
        for poly, warm in ((Polyhedron.simplex(2), on_simplex), (box, on_simplex),
                           (simplex, on_box)):
            with pytest.raises(ValueError, match="another polyhedron"):
                solve_lp(c, poly, warm=warm)


def assert_mask_matches_vertex(sol):
    """``sol._dirmask`` is -1 on the nonbasic columns at a lower bound
    below their upper bound, +1 on those at their upper bound and 0 on the
    basic and fixed columns; every other nonbasic column sits on a
    bound."""
    lo, hi = np.array(sol._form[3]), np.array(sol._form[4])
    x = sol._x
    nonbasic = np.ones(x.size, dtype=bool)
    nonbasic[sol._basis] = False
    fixed = lo == hi
    at_lo = nonbasic & ~fixed & (x == lo)
    at_hi = nonbasic & ~fixed & (x == hi)
    assert sol._dirmask.tolist() == np.where(at_lo, -1.0, np.where(at_hi, 1.0, 0.0)).tolist()
    assert np.all(at_lo | at_hi | ~nonbasic | fixed)


class TestCarriedChain:
    # a warm call continues the simplex state the warm solution ended with:
    # its vertex, basis inverse, pricing mask and pivots since the last
    # refactorization

    def test_one_warm_start_serves_two_calls_unchanged(self, siouxfalls_sets):
        P = fresh(siouxfalls_sets[0])
        rng = np.random.default_rng(7)
        warm = solve_lp(rng.uniform(1.0, 2.0, P.dim), P)
        warm = solve_lp(rng.uniform(1.0, 2.0, P.dim), P, warm=warm)
        held = [warm._x, warm._basis, warm._binv, warm._dirmask]
        before = [a.copy() for a in held]
        assert not any(a.flags.writeable for a in held)
        for c in rng.uniform(1.0, 2.0, size=(5, P.dim)):
            a, b = solve_lp(c, P, warm=warm), solve_lp(c, P, warm=warm)
            assert a.point.tobytes() == b.point.tobytes()
            assert a.objective == b.objective
        assert all(a.tobytes() == b.tobytes() for a, b in zip(held, before))
        with pytest.raises(ValueError, match="read-only"):
            held[0][0] = 1.0

    def test_mask_matches_the_vertex(self, siouxfalls_sets):
        # the carried pricing mask says where each column sits after every
        # call: Sioux Falls warm chains, then cold and warm LPs on random
        # dense polyhedra
        rng = np.random.default_rng(10)
        for P in siouxfalls_sets:
            P = fresh(P)
            assert_mask_matches_vertex(P._origin)
            c = rng.uniform(1.0, 2.0, P.dim)
            prev = None
            for _ in range(100):
                c = c * (1.0 + 0.2 * rng.normal(size=P.dim))
                prev = solve_lp(c, P, warm=prev)
                assert_mask_matches_vertex(prev)
        for P, costs in random_chains():
            assert_mask_matches_vertex(P._origin)
            prev = None
            for c in costs:
                for sol in (solve_lp(c, P), solve_lp(c, P, warm=prev)):
                    assert_mask_matches_vertex(sol)
                    prev = sol

    def test_refactorization_period_spans_the_chain(self, siouxfalls_sets, monkeypatch, spy):
        # the pivot count carries over from call to call, so a chain of
        # warm calls with a pivot or two each is still refactorized
        monkeypatch.setattr(polytope, "_REFACTOR_EVERY", 2)
        P = fresh(siouxfalls_sets[1])
        rng = np.random.default_rng(8)
        c = rng.uniform(1.0, 2.0, P.dim)
        prev = solve_lp(c, P)
        inverses, calls = [], spy(np.linalg, "inv")
        for _ in range(30):
            c = c * (1.0 + 0.05 * rng.normal(size=P.dim))
            calls.clear()
            sol = solve_lp(c, P, warm=prev)
            inverses += calls
            cold = solve_lp(c, P)
            assert contains(P, sol.point)
            assert sol._since_refresh < 2
            scale = 1.0 + np.abs(c).sum() * np.abs(sol.point).max()
            assert abs(sol.objective - cold.objective) <= 1e-9 * scale
            prev = sol
        assert inverses

    def test_oracles_fed_opposite_orders_agree_bitwise(self, learn_game):
        weights = np.random.default_rng(9).dirichlet(np.full(5, 0.3), size=6)
        basis = random_basis(learn_game, 5, seed=0)
        forward = [RegretOracle(learn_game, basis).report(w) for w in weights]
        oracle = RegretOracle(learn_game, basis)
        backward = [oracle.report(w) for w in weights[::-1]][::-1]
        for a, b in zip(forward, backward):
            assert a.per_player.tobytes() == b.per_player.tobytes()
            assert a.fw_gaps.tobytes() == b.fw_gaps.tobytes()
            assert a.upper.tobytes() == b.upper.tobytes()
            assert [y.tobytes() for y in a.best_responses] \
                == [y.tobytes() for y in b.best_responses]


def assert_matches_highs(c, *args):
    """``Polyhedron(*args)`` raises InfeasibleError exactly when HiGHS finds
    ``min c.x`` over that set infeasible (status 2); otherwise HiGHS solves
    it (status 0) and solve_lp agrees on the objective within 1e-7 (1 +
    |f|).  Returns the polyhedron, or None when the set is empty."""
    ref = highs(c, *args)
    try:
        P = Polyhedron(*args)
    except InfeasibleError:
        assert ref.status == 2, ref.message
        return None
    assert ref.status == 0, ref.message
    got = solve_lp(c, P)
    assert contains(P, got.point)
    assert abs(got.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
    return P


@pytest.fixture
def stalled_flags(monkeypatch):
    """Whether each ratio test the simplex runs, in order, got a generator:
    True exactly when it ran in a stall longer than ``_STALL_CAP``."""
    flags = []
    ratio_test = polytope._ratio_test

    def recording(*args):
        flags.append(args[-1] is not None)
        return ratio_test(*args)

    monkeypatch.setattr(polytope, "_ratio_test", recording)
    return flags


def array_ratio_test(step_b, xb, lo_b, hi_b):
    """The simplex's ratio test as it ran on numpy arrays over every basic
    row, kept as the reference for the Python-float ``_ratio_test``.  The
    leaving row is picked only when ``t_basic`` is finite and below the
    entering variable's own bound distance, so ``t_star`` is ``t_basic``
    there; the reference returns -1 otherwise.  Also returns the rows
    within ``_RATIO_TOL`` of ``t_basic``, among which a stalled run draws."""
    _RATIO_TOL = polytope._RATIO_TOL
    tgt = np.where(step_b > 0.0, hi_b, lo_b)
    small = np.abs(step_b) <= _RATIO_TOL
    denom = np.where(small, 1.0, step_b)
    ratios = np.where(small, np.inf, (tgt - xb) / denom)
    np.maximum(ratios, 0.0, out=ratios)

    t_basic = float(ratios.min(initial=np.inf))
    if not np.isfinite(t_basic):
        return t_basic, -1, []
    t_star = t_basic

    cand = np.flatnonzero(ratios <= t_star + _RATIO_TOL)
    leave = int(cand[np.argmax(np.abs(step_b[cand]))])
    return t_basic, leave, cand.tolist()


def random_ratio_rows(rng):
    """Random ratio-test rows: bounds with fixed and infinite entries, values
    on, inside and just past them, and steps at, inside and outside the
    tolerance, with ties in ``|step|``."""
    tol = polytope._RATIO_TOL
    m = int(rng.integers(1, 30))
    lo = rng.uniform(-5.0, 0.0, m)
    hi = lo + np.where(rng.uniform(size=m) < 0.15, 0.0, rng.uniform(0.0, 5.0, m))
    pick = rng.uniform(size=m)
    xb = np.where(pick < 0.2, lo, np.where(pick > 0.8, hi,  # on a bound
                                           lo + (hi - lo) * rng.uniform(size=m)))
    xb = xb + np.where(rng.uniform(size=m) < 0.05, rng.normal(scale=1e-12, size=m), 0.0)
    lo[rng.uniform(size=m) < 0.15] = -np.inf
    hi[rng.uniform(size=m) < 0.15] = np.inf
    step = rng.normal(size=m) * 10.0 ** rng.uniform(-12.0, 1.0, m)
    kind = rng.integers(0, 8, size=m)
    step = np.where(kind == 0, 0.0, step)
    step = np.where(kind == 1, rng.choice([-1.0, 1.0], m) * tol, step)
    step = np.where(kind == 2, rng.choice([-1.0, 1.0], m) * np.nextafter(tol, 1.0), step)
    step = np.where(kind == 3, rng.choice([-1.0, 1.0], m) * 0.5, step)  # ties in |step|
    return step, xb, lo, hi


def degenerate_ratio_rows():
    """Hand-made ratio-test rows ``(step, xb, lo, hi)`` at the edges of the
    clamp, the tolerance and the tie window."""
    tol = polytope._RATIO_TOL
    inf = np.inf
    return [
        # on its lower bound, moving down: the ratio is -0.0 before the clamp
        ([-1.0], [0.0], [0.0], [1.0]),
        ([2.0, -1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]),
        ([-1.0, 2.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]),
        # slightly past a bound: a negative ratio clamps to zero
        ([-1.0, 1.0], [-1e-13, 0.5], [0.0, 0.0], [1.0, 1.0]),
        # steps at, inside and just outside the tolerance
        ([0.0, tol, -tol, 0.5 * tol, np.nextafter(tol, 1.0), -np.nextafter(tol, 1.0)],
         [0.5] * 6, [0.0] * 6, [1.0] * 6),
        ([0.0, tol, -tol], [0.5] * 3, [0.0] * 3, [1.0] * 3),
        # every moving row heads for an infinite bound
        ([1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, -inf, 0.0], [inf, 0.0, 1.0]),
        ([1.0, -2.0], [3.0, -1.0], [-inf, -inf], [inf, inf]),
        # ties in |step| among degenerate rows: the first row
        ([1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0, 0.0], [0.0] * 4, [1.0] * 4),
        ([-1.0, 1.0, -1.0], [0.0, 1.0, 0.0], [0.0] * 3, [1.0, 1.0, 2.0]),
        # ratios within the tolerance of the least tie as candidates
        ([1.0, 2.0, 4.0], [1.0 - 0.5 * tol, 1.0, 1.0 - 4.0 * tol], [0.0] * 3, [1.0] * 3),
        # fixed rows (lo == hi) and a mix of everything
        ([1.0, -1.0, 1e-11, 3.0], [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, -inf],
         [0.0, 0.0, 0.0, inf]),
    ]


class TestRatioTest:
    # _ratio_test must pick the same t_basic, to the byte, and the same
    # leaving row as the array form it replaced; given a generator (a
    # stalled run) it draws the leaving row uniformly among the tied rows

    @staticmethod
    def assert_matches(step, xb, lo, hi):
        args = [np.asarray(a, dtype=float) for a in (step, xb, lo, hi)]
        want = array_ratio_test(*args)
        got = polytope._ratio_test(*(a.tolist() for a in args), None)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1] == want[1]

    @staticmethod
    def assert_draws_among_ties(step, xb, lo, hi, rng):
        """One draw: the same ``t_basic`` to the byte, and a row within the
        tie window.  Returns the drawn row and the tied rows."""
        args = [np.asarray(a, dtype=float) for a in (step, xb, lo, hi)]
        t_want, _, tied = array_ratio_test(*args)
        t_basic, leave = polytope._ratio_test(*(a.tolist() for a in args), rng)
        assert np.float64(t_basic).tobytes() == np.float64(t_want).tobytes()
        assert leave in tied if tied else leave == -1
        return leave, tied

    def test_random_rows(self):
        rng = np.random.default_rng(12)
        for _ in range(3000):
            self.assert_matches(*random_ratio_rows(rng))

    def test_degenerate_rows(self):
        for case in degenerate_ratio_rows():
            self.assert_matches(*case)

    def test_stalled_draw_stays_in_the_tie_window(self):
        rows = np.random.default_rng(12)
        draws = np.random.default_rng(0)
        for _ in range(3000):
            self.assert_draws_among_ties(*random_ratio_rows(rows), draws)
        for case in degenerate_ratio_rows():
            self.assert_draws_among_ties(*case, draws)

    def test_stalled_draw_reaches_every_tied_row(self):
        # five rows at ratio 0 (two within the tolerance above it), one
        # beyond the window, one at rest: every tied row comes back, each
        # about a fifth of the time, and no other
        tol = polytope._RATIO_TOL
        case = ([1.0, -2.0, 2.0, 1.0, 4.0, 1.0, 0.0],
                [1.0, 0.0, 1.0 - 0.5 * tol, 1.0, 1.0 - 3.0 * tol, 0.5, 0.5],
                [0.0] * 7, [1.0] * 7)
        rng = np.random.default_rng(0)
        counts = np.zeros(7, dtype=int)
        for _ in range(1000):
            leave, tied = self.assert_draws_among_ties(*case, rng)
            counts[leave] += 1
        assert tied == [0, 1, 2, 3, 4]
        assert (counts[:5] > 150).all() and counts[5:].sum() == 0


def degenerate_sweep_lp(m, s):
    """``min c.x`` over ``{Ax = 0, 0 <= x <= 1}`` with ``A`` in {-1, 0, 1}
    of shape ``(m, 2.5 m)``, drawn with ``c`` from ``default_rng(1000 m +
    s)``: phase 1 starts at ``x = 0`` with every artificial at zero, so its
    pivots are degenerate."""
    rng = np.random.default_rng(1000 * m + s)
    n = int(2.5 * m)
    A = rng.integers(-1, 2, (m, n)).astype(float)
    return rng.normal(size=n), A, np.zeros(m), np.zeros(n), np.ones(n)


def second_seed_100_lp():
    """The sweep's construction at 100 rows, the second LP drawn from
    ``default_rng(100)``."""
    rng = np.random.default_rng(100)
    rng.integers(-1, 2, (100, 250))
    rng.normal(size=250)
    A = rng.integers(-1, 2, (100, 250)).astype(float)
    return rng.normal(size=250), A, np.zeros(100), np.zeros(250), np.ones(250)


def grid_network(k, rng):
    """TNTP text of a k x k grid, parsed: links both ways between
    neighbours, node ``r k + q + 1`` at row ``r``, column ``q``, capacity
    1000, 2000 or 3000, free-flow time 1 to 6, BPR b 0.15 and power 4."""
    pairs = []
    for r in range(k):
        for q in range(k):
            u = r * k + q + 1
            if q + 1 < k:
                pairs += [(u, u + 1), (u + 1, u)]
            if r + 1 < k:
                pairs += [(u, u + k), (u + k, u)]
    caps = rng.integers(1, 4, len(pairs)) * 1000
    fft = rng.integers(1, 7, len(pairs))
    rows = "".join(f"{u} {v} {cap} 1 {t} 0.15 4 0 0 1 ;\n"
                   for (u, v), cap, t in zip(pairs, caps, fft))
    return parse_net(f"<NUMBER OF NODES> {k * k}\n<NUMBER OF LINKS> {len(pairs)}\n"
                     f"<END OF METADATA>\n{rows}")


KUHN = (np.array([-2.0, -3.0, 1.0, 12.0, 0.0, 0.0, 0.0]),
        np.array([[-2.0, -9.0, 1.0, 9.0, 1.0, 0.0, 0.0],
                  [1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0, 0.0, 1.0, 0.0],
                  [2.0, 3.0, -1.0, -12.0, 0.0, 0.0, 1.0]]),
        np.array([0.0, 0.0, 2.0]), np.zeros(7), np.array([10.0] * 4 + [1e3] * 3))


class TestSimplexPaths:
    # The stalled rule (ratio-test ties drawn at random), the periodic
    # refactorization, the pivot cap and the exit for a step no row bounds,
    # none of which the Sioux Falls polytopes reach

    def test_stalled_rule_on_degenerate_lps(self, monkeypatch, stalled_flags):
        # a negative cap draws every ratio-test tie at random, from each
        # phase's first pivot on
        monkeypatch.setattr(polytope, "_STALL_CAP", -1)
        rng = np.random.default_rng(1)
        for _ in range(200):
            m, n = int(rng.integers(2, 6)), int(rng.integers(4, 10))
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            x0 = np.where(rng.uniform(size=n) < 0.6, 0.0, rng.integers(1, 3, size=n))
            hi = np.where(rng.uniform(size=n) < 0.5, 10.0, 3.0)
            c = rng.integers(-3, 4, size=n).astype(float)
            assert assert_matches_highs(c, A, A @ x0, np.zeros(n), hi) is not None
        assert stalled_flags and all(stalled_flags)

    @pytest.mark.parametrize("stall_cap", [-1, polytope._STALL_CAP])
    def test_beale_cycling_example(self, monkeypatch, stalled_flags, stall_cap):
        # Beale (1955): Dantzig pricing with a naive leaving rule cycles
        # here; the optimum (1/25, 0, 1, 0, 3/100, 0, 0) lies in the unit box.
        # At the production cap no stall outlasts it, so this case covers
        # Dantzig's rule alone, and at -1 the stalled rule alone.
        monkeypatch.setattr(polytope, "_STALL_CAP", stall_cap)
        A = np.array([[0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
                      [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
        c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
        P = assert_matches_highs(c, A, np.array([0.0, 0.0, 1.0]), np.zeros(7), np.ones(7))
        assert solve_lp(c, P).objective == pytest.approx(-0.05, abs=1e-12)
        assert any(stalled_flags) == (stall_cap < 0)

    def test_kuhn_cycling_example(self, stalled_flags):
        # Kuhn's cycling example, with boxes on x and the slacks.  In phase
        # 1, Dantzig's rule with the largest-|step| leaving row cycles on
        # degenerate vertices.  At the production cap the stall outlasts it
        # after 51 ratio tests, 3 draw their leaving row at random, and
        # phase 1 ends after 54; phase 2 reaches HiGHS's optimum -2 in one.
        P = assert_matches_highs(*KUHN)
        assert solve_lp(KUHN[0], P).objective == pytest.approx(-2.0, abs=1e-12)
        assert any(stalled_flags)

    def test_kuhn_cycling_example_cycles_under_dantzig_alone(self, monkeypatch):
        # with the stalled rule out of reach the same phase 1 never ends
        monkeypatch.setattr(polytope, "_MAX_PIVOTS", 2000)
        monkeypatch.setattr(polytope, "_STALL_CAP", polytope._MAX_PIVOTS)
        with pytest.raises(DegeneracyError, match="not optimal after 2000 pivots"):
            Polyhedron(*KUHN[1:])

    def test_anti_cycling_switch_at_the_production_cap(self, stalled_flags):
        # Ax = 0 over the unit box at 60 rows, drawn from seed 60: phase 1
        # starts at x = 0 with every artificial at zero, so its pivots are
        # degenerate.  It runs 156 ratio tests, 105 of them stalled, and
        # phase 2 then finds -11.573081958656998 where HiGHS finds
        # -11.57308195865717.
        rng = np.random.default_rng(60)
        A = rng.integers(-1, 2, (60, 150)).astype(float)
        assert assert_matches_highs(rng.normal(size=150), A, np.zeros(60), np.zeros(150),
                                    np.ones(150)) is not None
        assert any(stalled_flags)

    @pytest.mark.parametrize("lp", [
        pytest.param(lambda: degenerate_sweep_lp(100, 3), id="m100-s3"),
        pytest.param(lambda: degenerate_sweep_lp(100, 6), id="m100-s6"),
        pytest.param(lambda: degenerate_sweep_lp(150, 0), id="m150-s0"),
        pytest.param(lambda: degenerate_sweep_lp(150, 1), id="m150-s1"),
        pytest.param(second_seed_100_lp, id="seed100"),
    ])
    def test_stalled_rule_finishes_degenerate_lps(self, stalled_flags, lp):
        # each of these polytopes contains x = 0, yet a smallest-index
        # leaving rule in the stall (Bland's) ran phase 1 out of pivots: it
        # evicts structural columns before the artificials.  With ties
        # drawn at random, both phases together run 500 to 1600 ratio tests.
        assert assert_matches_highs(*lp()) is not None
        assert any(stalled_flags) and len(stalled_flags) <= 5000

    def test_stalled_rule_on_a_traffic_grid(self, stalled_flags):
        # the flow polytopes of a 10 x 10 grid are degenerate enough that
        # stalls outlast the cap inside build_traffic_game (59 stalled
        # ratio tests of about 1000; Sioux Falls runs none); every nominal
        # cost is still HiGHS's to the bit
        net = grid_network(10, np.random.default_rng(10))
        players = [PlayerSpec(1, 100, 1500.0), PlayerSpec(10, 91, 1500.0),
                   PlayerSpec(50, 1, 1000.0)]
        game = build_traffic_game(net, players)
        assert any(stalled_flags)
        for spec, delta in zip(players, game.deltas):
            ref = highs(net.free_flow_time, build_incidence(net),
                        demand_vector(spec, net.num_nodes), np.zeros(net.num_links), net.capacity)
            assert ref.status == 0 and delta == ref.fun

    def test_refactorization_on_a_long_solve(self, monkeypatch, spy):
        # each phase needs more than 100 pivots on these 60 rows
        rng = np.random.default_rng(2)
        m, n = 60, 200
        A = rng.normal(size=(m, n))
        P = Polyhedron(A, A @ rng.uniform(0.0, 1.0, n), np.zeros(n), rng.uniform(1.0, 2.0, n))
        inverses = spy(np.linalg, "inv")
        solve_lp(rng.normal(size=n), P)
        monkeypatch.undo()
        assert (m, m) in [call.args[0].shape for call in inverses]
        assert assert_matches_highs(rng.normal(size=n), P.eq_matrix, P.eq_rhs, P.lower,
                                    P.upper) is not None

    def test_singular_refactorization_raises(self, monkeypatch):
        P = Polyhedron.simplex(3)
        singular = np.linalg.LinAlgError("Singular matrix")

        def failing(M):
            raise singular

        monkeypatch.setattr(polytope, "_REFACTOR_EVERY", 0)
        monkeypatch.setattr(np.linalg, "inv", failing)
        with pytest.raises(DegeneracyError, match="singular basis during refactorization") as info:
            solve_lp([1.0, 2.0, 3.0], P)
        assert info.value.__cause__ is singular

    def test_pivot_cap_raises(self, monkeypatch):
        P = Polyhedron.simplex(3)
        c = np.array([2.0, 1.0, 3.0])
        want = solve_lp(c, P).point
        monkeypatch.setattr(polytope, "_MAX_PIVOTS", 0)
        # phase 2 runs in solve_lp, phase 1 at construction
        with pytest.raises(DegeneracyError, match="not optimal after 0 pivots"):
            solve_lp(c, P)
        with pytest.raises(DegeneracyError, match="not optimal after 0 pivots"):
            fresh(P)
        monkeypatch.undo()
        assert solve_lp(c, fresh(P)).point.tobytes() == want.tobytes()

    def test_unbounded_step_raises(self, monkeypatch):
        # min x over [0, 1] with x <= 0.5: x is basic after phase 1, and
        # the budget slack, whose upper bound is +inf, enters to push it
        # down.  A ratio tolerance above every |step| leaves no row to
        # bound that step, which only rounding could do on a bounded set.
        P = Polyhedron(np.zeros((0, 1)), np.zeros(0), [0.0], [1.0], [1.0], 0.5)
        assert solve_lp([1.0], P).point.tolist() == [0.0]
        monkeypatch.setattr(polytope, "_RATIO_TOL", 2.0)
        with pytest.raises(DegeneracyError, match="no basic row bounds"):
            solve_lp([1.0], P)


class TestDualBound:
    # _dual_bound bounds min c.x from below by weak duality from whichever
    # basis the simplex stopped at; HiGHS gives the reference optimum

    def test_equals_the_optimum(self, siouxfalls_sets):
        # budget rows on Sioux Falls; dense rows, fixed columns and budget
        # rows on the random polyhedra
        rng = np.random.default_rng(3)
        cases = [(P, rng.uniform(-0.2, 1.0, P.dim)) for P in siouxfalls_sets for _ in range(20)]
        cases += [(P, c) for P, costs in random_chains(count=20, length=5) for c in costs]
        for P, c in cases:
            sol = solve_lp(c, P)
            f = highs_objective(c, P)
            assert polytope._dual_bound(c, sol) == pytest.approx(f, abs=1e-9 * (1.0 + abs(f)))

    def test_sound_after_a_loose_stop(self, siouxfalls_sets, monkeypatch):
        # at pricing tolerance 1e-2 (1 + max|c|) the simplex stops short of
        # the optimum, and the bound stays below it
        monkeypatch.setattr(polytope, "_DUAL_TOL", 1e-2)
        rng = np.random.default_rng(3)
        short = 0
        for P in siouxfalls_sets:
            for _ in range(20):
                c = rng.uniform(-0.2, 1.0, P.dim)
                f = highs_objective(c, P)
                sol = solve_lp(c, P)
                short += sol.objective > f + 1e-6 * (1.0 + abs(f))
                assert polytope._dual_bound(c, sol) <= f + 1e-9 * (1.0 + abs(f))
        assert short > 0

    def test_budget_dual_of_the_wrong_sign(self, monkeypatch):
        # min 0.004 (x0 + x1) over [-1, 1]^2 with x0 + x1 <= 0.5 stops at
        # the tolerance 1e-2 with the budget tight, x0 = 1 at its bound, x1
        # basic and a budget dual of +0.004.  Clipping that dual to 0 makes
        # the basic x1's reduced cost 0.004, which must count: dropped, the
        # bound would be -0.004, above the minimum -0.008.
        P = Polyhedron(np.zeros((0, 2)), np.zeros(0), [-1.0, -1.0], [1.0, 1.0],
                       [1.0, 1.0], 0.5)
        c = np.array([0.004, 0.004])
        monkeypatch.setattr(polytope, "_DUAL_TOL", 1e-2)
        sol = solve_lp(c, P)
        assert sol.point.tolist() == [1.0, -0.5]
        assert polytope._dual_bound(c, sol) == pytest.approx(-0.008, abs=1e-15)


class TestFrankWolfe:
    def test_interior_minimum(self):
        res = frank_wolfe_min(
            lambda y: (float((y[0] - 0.3) ** 2), np.array([2.0 * (y[0] - 0.3)])),
            Polyhedron.interval(0.0, 1.0), tol_gap=1e-6)
        assert abs(res.point[0] - 0.3) <= 1e-6
        assert res.gap <= 1e-6
        assert res.converged

    def test_boundary_minimum(self):
        res = frank_wolfe_min(
            lambda y: (float((y[0] - 2.0) ** 2), np.array([2.0 * (y[0] - 2.0)])),
            Polyhedron.interval(0.0, 1.0), tol_gap=1e-9)
        assert res.point[0] == pytest.approx(1.0, abs=1e-12)
        assert res.gap <= 1e-9

    def test_simplex_projection_objective(self):
        target = np.array([0.2, 0.9])

        def fun(y):
            return 0.5 * float(np.sum((y - target) ** 2)), y - target

        res = frank_wolfe_min(fun, Polyhedron.simplex(2), tol_gap=1e-10)
        assert np.allclose(res.point, [0.15, 0.85], atol=1e-6)

    def test_gap_is_suboptimality_certificate(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            target = rng.uniform(-0.5, 1.5, n)
            P = Polyhedron.box(np.zeros(n), np.ones(n))
            x_star = np.clip(target, 0.0, 1.0)
            f_star = 0.5 * float(np.sum((x_star - target) ** 2))

            def fun(y, t=target):
                return 0.5 * float(np.sum((y - t) ** 2)), y - t

            res = frank_wolfe_min(fun, P, tol_gap=1e-8)
            f_res = fun(res.point)[0]
            assert f_res - f_star <= res.gap + 1e-12

    @pytest.mark.parametrize("dual_tol, loose", [(polytope._DUAL_TOL, False), (0.1, True)])
    def test_bound_is_below_the_minimum(self, monkeypatch, dual_tol, loose):
        # projection onto the simplex, whose minimum is known in closed
        # form; at a loose LP pricing tolerance the stop rule's value - gap
        # overstates min f, the dual bound does not
        monkeypatch.setattr(polytope, "_DUAL_TOL", dual_tol)
        rng = np.random.default_rng(4)
        overstated = 0
        for _ in range(30):
            target = rng.normal(size=5)
            f_star = 0.5 * float(np.sum((project_simplex(target) - target) ** 2))

            def fun(y, t=target):
                return 0.5 * float((y - t) @ (y - t)), y - t

            res = frank_wolfe_min(fun, Polyhedron.simplex(5), tol_gap=1e-9)
            assert res.bound <= f_star + 1e-12
            assert res.bound <= res.value - max(res.gap, 0.0) + 1e-12
            overstated += res.value - max(res.gap, 0.0) > f_star + 1e-9
        assert (overstated > 0) == loose

    def test_nonconvergence_reports_gap(self, monkeypatch):
        # a quartic with an interior minimizer on the simplex cannot be
        # certified to 1e-30 in two steps: the result reports the gap
        # instead of raising
        monkeypatch.setattr(polytope, "_FW_MAX_ITER", 2)
        target = np.array([0.2, 0.3, 0.5])

        def fun(y):
            return 0.25 * float(np.sum((y - target) ** 4)), (y - target) ** 3

        res = frank_wolfe_min(fun, Polyhedron.simplex(3), tol_gap=1e-30)
        assert not res.converged
        assert np.isfinite(res.gap) and res.gap > 1e-30

    @pytest.mark.parametrize("f, df, y_star", [
        # steep: the old quadratic probe stopped at y = 0.0105 with gap 16
        (lambda y: np.exp(12.0 * y) - 30.0 * y, lambda y: 12.0 * np.exp(12.0 * y) - 30.0,
         np.log(2.5) / 12.0),
        # flat near the minimizer
        (lambda y: (y - 0.9) ** 4 + 1e-3 * y, lambda y: 4.0 * (y - 0.9) ** 3 + 1e-3,
         0.9 - 2.5e-4 ** (1.0 / 3.0)),
        # a smoothed kink: quadratic only within 1e-3 of the minimizer
        (lambda y: np.sqrt(1e-6 + (y - 0.2) ** 2),
         lambda y: (y - 0.2) / np.sqrt(1e-6 + (y - 0.2) ** 2), 0.2),
    ], ids=["steep_exp", "flat_quartic", "smoothed_kink"])
    def test_exact_step_on_curved_objectives(self, f, df, y_star):
        def fun(y):
            return float(f(y[0])), np.array([df(y[0])])

        res = frank_wolfe_min(fun, Polyhedron.interval(0.0, 1.0), tol_gap=1e-9)
        assert res.converged and res.iterations <= 5
        assert res.point[0] == pytest.approx(y_star, abs=1e-9)

    def test_quadratic_takes_few_evaluations(self):
        # bisection on the slope sign spent 56 evaluations here; the secant
        # is exact on a linear slope up to rounding
        calls = []
        target = np.array([0.2, 0.8])

        def fun(y):
            calls.append(1)
            r = y - target
            return float(r @ r), 2.0 * r

        res = frank_wolfe_min(fun, Polyhedron.simplex(2), tol_gap=1e-9)
        assert res.converged
        assert res.point == pytest.approx(target, abs=1e-15)
        assert len(calls) <= 8

    @staticmethod
    def counted_run(spy):
        """``(LP calls, result)`` of FW on a quadratic over the 3-simplex."""
        target = np.array([0.2, 0.3, 0.5])
        calls = spy(polytope, "solve_lp")
        res = frank_wolfe_min(lambda y: (0.5 * float((y - target) @ (y - target)), y - target),
                              Polyhedron.simplex(3), tol_gap=1e-9)
        return len(calls), res

    def test_one_lp_per_iteration(self, spy):
        # the start is the polyhedron's phase-1 vertex, not a zero-cost LP
        lps, res = self.counted_run(spy)
        assert res.converged
        assert lps == res.iterations

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_one_lp_per_iteration_up_to_the_cap(self, monkeypatch, spy, cap):
        # a run that reaches the cap solves one more LP, which only measures
        # the gap at its last iterate, and counts it
        monkeypatch.setattr(polytope, "_FW_MAX_ITER", cap)
        lps, res = self.counted_run(spy)
        assert not res.converged
        assert lps == res.iterations == cap + 1

    def test_determinism(self):
        target = np.array([0.3, 0.8])

        def fun(y):
            return 0.5 * float(np.sum((y - target) ** 2)), y - target

        P = Polyhedron.simplex(2)
        a = frank_wolfe_min(fun, P, tol_gap=1e-9)
        b = frank_wolfe_min(fun, P, tol_gap=1e-9)
        assert (a.point == b.point).all()
        assert a.gap == b.gap

    @pytest.mark.parametrize("tol_gap, cap, flat", [
        (1e-9, 500, False),  # converged
        (1e-30, 1, False),  # stopped at the cap, unconverged
        (1e-30, 2, False),  # stopped at the cap, where the gap rounds to -2e-19
        (1e-30, 0, False),  # no step: the gap at the start
        (1e-30, 500, True),  # stopped by a zero step
    ])
    def test_value_is_objective_at_point(self, monkeypatch, tol_gap, cap, flat):
        monkeypatch.setattr(polytope, "_FW_MAX_ITER", cap)
        target = np.array([0.3, 0.8, -0.2])

        def fun(y):
            return 0.25 * float(np.sum((y - target) ** 4)), (y - target) ** 3

        # a line polynomial of zeros claims f is flat along every step
        line_poly = (lambda x, d: np.zeros(5)) if flat else None
        res = frank_wolfe_min(fun, Polyhedron.simplex(3), tol_gap=tol_gap, line_poly=line_poly)
        assert res.value == fun(res.point)[0]
        assert res.iterations <= polytope._FW_MAX_ITER + 1
        assert res.converged == (res.gap <= tol_gap)
        if cap < 2:
            assert not res.converged

    def test_nan_gradient_rejected(self, siouxfalls_sets):
        # the gradient is the linear oracle's cost, which must be finite
        def fun(y):
            g = np.ones(y.size)
            g[0] = np.nan
            return float(y.sum()), g

        with pytest.raises(ValueError, match="c must be finite"):
            frank_wolfe_min(fun, siouxfalls_sets[0], tol_gap=1e-9)

    def test_active_index_joins_a_vertex_within_rounding(self):
        # a warm LP may return an active vertex again a few ulps off, or
        # from another basis; it joins that vertex's weight
        u = np.array([3000.0, 0.0, 1411.7647058823525])
        w = np.array([0.0, 3000.0, 1500.0])
        for again in (u.copy(), np.nextafter(u, np.inf), u * (1.0 + 1e-13)):
            assert polytope._active_index([w, u], again) == 1
        assert polytope._active_index([u, w], u + np.array([0.0, 1e-3, 0.0])) is None

    @pytest.mark.parametrize("tol_gap", [np.nan, -1e-9, -np.inf])
    def test_tol_gap_must_be_nonnegative(self, tol_gap):
        # no gap is ever <= NaN, so a NaN target would run every iteration;
        # a negative one would be met only when rounding left a negative gap
        def fun(y):
            raise AssertionError("no iteration may run")

        with pytest.raises(ValueError, match="tol_gap must be >= 0"):
            frank_wolfe_min(fun, Polyhedron.simplex(3), tol_gap=tol_gap)


def eigen_candidates(coeffs, s_max):
    """0, s_max and every real root of p' inside, from companion-matrix
    eigenvalues (test oracle)."""
    roots = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(coeffs))
    inside = [float(r.real) for r in roots if abs(r.imag) < 1e-9 and 0.0 < r.real < s_max]
    return np.array([0.0, s_max, *inside])


def power_sum_line(rng):
    """Coefficients of s -> b s + sum_j a_j (u_j + s d_j)^k, convex on [0, s_max]
    because every u_j + s d_j stays positive there, with s_max; the minimizer
    is interior about 60% of the time."""
    k, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    s_max = float(rng.choice([1.0, rng.uniform(0.01, 20.0)]))
    a = rng.uniform(0.0, 2.0, n)
    u = rng.uniform(0.1, 3.0, n)
    d = rng.uniform(-u / s_max, 3.0)
    coeffs = np.zeros(k + 1)
    for r in range(k + 1):
        coeffs[r] = comb(k, r) * float(a @ (u ** (k - r) * d ** r))
    # a linear term that puts the minimizer near a random point of the interval
    t = rng.uniform(-0.25, 1.25) * s_max
    coeffs[1] -= np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyder(coeffs))
    return coeffs, s_max


def poly_step(coeffs, s_max):
    """The step frank_wolfe_min takes on the line polynomial ``coeffs``."""
    slope, slope0 = polytope._poly_slope(np.asarray(coeffs, dtype=float))
    return polytope._line_step(slope, s_max, slope0)


class TestLineStep:
    def assert_exact(self, coeffs, s_max):
        s = poly_step(coeffs, s_max)
        assert 0.0 <= s <= s_max
        cands = np.concatenate([eigen_candidates(coeffs, s_max), np.linspace(0.0, s_max, 100001)])
        best = float(np.polynomial.polynomial.polyval(cands, coeffs).min())
        got = float(np.polynomial.polynomial.polyval(s, coeffs))
        assert got <= best + 1e-12 * (1.0 + abs(best))

    def test_siouxfalls_line_polynomials(self, learn_game):
        game = learn_game
        rng = np.random.default_rng(8)
        T = np.stack([sum(x) for x in (
            [solve_lp(rng.uniform(1.0, 5.0, game.num_links), P).point for P in game.action_sets[1:]]
            for _ in range(4))])
        P = game.action_sets[0]
        verts = [solve_lp(rng.normal(size=P.dim), P).point for _ in range(12)]
        for _ in range(60):
            _, line_poly = game.mixture_best_response(0, rng.dirichlet(np.ones(4)), T)
            lam = rng.dirichlet(np.full(len(verts), 0.3))
            x = lam @ np.array(verts)
            k = int(rng.integers(len(verts)))
            if rng.uniform() < 0.5:  # toward a vertex
                d, s_max = verts[k] - x, 1.0
            else:  # away from a vertex with weight lam[k]
                d, s_max = x - verts[k], lam[k] / (1.0 - lam[k])
            self.assert_exact(line_poly(x, d), s_max)

    def test_power_sums(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            self.assert_exact(*power_sum_line(rng))

    def test_edge_cases(self):
        assert poly_step(np.zeros(6), 1.0) == 0.0
        assert poly_step(np.array([3.0]), 1.0) == 0.0  # constant: no slope at all
        assert poly_step(np.array([3.0, 2.0]), 1.0) == 0.0
        assert poly_step(np.array([3.0, -2.0]), 0.7) == 0.7
        assert poly_step(np.array([0.0, -2.0, 1.0]), 0.0) == 0.0
        assert poly_step(np.array([0.0, -2.0, 1.0]), 5.0) == 1.0


def flip_count_nonzero_projection(v):
    """project_simplex as it stood with np.flip and np.count_nonzero."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, v.shape[-1] + 1)
    rho = np.count_nonzero(u - css / idx > 0.0, axis=-1, keepdims=True)
    theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
    return np.maximum(v - theta, 0.0)


class TestProjectSimplex:
    def test_bitwise_equal_to_flip_count_nonzero(self):
        rng = np.random.default_rng(11)
        for k in range(10000):
            scale = 10.0 ** rng.uniform(-3.0, 1.0)
            V = rng.normal(scale=scale, size=(8, 5))
            V[0] = rng.dirichlet(np.ones(5)) + scale * rng.normal(size=5)  # a simplex point plus noise
            V[1, :3] = V[1, 0]  # tied
            V[2] = np.eye(5)[k % 5] + 1e-12 * rng.normal(size=5)  # near a vertex
            V[3] = scale  # all tied
            out = project_simplex(V)
            assert out.tobytes() == flip_count_nonzero_projection(V).tobytes()
            assert out[k % 8].tobytes() == flip_count_nonzero_projection(V[k % 8]).tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 1), (512, 5), (3, 4, 5)])
    def test_bitwise_equal_to_flip_count_nonzero_in_every_shape(self, shape):
        rng = np.random.default_rng(12)
        for _ in range(50):
            V = rng.normal(scale=10.0 ** rng.uniform(-3.0, 3.0), size=shape)
            assert project_simplex(V).tobytes() == flip_count_nonzero_projection(V).tobytes()

    def test_spec_values(self):
        assert np.allclose(project_simplex([0.5, 0.7]), [0.4, 0.6], atol=1e-12)
        assert np.allclose(project_simplex([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
        assert np.allclose(project_simplex([-5.0, -5.0]), [0.5, 0.5])

    def test_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            v = rng.normal(scale=3.0, size=n)
            w = project_simplex(v)
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) <= 1e-12
            again = project_simplex(w)
            assert np.abs(again - w).max() <= 1e-12

    def test_is_argmin(self):
        # compare against a fine grid on the 2-simplex
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 2001)
        candidates = np.stack([grid, 1.0 - grid], axis=1)
        for _ in range(20):
            v = rng.normal(scale=2.0, size=2)
            w = project_simplex(v)
            d_grid = np.min(np.sum((candidates - v) ** 2, axis=1))
            assert float(np.sum((w - v) ** 2)) <= d_grid + 1e-9

    @pytest.mark.parametrize("v, want", [
        # u[0] - 1 rounds to u[0], so no coordinate passes the threshold test
        ([1e17, 0.0], [1.0, 0.0]),
        ([1e300, -1e300], [1.0, 0.0]),
        # (1e16 + 2) - 1 rounds to 1e16, so the sum comes out 2
        ([1e16 + 2.0, 0.0], [1.0, 0.0]),
        # the cumulative sums overflow
        ([1e308, 1e308], [0.5, 0.5]),
        ([0.0, -1e308, -1e308], [1.0, 0.0, 0.0]),
        ([-1e308, -1e308, -1e308], [1 / 3, 1 / 3, 1 / 3]),
    ])
    def test_large_finite_input(self, v, want):
        assert project_simplex(v).tolist() == want
        rows = project_simplex([v, np.linspace(-1.0, 1.0, len(v))])
        assert rows[0].tolist() == want
        assert rows[1].tobytes() == project_simplex(np.linspace(-1.0, 1.0, len(v))).tobytes()

    def test_every_finite_scale_lands_on_the_simplex(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            n = int(rng.integers(1, 30))
            v = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(-3.0, 308.0)
            v[: int(rng.integers(0, n + 1))] = v[0]  # ties
            w = project_simplex(v)
            assert (w >= 0.0).all()
            assert abs(w.sum() - 1.0) <= 1e-9
            assert w[v.argmax()] == w.max()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_simplex([np.nan, 0.0])
        with pytest.raises(ValueError):
            project_simplex([[0.5, 0.5], [np.inf, 0.0]])

    @pytest.mark.parametrize("empty", [[], np.zeros((3, 0))])
    def test_rejects_no_coordinates(self, empty):
        # the active-set lookup would otherwise raise a bare IndexError
        with pytest.raises(ValueError, match="at least one coordinate"):
            project_simplex(empty)

    def test_matrix_rows_match_vector_bitwise(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 11):
            V = rng.normal(scale=3.0, size=(30, n))
            V[0] = 0.25  # all coordinates tied
            V[1, : (n + 1) // 2] = -7.0  # partial ties
            V[2] *= 1e6
            out = project_simplex(V)
            assert out.shape == V.shape
            for row, v in zip(out, V):
                assert row.tobytes() == project_simplex(v).tobytes()


class TestContains:
    def test_spec_examples(self):
        P = Polyhedron.interval(0.0, 1.0)
        assert contains(P, [0.5])
        assert not contains(P, [1.0 + 1e-6])
        Pb = Polyhedron(np.zeros((0, 2)), np.zeros(0), np.zeros(2), np.ones(2),
                        np.array([1.0, 1.0]), 1.0)
        assert not contains(Pb, [0.6, 0.6])
        R = Polyhedron.box([-1e300, 0.0], [1e300, 1e300])
        assert contains(R, [-1e300, 1e300])
        for x in ([np.nan, 0.5], [np.inf, 0.5], [0.5, np.inf], [-np.inf, 0.5]):
            assert not contains(R, x)
        assert not contains(P, [np.nan])
        assert not contains(Pb, [np.nan, np.nan])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(Polyhedron.interval(0.0, 1.0), [0.1, 0.2])


class TestPolyhedron:
    @pytest.mark.parametrize("args", [
        (np.ones((1, 2)), [3.0], np.zeros(2), np.ones(2)),
        (np.zeros((0, 1)), np.zeros(0), [0.0], [1.0], [1.0], -1.0),
    ], ids=["sum_beyond_the_box", "budget_below_the_box"])
    def test_empty_set_raises(self, args):
        # 1.x = 3 over the unit square, and a budget row below the box's
        # minimum (the demand-over-capacity case is TestSolveLp::test_infeasible)
        with pytest.raises(InfeasibleError, match="empty"):
            Polyhedron(*args)
        assert assert_matches_highs(np.zeros(len(args[2])), *args) is None

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Polyhedron.box([1.0], [0.0])

    def test_budget_needs_limit(self):
        with pytest.raises(ValueError):
            Polyhedron(np.zeros((0, 1)), np.zeros(0), [0.0], [1.0], [1.0], None)

    def test_limit_needs_budget(self):
        # with no row to bound, the limit would be kept and never checked
        with pytest.raises(ValueError, match="budget_limit given without budget_coeffs"):
            Polyhedron(np.ones((1, 2)), [1.0], np.zeros(2), np.ones(2), None, -5.0)

    def test_arrays_are_read_only_copies(self):
        rhs = np.array([1.0])
        P = Polyhedron(np.ones((1, 2)), rhs, np.zeros(2), np.ones(2), np.ones(2), 1.0)
        for arr in (P.eq_matrix, P.eq_rhs, P.lower, P.upper, P.budget_coeffs):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            P.eq_rhs[0] = 2.0
        rhs[0] = 2.0  # the caller's array stays writable and unshared
        assert P.eq_rhs[0] == 1.0

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            Polyhedron(np.ones((1, 2)), np.ones(1), [0.0], [1.0])
        with pytest.raises(DimensionMismatch, match="at least one coordinate"):
            Polyhedron.box([], [])
        with pytest.raises(DimensionMismatch, match=r"lower must be a vector, got shape \(1, 2\)"):
            Polyhedron.box(np.zeros((1, 2)), np.ones(2))
        with pytest.raises(DimensionMismatch, match="budget_coeffs length"):
            Polyhedron(np.ones((1, 2)), np.ones(1), np.zeros(2), np.ones(2), np.ones(3), 1.0)
        # an eq_rhs shorter than the row count is not read as zeros
        for rhs in ([], np.zeros(0), [1.0, 1.0]):
            with pytest.raises(DimensionMismatch, match="1 rows"):
                Polyhedron(np.ones((1, 2)), rhs, np.zeros(2), np.ones(2))

    def test_scalar_bounds_are_one_coordinate(self):
        P = Polyhedron.box(0.0, 1.0)
        assert P.dim == 1
        assert P.lower.tolist() == [0.0] and P.upper.tolist() == [1.0]

    @pytest.mark.parametrize("eq", [np.ones((1, 1, 2)), np.ones(3), np.ones(2), 1.0])
    def test_eq_matrix_must_be_a_matrix(self, eq):
        # a non-2-D array is not reshaped to fit the bounds
        with pytest.raises(DimensionMismatch, match=r"eq_matrix must be a matrix, got shape \("):
            Polyhedron(eq, np.ones(1), np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("lower, upper", [([np.inf], [np.inf]), ([-np.inf], [-np.inf]),
                                              ([0.0, np.inf], [1.0, np.inf])])
    def test_bound_no_point_meets(self, lower, upper):
        # lower > upper is False for these bounds; unchecked, solve_lp called
        # such a set optimal at a point outside it
        with pytest.raises(ValueError, match="lower must be finite"):
            Polyhedron.box(lower, upper)

    @pytest.mark.parametrize("field, bad", [
        (f, v) for f in ("eq_matrix", "eq_rhs", "lower", "upper", "budget_coeffs", "budget_limit")
        for v in (np.nan, np.inf, -np.inf)])
    def test_rejects_non_finite_entries(self, field, bad):
        # the bounds too: an action set is a bounded box cut by the rows
        args = {"eq_matrix": np.ones((1, 2)), "eq_rhs": np.ones(1), "lower": np.zeros(2),
                "upper": np.ones(2), "budget_coeffs": np.ones(2), "budget_limit": 1.5}
        if field == "budget_limit":
            args[field] = bad
        else:
            args[field] = args[field].copy()
            args[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Polyhedron(**args)
