import itertools
import sys
import threading
from math import comb
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from cequil import polytope
from cequil.game import PlayerSpec, build_traffic_game
from cequil.polytope import (
    DegeneracyError,
    DimensionMismatch,
    Polyhedron,
    contains,
    frank_wolfe_min,
    project_simplex,
    solve_lp,
)
from cequil.tntp import parse_net

DATA = Path(__file__).parent / "data"


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
        if np.isfinite(poly.lower[j]):
            rows.append((e.copy(), poly.lower[j], False))
        if np.isfinite(poly.upper[j]):
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
        if not contains(poly, x, tol=1e-7):
            continue
        if not any(np.allclose(x, v, atol=1e-8) for v in verts):
            verts.append(x)
    return verts


class TestSolveLp:
    def test_bound_active_minimum(self):
        sol = solve_lp(np.array([1.0]), Polyhedron.interval(0.0, 1.0))
        assert sol.status == "optimal"
        assert sol.point[0] == 0.0
        assert sol.objective == 0.0

    def test_equality_forces_sum(self):
        P = Polyhedron(np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2), np.ones(2))
        sol = solve_lp(np.array([-1.0, -1.0]), P)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(sol.point, [1.0, 0.0]) or np.allclose(sol.point, [0.0, 1.0])
        # fixed pivot rule: vertex is reproducible
        again = solve_lp(np.array([-1.0, -1.0]), P)
        assert (again.point == sol.point).all()

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
            assert sol.status == "optimal"
            assert contains(P, sol.point, 1e-7)

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
            assert sol.status == "optimal"
            best = min(float(c @ v) for v in verts)
            assert sol.objective == pytest.approx(best, abs=1e-8)
            checked += 1

    def test_infeasible(self):
        # demand 2 through a capacity-1 link
        P = Polyhedron(np.array([[1.0], [-1.0]]), np.array([2.0, -2.0]), np.zeros(1), np.ones(1))
        assert solve_lp(np.array([1.0]), P).status == "infeasible"

    def test_unbounded(self):
        P = Polyhedron.box([0.0], [np.inf])
        assert solve_lp(np.array([-1.0]), P).status == "unbounded"

    def test_single_point_polyhedron(self):
        P = Polyhedron.box([0.5, -1.0], [0.5, -1.0])
        sol = solve_lp(np.array([3.0, -2.0]), P)
        assert sol.status == "optimal"
        assert np.allclose(sol.point, [0.5, -1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_lp(np.array([1.0, 2.0]), Polyhedron.interval(0.0, 1.0))

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
def siouxfalls_game():
    net = parse_net((DATA / "siouxfalls_net.tntp").read_text())
    players = [PlayerSpec(o, d, 3000.0) for o, d in ((1, 20), (13, 8), (7, 24))]
    return build_traffic_game(net, players)


@pytest.fixture(scope="module")
def siouxfalls_sets(siouxfalls_game):
    return siouxfalls_game.action_sets


class TestStoredStart:
    def test_warm_equals_cold_and_highs(self, siouxfalls_sets):
        rng = np.random.default_rng(0)
        for P in siouxfalls_sets:
            P = fresh(P)
            for _ in range(200):
                c = rng.normal(size=P.dim)
                warm = solve_lp(c, P)
                cold = solve_lp(c, fresh(P))
                assert warm.status == cold.status == "optimal"
                assert warm.point.tobytes() == cold.point.tobytes()
                assert warm.objective == cold.objective
                ref = linprog(c, A_ub=P.budget_coeffs[None, :], b_ub=[P.budget_limit],
                              A_eq=P.eq_matrix, b_eq=P.eq_rhs,
                              bounds=np.column_stack([P.lower, P.upper]), method="highs")
                assert ref.status == 0
                scale = 1.0 + np.abs(c).sum() * np.abs(warm.point).max()
                assert abs(warm.objective - ref.fun) <= 1e-9 * scale

    def test_infeasible_stays_infeasible(self):
        P = Polyhedron(np.array([[1.0], [-1.0]]), np.array([2.0, -2.0]), np.zeros(1), np.ones(1))
        for c in ([1.0], [-1.0], [0.0], [1.0]):
            sol = solve_lp(np.array(c), P)
            assert sol.status == "infeasible"
            assert sol.point is None

    def test_unbounded_calls_leave_start_intact(self):
        # x0 = x1 may grow without bound; x2 is boxed by the budget row
        P = Polyhedron(np.array([[1.0, -1.0, 0.0]]), np.zeros(1), np.zeros(3),
                       np.array([np.inf, np.inf, 2.0]), np.array([0.0, 0.0, 1.0]), 1.5)
        costs = [[-1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, -1.0, 1.0], [1.0, 1.0, 1.0],
                 [-1.0, 0.5, -2.0], [0.0, 0.0, -1.0]]
        for c in costs:
            warm, cold = solve_lp(np.array(c), P), solve_lp(np.array(c), fresh(P))
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert warm.point.tobytes() == cold.point.tobytes()
        assert [solve_lp(np.array(c), P).status for c in costs[:2]] == ["unbounded", "optimal"]

    def test_phase1_runs_once(self, siouxfalls_sets, monkeypatch):
        calls = []
        phase1 = polytope._phase1

        def counting(*args):
            calls.append(1)
            return phase1(*args)

        monkeypatch.setattr(polytope, "_phase1", counting)
        P = fresh(siouxfalls_sets[0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            solve_lp(rng.normal(size=P.dim), P)
        frank_wolfe_min(lambda y: (0.5 * float(y @ y), y), P, tol_gap=1e-9, max_iter=5)
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


def highs_objective(c, P):
    budget = {}
    if P.budget_coeffs is not None:
        budget = {"A_ub": P.budget_coeffs[None, :], "b_ub": [P.budget_limit]}
    ref = linprog(c, A_eq=P.eq_matrix, b_eq=P.eq_rhs,
                  bounds=np.column_stack([P.lower, P.upper]), method="highs", **budget)
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
                assert sol.status == "optimal"
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

    def test_close_costs_need_few_pivots(self, siouxfalls_sets, monkeypatch):
        # from the optimum of a nearby cost a warm start skips most pivots
        pivots = []
        outer = np.outer

        def counting(*args):
            pivots.append(1)
            return outer(*args)

        rng = np.random.default_rng(4)
        for P in siouxfalls_sets:
            c = rng.uniform(1.0, 2.0, size=P.dim)
            first = solve_lp(c, P)
            c = c * (1.0 + 0.05 * rng.normal(size=P.dim))
            monkeypatch.setattr(np, "outer", counting)
            cold = solve_lp(c, P)
            n_cold = len(pivots)
            warm = solve_lp(c, P, warm=first)
            monkeypatch.undo()
            assert len(pivots) - n_cold <= 1 < n_cold
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
            pivots.clear()

    def test_free_columns_warm_chain_match_highs(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
            A = rng.normal(size=(m, n))
            kind = rng.integers(0, 4, size=n)  # box, lower only, upper only, free
            lo = np.where(kind <= 1, -1.0, -np.inf)
            hi = np.where(kind % 2 == 0, 1.0, np.inf)
            P = Polyhedron(A, A @ rng.uniform(-1.0, 1.0, n), lo, hi)
            prev = None
            for _ in range(10):
                c = rng.normal(size=n)
                got = solve_lp(c, P, warm=prev)
                ref = linprog(c, A_eq=A, b_eq=P.eq_rhs, bounds=np.column_stack([lo, hi]),
                              method="highs")
                assert got.status == HIGHS_STATUS[ref.status], ref.message
                if got.status == "optimal":
                    assert contains(P, got.point, 1e-7)
                    assert abs(got.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
                    prev = got

    def test_nonbasic_free_column_restarts_at_zero(self):
        # phase 1 never prices x2 in (its reduced cost is zero), so the
        # zero-cost optimum leaves it nonbasic and free for the warm start
        P = Polyhedron(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]), np.array([0.5, 0.5]),
                       np.array([0.0, 0.0, -np.inf]), np.array([1.0, 1.0, np.inf]))
        seed = solve_lp(np.zeros(3), P)
        assert seed.point.tolist() == [0.5, 0.5, 0.0]
        for c, want in (([0.0, 0.0, 1.0], [1.0, 0.0, -0.5]), ([0.0, 0.0, -1.0], [0.0, 1.0, 0.5])):
            assert solve_lp(np.array(c), P, warm=seed).point.tolist() == want

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
        empty = Polyhedron(np.array([[1.0], [-1.0]]), np.array([2.0, -2.0]),
                           np.zeros(1), np.ones(1))
        with pytest.raises(ValueError, match="optimal"):
            solve_lp([1.0], empty, warm=solve_lp([1.0], empty))


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def assert_matches_highs(c, P):
    """solve_lp agrees with HiGHS on the status and, when optimal, on the
    objective within 1e-7 (1 + |f|); returns the status."""
    got = solve_lp(c, P)
    ref = linprog(c, A_eq=P.eq_matrix, b_eq=P.eq_rhs,
                  bounds=np.column_stack([P.lower, P.upper]), method="highs")
    assert got.status == HIGHS_STATUS[ref.status], ref.message
    if got.status == "optimal":
        assert contains(P, got.point, 1e-7)
        assert abs(got.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
    return got.status


class TestSimplexPaths:
    # pricing of free columns, Bland's rule, the periodic refactorization
    # and the pivot cap, none of which the Sioux Falls polytopes reach

    def test_free_columns_match_highs(self):
        rng = np.random.default_rng(0)
        statuses = set()
        for _ in range(300):
            m, n = int(rng.integers(0, 5)), int(rng.integers(2, 8))  # m = 0: a box
            A = rng.normal(size=(m, n))
            kind = rng.integers(0, 4, size=n)  # box, lower only, upper only, free
            lo = np.where(kind <= 1, -1.0, -np.inf)
            hi = np.where(kind % 2 == 0, 1.0, np.inf)
            x0 = rng.uniform(-1.0, 1.0, n)
            statuses.add(assert_matches_highs(rng.normal(size=n), Polyhedron(A, A @ x0, lo, hi)))
        assert statuses == {"optimal", "unbounded"}

    def test_bland_rule_on_degenerate_lps(self, monkeypatch):
        # a negative cap puts the simplex on Bland's rule from the first pivot
        monkeypatch.setattr(polytope, "_STALL_CAP", -1)
        rng = np.random.default_rng(1)
        statuses = set()
        for _ in range(200):
            m, n = int(rng.integers(2, 6)), int(rng.integers(4, 10))
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            x0 = np.where(rng.uniform(size=n) < 0.6, 0.0, rng.integers(1, 3, size=n))
            hi = np.where(rng.uniform(size=n) < 0.5, np.inf, 3.0)
            c = rng.integers(-3, 4, size=n).astype(float)
            statuses.add(assert_matches_highs(c, Polyhedron(A, A @ x0, np.zeros(n), hi)))
        assert statuses == {"optimal", "unbounded"}

    @pytest.mark.parametrize("stall_cap", [-1, polytope._STALL_CAP])
    def test_beale_cycling_example(self, monkeypatch, stall_cap):
        # Beale (1955): Dantzig pricing with a naive leaving rule cycles here
        monkeypatch.setattr(polytope, "_STALL_CAP", stall_cap)
        A = np.array([[0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
                      [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
        c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
        P = Polyhedron(A, np.array([0.0, 0.0, 1.0]), np.zeros(7), np.full(7, np.inf))
        assert assert_matches_highs(c, P) == "optimal"
        assert solve_lp(c, P).objective == pytest.approx(-0.05, abs=1e-12)

    def test_refactorization_on_a_long_solve(self, monkeypatch):
        # each phase needs more than 100 pivots on these 60 rows
        inverses = []
        inv = np.linalg.inv

        def counting(M):
            inverses.append(M.shape)
            return inv(M)

        rng = np.random.default_rng(2)
        m, n = 60, 200
        A = rng.normal(size=(m, n))
        P = Polyhedron(A, A @ rng.uniform(0.0, 1.0, n), np.zeros(n), rng.uniform(1.0, 2.0, n))
        monkeypatch.setattr(np.linalg, "inv", counting)
        solve_lp(rng.normal(size=n), P)
        monkeypatch.undo()
        assert (m, m) in inverses
        assert assert_matches_highs(rng.normal(size=n), P) == "optimal"

    def test_pivot_cap_raises(self, monkeypatch):
        P = Polyhedron.simplex(3)
        c = np.array([2.0, 1.0, 3.0])
        want = solve_lp(c, P).point
        monkeypatch.setattr(polytope, "_MAX_PIVOTS", 0)
        with pytest.raises(DegeneracyError, match="phase 2"):
            solve_lp(c, P)
        with pytest.raises(DegeneracyError, match="phase 1"):
            fresh(P)
        monkeypatch.undo()
        assert solve_lp(c, fresh(P)).point.tobytes() == want.tobytes()


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

        res = frank_wolfe_min(fun, Polyhedron.simplex(2), tol_gap=1e-10, max_iter=500)
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

            res = frank_wolfe_min(fun, P, tol_gap=1e-8, max_iter=500)
            f_res = fun(res.point)[0]
            assert f_res - f_star <= res.gap + 1e-12

    def test_nonconvergence_reports_gap(self):
        # a quartic cannot be certified to 1e-30 in two steps: the result
        # reports the gap instead of raising
        def fun(y):
            return 0.25 * float((y[0] - 0.3) ** 4), np.array([(y[0] - 0.3) ** 3])

        res = frank_wolfe_min(fun, Polyhedron.interval(0.0, 1.0),
                              tol_gap=1e-30, max_iter=2)
        assert not res.converged
        assert np.isfinite(res.gap) and res.gap > 1e-30

    def test_determinism(self):
        target = np.array([0.3, 0.8])

        def fun(y):
            return 0.5 * float(np.sum((y - target) ** 2)), y - target

        P = Polyhedron.simplex(2)
        a = frank_wolfe_min(fun, P, tol_gap=1e-9)
        b = frank_wolfe_min(fun, P, tol_gap=1e-9)
        assert (a.point == b.point).all()
        assert a.gap == b.gap

    @pytest.mark.parametrize("tol_gap, max_iter, flat", [
        (1e-9, 500, False),  # converged
        (1e-30, 2, False),  # stopped at max_iter
        (1e-30, 0, False),  # no step: the gap at the start
        (1e-30, 500, True),  # stopped by a zero step
    ])
    def test_value_is_objective_at_point(self, tol_gap, max_iter, flat):
        target = np.array([0.3, 0.8, -0.2])

        def fun(y):
            return 0.25 * float(np.sum((y - target) ** 4)), (y - target) ** 3

        # a line polynomial of zeros claims f is flat along every step
        line_poly = (lambda x, d: np.zeros(5)) if flat else None
        res = frank_wolfe_min(fun, Polyhedron.simplex(3), tol_gap=tol_gap,
                              max_iter=max_iter, line_poly=line_poly)
        assert res.value == fun(res.point)[0]
        assert res.iterations <= max_iter
        assert res.converged == (res.gap <= tol_gap)

    def test_negative_max_iter_rejected(self):
        with pytest.raises(ValueError):
            frank_wolfe_min(lambda y: (0.0, np.zeros(1)), Polyhedron.interval(0.0, 1.0),
                            tol_gap=1e-9, max_iter=-1)


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


class TestLineStep:
    def assert_exact(self, coeffs, s_max):
        s = polytope._poly_min_on_interval(coeffs, s_max)
        assert 0.0 <= s <= s_max
        cands = np.concatenate([eigen_candidates(coeffs, s_max), np.linspace(0.0, s_max, 100001)])
        best = float(np.polynomial.polynomial.polyval(cands, coeffs).min())
        got = float(np.polynomial.polynomial.polyval(s, coeffs))
        assert got <= best + 1e-12 * (1.0 + abs(best))

    def test_siouxfalls_line_polynomials(self, siouxfalls_game):
        game = siouxfalls_game
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
        step = polytope._poly_min_on_interval
        assert step(np.zeros(6), 1.0) == 0.0
        assert step(np.array([3.0, 2.0]), 1.0) == 0.0
        assert step(np.array([3.0, -2.0]), 0.7) == 0.7
        assert step(np.array([0.0, -2.0, 1.0]), 0.0) == 0.0
        assert step(np.array([0.0, -2.0, 1.0]), 5.0) == 1.0

    def test_endpoint_guard(self):
        # p' = (s - a)(s - b)(s - c) is not monotone: a root search that
        # stops at the local minimum a must not return it, as p(1) < p(a)
        a, b, c = 0.01, 0.02, 0.9
        coeffs = np.array([0.0, -a * b * c, (a * b + b * c + c * a) / 2, -(a + b + c) / 3, 0.25])
        p = np.polynomial.polynomial.polyval([0.0, a, 1.0], coeffs)
        assert p[2] < p[1] < p[0]
        step = polytope._poly_min_on_interval(coeffs, 1.0)
        assert np.polynomial.polynomial.polyval(step, coeffs) <= p[2]


class TestProjectSimplex:
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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_simplex([np.nan, 0.0])
        with pytest.raises(ValueError):
            project_simplex([[0.5, 0.5], [np.inf, 0.0]])

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
        assert contains(P, [0.5], 1e-9)
        assert not contains(P, [1.0 + 1e-6], 1e-9)
        Pb = Polyhedron(np.zeros((0, 2)), np.zeros(0), np.zeros(2), np.ones(2),
                        np.array([1.0, 1.0]), 1.0)
        assert not contains(Pb, [0.6, 0.6])
        R = Polyhedron.box([-np.inf, 0.0], [np.inf, np.inf])
        assert contains(R, [-1e300, 1e300])
        for x in ([np.nan, 0.5], [np.inf, 0.5], [0.5, np.inf], [-np.inf, 0.5]):
            assert not contains(R, x)
        assert not contains(P, [np.nan])
        assert not contains(Pb, [np.nan, np.nan])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(Polyhedron.interval(0.0, 1.0), [0.1, 0.2])


class TestPolyhedron:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Polyhedron.box([1.0], [0.0])

    def test_budget_needs_limit(self):
        with pytest.raises(ValueError):
            Polyhedron(np.zeros((0, 1)), np.zeros(0), [0.0], [1.0], [1.0], None)

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
        # an eq_rhs shorter than the row count is not read as zeros
        for rhs in ([], np.zeros(0), [1.0, 1.0]):
            with pytest.raises(DimensionMismatch, match="1 rows"):
                Polyhedron(np.ones((1, 2)), rhs, np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("field, bad", [
        *((f, v) for f in ("eq_matrix", "eq_rhs", "budget_coeffs", "budget_limit")
          for v in (np.nan, np.inf, -np.inf)),
        ("lower", np.nan), ("upper", np.nan)])
    def test_rejects_non_finite_entries(self, field, bad):
        # bounds may be infinite, but not NaN
        args = {"eq_matrix": np.ones((1, 2)), "eq_rhs": np.ones(1), "lower": np.zeros(2),
                "upper": np.ones(2), "budget_coeffs": np.ones(2), "budget_limit": 1.5}
        if field == "budget_limit":
            args[field] = bad
        else:
            args[field] = args[field].copy()
            args[field].flat[0] = bad
        match = "bounds must not be NaN" if field in ("lower", "upper") else f"{field} must be finite"
        with pytest.raises(ValueError, match=match):
            Polyhedron(**args)
