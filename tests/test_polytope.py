import hashlib
import itertools
import sys
import threading
from math import comb
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from cequil import polytope
from cequil.basis import random_basis
from cequil.game import PlayerSpec, build_traffic_game
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
def siouxfalls_game():
    net = parse_net((DATA / "siouxfalls_net.tntp").read_text())
    players = [PlayerSpec(o, d, 3000.0) for o, d in ((1, 20), (13, 8), (7, 24))]
    return build_traffic_game(net, players)


@pytest.fixture(scope="module")
def siouxfalls_sets(siouxfalls_game):
    return siouxfalls_game.action_sets


def free_column_chains(seed=5, count=40, length=10):
    """``count`` random polyhedra whose columns are boxed, bounded on one
    side or free, each with ``length`` random costs: (P, costs) pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        A = rng.normal(size=(m, n))
        kind = rng.integers(0, 4, size=n)  # box, lower only, upper only, free
        lo = np.where(kind <= 1, -1.0, -np.inf)
        hi = np.where(kind % 2 == 0, 1.0, np.inf)
        P = Polyhedron(A, A @ rng.uniform(-1.0, 1.0, n), lo, hi)
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
    """(name, polyhedron) pairs whose budget LP does not exist or has no
    optimum: a box, a simplex, a flow polytope without its budget row, a
    budget LP that is unbounded and one that is infeasible."""
    P = siouxfalls_sets[2]
    return [
        ("box", Polyhedron.box([0.0, -1.0, 0.5], [1.0, 2.0, 0.5])),
        ("simplex", Polyhedron.simplex(4)),
        ("no budget row", Polyhedron(P.eq_matrix, P.eq_rhs, P.lower, P.upper)),
        # x0 = x1 may grow without bound, and the budget row rewards it
        ("unbounded", Polyhedron(np.array([[1.0, -1.0, 0.0]]), np.zeros(1), np.zeros(3),
                                 np.array([np.inf, np.inf, 2.0]), np.array([-1.0, 0.0, 1.0]),
                                 1.5)),
        ("infeasible", Polyhedron(np.zeros((0, 1)), np.zeros(0), [0.0], [1.0], [1.0], -1.0)),
    ]


class TestNominalStart:
    # Frank-Wolfe's bytes on the polyhedra without a nominal start, captured
    # when every Frank-Wolfe LP chain started from the phase-1 basis.
    NO_NOMINAL_SHA256 = "9fb8f8d96485401bdfd0881fcdb36c10eaf775fea4802ada716956e9df227552"

    def test_objective_matches_highs(self, siouxfalls_sets):
        for P in siouxfalls_sets:
            nominal = P._nominal
            assert nominal.status == "optimal"
            ref = highs_objective(P.budget_coeffs, P)
            assert abs(nominal.objective - ref) <= 1e-9 * abs(ref)
            assert nominal.objective == float(P.budget_coeffs @ nominal.point)
            assert nominal._final_basis[0] is P._lp_start
            for arr in (nominal.point, *nominal._final_basis[1][:4]):
                assert not arr.flags.writeable

    def test_is_the_budgeted_game_nominal_cost(self, siouxfalls_game):
        # a player's budget row is its free-flow cost, so its minimum is
        # delta_i, the min-cost routing without the budget row
        for P, delta in zip(siouxfalls_game.action_sets, siouxfalls_game.deltas):
            assert P._nominal.objective == pytest.approx(delta, rel=1e-12)

    def test_none_without_a_budget_optimum(self, siouxfalls_sets):
        for name, P in polyhedra_without_nominal(siouxfalls_sets):
            assert P._nominal is None, name
        statuses = {name: solve_lp(P.budget_coeffs, P).status
                    for name, P in polyhedra_without_nominal(siouxfalls_sets)
                    if P.budget_coeffs is not None}
        assert statuses == {"unbounded": "unbounded", "infeasible": "infeasible"}

    def test_first_lp_continues_the_nominal_start(self, siouxfalls_game, monkeypatch):
        warms = []

        def recording(c, poly, warm=None):
            warms.append(warm)
            return solve_lp(c, poly, warm)

        monkeypatch.setattr(polytope, "solve_lp", recording)
        P = siouxfalls_game.action_sets[0]
        frank_wolfe_min(bpr_objective(siouxfalls_game), P, tol_gap=1e-9, max_iter=3)
        assert warms[0] is P._nominal
        warms.clear()
        frank_wolfe_min(lambda y: (0.5 * float(y @ y), y), Polyhedron.simplex(3),
                        tol_gap=1e-9, max_iter=3)
        assert warms[0] is None

    def test_frank_wolfe_unchanged_without_nominal(self, siouxfalls_game, siouxfalls_sets):
        digest = hashlib.sha256()
        for name, P in polyhedra_without_nominal(siouxfalls_sets)[:3]:
            if name == "no budget row":
                fun = bpr_objective(siouxfalls_game)
            else:
                target = {"box": [0.3, 0.4, 0.9], "simplex": [0.1, 0.25, 0.3, 0.45]}[name]

                def fun(y, t=np.array(target)):
                    return 0.25 * float(np.sum((y - t) ** 4)), (y - t) ** 3

            res = frank_wolfe_min(fun, P, tol_gap=1e-12, max_iter=200)
            digest.update(res.point.tobytes())
            digest.update(np.array([res.value, res.gap, res.iterations]).tobytes())
        assert digest.hexdigest() == self.NO_NOMINAL_SHA256

    def test_pure_function_of_the_inputs(self, siouxfalls_game, siouxfalls_sets):
        fun = bpr_objective(siouxfalls_game)
        P = fresh(siouxfalls_sets[2])

        def run(poly):
            res = frank_wolfe_min(fun, poly, tol_gap=1e-12, max_iter=200)
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
        # from the optimum of a nearby cost a warm start skips most pivots;
        # with no refactorization due, a phase's pivots are the rise of its
        # since_refresh count
        pivots = []
        simplex = polytope._simplex_phase_np

        def counting(*args):
            status, since_refresh = simplex(*args)
            pivots.append(since_refresh - args[-1])
            return status, since_refresh

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

    def test_free_columns_warm_chain_match_highs(self):
        for P, costs in free_column_chains():
            prev = None
            for c in costs:
                got = solve_lp(c, P, warm=prev)
                ref = linprog(c, A_eq=P.eq_matrix, b_eq=P.eq_rhs,
                              bounds=np.column_stack([P.lower, P.upper]), method="highs")
                assert got.status == HIGHS_STATUS[ref.status], ref.message
                if got.status == "optimal":
                    assert contains(P, got.point, 1e-7)
                    assert abs(got.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
                    prev = got

    # SHA-256 over the status and vertex of a cold and a warm solve_lp per
    # cost of free_column_chains(), the warm chain continuing its last
    # optimal solution; captured from the kernel that kept a per-variable
    # state code next to the pricing mask and priced free columns by it
    FREE_SHA256 = "1d4c8e28fc8d7beca502f449a96658cad0ebec7f0b3ba9a445792a3f78922caf"

    def test_free_columns_bytes_pinned(self):
        digest = hashlib.sha256()
        for P, costs in free_column_chains():
            prev = None
            for c in costs:
                cold, warm = solve_lp(c, P), solve_lp(c, P, warm=prev)
                for sol in (cold, warm):
                    digest.update(sol.status.encode())
                    if sol.status == "optimal":
                        digest.update(sol.point.tobytes())
                if warm.status == "optimal":
                    prev = warm
        assert digest.hexdigest() == self.FREE_SHA256

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


def assert_mask_matches_vertex(start, state):
    """``state.dirmask`` is -1 on the nonbasic columns at a lower bound
    below their upper bound, +1 on those at their upper bound and 0 on the
    basic, fixed and free columns; every other nonbasic column sits on a
    bound, and a free one at zero."""
    lo, hi = np.array(start[3]), np.array(start[4])
    x = state.x
    nonbasic = np.ones(x.size, dtype=bool)
    nonbasic[state.basis] = False
    fixed, free = lo == hi, np.isneginf(lo) & np.isposinf(hi)
    at_lo = nonbasic & ~fixed & (x == lo)
    at_hi = nonbasic & ~fixed & (x == hi)
    assert state.dirmask.tolist() == np.where(at_lo, -1.0, np.where(at_hi, 1.0, 0.0)).tolist()
    assert np.all(at_lo | at_hi | ~nonbasic | fixed | (free & (x == 0.0)))


class TestCarriedChain:
    # a warm call continues the simplex state the warm solution ended with:
    # its vertex, basis inverse, pricing mask and pivots since the last
    # refactorization

    def test_one_warm_start_serves_two_calls_unchanged(self, siouxfalls_sets):
        P = fresh(siouxfalls_sets[0])
        rng = np.random.default_rng(7)
        warm = solve_lp(rng.uniform(1.0, 2.0, P.dim), P)
        warm = solve_lp(rng.uniform(1.0, 2.0, P.dim), P, warm=warm)
        state = warm._final_basis[1]
        held = [state.x, state.basis, state.binv, state.dirmask]
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
        # call: Sioux Falls warm chains, then cold and warm free-column LPs
        rng = np.random.default_rng(10)
        for P in siouxfalls_sets:
            P = fresh(P)
            assert_mask_matches_vertex(P._lp_start, P._lp_start[-1])
            c = rng.uniform(1.0, 2.0, P.dim)
            prev = None
            for _ in range(100):
                c = c * (1.0 + 0.2 * rng.normal(size=P.dim))
                prev = solve_lp(c, P, warm=prev)
                assert_mask_matches_vertex(*prev._final_basis)
        for P, costs in free_column_chains():
            assert_mask_matches_vertex(P._lp_start, P._lp_start[-1])
            prev = None
            for c in costs:
                for sol in (solve_lp(c, P), solve_lp(c, P, warm=prev)):
                    if sol.status == "optimal":
                        assert_mask_matches_vertex(*sol._final_basis)
                        prev = sol

    def test_refactorization_period_spans_the_chain(self, siouxfalls_sets, monkeypatch):
        # the pivot count carries over from call to call, so a chain of
        # warm calls with a pivot or two each is still refactorized
        inverses = []
        inv = np.linalg.inv

        def counting(M):
            inverses.append(1)
            return inv(M)

        monkeypatch.setattr(polytope, "_REFACTOR_EVERY", 2)
        P = fresh(siouxfalls_sets[1])
        rng = np.random.default_rng(8)
        c = rng.uniform(1.0, 2.0, P.dim)
        prev = solve_lp(c, P)
        for _ in range(30):
            c = c * (1.0 + 0.05 * rng.normal(size=P.dim))
            monkeypatch.setattr(np.linalg, "inv", counting)
            sol = solve_lp(c, P, warm=prev)
            monkeypatch.setattr(np.linalg, "inv", inv)
            cold = solve_lp(c, P)
            assert sol.status == "optimal" and contains(P, sol.point)
            assert sol._final_basis[1].since_refresh < 2
            scale = 1.0 + np.abs(c).sum() * np.abs(sol.point).max()
            assert abs(sol.objective - cold.objective) <= 1e-9 * scale
            prev = sol
        assert inverses

    def test_oracles_fed_opposite_orders_agree_bitwise(self, siouxfalls_game):
        weights = np.random.default_rng(9).dirichlet(np.full(5, 0.3), size=6)
        basis = random_basis(siouxfalls_game, 5, seed=0)
        forward = [RegretOracle(siouxfalls_game, basis).report(w) for w in weights]
        oracle = RegretOracle(siouxfalls_game, basis)
        backward = [oracle.report(w) for w in weights[::-1]][::-1]
        for a, b in zip(forward, backward):
            assert a.per_player.tobytes() == b.per_player.tobytes()
            assert a.fw_gaps.tobytes() == b.fw_gaps.tobytes()
            assert a.upper.tobytes() == b.upper.tobytes()
            assert [y.tobytes() for y in a.best_responses] \
                == [y.tobytes() for y in b.best_responses]


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


def array_ratio_test(step_b, xb, lo_b, hi_b, basis, bland):
    """The simplex's ratio test as it ran on numpy arrays over every basic
    row, kept as the reference for the Python-float ``_ratio_test``.  The
    leaving row is picked only when ``t_basic`` is finite and below the
    entering variable's own bound distance, so ``t_star`` is ``t_basic``
    there; the reference returns -1 otherwise."""
    _RATIO_TOL = polytope._RATIO_TOL
    tgt = np.where(step_b > 0.0, hi_b, lo_b)
    small = np.abs(step_b) <= _RATIO_TOL
    denom = np.where(small, 1.0, step_b)
    ratios = np.where(small, np.inf, (tgt - xb) / denom)
    np.maximum(ratios, 0.0, out=ratios)

    t_basic = float(ratios.min(initial=np.inf))
    if not np.isfinite(t_basic):
        return t_basic, -1
    t_star = t_basic

    cand = np.flatnonzero(ratios <= t_star + _RATIO_TOL)
    if bland:
        leave = int(cand[np.argmin(basis[cand])])
    else:
        leave = int(cand[np.argmax(np.abs(step_b[cand]))])
    return t_basic, leave


class TestRatioTest:
    # _ratio_test must pick the same t_basic, to the byte, and the same
    # leaving row as the array form it replaced

    @staticmethod
    def assert_matches(step, xb, lo, hi, basis):
        args = [np.asarray(a, dtype=float) for a in (step, xb, lo, hi)]
        basis = np.asarray(basis)
        for bland in (False, True):
            want = array_ratio_test(*args, basis, bland)
            got = polytope._ratio_test(*(a.tolist() for a in args), basis.tolist(), bland)
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[1] == want[1]

    def test_random_rows(self):
        rng = np.random.default_rng(12)
        tol = polytope._RATIO_TOL
        for _ in range(3000):
            m = int(rng.integers(1, 30))
            basis = rng.permutation(m + int(rng.integers(0, 40)))[:m]
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
            self.assert_matches(step, xb, lo, hi, basis)

    def test_degenerate_rows(self):
        tol = polytope._RATIO_TOL
        inf = np.inf
        cases = [
            # on its lower bound, moving down: the ratio is -0.0 before the clamp
            ([-1.0], [0.0], [0.0], [1.0], [4]),
            ([2.0, -1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [7, 3]),
            ([-1.0, 2.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [7, 3]),
            # slightly past a bound: a negative ratio clamps to zero
            ([-1.0, 1.0], [-1e-13, 0.5], [0.0, 0.0], [1.0, 1.0], [0, 1]),
            # steps at, inside and just outside the tolerance
            ([0.0, tol, -tol, 0.5 * tol, np.nextafter(tol, 1.0), -np.nextafter(tol, 1.0)],
             [0.5] * 6, [0.0] * 6, [1.0] * 6, [5, 4, 3, 2, 1, 0]),
            ([0.0, tol, -tol], [0.5] * 3, [0.0] * 3, [1.0] * 3, [0, 1, 2]),
            # every moving row heads for an infinite bound
            ([1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, -inf, 0.0], [inf, 0.0, 1.0], [0, 1, 2]),
            ([1.0, -2.0], [3.0, -1.0], [-inf, -inf], [inf, inf], [1, 0]),
            # ties in |step| among degenerate rows: first row, or least column
            ([1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0, 0.0], [0.0] * 4, [1.0] * 4, [9, 2, 5, 1]),
            ([-1.0, 1.0, -1.0], [0.0, 1.0, 0.0], [0.0] * 3, [1.0, 1.0, 2.0], [3, 8, 6]),
            # ratios within the tolerance of the least tie as candidates
            ([1.0, 2.0, 4.0], [1.0 - 0.5 * tol, 1.0, 1.0 - 4.0 * tol], [0.0] * 3, [1.0] * 3,
             [0, 1, 2]),
            # fixed rows (lo == hi) and a mix of everything
            ([1.0, -1.0, 1e-11, 3.0], [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, -inf],
             [0.0, 0.0, 0.0, inf], [10, 11, 12, 0]),
        ]
        for case in cases:
            self.assert_matches(*case)


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


class TestDualBound:
    # _dual_bound bounds min c.x from below by weak duality from whichever
    # basis the simplex stopped at; HiGHS gives the reference optimum

    def test_equals_the_optimum(self, siouxfalls_sets):
        # budget rows on Sioux Falls; free and half-bounded columns on the
        # random polyhedra
        rng = np.random.default_rng(3)
        cases = [(P, rng.uniform(-0.2, 1.0, P.dim)) for P in siouxfalls_sets for _ in range(20)]
        cases += [(P, c) for P, costs in free_column_chains(count=20, length=5) for c in costs]
        optimal = 0
        for P, c in cases:
            sol = solve_lp(c, P)
            if sol.status == "optimal":
                optimal += 1
                f = highs_objective(c, P)
                assert polytope._dual_bound(c, sol) == pytest.approx(f, abs=1e-9 * (1.0 + abs(f)))
        assert optimal == 60 + 55  # the rest are unbounded

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

            res = frank_wolfe_min(fun, Polyhedron.simplex(5), tol_gap=1e-9, max_iter=500)
            assert res.bound <= f_star + 1e-12
            assert res.bound <= res.value - max(res.gap, 0.0) + 1e-12
            overstated += res.value - max(res.gap, 0.0) > f_star + 1e-9
        assert (overstated > 0) == loose

    def test_nonconvergence_reports_gap(self):
        # a quartic with an interior minimizer on the simplex cannot be
        # certified to 1e-30 in two steps: the result reports the gap
        # instead of raising
        target = np.array([0.2, 0.3, 0.5])

        def fun(y):
            return 0.25 * float(np.sum((y - target) ** 4)), (y - target) ** 3

        res = frank_wolfe_min(fun, Polyhedron.simplex(3), tol_gap=1e-30, max_iter=2)
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

        res = frank_wolfe_min(fun, Polyhedron.interval(0.0, 1.0), tol_gap=1e-9, max_iter=200)
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

    def test_one_lp_per_iteration(self, monkeypatch):
        # the start is the polyhedron's phase-1 vertex, not a zero-cost LP
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        target = np.array([0.2, 0.3, 0.5])
        monkeypatch.setattr(polytope, "solve_lp", counting)
        res = frank_wolfe_min(lambda y: (0.5 * float((y - target) @ (y - target)), y - target),
                              Polyhedron.simplex(3), tol_gap=1e-9)
        assert res.converged
        assert len(calls) == res.iterations

    def test_empty_polyhedron_raises(self):
        empty = Polyhedron(np.ones((1, 2)), [3.0], np.zeros(2), np.ones(2))
        with pytest.raises(InfeasibleError):
            frank_wolfe_min(lambda y: (0.0, np.zeros(2)), empty, tol_gap=1e-9)

    def test_unbounded_polyhedron_rejected(self):
        # the linear oracle is unbounded, which is not an empty set
        with pytest.raises(ValueError, match="polyhedron must be bounded"):
            frank_wolfe_min(lambda y: (-float(y[0]), -np.ones(1)),
                            Polyhedron.box([0.0], [np.inf]), tol_gap=1e-9)

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

    def test_non_integer_max_iter_rejected(self):
        def fun(y):
            raise AssertionError("no iteration may run")

        with pytest.raises(TypeError, match="max_iter must be an integer, got 2.5"):
            frank_wolfe_min(fun, Polyhedron.simplex(3), tol_gap=1e-9, max_iter=2.5)

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

    @pytest.mark.parametrize("tol", [np.nan, -1e-9, -np.inf])
    def test_bad_tol_rejected(self, tol):
        # every comparison with a NaN tolerance is false, so any point passed
        with pytest.raises(ValueError, match="tol must be >= 0"):
            contains(Polyhedron.simplex(2), [5.0, -3.0], tol=tol)


class TestPolyhedron:
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
