import itertools

import numpy as np
import pytest

from cequil.polytope import (
    DegeneracyError,
    DimensionMismatch,
    Polyhedron,
    contains,
    frank_wolfe_min,
    project_simplex,
    solve_lp,
)


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

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            Polyhedron(np.ones((1, 2)), np.ones(1), [0.0], [1.0])
