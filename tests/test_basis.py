import hashlib
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import cequil.basis
from cequil.basis import ccp_select, min_pairwise_distance, random_basis
from cequil.game import ConvexGame, build_traffic_game
from cequil.polytope import TOL_FEAS, InfeasibleError, Polyhedron, contains
from cequil.regret import BasisSet
from cequil.tntp import parse_net

from harness import DATA, SETUPS, siouxfalls_game, spy_on, stored_basis


def null_game(action_sets):
    def cost(i, x, xm):
        return 0.0

    def grad(i, x, xm):
        return np.zeros_like(x)

    return ConvexGame(action_sets, cost, grad)


def box_vertices(lower, upper):
    corners = itertools.product(*[(lo, hi) for lo, hi in zip(lower, upper)])
    return [np.array(c, dtype=float) for c in corners]


def brute_force_best_pair(vertices):
    best = -np.inf
    for u, v in itertools.combinations(vertices, 2):
        best = max(best, float(np.abs(u - v).sum()))
    return best


class TestMinPairwiseDistance:
    def test_single_pair(self):
        b = BasisSet([[np.array([0.0])], [np.array([1.0])]])
        assert min_pairwise_distance(b) == 1.0

    def test_three_points(self):
        b = BasisSet([[np.array([0.0])], [np.array([0.4])], [np.array([1.0])]])
        assert min_pairwise_distance(b) == pytest.approx(0.4)

    def test_duplicates_give_zero(self):
        b = BasisSet([[np.array([0.3])], [np.array([0.3])], [np.array([0.9])]])
        assert min_pairwise_distance(b) == 0.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            min_pairwise_distance(BasisSet([[np.array([0.0])]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distance_raises(self, bad):
        # min() over floats kept 5.0 here: a comparison with nan is False
        b = BasisSet([[np.array([0.0, 1.0])], [np.array([bad, 1.0])], [np.array([5.0, 1.0])]])
        with pytest.raises(ValueError, match="pairwise distance is not finite"):
            min_pairwise_distance(b)


class TestRandomBasis:
    def test_deterministic(self):
        game = null_game([Polyhedron.box([0.0, 0.0], [1.0, 2.0])])
        a = random_basis(game, 4, seed=7)
        b = random_basis(game, 4, seed=7)
        for j1, j2 in zip(a.actions, b.actions):
            assert (j1[0] == j2[0]).all()

    def test_actions_feasible(self):
        E = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        P = Polyhedron(E, np.array([1.0, -1.0]), np.zeros(3), np.ones(3))
        game = null_game([P, P])
        basis = random_basis(game, 5, seed=3)
        for joint in basis.actions:
            for i, x in enumerate(joint):
                assert contains(game.action_sets[i], x)

    def test_non_integer_count_rejected(self):
        game = null_game([Polyhedron.interval(0.0, 1.0)])
        with pytest.raises(TypeError, match="N must be an integer, got 2.0"):
            random_basis(game, 2.0, seed=0)

    def test_zero_count_rejected(self):
        game = null_game([Polyhedron.interval(0.0, 1.0)])
        with pytest.raises(ValueError, match="N must be at least 1"):
            random_basis(game, 0, seed=0)

    def test_1d_interval_collapses_to_lower(self):
        # coefficients are >= 0, so every LP minimum sits at the lower bound
        game = null_game([Polyhedron.interval(0.0, 1.0)])
        basis = random_basis(game, 6, seed=11)
        for joint in basis.actions:
            assert joint[0][0] == 0.0


class TestCcpSelect:
    def test_interval_optimum(self):
        game = null_game([Polyhedron.interval(0.0, 1.0)])
        basis, trace = ccp_select(game, 2, seed=0)
        assert min_pairwise_distance(basis) == pytest.approx(1.0, abs=1e-9)
        vals = sorted(float(basis.joint(k)[0]) for k in range(2))
        assert vals == pytest.approx([0.0, 1.0])

    def test_unit_box_opposite_corners(self):
        game = null_game([Polyhedron.box([0.0, 0.0], [1.0, 1.0])])
        basis, _ = ccp_select(game, 2, seed=0)
        assert min_pairwise_distance(basis) == pytest.approx(2.0, abs=1e-9)

    def test_trace_monotone(self):
        game = null_game([Polyhedron.box([0.0, 0.0, 0.0], [1.0, 2.0, 0.5])])
        _, trace = ccp_select(game, 4, seed=1)
        objs = [o for _, o in trace.iterates]
        assert all(b >= a for a, b in zip(objs, objs[1:]))

    def test_rounding_drop_is_not_accepted(self, monkeypatch):
        # the second master LP returns the optimum moved 1e-10 inward, as
        # rounding may; the run must stop at the first LP's iterate and not
        # take the lower candidate
        game = null_game([Polyhedron.box([0.0, 0.0], [1.0, 1.0])])
        results = []

        def nudged_linprog(c, **kwargs):
            res = linprog(c, **kwargs)
            if results:
                X = res.x[:4].reshape(2, 2)
                res.x = res.x.copy()
                res.x[0] += 1e-10 * np.sign(X[1, 0] - X[0, 0])
            results.append(res.x[:4].reshape(2, 2))
            return res

        monkeypatch.setattr(cequil.basis, "linprog", nudged_linprog)
        basis, trace = ccp_select(game, 2, seed=0)
        objs = [o for _, o in trace.iterates]
        first, second = (np.abs(X[0] - X[1]).sum() for X in results[:2])
        assert first == 2.0 and 0.0 < first - second < 1e-9
        assert trace.converged and len(results) == 2
        assert objs == [0.0, 2.0]
        assert np.array_equal(np.stack([basis.joint(k) for k in range(2)]), results[0])

    def test_master_lp_failure_is_the_solvers(self, monkeypatch):
        # over nonempty boxes the master LP is feasible and bounded, so a
        # failed solve is HiGHS's: a RuntimeError with its status and
        # message, not the empty-polyhedron InfeasibleError
        def failing_linprog(c, **kwargs):
            res = linprog(c, **kwargs)
            res.success, res.status, res.message = False, 4, "Numerical difficulties."
            return res

        monkeypatch.setattr(cequil.basis, "linprog", failing_linprog)
        game = null_game([Polyhedron.box([0.0, 0.0], [1.0, 1.0])])
        with pytest.raises(RuntimeError, match=r"master LP failed \(HiGHS status 4\): "
                                               r"Numerical difficulties\.") as info:
            ccp_select(game, 2, seed=0)
        assert not isinstance(info.value, InfeasibleError)

    def test_result_dominates_initialization(self):
        game = null_game([Polyhedron.box([0.0] * 2, [1.0] * 2),
                          Polyhedron.interval(0.0, 2.0)])
        basis, trace = ccp_select(game, 3, seed=5)
        init_obj = trace.iterates[0][1]
        assert min_pairwise_distance(basis) >= init_obj - 1e-9

    @pytest.mark.parametrize("bounds", [
        ([0.0], [1.0]),
        ([0.0, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [2.0, 0.5]),
        ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
    ])
    def test_attains_brute_force_optimum_on_boxes(self, bounds):
        lower, upper = bounds
        game = null_game([Polyhedron.box(lower, upper)])
        basis, _ = ccp_select(game, 2, seed=2)
        verts = box_vertices(lower, upper)
        assert len(verts) <= 12
        assert min_pairwise_distance(basis) == pytest.approx(
            brute_force_best_pair(verts), abs=1e-8)

    def test_feasibility_preserved(self):
        E = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        P = Polyhedron(E, np.array([1.0, -1.0]), np.zeros(3), np.ones(3),
                       np.array([1.0, 2.0, 1.5]), 1.8)
        game = null_game([P])
        basis, trace = ccp_select(game, 3, seed=0)
        for b, _ in trace.iterates:
            for joint in b.actions:
                assert contains(P, joint[0])

    @pytest.mark.parametrize("kwargs, name", [({"N": 2.0}, "N"), ({"N": 2, "max_iter": 1.5}, "max_iter")])
    def test_non_integer_counts_rejected(self, kwargs, name):
        game = null_game([Polyhedron.interval(0.0, 1.0)])
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            ccp_select(game, **kwargs)

    def test_needs_two_actions(self):
        game = null_game([Polyhedron.interval(0.0, 1.0)])
        with pytest.raises(ValueError):
            ccp_select(game, 1)

    def test_no_players_rejected(self):
        # the master LP over no action sets used to fail inside numpy
        net = parse_net((DATA / "toy4_net.tntp").read_text())
        for game in (build_traffic_game(net, []), ConvexGame([], None, None)):
            with pytest.raises(ValueError, match="a joint action needs at least one player"):
                ccp_select(game, 2)

    def test_negative_max_iter_rejected(self):
        # it used to return the random start with zero iterations
        game = null_game([Polyhedron.interval(0.0, 1.0)])
        with pytest.raises(ValueError, match="max_iter must be nonnegative"):
            ccp_select(game, 2, max_iter=-1)

    def test_deterministic(self):
        game = null_game([Polyhedron.box([0.0, 0.0], [1.0, 3.0])])
        b1, _ = ccp_select(game, 3, seed=9)
        b2, _ = ccp_select(game, 3, seed=9)
        for j1, j2 in zip(b1.actions, b2.actions):
            assert (j1[0] == j2[0]).all()


@pytest.fixture(scope="module")
def siouxfalls_ccp(learn_game):
    """ccp_select on the learn game (N=3, seed 0) and every master LP it solved."""
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on(mp, cequil.basis, "linprog")
        _, trace = ccp_select(learn_game, 3, seed=0)
    return learn_game, trace, [dict(call.kwargs, c=call.args[0]) for call in calls]


class TestCcpMasterLp:
    def test_siouxfalls_objectives_pinned(self, siouxfalls_ccp):
        # bitwise: any change to the LP handed to HiGHS may move the
        # trajectory.  The dual simplex gave 97401.50078988941 and then
        # 97759.79381443298 twice.
        _, trace, calls = siouxfalls_ccp
        assert [obj for _, obj in trace.iterates] == [
            60000.00000000002, 97401.5007898894, 98100.09225092249, 98100.09225092249]
        assert len(calls) == 3
        # built once: only the cost changes between iterations
        for key in ("A_eq", "b_eq", "A_ub", "b_ub", "bounds"):
            assert all(call[key] is calls[0][key] for call in calls)

    def test_lifted_start_is_feasible_with_matching_cost(self, siouxfalls_ccp):
        # the random start lifted to the LP's columns (x, d+, d-, u, s)
        # meets every row and bound, and the first cost is linearized there
        game, _, calls = siouxfalls_ccp
        lp = calls[0]
        start = random_basis(game, 3, seed=0)
        X = np.stack([start.joint(k) for k in range(start.size)])
        pairs = list(itertools.combinations(range(start.size), 2))
        diff = np.array([X[a] - X[b] for a, b in pairs])
        u = np.abs(diff).sum(axis=1)
        s = np.max(2.0 * u.sum() - u)
        z = np.concatenate([X.ravel(), np.maximum(diff, 0.0).ravel(),
                            np.maximum(-diff, 0.0).ravel(), u, [s]])
        tol = 1e-12 * np.abs(z).max()
        assert np.abs(lp["A_eq"] @ z - lp["b_eq"]).max() <= tol
        assert np.all(lp["A_ub"] @ z <= lp["b_ub"] + tol)
        lo, hi = lp["bounds"].T
        assert np.all(lo - TOL_FEAS <= z) and np.all(z <= hi + TOL_FEAS)
        grad = np.zeros_like(X)
        for (a, b), d in zip(pairs, diff):
            sign = np.where(d >= 0.0, 1.0, -1.0)
            grad[a] += 2.0 * sign
            grad[b] -= 2.0 * sign
        assert lp["c"] @ z == pytest.approx(-grad.ravel() @ X.ravel() + s, rel=1e-12)
        assert lp["c"] @ z == pytest.approx(-min_pairwise_distance(start), rel=1e-9)


class TestProductionBases:
    # The learn and audit setups' bases (Sioux Falls at demand 3000, CCP
    # N=5 from seed 0), as ccp_select returns them with its interior-point
    # master LP: a SHA-256 over the stacked joint actions and their min
    # distance, which the benchmark reports as basis_min_dist.  The dual
    # simplex reached other vertices of the same optimal faces; the oracle
    # and learner pins run on those bases (TestStoredBases).
    SHA256 = {
        "learn": "837a16d52a1fb540a25c9cc3648e2c1d3b5ff64a50a7ab454fa7eb9139ce4b6e",
        "audit": "faae7befee25e4211eabe15ad27b407313ce10bb6d62502f0cba65ba243234e7",
    }
    MIN_DIST = {"learn": 53732.83678756477, "audit": 109326.38940007357}

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_basis_pinned(self, setup):
        game = siouxfalls_game(SETUPS[setup])
        basis, trace = ccp_select(game, 5, seed=0)
        X = np.stack([basis.joint(k) for k in range(basis.size)])
        assert hashlib.sha256(X.tobytes()).hexdigest() == self.SHA256[setup]
        assert min_pairwise_distance(basis) == self.MIN_DIST[setup]
        assert trace.iterates[-1][1] == self.MIN_DIST[setup]


class TestStoredBases:
    # The bases the oracle and learner pins of test_regret.py and
    # test_bayesopt.py run on: the learn and audit setups' CCP bases (N=5,
    # seed 0) that ccp_select returned while HiGHS's dual simplex solved its
    # master LP, saved with np.save as the stacked joint actions and read by
    # the harness.  Those pins' reference kernels are gone, so the bases are
    # test data rather than ccp_select's output: a SHA-256 over the stacked
    # joints, and their min distance.
    SHA256 = {
        "learn": "802c890da47a1ad17c484570015826f0d155bfcb11073e4671717c0556f0cdbc",
        "audit": "575ccf7d0c73024e174234a631eb49c54366f2cb24d9125c61193a8d12865d7b",
    }
    MIN_DIST = {"learn": 53732.83678756476, "audit": 109326.38940007353}

    @pytest.mark.parametrize("setup", sorted(SHA256))
    def test_basis_pinned(self, setup):
        game = siouxfalls_game(SETUPS[setup])
        dims = [P.dim for P in game.action_sets]
        basis = stored_basis(setup, game)
        X = np.stack([basis.joint(k) for k in range(basis.size)])
        assert X.shape == (5, sum(dims))
        assert hashlib.sha256(X.tobytes()).hexdigest() == self.SHA256[setup]
        basis.validate_feasible(game)
        assert min_pairwise_distance(basis) == self.MIN_DIST[setup]
