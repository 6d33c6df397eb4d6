import hashlib

import numpy as np
import pytest

from cequil import polytope, regret
from cequil.basis import random_basis
from cequil.game import ConvexGame, PlayerSpec, build_traffic_game, player_cost_gradient
from cequil.polytope import Polyhedron
from cequil.regret import BasisSet, RegretOracle, RegretReport, validate_weights, verify_ce
from cequil.tntp import parse_net

from harness import DATA, LEARN_PLAYERS, audit_stream, highs, siouxfalls_game, spy_on


def quadratic_game():
    """Two players on [0,1], each with cost (x_i - x_other)^2."""

    def cost(i, x_i, x_minus_i):
        return float((x_i[0] - x_minus_i[0][0]) ** 2)

    def grad(i, x_i, x_minus_i):
        return np.array([2.0 * (x_i[0] - x_minus_i[0][0])])

    sets = [Polyhedron.interval(0.0, 1.0), Polyhedron.interval(0.0, 1.0)]
    return ConvexGame(sets, cost, grad)


def diag_basis():
    return BasisSet([[np.array([0.0]), np.array([0.0])],
                     [np.array([1.0]), np.array([1.0])]])


def grid_best_response(game, i, w, basis, resolution=1e-3):
    """Independent oracle: exhaustive grid search over deviations."""
    lo = game.action_sets[i].lower[0]
    hi = game.action_sets[i].upper[0]
    ys = np.arange(lo, hi + resolution / 2, resolution)
    m = basis.num_players
    best = np.inf
    for y in ys:
        total = 0.0
        for wk, joint in zip(w, basis.actions):
            others = [joint[p] for p in range(m) if p != i]
            total += wk * game.cost(i, np.array([y]), others)
        best = min(best, total)
    return best


def expected_cost(oracle, i, w):
    """Player i's expected cost of following recommendations drawn with w."""
    return float(oracle.atom_costs[i] @ validate_weights(w, oracle.basis.size))


def deviation(oracle, i, w):
    """(value, minimizer, gap) of player i's best constant deviation at w,
    read off one report: the value is the expected cost minus the regret."""
    rep = oracle.report(w)
    value = expected_cost(oracle, i, w) - rep.per_player[i]
    return value, rep.best_responses[i], rep.fw_gaps[i]


class TestWeights:
    def test_validate(self):
        w = validate_weights([0.25, 0.75], 2)
        assert w.sum() == 1.0
        with pytest.raises(ValueError):
            validate_weights([0.5, 0.2], 2)
        with pytest.raises(ValueError):
            validate_weights([1.5, -0.5], 2)
        with pytest.raises(ValueError, match="weight vector has length 1, expected 2"):
            validate_weights([1.0], 2)
        for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.5, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                validate_weights(bad, 2)
        for bad, n in ((np.full((2, 2), 0.25), 4), ([[0.5, 0.5]], 2), (1.0, 1)):
            with pytest.raises(ValueError, match=r"must be a vector, got shape \("):
                validate_weights(bad, n)


class TestBasisSet:
    def test_invariants(self):
        with pytest.raises(ValueError):
            BasisSet([])
        with pytest.raises(ValueError):
            BasisSet([[np.zeros(2)], [np.zeros(3)]])
        with pytest.raises(ValueError, match="inconsistent player count"):
            BasisSet([[np.zeros(1), np.zeros(1)], [np.zeros(1)]])
        b = diag_basis()
        assert b.size == 2 and b.num_players == 2
        assert np.array_equal(b.joint(1), [1.0, 1.0])

    def test_feasibility_check(self):
        game = quadratic_game()
        diag_basis().validate_feasible(game)
        bad = BasisSet([[np.array([2.0]), np.array([0.0])]])
        with pytest.raises(ValueError):
            bad.validate_feasible(game)
        nan = BasisSet([[np.array([0.0]), np.array([np.nan])]])
        with pytest.raises(ValueError, match="player 1 is infeasible"):
            RegretOracle(game, nan)

    def test_actions_must_be_vectors(self):
        # 2 x 2 actions built, and min_pairwise_distance read their l1
        # distance of 4 as 2
        with pytest.raises(ValueError, match=r"joint action 0, player 0: .* shape \(2, 2\)"):
            BasisSet([[np.zeros((2, 2))], [np.ones((2, 2))]])
        with pytest.raises(ValueError, match=r"joint action 0, player 1: .* shape \(\)"):
            BasisSet([[np.zeros(1), 0.5]])

    def test_joint_action_needs_a_player(self):
        with pytest.raises(ValueError, match="at least one player"):
            BasisSet([[]])

    def test_convex_game_has_one_player_per_action_set(self):
        def cost(i, x_i, x_minus_i):
            return float(x_i[0] * sum(x[0] for x in x_minus_i))

        def grad(i, x_i, x_minus_i):
            return np.array([sum(x[0] for x in x_minus_i)])

        game = ConvexGame([Polyhedron.interval(0.0, 1.0)] * 3, cost, grad)
        assert game.num_players == 3
        basis = BasisSet([[np.array([0.5])] * 3])
        assert RegretOracle(game, basis).report([1.0]).per_player.shape == (3,)

    @pytest.mark.parametrize("players", [1, 3])
    def test_player_count_must_match_the_game(self, players):
        # with one player too few, player 0's regret would leave out player
        # 1's flow; with one too many, the action sets run out
        net = parse_net((DATA / "toy4_net.tntp").read_text())
        game = build_traffic_game(net, [PlayerSpec(1, 4, 1.0)] * 2)
        route = np.array([1.0, 1.0, 0.0, 0.0])
        basis = BasisSet([[route] * players])
        with pytest.raises(ValueError, match=f"basis has {players} players, the game has 2"):
            basis.validate_feasible(game)
        with pytest.raises(ValueError, match=f"basis has {players} players"):
            RegretOracle(game, basis)

    def test_actions_are_read_only_copies(self):
        game = quadratic_game()
        a0, a1 = np.array([0.0]), np.array([0.0])
        basis = BasisSet([[a0, a1]])
        oracle = RegretOracle(game, basis)
        a0[0] = 0.9  # the caller's array stays writable
        assert basis.actions[0][0][0] == 0.0
        assert oracle.atom_costs.tolist() == RegretOracle(game, basis).atom_costs.tolist()
        with pytest.raises(ValueError):
            basis.actions[0][1][0] = 0.5
        with pytest.raises(TypeError):
            basis.actions[0][0] = np.array([0.9])


class TestExpectedCost:
    def test_dirac(self):
        game = quadratic_game()
        basis = diag_basis()
        assert expected_cost(RegretOracle(game, basis), 0, [1.0, 0.0]) == pytest.approx(0.0)
        off = BasisSet([[np.array([1.0]), np.array([0.0])]])
        assert expected_cost(RegretOracle(game, off), 0, [1.0]) == pytest.approx(1.0)

    def test_identical_atoms(self):
        game = quadratic_game()
        two = BasisSet([[np.array([0.3]), np.array([0.8])],
                        [np.array([0.3]), np.array([0.8])]])
        oracle = RegretOracle(game, two)
        atom = expected_cost(oracle, 0, [1.0, 0.0])
        assert expected_cost(oracle, 0, [0.5, 0.5]) == pytest.approx(atom)

    def test_toy_mixture_zero(self):
        game = quadratic_game()
        assert expected_cost(RegretOracle(game, diag_basis()), 0, [0.5, 0.5]) \
            == pytest.approx(0.0)

    def test_linearity_in_w(self):
        game = quadratic_game()
        basis = BasisSet([[np.array([0.1]), np.array([0.9])],
                          [np.array([0.7]), np.array([0.2])],
                          [np.array([0.4]), np.array([0.5])]])
        oracle = RegretOracle(game, basis)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w1 = rng.dirichlet(np.ones(3))
            w2 = rng.dirichlet(np.ones(3))
            alpha = float(rng.uniform())
            mix = alpha * w1 + (1 - alpha) * w2
            lhs = expected_cost(oracle, 0, mix)
            rhs = alpha * expected_cost(oracle, 0, w1) \
                + (1 - alpha) * expected_cost(oracle, 0, w2)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestBestResponse:
    def test_toy_half(self):
        game = quadratic_game()
        value, y_star, gap = deviation(RegretOracle(game, diag_basis()), 0, [0.5, 0.5])
        assert value == pytest.approx(0.25, abs=1e-8)
        assert y_star[0] == pytest.approx(0.5, abs=1e-6)

    def test_single_scenario(self):
        game = quadratic_game()
        basis = diag_basis()
        value, y_star, _ = deviation(RegretOracle(game, basis), 0, [0.0, 1.0])
        assert value == pytest.approx(0.0, abs=1e-10)
        assert y_star[0] == pytest.approx(1.0, abs=1e-6)

    def test_singleton_action_set(self):
        def cost(i, x_i, x_minus_i):
            return float((x_i[0] - 0.7) ** 2)

        def grad(i, x_i, x_minus_i):
            return np.array([2.0 * (x_i[0] - 0.7)])

        game = ConvexGame([Polyhedron.box([0.0], [0.0])], cost, grad)
        basis = BasisSet([[np.array([0.0])]])
        value, y_star, gap = deviation(RegretOracle(game, basis), 0, [1.0])
        assert y_star[0] == 0.0
        assert value == pytest.approx(0.49)
        assert gap == 0.0

    def test_concavity_in_w(self):
        game = quadratic_game()
        basis = BasisSet([[np.array([0.0]), np.array([0.1])],
                          [np.array([1.0]), np.array([0.8])],
                          [np.array([0.5]), np.array([0.4])]])
        oracle = RegretOracle(game, basis, tol_gap=1e-10)
        rng = np.random.default_rng(1)
        for _ in range(15):
            w1 = rng.dirichlet(np.ones(3))
            w2 = rng.dirichlet(np.ones(3))
            mid = 0.5 * w1 + 0.5 * w2
            v1 = deviation(oracle, 0, w1)[0]
            v2 = deviation(oracle, 0, w2)[0]
            vm = deviation(oracle, 0, mid)[0]
            assert vm >= 0.5 * v1 + 0.5 * v2 - 1e-7


class TestCorrelatedRegret:
    def test_toy_negative_quarter(self):
        game = quadratic_game()
        r = RegretOracle(game, diag_basis()).report([0.5, 0.5]).per_player[0]
        assert r == pytest.approx(-0.25, abs=1e-7)

    def test_dirac_at_best_response_is_zero(self):
        game = quadratic_game()
        # at (t, t) each player's recommended action already best-responds
        basis = BasisSet([[np.array([0.4]), np.array([0.4])]])
        r = RegretOracle(game, basis, tol_gap=1e-9).report([1.0]).per_player[0]
        assert abs(r) <= 2e-9

    def test_common_recommendation_nonnegative(self):
        game = quadratic_game()
        rng = np.random.default_rng(2)
        for _ in range(10):
            x_common = float(rng.uniform())
            basis = BasisSet([
                [np.array([x_common]), np.array([float(rng.uniform())])]
                for _ in range(3)
            ])
            w = rng.dirichlet(np.ones(3))
            tol = 1e-8
            r = RegretOracle(game, basis, tol_gap=tol).report(w).per_player[0]
            assert r >= -tol

    def test_convexity_in_w(self):
        game = quadratic_game()
        basis = BasisSet([[np.array([0.0]), np.array([0.2])],
                          [np.array([0.9]), np.array([0.6])],
                          [np.array([0.3]), np.array([1.0])]])
        oracle = RegretOracle(game, basis, tol_gap=1e-10)
        rng = np.random.default_rng(3)

        def regret(w):
            rep = oracle.report(w)
            return rep.per_player[0]

        for _ in range(15):
            w1 = rng.dirichlet(np.ones(3))
            w2 = rng.dirichlet(np.ones(3))
            mid = 0.5 * w1 + 0.5 * w2
            assert regret(mid) <= 0.5 * regret(w1) + 0.5 * regret(w2) + 1e-7

    def test_grid_oracle_equivalence(self):
        rng = np.random.default_rng(4)
        for trial in range(6):
            # random 1-d two-player games: f_i = q_i (x_i - c_i x_other - d_i)^2
            q = rng.uniform(0.5, 2.0, 2)
            c = rng.uniform(-1.0, 1.0, 2)
            d = rng.uniform(-0.3, 0.3, 2)

            def cost(i, x_i, x_minus_i):
                return float(q[i] * (x_i[0] - c[i] * x_minus_i[0][0] - d[i]) ** 2)

            def grad(i, x_i, x_minus_i):
                return np.array([2.0 * q[i] * (x_i[0] - c[i] * x_minus_i[0][0] - d[i])])

            game = ConvexGame([Polyhedron.interval(0.0, 1.0)] * 2, cost, grad)
            basis = BasisSet([
                [np.array([float(rng.uniform())]), np.array([float(rng.uniform())])]
                for _ in range(3)
            ])
            w = rng.dirichlet(np.ones(3))
            oracle = RegretOracle(game, basis, tol_gap=1e-9)
            for i in range(2):
                exact = oracle.report(w).per_player[i]
                brute = expected_cost(oracle, i, w) - grid_best_response(game, i, w, basis)
                assert exact == pytest.approx(brute, abs=1e-3)


def exp_game():
    """Two players on [0,1]: cost exp(12 x_i) - 30 x_i (1 + x_other), convex
    and steep in the own action, without a line polynomial."""

    def cost(i, x_i, x_minus_i):
        return float(np.exp(12.0 * x_i[0]) - 30.0 * x_i[0] * (1.0 + x_minus_i[0][0]))

    def grad(i, x_i, x_minus_i):
        return np.array([12.0 * np.exp(12.0 * x_i[0]) - 30.0 * (1.0 + x_minus_i[0][0])])

    sets = [Polyhedron.interval(0.0, 1.0), Polyhedron.interval(0.0, 1.0)]
    return ConvexGame(sets, cost, grad)


class TestGenericBranch:
    def test_steep_costs_match_a_fine_grid(self):
        # the deviation objective sum_k w_k f_i(y, x^k_-i) on a grid of step
        # 1e-6; its curvature is below 1e4, so the grid minimum is within
        # 1e-8 of the true one
        game = exp_game()
        basis = BasisSet([[np.array([0.1]), np.array([0.7])],
                          [np.array([0.5]), np.array([0.2])],
                          [np.array([0.9]), np.array([0.4])]])
        w = np.array([0.2, 0.5, 0.3])
        oracle = RegretOracle(game, basis)
        rep = oracle.report(w)
        ys = np.linspace(0.0, 1.0, 1_000_001)
        for i in range(2):
            opp = np.array([joint[1 - i][0] for joint in basis.actions])
            grid = np.min(np.exp(12.0 * ys) - 30.0 * ys * (1.0 + w @ opp))
            value = expected_cost(oracle, i, w) - rep.per_player[i]
            assert 0.0 <= rep.fw_gaps[i] <= 1e-6 * max(1.0, abs(expected_cost(oracle, i, w)))
            assert value == pytest.approx(grid, abs=1e-8)


class TestRegretReport:
    def test_single_player_average(self):
        def cost(i, x_i, x_minus_i):
            return float((x_i[0] - 0.2) ** 2)

        def grad(i, x_i, x_minus_i):
            return np.array([2.0 * (x_i[0] - 0.2)])

        game = ConvexGame([Polyhedron.interval(0.0, 1.0)], cost, grad)
        basis = BasisSet([[np.array([0.9])]])
        rep = RegretOracle(game, basis).report([1.0])
        assert rep.average == rep.per_player[0]

    def test_toy_report(self):
        game = quadratic_game()
        rep = RegretOracle(game, diag_basis()).report([0.5, 0.5])
        assert rep.per_player[0] == pytest.approx(-0.25, abs=1e-7)
        assert rep.per_player[1] == pytest.approx(-0.25, abs=1e-7)
        assert rep.average == pytest.approx(np.mean(rep.per_player), abs=1e-12)

    def test_bitwise_determinism(self):
        game = quadratic_game()
        basis = diag_basis()
        oracle = RegretOracle(game, basis)
        a = oracle.report([0.3, 0.7])
        for b in (oracle.report([0.3, 0.7]), RegretOracle(game, basis).report([0.3, 0.7])):
            assert (a.per_player == b.per_player).all()
            assert a.average == b.average
            assert all((x == y).all() for x, y in zip(a.best_responses, b.best_responses))

    def test_mutating_a_report_leaves_the_next_intact(self):
        game = quadratic_game()
        oracle = RegretOracle(game, diag_basis())
        first = oracle.report([0.5, 0.5])
        first.per_player[:] = 123.0
        first.fw_gaps[:] = 123.0
        first.upper[:] = 123.0
        first.best_responses[0][:] = 123.0
        again = oracle.report([0.5, 0.5])
        fresh = RegretOracle(game, diag_basis()).report([0.5, 0.5])
        assert again.per_player.tobytes() == fresh.per_player.tobytes()
        assert again.fw_gaps.tobytes() == fresh.fw_gaps.tobytes()
        assert again.upper.tobytes() == fresh.upper.tobytes()
        assert [y.tobytes() for y in again.best_responses] \
            == [y.tobytes() for y in fresh.best_responses]


class TestVerifyCe:
    def test_nash_dirac_is_equilibrium(self):
        game = quadratic_game()
        # alternating best response from 0.3 converges immediately to (t, t)
        t = 0.3
        basis = BasisSet([[np.array([t]), np.array([t])]])
        verdict = verify_ce(RegretOracle(game, basis).report([1.0]), tol=1e-6)
        assert verdict.is_equilibrium

    def test_diagonal_mixture_is_equilibrium(self):
        game = quadratic_game()
        verdict = verify_ce(RegretOracle(game, diag_basis()).report([0.5, 0.5]), tol=1e-6)
        assert verdict.is_equilibrium
        assert verdict.worst_regret <= 0.0

    def test_non_equilibrium_dirac(self):
        game = quadratic_game()
        basis = BasisSet([[np.array([0.9]), np.array([0.1])]])
        verdict = verify_ce(RegretOracle(game, basis).report([1.0]), tol=1e-6)
        assert not verdict.is_equilibrium
        assert verdict.worst_regret > 0.0
        # confirm the profitable deviation with the grid oracle
        i = verdict.worst_player
        brute = expected_cost(RegretOracle(game, basis), i, [1.0]) \
            - grid_best_response(game, i, [1.0], basis)
        assert brute > 1e-3
        assert verdict.worst_regret == pytest.approx(brute, abs=1e-3)

    def test_single_atom_matches_pure_check(self):
        game = quadratic_game()
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(size=2)
            basis = BasisSet([[np.array([x[0]]), np.array([x[1]])]])
            verdict = verify_ce(RegretOracle(game, basis).report([1.0]), tol=1e-6)
            # exact pure-strategy check: deviating to the opponent's action
            # saves (x_i - x_other)^2, the only possible improvement here
            improvable = (x[0] - x[1]) ** 2 > 1e-6
            assert verdict.is_equilibrium == (not improvable)

    def test_lower_bound_is_at_most_the_certificate(self):
        game = quadratic_game()
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(size=(2, 2))
            basis = BasisSet([[np.array([a]), np.array([b])] for a, b in x])
            rep = RegretOracle(game, basis).report(rng.dirichlet(np.ones(2)))
            verdict = verify_ce(rep)
            assert verdict.worst_lower == rep.per_player[verdict.worst_player]
            assert verdict.worst_lower <= verdict.worst_regret

    def test_nan_tol_rejected_before_the_report(self):
        report = RegretOracle(quadratic_game(), diag_basis()).report([0.5, 0.5])
        with pytest.raises(ValueError, match="tol must not be NaN"):
            verify_ce(report, tol=float("nan"))

    def test_negative_tol_is_legal(self):
        # regrets are signed; the diagonal mixture's upper bound is about 0
        verdict = verify_ce(RegretOracle(quadratic_game(), diag_basis()).report([0.5, 0.5]),
                            tol=-1.0)
        assert not verdict.is_equilibrium

    def test_certifies_from_upper_bound(self):
        # at a coarse gap target one iteration of FW from the box corner
        # stops, converged, at (0.45, 0.45): reported regret -0.045 is a
        # lower bound, and gap 0.3 says the true regret may be as large as
        # 0.255, so nothing is certified
        c = np.array([0.3, 0.6])

        def cost(i, y, y_minus_i):
            return float((y - c) @ (y - c))

        def grad(i, y, y_minus_i):
            return 2.0 * (y - c)

        game = ConvexGame([Polyhedron.box([0.0, 0.0], [1.0, 1.0])], cost, grad)
        oracle = RegretOracle(game, BasisSet([[c.copy()]]), tol_gap=0.5)
        rep = oracle.report([1.0])
        assert rep.per_player[0] == pytest.approx(-0.045, abs=1e-12)
        assert rep.fw_gaps[0] == pytest.approx(0.3, abs=1e-12)
        assert rep.per_player[0] <= 1e-6  # a lower-bound rule would certify
        assert rep.upper[0] == pytest.approx(0.255, abs=1e-12)
        verdict = verify_ce(rep, tol=1e-6)
        assert not verdict.is_equilibrium
        assert verdict.worst_player == 0
        assert verdict.worst_regret == pytest.approx(0.255, abs=1e-12)
        assert verdict.worst_lower == rep.per_player[0]

    def test_reads_the_reports_upper_bound(self):
        # the verdict is the report's certificate alone, whatever the
        # regrets and gaps beside it say
        rep = RegretReport(np.array([-1.0, -1.0]), [np.zeros(1)] * 2, np.zeros(2),
                           np.array([-0.5, 2e-6]))
        assert verify_ce(rep) == (False, 1, 2e-6, -1.0)
        assert verify_ce(rep, tol=3e-6) == (True, 1, 2e-6, -1.0)


class TestSolverNoise:
    def test_basis_with_rounding_negatives_is_accepted(self):
        # LP vertices carry flows like -1e-13 on unused links; contains()
        # accepts them, so the oracle must too
        net = parse_net((DATA / "toy4_net.tntp").read_text())
        game = build_traffic_game(net, [PlayerSpec(1, 4, 1.0)] * 2)
        upper = np.array([1.0, 1.0, -1e-13, -1e-13])  # route 1->2->4
        lower = np.array([-1e-13, -1e-13, 1.0, 1.0])  # route 1->3->4
        noisy = BasisSet([[upper, lower], [lower, upper]])
        clean = BasisSet([[np.maximum(x, 0.0) for x in joint] for joint in noisy.actions])
        rep = RegretOracle(game, noisy).report([0.5, 0.5])
        ref = RegretOracle(game, clean).report([0.5, 0.5])
        assert np.all(np.isfinite(rep.per_player))
        assert rep.per_player == pytest.approx(ref.per_player, abs=1e-9)


class TestOracleSettings:
    @pytest.mark.parametrize("kwargs, message", [
        ({"tol_gap": np.nan}, "tol_gap must be None or >= 0"),
        ({"tol_gap": -1e-9}, "tol_gap must be None or >= 0"),
    ])
    def test_checked_on_construction(self, monkeypatch, kwargs, message):
        # a bad setting fails here, before any report runs Frank-Wolfe with it
        with pytest.raises(ValueError, match=message):
            RegretOracle(quadratic_game(), diag_basis(), **kwargs)
        monkeypatch.setattr(polytope, "_FW_MAX_ITER", 0)
        oracle = RegretOracle(quadratic_game(), diag_basis(), tol_gap=0.0)
        assert oracle.report([0.5, 0.5]).per_player.shape == (2,)


class TestOracleBranches:
    @pytest.mark.parametrize("tol_gap", [None, 1e-3])
    def test_traffic_branch_matches_generic_branch(self, learn_game, tol_gap):
        # the same traffic costs behind a ConvexGame build the generic
        # objective, an independent check of the per-link polynomials (at
        # capacity scale on Sioux Falls); both reports lower-bound the true
        # regret by at most their FW gap
        toy4 = build_traffic_game(parse_net((DATA / "toy4_net.tntp").read_text()),
                                  [PlayerSpec(1, 4, 2.0), PlayerSpec(1, 4, 1.0)])
        for traffic, N in ((toy4, 4), (learn_game, 5)):
            generic = ConvexGame(traffic.action_sets, traffic.cost,
                                 lambda i, x, o: player_cost_gradient(i, x, o, traffic))
            basis = random_basis(traffic, N, seed=0)
            fast = RegretOracle(traffic, basis, tol_gap=tol_gap)
            slow = RegretOracle(generic, basis, tol_gap=tol_gap)
            vertex = np.eye(N)[0]
            assert generic.mixture_best_response(0, vertex, slow.opp_totals[0])[1] is None
            assert traffic.mixture_best_response(0, vertex, fast.opp_totals[0])[1] is not None
            rng = np.random.default_rng(0)
            for w in [np.full(N, 1.0 / N), vertex, *rng.dirichlet(np.ones(N), size=3)]:
                a, b = fast.report(w), slow.report(w)
                slack = np.maximum(a.fw_gaps, 0.0) + np.maximum(b.fw_gaps, 0.0) + 1e-12
                assert np.all(np.abs(a.per_player - b.per_player) <= slack)

    def test_branches_count_a_weight_below_zero(self, learn_game):
        # validate_weights passes an entry down to -1e-9 and the expected
        # cost counts it, so both objectives must count it too; the generic
        # one dropped it, 8e-10 off here, below the reports' FW-gap slack
        traffic = learn_game
        generic = ConvexGame(traffic.action_sets, traffic.cost,
                             lambda i, x, o: player_cost_gradient(i, x, o, traffic))
        basis = random_basis(traffic, 5, seed=0)
        fast, slow = RegretOracle(traffic, basis), RegretOracle(generic, basis)
        w = np.array([0.5, 0.5 + 8e-10, -8e-10, 0.0, 0.0])
        for i, y in enumerate(basis.actions[3]):
            a = traffic.mixture_best_response(i, w, fast.opp_totals[i])[0](y)[0]
            b = generic.mixture_best_response(i, w, slow.opp_totals[i])[0](y)[0]
            assert abs(a - b) <= 1e-12


def siouxfalls_oracle():
    """A new learn game's oracle on random_basis N=5, seed 0."""
    game = siouxfalls_game(LEARN_PLAYERS)
    return RegretOracle(game, random_basis(game, 5, seed=0))


class TestHistoryIndependence:
    def test_report_ignores_earlier_queries(self):
        # the LP warm starts live inside one Frank-Wolfe run, so a report
        # depends on w alone, not on what the oracle answered before
        oracle = siouxfalls_oracle()
        w_a = np.array([0.4, 0.3, 0.1, 0.1, 0.1])
        first = oracle.report(w_a)
        for w in np.random.default_rng(6).dirichlet(np.full(5, 0.3), size=5):
            oracle.report(w)
        again = oracle.report(w_a)
        fresh = siouxfalls_oracle().report(w_a)
        for rep in (again, fresh):
            assert rep.per_player.tobytes() == first.per_player.tobytes()
            assert rep.fw_gaps.tobytes() == first.fw_gaps.tobytes()
            assert rep.upper.tobytes() == first.upper.tobytes()
            assert [y.tobytes() for y in rep.best_responses] \
                == [y.tobytes() for y in first.best_responses]


class TestPinnedSiouxFalls:
    # Captured from the deviation objective built from per-link polynomials
    # in the opponent-flow moments, minimized by the kernel whose warm LP
    # calls continue the simplex state (vertex, basis inverse, pivot count)
    # of the previous Frank-Wolfe iteration, whose first LP continues the
    # polyhedron's nominal optimum (min budget_coeffs.x), and which takes
    # the line step by the Illinois secant on the step polynomial's slope.
    # Any change to the objective, the simplex or the line step that is not
    # bitwise equal moves these hex floats.  These reports take full steps
    # only, so they did not move when the secant replaced Newton's method on
    # p' (TestPinnedAuditStream pins interior and away steps).
    # Four earlier versions are kept as references; each lower-bounds the
    # same regret, so it may differ by at most the sum of the FW gaps:
    # - PHASE1_START: each Frank-Wolfe run's first LP started from the
    #   phase-1 basis.  Player 1's regret at the second weight was 1 ulp
    #   lower; it ended at another basis of the same vertex.
    # - SCENARIO_SUM: the objective summed over the N scenarios on every
    #   evaluation; same kernel.  Player 1's regrets were 1 ulp higher.
    # - REFACTORED: each warm LP call re-inverted the basis it started from.
    #   Its regrets are bitwise those of SCENARIO_SUM; its gaps were about
    #   -1e-16.
    # - COLD: every LP ran from the phase-1 start, so among tied optima it
    #   may pick another vertex.
    PINNED = [
        ([0.2, 0.2, 0.2, 0.2, 0.2],
         ["0x1.3d6b4682bc6a8p-2", "0x1.d88c9c22ce838p-2", "0x1.00418eb0dc518p-3"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
        ([0.7, 0.1, 0.1, 0.05, 0.05],
         ["0x1.ac7ecbedb7230p-3", "0x1.8f256cfbc3c48p-2", "0x1.e88c9853847d0p-4"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
        ([0.0, 0.0, 1.0, 0.0, 0.0],
         ["0x1.17fb944d0ed72p-1", "0x1.120a97497f666p-1", "0x0.0p+0"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
    ]
    PHASE1_START = [
        (["0x1.3d6b4682bc6a8p-2", "0x1.d88c9c22ce838p-2", "0x1.00418eb0dc518p-3"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
        (["0x1.ac7ecbedb7230p-3", "0x1.8f256cfbc3c44p-2", "0x1.e88c9853847d0p-4"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
        (["0x1.17fb944d0ed72p-1", "0x1.120a97497f666p-1", "0x0.0p+0"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
    ]
    SCENARIO_SUM = [
        (["0x1.3d6b4682bc6a8p-2", "0x1.d88c9c22ce83cp-2", "0x1.00418eb0dc518p-3"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
        (["0x1.ac7ecbedb7230p-3", "0x1.8f256cfbc3c48p-2", "0x1.e88c9853847d0p-4"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
        (["0x1.17fb944d0ed72p-1", "0x1.120a97497f668p-1", "0x0.0p+0"],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
    ]
    REFACTORED = [
        (["0x1.3d6b4682bc6a8p-2", "0x1.d88c9c22ce83cp-2", "0x1.00418eb0dc518p-3"],
         ["-0x1.33d7116eb05fcp-52", "0x0.0p+0", "0x1.a79f020a1df89p-54"]),
        (["0x1.ac7ecbedb7230p-3", "0x1.8f256cfbc3c48p-2", "0x1.e88c9853847d0p-4"],
         ["-0x1.2f7614fae492ap-52", "0x1.0e6ecfd85886bp-54", "-0x1.5d757529fde3ap-54"]),
        (["0x1.17fb944d0ed72p-1", "0x1.120a97497f668p-1", "0x0.0p+0"],
         ["-0x1.27eef4e401f93p-52", "-0x1.186a6c261bae5p-56", "-0x1.6599ead798e3fp-54"]),
    ]
    COLD = [
        (["0x1.3d6b4682bc6a8p-2", "0x1.d88c9c22ce83cp-2", "0x1.00418eb0dc518p-3"],
         ["-0x1.5ea38515aa0edp-55", "0x0.0p+0", "0x1.b6020762c4b58p-56"]),
        (["0x1.ac7ecbedb7230p-3", "0x1.8f256cfbc3c48p-2", "0x1.e88c9853847d0p-4"],
         ["-0x1.3e57c0dcd434fp-55", "-0x1.85f4450560468p-56", "0x0.0p+0"]),
        (["0x1.17fb944d0ed72p-1", "0x1.120a97497f668p-1", "0x0.0p+0"],
         ["-0x1.fc66862ccec93p-56", "-0x1.b6067c233783ep-54", "0x0.0p+0"]),
    ]
    # FW iterations and solve_lp calls over the reports of the audit
    # stream's first 20 weights, captured from the REFACTORED kernel:
    # carrying the simplex state must not change how much work a report
    # does.  The oracle is built inside the count, so lp_calls also holds
    # the nominal LP each player's polyhedron solves once when it is
    # constructed (3; the reports make 120).
    WORK = {"fw_iterations": 120, "lp_calls": 123}
    # Simplex pivots over the same reports (phase 2 only, counted with
    # _REFACTOR_EVERY raised so that a call's pivots are the rise of its
    # since_refresh count), and a SHA-256 over the reports' per-player
    # regrets, FW gaps and best responses, both captured with PINNED: a
    # cheaper pivot must make the same pivots and give the same bytes.
    # From the phase-1 basis the same reports took 822 pivots (the kernel
    # whose ratio test ran on numpy arrays made the same).
    WORK_PIVOTS = 102
    WORK_SHA256 = "bfda69c2ebf49f7c87cfae0fb22b85caec569c20ef1e7703204c8bf70ea9798b"

    def test_reports_bitwise(self):
        oracle = siouxfalls_oracle()
        for w, per_player, fw_gaps in self.PINNED:
            rep = oracle.report(np.array(w))
            assert [float(v).hex() for v in rep.per_player] == per_player
            assert [float(v).hex() for v in rep.fw_gaps] == fw_gaps

    def assert_within_gaps(self, reference):
        oracle = siouxfalls_oracle()
        for (w, _, _), (ref_per, ref_gaps) in zip(self.PINNED, reference):
            rep = oracle.report(np.array(w))
            ref_per = np.array([float.fromhex(v) for v in ref_per])
            ref_gaps = np.array([float.fromhex(v) for v in ref_gaps])
            slack = np.maximum(ref_gaps, 0.0) + np.maximum(rep.fw_gaps, 0.0) + 1e-12
            assert np.all(np.abs(rep.per_player - ref_per) <= slack)

    def test_phase1_start_values_within_gaps(self):
        self.assert_within_gaps(self.PHASE1_START)

    def test_cold_start_values_within_gaps(self):
        self.assert_within_gaps(self.COLD)

    def test_scenario_sum_values_within_gaps(self):
        self.assert_within_gaps(self.SCENARIO_SUM)

    def test_refactoring_kernel_values_within_gaps(self):
        self.assert_within_gaps(self.REFACTORED)

    def test_work_pinned(self, spy):
        lps, fws = spy(polytope, "solve_lp"), spy(regret, "frank_wolfe_min")
        oracle = siouxfalls_oracle()
        for w in audit_stream(20):
            oracle.report(w)
        work = {"fw_iterations": sum(fw.result.iterations for fw in fws), "lp_calls": len(lps)}
        assert work == self.WORK

    def test_pivots_pinned(self, monkeypatch):
        oracle = siouxfalls_oracle()
        pivots = []
        simplex = polytope._simplex_phase_np

        def counting(*args):
            out = simplex(*args)
            pivots.append(out - args[-1])
            return out

        monkeypatch.setattr(polytope, "_REFACTOR_EVERY", 10 ** 9)
        monkeypatch.setattr(polytope, "_simplex_phase_np", counting)
        for w in audit_stream(20):
            oracle.report(w)
        assert sum(pivots) == self.WORK_PIVOTS

    def test_outputs_hash_pinned(self):
        oracle = siouxfalls_oracle()
        digest = hashlib.sha256()
        for w in audit_stream(20):
            rep = oracle.report(w)
            digest.update(rep.per_player.tobytes())
            digest.update(rep.fw_gaps.tobytes())
            for y in rep.best_responses:
                digest.update(y.tobytes())
        assert digest.hexdigest() == self.WORK_SHA256


@pytest.fixture(scope="module")
def audit_run(audit_oracle):
    """The reports of the first 20 audit weights, with the FW iterations of
    every deviation call and the ``(step, cap)`` of every line step."""
    with pytest.MonkeyPatch.context() as mp:
        fws = spy_on(mp, regret, "frank_wolfe_min")
        line_steps = spy_on(mp, polytope, "_line_step")
        reports = [audit_oracle.report(w) for w in audit_stream(20)]
    steps = [(step.result, step.args[1]) for step in line_steps]
    return reports, [fw.result.iterations for fw in fws], steps


@pytest.fixture(scope="module")
def audit_stream_reports(audit_oracle):
    """The weights of the whole 300-report audit stream and their reports."""
    weights = audit_stream(300)
    return weights, [audit_oracle.report(w) for w in weights]


class TestPinnedAuditStream:
    # The audit stream's near-vertex weights make FW take interior steps
    # toward the FW vertex and away steps, which the full-step streams of
    # TestPinnedSiouxFalls never take.  Pinned here: the FW iterations, the
    # line steps by kind and a SHA-256 over the reports' per-player regrets,
    # FW gaps and best responses, captured from the kernel whose line step
    # is the Illinois secant on Horner's slope of the step polynomial and
    # whose first LP in each run continues the polyhedron's nominal optimum.
    # An away step is counted by its cap, which is 1 for a FW step and
    # alpha / (1 - alpha) for an away step (1 only at alpha = 1/2).
    FW_ITERATIONS = 458
    STEPS = {"all": 358, "interior": 258, "cap_not_one": 91}
    SHA256 = "db8617238022ee804b497b7792359d9f4b0e06692bcf7942008dae537553006e"
    # Two earlier kernels are kept as references, each with the largest of
    # its FW gaps on these reports.  Each lower-bounds the same regret, so
    # it may differ by at most the sum of the FW gaps:
    # - PHASE1_START: each run's first LP started from the phase-1 basis
    #   (SHA-256 ff2b9a3b..., same iterations and steps).
    # - NEWTON: an interior step was found by Newton's method on p'
    #   (SHA-256 c1e7b6b9..., same iterations and steps).
    PHASE1_START = [
        ["0x1.bded3b31a0adap-1", "0x1.c156b412214d4p-2", "0x1.d65a0a81e1376p-1",
         "0x1.a398becc846c0p-4", "0x1.328aced4167eap+0"],
        ["0x1.5eac3aef9d048p-2", "0x1.a213ff66ecd98p-2", "0x1.25d2c7a645356p-1",
         "0x1.c67c0363751a0p-2", "0x1.0bf40dd633020p-2"],
        ["0x1.0f2e410c8fd6ap+0", "0x1.bd65cedc53ac8p-2", "0x1.4c8a43a223762p+0",
         "0x1.419fd00d9efdcp-2", "0x1.8439dfed4093fp+0"],
        ["0x1.571a2b052310ap-1", "0x1.bf193ec3ca1f4p-2", "0x1.2993cec2fa9e8p-1",
         "0x1.3c29c8763e000p-12", "0x1.c23858fe5e38ap-1"],
        ["0x1.09ffc6a3d77a0p-1", "0x1.d190fdb441f4cp-2", "0x1.1c0739377ace8p-1",
         "-0x1.5d6552c9dc000p-11", "0x1.81fefc9e5161ep-1"],
        ["0x1.1f2c75d5fa060p-2", "0x1.9e08b4cf435c8p-2", "0x1.0faceb99baaf8p-1",
         "0x1.eeef1f554f33cp-2", "0x1.399f572eaee50p-3"],
        ["0x1.549cebf3a485cp-1", "0x1.6f14f43dce96cp-2", "0x1.21cf3c488b9c4p-1",
         "0x1.fbf5ba43e979cp-2", "0x1.9fd88d81ddda8p-1"],
        ["0x1.dd7d57a92bef8p-2", "0x1.7b874c789a290p-2", "0x1.03ac6e648a4b8p-1",
         "0x1.fc75e8788761cp-2", "0x1.e7c9e71dbdeb0p-2"],
        ["0x1.5ce6d1a6b72d0p-2", "0x1.a4868220c1f1cp-2", "0x1.0c631fdcf3beep-1",
         "0x1.8e8d36e1dfcc8p-2", "0x1.13dec0b1d5d78p-2"],
        ["0x1.4ef3fc880d508p-1", "0x1.ad36e25dfd330p-2", "0x1.d3325aa920326p-1",
         "0x1.9b44a5cb9e5f0p-2", "0x1.9431f7699fa50p-1"],
        ["0x1.ba49c4c615020p-3", "0x1.02436503c3068p-1", "0x1.fb2ca15f68164p-2",
         "0x1.fcca68220e540p-6", "0x1.e08e052bbbea4p-2"],
        ["0x1.1a1a55320c390p-2", "0x1.aa2898e6a70d8p-2", "0x1.02b02a19d3a64p-1",
         "0x1.91a8a3674470cp-2", "0x1.b835196fc4220p-3"],
        ["0x1.35e526bd0a57dp+0", "0x1.c629dc2f7ff10p-2", "0x1.7af6ef2f92a28p+0",
         "0x1.42dbe39365468p-2", "0x1.bea1b1b9c5cf0p+0"],
        ["0x1.446b22e902f32p-1", "0x1.69cfcb935a7e0p-2", "0x1.0463c61acc3aep-1",
         "0x1.05b93602e44f6p-1", "0x1.836dd1bdf7e68p-1"],
        ["0x1.451d99dee65eep-1", "0x1.6a04b5c2ebe64p-2", "0x1.059fe33fd99e0p-1",
         "0x1.056d5f7e1f08ap-1", "0x1.84a051b24d7acp-1"],
        ["0x1.f4fd6f61274e0p-3", "0x1.04e6f6de584aap-1", "0x1.0702b4e015742p-1",
         "0x1.675c6a164a800p-11", "0x1.0fa71d9c26a52p-1"],
        ["0x1.e8a7d6997f3fep-1", "0x1.c3835039493c0p-2", "0x1.116eafacf9aa6p+0",
         "0x1.35768ff40acd8p-3", "0x1.565b87574e25ap+0"],
        ["0x1.2f9aee334a92cp+0", "0x1.c581df734ef20p-2", "0x1.7520b110c9a14p+0",
         "0x1.45e0f5f714720p-2", "0x1.b3accd62aa1e5p+0"],
        ["0x1.b419ee759bcc8p-2", "0x1.a607d12e05cd8p-2", "0x1.53752b2fa532cp-1",
         "0x1.b318b477b4a68p-2", "0x1.9e97f28a289a0p-2"],
        ["0x1.dd34990444540p-3", "0x1.c100008f75210p-2", "0x1.ff4e8af846704p-2",
         "0x1.320723305a548p-2", "0x1.d1ca382ed71b8p-3"],
    ]
    PHASE1_START_MAX_GAP = float.fromhex("0x1.0000000000000p-51")
    NEWTON = [
        ["0x1.bded3b31a0adcp-1", "0x1.c156b412214d4p-2", "0x1.d65a0a81e1376p-1",
         "0x1.a398becc846c0p-4", "0x1.328aced4167eap+0"],
        ["0x1.5eac3aef9d048p-2", "0x1.a213ff66ecd98p-2", "0x1.25d2c7a645356p-1",
         "0x1.c67c0363751a0p-2", "0x1.0bf40dd63301cp-2"],
        ["0x1.0f2e410c8fd6ap+0", "0x1.bd65cedc53ac8p-2", "0x1.4c8a43a223762p+0",
         "0x1.419fd00d9efdcp-2", "0x1.8439dfed4093fp+0"],
        ["0x1.571a2b0523108p-1", "0x1.bf193ec3ca1f4p-2", "0x1.2993cec2fa9e8p-1",
         "0x1.3c29c8763e000p-12", "0x1.c23858fe5e38ap-1"],
        ["0x1.09ffc6a3d779ep-1", "0x1.d190fdb441f4cp-2", "0x1.1c0739377ace8p-1",
         "-0x1.5d6552c9dc000p-11", "0x1.81fefc9e5161ep-1"],
        ["0x1.1f2c75d5fa060p-2", "0x1.9e08b4cf435c8p-2", "0x1.0faceb99baaf8p-1",
         "0x1.eeef1f554f33cp-2", "0x1.399f572eaee50p-3"],
        ["0x1.549cebf3a485cp-1", "0x1.6f14f43dce96cp-2", "0x1.21cf3c488b9c4p-1",
         "0x1.fbf5ba43e979cp-2", "0x1.9fd88d81ddda8p-1"],
        ["0x1.dd7d57a92befcp-2", "0x1.7b874c789a290p-2", "0x1.03ac6e648a4b8p-1",
         "0x1.fc75e8788761cp-2", "0x1.e7c9e71dbdeb0p-2"],
        ["0x1.5ce6d1a6b72d0p-2", "0x1.a4868220c1f18p-2", "0x1.0c631fdcf3beep-1",
         "0x1.8e8d36e1dfcc8p-2", "0x1.13dec0b1d5d78p-2"],
        ["0x1.4ef3fc880d508p-1", "0x1.ad36e25dfd334p-2", "0x1.d3325aa920326p-1",
         "0x1.9b44a5cb9e5f8p-2", "0x1.9431f7699fa50p-1"],
        ["0x1.ba49c4c615020p-3", "0x1.02436503c3068p-1", "0x1.fb2ca15f68164p-2",
         "0x1.fcca68220e540p-6", "0x1.e08e052bbbea4p-2"],
        ["0x1.1a1a55320c390p-2", "0x1.aa2898e6a70d8p-2", "0x1.02b02a19d3a64p-1",
         "0x1.91a8a3674470cp-2", "0x1.b835196fc4220p-3"],
        ["0x1.35e526bd0a57dp+0", "0x1.c629dc2f7ff10p-2", "0x1.7af6ef2f92a28p+0",
         "0x1.42dbe39365468p-2", "0x1.bea1b1b9c5cefp+0"],
        ["0x1.446b22e902f32p-1", "0x1.69cfcb935a7e0p-2", "0x1.0463c61acc3aep-1",
         "0x1.05b93602e44f6p-1", "0x1.836dd1bdf7e68p-1"],
        ["0x1.451d99dee65eep-1", "0x1.6a04b5c2ebe64p-2", "0x1.059fe33fd99e0p-1",
         "0x1.056d5f7e1f08ap-1", "0x1.84a051b24d7acp-1"],
        ["0x1.f4fd6f61274e0p-3", "0x1.04e6f6de584aap-1", "0x1.0702b4e015742p-1",
         "0x1.675c6a164a800p-11", "0x1.0fa71d9c26a52p-1"],
        ["0x1.e8a7d6997f400p-1", "0x1.c3835039493c0p-2", "0x1.116eafacf9aa6p+0",
         "0x1.35768ff40acd8p-3", "0x1.565b87574e25ap+0"],
        ["0x1.2f9aee334a92cp+0", "0x1.c581df734ef20p-2", "0x1.7520b110c9a14p+0",
         "0x1.45e0f5f714720p-2", "0x1.b3accd62aa1e5p+0"],
        ["0x1.b419ee759bcc4p-2", "0x1.a607d12e05cd8p-2", "0x1.53752b2fa532cp-1",
         "0x1.b318b477b4a68p-2", "0x1.9e97f28a289a4p-2"],
        ["0x1.dd34990444540p-3", "0x1.c100008f75210p-2", "0x1.ff4e8af846704p-2",
         "0x1.320723305a548p-2", "0x1.d1ca382ed71b8p-3"],
    ]
    NEWTON_MAX_GAP = float.fromhex("0x1.315a8a6b9faadp-51")

    def test_work_pinned(self, audit_run):
        _, iterations, steps = audit_run
        assert sum(iterations) == self.FW_ITERATIONS
        assert {"all": len(steps),
                "interior": sum(0.0 < s < s_max for s, s_max in steps),
                "cap_not_one": sum(s_max != 1.0 for _, s_max in steps)} == self.STEPS

    def test_outputs_hash_pinned(self, audit_run):
        digest = hashlib.sha256()
        for rep in audit_run[0]:
            digest.update(rep.per_player.tobytes())
            digest.update(rep.fw_gaps.tobytes())
            for y in rep.best_responses:
                digest.update(y.tobytes())
        assert digest.hexdigest() == self.SHA256

    @staticmethod
    def assert_within_gaps(audit_run, reference, max_gap):
        for rep, ref in zip(audit_run[0], reference):
            ref = np.array([float.fromhex(v) for v in ref])
            slack = max_gap + np.maximum(rep.fw_gaps, 0.0) + 1e-12
            assert np.all(np.abs(rep.per_player - ref) <= slack)

    def test_phase1_start_values_within_gaps(self, audit_run):
        self.assert_within_gaps(audit_run, self.PHASE1_START, self.PHASE1_START_MAX_GAP)

    def test_newton_values_within_gaps(self, audit_run):
        self.assert_within_gaps(audit_run, self.NEWTON, self.NEWTON_MAX_GAP)


class TestAuditConvexity:
    def test_regret_is_convex_in_w(self, audit_oracle, audit_stream_reports):
        # regret_i(w) = E_i(w) - min F_i(w): E_i is linear in w and min F_i
        # a minimum of linear functions, so regret_i is convex.  A report's
        # per_player is below the true regret and its upper bound above, so
        # at the midpoint of two stream weights per_player lies below the
        # mean of their upper bounds; 50 seeded pairs of distinct weights.
        # Where a player's best response is the same vertex along the
        # segment its regret is linear there and the two sides are equal, so
        # rounding may put the left one above by a few ulps (4.4e-16 here).
        weights, reports = audit_stream_reports
        pairs = np.random.default_rng(0).permutation(len(weights))[:100].reshape(50, 2)
        for a, b in pairs:
            mid = audit_oracle.report(0.5 * weights[a] + 0.5 * weights[b])
            assert np.all(mid.per_player <= 0.5 * (reports[a].upper + reports[b].upper) + 1e-12)


def highs_lp(c, poly, warm=None):
    """solve_lp's contract from the tight HiGHS reference, cost scaled to
    unit size; ``warm`` is ignored."""
    res = highs(c / np.abs(c).max(), poly, tight=True)
    assert res.status == 0
    return polytope.LpSolution(res.x, float(c @ res.x))


class TestCertificateWitness:
    # Player index 3 of two audit reports, where the stop-rule bound
    # regret + max(gap, 0) fell short of the true regret by more than
    # verify_ce's default tol, so a verdict could flip: report 10 (0.0310541
    # against 0.0310558) and report 183 (0.0735095 against 0.0735133).  The
    # FW gap missed it because solve_lp stops within its pricing tolerance
    # 1e-9 (1 + max|c|); the report's upper bound, from the final basis's
    # duals, does not depend on that tolerance.
    @pytest.mark.parametrize("k", [10, 183])
    def test_certified_bound_covers_true_regret(self, audit_oracle, monkeypatch, k):
        w, i = audit_stream(k + 1)[k], 3
        certified = audit_oracle.report(w).upper[i]
        # reference without cequil's simplex: FW with HiGHS as its linear
        # oracle; any feasible point's value bounds min f from above, so
        # expected - f(y) bounds the true regret from below
        game = audit_oracle.game
        fun, line_poly = game.mixture_best_response(i, w, audit_oracle.opp_totals[i])
        monkeypatch.setattr(polytope, "solve_lp", highs_lp)
        # highs_lp's solutions carry no basis to take duals from
        monkeypatch.setattr(polytope, "_dual_bound", lambda c, sol: float(c @ sol.point))
        monkeypatch.setattr(polytope, "_FW_MAX_ITER", 5000)
        res = polytope.frank_wolfe_min(fun, game.action_sets[i], tol_gap=1e-8,
                                       line_poly=line_poly)
        assert res.converged
        reference = float(audit_oracle.atom_costs[i] @ w) - res.value
        assert certified + 1e-12 >= reference

    def test_upper_bounds_cover_the_exact_bound_on_the_stream(self, audit_oracle,
                                                              audit_stream_reports):
        # every deviation call of the 300 audit reports: the upper bound
        # covers the exact bound at FW's final gradient g, regret + g.(y -
        # v*) with v* from HiGHS, and the stop-rule bound regret + max(gap,
        # 0); 112 calls failed the first when the report's bound was the
        # second.  From above, the bound stays within 1e-4 of the regret; the
        # largest excess on this stream was 7.2e-5
        game = audit_oracle.game
        for w, rep in zip(*audit_stream_reports):
            for i, y in enumerate(rep.best_responses):
                fun, _ = game.mixture_best_response(i, w, audit_oracle.opp_totals[i])
                g = fun(y)[1]
                v_star = highs_lp(g, game.action_sets[i]).point
                assert rep.upper[i] >= rep.per_player[i] + float(g @ (y - v_star)) - 1e-12
                assert rep.upper[i] >= rep.per_player[i] + max(rep.fw_gaps[i], 0.0) - 1e-12
                assert -1e-12 <= rep.upper[i] - rep.per_player[i] <= 1e-4
