from pathlib import Path

import numpy as np
import pytest

from cequil.basis import random_basis
from cequil.game import ConvexGame, PlayerSpec, build_traffic_game
from cequil.polytope import Polyhedron
from cequil.regret import BasisSet, RegretOracle, validate_weights, verify_ce
from cequil.tntp import parse_net

DATA = Path(__file__).parent / "data"


def quadratic_game():
    """Two players on [0,1], each with cost (x_i - x_other)^2."""

    def cost(i, x_i, x_minus_i):
        return float((x_i[0] - x_minus_i[0][0]) ** 2)

    def grad(i, x_i, x_minus_i):
        return np.array([2.0 * (x_i[0] - x_minus_i[0][0])])

    sets = [Polyhedron.interval(0.0, 1.0), Polyhedron.interval(0.0, 1.0)]
    return ConvexGame(2, sets, cost, grad)


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
        w = validate_weights([0.25, 0.75])
        assert w.sum() == 1.0
        with pytest.raises(ValueError):
            validate_weights([0.5, 0.2])
        with pytest.raises(ValueError):
            validate_weights([1.5, -0.5])
        with pytest.raises(ValueError):
            validate_weights([1.0], n=2)
        for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.5, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                validate_weights(bad)


class TestBasisSet:
    def test_invariants(self):
        with pytest.raises(ValueError):
            BasisSet([])
        with pytest.raises(ValueError):
            BasisSet([[np.zeros(2)], [np.zeros(3)]])
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

        game = ConvexGame(1, [Polyhedron.box([0.0], [0.0])], cost, grad)
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

            game = ConvexGame(2, [Polyhedron.interval(0.0, 1.0)] * 2, cost, grad)
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


class TestRegretReport:
    def test_single_player_average(self):
        def cost(i, x_i, x_minus_i):
            return float((x_i[0] - 0.2) ** 2)

        def grad(i, x_i, x_minus_i):
            return np.array([2.0 * (x_i[0] - 0.2)])

        game = ConvexGame(1, [Polyhedron.interval(0.0, 1.0)], cost, grad)
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
        first.best_responses[0][:] = 123.0
        again = oracle.report([0.5, 0.5])
        fresh = RegretOracle(game, diag_basis()).report([0.5, 0.5])
        assert again.per_player.tobytes() == fresh.per_player.tobytes()
        assert again.fw_gaps.tobytes() == fresh.fw_gaps.tobytes()
        assert [y.tobytes() for y in again.best_responses] \
            == [y.tobytes() for y in fresh.best_responses]


class TestVerifyCe:
    def test_nash_dirac_is_equilibrium(self):
        game = quadratic_game()
        # alternating best response from 0.3 converges immediately to (t, t)
        t = 0.3
        basis = BasisSet([[np.array([t]), np.array([t])]])
        verdict = verify_ce(RegretOracle(game, basis), [1.0], tol=1e-6)
        assert verdict.is_equilibrium

    def test_diagonal_mixture_is_equilibrium(self):
        game = quadratic_game()
        verdict = verify_ce(RegretOracle(game, diag_basis()), [0.5, 0.5], tol=1e-6)
        assert verdict.is_equilibrium
        assert verdict.worst_regret <= 0.0

    def test_non_equilibrium_dirac(self):
        game = quadratic_game()
        basis = BasisSet([[np.array([0.9]), np.array([0.1])]])
        verdict = verify_ce(RegretOracle(game, basis), [1.0], tol=1e-6)
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
            verdict = verify_ce(RegretOracle(game, basis), [1.0], tol=1e-6)
            # exact pure-strategy check: deviating to the opponent's action
            # saves (x_i - x_other)^2, the only possible improvement here
            improvable = (x[0] - x[1]) ** 2 > 1e-6
            assert verdict.is_equilibrium == (not improvable)

    def test_certifies_from_upper_bound(self):
        # one iteration of FW from the box corner stops at (0.45, 0.45):
        # reported regret -0.045 is a lower bound, and gap 0.3 says the
        # true regret may be as large as 0.255, so nothing is certified
        c = np.array([0.3, 0.6])

        def cost(i, y, y_minus_i):
            return float((y - c) @ (y - c))

        def grad(i, y, y_minus_i):
            return 2.0 * (y - c)

        game = ConvexGame(1, [Polyhedron.box([0.0, 0.0], [1.0, 1.0])], cost, grad)
        oracle = RegretOracle(game, BasisSet([[c.copy()]]), max_iter=1)
        rep = oracle.report([1.0])
        assert rep.per_player[0] == pytest.approx(-0.045, abs=1e-12)
        assert rep.fw_gaps[0] == pytest.approx(0.3, abs=1e-12)
        assert rep.per_player[0] <= 1e-6  # a lower-bound rule would certify
        verdict = verify_ce(oracle, [1.0], tol=1e-6)
        assert not verdict.is_equilibrium
        assert verdict.worst_player == 0
        assert verdict.worst_regret == pytest.approx(0.255, abs=1e-12)


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


class TestOracleBranches:
    @pytest.mark.parametrize("tol_gap", [None, 1e-3])
    def test_traffic_branch_matches_generic_branch(self, tol_gap):
        # the same traffic costs behind a ConvexGame take the generic branch;
        # both reports lower-bound the true regret by at most their FW gap
        net = parse_net((DATA / "toy4_net.tntp").read_text())
        traffic = build_traffic_game(net, [PlayerSpec(1, 4, 2.0), PlayerSpec(1, 4, 1.0)])
        generic = ConvexGame(2, traffic.action_sets, traffic.cost, traffic.cost_gradient)
        assert not hasattr(generic, "mixture_best_response")
        basis = random_basis(traffic, 4, seed=0)
        fast = RegretOracle(traffic, basis, tol_gap=tol_gap)
        slow = RegretOracle(generic, basis, tol_gap=tol_gap)
        rng = np.random.default_rng(0)
        for w in [np.full(4, 0.25), [1.0, 0.0, 0.0, 0.0], *rng.dirichlet(np.ones(4), size=3)]:
            a, b = fast.report(w), slow.report(w)
            slack = np.maximum(a.fw_gaps, 0.0) + np.maximum(b.fw_gaps, 0.0) + 1e-12
            assert np.all(np.abs(a.per_player - b.per_player) <= slack)


def siouxfalls_oracle():
    net = parse_net((DATA / "siouxfalls_net.tntp").read_text())
    players = [PlayerSpec(o, d, 3000.0) for o, d in ((1, 20), (13, 8), (7, 24))]
    game = build_traffic_game(net, players)
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
            assert [y.tobytes() for y in rep.best_responses] \
                == [y.tobytes() for y in first.best_responses]


class TestPinnedSiouxFalls:
    # Captured from the kernel that warm-starts each Frank-Wolfe iteration's
    # LP from the previous basis and takes the line step by Newton on p'.
    # Any change to the simplex or the line step that is not bitwise equal
    # moves these hex floats.  The warm start may pick another vertex among
    # tied optima, so the earlier cold-start kernel's values are kept in
    # COLD: both kernels lower-bound the same regret, so they may differ by
    # at most the sum of their FW gaps.
    PINNED = [
        ([0.2, 0.2, 0.2, 0.2, 0.2],
         ["0x1.3d6b4682bc6a8p-2", "0x1.d88c9c22ce83cp-2", "0x1.00418eb0dc518p-3"],
         ["-0x1.33d7116eb05fcp-52", "0x0.0p+0", "0x1.a79f020a1df89p-54"]),
        ([0.7, 0.1, 0.1, 0.05, 0.05],
         ["0x1.ac7ecbedb7230p-3", "0x1.8f256cfbc3c48p-2", "0x1.e88c9853847d0p-4"],
         ["-0x1.2f7614fae492ap-52", "0x1.0e6ecfd85886bp-54", "-0x1.5d757529fde3ap-54"]),
        ([0.0, 0.0, 1.0, 0.0, 0.0],
         ["0x1.17fb944d0ed72p-1", "0x1.120a97497f668p-1", "0x0.0p+0"],
         ["-0x1.27eef4e401f93p-52", "-0x1.186a6c261bae5p-56", "-0x1.6599ead798e3fp-54"]),
    ]
    # Captured from the kernel that ran every LP from the phase-1 start.
    COLD = [
        (["0x1.3d6b4682bc6a8p-2", "0x1.d88c9c22ce83cp-2", "0x1.00418eb0dc518p-3"],
         ["-0x1.5ea38515aa0edp-55", "0x0.0p+0", "0x1.b6020762c4b58p-56"]),
        (["0x1.ac7ecbedb7230p-3", "0x1.8f256cfbc3c48p-2", "0x1.e88c9853847d0p-4"],
         ["-0x1.3e57c0dcd434fp-55", "-0x1.85f4450560468p-56", "0x0.0p+0"]),
        (["0x1.17fb944d0ed72p-1", "0x1.120a97497f668p-1", "0x0.0p+0"],
         ["-0x1.fc66862ccec93p-56", "-0x1.b6067c233783ep-54", "0x0.0p+0"]),
    ]

    def test_reports_bitwise(self):
        oracle = siouxfalls_oracle()
        for w, per_player, fw_gaps in self.PINNED:
            rep = oracle.report(np.array(w))
            assert [float(v).hex() for v in rep.per_player] == per_player
            assert [float(v).hex() for v in rep.fw_gaps] == fw_gaps

    def test_cold_start_values_within_gaps(self):
        oracle = siouxfalls_oracle()
        for (w, _, _), (cold_per, cold_gaps) in zip(self.PINNED, self.COLD):
            rep = oracle.report(np.array(w))
            cold_per = np.array([float.fromhex(v) for v in cold_per])
            cold_gaps = np.array([float.fromhex(v) for v in cold_gaps])
            slack = np.maximum(cold_gaps, 0.0) + np.maximum(rep.fw_gaps, 0.0) + 1e-12
            assert np.all(np.abs(rep.per_player - cold_per) <= slack)
