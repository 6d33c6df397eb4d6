from math import comb
from pathlib import Path

import numpy as np
import pytest

from cequil.game import (
    GameError,
    InfeasibleDemand,
    PlayerSpec,
    build_traffic_game,
    demand_vector,
    player_cost,
    player_cost_gradient,
)
from cequil.polytope import contains, solve_lp
from cequil.tntp import parse_net

DATA = Path(__file__).parent / "data"


def loop_line_poly(game, i, w, T, x, d):
    """Reference: the coefficients of ``s -> f_i(x + s d)`` summed one
    power of ``x + T`` at a time (low order first)."""
    nu = game.nu
    coef = game.lam * game.fft / game.nominal_volume ** nu
    u = x[None, :] + T
    coeffs = np.zeros(nu + 2)
    coeffs[0] += float(game.fft @ x)
    coeffs[1] += float(game.fft @ d)
    d_pow = 1.0
    for r in range(nu + 1):
        wx = coef * (comb(nu, r) * (w @ (u ** (nu - r) * d_pow)))
        coeffs[r] += float(wx @ x)
        coeffs[r + 1] += float(wx @ d)
        d_pow = d_pow * d
    return coeffs / game.deltas[i]

SINGLE_LINK = (
    "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n"
    "1 2 {cap} 1 {fft} {b} {power} 0 0 1 ;\n"
)


def make_single_link_game(cap=1.0, fft=1.0, demand=1.0, players=1, b=0.15, power=4):
    net = parse_net(SINGLE_LINK.format(cap=cap, fft=fft, b=b, power=power))
    specs = [PlayerSpec(1, 2, demand) for _ in range(players)]
    return build_traffic_game(net, specs)


def label_correcting_shortest_path(net, origin, destination):
    """Independent oracle: Bellman-Ford label correcting on free-flow times."""
    INF = float("inf")
    dist = [INF] * (net.num_nodes + 1)
    dist[origin] = 0.0
    for _ in range(net.num_nodes):
        changed = False
        for u, v, t in zip(net.init_node, net.term_node, net.free_flow_time):
            alt = dist[u] + t
            if alt < dist[v] - 1e-15:
                dist[v] = alt
                changed = True
        if not changed:
            break
    return dist[destination]


@pytest.fixture(scope="module")
def siouxfalls_net():
    return parse_net((DATA / "siouxfalls_net.tntp").read_text())


@pytest.fixture(scope="module")
def siouxfalls_game(siouxfalls_net):
    players = [PlayerSpec(1, 20, 3000.0), PlayerSpec(13, 8, 3000.0)]
    return build_traffic_game(siouxfalls_net, players)


class TestPlayerSpec:
    @pytest.mark.parametrize("demand", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_demand_must_be_positive_and_finite(self, demand):
        with pytest.raises(GameError, match="demand must be positive and finite"):
            PlayerSpec(1, 4, demand)

    @pytest.mark.parametrize("factor", [0.5, np.nan, np.inf, -np.inf])
    def test_budget_factor_must_be_finite_and_at_least_one(self, factor):
        with pytest.raises(GameError, match="budget_factor must be finite and >= 1"):
            PlayerSpec(1, 4, 1.0, factor)

    @pytest.mark.parametrize("args, message", [
        ((None,), "demand must be positive and finite, got None"),
        (("3",), "demand must be positive and finite, got 3"),
        ((3.0, "2"), "budget_factor must be finite and >= 1, got 2"),
    ])
    def test_non_numeric_demand_or_factor_rejected(self, args, message):
        # numpy's isfinite raises its own TypeError on these
        with pytest.raises(GameError, match=message):
            PlayerSpec(1, 2, *args)

    @pytest.mark.parametrize("origin, destination, bad", [
        (1.5, 4, "1.5"), (1.0, 4, "1.0"), (1, 4.0, "4.0"), ("1", 4, "'1'"),
    ])
    def test_node_ids_must_be_integers(self, origin, destination, bad):
        # a float id would fail only later, as numpy's bare IndexError
        # inside build_traffic_game
        with pytest.raises(GameError, match=f"node ids must be integers, got {bad}"):
            PlayerSpec(origin, destination, 2.0)
        assert PlayerSpec(np.int64(1), 4, 2.0).origin == 1

    def test_origin_must_differ_from_destination(self):
        with pytest.raises(GameError, match="origin and destination must differ"):
            PlayerSpec(3, 3, 1.0)


class TestDemandVector:
    def test_basic(self):
        s = demand_vector(PlayerSpec(1, 3, 2.0), 3)
        assert np.array_equal(s, [2.0, 0.0, -2.0])

    def test_reversed(self):
        s = demand_vector(PlayerSpec(2, 1, 1.0), 2)
        assert np.array_equal(s, [-1.0, 1.0])

    def test_sums_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            o, d = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            rho = float(rng.uniform(0.1, 10.0))
            assert demand_vector(PlayerSpec(int(o), int(d), rho), n).sum() == 0.0

    def test_invalid_node(self):
        with pytest.raises(Exception):
            demand_vector(PlayerSpec(1, 5, 1.0), 3)


class TestLinkCost:
    # the BPR law through player_cost: a player's cost times its nominal
    # cost delta, divided by its own flow, is the travel time of its link

    def test_zero_flow_is_free_flow(self):
        game = make_single_link_game(cap=2.0)
        # at zero flow the marginal cost of own flow is the link's travel time
        g = player_cost_gradient(0, np.array([0.0]), [], game)
        assert g[0] * game.deltas[0] == 1.0

    def test_bpr_value(self):
        game = make_single_link_game(cap=2.0, players=2)
        # fft 1, capacity 2, the file's b .15 and power 4, total 1+1 -> 1.15 per unit
        c = player_cost(0, np.array([1.0]), [np.array([1.0])], game)
        assert c * game.deltas[0] == pytest.approx(1.15, abs=1e-12)

    def test_dataset_first_link_scale(self, siouxfalls_game):
        # a=6, b=25900.20064, total=b on link 0 alone -> 6 * 1.15
        game = siouxfalls_game
        b = float(game.nominal_volume[0])
        x = np.zeros(game.num_links)
        x[0] = b
        c = player_cost(0, x, [np.zeros(game.num_links)], game)
        assert c * game.deltas[0] / b == pytest.approx(6.9, abs=1e-9)

    def test_negative_flow_rejected(self):
        game = make_single_link_game()
        with pytest.raises(GameError, match="negative flow"):
            player_cost(0, np.array([-0.5]), [], game)


class TestPlayerCost:
    def test_zero_flow_zero_cost(self, siouxfalls_game):
        z = np.zeros(siouxfalls_game.num_links)
        assert player_cost(0, z, [z], siouxfalls_game) == 0.0

    def test_single_link_alone(self):
        game = make_single_link_game(cap=1.0, fft=1.0, demand=1.0)
        # delta = 1, so cost = 1 * (1 + 0.15 * 1) = 1.15
        assert game.deltas[0] == pytest.approx(1.0)
        assert player_cost(0, np.array([1.0]), [], game) == pytest.approx(1.15)

    def test_single_link_with_opponent(self):
        game = make_single_link_game(cap=1.0, fft=1.0, demand=1.0, players=2)
        c = player_cost(0, np.array([1.0]), [np.array([1.0])], game)
        assert c == pytest.approx(1.0 * (1.0 + 0.15 * 2.0 ** 4), abs=1e-12)

    def test_opponent_order_symmetric(self, siouxfalls_game):
        rng = np.random.default_rng(1)
        game = siouxfalls_game
        x = rng.uniform(0, 10, game.num_links)
        o1 = rng.uniform(0, 10, game.num_links)
        o2 = rng.uniform(0, 10, game.num_links)
        assert player_cost(0, x, [o1, o2], game) == pytest.approx(
            player_cost(0, x, [o2, o1], game), rel=1e-15)

    def test_negative_flow_rejected(self, siouxfalls_game):
        x = np.zeros(siouxfalls_game.num_links)
        bad = x.copy()
        bad[3] = -1.0
        with pytest.raises(Exception):
            player_cost(0, bad, [x], siouxfalls_game)
        with pytest.raises(GameError, match="player 0, opponent 0: negative flow"):
            player_cost(0, x, [bad], siouxfalls_game)

    def test_wrong_length_rejected(self, siouxfalls_game):
        x = np.zeros(siouxfalls_game.num_links)
        short = np.zeros(siouxfalls_game.num_links - 1)
        with pytest.raises(GameError, match="player 0: flow vector must have length"):
            player_cost(0, short, [x], siouxfalls_game)
        with pytest.raises(GameError, match="player 0, opponent 0: flow vector must have length"):
            player_cost(0, x, [short], siouxfalls_game)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_non_finite_flow_rejected(self, siouxfalls_game, bad_value):
        # NaN and inf slipped past the sign check and came out as the cost
        x = np.zeros(siouxfalls_game.num_links)
        bad = x.copy()
        bad[3] = bad_value
        for evaluate in (player_cost, player_cost_gradient):
            with pytest.raises(GameError, match="player 0: non-finite flow"):
                evaluate(0, bad, [x], siouxfalls_game)
            with pytest.raises(GameError, match="player 0, opponent 0: non-finite flow"):
                evaluate(0, x, [bad], siouxfalls_game)


class TestGradient:
    def test_zero_own_flow(self):
        game = make_single_link_game(cap=1.0, fft=1.0, demand=1.0, players=2)
        t = np.array([0.7])
        g = player_cost_gradient(0, np.array([0.0]), [t], game)
        # a=1, b=1: the BPR travel time at the opponent's flow alone
        assert g[0] == pytest.approx(1.0 * (1.0 + 0.15 * 0.7 ** 4) / game.deltas[0])

    def test_single_link_hand_value(self):
        game = make_single_link_game(cap=1.0, fft=1.0, demand=1.0)
        g = player_cost_gradient(0, np.array([1.0]), [], game)
        assert g[0] == pytest.approx(1.75, abs=1e-12)

    def test_matches_central_differences(self, siouxfalls_game):
        game = siouxfalls_game
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(1.0, 50.0, game.num_links)
            opp = [rng.uniform(0.0, 50.0, game.num_links)]
            g = player_cost_gradient(0, x, opp, game)
            for j in rng.choice(game.num_links, size=8, replace=False):
                xp = x.copy(); xp[j] += h
                xm = x.copy(); xm[j] -= h
                fd = (player_cost(0, xp, opp, game) - player_cost(0, xm, opp, game)) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-5)


class TestConvexityAndMonotonicity:
    def test_midpoint_convexity(self, siouxfalls_game):
        game = siouxfalls_game
        rng = np.random.default_rng(3)
        for _ in range(200):
            x1 = rng.uniform(0.0, 40.0, game.num_links)
            x2 = rng.uniform(0.0, 40.0, game.num_links)
            opp = [rng.uniform(0.0, 40.0, game.num_links)]
            mid = player_cost(0, 0.5 * x1 + 0.5 * x2, opp, game)
            assert mid <= 0.5 * player_cost(0, x1, opp, game) \
                + 0.5 * player_cost(0, x2, opp, game) + 1e-9

    def test_monotone_congestion(self, siouxfalls_game):
        game = siouxfalls_game
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(0.0, 30.0, game.num_links)
            opp = rng.uniform(0.0, 30.0, game.num_links)
            extra = opp + rng.uniform(0.0, 30.0, game.num_links)
            assert player_cost(0, x, [opp], game) <= player_cost(0, x, [extra], game) + 1e-12


class TestBuildTrafficGame:
    def test_single_link_delta_gamma(self):
        net = parse_net(SINGLE_LINK.format(cap=5.0, fft=6.0, b=0.15, power=4))
        game = build_traffic_game(net, [PlayerSpec(1, 2, 1.0)])
        assert game.deltas[0] == pytest.approx(6.0)
        assert game.action_sets[0].budget_limit == pytest.approx(9.0)  # default factor 1.5

    def test_delta_is_shortest_path_times_demand(self, siouxfalls_net):
        rho = 3000.0
        game = build_traffic_game(siouxfalls_net, [PlayerSpec(1, 20, rho)])
        sp = label_correcting_shortest_path(siouxfalls_net, 1, 20)
        assert game.deltas[0] == pytest.approx(sp * rho, rel=1e-10)

    def test_bpr_law_from_the_file(self):
        # b 0.5 and power 2 on the link: 1 * (1 + 0.5 * 1 ** 2) at unit flow
        game = make_single_link_game(b=0.5, power=2)
        assert game.deltas[0] == 1.0
        assert player_cost(0, np.array([1.0]), [], game) == pytest.approx(1.5, abs=1e-15)
        # total flow 2 on capacity 1: 1 + 0.5 * 2 ** 2 per unit of own flow
        two = make_single_link_game(b=0.5, power=2, players=2)
        assert player_cost(0, np.array([1.0]), [np.array([1.0])], two) == pytest.approx(3.0)

    def test_mixed_powers_rejected(self):
        text = ("<NUMBER OF NODES> 3\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n"
                "1 2 1 1 1 0.15 4 0 0 1 ;\n2 3 1 1 1 0.15 2 0 0 1 ;\n")
        with pytest.raises(GameError, match="link 2->3: BPR power 2.0 differs"):
            build_traffic_game(parse_net(text), [PlayerSpec(1, 3, 1.0)])

    def test_first_link_at_fault_is_named(self):
        # link 1->2 fails only the last check, link 2->3 the first two
        text = ("<NUMBER OF NODES> 3\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n"
                "1 2 1 1 1 -0.15 4 0 0 1 ;\n2 3 1 1 1 0.15 2.5 0 0 1 ;\n")
        with pytest.raises(GameError, match="link 1->2: negative BPR coefficient b -0.15"):
            build_traffic_game(parse_net(text), [PlayerSpec(1, 3, 1.0)])

    @pytest.mark.parametrize("power", [2.5, 0])
    def test_power_must_be_a_positive_integer(self, power):
        net = parse_net(SINGLE_LINK.format(cap=1.0, fft=1.0, b=0.15, power=power))
        with pytest.raises(GameError, match="link 1->2: BPR power .* not a positive integer"):
            build_traffic_game(net, [PlayerSpec(1, 2, 1.0)])

    def test_negative_b_rejected(self):
        net = parse_net(SINGLE_LINK.format(cap=1.0, fft=1.0, b=-0.15, power=4))
        with pytest.raises(GameError, match="link 1->2: negative BPR coefficient"):
            build_traffic_game(net, [PlayerSpec(1, 2, 1.0)])

    def test_zero_free_flow_time_rejected(self):
        net = parse_net(SINGLE_LINK.format(cap=1.0, fft=0.0, b=0.15, power=4))
        with pytest.raises(InfeasibleDemand, match="nominal cost is not positive"):
            build_traffic_game(net, [PlayerSpec(1, 2, 1.0)])

    def test_infeasible_demand(self):
        net = parse_net(SINGLE_LINK.format(cap=1.0, fft=1.0, b=0.15, power=4))
        with pytest.raises(InfeasibleDemand, match="player 0: .* not routable"):
            build_traffic_game(net, [PlayerSpec(1, 2, 2.0)])

    def test_tightest_budget(self, siouxfalls_net):
        # budget_factor 1 puts each budget limit at the budget row's minimum
        # delta_i, so the budgeted set is the face of free-flow routings
        pairs = ((1, 20), (13, 8), (7, 24), (2, 19), (16, 3))
        game = build_traffic_game(siouxfalls_net,
                                  [PlayerSpec(o, d, 3000.0, budget_factor=1.0) for o, d in pairs])
        for P, delta in zip(game.action_sets, game.deltas):
            assert P.budget_limit == delta
            assert P._nominal.objective <= P.budget_limit
            assert P._nominal.objective == pytest.approx(delta, rel=1e-12)

    def test_action_sets_nonempty_and_budgeted(self, siouxfalls_game):
        for i, P in enumerate(siouxfalls_game.action_sets):
            sol = solve_lp(np.zeros(P.dim), P)
            assert contains(P, sol.point)
            assert P.budget_limit == pytest.approx(
                siouxfalls_game.players[i].budget_factor * siouxfalls_game.deltas[i])

    def test_delta_scales_with_fft(self, siouxfalls_net):
        # scaling every free-flow time by t scales delta by t and keeps the
        # minimizing vertex optimal
        from dataclasses import replace

        base = build_traffic_game(siouxfalls_net, [PlayerSpec(1, 20, 1000.0)])
        scaled_net = replace(siouxfalls_net, free_flow_time=3.0 * siouxfalls_net.free_flow_time)
        scaled = build_traffic_game(scaled_net, [PlayerSpec(1, 20, 1000.0)])
        assert scaled.deltas[0] == pytest.approx(3.0 * base.deltas[0], rel=1e-12)
        a_scaled = scaled_net.free_flow_time
        free = base.action_sets[0]
        sol_base = solve_lp(base.fft, free)
        assert float(a_scaled @ sol_base.point) == pytest.approx(scaled.deltas[0], rel=1e-10)


    def test_zones_carry_no_through_flow(self):
        # <FIRST THRU NODE> 3 makes nodes 1 and 2 zones; player 1->4 leaves
        # its own origin but may not pass through zone 2, so route 1->2->4 is
        # closed although it is the cheaper one, for delta as for the action set
        text = (DATA / "toy4_net.tntp").read_text().replace(
            "3 4 2.0 1 1 ", "3 4 2.0 1 2 ")  # route 1->3->4 now costs 3, not 2
        spec = PlayerSpec(1, 4, 1.0)
        through = build_traffic_game(parse_net(text), [spec])
        zoned = build_traffic_game(
            parse_net(text.replace("<FIRST THRU NODE> 1", "<FIRST THRU NODE> 3")), [spec])
        assert through.deltas[0] == 2.0 and zoned.deltas[0] == 3.0
        assert list(zoned.action_sets[0].upper) == [2.0, 0.0, 2.0, 2.0]  # 2->4 leaves zone 2
        cheap_route = np.array([1.0, 1.0, 5.0, 5.0])
        assert solve_lp(cheap_route, through.action_sets[0]).point \
            == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-12)
        assert solve_lp(cheap_route, zoned.action_sets[0]).point \
            == pytest.approx([0.0, 0.0, 1.0, 1.0], abs=1e-12)

    def test_first_thru_node_one_keeps_capacities(self, siouxfalls_net, siouxfalls_game):
        # Sioux Falls has no zone below its <FIRST THRU NODE> 1
        caps = siouxfalls_net.capacity.tobytes()
        assert all(P.upper.tobytes() == caps for P in siouxfalls_game.action_sets)

class TestMixtureHelpers:
    def test_matches_direct_sum(self, siouxfalls_game):
        # flows at the scale of the capacities (3000) make every power of
        # the moment expansion count
        game = siouxfalls_game
        rng = np.random.default_rng(5)
        N = 4
        for flow in (40.0, 3000.0):
            T = rng.uniform(0.0, flow, (N, game.num_links))
            w = rng.dirichlet(np.ones(N))
            fun, line_poly = game.mixture_best_response(0, w, T)
            y = rng.uniform(0.0, flow, game.num_links)
            val, grad = fun(y)
            direct = sum(w[k] * player_cost(0, y, [T[k]], game) for k in range(N))
            assert val == pytest.approx(direct, rel=1e-12)
            gsum = sum(w[k] * player_cost_gradient(0, y, [T[k]], game) for k in range(N))
            assert np.allclose(grad, gsum, rtol=1e-12, atol=0.0)

    def test_line_poly_exact(self, siouxfalls_game):
        # a Frank-Wolfe direction d = v - x keeps x + s d in-domain on [0, 1];
        # flows at the scale of the capacities make every power count
        game = siouxfalls_game
        rng = np.random.default_rng(6)
        N = 3
        T = rng.uniform(0.0, 3000.0, (N, game.num_links))
        w = rng.dirichlet(np.ones(N))
        fun, line_poly = game.mixture_best_response(1, w, T)
        x = rng.uniform(0.0, 3000.0, game.num_links)
        d = rng.uniform(0.0, 3000.0, game.num_links) - x
        coeffs = line_poly(x, d)
        assert coeffs.shape == (game.nu + 2,)
        for s in (0.0, 0.25, 0.5, 1.0):
            expect = fun(x + s * d)[0]
            got = float(np.polynomial.polynomial.polyval(s, coeffs))
            assert got == pytest.approx(expect, rel=1e-10)

    def test_line_poly_matches_loop(self, siouxfalls_game):
        # summation order differs from the loop's, so each coefficient may
        # move by rounding: within 1e-12 of the same sum over |terms|
        game = siouxfalls_game
        rng = np.random.default_rng(7)
        for i in range(game.num_players):
            T = rng.uniform(0.0, 3000.0, (5, game.num_links))
            w = rng.dirichlet(np.full(5, 0.3))
            x = rng.uniform(0.0, 3000.0, game.num_links)
            d = rng.uniform(0.0, 3000.0, game.num_links) - x
            got = game.mixture_best_response(i, w, T)[1](x, d)
            want = loop_line_poly(game, i, w, T, x, d)
            scale = loop_line_poly(game, i, w, T, x, np.abs(d))
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_line_poly_reuses_only_funs_current_point(self, siouxfalls_game):
        # line_poly is a pure function of its arguments: whatever fun saw, a
        # point changed in place gives the polynomial at the new point
        game = siouxfalls_game
        rng = np.random.default_rng(8)
        T = rng.uniform(0.0, 3000.0, (4, game.num_links))
        w = rng.dirichlet(np.ones(4))
        x = rng.uniform(0.0, 3000.0, game.num_links)
        d = rng.uniform(0.0, 3000.0, game.num_links) - x

        def fresh(x_):
            return game.mixture_best_response(1, w, T)[1](x_, d)

        fun, line_poly = game.mixture_best_response(1, w, T)
        fun(x)
        assert line_poly(x, d).tobytes() == fresh(x).tobytes()
        x *= 0.5
        changed = line_poly(x, d)
        assert changed.tobytes() == fresh(x).tobytes()
        assert changed.tobytes() != fresh(2.0 * x).tobytes()
