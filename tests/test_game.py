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

SINGLE_LINK = (
    "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n"
    "1 2 {cap} 1 {fft} 0.15 4 0 0 1 ;\n"
)


def make_single_link_game(cap=1.0, fft=1.0, demand=1.0, players=1):
    net = parse_net(SINGLE_LINK.format(cap=cap, fft=fft))
    specs = [PlayerSpec(1, 2, demand) for _ in range(players)]
    return build_traffic_game(net, specs, lam=0.15, nu=4)


def label_correcting_shortest_path(net, origin, destination):
    """Independent oracle: Bellman-Ford label correcting on free-flow times."""
    INF = float("inf")
    dist = [INF] * (net.num_nodes + 1)
    dist[origin] = 0.0
    for _ in range(net.num_nodes):
        changed = False
        for rec in net.links:
            alt = dist[rec.init_node] + rec.free_flow_time
            if alt < dist[rec.term_node] - 1e-15:
                dist[rec.term_node] = alt
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
        # a=1, b=2, lam=.15, nu=4, total=1+1 -> 1.15 per unit of own flow
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
        net = parse_net(SINGLE_LINK.format(cap=5.0, fft=6.0))
        game = build_traffic_game(net, [PlayerSpec(1, 2, 1.0)])
        assert game.deltas[0] == pytest.approx(6.0)
        assert game.gammas[0] == pytest.approx(9.0)  # default budget factor 1.5

    def test_delta_is_shortest_path_times_demand(self, siouxfalls_net):
        rho = 3000.0
        game = build_traffic_game(siouxfalls_net, [PlayerSpec(1, 20, rho)])
        sp = label_correcting_shortest_path(siouxfalls_net, 1, 20)
        assert game.deltas[0] == pytest.approx(sp * rho, rel=1e-10)

    def test_infeasible_demand(self):
        net = parse_net(SINGLE_LINK.format(cap=1.0, fft=1.0))
        with pytest.raises(InfeasibleDemand) as exc:
            build_traffic_game(net, [PlayerSpec(1, 2, 2.0)])
        assert "player 0" in str(exc.value)

    def test_action_sets_nonempty_and_budgeted(self, siouxfalls_game):
        for i, P in enumerate(siouxfalls_game.action_sets):
            sol = solve_lp(np.zeros(P.dim), P)
            assert sol.status == "optimal"
            assert contains(P, sol.point, 1e-7)
            assert P.budget_limit == pytest.approx(siouxfalls_game.gammas[i])

    def test_delta_scales_with_fft(self, siouxfalls_net):
        # scaling every free-flow time by t scales delta by t and keeps the
        # minimizing vertex optimal
        from dataclasses import replace

        base = build_traffic_game(siouxfalls_net, [PlayerSpec(1, 20, 1000.0)])
        scaled_links = [replace(rec, free_flow_time=3.0 * rec.free_flow_time)
                        for rec in siouxfalls_net.links]
        scaled_net = replace(siouxfalls_net, links=scaled_links)
        scaled = build_traffic_game(scaled_net, [PlayerSpec(1, 20, 1000.0)])
        assert scaled.deltas[0] == pytest.approx(3.0 * base.deltas[0], rel=1e-12)
        a_scaled = scaled_net.free_flow_times()
        free = base.action_sets[0]
        sol_base = solve_lp(base.fft, free)
        assert float(a_scaled @ sol_base.point) == pytest.approx(scaled.deltas[0], rel=1e-10)


class TestMixtureHelpers:
    def test_matches_direct_sum(self, siouxfalls_game):
        game = siouxfalls_game
        rng = np.random.default_rng(5)
        N = 4
        T = rng.uniform(0.0, 40.0, (N, game.num_links))
        w = rng.dirichlet(np.ones(N))
        fun, line_poly = game.mixture_best_response(0, w, T)
        y = rng.uniform(0.0, 40.0, game.num_links)
        val, grad = fun(y)
        direct = sum(w[k] * player_cost(0, y, [T[k]], game) for k in range(N))
        assert val == pytest.approx(direct, rel=1e-12)
        gsum = sum(w[k] * player_cost_gradient(0, y, [T[k]], game) for k in range(N))
        assert np.allclose(grad, gsum, rtol=1e-12)

    def test_line_poly_exact(self, siouxfalls_game):
        game = siouxfalls_game
        rng = np.random.default_rng(6)
        N = 3
        T = rng.uniform(0.0, 30.0, (N, game.num_links))
        w = rng.dirichlet(np.ones(N))
        fun, line_poly = game.mixture_best_response(1, w, T)
        x = rng.uniform(0.0, 20.0, game.num_links)
        d = rng.uniform(-5.0, 5.0, game.num_links)
        coeffs = line_poly(x, d)
        for s in (0.0, 0.25, 0.5, 1.0):
            y = x + s * d
            y[y < 0] = 0.0  # keep the direct evaluation in-domain
            if np.any(x + s * d < 0):
                continue
            expect = fun(x + s * d)[0]
            got = float(np.polynomial.polynomial.polyval(s, coeffs))
            assert got == pytest.approx(expect, rel=1e-10)
