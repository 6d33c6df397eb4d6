"""Convex games and the multi-player traffic-assignment instance.

A convex game is m players, each minimizing a cost convex in its own
action over a closed convex action set; the cost may depend on the other
players' actions arbitrarily.  :class:`ConvexGame` carries the generic
callable form used by toy games in tests; :class:`TrafficGame` is the
concrete congestion game: players route fixed origin-destination demands
through a shared network, links price themselves by the BPR law
``a * (1 + lam * (total_flow / b)**nu)``, and each player's cost is its
own-flow-weighted link cost normalized by the player's free-flow optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, List, Optional, Sequence

import numpy as np

from cequil.polytope import TOL_FEAS, Polyhedron, solve_lp
from cequil.tntp import NetworkData, build_incidence

__all__ = [
    "ConvexGame",
    "PlayerSpec",
    "TrafficGame",
    "GameError",
    "InfeasibleDemand",
    "demand_vector",
    "player_cost",
    "player_cost_gradient",
    "build_traffic_game",
]


class GameError(ValueError):
    pass


class InfeasibleDemand(GameError):
    """A player's demand cannot be routed through the network."""


@dataclass(frozen=True)
class ConvexGame:
    """Generic convex game in callable form.

    ``cost(i, x_i, x_minus_i)`` returns player ``i``'s cost given its own
    action and the list of the other players' actions in increasing player
    order (player ``i`` omitted).  ``cost_gradient`` is the gradient with
    respect to ``x_i`` and must stay consistent with ``cost``.
    """

    num_players: int
    action_sets: List[Polyhedron]
    cost_fn: Callable[[int, np.ndarray, Sequence[np.ndarray]], float]
    gradient_fn: Callable[[int, np.ndarray, Sequence[np.ndarray]], np.ndarray]

    def cost(self, i: int, x_i, x_minus_i) -> float:
        return float(self.cost_fn(i, np.asarray(x_i, dtype=float), x_minus_i))

    def cost_gradient(self, i: int, x_i, x_minus_i) -> np.ndarray:
        return np.asarray(self.gradient_fn(i, np.asarray(x_i, dtype=float), x_minus_i),
                          dtype=float)


@dataclass(frozen=True)
class PlayerSpec:
    """Origin-destination demand for one player; node ids are 1-based.

    ``budget_factor`` is the headroom multiplier on the player's free-flow
    optimum that caps its nominal spend (budget row of the action set).
    """

    origin: int
    destination: int
    demand: float
    budget_factor: float = 1.5

    def __post_init__(self):
        if self.origin == self.destination:
            raise GameError("origin and destination must differ")
        if not (np.isfinite(self.demand) and self.demand > 0):
            raise GameError(f"demand must be positive and finite, got {self.demand}")
        if not (np.isfinite(self.budget_factor) and self.budget_factor >= 1.0):
            raise GameError(f"budget_factor must be finite and >= 1, got {self.budget_factor}")


def demand_vector(spec: PlayerSpec, num_nodes: int) -> np.ndarray:
    """Node balance vector: +demand at the origin, -demand at the destination."""
    if not (1 <= spec.origin <= num_nodes and 1 <= spec.destination <= num_nodes):
        raise GameError(
            f"node ids ({spec.origin}, {spec.destination}) outside [1, {num_nodes}]")
    s = np.zeros(num_nodes)
    s[spec.origin - 1] = spec.demand
    s[spec.destination - 1] = -spec.demand
    return s


class TrafficGame:
    """Multi-player traffic assignment with BPR link costs.

    Immutable after construction; all evaluations are pure.  ``fft`` plays
    the role of the nominal travel time vector and ``nominal_volume`` (the
    file's capacity column) the nominal traffic volume in the BPR law.
    """

    def __init__(self, net: NetworkData, incidence: np.ndarray,
                 players: Sequence[PlayerSpec], lam: float, nu: int,
                 deltas: Sequence[float], gammas: Sequence[float],
                 action_sets: Sequence[Polyhedron]):
        if int(nu) != nu or nu < 1:
            raise GameError("BPR exponent nu must be a positive integer")
        self.net = net
        self.incidence = incidence
        self.players = list(players)
        self.lam = float(lam)
        self.nu = int(nu)
        self.deltas = np.asarray(deltas, dtype=float)
        self.gammas = np.asarray(gammas, dtype=float)
        self.action_sets = list(action_sets)
        self.fft = net.free_flow_times()
        self.nominal_volume = net.capacities()
        self.num_players = len(self.players)
        self.num_links = net.num_links
        if np.any(self.deltas <= 0):
            raise GameError("every player must have a positive nominal cost")

    # -- generic convex-game surface -------------------------------------

    def cost(self, i: int, x_i, x_minus_i) -> float:
        return player_cost(i, x_i, x_minus_i, self)

    def cost_gradient(self, i: int, x_i, x_minus_i) -> np.ndarray:
        return player_cost_gradient(i, x_i, x_minus_i, self)

    # -- vectorized helpers for mixture best responses -------------------

    def mixture_best_response(self, i: int, weights: np.ndarray,
                              opp_totals: np.ndarray):
        """Objective ``y -> sum_k w_k f_i(y, scenario k)`` and its exact
        step polynomial.

        ``opp_totals`` has one row per scenario: the summed flow of the
        other players.  Returns ``(fun, line_poly)`` in the form
        :func:`cequil.polytope.frank_wolfe_min` consumes.
        """
        w = np.asarray(weights, dtype=float)
        T = np.asarray(opp_totals, dtype=float)
        a = self.fft
        lam, nu = self.lam, self.nu
        delta = self.deltas[i]
        coef = lam * a / self.nominal_volume ** nu  # per-link congestion weight

        def fun(y: np.ndarray):
            tot = y[None, :] + T
            pow_nu1 = tot ** (nu - 1)
            pow_nu = pow_nu1 * tot
            w4 = w @ pow_nu
            w3 = w @ pow_nu1
            value = (float(a @ y) + float(coef @ (y * w4))) / delta
            grad = (a + coef * (w4 + nu * y * w3)) / delta
            return value, grad

        binom = np.array([comb(nu, r) for r in range(nu + 1)], dtype=float)

        def line_poly(x: np.ndarray, d: np.ndarray) -> np.ndarray:
            # coefficients of s -> fun(x + s d)[0], exact (degree nu + 1)
            u = x[None, :] + T
            coeffs = np.zeros(nu + 2)
            coeffs[0] += float(a @ x)
            coeffs[1] += float(a @ d)
            d_pow = 1.0
            for r in range(nu + 1):
                p_r = binom[r] * (w @ (u ** (nu - r) * d_pow))
                wx = coef * p_r
                coeffs[r] += float(wx @ x)
                coeffs[r + 1] += float(wx @ d)
                d_pow = d_pow * d
            return coeffs / delta

        return fun, line_poly


def _check_flows(i, x_i, x_minus_i, game):
    # entries down to -TOL_FEAS are LP rounding, as contains() accepts them
    x_i = np.asarray(x_i, dtype=float)
    if x_i.shape != (game.num_links,):
        raise GameError(f"player {i}: flow vector must have length {game.num_links}")
    if np.any(x_i < -TOL_FEAS):
        raise GameError(f"player {i}: negative flow")
    others = []
    for x in x_minus_i:
        x = np.asarray(x, dtype=float)
        if x.shape != (game.num_links,):
            raise GameError("opponent flow vector has wrong length")
        if np.any(x < -TOL_FEAS):
            raise GameError("negative opponent flow")
        others.append(x)
    return x_i, others


def player_cost(i: int, x_i, x_minus_i, game: TrafficGame) -> float:
    """Own-flow-weighted BPR cost, normalized by the player's free-flow
    optimum; symmetric in the ordering of the opponents."""
    x_i, others = _check_flows(i, x_i, x_minus_i, game)
    total = x_i + (np.sum(others, axis=0) if others else 0.0)
    ell = game.fft * (1.0 + game.lam * (total / game.nominal_volume) ** game.nu)
    return float(x_i @ ell) / game.deltas[i]


def player_cost_gradient(i: int, x_i, x_minus_i, game: TrafficGame) -> np.ndarray:
    """Gradient of :func:`player_cost` in the player's own flow."""
    x_i, others = _check_flows(i, x_i, x_minus_i, game)
    total = x_i + (np.sum(others, axis=0) if others else 0.0)
    a, b = game.fft, game.nominal_volume
    ell = a * (1.0 + game.lam * (total / b) ** game.nu)
    bump = x_i * a * game.lam * game.nu * total ** (game.nu - 1) / b ** game.nu
    return (ell + bump) / game.deltas[i]


def build_traffic_game(net: NetworkData, players: Sequence[PlayerSpec],
                       lam: float = 0.15, nu: int = 4) -> TrafficGame:
    """Assemble the game: per-player flow polytopes, nominal costs, budgets.

    The nominal cost ``delta_i`` is the fft-weighted minimum-cost routing of
    the player's demand ignoring the budget row; the budget row then caps
    nominal spend at ``budget_factor * delta_i``.
    """
    E = build_incidence(net)
    caps = net.capacities()
    a = net.free_flow_times()
    deltas, gammas, sets = [], [], []
    for i, spec in enumerate(players):
        s_i = demand_vector(spec, net.num_nodes)
        free = Polyhedron(E, s_i, np.zeros(net.num_links), caps)
        sol = solve_lp(a, free)
        if sol.status != "optimal":
            raise InfeasibleDemand(
                f"player {i}: demand {spec.demand} from {spec.origin} to "
                f"{spec.destination} is not routable ({sol.status})")
        delta = sol.objective
        if delta <= 0:
            raise InfeasibleDemand(f"player {i}: nominal cost is not positive")
        gamma = spec.budget_factor * delta
        deltas.append(delta)
        gammas.append(gamma)
        sets.append(Polyhedron(E, s_i, np.zeros(net.num_links), caps, a, gamma))
    return TrafficGame(net, E, players, lam, nu, deltas, gammas, sets)
