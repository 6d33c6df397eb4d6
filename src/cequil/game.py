"""Convex games and the multi-player traffic-assignment instance.

A convex game is m players, each minimizing a cost convex in its own
action over a closed convex action set; the cost may depend on the other
players' actions arbitrarily.  :class:`ConvexGame` carries the generic
callable form used by toy games in tests; :class:`TrafficGame` is the
concrete congestion game: players route fixed origin-destination demands
through a shared network, links price themselves by the BPR law
``fft * (1 + b * (total_flow / capacity)**power)`` with each link's ``b``
and the ``power`` all links share, both read from the network file, and
each player's cost is its own-flow-weighted link cost normalized by the
player's free-flow optimum.

Each game builds the objective ``y -> sum_k w_k f_i(y, x_-i^k)`` that a
regret query minimizes: ``opponent_data`` condenses the scenarios
``x_-i^k`` once per basis, and ``mixture_best_response`` does the rest.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from numbers import Real
from typing import Callable, List, Sequence

import numpy as np

from cequil.polytope import TOL_FEAS, InfeasibleError, Polyhedron, solve_lp
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


@dataclass(frozen=True, eq=False)
class ConvexGame:
    """Generic convex game in callable form, one player per action set.

    ``cost(i, x_i, x_minus_i)`` returns player ``i``'s cost given its own
    action and the list of the other players' actions in increasing player
    order (player ``i`` omitted).  ``gradient_fn``, with the same
    arguments, returns the gradient with respect to ``x_i`` and must stay
    consistent with ``cost_fn``.
    """

    action_sets: List[Polyhedron]
    cost_fn: Callable[[int, np.ndarray, Sequence[np.ndarray]], float]
    gradient_fn: Callable[[int, np.ndarray, Sequence[np.ndarray]], np.ndarray]

    @property
    def num_players(self) -> int:
        return len(self.action_sets)

    def cost(self, i: int, x_i, x_minus_i) -> float:
        return float(self.cost_fn(i, np.asarray(x_i, dtype=float), x_minus_i))

    def opponent_data(self, scenarios):
        """The scenarios' opponent action lists, kept as they are."""
        return scenarios

    def mixture_best_response(self, i: int, weights: np.ndarray, scenarios):
        """Objective ``y -> sum_k w_k f_i(y, scenarios[k])``, summed over
        the nonzero weights on every call, and no step polynomial.  A
        weight that the oracle's tolerance lets fall below 0 is counted, as
        the expected cost counts it."""
        active = [(float(wk), opp) for wk, opp in zip(weights, scenarios) if wk != 0.0]

        def fun(y: np.ndarray):
            val = 0.0
            grad = np.zeros_like(y)
            for wk, opp in active:
                val += wk * self.cost(i, y, opp)
                grad += wk * np.asarray(self.gradient_fn(i, np.asarray(y, dtype=float), opp),
                                        dtype=float)
            return val, grad

        return fun, None


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
        for node in (self.origin, self.destination):
            try:
                operator.index(node)
            except TypeError:
                raise GameError(f"node ids must be integers, got {node!r}") from None
        if self.origin == self.destination:
            raise GameError("origin and destination must differ")
        if not (isinstance(self.demand, Real) and np.isfinite(self.demand)
                and self.demand > 0):
            raise GameError(f"demand must be positive and finite, got {self.demand}")
        if not (isinstance(self.budget_factor, Real) and np.isfinite(self.budget_factor)
                and self.budget_factor >= 1.0):
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

    Built and checked by :func:`build_traffic_game`; immutable after
    construction, and all evaluations are pure.  Per link, ``fft`` is the
    nominal travel time, ``nominal_volume`` (the file's capacity column) the
    nominal traffic volume and ``lam`` the file's BPR coefficient ``b``;
    ``nu`` is the BPR power all links share.
    """

    def __init__(self, players: Sequence[PlayerSpec], fft: np.ndarray,
                 nominal_volume: np.ndarray, lam: np.ndarray, nu: int,
                 deltas: Sequence[float], action_sets: Sequence[Polyhedron]):
        self.players = list(players)
        self.fft = fft
        self.nominal_volume = nominal_volume
        self.lam = lam
        self.nu = nu
        self.deltas = np.asarray(deltas, dtype=float)
        self.action_sets = list(action_sets)
        self.num_players = len(self.players)
        self.num_links = fft.size
        # M_(nu - r) enters degree r + 1 weighted C(nu, r) lam fft / volume**nu;
        # taylor[m, r] = C(m + r, r) weights degree m + r (row nu + 2 is 0)
        binom = np.array([comb(nu, r) for r in range(nu + 1)], dtype=float)
        self._lift = binom[:, None] * (lam * fft / nominal_volume ** nu)
        deg = np.arange(nu + 2)
        self._hankel = np.minimum(deg[:, None] + deg, nu + 2)
        self._taylor = np.array([[comb(m + r, r) for r in deg] for m in deg], dtype=float)

    # -- generic convex-game surface -------------------------------------

    def cost(self, i: int, x_i, x_minus_i) -> float:
        return player_cost(i, x_i, x_minus_i, self)

    def opponent_data(self, scenarios) -> np.ndarray:
        """One row per scenario: its opponents' summed flows (zeros if none)."""
        return np.stack([np.sum(opp, axis=0) if opp else np.zeros(self.num_links)
                         for opp in scenarios])

    def mixture_best_response(self, i: int, weights: np.ndarray,
                              opp_totals: np.ndarray):
        """Objective ``y -> sum_k w_k f_i(y, scenario k)`` and its exact
        step polynomial, given the opponents' summed flows ``T_k`` as rows.
        It is ``sum_l P_l(y_l)``, each ``P_l`` of degree ``nu + 1`` with
        coefficients in the moments ``M_j = sum_k w_k T_k**j``; for
        nonnegative flows no term is negative, so nothing cancels."""
        nu = self.nu
        moments = np.asarray(weights, dtype=float) @ _power_rows(np.asarray(opp_totals), nu + 1)
        coeffs = np.zeros((nu + 3, self.num_links))  # coeffs[j] multiplies y**j
        coeffs[1:nu + 2] = self._lift * moments[::-1]
        coeffs[1] += self.fft
        coeffs /= self.deltas[i]
        # sum_m taylor[m, r] x**m is the s**r coefficient of P(x + s)
        taylor = self._taylor[:, :, None] * coeffs[self._hankel]

        def fun(y: np.ndarray):
            q = np.einsum("mrl,ml->rl", taylor[:, :2], _power_rows(y, nu + 2))
            return float(q[0].sum()), q[1]

        def line_poly(x: np.ndarray, d: np.ndarray) -> np.ndarray:
            return np.einsum("mrl,ml,rl->r", taylor, _power_rows(x, nu + 2),
                             _power_rows(d, nu + 2))

        return fun, line_poly


def _power_rows(v: np.ndarray, n: int) -> np.ndarray:
    """``out[j] = v**j`` for ``j < n``, each row one product from the last."""
    out = np.ones((n,) + v.shape)
    for j in range(1, n):
        np.multiply(out[j - 1], v, out=out[j])
    return out


def _checked_flow(x, owner: str, num_links: int) -> np.ndarray:
    """``x`` as a float array, or a :class:`GameError` naming ``owner``."""
    # entries down to -TOL_FEAS are LP rounding, as contains() accepts them
    x = np.asarray(x, dtype=float)
    if x.shape != (num_links,):
        raise GameError(f"{owner}: flow vector must have length {num_links}")
    if not np.isfinite(x).all():
        raise GameError(f"{owner}: non-finite flow")
    if np.any(x < -TOL_FEAS):
        raise GameError(f"{owner}: negative flow")
    return x


def _check_flows(i, x_i, x_minus_i, game):
    """``(x_i, total, ell)``: the checked flow, each link's total, its BPR cost."""
    x_i = _checked_flow(x_i, f"player {i}", game.num_links)
    others = [_checked_flow(x, f"player {i}, opponent {j}", game.num_links)
              for j, x in enumerate(x_minus_i)]
    total = x_i + (np.sum(others, axis=0) if others else 0.0)
    ell = game.fft * (1.0 + game.lam * (total / game.nominal_volume) ** game.nu)
    return x_i, total, ell


def player_cost(i: int, x_i, x_minus_i, game: TrafficGame) -> float:
    """Own-flow-weighted BPR cost, normalized by the player's free-flow
    optimum; symmetric in the ordering of the opponents."""
    x_i, _, ell = _check_flows(i, x_i, x_minus_i, game)
    return float(x_i @ ell) / game.deltas[i]


def player_cost_gradient(i: int, x_i, x_minus_i, game: TrafficGame) -> np.ndarray:
    """Gradient of :func:`player_cost` in the player's own flow."""
    x_i, total, ell = _check_flows(i, x_i, x_minus_i, game)
    a, b = game.fft, game.nominal_volume
    bump = x_i * a * game.lam * game.nu * total ** (game.nu - 1) / b ** game.nu
    return (ell + bump) / game.deltas[i]


def _bpr_power(net: NetworkData) -> int:
    """The BPR power all links share, after checking that it is a positive
    integer and that no link's coefficient ``b`` is negative."""
    power = net.power
    nu = float(power[0])
    integral = (power >= 1) & (power == np.floor(power))
    bad = ~integral | (power != nu) | (net.b < 0)
    if bad.any():
        # the first link at fault, named by its first failed check
        k = int(np.argmax(bad))
        link = f"link {net.init_node[k]}->{net.term_node[k]}"
        if not integral[k]:
            raise GameError(f"{link}: BPR power {float(power[k])!r} is not a positive integer")
        if power[k] != nu:
            raise GameError(f"{link}: BPR power {float(power[k])!r} differs from the first "
                            f"link's {nu!r}")
        raise GameError(f"{link}: negative BPR coefficient b {float(net.b[k])!r}")
    return int(nu)


def build_traffic_game(net: NetworkData, players: Sequence[PlayerSpec]) -> TrafficGame:
    """Assemble the game: per-player flow polytopes, nominal costs, budgets.

    The game reads the network's arrays as they are: ``free_flow_time`` is
    its ``fft``, ``capacity`` its ``nominal_volume`` and every player's
    upper bounds, and ``b`` its ``lam``.  The BPR ``power`` all links share
    must be a positive integer and no ``b`` may be negative
    (:class:`GameError` otherwise).  The nominal cost ``delta_i`` is the
    fft-weighted minimum-cost routing of the player's demand ignoring the
    budget row; the budget row then caps nominal spend at
    ``budget_factor * delta_i``.  Nodes numbered below the file's
    ``<FIRST THRU NODE>`` are zones, which flow may not pass through: in
    both of a player's polytopes, every link leaving a zone other than the
    player's origin is bounded to 0.  A demand the capacities cannot route
    leaves the unbudgeted polytope empty and raises
    :class:`InfeasibleDemand`.
    """
    nu = _bpr_power(net)
    E = build_incidence(net)
    tails, fft = net.init_node, net.free_flow_time
    deltas, sets = [], []
    for i, spec in enumerate(players):
        s_i = demand_vector(spec, net.num_nodes)
        upper = np.where((tails < net.first_thru_node) & (tails != spec.origin), 0.0,
                         net.capacity)
        try:
            free = Polyhedron(E, s_i, np.zeros(net.num_links), upper)
        except InfeasibleError as exc:
            raise InfeasibleDemand(
                f"player {i}: demand {spec.demand} from {spec.origin} to "
                f"{spec.destination} is not routable") from exc
        delta = solve_lp(fft, free).objective
        if delta <= 0:
            raise InfeasibleDemand(f"player {i}: nominal cost is not positive")
        deltas.append(delta)
        sets.append(Polyhedron(E, s_i, np.zeros(net.num_links), upper, fft,
                               spec.budget_factor * delta))
    return TrafficGame(players, fft, net.capacity, net.b, nu, deltas, sets)
