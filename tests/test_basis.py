import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import cequil.basis
from cequil.basis import (
    basis_from_text,
    basis_to_text,
    ccp_select,
    load_basis,
    min_pairwise_distance,
    random_basis,
    save_basis,
)
from cequil.game import ConvexGame, PlayerSpec, build_traffic_game
from cequil.polytope import TOL_FEAS, Polyhedron, contains
from cequil.regret import BasisSet
from cequil.tntp import parse_net

DATA = Path(__file__).parent / "data"


def null_game(action_sets):
    def cost(i, x, xm):
        return 0.0

    def grad(i, x, xm):
        return np.zeros_like(x)

    return ConvexGame(len(action_sets), action_sets, cost, grad)


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
                assert contains(game.action_sets[i], x, 1e-7)

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
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))

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
                assert contains(P, joint[0], 1e-7)

    def test_needs_two_actions(self):
        game = null_game([Polyhedron.interval(0.0, 1.0)])
        with pytest.raises(ValueError):
            ccp_select(game, 1)

    def test_deterministic(self):
        game = null_game([Polyhedron.box([0.0, 0.0], [1.0, 3.0])])
        b1, _ = ccp_select(game, 3, seed=9)
        b2, _ = ccp_select(game, 3, seed=9)
        for j1, j2 in zip(b1.actions, b2.actions):
            assert (j1[0] == j2[0]).all()


@pytest.fixture(scope="module")
def siouxfalls_ccp():
    """ccp_select on Sioux Falls (3 players, N=3, seed 0) and every master LP it solved."""
    net = parse_net((DATA / "siouxfalls_net.tntp").read_text())
    game = build_traffic_game(net, [PlayerSpec(1, 20, 3000.0), PlayerSpec(13, 8, 3000.0),
                                    PlayerSpec(7, 24, 3000.0)])
    calls = []

    def recording_linprog(c, **kwargs):
        calls.append(dict(kwargs, c=np.array(c)))
        return linprog(c, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cequil.basis, "linprog", recording_linprog)
        _, trace = ccp_select(game, 3, seed=0)
    return game, trace, calls


class TestCcpMasterLp:
    def test_siouxfalls_objectives_pinned(self, siouxfalls_ccp):
        # bitwise: any change to the LP handed to HiGHS, row order included,
        # may move the trajectory
        _, trace, calls = siouxfalls_ccp
        assert [obj for _, obj in trace.iterates] == [
            60000.00000000002, 97401.50078988941, 97759.79381443298, 97759.79381443298]
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


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        basis = BasisSet([
            [rng.uniform(size=3), rng.uniform(size=2)]
            for _ in range(4)
        ])
        text = basis_to_text(basis)
        again = basis_from_text(text)
        assert again.size == basis.size
        for j1, j2 in zip(basis.actions, again.actions):
            for x, y in zip(j1, j2):
                assert (x == y).all()

    def test_file_roundtrip_siouxfalls(self, siouxfalls_ccp, tmp_path):
        # LP vertices carry rounding noise such as -1e-13; every value must
        # come back with the same bits
        game, trace, _ = siouxfalls_ccp
        bases = {"ccp": trace.iterates[-1][0], "random": random_basis(game, 5, seed=1)}
        for name, basis in bases.items():
            path = tmp_path / f"{name}.basis"
            save_basis(basis, path)
            again = load_basis(path)
            assert (again.size, again.num_players) == (basis.size, basis.num_players)
            for j1, j2 in zip(basis.actions, again.actions):
                assert [x.tobytes() for x in j1] == [y.tobytes() for y in j2]

    def test_malformed_header(self):
        with pytest.raises(ValueError):
            basis_from_text("nonsense 3\n")

    def test_wrong_dimension(self):
        text = "actions 1\nplayers 1\ndims 2\naction 1\nplayer 1 0.5\n"
        with pytest.raises(ValueError):
            basis_from_text(text)

    def test_too_many_players(self):
        text = ("actions 1\nplayers 2\ndims 1 1\naction 1\n"
                "player 1 0.5\nplayer 2 0.5\nplayer 3 0.5\n")
        with pytest.raises(ValueError, match="action 1"):
            basis_from_text(text)

    def test_too_few_players(self):
        text = ("actions 2\nplayers 2\ndims 1 1\naction 1\nplayer 1 0.5\n"
                "action 2\nplayer 1 0.5\nplayer 2 0.5\n")
        with pytest.raises(ValueError, match="action 1"):
            basis_from_text(text)
        with pytest.raises(ValueError, match="action 1"):
            basis_from_text("actions 1\nplayers 2\ndims 1 1\naction 1\nplayer 1 0.5\n")

    def test_players_out_of_order(self):
        text = ("actions 1\nplayers 2\ndims 1 1\naction 1\n"
                "player 2 0.5\nplayer 1 0.25\n")
        with pytest.raises(ValueError, match="action 1: expected 'player 1'"):
            basis_from_text(text)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value(self, token):
        text = ("actions 1\nplayers 2\ndims 1 2\naction 1\n"
                f"player 1 0.5\nplayer 2 0.25 {token}\n")
        with pytest.raises(ValueError, match=f"action 1: player 2 has non-finite value '{token}'"):
            basis_from_text(text)

    def test_actions_out_of_order(self):
        block = "player 1 0.5\n"
        text = "actions 2\nplayers 1\ndims 1\naction 2\n" + block + "action 1\n" + block
        with pytest.raises(ValueError, match="expected 'action 1'"):
            basis_from_text(text)
        with pytest.raises(ValueError, match="expected 'action 2'"):
            basis_from_text("actions 2\nplayers 1\ndims 1\n" + ("action 1\n" + block) * 2)

    def test_player_before_first_action(self):
        with pytest.raises(ValueError, match="player"):
            basis_from_text("actions 1\nplayers 1\ndims 1\nplayer 1 0.5\naction 1\n")

    def test_wrong_count(self):
        text = "actions 2\nplayers 1\ndims 1\naction 1\nplayer 1 0.5\n"
        with pytest.raises(ValueError):
            basis_from_text(text)
