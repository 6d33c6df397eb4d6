import itertools

import numpy as np
import pytest

from cequil.basis import (
    basis_from_text,
    basis_to_text,
    ccp_select,
    min_pairwise_distance,
    random_basis,
)
from cequil.game import ConvexGame
from cequil.polytope import Polyhedron, contains
from cequil.regret import BasisSet


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

    def test_wrong_count(self):
        text = "actions 2\nplayers 1\ndims 1\naction 1\nplayer 1 0.5\n"
        with pytest.raises(ValueError):
            basis_from_text(text)
