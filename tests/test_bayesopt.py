import hashlib
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.special import ndtr

from cequil import bayesopt
from cequil.bayesopt import (
    N_INIT,
    NUM_CANDIDATES,
    NUM_POLISH,
    GpError,
    OracleFailure,
    _INV_SQRT_2PI,
    _SQRT5,
    _ei_gradient,
    _factorize,
    _posterior_ei,
    bo_learn,
    log_marginal_likelihood,
    maximize_acquisition,
)
from cequil.polytope import project_simplex
from cequil.regret import RegretOracle

from harness import spy_on

TARGET = np.array([0.6, 0.3, 0.1])
LENGTHSCALE = 0.5


def bowl(w):
    return float(np.sum((np.asarray(w) - TARGET) ** 2))


def history(n=6, N=3, seed=0):
    """Inputs and outputs of a bowl, standardized as bo_learn standardizes them."""
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(N), size=n)
    target = TARGET if N == 3 else np.full(N, 1.0 / N)
    eta = np.sum((W - target) ** 2, axis=1)
    return W, (eta - eta.mean()) / eta.std()


class GpPosterior(NamedTuple):
    mean: float
    variance: float


def matern52(r, lengthscale):
    q = np.sqrt(5.0) * r / lengthscale
    return (1.0 + q + q * q / 3.0) * np.exp(-q)


def gp_posterior(W, eta, lengthscale, w) -> GpPosterior:
    """Exact posterior mean and variance at one candidate point, with every
    distance taken pair by pair and the noisy kernel matrix solved by LU, so
    nothing is shared with the kernel under test."""
    n = len(W)
    K = np.array([[matern52(np.linalg.norm(W[i] - W[j]), lengthscale) for j in range(n)]
                  for i in range(n)])
    K += bayesopt.NOISE_SIGMA ** 2 * np.eye(n)
    c = np.array([matern52(np.linalg.norm(w - W[i]), lengthscale) for i in range(n)])
    alpha, beta = np.linalg.solve(K, np.column_stack([eta, c])).T
    return GpPosterior(float(c @ alpha), max(float(1.0 - c @ beta), 0.0))


def expected_improvement(post: GpPosterior, best_observed: float) -> float:
    """Closed-form EI in minimization form, zero at zero posterior deviation."""
    rho = np.sqrt(post.variance)
    if rho == 0.0:
        return 0.0
    z = (best_observed - post.mean) / rho
    return float((best_observed - post.mean) * ndtr(z) + rho * np.exp(-0.5 * z * z) * _INV_SQRT_2PI)


def reference_ei(W, eta, w):
    """The scalar path: exact posterior, then closed-form EI."""
    return expected_improvement(gp_posterior(W, eta, LENGTHSCALE, w), float(min(eta)))


def ei_and_grad(W_cand, W, L, alpha, lengthscale, best):
    """EI and its gradient at each row of W_cand, as the search takes them:
    the gradient from the terms of the batch that scored the rows."""
    ei, terms = _posterior_ei(W_cand, W, L, alpha, lengthscale, best)
    return ei, _ei_gradient(W_cand, terms, W, L, alpha, lengthscale)


def dC_tensor_ei_and_grad(W_cand, W, L, alpha, lengthscale, best):
    """The kernel as it stood before the fused gradient: the B x n x N
    derivative tensor dC contracted by two einsums, beta from cho_solve."""
    diff = W_cand[:, None, :] - W[None, :, :]
    q = _SQRT5 * np.sqrt(np.sum(diff * diff, axis=-1)) / lengthscale
    e = np.exp(-q)
    C = (1.0 + q + q * q / 3.0) * e
    dC = (-5.0 / (3.0 * lengthscale ** 2)) * ((1.0 + q) * e)[:, :, None] * diff
    beta = cho_solve((L, True), C.T).T
    mean = C @ alpha
    rho = np.sqrt(np.maximum(1.0 - np.sum(C * beta, axis=1), 0.0))
    seen = rho <= 1e-15
    rho = np.where(seen, 1.0, rho)
    z = (best - mean) / rho
    cdf = ndtr(z)
    pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    ei = np.where(seen, 0.0, (best - mean) * cdf + rho * pdf)
    dmean = np.einsum("bnk,n->bk", dC, alpha)
    dvar = -2.0 * np.einsum("bnk,bn->bk", dC, beta)
    grad = -cdf[:, None] * dmean + (pdf / (2.0 * rho))[:, None] * dvar
    return ei, np.where(seen[:, None], 0.0, grad)


class TestAcquisitionKernels:
    @pytest.fixture(autouse=True)
    def noise(self, monkeypatch):
        monkeypatch.setattr(bayesopt, "NOISE_SIGMA", 1e-3)

    @pytest.mark.parametrize("n, N, seed", [(6, 3, 0), (10, 5, 3), (20, 5, 4), (40, 5, 1)])
    def test_fused_gradient_matches_dC_tensor(self, n, N, seed):
        W, eta = history(n=n, N=N, seed=seed)
        W, L, alpha = _factorize(W, eta, LENGTHSCALE)
        best = min(eta)
        cands = np.random.default_rng(seed + 10).dirichlet(np.ones(N), size=512)
        ei, grad = ei_and_grad(cands, W, L, alpha, LENGTHSCALE, best)
        ref_ei, ref_grad = dC_tensor_ei_and_grad(cands, W, L, alpha, LENGTHSCALE, best)
        assert np.abs(ei - ref_ei).max() <= 1e-10 * np.abs(ref_ei).max()
        assert np.abs(grad - ref_grad).max() <= 1e-10 * np.abs(ref_grad).max()

    def test_one_triangular_solve_per_ei_batch_and_two_per_gradient(self, monkeypatch, spy):
        def forbidden(*args, **kwargs):
            raise AssertionError("the kernel must solve with dtrtrs alone")

        W, eta = history()
        W, L, alpha = _factorize(W, eta, LENGTHSCALE)
        calls = spy(bayesopt, "dtrtrs")
        for name in ("dpotrs", "cho_solve"):
            monkeypatch.setattr(bayesopt, name, forbidden, raising=False)
        cands = np.random.default_rng(5).dirichlet(np.ones(3), size=8)
        _, terms = _posterior_ei(cands, W, L, alpha, LENGTHSCALE, min(eta))
        assert [call.kwargs.get("trans", 0) for call in calls] == [0]  # v = L^-1 C'
        calls.clear()
        # the gradient reuses the scoring batch's v and solves only for
        # beta = L^-T v
        _ei_gradient(cands, terms, W, L, alpha, LENGTHSCALE)
        assert [call.kwargs.get("trans", 0) for call in calls] == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate_rejected(self, bad):
        W, eta = history()
        W, L, alpha = _factorize(W, eta, LENGTHSCALE)
        cands = np.full((4, 3), 1.0 / 3.0)
        cands[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            _posterior_ei(cands, W, L, alpha, LENGTHSCALE, min(eta))

    def test_batch_matches_scalar(self):
        W, eta = history()
        W, L, alpha = _factorize(W, eta, LENGTHSCALE)
        cands = np.random.default_rng(1).dirichlet(np.ones(3), size=20)
        batch, grad = ei_and_grad(cands, W, L, alpha, LENGTHSCALE, min(eta))
        assert batch.shape == (20,) and grad.shape == (20, 3)
        ref = [reference_ei(W, eta, w) for w in cands]
        assert batch == pytest.approx(ref, rel=1e-9, abs=1e-15)

    def test_value_matches_scalar(self):
        W, eta = history()
        W, L, alpha = _factorize(W, eta, LENGTHSCALE)
        for w in np.random.default_rng(2).dirichlet(np.ones(3), size=10):
            val, _ = _posterior_ei(w[None], W, L, alpha, LENGTHSCALE, min(eta))
            assert val[0] == pytest.approx(reference_ei(W, eta, w), rel=1e-9, abs=1e-15)

    def test_late_round_at_production_noise_matches_scalar(self, monkeypatch):
        # the size of a late learn round, at the production noise; every
        # candidate's posterior deviation is above 0.02.  Near the noise
        # floor 1 - |v|^2 cancels, and any float64 evaluation, the
        # reference's included, is off by about 1e-4 relative there
        monkeypatch.setattr(bayesopt, "NOISE_SIGMA", 1e-6)
        W, eta = history(n=40, N=5, seed=0)
        W, L, alpha = _factorize(W, eta, LENGTHSCALE)
        cands = np.random.default_rng(1).dirichlet(np.ones(5), size=20)
        batch, _ = _posterior_ei(cands, W, L, alpha, LENGTHSCALE, min(eta))
        assert np.count_nonzero(batch > 1e-6) >= 3
        ref = [reference_ei(W, eta, w) for w in cands]
        assert batch == pytest.approx(ref, rel=1e-9, abs=1e-15)

    def test_gradient_matches_central_differences(self):
        W, eta = history()
        W, L, alpha = _factorize(W, eta, LENGTHSCALE)
        best = min(eta)
        h = 1e-6
        checked = 0
        for w in np.random.default_rng(3).dirichlet(np.ones(3), size=40):
            val, grad = ei_and_grad(w[None], W, L, alpha, LENGTHSCALE, best)
            if val[0] < 1e-4:
                continue  # EI and its gradient underflow far from the incumbent
            checked += 1
            numeric = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                hi, _ = _posterior_ei((w + e)[None], W, L, alpha, LENGTHSCALE, best)
                lo, _ = _posterior_ei((w - e)[None], W, L, alpha, LENGTHSCALE, best)
                numeric[j] = (hi[0] - lo[0]) / (2.0 * h)
            assert grad[0] == pytest.approx(numeric, rel=1e-5, abs=1e-9)
        assert checked >= 5

    def test_ei_vanishes_at_observations_as_noise_vanishes(self, monkeypatch):
        W, eta = history()
        worst = []
        for sigma in (1e-2, 1e-4, 1e-6):
            monkeypatch.setattr(bayesopt, "NOISE_SIGMA", sigma)
            W, L, alpha = _factorize(W, eta, LENGTHSCALE)
            ei, _ = _posterior_ei(W, W, L, alpha, LENGTHSCALE, min(eta))
            assert np.all(ei >= 0.0)
            # the posterior deviation at an observation is below sigma
            assert ei.max() <= sigma
            worst.append(float(ei.max()))
        assert worst[0] > worst[1] > worst[2]


def sequential_acquisition(W, eta, lengthscale, seed=0):
    """The search one start after another, one point per EI evaluation:
    each step tries every step length along the projection arc and moves
    to the best trial point only where its EI is strictly higher; a start
    that does not move stops, since it would try the same points again."""
    rng = np.random.default_rng(seed)
    W, L, alpha = _factorize(W, eta, lengthscale)
    best = float(np.min(eta))

    def value(w):
        return _posterior_ei(w[None], W, L, alpha, lengthscale, best)[0][0]

    cands = rng.dirichlet(np.ones(W.shape[1]), size=NUM_CANDIDATES)
    ei = np.array([value(c) for c in cands])
    best_w, best_ei = cands[int(np.argmax(ei))], float(np.max(ei))
    for idx in np.argsort(-ei, kind="stable")[:NUM_POLISH]:
        w, val = cands[idx], ei[idx]
        for _ in range(bayesopt.NUM_POLISH_STEPS):
            grad = ei_and_grad(w[None], W, L, alpha, lengthscale, best)[1][0]
            trials = [project_simplex(w + (0.1 * 2.0 ** j) * grad) for j in range(6, -10, -1)]
            values = [value(t) for t in trials]
            k = int(np.argmax(values))
            if not values[k] > val:
                break
            w, val = trials[k], values[k]
        if val > best_ei:
            best_ei, best_w = val, w
    return project_simplex(best_w)


class TestMaximizeAcquisition:
    def test_result_on_simplex(self):
        W, eta = history()
        for seed in range(3):
            w = maximize_acquisition(W, eta, LENGTHSCALE, seed=seed)
            assert w.shape == (3,)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("n, N, seed", [(6, 3, 0), (10, 5, 3), (20, 5, 4)])
    def test_matches_sequential_polish(self, n, N, seed):
        # the batched and one-row evaluations round differently, so a
        # strict comparison between near-equal values may go either way
        W, eta = history(n=n, N=N, seed=seed)
        batched = maximize_acquisition(W, eta, LENGTHSCALE, seed=seed)
        reference = sequential_acquisition(W, eta, LENGTHSCALE, seed=seed)
        assert batched == pytest.approx(reference, rel=0.0, abs=1e-12)

    def test_deterministic(self):
        W, eta = history()
        a = maximize_acquisition(W, eta, LENGTHSCALE, seed=4)
        b = maximize_acquisition(W, eta, LENGTHSCALE, seed=4)
        assert np.array_equal(a, b)


def fixed_step_polish(W, eta, lengthscale, seed=0):
    """The polish the arc search replaced, as an independent reference: the
    8 best candidates take 50 projected-gradient steps of length
    0.1/sqrt(t), with gradients at the candidates too and no early return,
    and the best candidate is replaced only by a strictly better iterate
    (first in start-major order)."""
    polish_steps = 50
    W, L, alpha = _factorize(W, eta, lengthscale)
    best = float(np.min(eta))
    N = W.shape[1]
    rng = np.random.default_rng(seed)
    cands = rng.dirichlet(np.ones(N), size=NUM_CANDIDATES)
    ei, _ = _posterior_ei(cands, W, L, alpha, lengthscale, best)
    best_w = cands[int(np.argmax(ei))]
    w = cands[np.argsort(-ei, kind="stable")[:NUM_POLISH]]
    iterates = np.empty((len(w), polish_steps + 1, N))
    values = np.empty((len(w), polish_steps + 1))
    for t in range(polish_steps + 1):
        iterates[:, t] = w
        values[:, t], grad = ei_and_grad(w, W, L, alpha, lengthscale, best)
        if t < polish_steps:
            w = project_simplex(w + (0.1 / np.sqrt(t + 1)) * grad)
    k = np.unravel_index(np.argmax(values), values.shape)
    if values[k] > np.max(ei):
        best_w = iterates[k]
    return project_simplex(best_w)


LINEAR_COST = np.array([3.0, 2.0, 1.5, 0.0, 0.5])


def linear(w):
    return float(np.asarray(w) @ LINEAR_COST)


@pytest.fixture(scope="module")
def linear_rounds():
    """Every acquisition call of bo_learn on a linear cost over the
    5-simplex (budget 30, seed 0), as ``(W, eta, lengthscale, seed, dead)``;
    ``dead`` is true where EI underflows to 0 at every candidate.  The
    cost's minimum sits at a vertex, so once the lengthscale is refit to 2
    the GP is sure that no interior candidate improves on it."""
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on(mp, bayesopt, "maximize_acquisition")
        bo_learn(linear, 5, budget=30, seed=0)
    rounds = [(*call.args, call.kwargs["seed"]) for call in calls]
    return [(*r, not start_ei(*r).any()) for r in rounds]


@pytest.fixture(scope="module")
def pinned_rounds(learn_game, learn_basis):
    """Every acquisition call of the TestPinnedSiouxFallsLearn runs (seeds
    0-5), as ``(W, eta, lengthscale, seed)``."""
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on(mp, bayesopt, "maximize_acquisition")
        for seed in sorted(TestPinnedSiouxFallsLearn.SHA256):
            bo_learn(RegretOracle(learn_game, learn_basis).average, 5, 40, seed=seed)
    return [(*call.args, call.kwargs["seed"]) for call in calls]


def start_ei(W, eta, lengthscale, seed):
    """EI at the NUM_POLISH starts of maximize_acquisition's round, best
    first."""
    W, L, alpha = _factorize(W, eta, lengthscale)
    cands = np.random.default_rng(seed).dirichlet(np.ones(W.shape[1]), size=NUM_CANDIDATES)
    ei, _ = _posterior_ei(cands, W, L, alpha, lengthscale, float(np.min(eta)))
    return ei[np.argsort(-ei, kind="stable")[:NUM_POLISH]]


def every_start_search(W, eta, lengthscale, seed=0):
    """The search as it stood while every start entered it, EI 0 or not, as
    the reference the live starts must match bitwise: a round where EI is 0
    at every candidate takes one step in which no start moves."""
    W, L, alpha = _factorize(W, eta, lengthscale)
    best = float(np.min(eta))
    N = W.shape[1]
    lengths = bayesopt._STEP_LENGTHS
    cands = np.random.default_rng(seed).dirichlet(np.ones(N), size=NUM_CANDIDATES)
    ei, terms = _posterior_ei(cands, W, L, alpha, lengthscale, best)
    starts = np.argsort(-ei, kind="stable")[:NUM_POLISH]
    w, ei_w = cands[starts], ei[starts]
    terms = tuple(t[starts] for t in terms)
    live = np.arange(len(w))
    for _ in range(bayesopt.NUM_POLISH_STEPS):
        grad = _ei_gradient(w[live], terms, W, L, alpha, lengthscale)
        trial = project_simplex(w[live][:, None] + lengths[:, None] * grad[:, None]).reshape(-1, N)
        ei_t, terms = _posterior_ei(trial, W, L, alpha, lengthscale, best)
        pick = np.arange(len(live)) * len(lengths) + np.argmax(ei_t.reshape(len(live), -1), axis=1)
        moved = ei_t[pick] > ei_w[live]
        live, pick = live[moved], pick[moved]
        if not live.size:
            break
        w[live], ei_w[live] = trial[pick], ei_t[pick]
        terms = tuple(t[pick] for t in terms)
    return project_simplex(w[int(np.argmax(ei_w))])


def live_rounds(linear_rounds):
    """The rounds of linear_rounds where EI is positive somewhere, and the
    history fixtures, as ``(W, eta, lengthscale, seed)``."""
    live = [r[:4] for r in linear_rounds if not r[-1]]
    live += [(*history(n=n, N=N, seed=seed), LENGTHSCALE, seed)
             for n, N, seed in [(6, 3, 0), (10, 5, 3), (20, 5, 4)]]
    assert len(live) >= 10
    return live


def ei_at(W, eta, lengthscale, w):
    W, L, alpha = _factorize(W, eta, lengthscale)
    return _posterior_ei(w[None], W, L, alpha, lengthscale, float(np.min(eta)))[0][0]


class TestStallExit:
    """Only the starts with EI above 0 enter the search; every step is one
    gradient batch at the live starts and one EI batch at all their trial
    points, a start that does not move leaves, and where EI is 0 at every
    candidate the round takes no step."""

    def test_exact_and_early_where_ei_underflows(self, linear_rounds, spy):
        dead = [r for r in linear_rounds if r[-1]]
        assert len(dead) >= 3
        gradients = spy(bayesopt, "_ei_gradient")
        scores = spy(bayesopt, "_posterior_ei")
        for W, eta, lengthscale, seed, _ in dead:
            gradients.clear()
            scores.clear()
            out = maximize_acquisition(W, eta, lengthscale, seed=seed)
            assert out.tobytes() == fixed_step_polish(W, eta, lengthscale, seed).tobytes()
            # no start has EI above 0, so the candidates are the only batch
            assert gradients == []
            assert [len(b.args[0]) for b in scores] == [NUM_CANDIDATES]

    def test_matches_the_search_from_every_start(self, linear_rounds, pinned_rounds):
        # a start at EI 0 has gradient 0 and could not move, so leaving it
        # out changes no query: dead, partly live and fully live rounds
        # alike return the bytes of the search that every start entered
        assert len(pinned_rounds) == 210
        live = []
        for W, eta, lengthscale, seed in [r[:4] for r in linear_rounds] + pinned_rounds:
            out = maximize_acquisition(W, eta, lengthscale, seed=seed)
            assert out.tobytes() == every_start_search(W, eta, lengthscale, seed).tobytes()
            live.append(np.count_nonzero(start_ei(W, eta, lengthscale, seed)))
        assert 0 in live and NUM_POLISH in live
        assert any(0 < k < NUM_POLISH for k in live)

    def test_one_batch_of_each_kind_per_step(self, linear_rounds, spy):
        lengths = len(bayesopt._STEP_LENGTHS)
        assert lengths == 16
        gradients = spy(bayesopt, "_ei_gradient")
        scores = spy(bayesopt, "_posterior_ei")
        for W, eta, lengthscale, seed in live_rounds(linear_rounds):
            gradients.clear()
            scores.clear()
            maximize_acquisition(W, eta, lengthscale, seed=seed)
            sizes = [len(g.args[0]) for g in gradients]
            assert 1 <= len(sizes) <= bayesopt.NUM_POLISH_STEPS
            # the first batch holds the starts with EI above 0
            assert sizes[0] == np.count_nonzero(start_ei(W, eta, lengthscale, seed))
            # the candidates, then the trial points of each live start
            assert [len(b.args[0]) for b in scores] == [NUM_CANDIDATES] + [lengths * k for k in sizes]
            # a gradient batch holds the previous step's movers, so the
            # batches never grow
            assert sizes == sorted(sizes, reverse=True)


class TestArcSearchAgainstFixedSteps:
    def test_never_below_the_fixed_step_polish(self, linear_rounds):
        for W, eta, lengthscale, seed in live_rounds(linear_rounds):
            new = ei_at(W, eta, lengthscale, maximize_acquisition(W, eta, lengthscale, seed=seed))
            ref = ei_at(W, eta, lengthscale, fixed_step_polish(W, eta, lengthscale, seed))
            assert new >= ref - 1e-9 * abs(ref)

    def test_each_starts_ei_never_falls(self, linear_rounds, spy):
        # a start's EI is the score of the batch that scored its point; the
        # starts with EI above 0 are live, trial row s * len(_STEP_LENGTHS)
        # + k is live start s moved by the k-th length, and each gradient
        # batch holds the live starts' points
        scores = spy(bayesopt, "_posterior_ei")
        gradients = spy(bayesopt, "_ei_gradient")
        lengths = len(bayesopt._STEP_LENGTHS)
        moved = 0
        for W, eta, lengthscale, seed in live_rounds(linear_rounds):
            scores.clear()
            gradients.clear()
            out = maximize_acquisition(W, eta, lengthscale, seed=seed)
            scored = [(call.args[0], call.result[0]) for call in scores]
            cands, ei = scored[0]
            starts = np.argsort(-ei, kind="stable")[:NUM_POLISH]
            points, values = cands[starts], ei[starts]
            live = np.flatnonzero(values > 0.0)
            assert len(gradients) == len(scored) - 1
            for batch, (trial, ei_t) in zip((g.args[0] for g in gradients), scored[1:]):
                assert batch.tobytes() == points[live].tobytes()
                block = ei_t.reshape(len(live), lengths)
                k = np.argmax(block, axis=1)
                up = block[np.arange(len(live)), k] > values[live]
                rows = np.flatnonzero(up) * lengths + k[up]
                live = live[up]
                points[live], values[live] = trial[rows], ei_t[rows]
            # the search ends at the cap or when no start is left
            assert live.size == 0 or len(gradients) == bayesopt.NUM_POLISH_STEPS
            assert out.tobytes() == project_simplex(points[np.argmax(values)]).tobytes()
            assert np.all(values >= ei[starts])
            moved += len(gradients) > 1
        assert moved >= 5


class TestLearnerQuality:
    @pytest.mark.parametrize("seed", range(10))
    def test_linear_cost_reaches_its_vertex(self, seed):
        # the minimum of a linear cost is 0, at the vertex e_4
        _, trace = bo_learn(linear, 5, budget=12, seed=seed)
        assert trace.incumbent_values[-1] <= 1e-12


def learn(seed, oracle=bowl):
    # budget past 10 queries so the lengthscale refit runs
    return bo_learn(oracle, 3, budget=12, seed=seed)


# learn(seed) on the bowl, bitwise; one query a row: its three weights, its
# value and the incumbent after it
PINNED = {
    0: """
    0x1.94f3fcdf97be4p-2 0x1.2fa01026e7f01p-1 0x1.797c5a530c351p-7 0x1.158da8ca1c4e4p-3 0x1.158da8ca1c4e4p-3
    0x1.1090fb5d5a860p-10 0x1.023513fb08225p-2 0x1.7e5d2d84cd419p-1 0x1.8f0d58b2b51bap-1 0x1.158da8ca1c4e4p-3
    0x1.44eb3341ad8bcp-3 0x1.6c566abf920e6p-3 0x1.53af987fb0198p-1 0x1.0de9747351c0ap-1 0x1.158da8ca1c4e4p-3
    0x1.4be126b16996cp-1 0x1.68199368ded00p-2 0x1.20f9a27013ecfp-13 0x1.ea5cbdb1872c0p-7 0x1.ea5cbdb1872c0p-7
    0x1.5499070611fc4p-1 0x1.5c3a4978c9d95p-6 0x1.410a4d5c4f69dp-2 0x1.05356371870bcp-3 0x1.ea5cbdb1872c0p-7
    0x1.d77b3dfd4d8b2p-1 0x1.4426101593a6cp-4 0x0.0p+0 0x1.4b3a7584f03f1p-3 0x1.ea5cbdb1872c0p-7
    0x1.18954e02d09a1p-1 0x1.30df980391698p-2 0x1.3beb97ed9ac4ap-3 0x1.72627746399e4p-8 0x1.72627746399e4p-8
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.b851eb851eb84p-1 0x1.72627746399e4p-8
    0x1.10f24d25c4126p-1 0x1.9d0e33574ba74p-2 0x1.0434c974b0d01p-4 0x1.0e35ff51660e2p-6 0x1.72627746399e4p-8
    0x1.47ffad9eeb3cfp-1 0x1.0446d17690b12p-2 0x1.aee74d2e63548p-4 0x1.ef1094b1ca596p-9 0x1.ef1094b1ca596p-9
    0x1.319ad80f5830bp-1 0x1.3e0dbe5472010p-2 0x1.7af2463376769p-4 0x1.756a920382568p-13 0x1.756a920382568p-13
    0x1.85c4bd512df32p-2 0x1.93ce4f7765addp-2 0x1.ccd9e66ed8be2p-3 0x1.29968e258ff20p-4 0x1.756a920382568p-13
    """,
    5: """
    0x1.f7c6482dd8353p-2 0x1.7c768ff446753p-3 0x1.49fe6fd804903p-2 0x1.2f96966c90f05p-4 0x1.2f96966c90f05p-4
    0x1.10d6c7cae8d5fp-1 0x1.f140336dfc932p-6 0x1.bf3e6d334e8b0p-2 0x1.8665a1b59a750p-3 0x1.2f96966c90f05p-4
    0x1.93517f3a56f4ep-1 0x1.217614954b0d1p-3 0x1.2287dd02b23e4p-4 0x1.f5daad055c8abp-5 0x1.f5daad055c8abp-5
    0x1.3aaa72fe1b8f5p-2 0x1.56ba6ff8724a4p-2 0x1.6e9b1d0972268p-2 0x1.3a45cd16998d0p-3 0x1.f5daad055c8abp-5
    0x1.e58a15ddee697p-5 0x1.22d0b09617324p-1 0x1.7dad5c1813ce6p-2 0x1.c11ef752f5642p-2 0x1.f5daad055c8abp-5
    0x1.309f7b69d7d0fp-1 0x1.3767cef8a627bp-2 0x1.9d64e8cea8d94p-4 0x1.69338ee2f95dbp-15 0x1.69338ee2f95dbp-15
    0x1.3fa6fa97e838cp-1 0x1.80b20ad02f8e8p-2 0x0.0p+0 0x1.0b5e2d560c73ap-6 0x1.69338ee2f95dbp-15
    0x1.0cac1b5f0c8a7p-1 0x1.65ef1844fcd4bp-2 0x1.017161f9d42cdp-3 0x1.1fa25392b3557p-7 0x1.69338ee2f95dbp-15
    0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.428f5c28f5c29p+0 0x1.69338ee2f95dbp-15
    0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.b851eb851eb84p-1 0x1.69338ee2f95dbp-15
    0x1.2bcb8a6343506p-1 0x1.1e57c0c2a818dp-2 0x1.142254eda28ccp-3 0x1.e19f95a96bbb8p-10 0x1.69338ee2f95dbp-15
    0x1.4179f7fede92ap-1 0x1.299a9429ddcf1p-2 0x1.4dc5ef61942eep-4 0x1.3cad7472543b0p-10 0x1.69338ee2f95dbp-15
    """,
}


class TestInputChecks:
    def test_history_inputs_of_different_lengths(self):
        W = np.array([[0.5, 0.5], [0.2, 0.8], [0.4, 0.6]])
        with pytest.raises(ValueError, match=r"got shapes \(3, 2\) and \(2,\)"):
            log_marginal_likelihood(W, [0.0, 1.0], LENGTHSCALE)

    @pytest.mark.parametrize("W, eta", [
        (np.array([0.5, 0.5]), [0.0, 1.0]),  # one input, not a matrix
        (np.zeros((0, 3)), []),  # no observations
        (np.zeros((2, 0)), [0.0, 1.0]),  # no coordinates
        (np.ones((2, 3)) / 3.0, [[0.0], [1.0]]),  # outputs as a column
    ])
    def test_shapes_rejected_by_both_entry_points(self, W, eta):
        with pytest.raises(ValueError, match="shapes"):
            log_marginal_likelihood(W, eta, LENGTHSCALE)
        with pytest.raises(ValueError, match="shapes"):
            maximize_acquisition(W, eta, LENGTHSCALE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_history_rejected(self, bad):
        W, eta = history()
        W_bad, eta_bad = W.copy(), eta.copy()
        W_bad[0, 1] = eta_bad[2] = bad
        for args in ((W_bad, eta), (W, eta_bad)):
            with pytest.raises(ValueError, match="finite"):
                log_marginal_likelihood(*args, LENGTHSCALE)

    @pytest.mark.parametrize("lengthscale", [0.0, -0.5, np.nan])
    def test_lengthscale_must_be_positive(self, lengthscale):
        with pytest.raises(ValueError, match="lengthscale must be positive"):
            maximize_acquisition(*history(), lengthscale)

    # id: (points of history() kept, lengthscale, error, message)
    DEGENERATE = {
        "inf-ValueError-lengthscale must be positive and finite":
            (6, np.inf, ValueError, "lengthscale must be positive and finite"),
        # q^2 overflows: the log likelihood read NaN, and the acquisition
        # raised a bare ZeroDivisionError at 1e-300 from 5 / (3 l^2)
        "1e-200-GpError-kernel matrix is not finite":
            (6, 1e-200, GpError, "kernel matrix is not finite"),
        "1e-300-GpError-kernel matrix is not finite":
            (6, 1e-300, GpError, "kernel matrix is not finite"),
        # one point: K is [[1]] and finite, and the log likelihood read a
        # value; the acquisition warned of an overflow and then raised the
        # bare ZeroDivisionError
        "one point at 1e-300": (1, 1e-300, GpError, "kernel gradient is not finite"),
    }

    @pytest.mark.parametrize("entry", [log_marginal_likelihood, maximize_acquisition])
    @pytest.mark.parametrize("points, lengthscale, error, message", list(DEGENERATE.values()),
                             ids=list(DEGENERATE))
    def test_degenerate_lengthscale_rejected(self, entry, points, lengthscale, error, message):
        W, eta = history()
        with pytest.raises(error, match=message):
            entry(W[:points], eta[:points], lengthscale)

    @pytest.mark.parametrize("points, lengthscale, message", [
        # (5 / (3 l^2)) (1 + q) overflows where e^{-q} is 0, so the gradient
        # read NaN: a RuntimeWarning with warnings as errors, else a
        # ValueError from project_simplex
        (6, 1e-103, "EI gradient"),
        (6, 1e-110, "EI gradient"),
        (6, 1e-120, "EI gradient"),
        (6, 1e-150, "EI gradient"),
        # one point: K is [[1]], but q^2 overflows at the candidates
        (1, 1e-154, "EI"),
    ])
    def test_tiny_lengthscale_is_a_gp_error_in_the_acquisition(self, points, lengthscale,
                                                              message):
        W, eta = history()
        W, eta = W[:points], eta[:points]
        assert np.isfinite(log_marginal_likelihood(W, eta, lengthscale))
        with pytest.raises(GpError, match=f"^{message} is not finite at lengthscale {lengthscale}$"):
            maximize_acquisition(W, eta, lengthscale)

    def test_duplicate_inputs_without_noise_are_a_gp_error(self, monkeypatch):
        W, eta = history()
        monkeypatch.setattr(bayesopt, "NOISE_SIGMA", 0.0)
        log_marginal_likelihood(W, eta, LENGTHSCALE)  # distinct inputs factor
        W[1] = W[0]
        with pytest.raises(GpError, match="not positive definite") as info:
            log_marginal_likelihood(W, eta, LENGTHSCALE)
        assert "noise_sigma" not in str(info.value)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestBoLearn:
    def test_no_basis_actions_rejected(self):
        calls = []

        def oracle(w):
            calls.append(w)
            return 0.0

        # used to raise a bare IndexError from project_simplex
        with pytest.raises(ValueError, match="N >= 1"):
            bo_learn(oracle, 0, 6)
        assert calls == []

    def test_incumbent_never_increases(self):
        w_best, trace = learn(seed=0)
        assert len(trace.values) == 12
        assert np.all(np.diff(trace.incumbent_values) <= 0.0)
        assert np.array_equal(trace.incumbent_values, np.minimum.accumulate(trace.values))
        assert bowl(w_best) == trace.incumbent_values[-1]

    def test_seed_reproduces_trace_bitwise(self):
        w1, t1 = learn(seed=5)
        w2, t2 = learn(seed=5)
        assert np.array_equal(w1, w2)
        assert t1.values.tobytes() == t2.values.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(t1.inputs, t2.inputs))
        assert t1.incumbent_values.tobytes() == t2.incumbent_values.tobytes()
        _, t3 = learn(seed=6)
        assert not np.array_equal(t1.values, t3.values)

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_trace_pinned_bitwise(self, seed):
        rows = np.array([[float.fromhex(x) for x in line.split()]
                         for line in PINNED[seed].strip().splitlines()])
        w_best, trace = learn(seed=seed)
        assert np.stack(trace.inputs).tobytes() == rows[:, :3].tobytes()
        assert trace.values.tobytes() == rows[:, 3].tobytes()
        assert trace.incumbent_values.tobytes() == rows[:, 4].tobytes()
        assert w_best.tobytes() == rows[int(np.argmin(rows[:, 3])), :3].tobytes()

    def test_gp_calls_go_through_the_module_globals(self, spy):
        # bo_learn looks both functions up at call time, so a wrapper bound
        # in their place (as a tracer binds one) sees every call
        calls = {name: spy(bayesopt, name) for name in (
            "maximize_acquisition", "log_marginal_likelihood", "project_simplex", "_ei_gradient")}
        bo_learn(bowl, 3, budget=40, seed=0)
        # one acquisition a query after the 5 initial ones; the 5 grid
        # lengthscales at each refit, n = 10, 20, 30
        assert len(calls["maximize_acquisition"]) == 35
        assert len(calls["log_marginal_likelihood"]) == 15
        # a projection per initial query, per search step (one gradient
        # batch each) and per result; on the bowl every round has a start
        # with EI above 0, so every search takes at least one step
        steps = len(calls["_ei_gradient"])
        assert 35 <= steps <= 35 * bayesopt.NUM_POLISH_STEPS
        assert len(calls["project_simplex"]) == N_INIT + 35 + steps

    def test_oracle_failure_carries_partial_trace(self):
        calls = []

        def flaky(w):
            if len(calls) == 4:
                raise RuntimeError("solver crashed")
            calls.append(np.array(w))
            return bowl(w)

        with pytest.raises(OracleFailure, match="query 5") as info:
            learn(seed=0, oracle=flaky)
        trace = info.value.trace
        assert isinstance(info.value.__cause__, RuntimeError)
        assert len(trace.inputs) == len(trace.values) == 4
        assert all(np.array_equal(a, b) for a, b in zip(trace.inputs, calls))
        assert np.array_equal(trace.incumbent_values, np.minimum.accumulate(trace.values))

    @pytest.mark.parametrize("N, budget, name", [(3, 5.5, "budget"), (3.0, 6, "N")])
    def test_non_integer_counts_rejected_before_any_query(self, N, budget, name):
        calls = []

        def oracle(w):
            calls.append(w)
            return 0.0

        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            bo_learn(oracle, N, budget)
        assert calls == []

    def test_budget_below_initial_design_rejected(self):
        with pytest.raises(ValueError, match=f"budget >= {N_INIT}"):
            bo_learn(bowl, 3, budget=N_INIT - 1)

    def test_constant_oracle(self):
        # every observation equal: the standard deviation falls back to 1,
        # so the standardized history is all zeros and the run still ends
        w_best, trace = bo_learn(lambda w: 0.25, 3, budget=N_INIT + 2, seed=0)
        assert np.all(trace.values == 0.25)
        assert len(trace.inputs) == N_INIT + 2
        assert np.array_equal(w_best, trace.inputs[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at, budget", [(3, 8), (6, 6)])
    def test_non_finite_value_is_a_failure(self, bad, at, budget):
        # mid-run a NaN used to reach the Cholesky solve as a bare scipy
        # ValueError; at the last query np.argmin made it the incumbent
        calls = []

        def spoiled(w):
            calls.append(np.array(w))
            return bad if len(calls) == at else bowl(w)

        with pytest.raises(OracleFailure, match=f"query {at}: non-finite value") as info:
            bo_learn(spoiled, 3, budget=budget, seed=0)
        trace = info.value.trace
        assert len(calls) == at
        assert len(trace.inputs) == len(trace.values) == at - 1
        assert all(np.array_equal(a, b) for a, b in zip(trace.inputs, calls))
        assert np.all(np.isfinite(trace.values))
        assert np.array_equal(trace.incumbent_values, np.minimum.accumulate(trace.values))


class TestPinnedSiouxFallsLearn:
    # The learn setup on its stored basis (harness.py).
    # SHA-256 over bo_learn's inputs, values and incumbents (budget 40),
    # captured from the EI search along the projection arc, its posterior
    # from cdist distances and one triangular solve.  The 50-step
    # 0.1/sqrt(t) polish it replaced gave 07d38be1... and 5a11f2f5..., with
    # PROJECTIONS 990 and 940, and final incumbents 0.1127 and 0.0843; the
    # search ends both at 0.0843.  On the offset-tensor kernel with a
    # two-sided dpotrs solve it gave 94b61dce... and 76874532..., with
    # PROJECTIONS 196 and 195; the rounding of the two kernels differs, and
    # so do the queries.  Seeds 2-5 were captured before the search lost
    # its return for rounds where EI is 0 at every candidate, and hold
    # after it.  About half of the rounds are such dead rounds, so the pins
    # cover them at scale.  PROJECTIONS counts bayesopt.project_simplex
    # calls: one per initial query and per result, N_INIT + 35 = 40, plus
    # one per search step.  Only the starts with EI above 0 enter the
    # search, so a dead round takes no step, as it did with the return.
    # Between the two every start entered and a dead round took one step
    # in which no start moved: seeds 0-5 read 212, 210, 198, 194, 213 and
    # 204, one more per dead round (16, 17, 15, 14, 16 and 18 of 35).
    SHA256 = {
        0: "157223dff1d5391bbb71f7aeced80147f7fdd43e61752cc16042be1a3d7db782",
        1: "e34f237656812fe2551cb118362fe87b03dacbd3e3c751155b03396c5f5c3f4b",
        2: "e649b93d0de90cd055079f376211e7db339bfacb7f1d3eb6050f11a76a196798",
        3: "996b369fc699a107d779c912f6343de252559a596599c57159c1d4d44e1ff40a",
        4: "519a02ccf5a8072992dc60ac6b52f4d76a0bf425e17e5d7ec2cb4786ab02ec16",
        5: "e19a35ab338c5844e74e8cd60eb20c1998cddf0458cf15dbd052fc46be54f14c",
    }
    PROJECTIONS = {0: 196, 1: 193, 2: 183, 3: 180, 4: 197, 5: 186}

    @pytest.mark.parametrize("seed", sorted(SHA256))
    def test_trace_pinned(self, learn_game, learn_basis, spy, seed):
        projections = spy(bayesopt, "project_simplex")
        oracle = RegretOracle(learn_game, learn_basis)
        w_best, trace = bo_learn(oracle.average, 5, 40, seed=seed)
        digest = hashlib.sha256()
        digest.update(np.stack(trace.inputs).tobytes())
        digest.update(trace.values.tobytes())
        digest.update(trace.incumbent_values.tobytes())
        assert digest.hexdigest() == self.SHA256[seed]
        assert len(projections) == self.PROJECTIONS[seed]
