import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.special import ndtr

from cequil import bayesopt
from cequil.bayesopt import (
    N_INIT,
    NUM_CANDIDATES,
    NUM_POLISH,
    GpHyper,
    OracleFailure,
    QueryHistory,
    _INV_SQRT_2PI,
    _SQRT5,
    _ei_and_grad,
    _factorize,
    bo_learn,
    expected_improvement,
    gp_posterior,
    maximize_acquisition,
)
from cequil.polytope import project_simplex

TARGET = np.array([0.6, 0.3, 0.1])


def bowl(w):
    return float(np.sum((np.asarray(w) - TARGET) ** 2))


def history(n=6, N=3, seed=0):
    """Observations of a bowl standardized as bo_learn standardizes them."""
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(N), size=n)
    target = TARGET if N == 3 else np.full(N, 1.0 / N)
    eta = np.sum((W - target) ** 2, axis=1)
    return QueryHistory(list(W), list((eta - eta.mean()) / eta.std()))


def reference_ei(D, hyper, w):
    """The scalar path: exact posterior, then closed-form EI."""
    return expected_improvement(gp_posterior(D, hyper, w), float(min(D.outputs)))


def dC_tensor_ei_and_grad(W_cand, W, factor, alpha, hyper, best):
    """The kernel as it stood before the fused gradient: the B x n x N
    derivative tensor dC contracted by two einsums, beta from cho_solve."""
    diff = W_cand[:, None, :] - W[None, :, :]
    q = _SQRT5 * np.sqrt(np.sum(diff * diff, axis=-1)) / hyper.lengthscale
    e = np.exp(-q)
    C = (1.0 + q + q * q / 3.0) * e
    dC = (-5.0 / (3.0 * hyper.lengthscale ** 2)) * ((1.0 + q) * e)[:, :, None] * diff
    beta = cho_solve(factor, C.T).T
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
    hyper = GpHyper(lengthscale=0.5, noise_sigma=1e-3)

    @pytest.mark.parametrize("n, N, seed", [(6, 3, 0), (10, 5, 3), (20, 5, 4), (40, 5, 1)])
    def test_fused_gradient_matches_dC_tensor(self, n, N, seed):
        D = history(n=n, N=N, seed=seed)
        W, factor, alpha = _factorize(D, self.hyper)
        best = min(D.outputs)
        cands = np.random.default_rng(seed + 10).dirichlet(np.ones(N), size=512)
        ei, grad = _ei_and_grad(cands, W, factor, alpha, self.hyper, best)
        ref_ei, ref_grad = dC_tensor_ei_and_grad(cands, W, factor, alpha, self.hyper, best)
        assert np.abs(ei - ref_ei).max() <= 1e-10 * np.abs(ref_ei).max()
        assert np.abs(grad - ref_grad).max() <= 1e-10 * np.abs(ref_grad).max()

    def test_one_lapack_solve_per_evaluation(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return dpotrs(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the kernel must not go through cho_solve")

        dpotrs = bayesopt.dpotrs
        D = history()
        W, factor, alpha = _factorize(D, self.hyper)
        monkeypatch.setattr(bayesopt, "dpotrs", counting)
        monkeypatch.setattr(bayesopt, "cho_solve", forbidden)
        cands = np.random.default_rng(5).dirichlet(np.ones(3), size=8)
        _ei_and_grad(cands, W, factor, alpha, self.hyper, min(D.outputs))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate_rejected(self, bad):
        D = history()
        W, factor, alpha = _factorize(D, self.hyper)
        cands = np.full((4, 3), 1.0 / 3.0)
        cands[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            _ei_and_grad(cands, W, factor, alpha, self.hyper, min(D.outputs))

    def test_batch_matches_scalar(self):
        D = history()
        W, factor, alpha = _factorize(D, self.hyper)
        cands = np.random.default_rng(1).dirichlet(np.ones(3), size=20)
        batch, grad = _ei_and_grad(cands, W, factor, alpha, self.hyper, min(D.outputs))
        assert batch.shape == (20,) and grad.shape == (20, 3)
        ref = [reference_ei(D, self.hyper, w) for w in cands]
        assert batch == pytest.approx(ref, rel=1e-9, abs=1e-15)

    def test_value_matches_scalar(self):
        D = history()
        W, factor, alpha = _factorize(D, self.hyper)
        for w in np.random.default_rng(2).dirichlet(np.ones(3), size=10):
            val, _ = _ei_and_grad(w[None], W, factor, alpha, self.hyper, min(D.outputs))
            assert val[0] == pytest.approx(reference_ei(D, self.hyper, w), rel=1e-9, abs=1e-15)

    def test_gradient_matches_central_differences(self):
        D = history()
        W, factor, alpha = _factorize(D, self.hyper)
        best = min(D.outputs)
        h = 1e-6
        checked = 0
        for w in np.random.default_rng(3).dirichlet(np.ones(3), size=40):
            val, grad = _ei_and_grad(w[None], W, factor, alpha, self.hyper, best)
            if val[0] < 1e-4:
                continue  # EI and its gradient underflow far from the incumbent
            checked += 1
            numeric = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                hi, _ = _ei_and_grad((w + e)[None], W, factor, alpha, self.hyper, best)
                lo, _ = _ei_and_grad((w - e)[None], W, factor, alpha, self.hyper, best)
                numeric[j] = (hi[0] - lo[0]) / (2.0 * h)
            assert grad[0] == pytest.approx(numeric, rel=1e-5, abs=1e-9)
        assert checked >= 5

    def test_ei_vanishes_at_observations_as_noise_vanishes(self):
        D = history()
        worst = []
        for sigma in (1e-2, 1e-4, 1e-6):
            hyper = GpHyper(lengthscale=0.5, noise_sigma=sigma)
            W, factor, alpha = _factorize(D, hyper)
            ei, _ = _ei_and_grad(W, W, factor, alpha, hyper, min(D.outputs))
            assert np.all(ei >= 0.0)
            # the posterior deviation at an observation is below sigma
            assert ei.max() <= sigma
            worst.append(float(ei.max()))
        assert worst[0] > worst[1] > worst[2]


def sequential_acquisition(D, hyper, seed=0, polish_steps=50):
    """Polish the starts one after another, one point per EI evaluation."""
    rng = np.random.default_rng(seed)
    W, factor, alpha = _factorize(D, hyper)
    best = float(np.min(D.output_vector()))
    cands = rng.dirichlet(np.ones(W.shape[1]), size=NUM_CANDIDATES)
    ei = np.array([_ei_and_grad(c[None], W, factor, alpha, hyper, best)[0][0]
                   for c in cands])
    best_w, best_ei = cands[int(np.argmax(ei))], float(np.max(ei))
    for idx in np.argsort(-ei, kind="stable")[:NUM_POLISH]:
        w = cands[idx]
        for t in range(1, polish_steps + 2):
            val, grad = _ei_and_grad(w[None], W, factor, alpha, hyper, best)
            if val[0] > best_ei:
                best_ei, best_w = val[0], w
            if t <= polish_steps:
                w = project_simplex(w + (0.1 / np.sqrt(t)) * grad[0])
    return project_simplex(best_w)


class TestMaximizeAcquisition:
    def test_negative_polish_steps_rejected(self):
        # used to return the best unpolished candidate without a word
        with pytest.raises(ValueError, match="polish_steps"):
            maximize_acquisition(history(), GpHyper(), polish_steps=-1)

    def test_result_on_simplex(self):
        D = history()
        for seed in range(3):
            w = maximize_acquisition(D, GpHyper(), seed=seed, polish_steps=10)
            assert w.shape == (3,)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("n, N, seed", [(6, 3, 0), (10, 5, 3), (20, 5, 4)])
    def test_matches_sequential_polish(self, n, N, seed):
        # A short polish: over 50 steps the starts converge on one maximizer,
        # their EI values tie to rounding, and the batched and one-row
        # evaluations (which round differently) may pick different ones of
        # them, about 1e-8 apart.
        D = history(n=n, N=N, seed=seed)
        batched = maximize_acquisition(D, GpHyper(), seed=seed, polish_steps=10)
        reference = sequential_acquisition(D, GpHyper(), seed=seed, polish_steps=10)
        assert batched == pytest.approx(reference, rel=0.0, abs=1e-12)

    def test_deterministic(self):
        D = history()
        a = maximize_acquisition(D, GpHyper(), seed=4, polish_steps=10)
        b = maximize_acquisition(D, GpHyper(), seed=4, polish_steps=10)
        assert np.array_equal(a, b)


def learn(seed, oracle=bowl):
    # budget past 10 queries so the lengthscale refit runs
    return bo_learn(oracle, 3, budget=12, seed=seed)


class TestInputChecks:
    def test_history_inputs_of_different_lengths(self):
        inputs = [np.array([0.5, 0.5]), np.array([0.2, 0.8]), np.array([0.2, 0.3, 0.5])]
        with pytest.raises(ValueError, match="input 2 has length 3, input 0 has 2"):
            QueryHistory(inputs, [0.0, 1.0, 2.0])

    def test_posterior_at_a_point_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"w has shape \(2,\)"):
            gp_posterior(history(), GpHyper(), [0.5, 0.5])


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
