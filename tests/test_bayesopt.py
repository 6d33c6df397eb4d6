import numpy as np
import pytest

from cequil.bayesopt import (
    GpHyper,
    OracleFailure,
    QueryHistory,
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


class TestAcquisitionKernels:
    hyper = GpHyper(lengthscale=0.5, noise_sigma=1e-3)

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


def sequential_acquisition(D, hyper, num_candidates=512, num_polish=8, seed=0,
                           polish_steps=50):
    """Polish the starts one after another, one point per EI evaluation."""
    rng = np.random.default_rng(seed)
    W, factor, alpha = _factorize(D, hyper)
    best = float(np.min(D.output_vector()))
    cands = rng.dirichlet(np.ones(W.shape[1]), size=num_candidates)
    ei = np.array([_ei_and_grad(c[None], W, factor, alpha, hyper, best)[0][0]
                   for c in cands])
    best_w, best_ei = cands[int(np.argmax(ei))], float(np.max(ei))
    for idx in np.argsort(-ei, kind="stable")[:num_polish]:
        w = cands[idx]
        for t in range(1, polish_steps + 2):
            val, grad = _ei_and_grad(w[None], W, factor, alpha, hyper, best)
            if val[0] > best_ei:
                best_ei, best_w = val[0], w
            if t <= polish_steps:
                w = project_simplex(w + (0.1 / np.sqrt(t)) * grad[0])
    return project_simplex(best_w)


class TestMaximizeAcquisition:
    def test_result_on_simplex(self):
        D = history()
        for seed in range(3):
            w = maximize_acquisition(D, GpHyper(), num_candidates=64, num_polish=2,
                                     seed=seed, polish_steps=10)
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
        a = maximize_acquisition(D, GpHyper(), num_candidates=64, num_polish=2, seed=4,
                                 polish_steps=10)
        b = maximize_acquisition(D, GpHyper(), num_candidates=64, num_polish=2, seed=4,
                                 polish_steps=10)
        assert np.array_equal(a, b)


def learn(seed, oracle=bowl):
    # budget past 10 queries so the lengthscale refit runs
    return bo_learn(oracle, 3, budget=12, n_init=3, seed=seed,
                    num_candidates=64, num_polish=2)


class TestBoLearn:
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
