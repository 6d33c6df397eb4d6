import numpy as np
import pytest

from cequil.bayesopt import (
    GpHyper,
    OracleFailure,
    QueryHistory,
    _ei_and_grad,
    _ei_batch,
    _factorize,
    bo_learn,
    expected_improvement,
    gp_posterior,
    maximize_acquisition,
)

TARGET = np.array([0.6, 0.3, 0.1])


def bowl(w):
    return float(np.sum((np.asarray(w) - TARGET) ** 2))


def history(n=6, N=3, seed=0):
    """Observations standardized as bo_learn standardizes them."""
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(N), size=n)
    eta = np.array([bowl(w) for w in W])
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
        batch = _ei_batch(cands, W, factor, alpha, self.hyper, min(D.outputs))
        ref = [reference_ei(D, self.hyper, w) for w in cands]
        assert batch == pytest.approx(ref, rel=1e-9, abs=1e-15)

    def test_value_matches_scalar(self):
        D = history()
        W, factor, alpha = _factorize(D, self.hyper)
        for w in np.random.default_rng(2).dirichlet(np.ones(3), size=10):
            val, _ = _ei_and_grad(w, W, factor, alpha, self.hyper, min(D.outputs))
            assert val == pytest.approx(reference_ei(D, self.hyper, w), rel=1e-9, abs=1e-15)

    def test_gradient_matches_central_differences(self):
        D = history()
        W, factor, alpha = _factorize(D, self.hyper)
        best = min(D.outputs)
        h = 1e-6
        checked = 0
        for w in np.random.default_rng(3).dirichlet(np.ones(3), size=40):
            val, grad = _ei_and_grad(w, W, factor, alpha, self.hyper, best)
            if val < 1e-4:
                continue  # EI and its gradient underflow far from the incumbent
            checked += 1
            numeric = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                hi, _ = _ei_and_grad(w + e, W, factor, alpha, self.hyper, best)
                lo, _ = _ei_and_grad(w - e, W, factor, alpha, self.hyper, best)
                numeric[j] = (hi - lo) / (2.0 * h)
            assert grad == pytest.approx(numeric, rel=1e-5, abs=1e-9)
        assert checked >= 5

    def test_ei_vanishes_at_observations_as_noise_vanishes(self):
        D = history()
        worst = []
        for sigma in (1e-2, 1e-4, 1e-6):
            hyper = GpHyper(lengthscale=0.5, noise_sigma=sigma)
            W, factor, alpha = _factorize(D, hyper)
            ei = _ei_batch(W, W, factor, alpha, hyper, min(D.outputs))
            assert np.all(ei >= 0.0)
            # the posterior deviation at an observation is below sigma
            assert ei.max() <= sigma
            worst.append(float(ei.max()))
        assert worst[0] > worst[1] > worst[2]


class TestMaximizeAcquisition:
    def test_result_on_simplex(self):
        D = history()
        for seed in range(3):
            w = maximize_acquisition(D, GpHyper(), num_candidates=64, num_polish=2,
                                     seed=seed, polish_steps=10)
            assert w.shape == (3,)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-15

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
        assert t1.to_csv() == t2.to_csv()
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
