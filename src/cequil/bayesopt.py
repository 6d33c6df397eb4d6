"""Gaussian-process Bayesian optimization over the probability simplex.

The learner treats the average-regret oracle as an expensive black box on
the weight simplex.  A zero-mean GP with a Matern-5/2 kernel models the
observations; the posterior at a candidate w is

    mean(w) = c(w)' (K + sigma^2 I)^-1 eta
    var(w)  = kappa(w, w) - c(w)' (K + sigma^2 I)^-1 c(w)

with K the kernel matrix of past queries, c(w) the cross-covariances and
eta the observed values.  Expected Improvement (minimization form) scores
candidates, and its analytic gradient drives a projected-gradient polish
that keeps iterates exactly on the simplex.  The loop is sequential by
construction: every query conditions on the full history.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr

from cequil.polytope import project_simplex
from cequil.regret import validate_weights

__all__ = [
    "GpHyper",
    "QueryHistory",
    "GpPosterior",
    "LearnTrace",
    "GpError",
    "OracleFailure",
    "matern52",
    "gp_posterior",
    "expected_improvement",
    "log_marginal_likelihood",
    "maximize_acquisition",
    "bo_learn",
    "LENGTHSCALE_GRID",
]

_SQRT5 = np.sqrt(5.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

#: Candidates for the periodic lengthscale refit.
LENGTHSCALE_GRID = (0.1, 0.2, 0.5, 1.0, 2.0)


class GpError(RuntimeError):
    pass


class OracleFailure(RuntimeError):
    """Raised when the regret oracle fails mid-run; carries the partial trace."""

    def __init__(self, message: str, trace: "LearnTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class GpHyper:
    """Kernel and noise hyperparameters.

    ``lengthscale`` is the starting value: :func:`bo_learn` refits it on
    :data:`LENGTHSCALE_GRID` by log marginal likelihood every 10 queries.
    """

    lengthscale: float = 0.5
    signal_variance: float = 1.0
    noise_sigma: float = 1e-6

    def __post_init__(self):
        if self.lengthscale <= 0 or self.signal_variance <= 0:
            raise ValueError("lengthscale and signal_variance must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


@dataclass
class QueryHistory:
    """Observed (w, value) pairs; inputs live on the simplex."""

    inputs: List[np.ndarray] = field(default_factory=list)
    outputs: List[float] = field(default_factory=list)

    def __post_init__(self):
        self.inputs = [validate_weights(w) for w in self.inputs]
        self.outputs = [float(v) for v in self.outputs]
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs and outputs must have equal length")

    def append(self, w, value: float) -> None:
        self.inputs.append(validate_weights(w))
        self.outputs.append(float(value))

    def __len__(self) -> int:
        return len(self.inputs)

    def input_matrix(self) -> np.ndarray:
        return np.stack(self.inputs)

    def output_vector(self) -> np.ndarray:
        return np.asarray(self.outputs)


class GpPosterior(NamedTuple):
    mean: float
    variance: float


def matern52(w, w_prime, hyper: GpHyper) -> float:
    """Matern-5/2 covariance between two weight vectors."""
    w = np.asarray(w, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    if w.shape != w_prime.shape:
        raise ValueError("kernel inputs must have equal dimension")
    r = float(np.linalg.norm(w - w_prime))
    q = _SQRT5 * r / hyper.lengthscale
    return hyper.signal_variance * (1.0 + q + q * q / 3.0) * np.exp(-q)


def _kernel_matrix(W1: np.ndarray, W2: np.ndarray, hyper: GpHyper) -> np.ndarray:
    d2 = np.sum((W1[:, None, :] - W2[None, :, :]) ** 2, axis=-1)
    q = _SQRT5 * np.sqrt(np.maximum(d2, 0.0)) / hyper.lengthscale
    return hyper.signal_variance * (1.0 + q + q * q / 3.0) * np.exp(-q)


def _factorize(D: QueryHistory, hyper: GpHyper):
    W = D.input_matrix()
    K = _kernel_matrix(W, W, hyper)
    K[np.diag_indices_from(K)] += hyper.noise_sigma ** 2
    try:
        factor = cho_factor(K, lower=True)
    except np.linalg.LinAlgError as exc:
        raise GpError(
            "kernel matrix is not positive definite; duplicate inputs with "
            "noise_sigma=0 need jitter (set noise_sigma > 0)") from exc
    alpha = cho_solve(factor, D.output_vector())
    return W, factor, alpha


def gp_posterior(D: QueryHistory, hyper: GpHyper, w) -> GpPosterior:
    """Exact posterior mean and variance at one candidate point."""
    if len(D) < 1:
        raise ValueError("posterior needs at least one observation")
    w = np.asarray(w, dtype=float)
    W, factor, alpha = _factorize(D, hyper)
    c = _kernel_matrix(W, w[None, :], hyper)[:, 0]
    mean = float(c @ alpha)
    var = float(hyper.signal_variance - c @ cho_solve(factor, c))
    return GpPosterior(mean, max(var, 0.0))


def expected_improvement(post: GpPosterior, best_observed: float) -> float:
    """Expected amount by which a draw at the posterior beats the incumbent.

    Minimization form; at zero posterior deviation the improvement is
    defined as zero so already-observed points never win the acquisition.
    """
    if post.variance < 0:
        raise ValueError("posterior variance must be nonnegative")
    rho = np.sqrt(post.variance)
    if rho == 0.0:
        return 0.0
    z = (best_observed - post.mean) / rho
    return float((best_observed - post.mean) * ndtr(z) + rho * np.exp(-0.5 * z * z) * _INV_SQRT_2PI)


def log_marginal_likelihood(D: QueryHistory, hyper: GpHyper) -> float:
    """Gaussian log evidence of the history under the GP prior."""
    W, factor, alpha = _factorize(D, hyper)
    eta = D.output_vector()
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return float(-0.5 * eta @ alpha - 0.5 * logdet - 0.5 * len(D) * np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Acquisition maximization on the simplex
# ---------------------------------------------------------------------------


def _ei_batch(W_cand, W, factor, alpha, hyper, best):
    C = _kernel_matrix(W, W_cand, hyper)  # n x B
    means = C.T @ alpha
    V = cho_solve(factor, C)
    variances = np.maximum(hyper.signal_variance - np.sum(C * V, axis=0), 0.0)
    rho = np.sqrt(variances)
    improve = best - means
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(rho > 0.0, improve / np.where(rho > 0.0, rho, 1.0), 0.0)
    ei = improve * ndtr(z) + rho * np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    return np.where(rho > 0.0, ei, 0.0)


def _ei_and_grad(w, W, factor, alpha, hyper, best):
    """EI value and its ambient-space gradient at w (used by the polish)."""
    diff = w[None, :] - W  # n x N
    r = np.sqrt(np.sum(diff * diff, axis=1))
    q = _SQRT5 * r / hyper.lengthscale
    e = np.exp(-q)
    c = hyper.signal_variance * (1.0 + q + q * q / 3.0) * e
    # d kappa / d w = -(5 s^2 / (3 l^2)) (1 + q) e^{-q} (w - w_i)
    scale = -(5.0 * hyper.signal_variance / (3.0 * hyper.lengthscale ** 2))
    dc = scale * ((1.0 + q) * e)[:, None] * diff  # n x N
    beta = cho_solve(factor, c)
    mean = float(c @ alpha)
    var = float(hyper.signal_variance - c @ beta)
    var = max(var, 0.0)
    rho = np.sqrt(var)
    dmean = dc.T @ alpha
    dvar = -2.0 * (dc.T @ beta)
    if rho <= 1e-15:
        return 0.0, np.zeros_like(w)
    z = (best - mean) / rho
    pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    ei = (best - mean) * ndtr(z) + rho * pdf
    grad = -ndtr(z) * dmean + pdf * (dvar / (2.0 * rho))
    return float(ei), grad


def maximize_acquisition(D: QueryHistory, hyper: GpHyper,
                         num_candidates: int = 512, num_polish: int = 8,
                         seed: int = 0, polish_steps: int = 50) -> np.ndarray:
    """Approximate argmax of EI over the simplex.

    Seeded flat-Dirichlet sampling scores ``num_candidates`` points; the
    ``num_polish`` best are refined by projected-gradient ascent with step
    0.1/sqrt(t).  Deterministic: ties break on the lowest candidate index.
    The returned point satisfies the simplex invariants exactly.
    """
    if len(D) < 1:
        raise ValueError("acquisition needs at least one observation")
    N = D.inputs[0].size
    rng = np.random.default_rng(seed)
    W, factor, alpha = _factorize(D, hyper)
    best = float(np.min(D.output_vector()))

    cands = rng.dirichlet(np.ones(N), size=num_candidates)
    ei = _ei_batch(cands, W, factor, alpha, hyper, best)
    order = np.argsort(-ei, kind="stable")[:num_polish]

    best_w = cands[int(np.argmax(ei))]
    best_ei = float(np.max(ei))
    for idx in order:
        w = cands[int(idx)].copy()
        for t in range(1, polish_steps + 1):
            val, grad = _ei_and_grad(w, W, factor, alpha, hyper, best)
            if val > best_ei:
                best_ei, best_w = val, w.copy()
            w = project_simplex(w + (0.1 / np.sqrt(t)) * grad)
        val, _ = _ei_and_grad(w, W, factor, alpha, hyper, best)
        if val > best_ei:
            best_ei, best_w = val, w.copy()
    return project_simplex(best_w)


# ---------------------------------------------------------------------------
# The sequential query loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnTrace:
    """Per-query record of one bo_learn run."""

    inputs: List[np.ndarray]
    values: np.ndarray
    incumbent_values: np.ndarray

    def to_csv(self) -> str:
        n_weights = self.inputs[0].size if self.inputs else 0
        header = ["iteration"] + [f"w{j + 1}" for j in range(n_weights)] + [
            "value", "incumbent"]
        lines = [",".join(header)]
        for it, (w, v, inc) in enumerate(
                zip(self.inputs, self.values, self.incumbent_values), start=1):
            cells = [str(it)] + [repr(float(x)) for x in w] + [repr(float(v)),
                                                               repr(float(inc))]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _standardized(outputs: Sequence[float]):
    eta = np.asarray(outputs, dtype=float)
    mu = float(eta.mean())
    sd = float(eta.std())
    if sd < 1e-12:
        sd = 1.0
    return (eta - mu) / sd


def bo_learn(oracle: Callable[[np.ndarray], float], N: int, budget: int,
             n_init: int = 5, hyper: Optional[GpHyper] = None, seed: int = 0,
             num_candidates: int = 512, num_polish: int = 8):
    """Sequentially query the average-regret oracle to minimize it.

    ``n_init`` flat-Dirichlet queries seed the history; each following
    round fits the GP on standardized observations, maximizes EI over the
    simplex, and queries the oracle there.  Returns the incumbent (the
    lowest observed value's weight vector) and the full trace; the
    incumbent-value sequence is the running minimum, hence non-increasing.
    """
    if n_init < 1 or budget < n_init:
        raise ValueError("need budget >= n_init >= 1")
    hyper = hyper or GpHyper()
    rng = np.random.default_rng(seed)
    inputs: List[np.ndarray] = []
    values: List[float] = []

    def query(w):
        try:
            val = float(oracle(w))
        except Exception as exc:
            partial = LearnTrace(inputs, np.asarray(values),
                                 np.minimum.accumulate(values) if values else np.zeros(0))
            raise OracleFailure(f"oracle failed at query {len(values) + 1}: {exc}",
                                partial) from exc
        inputs.append(w)
        values.append(val)

    for _ in range(n_init):
        query(project_simplex(rng.dirichlet(np.ones(N))))

    lengthscale = hyper.lengthscale
    for n in range(n_init, budget):
        eta_std = _standardized(values)
        if n % 10 == 0:
            best_l, best_lml = lengthscale, -np.inf
            for cand in LENGTHSCALE_GRID:
                trial = replace(hyper, lengthscale=cand)
                lml = log_marginal_likelihood(
                    QueryHistory(list(inputs), list(eta_std)), trial)
                if lml > best_lml:
                    best_l, best_lml = cand, lml
            lengthscale = best_l
        hyper_n = replace(hyper, lengthscale=lengthscale)
        D_std = QueryHistory(list(inputs), list(eta_std))
        w_next = maximize_acquisition(D_std, hyper_n, num_candidates, num_polish,
                                      seed=int(rng.integers(2 ** 63)))
        query(w_next)

    values_arr = np.asarray(values)
    incumbents = np.minimum.accumulate(values_arr)
    w_best = inputs[int(np.argmin(values_arr))]
    return w_best, LearnTrace(inputs, values_arr, incumbents)
