"""Gaussian-process Bayesian optimization over the probability simplex.

The learner treats the average-regret oracle as an expensive black box on
the weight simplex.  A zero-mean GP with a unit-variance Matern-5/2 kernel
models the standardized observations; the posterior at a candidate w is

    mean(w) = c(w)' (K + sigma^2 I)^-1 eta
    var(w)  = 1 - c(w)' (K + sigma^2 I)^-1 c(w)

with K the kernel matrix of past queries, c(w) the cross-covariances and
eta the observed values.  Expected Improvement (minimization form) scores
candidates, and its analytic gradient drives a projected-gradient polish
that keeps iterates exactly on the simplex.  With beta = (K + sigma^2 I)^-1
c(w), q_n = sqrt(5) |w - w_n| / l, and z, Phi, phi the standardized
improvement and its normal cdf and pdf at w, the gradient is a weighted sum
of the offsets from the observations,

    grad EI(w) = sum_n G_n (w - w_n),
    G_n = (5 / (3 l^2)) (1 + q_n) e^{-q_n} (Phi(z) alpha_n + (phi(z) / rho) beta_n),

so a batch of B candidates never needs the B x n x N kernel derivatives.
The loop is sequential by construction: every query conditions on the full
history.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs
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
    "gp_posterior",
    "expected_improvement",
    "log_marginal_likelihood",
    "maximize_acquisition",
    "bo_learn",
    "LENGTHSCALE_GRID",
    "N_INIT",
    "NUM_CANDIDATES",
    "NUM_POLISH",
]

_SQRT5 = np.sqrt(5.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

#: Candidates for the periodic lengthscale refit.
LENGTHSCALE_GRID = (0.1, 0.2, 0.5, 1.0, 2.0)
#: Flat-Dirichlet queries that seed :func:`bo_learn`'s history.
N_INIT = 5
#: Points :func:`maximize_acquisition` scores, and the best of them it polishes.
NUM_CANDIDATES = 512
NUM_POLISH = 8


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
    The signal variance is 1: :func:`bo_learn` standardizes its outputs.
    """

    lengthscale: float = 0.5
    noise_sigma: float = 1e-6

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise ValueError("lengthscale must be positive")
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
        for k, w in enumerate(self.inputs):
            if w.size != self.inputs[0].size:
                raise ValueError(
                    f"input {k} has length {w.size}, input 0 has {self.inputs[0].size}")

    def __len__(self) -> int:
        return len(self.inputs)

    def input_matrix(self) -> np.ndarray:
        return np.stack(self.inputs)

    def output_vector(self) -> np.ndarray:
        return np.asarray(self.outputs)


class GpPosterior(NamedTuple):
    mean: float
    variance: float


def _kernel_matrix(W1: np.ndarray, W2: np.ndarray, hyper: GpHyper) -> np.ndarray:
    d2 = np.sum((W1[:, None, :] - W2[None, :, :]) ** 2, axis=-1)
    q = _SQRT5 * np.sqrt(np.maximum(d2, 0.0)) / hyper.lengthscale
    return (1.0 + q + q * q / 3.0) * np.exp(-q)


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
    if w.shape != D.inputs[0].shape:
        raise ValueError(f"w has shape {w.shape}, the inputs have {D.inputs[0].shape}")
    W, factor, alpha = _factorize(D, hyper)
    c = _kernel_matrix(W, w[None, :], hyper)[:, 0]
    mean = float(c @ alpha)
    var = float(1.0 - c @ cho_solve(factor, c))
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


def _ei_and_grad(W_cand, W, factor, alpha, hyper, best):
    """EI and its ambient-space gradient at each row of the B x N batch W_cand.

    Returns ``(ei[B], grad[B, N])``.  Where the posterior deviation is at
    most 1e-15 (an observed point) both are zero.  The gradient is
    ``grad[b] = sum_n G[b, n] (W_cand[b] - W[n])`` with the B x n weights
    ``G = (5 / (3 l^2)) (1 + q) e^{-q} (Phi(z) alpha_n + (phi(z) / rho) beta_n)``,
    so the only B x n x N array is the offsets.  ``beta`` comes from one
    LAPACK ``dpotrs`` solve on the Cholesky factor; a non-finite row of
    ``W_cand`` raises ``ValueError``.
    """
    if not np.isfinite(W_cand).all():
        raise ValueError("acquisition candidates must be finite")
    diff = W_cand[:, None, :] - W[None, :, :]  # B x n x N
    q = _SQRT5 * np.sqrt(np.einsum("bnk,bnk->bn", diff, diff)) / hyper.lengthscale  # B x n
    e = np.exp(-q)
    C = (1.0 + q + q * q / 3.0) * e
    beta = dpotrs(factor[0], C.T, lower=True)[0].T  # B x n
    mean = C @ alpha
    rho = np.sqrt(np.maximum(1.0 - np.sum(C * beta, axis=1), 0.0))
    seen = rho <= 1e-15
    rho = np.where(seen, 1.0, rho)
    z = (best - mean) / rho
    cdf = ndtr(z)
    pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    ei = np.where(seen, 0.0, (best - mean) * cdf + rho * pdf)
    G = ((5.0 / (3.0 * hyper.lengthscale ** 2)) * (1.0 + q) * e
         * (cdf[:, None] * alpha + (pdf / rho)[:, None] * beta))
    grad = G.sum(axis=1)[:, None] * W_cand - np.einsum("bn,nk->bk", G, W)
    return ei, np.where(seen[:, None], 0.0, grad)


def maximize_acquisition(D: QueryHistory, hyper: GpHyper, seed: int = 0,
                         polish_steps: int = 50) -> np.ndarray:
    """Approximate argmax of EI over the simplex.

    Seeded flat-Dirichlet sampling scores :data:`NUM_CANDIDATES` points; the
    :data:`NUM_POLISH` best start a projected-gradient ascent with step
    0.1/sqrt(t), all starts advancing together as one batch.  The result is
    the best candidate unless a polish iterate beats it strictly; ties go to
    the lowest candidate index, then to the first iterate in start-major
    order, exactly as polishing the starts one after another would choose.
    The returned point satisfies the simplex invariants exactly.
    """
    if len(D) < 1:
        raise ValueError("acquisition needs at least one observation")
    if polish_steps < 0:
        raise ValueError(f"polish_steps must be nonnegative, got {polish_steps}")
    N = D.inputs[0].size
    rng = np.random.default_rng(seed)
    W, factor, alpha = _factorize(D, hyper)
    best = float(np.min(D.output_vector()))

    cands = rng.dirichlet(np.ones(N), size=NUM_CANDIDATES)
    ei, _ = _ei_and_grad(cands, W, factor, alpha, hyper, best)
    best_w = cands[int(np.argmax(ei))]
    w = cands[np.argsort(-ei, kind="stable")[:NUM_POLISH]]

    # iterates[s, t] is start s after t polish steps; row-major is the
    # order in which polishing the starts one by one would visit them
    iterates = np.empty((len(w), polish_steps + 1, N))
    values = np.empty((len(w), polish_steps + 1))
    for t in range(polish_steps + 1):
        iterates[:, t] = w
        values[:, t], grad = _ei_and_grad(w, W, factor, alpha, hyper, best)
        if t < polish_steps:
            w = project_simplex(w + (0.1 / np.sqrt(t + 1)) * grad)
    if values.size:
        k = np.unravel_index(np.argmax(values), values.shape)
        if values[k] > np.max(ei):
            best_w = iterates[k]
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


def _standardized(outputs: Sequence[float]):
    eta = np.asarray(outputs, dtype=float)
    mu = float(eta.mean())
    sd = float(eta.std())
    if sd < 1e-12:
        sd = 1.0
    return (eta - mu) / sd


def bo_learn(oracle: Callable[[np.ndarray], float], N: int, budget: int,
             seed: int = 0):
    """Sequentially query the average-regret oracle to minimize it.

    :data:`N_INIT` flat-Dirichlet queries seed the history; each following
    round fits the GP on standardized observations, maximizes EI over the
    simplex, and queries the oracle there.  Returns the incumbent (the
    lowest observed value's weight vector) and the full trace; the
    incumbent-value sequence is the running minimum, hence non-increasing.
    An oracle that raises or returns NaN or inf stops the run with
    :class:`OracleFailure`, which carries the trace of the queries before.
    """
    if N < 1:
        raise ValueError(f"need N >= 1 basis actions, got {N}")
    if budget < N_INIT:
        raise ValueError(f"need budget >= {N_INIT}, got {budget}")
    hyper = GpHyper()
    rng = np.random.default_rng(seed)
    inputs: List[np.ndarray] = []
    values: List[float] = []

    def failure(reason):
        partial = LearnTrace(inputs, np.asarray(values),
                             np.minimum.accumulate(values) if values else np.zeros(0))
        return OracleFailure(f"oracle failed at query {len(values) + 1}: {reason}", partial)

    def query(w):
        try:
            val = float(oracle(w))
        except Exception as exc:
            raise failure(exc) from exc
        if not np.isfinite(val):
            raise failure(f"non-finite value {val}")
        inputs.append(w)
        values.append(val)

    for _ in range(N_INIT):
        query(project_simplex(rng.dirichlet(np.ones(N))))

    lengthscale = hyper.lengthscale
    for n in range(N_INIT, budget):
        D_std = QueryHistory(list(inputs), list(_standardized(values)))
        if n % 10 == 0:
            best_l, best_lml = lengthscale, -np.inf
            for cand in LENGTHSCALE_GRID:
                lml = log_marginal_likelihood(D_std, replace(hyper, lengthscale=cand))
                if lml > best_lml:
                    best_l, best_lml = cand, lml
            lengthscale = best_l
        hyper_n = replace(hyper, lengthscale=lengthscale)
        w_next = maximize_acquisition(D_std, hyper_n, seed=int(rng.integers(2 ** 63)))
        query(w_next)

    values_arr = np.asarray(values)
    incumbents = np.minimum.accumulate(values_arr)
    w_best = inputs[int(np.argmin(values_arr))]
    return w_best, LearnTrace(inputs, values_arr, incumbents)
