"""Gaussian-process Bayesian optimization over the probability simplex.

The learner treats the average-regret oracle as an expensive black box on
the weight simplex.  A zero-mean GP with a unit-variance Matern-5/2 kernel
models the standardized observations; the posterior at a candidate w is

    mean(w) = c(w)' (K + sigma^2 I)^-1 eta
    var(w)  = 1 - c(w)' (K + sigma^2 I)^-1 c(w)

with K the kernel matrix of past queries, c(w) the cross-covariances and
eta the observed values.  With L the Cholesky factor of K + sigma^2 I and
v = L^-1 c(w), the variance is 1 - |v|^2, so a batch of candidates costs
one triangular solve.  Expected Improvement (minimization form) scores
candidates, and its analytic gradient drives a search that keeps iterates
exactly on the simplex: a search along the projection arc
``a -> proj(w + a grad EI(w))`` (Bertsekas, IEEE TAC 1976) over a fixed
grid of step lengths, every start and length scored in one EI batch.  With
beta = (K + sigma^2 I)^-1 c(w) = L^-T v, q_n = sqrt(5) |w - w_n| / l, and
z, Phi, phi the standardized improvement and its normal cdf and pdf at w,
the gradient is a weighted sum of the offsets from the observations,

    grad EI(w) = sum_n G_n (w - w_n),
    G_n = (5 / (3 l^2)) (1 + q_n) e^{-q_n} (Phi(z) alpha_n + (phi(z) / rho) beta_n),

so a batch of B candidates never needs the B x n x N kernel derivatives.
Every point is scored once: the gradient at a start reuses the terms of the
EI batch that scored it and adds only the solve for beta.  A start moves
only to a trial point of strictly higher EI, so its EI never falls, and a
start that does not move leaves the search, since it would try the same
trial points again.  Only the starts with EI above 0 enter it: a start at
EI 0 is an observed point or one where the normal cdf and pdf at z have
both underflowed, so its gradient is 0 and it could not move.  Where EI is
0 at every candidate the round takes no search step.

The GP functions take the history as plain arrays: the n x N matrix ``W``
of queried weights, one per row, the n standardized outputs ``eta``, and
the lengthscale l.  The noise sigma is :data:`NOISE_SIGMA`.  The loop is
sequential by construction: every query conditions on the full history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from cequil.polytope import _as_count, project_simplex

__all__ = [
    "LearnTrace",
    "GpError",
    "OracleFailure",
    "log_marginal_likelihood",
    "maximize_acquisition",
    "bo_learn",
    "LENGTHSCALE_GRID",
    "LENGTHSCALE_START",
    "NOISE_SIGMA",
    "N_INIT",
    "NUM_CANDIDATES",
    "NUM_POLISH",
    "NUM_POLISH_STEPS",
]

_SQRT5 = np.sqrt(5.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

#: Noise standard deviation of the standardized observations; the signal
#: variance is 1.
NOISE_SIGMA = 1e-6
#: Lengthscale of :func:`bo_learn`'s first rounds, and the candidates it
#: refits it on by log marginal likelihood every 10 queries.
LENGTHSCALE_START = 0.5
LENGTHSCALE_GRID = (0.1, 0.2, 0.5, 1.0, 2.0)
#: Flat-Dirichlet queries that seed :func:`bo_learn`'s history.
N_INIT = 5
#: Points :func:`maximize_acquisition` scores, the best of them it
#: polishes, and the most steps its search along the projection arc takes;
#: each step tries every length of ``_STEP_LENGTHS``.
NUM_CANDIDATES = 512
NUM_POLISH = 8
NUM_POLISH_STEPS = 10
_STEP_LENGTHS = 0.1 * 2.0 ** np.arange(6, -10, -1)


class GpError(RuntimeError):
    pass


class OracleFailure(RuntimeError):
    """Raised when the regret oracle fails mid-run; carries the partial trace."""

    def __init__(self, message: str, trace: "LearnTrace"):
        super().__init__(message)
        self.trace = trace


def _scaled_distances(W1: np.ndarray, W2: np.ndarray, lengthscale: float) -> np.ndarray:
    """``q = sqrt(5) |w1 - w2| / l`` for every row pair of W1 and W2."""
    return np.sqrt(cdist(W1, W2, "sqeuclidean")) * (_SQRT5 / lengthscale)


def _kernel_matrix(W1: np.ndarray, W2: np.ndarray, lengthscale: float) -> np.ndarray:
    q = _scaled_distances(W1, W2, lengthscale)
    return (1.0 + q + q * q / 3.0) * np.exp(-q)


def _factorize(W, eta, lengthscale: float):
    """Check the history and factor its noisy kernel matrix.

    Returns ``(W, L, alpha)``: the inputs as a float matrix, the lower
    Cholesky factor ``L`` of ``K + sigma^2 I`` (LAPACK ``dpotrf``; the
    strict upper triangle is zero) and ``alpha = (K + sigma^2 I)^-1 eta``.
    Raises ``ValueError`` unless ``W`` is an n x N matrix and ``eta`` n
    values with n, N >= 1, all finite, and the lengthscale is finite and
    positive.  Raises :class:`GpError` when the kernel matrix is not finite
    (a lengthscale so small that ``q^2`` overflows; LAPACK would factor the
    NaNs), when the EI gradient's factor ``5 / (3 l^2)`` is not, or when
    the matrix is not positive definite.
    """
    W = np.asarray(W, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if W.ndim != 2 or eta.ndim != 1 or 0 in W.shape or len(W) != len(eta):
        raise ValueError(f"need an n x N input matrix and n outputs with n, N >= 1, "
                         f"got shapes {W.shape} and {eta.shape}")
    if not (np.isfinite(W).all() and np.isfinite(eta).all()):
        raise ValueError("GP inputs and outputs must be finite")
    if not 0 < lengthscale < np.inf:
        raise ValueError(f"lengthscale must be positive and finite, got {lengthscale}")
    with np.errstate(over="ignore", invalid="ignore"):
        K = _kernel_matrix(W, W, lengthscale)
    if not np.isfinite(K).all():
        raise GpError(f"kernel matrix is not finite at lengthscale {lengthscale}")
    # on one input K is [[1]] at any lengthscale
    if not 3.0 * lengthscale ** 2 > 5.0 / np.finfo(float).max:
        raise GpError(f"kernel gradient is not finite at lengthscale {lengthscale}")
    K[np.diag_indices_from(K)] += NOISE_SIGMA ** 2
    L, info = dpotrf(K, lower=True)
    if info != 0:
        cause = np.linalg.LinAlgError(f"dpotrf returned info = {info}")
        raise GpError("kernel matrix is not positive definite; "
                      "duplicate inputs with zero noise need jitter") from cause
    return W, L, dpotrs(L, eta, lower=True)[0]


def log_marginal_likelihood(W, eta, lengthscale: float) -> float:
    """Gaussian log evidence of the outputs ``eta`` at inputs ``W`` under
    the GP prior."""
    W, L, alpha = _factorize(W, eta, lengthscale)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(-0.5 * np.asarray(eta, dtype=float) @ alpha - 0.5 * logdet
                 - 0.5 * len(W) * np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Acquisition maximization on the simplex
# ---------------------------------------------------------------------------


def _posterior_ei(W_cand, W, L, alpha, lengthscale, best):
    """EI at each row of the B x N batch W_cand, and the terms its gradient
    reuses.

    Returns ``(ei[B], (q, e, v, cdf, pdf, rho, seen))``, every term indexed
    by row: the B x n scaled distances ``q``, ``e = exp(-q)``, the B x n
    transpose of the solve ``L^-1 C'`` of the cross-covariances ``C``, and
    per row the normal cdf and pdf at z, the posterior deviation and
    whether it is at most 1e-15 (an observed point, where EI is zero and
    ``rho`` reads 1).  The variance is ``1 - |v|^2`` (Rasmussen & Williams
    2006, Algorithm 2.1), so the batch costs one LAPACK ``dtrtrs`` solve.  A
    non-finite row of ``W_cand`` raises ``ValueError``, and a non-finite EI
    at finite rows (``q^2`` overflows at a lengthscale that ``_factorize``
    let through) raises :class:`GpError`.
    """
    q = _scaled_distances(W_cand, W, lengthscale)  # B x n
    e = np.exp(-q)
    with np.errstate(over="ignore", invalid="ignore"):
        C = (q * q / 3.0 + q + 1.0) * e
    mean = C @ alpha
    v = dtrtrs(L, C.T, lower=True, overwrite_b=True)[0]  # n x B, in C's memory
    rho = np.sqrt(np.maximum(1.0 - np.einsum("nb,nb->b", v, v), 0.0))
    seen = rho <= 1e-15
    rho = np.where(seen, 1.0, rho)
    z = (best - mean) / rho
    cdf = ndtr(z)
    pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    ei = np.where(seen, 0.0, (best - mean) * cdf + rho * pdf)
    if not np.isfinite(ei).all():
        if not np.isfinite(W_cand).all():
            raise ValueError("acquisition candidates must be finite")
        raise GpError(f"EI is not finite at lengthscale {lengthscale}")
    return ei, (q, e, v.T, cdf, pdf, rho, seen)


def _ei_gradient(W_cand, terms, W, L, alpha, lengthscale):
    """The ambient-space gradient of EI at each row of the B x N batch
    W_cand, zero at an observed point, from the ``terms`` that
    :func:`_posterior_ei` returned for those rows.

    It takes ``beta = L^-T v``, one ``dtrtrs`` solve, and is ``grad[b] =
    sum_n G[b, n] (W_cand[b] - W[n])`` with the B x n weights ``G = (5 /
    (3 l^2)) (1 + q) e^{-q} (Phi(z) alpha_n + (phi(z) / rho) beta_n)``, so
    no B x n x N array is formed.  A non-finite gradient raises
    :class:`GpError`: below a lengthscale of about 1e-103 the factor
    ``(5 / (3 l^2)) (1 + q)`` overflows where ``e^{-q}`` is 0.
    """
    q, e, v, cdf, pdf, rho, seen = terms
    beta = dtrtrs(L, v.T, lower=True, trans=1)[0].T  # B x n
    with np.errstate(over="ignore", invalid="ignore"):
        G = ((5.0 / (3.0 * lengthscale ** 2)) * (1.0 + q) * e
             * (cdf[:, None] * alpha + (pdf / rho)[:, None] * beta))
        grad = np.where(seen[:, None], 0.0, G.sum(axis=1)[:, None] * W_cand - G @ W)
    if not np.isfinite(grad).all():
        raise GpError(f"EI gradient is not finite at lengthscale {lengthscale}")
    return grad


def maximize_acquisition(W, eta, lengthscale: float, seed: int = 0) -> np.ndarray:
    """Approximate argmax of EI over the simplex, given the inputs ``W``
    (n x N), the standardized outputs ``eta`` and the lengthscale.

    Seeded flat-Dirichlet sampling scores :data:`NUM_CANDIDATES` points by
    EI, and the :data:`NUM_POLISH` best, by stable argsort, are the starts.
    Those with EI above 0 are live and enter a batched search along the
    projection arc; at EI 0 the gradient is 0, so a start could not move,
    and a round with no live start takes no step.  Each step takes the
    gradient at the live starts, projects ``w + a grad`` for every step
    length ``a`` of the fixed grid ``0.1 * 2**j``, ``j = 6, 5, ..., -9``
    (one projection of the whole start-by-length batch), scores those trial
    points by EI, and moves each start to its best trial point only where
    that EI is strictly higher, so a start's EI never falls.  A start that
    does not move would see the same trial points again, so it leaves the
    search, which ends after :data:`NUM_POLISH_STEPS` steps or when no start
    is left.  The result is the highest-EI start, ties going to the lowest
    index; start 0 is the best candidate, so the result is that candidate
    unless a search step strictly beat it.  The returned point satisfies
    the simplex invariants exactly.  A lengthscale so small that EI or its
    gradient is not finite raises :class:`GpError`.
    """
    W, L, alpha = _factorize(W, eta, lengthscale)
    best = float(np.min(eta))
    N = W.shape[1]
    rng = np.random.default_rng(seed)

    cands = rng.dirichlet(np.ones(N), size=NUM_CANDIDATES)
    ei, terms = _posterior_ei(cands, W, L, alpha, lengthscale, best)
    starts = np.argsort(-ei, kind="stable")[:NUM_POLISH]
    w, ei_w = cands[starts], ei[starts]
    live = np.flatnonzero(ei_w > 0.0)
    terms = tuple(t[starts[live]] for t in terms)
    for _ in range(NUM_POLISH_STEPS):
        if not live.size:
            break
        grad = _ei_gradient(w[live], terms, W, L, alpha, lengthscale)
        # row s * len(_STEP_LENGTHS) + k is live start s moved by the k-th length
        trial = project_simplex(w[live][:, None] + _STEP_LENGTHS[:, None] * grad[:, None])
        trial = trial.reshape(-1, N)
        ei_t, terms = _posterior_ei(trial, W, L, alpha, lengthscale, best)
        pick = (np.arange(len(live)) * len(_STEP_LENGTHS)
                + np.argmax(ei_t.reshape(len(live), -1), axis=1))
        moved = ei_t[pick] > ei_w[live]
        live, pick = live[moved], pick[moved]
        w[live], ei_w[live] = trial[pick], ei_t[pick]
        terms = tuple(t[pick] for t in terms)
    return project_simplex(w[int(np.argmax(ei_w))])


# ---------------------------------------------------------------------------
# The sequential query loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LearnTrace:
    """Per-query record of one bo_learn run."""

    inputs: List[np.ndarray]
    values: np.ndarray

    @property
    def incumbent_values(self) -> np.ndarray:
        """The running minimum of ``values``, hence non-increasing."""
        return np.minimum.accumulate(self.values)


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
    round standardizes the observations, maximizes EI over the simplex with
    :func:`maximize_acquisition`, and queries the oracle there.  The
    lengthscale starts at :data:`LENGTHSCALE_START` and is refit every 10
    queries to the point of :data:`LENGTHSCALE_GRID` with the highest
    :func:`log_marginal_likelihood`.  Returns the incumbent (the lowest
    observed value's weight vector) and the full trace; the incumbent-value
    sequence is the running minimum, hence non-increasing.  An oracle that
    raises or returns NaN or inf stops the run with :class:`OracleFailure`,
    which carries the trace of the queries before.
    """
    N, budget = _as_count(N, "N"), _as_count(budget, "budget")
    if N < 1:
        raise ValueError(f"need N >= 1 basis actions, got {N}")
    if budget < N_INIT:
        raise ValueError(f"need budget >= {N_INIT}, got {budget}")
    rng = np.random.default_rng(seed)
    inputs: List[np.ndarray] = []
    values: List[float] = []

    def failure(reason):
        partial = LearnTrace(inputs, np.asarray(values))
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

    lengthscale = LENGTHSCALE_START
    for n in range(N_INIT, budget):
        W, eta = np.stack(inputs), _standardized(values)
        if n % 10 == 0:
            lengthscale = max(LENGTHSCALE_GRID,
                              key=lambda cand: log_marginal_likelihood(W, eta, cand))
        query(maximize_acquisition(W, eta, lengthscale, seed=int(rng.integers(2 ** 63))))

    values_arr = np.asarray(values)
    w_best = inputs[int(np.argmin(values_arr))]
    return w_best, LearnTrace(inputs, values_arr)
