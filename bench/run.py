"""cequil benchmark: seeded closed-loop workloads on the Sioux Falls network.

    python3 bench/run.py --workload {learn,audit,basis_scale} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is one client in one process that waits for every
reply.  It sets up a few times (reporting the median), then runs operations
until ``--seconds`` have passed, checks every output, and prints its
metrics by name.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record (environment, failures by layer and type,
the workload's own figures) goes to ``bench/out/``, with the spans of a
traced run.  ``--smoke`` runs the same code paths at toy size.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: the GP and LP matrices are small, and a single thread
# keeps the timings steady on a shared machine.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cequil"
OUT = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(PACKAGE.parent))
try:
    from cequil import basis, bayesopt, game, polytope, regret, tntp
except ImportError as exc:
    raise SystemExit(f"cannot import cequil from {PACKAGE.parent} ({exc}); "
                     "run from the root of a source checkout")

import numpy as np
import scipy
import scipy.optimize
from scipy import sparse

from tracer import Tracer

SETUP_REPS = 3
SETUP_MAX_REPS = 2000
# Time of the calibration kernel on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4, scipy 1.17) in a quiet stretch.  See Clock.
CALIBRATION_REF_S = 0.038
CALIBRATION_SHARE = 0.08
CALIBRATION_MIN = 10
CALIBRATION_NEAREST = 6
CALIBRATION_REACH_S = 1.0
# The CCP starting basis is pinned.  ccp_select's cost and result move a
# lot with the start (N=8: 6.0-8.4 s and min distance 36k-60k over seeds
# 0-9), far more than a bound can absorb, and most starts give bases the
# oracle rejects (see README).  Seed 0 is the documented instance.
CCP_SEED = 0
AUDIT_ALPHA = 0.1


@dataclass(frozen=True)
class Scale:
    net: str
    players3: tuple
    players5: tuple
    demand: float
    basis_n: int
    budget: int
    scale_n: int
    scale_iters: int
    # Setups repeat for at least this long.  The host's speed shifts from
    # one second to the next, so a median over a few seconds of setups is
    # steadier than one over a fraction of a second (README, Steadiness).
    setup_min_s: float


THREE = ((1, 20), (13, 8), (7, 24))
FULL = Scale("tests/data/siouxfalls_net.tntp", THREE, THREE + ((2, 19), (16, 3)),
             3000.0, basis_n=5, budget=40, scale_n=8, scale_iters=2, setup_min_s=4.0)
SMOKE = Scale("tests/data/toy4_net.tntp", ((1, 4),) * 3, ((1, 4),) * 5,
              1.0, basis_n=2, budget=7, scale_n=2, scale_iters=2, setup_min_s=0.5)

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("basis_min_dist", "flow"),
)

PER_LAYER = (
    ("bayesopt.bo_learn.s", "s"),
    ("bayesopt.maximize_acquisition.calls", "count"),
    ("bayesopt.maximize_acquisition.s", "s"),
    ("bayesopt.log_marginal_likelihood.calls", "count"),
    ("bayesopt.log_marginal_likelihood.s", "s"),
    ("bayesopt.oracle.s", "s"),
    ("bayesopt.self_s", "s"),
    ("polytope.project_simplex.calls", "count"),
    ("polytope.frank_wolfe_min.calls", "count"),
    ("polytope.frank_wolfe_min.s", "s"),
    ("polytope.frank_wolfe_min.iterations", "count"),
    ("polytope.frank_wolfe_min.iterations_max", "count"),
    ("polytope.frank_wolfe_min.nonconverged", "count"),
    ("polytope.solve_lp.calls", "count"),
    ("polytope.solve_lp.s", "s"),
    ("polytope.lp_per_fw_iter", "ratio"),
    ("regret.oracle_init.s", "s"),
    ("regret.oracle_init.failed", "count"),
    ("regret.report.calls", "count"),
    ("regret.report.s", "s"),
    ("regret.report.self_s", "s"),
    ("regret.report.cache_hits", "count"),
    ("basis.master_lp.calls", "count"),
    ("basis.master_lp.s", "s"),
    ("basis.master_lp.rows", "count"),
    ("basis.master_lp.cols", "count"),
    ("basis.master_lp.nnz", "count"),
    ("basis.master_lp.share_of_basis_s", "ratio"),
    ("basis.ccp_select.s", "s"),
    ("basis.ccp_select.iterations", "count"),
    ("basis.random_basis.s", "s"),
    ("game.build_traffic_game.s", "s"),
    ("game.player_cost.calls", "count"),
    ("tntp.parse_net.s", "s"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.setup_overhead_s", "s"),
)


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------


def _raised_in(exc: BaseException) -> str:
    """The innermost cequil module in the traceback, else 'bench'."""
    layer = "bench"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent == PACKAGE:
            layer = path.stem
    return layer


class Ledger:
    """Counts operations attempted and failed, failures by layer and type.

    Nothing is retried, clipped or filtered: an exception or a failed
    output check makes the operation count as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.failures: Counter = Counter()
        self.messages: dict = {}

    def _record(self, key, message):
        self.failures[key] += 1
        self.messages.setdefault(key, message)

    @contextmanager
    def operation(self, stage: str):
        """Count one operation; record and swallow any exception it raises."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # every failure is counted, none is fatal
            self.failed += 1
            self._record(f"{stage}/{_raised_in(exc)}/{type(exc).__name__}", str(exc))

    def check(self, stage: str, failed_checks) -> None:
        """Count a completed operation as failed if any output check failed."""
        if failed_checks:
            self.failed += 1
            self.checks_failed += 1
            for name in failed_checks:
                self._record(f"{stage}/check/{name}", "output check failed")

    def summary(self) -> dict:
        return {key: {"count": n, "message": self.messages[key]}
                for key, n in sorted(self.failures.items())}


# A Frank-Wolfe gap is g.(y - v): g the gradient at the returned point y and
# v the vertex solve_lp returns for g.  Costs are normalized to O(1), so the
# rounding of the dot product stays near 1e-15.  But solve_lp stops once no
# reduced cost is below -LP_DUAL_TOL * (1 + |g|max), the pricing tolerance
# of its simplex, so v may be worse than the true minimizer v* by up to
# that tolerance times |v - v*|_1 (the budget row's slack included).  With
# flows near 3000 that is about 1e-5, and it can make a gap negative.  Such
# a gap is checked against an independent HiGHS solve: it passes only if
# v's shortfall g.(v - v*) is within the LP's tolerance.
GAP_ROUNDING = 1e-12
LP_DUAL_TOL = 1e-9


def _exact_lp_vertex(g, poly):
    """Minimizer of g.x over ``poly`` by HiGHS, cost scaled to unit size."""
    budget = {}
    if poly.budget_coeffs is not None:
        budget = {"A_ub": poly.budget_coeffs[None, :], "b_ub": [poly.budget_limit]}
    res = scipy.optimize.linprog(
        g / np.abs(g).max(), A_eq=poly.eq_matrix, b_eq=poly.eq_rhs,
        bounds=np.column_stack([poly.lower, poly.upper]), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        **budget)
    return res.x if res.status == 0 else None


def _gap_within_lp_tolerance(game_, oracle, w, i, y) -> bool:
    fun, _ = game_.mixture_best_response(i, w, oracle.opp_totals[i])
    g = fun(y)[1]
    poly = game_.action_sets[i]
    v = polytope.solve_lp(g, poly).point
    v_star = _exact_lp_vertex(g, poly)
    if v is None or v_star is None:
        return False
    dist = float(np.abs(v - v_star).sum())
    if poly.budget_coeffs is not None:
        dist += abs(float(poly.budget_coeffs @ (v - v_star)))
    shortfall = float(g @ (v - v_star))
    return shortfall <= LP_DUAL_TOL * (1.0 + np.abs(g).max()) * dist + GAP_ROUNDING


def _gaps_checked(ctx, w, rep) -> bool:
    """Every FW gap is >= -GAP_ROUNDING, or below it only by LP tolerance."""
    return all(rep.fw_gaps[i] >= -GAP_ROUNDING
               or _gap_within_lp_tolerance(ctx.game, ctx.oracle, w, i, y)
               for i, y in enumerate(rep.best_responses))


def _negative_gaps(reports) -> int:
    return int(sum(np.count_nonzero(rep.fw_gaps < -GAP_ROUNDING) for rep in reports))


def _on_simplex(w) -> bool:
    return bool(np.all(w >= 0.0) and abs(float(np.sum(w)) - 1.0) <= 1e-12)


def _contained(game_, basis_) -> bool:
    return all(polytope.contains(game_.action_sets[i], x)
               for joint in basis_.actions for i, x in enumerate(joint))


def _basis_checks(game_, basis_, trace_) -> list:
    failed = []
    if not _contained(game_, basis_):
        failed.append("basis_contains")
    if not _contained(game_, trace_.iterates[0][0]):
        failed.append("start_basis_contains")
    objectives = [obj for _, obj in trace_.iterates]
    if any(b < a for a, b in zip(objectives, objectives[1:])):
        failed.append("ccp_objective_nondecreasing")
    return failed


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _build_game(scale: Scale, players):
    text = (ROOT / scale.net).read_text()
    net = tntp.parse_net(text)
    specs = [game.PlayerSpec(o, d, scale.demand) for o, d in players]
    return game.build_traffic_game(net, specs)


def _ccp_setup(scale: Scale, players):
    """Game, CCP basis at N=scale.basis_n from the pinned start, oracle."""
    g = _build_game(scale, players)
    b, trace = basis.ccp_select(g, scale.basis_n, seed=CCP_SEED)
    return SimpleNamespace(game=g, basis=b, ccp=trace, oracle=regret.RegretOracle(g, b))


class Learn:
    """The paper's pipeline: CCP basis, then GP-EI learning of the weights.

    One operation: a fresh oracle, ``bo_learn`` for the fixed budget, and a
    second fresh oracle's report at the incumbent (its certificate).  The
    input is the ``bo_learn`` seed.
    """

    stage = "learn"
    calibrated = ("setup", "ops")

    def __init__(self, scale: Scale):
        self.scale = scale

    def setup(self):
        return _ccp_setup(self.scale, self.scale.players3)

    def setup_checks(self, ctx) -> list:
        return _basis_checks(ctx.game, ctx.basis, ctx.ccp)

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield int(rng.integers(2 ** 32))

    def run(self, ctx, bo_seed, ledger):
        with ledger.operation("learn"):
            oracle = regret.RegretOracle(ctx.game, ctx.basis)
            t0 = time.perf_counter()
            w, trace = bayesopt.bo_learn(oracle.average, self.scale.basis_n,
                                         self.scale.budget, seed=bo_seed)
            learn_s = time.perf_counter() - t0
            rep = regret.RegretOracle(ctx.game, ctx.basis).report(w)
            return SimpleNamespace(w=w, trace=trace, report=rep, learn_s=learn_s)
        return None

    def checks(self, ctx, bo_seed, out) -> list:
        failed = []
        if not all(_on_simplex(w) for w in [out.w, *out.trace.inputs]):
            failed.append("simplex")
        if np.any(np.diff(out.trace.incumbent_values) > 0.0):
            failed.append("incumbent_nonincreasing")
        if out.report.average != out.trace.incumbent_values[-1]:
            failed.append("fresh_oracle_bitwise")
        if not _gaps_checked(ctx, out.w, out.report):
            failed.append("fw_gaps_nonnegative")
        return failed

    def same_output(self, a, b) -> bool:
        return a.report.average == b.report.average and np.array_equal(a.w, b.w)

    def figures(self, ctx, outs) -> dict:
        first = outs[0]
        return {
            "learn_s": (statistics.median(o.learn_s for o in outs), "s"),
            "final_regret": (float(first.trace.incumbent_values[-1]), "regret"),
            "certified_bound": (float(np.max(first.report.per_player
                                             + first.report.fw_gaps)), "regret"),
            "fw_gaps_negative": (_negative_gaps(o.report for o in outs), "count"),
        }

    def basis_min_dist(self, ctx, outs) -> float:
        return basis.min_pairwise_distance(ctx.basis)


class Audit:
    """The regret oracle alone, answering a seeded stream of sparse weights.

    One operation: one ``report``.  The input is a flat Dirichlet draw with
    alpha 0.1 passed through ``project_simplex``; near-vertex weights make
    Frank-Wolfe work hard, so the stream has a heavy latency tail.
    """

    stage = "report"
    calibrated = ("setup", "ops")

    def __init__(self, scale: Scale):
        self.scale = scale

    def setup(self):
        return _ccp_setup(self.scale, self.scale.players5)

    setup_checks = Learn.setup_checks

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        alpha = np.full(self.scale.basis_n, AUDIT_ALPHA)
        while True:
            yield polytope.project_simplex(rng.dirichlet(alpha))

    def run(self, ctx, w, ledger):
        with ledger.operation("report"):
            return ctx.oracle.report(w)
        return None

    def checks(self, ctx, w, rep) -> list:
        failed = []
        if not _on_simplex(w):
            failed.append("simplex")
        if not _gaps_checked(ctx, w, rep):
            failed.append("fw_gaps_nonnegative")
        return failed

    def same_output(self, a, b) -> bool:
        return np.array_equal(a.per_player, b.per_player)

    def figures(self, ctx, outs) -> dict:
        return {"fw_gaps_negative": (_negative_gaps(outs), "count")}

    basis_min_dist = Learn.basis_min_dist


class BasisScale:
    """CCP basis selection where the master LP dominates.

    One ``ccp_select`` at N=8 (two CCP iterations), then the CCP basis and
    its random starting basis are each handed to ``RegretOracle``.  Three
    operations: the selection and each hand-off.
    """

    stage = "ccp_select"
    # The kernel tracks the small LPs of the setup but not the large HiGHS
    # master LP: calibrating the operations widened their spread (README).
    calibrated = ("setup",)

    def __init__(self, scale: Scale):
        self.scale = scale

    def setup(self):
        return SimpleNamespace(game=_build_game(self.scale, self.scale.players3))

    def setup_checks(self, ctx) -> list:
        return []

    def inputs(self, seed: int):
        while True:
            yield CCP_SEED

    def run(self, ctx, ccp_seed, ledger):
        out = SimpleNamespace(basis=None, trace=None, handed=0, rejected=0)
        with ledger.operation("ccp_select"):
            t0 = time.perf_counter()
            out.basis, out.trace = basis.ccp_select(
                ctx.game, self.scale.scale_n, max_iter=self.scale.scale_iters, seed=ccp_seed)
            out.basis_s = time.perf_counter() - t0
        if out.basis is None:
            return None
        for candidate in (out.basis, out.trace.iterates[0][0]):
            out.handed += 1
            failed_before = ledger.failed
            with ledger.operation("oracle_init"):
                regret.RegretOracle(ctx.game, candidate)
            out.rejected += ledger.failed - failed_before
        return out

    def checks(self, ctx, ccp_seed, out) -> list:
        return _basis_checks(ctx.game, out.basis, out.trace)

    def same_output(self, a, b) -> bool:
        return all(np.array_equal(a.basis.joint(k), b.basis.joint(k))
                   for k in range(a.basis.size)) and a.rejected == b.rejected

    def figures(self, ctx, outs) -> dict:
        return {
            "basis_s": (statistics.median(o.basis_s for o in outs), "s"),
            "bases_handed": (sum(o.handed for o in outs), "count"),
            "bases_rejected": (sum(o.rejected for o in outs), "count"),
        }

    def basis_min_dist(self, ctx, outs) -> float:
        return statistics.median(basis.min_pairwise_distance(o.basis) for o in outs)


# basis_scale runs by name but is not in BENCHMARK.json: a run holds only
# three or four ccp_select calls, their median spread by up to 0.22 over
# ten seeds, and the kernel does not track the master LP (README).
WORKLOADS = {"learn": Learn, "audit": Audit, "basis_scale": BasisScale}


# ---------------------------------------------------------------------------
# Machine-speed calibration
# ---------------------------------------------------------------------------


class Clock:
    """Reports times at the reference host's speed.

    On a shared host the same computation runs up to 25% slower for tens
    of seconds at a time, which swamps the differences a benchmark has to
    resolve.  So a fixed kernel owned by the benchmark (a HiGHS LP plus a
    loop of small numpy operations, the mix the package runs) is timed
    between operations, taking CALIBRATION_SHARE of each phase's time and
    at least CALIBRATION_MIN samples.  The host's speed also changes from
    one second to the next, so each setup or operation is scaled by the
    kernel samples taken near it: within its own length, and at least
    CALIBRATION_REACH_S, of either end, or else the CALIBRATION_NEAREST
    nearest.  Its duration is multiplied by ``CALIBRATION_REF_S /
    median(those kernel times)``.  A long operation so draws on many
    samples and a short one on the few around it.  The raw times and the
    factors are kept in the record.  Phases not in ``phases`` are reported
    as timed.
    """

    def __init__(self, phases=("setup", "ops")):
        self.phases = phases
        rng = np.random.default_rng(12345)
        a = sparse.random(150, 400, density=0.05, format="csr", random_state=rng)
        self._lp = (rng.uniform(-1.0, 1.0, 400), a, a @ rng.uniform(0.0, 1.0, 400))
        self._x = np.linspace(0.0, 1.0, 76)
        self._kernel()  # warm-up: HiGHS and numpy set-up costs
        self.samples: dict = {}
        self._began: dict = {}
        self._spent: dict = {}

    def _kernel(self) -> None:
        cost, a, b = self._lp
        res = scipy.optimize.linprog(cost, A_eq=a, b_eq=b, bounds=(0.0, 1.0),
                                     method="highs-ds")
        if not res.success:
            raise RuntimeError(f"calibration LP failed: {res.message}")
        acc = 0.0
        for k in range(3000):
            acc += float((self._x * 1.0001 + 0.5) @ self._x) / (1 + k)

    def calibrate(self, phase: str, minimum: int = 0) -> None:
        """Time the kernel until the phase has spent its share on it."""
        if phase not in self.phases:
            return
        now = time.perf_counter()
        samples = self.samples.setdefault(phase, [])
        began = self._began.setdefault(phase, now)
        while (len(samples) < minimum or self._spent.get(phase, 0.0)
               < CALIBRATION_SHARE * (time.perf_counter() - began)):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            samples.append((t0, t1 - t0))
            self._spent[phase] = self._spent.get(phase, 0.0) + t1 - t0

    def factor(self, phase: str, during=None) -> float:
        """The phase's factor, or the factor near the interval ``during``."""
        if phase not in self.phases:
            return 1.0
        samples = self.samples[phase]
        if during is not None:
            start, end = during
            reach = max(CALIBRATION_REACH_S, end - start)
            near = [s for s in samples if start - reach <= s[0] <= end + reach]
            if len(near) < CALIBRATION_NEAREST:
                near = sorted(samples, key=lambda s: max(0.0, start - s[0], s[0] - end))
                near = near[:CALIBRATION_NEAREST]
            samples = near
        return CALIBRATION_REF_S / statistics.median(d for _, d in samples)

    def scale(self, phase: str, intervals) -> list:
        """Durations of ``intervals`` at the reference speed."""
        return [(end - start) * self.factor(phase, (start, end)) for start, end in intervals]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _timed_setups(wl, clock, tracer=None):
    """Set up at least SETUP_REPS times and for at least setup_min_s,
    so a cheap setup still gets a steady median; traced, set up once.
    Return the last context and every (start, end).  Setups are not counted
    as operations: if one fails there is nothing to measure, so the run
    stops without a result."""
    times = []
    clock.calibrate("setup", minimum=2)
    while True:
        clock.calibrate("setup")
        t0 = time.perf_counter()
        if tracer is None:
            ctx = wl.setup()
        else:
            with tracer.installed("setup"):
                ctx = wl.setup()
        times.append((t0, time.perf_counter()))
        failed = wl.setup_checks(ctx)
        if failed:
            raise SystemExit(f"setup output checks failed: {failed}")
        if (tracer is not None or len(times) >= SETUP_MAX_REPS
                or (len(times) >= SETUP_REPS
                    and sum(e - b for b, e in times) >= wl.scale.setup_min_s)):
            clock.calibrate("setup", minimum=CALIBRATION_MIN)
            return ctx, times


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _scale(value: float, unit: str, factor: float) -> float:
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def _timing_figures(setup_times, op_times) -> dict:
    figures = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops": (len(op_times), "count"),
        "op_ms_p50": (1e3 * statistics.median(op_times), "ms"),
        "ops_per_s": (len(op_times) / sum(op_times), "1/s"),
    }
    if len(op_times) >= 2:
        p90 = _p90(op_times)
        figures["op_ms_p90"] = (1e3 * p90, "ms")
        figures["samples_beyond_p90"] = (sum(t > p90 for t in op_times), "count")
    return figures


def measure(wl, seed: int, seconds: float, trace: bool):
    """Run one workload; return (ledger, figures, metrics, raw, tracer).

    ``figures`` and ``metrics`` hold calibrated times; ``raw`` holds the
    figures as timed and the calibration factors.
    """
    ledger = Ledger()
    clock = Clock(wl.calibrated)
    ctx, setups = _timed_setups(wl, clock)
    tracer = None
    if trace:
        tracer = Tracer()
        traced_ctx, traced_setup = _timed_setups(wl, clock, tracer)

    ops, paired, traced, outs = [], [], [], []
    start = time.perf_counter()
    clock.calibrate("ops", minimum=2)
    for k, x in enumerate(wl.inputs(seed)):
        if k and time.perf_counter() - start >= seconds:
            break
        clock.calibrate("ops")
        t0 = time.perf_counter()
        out = wl.run(ctx, x, ledger)
        ops.append((t0, time.perf_counter()))
        if out is None:
            continue
        ledger.check(wl.stage, wl.checks(ctx, x, out))
        outs.append(out)
        if trace:
            # replay the same input traced, on state built the same way
            with tracer.installed(f"op{k}"):
                t0 = time.perf_counter()
                replay = wl.run(traced_ctx, x, Ledger())
                traced.append((t0, time.perf_counter()))
            paired.append(ops[-1])
            if replay is None or not wl.same_output(out, replay):
                ledger.check("trace", ["traced_output_identical"])
    clock.calibrate("ops", minimum=CALIBRATION_MIN)
    if not outs:
        raise SystemExit(f"no operation completed: {ledger.summary()}")

    factor = clock.factor("ops")
    workload = wl.figures(ctx, outs)
    common = {
        "failed_share": (ledger.failed / ledger.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "basis_min_dist": (float(wl.basis_min_dist(ctx, outs)), "flow"),
    }
    raw = {"setup_speed_factor": (clock.factor("setup"), "ratio"),
           "speed_factor": (factor, "ratio"),
           "calibrations": (sum(map(len, clock.samples.values())), "count"),
           **_timing_figures([e - b for b, e in setups], [e - b for b, e in ops]),
           **common, **workload}
    figures = {**_timing_figures(clock.scale("setup", setups), clock.scale("ops", ops)),
               **common,
               **{k: (_scale(v, u, factor), u) for k, (v, u) in workload.items()}}
    if trace:
        units = dict(PER_LAYER)
        metrics = {k: _scale(v, units[k], factor)
                   for k, v in layer_metrics(tracer, len(traced)).items()}
        traced_s, paired_s = clock.scale("ops", traced), clock.scale("ops", paired)
        metrics["trace.overhead_s"] = (sum(traced_s) - sum(paired_s)) / len(traced)
        metrics["trace.overhead_share"] = sum(traced_s) / sum(paired_s) - 1.0
        metrics["trace.setup_overhead_s"] = (clock.scale("setup", traced_setup)[0]
                                             - figures["setup_s"][0])
    else:
        metrics = {name: figures[name][0] for name, _ in END_TO_END}
    return ledger, figures, metrics, raw, tracer


def layer_metrics(tracer, n_ops: int) -> dict:
    """Per-layer figures: the traced setup plus the mean traced operation.

    Counts and times are summed per phase, so the setup's share is exact
    and the operations' share is their total divided by ``n_ops``.
    """
    self_times = tracer.self_times()
    children = Counter()  # (parent index, child name) -> count
    for s in tracer.spans:
        if s.parent >= 0:
            children[s.parent, s.name] += 1
    setup, ops = Counter(), Counter()
    fw_iter_max = 0
    lp_size = Counter()
    for i, s in enumerate(tracer.spans):
        tot = setup if s.run == "setup" else ops
        tot[s.name + ".calls"] += 1
        tot[s.name + ".s"] += s.duration
        tot[s.name + ".self_s"] += self_times[i]
        if "error" in s.attrs:
            tot[s.name + ".failed"] += 1
        elif s.name == "polytope.frank_wolfe_min":
            tot["fw.iterations"] += s.attrs["iterations"]
            tot["fw.nonconverged"] += not s.attrs["converged"]
            tot["fw.lps"] += children[i, "polytope.solve_lp"]
            fw_iter_max = max(fw_iter_max, s.attrs["iterations"])
        elif s.name == "regret.report" and not children[i, "polytope.frank_wolfe_min"]:
            tot["report.cache_hits"] += 1
        elif s.name == "basis.ccp_select":
            tot["ccp.iterations"] += s.attrs["iterations"]
        if s.name == "basis.master_lp":
            for key in ("rows", "cols", "nnz"):
                lp_size[key] = max(lp_size[key], s.attrs[key])

    def per_unit(key):
        return setup[key] + ops[key] / n_ops

    m = {}
    for name, _ in PER_LAYER:
        if name.endswith((".calls", ".s")):
            m[name] = per_unit(name)
    m["bayesopt.self_s"] = per_unit("bayesopt.bo_learn.self_s")
    m["polytope.frank_wolfe_min.iterations"] = per_unit("fw.iterations")
    m["polytope.frank_wolfe_min.iterations_max"] = fw_iter_max
    m["polytope.frank_wolfe_min.nonconverged"] = per_unit("fw.nonconverged")
    fw_iters = m["polytope.frank_wolfe_min.iterations"]
    m["polytope.lp_per_fw_iter"] = per_unit("fw.lps") / fw_iters if fw_iters else 0.0
    m["regret.oracle_init.failed"] = per_unit("regret.oracle_init.failed")
    m["regret.report.self_s"] = per_unit("regret.report.self_s")
    m["regret.report.cache_hits"] = per_unit("report.cache_hits")
    for key in ("rows", "cols", "nnz"):
        m[f"basis.master_lp.{key}"] = lp_size[key]
    ccp_s = m["basis.ccp_select.s"]
    m["basis.master_lp.share_of_basis_s"] = m["basis.master_lp.s"] / ccp_s if ccp_s else 0.0
    m["basis.ccp_select.iterations"] = per_unit("ccp.iterations")
    m["trace.ops"] = n_ops
    m["trace.spans"] = len(tracer.spans)
    return m


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas() -> list:
    """Build string and live thread count of each OpenBLAS numpy/scipy load."""
    found = []
    for mod in (np, scipy):
        for lib_path in sorted(glob.glob(os.path.dirname(mod.__file__) + ".libs/*openblas*")):
            entry = {"library": os.path.basename(lib_path)}
            try:
                lib = ctypes.CDLL(lib_path)
            except OSError:
                found.append(entry)
                continue
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    entry["config"] = get_config().decode()
                    entry["threads"] = get_threads()
                    break
            found.append(entry)
    return found


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy network, N=2, small budget: checks the code paths")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload](SMOKE if args.smoke else FULL)
    ledger, figures, metrics, raw, tracer = measure(wl, args.seed, args.seconds, bool(args.trace))

    for name, (value, unit) in figures.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failures = {json.dumps(ledger.summary())}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": ledger.checks_failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": environment(args), "result": result,
              "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
              "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
              "failures": ledger.summary()}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
