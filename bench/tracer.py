"""Span tracing of the cequil layers from outside the package.

The tracer replaces public functions at the module bindings through which
the package (and the benchmark) call them, records one span per call, and
puts every binding back when the traced block ends.  Nothing under
``src/cequil/`` changes, and with no tracer installed the package runs
exactly as shipped.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``run`` names the setup or
operation the span belongs to.  Spans stay in memory until the benchmark
writes them out at the end.  A span's self time is its duration minus the
time its direct children cover; calls are sequential, so the children
never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from cequil import basis, bayesopt, game, polytope, regret, tntp


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _linprog_size(args, kwargs) -> dict:
    # rows, columns and nonzeros of the LP as passed to scipy's linprog
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    cost = args[0] if args else kwargs["c"]
    mats = [m for m in (a_ub, a_eq) if m is not None]
    return {"rows": sum(m.shape[0] for m in mats),
            "cols": len(cost),
            "nnz": sum(int(m.nnz) for m in mats)}


def _fw_result(out) -> dict:
    return {"iterations": int(out.iterations), "converged": bool(out.converged)}


def _ccp_result(out) -> dict:
    return {"iterations": int(out[1].iterations)}


# (module, attribute, span name, summary of the arguments, summary of the result)
BINDINGS = (
    (tntp, "parse_net", "tntp.parse_net", None, None),
    (game, "build_traffic_game", "game.build_traffic_game", None, None),
    (game, "player_cost", "game.player_cost", None, None),
    (polytope, "solve_lp", "polytope.solve_lp", None, None),
    (game, "solve_lp", "polytope.solve_lp", None, None),
    (basis, "solve_lp", "polytope.solve_lp", None, None),
    (regret, "frank_wolfe_min", "polytope.frank_wolfe_min", None, _fw_result),
    (bayesopt, "project_simplex", "polytope.project_simplex", None, None),
    (basis, "ccp_select", "basis.ccp_select", None, _ccp_result),
    (basis, "random_basis", "basis.random_basis", None, None),
    (basis, "linprog", "basis.master_lp", _linprog_size, None),
    (bayesopt, "bo_learn", "bayesopt.bo_learn", None, None),
    (bayesopt, "maximize_acquisition", "bayesopt.maximize_acquisition", None, None),
    (bayesopt, "log_marginal_likelihood", "bayesopt.log_marginal_likelihood", None, None),
    (regret.RegretOracle, "__init__", "regret.oracle_init", None, None),
    (regret.RegretOracle, "report", "regret.report", None, None),
    # bo_learn only ever queries RegretOracle.average in this benchmark, so
    # this span is the time spent inside the callable bo_learn is handed
    (regret.RegretOracle, "average", "bayesopt.oracle", None, None),
)


class Tracer:
    """Collects spans while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""

    def _wrap(self, name, fn, describe_args, describe_result):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, time.perf_counter(), float("nan"), parent, self.run)
            if describe_args is not None:
                span.attrs.update(describe_args(args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if describe_result is not None:
                span.attrs.update(describe_result(out))
            return out

        return traced

    @contextmanager
    def installed(self, run: str):
        """Patch every binding, tag new spans with ``run``, restore on exit."""
        self.run = run
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in BINDINGS]
        try:
            for owner, attr, name, describe_args, describe_result in BINDINGS:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr),
                                                describe_args, describe_result))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run, **s.attrs}) + "\n")
