"""Smoke tests of the benchmark harness at toy size.

Run with ``python -m pytest bench/test_smoke.py``.  Every workload runs
untraced and traced on the four-link toy network in well under a second,
so the harness cannot drift from the package or from BENCHMARK.json.
"""

import dataclasses
import json

import numpy as np

import pytest

import run
from cequil import polytope, regret


def _run(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace, tmp_path, monkeypatch, capsys):
    lines, result = _run(workload, trace, tmp_path, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    # the toy network has no solver noise, so nothing fails there
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["environment"]["seed"] == 3
    assert record["environment"]["traced"] == bool(trace)
    assert any(line.startswith(f"{workload} op_ms_p50 = ") for line in lines)


def test_tracing_restores_bindings_and_accounts_for_bo_learn(tmp_path, monkeypatch, capsys):
    solve_lp, report = polytope.solve_lp, regret.RegretOracle.report
    _, result = _run("learn", 1, tmp_path, monkeypatch, capsys)
    assert polytope.solve_lp is solve_lp and regret.RegretOracle.report is report
    m = {k: v["value"] for k, v in result["metrics"].items()}
    parts = (m["bayesopt.maximize_acquisition.s"] + m["bayesopt.log_marginal_likelihood.s"]
             + m["bayesopt.oracle.s"] + m["bayesopt.self_s"])
    assert m["bayesopt.self_s"] > 0.0 and parts <= m["bayesopt.bo_learn.s"] * (1 + 1e-9)
    assert m["regret.report.calls"] >= run.SMOKE.budget
    spans = (tmp_path / "learn-seed3-trace1.spans.jsonl").read_text().splitlines()
    assert len(spans) == m["trace.spans"]


def test_failures_are_counted_by_layer_and_type():
    ledger = run.Ledger()
    with ledger.operation("oracle_init"):
        polytope.project_simplex([float("nan")])
    ledger.check("report", ["fw_gaps_nonnegative"])
    assert (ledger.attempted, ledger.failed, ledger.checks_failed) == (1, 2, 1)
    assert set(ledger.summary()) == {"oracle_init/polytope/ValueError",
                                     "report/check/fw_gaps_nonnegative"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_negative_gap_passes_only_within_lp_tolerance(monkeypatch):
    wl = run.Audit(run.SMOKE)
    ctx = wl.setup()
    w = polytope.project_simplex([0.7, 0.3])
    rep = ctx.oracle.report(w)
    shifted = dataclasses.replace(rep, fw_gaps=rep.fw_gaps - 1e-6)
    # the toy LP is solved exactly, so a negative gap is within tolerance
    assert wl.checks(ctx, w, shifted) == []

    def worst_vertex(c, poly):  # a vertex far from optimal
        return solve_lp(-np.asarray(c), poly)

    solve_lp = polytope.solve_lp
    monkeypatch.setattr(polytope, "solve_lp", worst_vertex)
    assert wl.checks(ctx, w, shifted) == ["fw_gaps_nonnegative"]
