"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py [--workloads learn audit] [--seeds 10] [--out FILE]

Runs the command from BENCHMARK.json untraced, once per workload and seed
(seeds 0 .. n-1, one run at a time), and prints for every end-to-end metric
the median of the runs and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  A benchmark is steady when every
spread but that of ``setup_s`` is below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    args = ap.parse_args(argv)

    report = {}
    for workload in args.workloads:
        runs = {}
        for seed in range(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
            runs[seed] = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: {json.dumps(runs[seed])}", flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs.values()]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {"median": median, "spread": (q3 - q1) / median,
                                       "bound": metric["bound"]}
            print(f"{workload} {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"spread {(q3 - q1) / median:.4f} (bound {metric['bound']})", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
