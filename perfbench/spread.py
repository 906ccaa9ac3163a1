#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds, report each spread.

    python3 perfbench/spread.py --workload link_sim --seeds 1 2 3 4 5

Runs the benchmark command from BENCHMARK.json once per seed, one run at a
time, and prints for every end-to-end metric the median of the runs and
the distance between their first and third quartiles (as
statistics.quantiles(values, n=4) gives them) as a share of that median,
next to the metric's bound. A spread above a third of its bound means the
benchmark is not yet steady enough for that bound. With --compare FILE it
also prints how far each median moved from an earlier summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, default=None,
                        help="summary JSON written by an earlier run")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write this summary")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode or not last.startswith("{"):
            print(proc.stdout[-2000:], proc.stderr[-4000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(last)
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(
            f"{m['name']}={runs[-1][m['name']]:.5g}" for m in declared),
            flush=True)

    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    summary = {}
    for m in declared:
        values = [r[m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[m["name"]] = {"median": med, "spread": spread,
                              "values": values}
        line = f"{m['name']:<36} median {med:<12.6g} spread {spread:7.2%}"
        if "bound" in m:
            line += f"  bound {m['bound']:.0%}" + (
                "  ABOVE A THIRD" if spread > m["bound"] / 3 else "")
        if m["name"] in earlier:
            before = earlier[m["name"]]["median"]
            worse = (med - before) / abs(before) * (
                1 if m["better"] == "lower" else -1)
            line += f"  worse than earlier by {worse:+.2%}"
        print(line)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
