#!/usr/bin/env python3
"""Run every benchmark workload once and print each metric by name and unit.

Usage, from the root of a topobell checkout:

    python3 perfbench/report.py --seed 1 [--seconds 35] [--trace 1] [--workload NAME ...]

Each workload runs in its own ``perfbench/run.py`` process, one after the
other. The table adds ``fail_ratio`` (failed / attempted ops) and the
wall-clock figures kept in the results file, with the percentile and
sample count behind the tail latency. Exit status is 1 when any workload
reports an incorrect output or a failed op.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WALL_CLOCK_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "op_tail_ref": "ref"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    ok = True
    for name in args.workload or names:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: run failed with exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((BENCH_DIR / "results" /
                             f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        fail_ratio = line["failed"] / line["attempted"]
        ok &= line["correct"] and line["failed"] == 0
        print(f"== {name}  seed {args.seed}  correct {line['correct']}  "
              f"attempted {line['attempted']}  failed {line['failed']}  "
              f"fail_ratio {fail_ratio:.6g}")
        sampling = record["sampling"]
        for metric, entry in line["metrics"].items():
            note = f"  ({sampling['latency_samples']} samples)" if metric == "op_p50_ref" else ""
            print(f"  {metric:50s} {entry['value']:>16.6g} {entry['unit']}{note}")
        if "wall_clock" in sampling:
            print("  wall clock, not gated:")
            for metric, value in sampling["wall_clock"].items():
                note = ""
                if metric.startswith("op_tail"):
                    note = (f"  (p{sampling['tail_percentile']:.6g}, "
                            f"{sampling['tail_samples_beyond']} of "
                            f"{sampling['latency_samples']} samples beyond)")
                print(f"  {metric:50s} {value:>16.6g} {WALL_CLOCK_UNITS[metric]}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
