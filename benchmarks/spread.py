"""Repeat the benchmark over seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads laws crosscheck cli --seeds 1-10 --seconds 30

Runs ``run.py`` untraced once per (workload, seed), one run at a time, keeps each
run's result line in ``benchmarks/results/`` and prints, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (IQR / median) and the failed share of the operations attempted.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600, check=True)
    line = proc.stdout.strip().splitlines()[-1]
    name = f"{workload}-seed{seed}.json"
    (RESULTS / name).write_text(line + "\n")
    return json.loads(line)


def summary(runs):
    print(f"  failed/attempted: {sorted({(r['failed'], r['attempted']) for r in runs})}")
    print(f"  correct: {sorted({r['correct'] for r in runs})}")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {metric:24s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:7.2%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["laws", "crosscheck", "cli"])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()

    RESULTS.mkdir(exist_ok=True)
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds) for s in args.seeds]
        print(f"{workload} (seeds {args.seeds[0]}-{args.seeds[-1]}):")
        summary(runs)


if __name__ == "__main__":
    main()
