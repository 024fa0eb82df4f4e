"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: (Q3 - Q1) / median, next to the metric's bound in
``BENCHMARK.json``.  A spread above a third of the bound is marked.
``--out FILE`` also writes every run's metrics as JSON, for comparing two
commits by hand.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "correct": result["correct"], "metrics": values})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        mark = "  > bound/3" if spread > metric["bound"] / 3 else ""
        print(f"{metric['name']:<20}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.4f}{metric['bound']:>7}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
