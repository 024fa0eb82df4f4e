"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh child process
(``worker.py``) with OpenMP/OpenBLAS/MKL pinned to one thread and the
checkout's ``src`` on ``PYTHONPATH``; its peak RSS is read from
``getrusage(RUSAGE_CHILDREN)`` after it exits.  The report goes to standard
output, one metric per line, and its last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` list; the units come
from that file.  The exit code is not 0, and no JSON line is printed, when
the child fails or its metrics do not match the list.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser(description="ttconv benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    if not (ROOT / "src" / "ttconv" / "__init__.py").is_file():
        fail(f"no ttconv sources under {ROOT / 'src'}", 2)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        fail(f"workload exited with code {child.returncode}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result = json.loads(child.stdout.strip().splitlines()[-1])

    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", 3)

    attempted, failed = result["attempted"], result["failed"]
    env_record = {**result["env"], "git_sha": git_sha(), "seed": args.seed,
                  "workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    print(f"env {json.dumps(env_record)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, (value, unit) in result["readable"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} failed of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
