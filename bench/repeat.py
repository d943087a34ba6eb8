"""Run the benchmark on several seeds and summarise each metric.

    python3 bench/repeat.py --seeds 1-10 --seconds 20 --trace 0 \
        [--workloads night-score,long-decode] [--out bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints per workload and metric the median, the quartiles and the spread
(quartile distance over the median) of the runs.  Those are the figures a
performance claim and the bounds in ``BENCHMARK.json`` are judged by.
``--out`` merges the summary, with the machine it ran on, into a JSON
file under ``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def commit() -> str | None:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    result = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            run = json.loads(done.stdout.splitlines()[-1])
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']}", file=sys.stderr)
            runs.append(run)
        metrics = {
            name: summary([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        for name, s in metrics.items():
            print(f"{workload:<18} {name:<36} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
        result[workload] = {
            "seconds": args.seconds,
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.update(machine=machine(), commit=commit())
        doc.setdefault("per_layer" if args.trace else "end_to_end", {}).update(result)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
