"""Run one workload on several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload paper-sweep --seeds 101 102 103 104 105

The spread is the distance between the first and third quartile of the
values as a share of their median (``benchstats.relative_spread``); it is
printed next to the bound in ``BENCHMARK.json`` and a third of it, the
target a steady benchmark stays under.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(config["run_seconds"]),
             "--trace", str(args.trace)],
            check=True, capture_output=True, text=True, cwd=ROOT,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          **{k: round(v["value"], 4) for k, v in result["metrics"].items()}}),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) < 2:
        return 0
    for name, series in values.items():
        spread = benchstats.relative_spread(series) if statistics.median(series) else 0.0
        bound = bounds.get(name)
        print(f"{name:28s} median {statistics.median(series):14.4f}  spread {spread:7.4f}"
              + (f"  bound {bound}  third {bound / 3:.4f}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
