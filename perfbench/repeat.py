"""Run the benchmark once per seed and summarize each metric.

    python3 perfbench/repeat.py --workload float_dense --seeds 1-10 [--trace 1] [--seconds 18]

Each run is a separate process, as the benchmark is meant to be run. For
every metric it prints the median, the quartiles and the spread, which is
(Q3 - Q1) / median with the quartiles of statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="a seed or a range such as 1-10")
    p.add_argument("--seconds", default="18")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:28} {units[name]:6} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
