"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--out FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) as a share of the median, next to the metric's bound.  With
--out it writes those numbers, plus the machine, as JSON (baseline.json is
made this way on the seed commit).
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

HERE = Path(__file__).resolve().parent


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    report = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
        "workloads": {},
    }
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in report["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {name:12s} median {statistics.median(vals):12.6g}"
                  f"  spread {spread:6.3f}  bound {bounds[name]}{flag}", flush=True)
        report["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
