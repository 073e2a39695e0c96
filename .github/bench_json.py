"""Summarize paired benchmark runs of a parent and a changed checkout.

    python .github/bench_json.py OUT.json \
        --pair WORKLOAD PARENT_OUTPUT CHANGE_OUTPUT [--pair ...]

Each output file holds the stdout of one `perfbench/run.py --trace 0` run;
its last line is the JSON summary that run.py prints.  For every workload
and end-to-end metric of BENCHMARK.json, OUT.json gets the parent's and the
change's runs, their medians and quartiles, and the number of pairs in which
the change did better.  Nothing but the standard library is used.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json_line(path: str) -> dict:
    lines = Path(path).read_text().strip().splitlines()
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument(
        "--pair",
        nargs=3,
        action="append",
        required=True,
        metavar=("WORKLOAD", "PARENT_OUTPUT", "CHANGE_OUTPUT"),
    )
    args = parser.parse_args()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[tuple[dict, dict]]] = {}
    for workload, parent, change in args.pair:
        pair = last_json_line(parent), last_json_line(change)
        runs.setdefault(workload, []).append(pair)
    summary = {}
    for workload, pairs in runs.items():
        entry = {
            "pairs": len(pairs),
            "correct": all(run["correct"] for pair in pairs for run in pair),
            "failed": {
                side: sum(pair[k]["failed"] for pair in pairs)
                for k, side in enumerate(("parent", "change"))
            },
            "metrics": {},
        }
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = [[run["metrics"][name]["value"] for run in pair] for pair in pairs]
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": spread([p for p, _ in values]),
                "change": spread([c for _, c in values]),
                "change_wins": sum(sign * (c - p) > 0 for p, c in values),
            }
        summary[workload] = entry
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
