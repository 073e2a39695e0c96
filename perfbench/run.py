"""The cyclocone benchmark: three seeded workloads, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md next to this file for why each exists):

  orbit-table  `cyclocone orbits --format tsv` at (3,3), (4,3), (3,4), then
               `--format json --chi <seeded>` at (3,3); one cold process each.
  chi-sweep    fresh interpreters that each make one cold
               `semisimplicity_report(4, 4, .)` and 1,000 warm ones.
  cli-queries  short `cyclocone` processes: the README examples plus seeded
               `pi1` and `semisimple --chi` queries at n, ell <= 3.

Every output is checked against `expected.json`, recorded from the seed
commit by `record.py`: stdout sha256 and exit code per invocation, row
counts per table, and (semisimple, simple_count) per character.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` a separate traced run (tracer.py) carries the per-layer metrics.
`--smoke` shrinks every workload to (2,2) sizes for `smoke_test.py`.
Children run one at a time, with `src/` on PYTHONPATH; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from calib import REFERENCE_S, calibration_s, normalize, scale
from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
CHILD_LIMIT_S = 60.0
FORMATS = ("pretty", "json", "tsv")
IMPORT_ARGV = [sys.executable, "-c", "import cyclocone.cli"]
STARTUP_ARGV = [sys.executable, "-c", "pass"]

# Sizes per workload.  SMOKE keeps every workload at (2,2) so that a
# smoke test of the whole harness takes seconds.
FULL = {
    "tables": ("3,3", "4,3", "3,4"),
    "chi_table": "3,3",
    "sweep": "4,4",
    "warm_calls": 1000,
    "min_children": 3,
    "per_stratum": 1,
    "imports_per_pass": 2,
    "startup_reps": 7,
}
SMOKE = {
    "tables": ("2,2",),
    "chi_table": "2,2",
    "sweep": "2,2",
    "warm_calls": 20,
    "min_children": 2,
    "per_stratum": 1,
    "imports_per_pass": 1,
    "startup_reps": 3,
}


class Done(NamedTuple):
    code: int
    out: bytes
    wall_s: float
    rss_mb: float
    err: bytes


class Call(NamedTuple):
    args: tuple[str, ...]
    exit: int
    sha256: str
    rows: int


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        PYTHONIOENCODING="utf-8",
    )


ENV = _env()


def spawn(argv: list[str], stdin: bytes = b"") -> Done:
    """Run one child to completion; peak RSS comes from its own wait4."""
    SCRATCH.mkdir(exist_ok=True)
    with open(SCRATCH / "child.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            env=ENV,
            cwd=ROOT,
        )
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            if stdin:
                proc.stdin.write(stdin)
                proc.stdin.close()
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Done(proc.returncode, out, wall, usage.ru_maxrss / 1024, err.read())


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "cyclocone.cli", *args]


def probe_argv(mode: str, *args, spans: Path | None = None) -> list[str]:
    argv = [sys.executable, str(HERE / "probe.py"), mode]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if mode == "cli":
        argv.append("--")
    return argv + list(args)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Attempted and failed operations, with the first few failures shown."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {what}", file=sys.stderr)
        return ok


def median_wall(argv, reps: int, tally: Tally) -> float:
    walls = []
    for _ in range(reps):
        done = spawn(argv)
        if tally.check(done.code == 0, f"{argv[1:]} exited {done.code}"):
            walls.append(done.wall_s)
    return statistics.median(walls)


# ---------------------------------------------------------------- workloads


def orbit_table_pass(expected, cfg, rng) -> list[Call]:
    tables = expected["tables"]
    calls = []
    for key in cfg["tables"]:
        n, ell = key.split(",")
        t = tables[key]
        args = ("orbits", "-n", n, "-l", ell, "--format", "tsv")
        calls.append(Call(args, 0, t["sha256"], t["rows"]))
    key = cfg["chi_table"]
    n, ell = key.split(",")
    chi, digest = rng.choice(expected["chi_tables"][key])
    args = ("orbits", "-n", n, "-l", ell, "--format", "json", "--chi", chi)
    calls.append(Call(args, 0, digest, tables[key]["rows"]))
    return calls


def readme_calls(expected) -> list[Call]:
    return [Call(tuple(q["args"]), q["exit"], q["sha256"], 1) for q in expected["readme"]]


def cli_round(expected, cfg, rng) -> list[Call]:
    calls = readme_calls(expected)
    for i, stratum in enumerate(expected["strata"]):
        for j, entry in enumerate(rng.sample(stratum, cfg["per_stratum"])):
            fmt = FORMATS[(i + j) % len(FORMATS)]
            code, digest = entry[fmt]
            calls.append(Call((*entry["args"], "--format", fmt), code, digest, 1))
    return calls


def run_calls(calls, tally: Tally, spans_dir=None, timeline=None) -> list[Done]:
    """Run each call in its own process; a failed check counts in the tally."""
    start = timeline.spawn if timeline is not None else spawn
    results = []
    for i, call in enumerate(calls):
        if spans_dir is None:
            argv = cli_argv(call.args)
        else:
            argv = probe_argv("cli", *call.args, spans=spans_dir / f"{i:04d}.json")
        done = start(argv)
        tally.check(passed(call, done), f"cyclocone {' '.join(call.args)}: exit {done.code}")
        results.append(done)
    return results


def passed(call: Call, done: Done) -> bool:
    return done.code == call.exit and sha256(done.out) == call.sha256


def sweep_windows(expected, cfg, rng):
    """Endless stream of per-child character windows from the seeded order."""
    pool = expected["chi_pools"][cfg["sweep"]]
    order = list(range(len(pool)))
    rng.shuffle(order)
    width = cfg["warm_calls"] + 1
    child = 0
    while True:
        yield [pool[order[(child * width + k) % len(order)]] for k in range(width)]
        child += 1


def run_sweep_child(window, cfg, tally: Tally, spans: Path | None = None):
    n, ell = cfg["sweep"].split(",")
    stdin = json.dumps([chi for chi, _, _ in window]).encode()
    done = spawn(probe_argv("sweep", "-n", n, "-l", ell, spans=spans), stdin)
    if not tally.check(done.code == 0, f"sweep child exited {done.code}: {done.err[-300:]!r}"):
        return done, None
    result = json.loads(done.out)
    tally.check(len(result["verdicts"]) == len(window), "chi-sweep child skipped characters")
    for (chi, semisimple, count), got in zip(window, result["verdicts"]):
        tally.check(got == [semisimple, count], f"chi-sweep chi={chi}: {got}")
    return done, result


# ---------------------------------------------------------- untraced runs


def calibration_note(cals: list[float]) -> str:
    return (
        f"times scaled to reference speed; median calibration "
        f"{statistics.median(cals) * 1e3:.3f} ms, reference {REFERENCE_S * 1e3:.3f} ms"
    )


class Timeline:
    """Requests timed one after another, with a calibration before each.

    `close` adds the calibration after the last request and returns every
    wall time scaled to reference speed (see calib.py).
    """

    def __init__(self):
        self.walls: list[float] = []
        self.cals: list[float] = []
        self.rss: list[float] = []

    def spawn(self, argv: list[str]) -> Done:
        self.cals.append(calibration_s())
        done = spawn(argv)
        self.walls.append(done.wall_s)
        self.rss.append(done.rss_mb)
        return done

    def close(self) -> list[float]:
        return normalize(self.walls, self.cals + [calibration_s()])


def measure_passes(make_pass, cfg, seconds, tally):
    """Passes of CLI calls until `seconds` are up, at least two.

    Each pass starts with `imports_per_pass` fresh `import cyclocone.cli`
    processes, so that the `setup_s` samples spread over the run like the
    calls do.  Returns the scaled import times and, per pass, its calls and
    their scaled wall times.
    """
    timeline = Timeline()
    imports, passes = [], []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        for _ in range(cfg["imports_per_pass"]):
            done = timeline.spawn(IMPORT_ARGV)
            tally.check(done.code == 0, f"import exited {done.code}")
            imports.append(len(timeline.walls) - 1)
        calls = make_pass()
        first = len(timeline.walls)
        run_calls(calls, tally, timeline=timeline)
        passes.append((calls, range(first, len(timeline.walls))))
    scaled = timeline.close()
    return (
        [scaled[i] for i in imports],
        [(calls, [scaled[i] for i in span]) for calls, span in passes],
        max(timeline.rss),
        timeline.cals,
    )


def measure_orbit_table(expected, cfg, rng, seconds, tally):
    imports, passes, peak, cals = measure_passes(
        lambda: orbit_table_pass(expected, cfg, rng), cfg, seconds, tally
    )
    rows = sum(call.rows for call in passes[0][0])
    total = sum(w for _, walls in passes for w in walls)
    # The four invocations of a pass differ in size, so percentiles are
    # taken within a pass and their median over the passes (about five)
    # is reported; the slowest invocation is the (3,4) table.
    e2e = {
        "setup_s": statistics.median(imports),
        "ops_per_s": rows * len(passes) / total,
        "op_p50_ms": statistics.median(statistics.median(w) for _, w in passes) * 1e3,
        "op_tail_ms": statistics.median(max(w) for _, w in passes) * 1e3,
        "peak_rss_mb": peak,
    }
    named = {
        "labels_per_s": (e2e["ops_per_s"], "1/s"),
        "table_wall_s": (e2e["op_p50_ms"] / 1e3, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    note = (
        f"{len(passes)} passes of {len(passes[0][0])} invocations, {rows} rows a pass; "
        + calibration_note(cals)
    )
    return e2e, named, note


def measure_cli_queries(expected, cfg, rng, seconds, tally):
    imports, rounds, peak, cals = measure_passes(
        lambda: cli_round(expected, cfg, rng), cfg, seconds, tally
    )
    every = [w * 1e3 for _, walls in rounds for w in walls]
    # p90 sits on the edge between the light queries and the three heavy
    # ones of a round (3 of 26), so it jumps between runs; p95 lies inside
    # the heavy group and still has >= 15 queries beyond it.
    e2e = {
        "setup_s": statistics.median(imports),
        "ops_per_s": len(every) / (sum(every) / 1e3),
        "op_p50_ms": statistics.median(every),
        "op_tail_ms": quantile(every, 95),
        "peak_rss_mb": peak,
    }
    named = {
        "query_p50_ms": (e2e["op_p50_ms"], "ms"),
        "query_p90_ms": (quantile(every, 90), "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    note = f"{len(rounds)} rounds of {len(rounds[0][0])} queries; " + calibration_note(cals)
    return e2e, named, note


def measure_chi_sweep(expected, cfg, rng, seconds, tally):
    windows = sweep_windows(expected, cfg, rng)
    setups, latencies, rss, all_cals = [], [], [], []
    start = time.perf_counter()
    children = 0
    while children < cfg["min_children"] or time.perf_counter() - start < seconds:
        children += 1
        done, result = run_sweep_child(next(windows), cfg, tally)
        if result is None:
            continue
        setups += normalize([result["setup_s"]], result["setup_cals"])
        block, cals = result["block"], result["cals"]
        all_cals += cals
        for k in range(len(cals) - 1):
            factor = scale(cals[k], cals[k + 1])
            lat = result["latencies_ns"][k * block : (k + 1) * block]
            latencies += [ns / 1e6 * factor for ns in lat]
        rss.append(done.rss_mb)
    # p99 is the 30 slowest reports, a fraction of a second: one burst from
    # another tenant, shorter than a calibration block, moved it by almost
    # 50% between runs.  p90 needs ten times as long a disturbance.
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": quantile(latencies, 90),
        "peak_rss_mb": max(rss),
    }
    named = {
        "chars_per_s": (e2e["ops_per_s"], "1/s"),
        "op_p50_ms": (e2e["op_p50_ms"], "ms"),
        "op_p99_ms": (quantile(latencies, 99), "ms"),
        "setup_s": (e2e["setup_s"], "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
    }
    note = f"{children} children, {len(latencies)} warm reports; " + calibration_note(all_cals)
    return e2e, named, note


MEASURE = {
    "orbit-table": measure_orbit_table,
    "chi-sweep": measure_chi_sweep,
    "cli-queries": measure_cli_queries,
}


# ------------------------------------------------------------ traced runs


def layer_metrics(s: dict, stdout_bytes: int, startup_s: float) -> dict:
    calls, incl, self_s, counts = s["calls"], s["incl"], s["self"], s["counts"]

    def rate(name):
        return calls[name] / incl[name] if calls.get(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "partitions.residue.calls_per_s": rate("partitions.residue"),
        "partitions.partitions_of.calls_per_s": rate("partitions.partitions_of"),
        "orbits.enumerate_orbits.s": incl.get("orbits.enumerate_orbits", 0.0),
        "orbits.labels": counts["labels"],
        "orbits.decompose.calls_per_s": rate("orbits.decompose"),
        "orbits.decompose.calls_per_label": ratio(
            calls.get("orbits.decompose", 0), counts["labels"]
        ),
        "orbits.fundamental_group.self_s": self_s.get("orbits.fundamental_group", 0.0),
        "orbits.string_class_table.s": self_s.get("orbits.string_class_table", 0.0),
        "orbits.count_Q_chi.s": self_s.get("orbits.count_Q_chi", 0.0),
        "orbits.groups_walked_per_chi": ratio(
            counts["groups_walked"], calls.get("orbits.count_Q_chi", 0)
        ),
        "orbits.enumerate_Q_chi.s": incl.get("orbits.enumerate_Q_chi", 0.0),
        "abelian.cokernel.calls_per_s": rate("abelian.cokernel"),
        "abelian.smith_normal_form.s": incl.get("abelian.smith_normal_form", 0.0),
        "abelian.cokernel.distinct_ratio": ratio(
            counts["distinct_keys"], calls.get("abelian.cokernel", 0)
        ),
        "rootlattice.generate_Rn.calls_per_s": rate("rootlattice.generate_Rn"),
        "rootlattice.pair.calls_per_s": rate("rootlattice.pair"),
        "rootlattice.roots_per_chi": ratio(
            counts["roots"], calls.get("report.semisimplicity_report", 0)
        ),
        "params.chi_to_kappa.s": incl.get("params.chi_to_kappa", 0.0),
        "params.hecke_params.s": incl.get("params.hecke_params", 0.0),
        "params.ariki_product_nonzero.s": incl.get("params.ariki_product_nonzero", 0.0),
        "report.orbit_report.self_s": self_s.get("report.orbit_report", 0.0),
        "report.semisimplicity_report.self_s": self_s.get(
            "report.semisimplicity_report", 0.0
        ),
        "report.count_multipartitions.s": incl.get("report.count_multipartitions", 0.0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "cli.import_s": statistics.median(s["import_s"]) if s["import_s"] else 0.0,
        "proc.startup_s": startup_s,
    }


def trace_workload(workload, expected, cfg, rng, tally):
    """Two traced runs of the same unit of work with an untraced one between.

    The unit is one cli-queries round, or one orbit-table pass or one
    chi-sweep child followed by the README examples other than the
    self-test, so that every layer is reached and no per-layer time reads a
    constant 0.  Per-layer values
    are the median of the two traced runs; the exact counts must be
    identical between them.
    """
    spans_root = SCRATCH / "spans" / workload
    for old in spans_root.glob("*/*.json"):
        old.unlink()
    if workload == "cli-queries":
        calls = cli_round(expected, cfg, rng)
    else:  # the self-test would add 200 reports at (3,2) to chi-sweep's ratios
        calls = [c for c in readme_calls(expected) if "--selftest" not in c.args]
    if workload == "orbit-table":
        calls = orbit_table_pass(expected, cfg, rng) + calls
    if workload == "chi-sweep":
        window = next(sweep_windows(expected, cfg, rng))

    def unit(spans_dir):
        wall = 0.0
        if workload == "chi-sweep":
            spans = spans_dir / "child.json" if spans_dir else None
            wall = run_sweep_child(window, cfg, tally, spans)[0].wall_s
        dones = run_calls(calls, tally, spans_dir)
        return wall + sum(d.wall_s for d in dones), sum(len(d.out) for d in dones)

    traced_walls, summaries = [], []
    for k in (1, 2):
        if k == 2:  # between the traced runs, so drift hits both sides alike
            untraced_wall, _ = unit(None)
        spans_dir = spans_root / f"pass{k}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        wall, stdout_bytes = unit(spans_dir)
        traced_walls.append(wall)
        summaries.append(summarize(sorted(spans_dir.glob("*.json"))))
    exact = [(s["counts"], s["calls"]) for s in summaries]
    tally.check(exact[0] == exact[1], f"exact counts differ between traced runs: {exact}")
    startup = median_wall(STARTUP_ARGV, cfg["startup_reps"], tally)
    runs = [layer_metrics(s, stdout_bytes, startup) for s in summaries]
    metrics = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - untraced_wall
    counts = summaries[0]["counts"]
    counts["cokernel_calls"] = summaries[0]["calls"].get("abelian.cokernel", 0)
    note = (
        f"untraced {untraced_wall:.3f} s, traced {traced_walls[0]:.3f} s and "
        f"{traced_walls[1]:.3f} s; exact counts {counts}"
    )
    return metrics, note


# ------------------------------------------------------------------- main


def load_expected() -> dict:
    expected = json.loads((HERE / "expected.json").read_text())
    for key, pool in expected["chi_pools"].items():
        verdicts = json.dumps([[s, c] for _, s, c in pool], separators=(",", ":"))
        if sha256(verdicts.encode()) != expected["chi_pool_sha256"][key]:
            raise ValueError(f"chi pool {key} does not match its recorded digest")
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MEASURE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="(2,2) sizes")
    args = parser.parse_args()
    if not (SRC / "cyclocone" / "__init__.py").is_file():
        print(f"error: no cyclocone sources under {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    cfg = SMOKE if args.smoke else FULL
    rng = random.Random(args.seed)
    tally = Tally()

    warmup = spawn(probe_argv("cli", "orbits", "-n", "1", "-l", "1"))
    if warmup.code != 0:
        print(f"error: warm-up failed: {warmup.err.decode()[-500:]}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            metrics, note = trace_workload(args.workload, expected, cfg, rng, tally)
        else:
            metrics, named, note = MEASURE[args.workload](
                expected, cfg, rng, args.seconds, tally
            )
    except statistics.StatisticsError:
        print("error: too few operations succeeded to compute metrics", file=sys.stderr)
        return 1
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.6g} {units[name]}")
    else:
        for name, (value, unit) in named.items():
            print(f"  {name:14s} {value:12.6g} {unit}")
        ratio = tally.failed / tally.attempted if tally.attempted else 0.0
        print(f"  {'fail_ratio':14s} {ratio:12.6g} ratio ({tally.failed}/{tally.attempted})")
    print(f"  ({note})")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
