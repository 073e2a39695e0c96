"""Child process of the benchmark: one CLI invocation or one chi-sweep.

    python3 perfbench/probe.py cli [--spans FILE] -- ARGV...
        Runs `cyclocone ARGV...` in this process, exactly as
        `python3 -m cyclocone.cli ARGV...` would, optionally traced.
    python3 perfbench/probe.py sweep -n N -l ELL [--spans FILE] < chis.json
        Reads a JSON list of characters.  The first one is the cold
        `semisimplicity_report` call (the set-up, timed from before the
        import); the rest are timed one by one, with a calibration before
        every block of BLOCK reports and after the last.  Prints one JSON
        object.

With --spans the calls into cyclocone's modules are traced (see tracer.py)
and the spans are written to FILE when the process ends.  The child runs
with `src/` on PYTHONPATH; the parent sets that up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from calib import calibration_s
from tracer import Tracer

# Warm reports timed between two calibrations (see calib.py).
BLOCK = 10


def _cli(args) -> int:
    start = time.perf_counter()
    import cyclocone.cli as cli

    import_s = time.perf_counter() - start
    tracer = None
    if args.spans:
        tracer = Tracer(args.spans.stem)
        tracer.install()
    try:
        return cli.run(args.argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(args.spans, import_s=import_s)


def _sweep(args) -> int:
    chis = json.load(sys.stdin)
    setup_cals = [calibration_s()]
    start = time.perf_counter()
    import cyclocone

    tracer = None
    if args.spans:
        tracer = Tracer(args.spans.stem)
        tracer.install()
    report_of = cyclocone.semisimplicity_report
    parse = cyclocone.RationalCharacter.parse
    n, ell = args.n, args.ell
    verdicts = []

    def one(chi):
        try:
            report = report_of(n, ell, chi)
        except cyclocone.CriteriaDisagreement as exc:
            verdicts.append(f"criteria disagreement: {exc}")
        else:
            verdicts.append([report.semisimple, report.simple_count])

    one(parse(chis[0]))
    setup_s = time.perf_counter() - start
    setup_cals.append(calibration_s())
    warm = [parse(text) for text in chis[1:]]
    latencies_ns = []
    cals = []
    clock = time.perf_counter_ns
    for k in range(0, len(warm), BLOCK):
        cals.append(calibration_s())
        for chi in warm[k : k + BLOCK]:
            t0 = clock()
            one(chi)
            latencies_ns.append(clock() - t0)
    cals.append(calibration_s())
    if tracer is not None:
        tracer.dump(args.spans)
    json.dump(
        {
            "setup_s": setup_s,
            "setup_cals": setup_cals,
            "latencies_ns": latencies_ns,
            "block": BLOCK,
            "cals": cals,
            "verdicts": verdicts,
        },
        sys.stdout,
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", type=Path)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("sweep")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return _cli(args)
    return _sweep(args)


if __name__ == "__main__":
    sys.exit(main())
