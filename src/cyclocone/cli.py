"""Command line entry point.

Subcommands: orbits, pi1, simples, semisimple, hyperplanes, translate.
Output is deterministic for a fixed invocation.  Exit codes: 0 = success
(for `semisimple`: the category is semi-simple), 1 = not semi-simple,
2 = input error, 3 = internal criteria disagreement, 4 = run aborted (stdout
closed early, or an unexpected internal error).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import chain

from .orbits import OrbitLabel, enumerate_Q_chi, fundamental_group
from .params import (
    KappaParams,
    RationalCharacter,
    chi_to_kappa,
    hecke_params,
    hecke_q,
    kappa_to_chi,
)
from .partitions import MultiPartition, Partition
from .report import (
    CriteriaDisagreement,
    count_multipartitions,
    hyperplane_listing,
    orbit_report,
    semisimplicity_report,
)

EXIT_OK = 0
EXIT_NOT_SEMISIMPLE = 1
EXIT_INPUT = 2
EXIT_DISAGREEMENT = 3
EXIT_ABORTED = 4


class InputError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclocone",
        description=(
            "Exact calculator for orbits of the enhanced cyclic nilpotent "
            "cone, their fundamental groups, and semi-simplicity of the "
            "admissible module category."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, need_n=True):
        if need_n:
            p.add_argument("-n", type=int, required=True, help="rank parameter n")
        p.add_argument(
            "-l", "--ell", type=int, required=True, help="cycle length ell"
        )
        p.add_argument(
            "--format",
            choices=("pretty", "json", "tsv"),
            default="pretty",
            help="output format (default: pretty)",
        )

    character = argparse.ArgumentParser(add_help=False)
    character.add_argument("--chi", help="rational character, e.g. 1/5,1/7")
    character.add_argument(
        "--kappa", help="kappa coordinates, e.g. k00=1/3,k=1/4,-1/4"
    )

    p = sub.add_parser("orbits", parents=[character], help="enumerate orbit labels")
    add_common(p)

    p = sub.add_parser("pi1", help="fundamental group of one orbit")
    add_common(p, need_n=False)
    p.add_argument("-n", type=int, help="rank parameter n (derived if omitted)")
    p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. [2,1]")
    p.add_argument("--nu", required=True, help="multipartition, e.g. [2];[]")

    p = sub.add_parser(
        "simples", parents=[character], help="labels of the simple objects at chi"
    )
    add_common(p)

    p = sub.add_parser(
        "semisimple", parents=[character], help="decide semi-simplicity at chi"
    )
    add_common(p)
    p.add_argument(
        "--selftest",
        type=int,
        metavar="COUNT",
        help="instead of one chi, run COUNT random characters through all "
        "three criteria and report agreement",
    )
    p.add_argument("--seed", type=int, help="seed for --selftest sampling")

    p = sub.add_parser("hyperplanes", help="list the hyperplanes of the bound n")
    add_common(p)

    p = sub.add_parser(
        "translate", parents=[character], help="translate between chi and kappa"
    )
    add_common(p, need_n=False)

    return parser


def _resolve_chi(args, ell: int, required: bool = True) -> RationalCharacter | None:
    chi_text = getattr(args, "chi", None)
    kappa_text = getattr(args, "kappa", None)
    if chi_text and kappa_text:
        raise InputError("--chi and --kappa are mutually exclusive")
    if chi_text:
        chi = RationalCharacter.parse(chi_text)
        if chi.ell != ell:
            raise InputError(
                f"character has {chi.ell} entries, expected {ell}"
            )
        return chi
    if kappa_text:
        kp = KappaParams.parse(kappa_text, ell)
        return kappa_to_chi(kp, ell)
    if required:
        raise InputError("one of --chi or --kappa is required")
    return None


def _render(out, fmt: str, obj, header: list[str], rows, pretty) -> None:
    """Print one result as json of obj(), tsv of header plus rows(), or pretty().

    The three arguments are thunks and only the one for `fmt` is called, so
    a format that is not printed is never built.
    """
    if fmt == "json":
        lines = [json.dumps(obj(), ensure_ascii=False, indent=2)]
    elif fmt == "tsv":
        lines = chain(["\t".join(header)], map("\t".join, rows()))
    else:
        lines = pretty()
    out.writelines(f"{line}\n" for line in lines)


def _cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _cmd_orbits(args, out) -> int:
    chi = _resolve_chi(args, args.ell, required=False)
    rows = orbit_report(args.n, args.ell, chi)
    monodromic = None if chi is None else sum(row.monodromic for row in rows)
    multipartitions = count_multipartitions(args.n, args.ell)
    header = ["lambda", "nu", "pi1", "summands"]
    if chi is not None:
        header.append("monodromic")

    def as_json(row) -> dict:
        entry = {
            "lambda": str(row.label.lam),
            "nu": str(row.label.nu),
            "summands": [
                {"start": s.start, "row": s.row, "dim_vector": str(s.vector)}
                for s in row.strings
            ],
            "pi1": row.pi1.to_json(),
        }
        if chi is not None:
            entry["monodromic_for_chi"] = row.monodromic
        return entry

    def obj() -> dict:
        return {
            "n": args.n,
            "ell": args.ell,
            "chi": [str(v) for v in chi.values] if chi is not None else None,
            "orbits": [as_json(row) for row in rows],
            "totals": {
                "orbits": len(rows),
                "monodromic": monodromic,
                "multipartitions": multipartitions,
            },
        }

    def cells():
        for row in rows:
            summands = " ".join(f"{s.start}:{s.row}:{s.vector}" for s in row.strings)
            line = [str(row.label.lam), str(row.label.nu), str(row.pi1)]
            line.append(summands or "-")
            if chi is not None:
                line.append(_cell(row.monodromic))
            yield line

    def pretty():
        yield f"orbit labels for n={args.n}, ell={args.ell}"
        yield from ("  " + "  ".join(line) for line in cells())
        totals = f"totals: orbits={len(rows)} multipartitions={multipartitions}"
        if monodromic is not None:
            totals += f" monodromic={monodromic}"
        yield totals

    _render(out, args.format, obj, header, cells, pretty)
    return EXIT_OK


def _cmd_pi1(args, out) -> int:
    lam = Partition.parse(args.lam)
    nu = MultiPartition.parse(args.nu, args.ell)
    total = lam.size + nu.size
    if total % args.ell != 0:
        raise InputError(
            f"|lambda| + |nu| = {total} is not a multiple of ell = {args.ell}"
        )
    n = args.n if args.n is not None else total // args.ell
    label = OrbitLabel(lam, nu, n, args.ell)
    group = fundamental_group(label)
    _render(
        out,
        args.format,
        lambda: {
            "lambda": str(lam),
            "nu": str(nu),
            "n": n,
            "ell": args.ell,
            "pi1": group.to_json(),
            "pi1_text": str(group),
        },
        ["lambda", "nu", "pi1"],
        lambda: [[str(lam), str(nu), str(group)]],
        lambda: [group],
    )
    return EXIT_OK


def _cmd_simples(args, out) -> int:
    chi = _resolve_chi(args, args.ell)
    labels = enumerate_Q_chi(args.n, args.ell, chi)
    _render(
        out,
        args.format,
        lambda: {
            "n": args.n,
            "ell": args.ell,
            "chi": [str(v) for v in chi.values],
            "count": len(labels),
            "labels": [
                {"lambda": str(lab.lam), "nu": str(lab.nu)} for lab in labels
            ],
        },
        ["lambda", "nu"],
        lambda: ([str(lab.lam), str(lab.nu)] for lab in labels),
        lambda: chain(
            [f"{len(labels)} simple objects at chi={chi}"],
            (f"  {lab}" for lab in labels),
        ),
    )
    return EXIT_OK


def _random_character(rng: random.Random, ell: int) -> RationalCharacter:
    values = []
    for _ in range(ell):
        den = rng.randint(1, 12)
        num = rng.randint(-24, 24)
        values.append(Fraction(num, den))
    return RationalCharacter(values)


def _cmd_semisimple(args, out) -> int:
    if args.selftest is not None:
        if args.selftest < 1:
            raise InputError("--selftest COUNT must be positive")
        rng = random.Random(args.seed)
        for _ in range(args.selftest):
            chi = _random_character(rng, args.ell)
            semisimplicity_report(args.n, args.ell, chi)  # raises on disagreement
        out.write(
            f"selftest: {args.selftest} random characters, all criteria agree\n"
        )
        return EXIT_OK
    chi = _resolve_chi(args, args.ell)
    report = semisimplicity_report(args.n, args.ell, chi)
    header = [
        "n",
        "ell",
        "chi",
        "semisimple",
        "verdict_roots",
        "verdict_hecke",
        "verdict_counting",
        "simple_count",
        "pell_count",
        "chi_integral",
        "violated_roots",
    ]

    def rows():
        violated = ";".join(
            f"{alpha}={value}" for alpha, value in report.violated_roots
        )
        yield [_cell(getattr(report, name)) for name in header[:-1]] + [
            violated or "-"
        ]

    def pretty():
        yield f"semi-simple: {'yes' if report.semisimple else 'no'}"
        yield (
            f"criteria: roots={report.verdict_roots} "
            f"hecke={report.verdict_hecke} counting={report.verdict_counting}"
        )
        yield (
            f"simple objects: {report.simple_count} "
            f"(multipartition count {report.pell_count})"
        )
        yield f"chi integral: {report.chi_integral}"
        if report.violated_roots:
            yield "violated hyperplanes:"
            for alpha, value in report.violated_roots:
                yield f"  {alpha}: pairing {value}"

    _render(out, args.format, report.to_json, header, rows, pretty)
    return EXIT_OK if report.semisimple else EXIT_NOT_SEMISIMPLE


def _cmd_hyperplanes(args, out) -> int:
    listing = hyperplane_listing(args.n, args.ell)
    _render(
        out,
        args.format,
        lambda: {
            "n": args.n,
            "ell": args.ell,
            "count": len(listing),
            "roots": [
                {"dim_vector": str(alpha), "equation": eq} for alpha, eq in listing
            ],
        },
        ["root", "equation"],
        lambda: ([str(alpha), eq] for alpha, eq in listing),
        lambda: chain(
            [f"{len(listing)} hyperplanes for n={args.n}, ell={args.ell}"],
            (f"  {alpha}: {eq}" for alpha, eq in listing),
        ),
    )
    return EXIT_OK


def _cmd_translate(args, out) -> int:
    if bool(args.chi) == bool(args.kappa):
        raise InputError("translate needs exactly one of --chi or --kappa")
    # chi_to_kappa inverts kappa_to_chi exactly, so --kappa input round-trips.
    chi = _resolve_chi(args, args.ell)
    kp = chi_to_kappa(chi)
    q0, q1, u = hecke_params(kp, args.ell)
    q = hecke_q(q0, q1)
    kappa_csv = ",".join(str(v) for v in kp.kappa)
    u_csv = ",".join(str(x) for x in u)
    _render(
        out,
        args.format,
        lambda: {
            "ell": args.ell,
            "chi": [str(v) for v in chi.values],
            "kappa": kp.to_json(),
            "hecke": {
                "q0": str(q0),
                "q1": str(q1),
                "q": str(q),
                "u": [str(x) for x in u],
            },
        },
        ["chi", "k00", "k01", "kappa", "q0", "q1", "q", "u"],
        lambda: [
            [str(chi), str(kp.k00), str(kp.k01), kappa_csv]
            + [str(q0), str(q1), str(q), u_csv]
        ],
        lambda: [
            f"chi = {chi}",
            f"kappa: k00={kp.k00} k01={kp.k01} kappa={kappa_csv}",
            f"hecke: q0={q0} q1={q1} q={q} u={u_csv}",
        ],
    )
    return EXIT_OK


_COMMANDS = {
    "orbits": _cmd_orbits,
    "pi1": _cmd_pi1,
    "simples": _cmd_simples,
    "semisimple": _cmd_semisimple,
    "hyperplanes": _cmd_hyperplanes,
    "translate": _cmd_translate,
}


def _merge_negative_chi(argv: list[str]) -> list[str]:
    # argparse rejects option values that start with "-", which negative
    # rationals do; fold `--chi -1/2` into `--chi=-1/2`.
    merged = []
    for tok in argv:
        if merged and merged[-1] == "--chi" and tok.startswith("-"):
            merged[-1] += "=" + tok
        else:
            merged.append(tok)
    return merged


def run(argv: list[str], out=None, err=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_chi(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    if getattr(args, "ell", 1) < 1:
        print("error: ell must be positive", file=err)
        return EXIT_INPUT
    try:
        return _COMMANDS[args.subcommand](args, out)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except CriteriaDisagreement as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_DISAGREEMENT
    except RecursionError:
        # Enumeration recurses once per nu component, so a long cycle
        # (orbits -n 0 -l 1500) runs out of stack.
        print("error: input too large", file=err)
        return EXIT_INPUT
    except BrokenPipeError:
        raise  # a closed stdout is not an internal error; main() handles it
    except Exception as exc:
        # Exit 1 would read as "not semi-simple", so no crash may escape.
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_ABORTED


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
    except BrokenPipeError:
        # As the Python signal docs advise: point stdout at devnull so that
        # the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ABORTED
    sys.exit(code)


if __name__ == "__main__":
    main()
