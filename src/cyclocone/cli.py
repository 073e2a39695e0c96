"""Command line entry point.

Subcommands: orbits, pi1, simples, semisimple, hyperplanes, translate.
Output is deterministic for a fixed invocation.  Exit codes: 0 = success
(for `semisimple`: the category is semi-simple), 1 = not semi-simple,
2 = input error, 3 = internal criteria disagreement (for `pi1`: the closed
form differs from the Smith normal form), 4 = run aborted (stdout closed
early, or an unexpected internal error).

Each command imports the layers it runs when it runs, so a process loads
only those: `translate` loads `params` alone, and `orbits` without a
character loads no `params` or `report`.

`main()`, the process entry point, calls `gc.freeze()` once the output is
flushed, just before it exits: the collections Python runs while it
finalizes skip frozen objects, so a process ends as soon as its bytes are
out instead of walking every object it and its imports made.  Only
`main()` freezes, because the process ends right after; `run()`, which the
library, the tests and in-process callers use, leaves the collector as it
is.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cache
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING

from .errors import CriteriaDisagreement, Pi1Disagreement

if TYPE_CHECKING:  # pragma: no cover
    from .params import RationalCharacter

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
    if chi_text is not None and kappa_text is not None:
        raise InputError("--chi and --kappa are mutually exclusive")
    if chi_text is None and kappa_text is None:
        if required:
            raise InputError("one of --chi or --kappa is required")
        return None
    from .params import KappaParams, RationalCharacter, kappa_to_chi

    if kappa_text is not None:
        return kappa_to_chi(KappaParams.parse(kappa_text, ell), ell)
    chi = RationalCharacter.parse(chi_text)
    if chi.ell != ell:
        raise InputError(f"character has {chi.ell} entries, expected {ell}")
    return chi


_BLOCK = 1 << 16


def _write(out, pieces) -> None:
    """Write text pieces joined into blocks of about _BLOCK characters, one
    out.write per block: a listing is never held whole, and never written
    row by row, which an unbuffered stdout makes one system call a row.  An
    error raised before the first block is full prints nothing."""
    block, size = [], 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size >= _BLOCK:
            out.write("".join(block))
            block, size = [], 0
    if block:
        out.write("".join(block))


def _render(out, fmt: str, obj, header: list[str], rows, pretty) -> None:
    """Print one result as json of obj(), tsv of header plus rows(), or pretty().

    The three arguments are thunks and only the one for `fmt` is called, so
    a format that is not printed is never built.
    """
    if fmt == "json":
        import json

        encoder = json.JSONEncoder(ensure_ascii=False, indent=2)
        pieces = chain(encoder.iterencode(obj()), ["\n"])
    elif fmt == "tsv":
        pieces = map("{}\n".format, chain(["\t".join(header)], map("\t".join, rows())))
    else:
        pieces = map("{}\n".format, pretty())
    _write(out, pieces)


def _cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _nested_json(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads `depth` levels deep inside a
    larger indent=2 document: the same text with every line indented."""
    import json

    text = json.dumps(value, ensure_ascii=False, indent=2)
    return text.replace("\n", "\n" + "  " * depth)


def _json_list(entries):
    """The entries of a JSON list at depth 1, each already indented as
    json.dumps(indent=2) writes it, then the closing bracket.  An entry may
    be a block of entries joined by ",\n    ".  The list is never empty:
    every table and every Q_chi holds ([n*ell]; [],...,[])."""
    entries = iter(entries)
    yield f"\n    {next(entries)}"
    yield from map(",\n    {}".format, entries)
    yield "\n  ]"


def _summands_json(comp) -> str:
    """A placed record's summand objects as they read inside an orbits
    entry's "summands" list (depth 3), without the list's brackets."""
    return ",".join([
        f'\n        {{\n          "start": {i},\n          "row": {j},\n'
        f'          "dim_vector": "{v}"\n        }}'
        for i, j, v in comp.strings()
    ])


def _nu_text(nu: str, comp) -> str:
    return f"{nu}{comp.text};"


def _orbit_pieces(n: int, ell: int, chi, fmt: str):
    """The orbits table in `fmt`, one piece per prefix of the label walk (its
    lines, or its JSON entries joined), plus the head and the totals.  The
    walk keeps per prefix its nu text ("a;b;") and its nonempty summand
    texts (json: summand-item fragments), each followed by a separator, and
    per residue left the same texts of each suffix without the last
    separator, with its mask.  A row is one f-string of those, the lambda
    text and the pi1 and flag texts of its mask.  Partition texts need no
    escapes."""
    from .orbits import _bad_bits, _class_set_pi1, _fill
    from .partitions import count_multipartitions

    as_json, sep = fmt == "json", "  " if fmt == "pretty" else "\t"
    fragment = cache(_summands_json) if as_json else attrgetter("summands")
    joiner, key = (",", ',\n      "monodromic_for_chi": ') if as_json else (" ", sep)
    bad = 0 if chi is None else _bad_bits(n, ell, chi)

    @cache
    def mask_texts(mask):
        """The texts around a row's summand items (none iff the mask is 0)."""
        group = _class_set_pi1(ell, mask)
        tail = "" if chi is None else f"{key}{_cell(not mask & bad)}"
        if not as_json:
            return f"{sep}{group}{sep}{'' if mask else '-'}", f"{tail}\n"
        opening, closer = ("[", "\n      ]") if mask else ("[]", "")
        pi1 = f'{closer},\n      "pi1": {_nested_json(group.to_json(), 3)}'
        return f'",\n      "summands": {opening}', f"{pi1}{tail}\n    }}"

    def push(state, comp):
        nu, items = state
        item = fragment(comp)
        return _nu_text(nu, comp), f"{items}{item}{joiner}" if item else items

    def close(suffixes):
        """The suffixes' texts without their last separators, their masks,
        and how many of them have no bad bit."""
        texts = [(nu[:-1], items[:-1], mask) for (nu, items), mask in suffixes]
        return texts, sum([not mask & bad for _, mask in suffixes])

    lead, mid = ("  " if fmt == "pretty" else ""), sep
    if as_json:
        lead, mid = '{\n      "lambda": "', '",\n      "nu": "'
    rows = monodromic = 0

    def entries():
        nonlocal rows, monodromic
        glue = ",\n    " if as_json else ""
        for seed, (nu, items), mask, (suffixes, good) in _fill(
            n, ell, ("", ""), push, close
        ):
            head, trimmed = f"{lead}{seed.text}{mid}{nu}", items[:-1]
            rows += len(suffixes)
            monodromic += 0 if mask & bad else good
            yield glue.join([
                f"{head}{end_nu}{before}{items if end_items else trimmed}"
                f"{end_items}{after}"
                for end_nu, end_items, end_mask in suffixes
                for before, after in [mask_texts(mask | end_mask)]
            ])

    if as_json:
        chi_json = _nested_json(None if chi is None else chi.to_json(), 1)
        yield f'{{\n  "n": {n},\n  "ell": {ell},\n  "chi": {chi_json},\n  "orbits": ['
    elif fmt == "tsv":
        yield "lambda\tnu\tpi1\tsummands" + ("\n" if chi is None else "\tmonodromic\n")
    else:
        yield f"orbit labels for n={n}, ell={ell}\n"
    yield from _json_list(entries()) if as_json else entries()
    totals = {"orbits": rows, "monodromic": None if chi is None else monodromic}
    totals["multipartitions"] = count_multipartitions(n, ell)
    if as_json:
        yield f',\n  "totals": {_nested_json(totals, 1)}\n}}\n'
    elif fmt == "pretty":
        line = f"totals: orbits={rows} multipartitions={totals['multipartitions']}"
        yield line + ("\n" if chi is None else f" monodromic={monodromic}\n")


def _cmd_orbits(args, out) -> int:
    chi = _resolve_chi(args, args.ell, required=False)
    _write(out, _orbit_pieces(args.n, args.ell, chi, args.format))
    return EXIT_OK


def _cmd_pi1(args, out) -> int:
    from .abelian import IntMatrix, cokernel
    from .orbits import OrbitLabel, decompose, fundamental_group
    from .partitions import MultiPartition, Partition

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
    # Cross-check the closed form against the Smith normal form of the
    # matrix with one column per string summand.
    columns = [s.vector.coords for s in decompose(label).strings]
    smith = cokernel(IntMatrix.from_columns(columns, args.ell))
    if group != smith:
        raise Pi1Disagreement(label, group, smith)
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
    """The labels of Q_chi from the label walk, one block of entry texts per
    prefix.  A label is in Q_chi when its mask has no bad bit, a class (of
    length <= n*ell) that chi pairs with non-integrally; the walk runs over
    the step graph without the records that have one, so every prefix and
    every suffix it meets is printed.  tsv streams; pretty and json print
    the count first, so keep the blocks."""
    from .orbits import _bad_bits, _fill

    n, ell = args.n, args.ell
    chi = _resolve_chi(args, ell)
    bad = _bad_bits(n, ell, chi)
    lead, mid, end = {
        "tsv": ("", "\t", "\n"),
        "pretty": ("  (", ";", ")\n"),
        "json": ('{\n      "lambda": "', '",\n      "nu": "', '"\n    }'),
    }[args.format]
    glue = ",\n    " if args.format == "json" else ""
    count = 0

    def close(suffixes):
        return [nu[:-1] for nu, _ in suffixes]

    def entries():
        nonlocal count
        for seed, nu, _, tails in _fill(n, ell, "", _nu_text, close, bad):
            count += len(tails)
            head = f"{lead}{seed.text}{mid}{nu}"
            yield glue.join([f"{head}{tail}{end}" for tail in tails])

    if args.format == "tsv":
        _write(out, chain(["lambda\tnu\n"], entries()))
    elif args.format == "pretty":
        blocks = list(entries())
        _write(out, chain([f"{count} simple objects at chi={chi}\n"], blocks))
    else:
        blocks, chi_json = list(entries()), _nested_json(chi.to_json(), 1)
        head = f'{{\n  "n": {n},\n  "ell": {ell},\n  "chi": {chi_json},\n'
        head += f'  "count": {count},\n  "labels": ['
        _write(out, chain([head], _json_list(blocks), ["\n}\n"]))
    return EXIT_OK


def _random_character(rng, ell: int) -> RationalCharacter:
    from fractions import Fraction

    from .params import RationalCharacter

    values = []
    for _ in range(ell):
        den = rng.randint(1, 12)
        num = rng.randint(-24, 24)
        values.append(Fraction(num, den))
    return RationalCharacter(values)


def _cmd_semisimple(args, out) -> int:
    from .report import semisimplicity_report

    if args.seed is not None and args.selftest is None:
        raise InputError("--seed only applies to --selftest")
    if args.selftest is not None:
        if args.selftest < 1:
            raise InputError("--selftest COUNT must be positive")
        if args.chi is not None or args.kappa is not None:
            raise InputError("--selftest draws its own characters; drop --chi/--kappa")
        if args.format != "pretty":
            raise InputError("--selftest prints one plain line; drop --format")
        import random

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
        "n", "ell", "chi", "semisimple", "verdict_roots", "verdict_hecke",
        "verdict_counting", "simple_count", "pell_count", "chi_integral",
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
    from .report import hyperplane_listing

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
    if (args.chi is None) == (args.kappa is None):
        raise InputError("translate needs exactly one of --chi or --kappa")
    from .params import chi_to_kappa, hecke_json, hecke_params, hecke_q

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
            "chi": chi.to_json(),
            "kappa": kp.to_json(),
            "hecke": hecke_json(q0, q1, u, q),
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
    except (CriteriaDisagreement, Pi1Disagreement) as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_DISAGREEMENT
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
    # Nothing is left to print and the process is about to end, so spare it
    # the finalizing collections: they skip the frozen generation.  Never in
    # run(), whose callers live on and must keep collecting cycles.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
