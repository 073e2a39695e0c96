"""Record the benchmark's inputs and expected outputs into expected.json.

    python3 perfbench/record.py

Run this once, on the commit whose outputs count as correct.  Every input
is drawn from a fixed seed; characters are drawn the way
`cyclocone semisimple --selftest` draws them (denominators 1..12,
numerators -24..24).  The outputs are taken from `cyclocone` processes
started exactly as run.py starts them, and the chi-sweep verdicts from the
same `semisimplicity_report` call its children make.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

from run import FORMATS, HERE, SRC, cli_argv, sha256, spawn

POOL_SEED = 2017

# The command-line examples of the README, in its order.
README = (
    ("orbits", "-n", "2", "-l", "2", "--format", "tsv"),
    ("orbits", "-n", "2", "-l", "1", "--chi", "1/2"),
    ("pi1", "-l", "1", "--lambda", "[]", "--nu", "[2]"),
    ("simples", "-n", "2", "-l", "2", "--chi", "1/5,1/7"),
    ("semisimple", "-n", "2", "-l", "1", "--chi", "1/2"),
    ("semisimple", "-n", "3", "-l", "2", "--selftest", "200", "--seed", "7"),
    ("hyperplanes", "-n", "2", "-l", "2"),
    ("translate", "-l", "2", "--kappa", "k00=1/3,k=1/4,-1/4"),
)

TABLES = ("2,2", "3,3", "4,3", "3,4")
CHI_TABLES = {"2,2": 4, "3,3": 16}
CHI_POOLS = {"2,2": 64, "4,4": 2048}
STRATUM_SIZE = 12
STRATUM_SIZES = [(n, ell) for n in (1, 2, 3) for ell in (1, 2, 3)]


def character(rng: random.Random, ell: int) -> str:
    values = []
    for _ in range(ell):
        den = rng.randint(1, 12)
        num = rng.randint(-24, 24)
        values.append(Fraction(num, den))
    return ",".join(str(v) for v in values)


def run_cli(args, allowed=(0,)) -> tuple[int, str]:
    done = spawn(cli_argv(args))
    if done.code not in allowed:
        raise SystemExit(f"cyclocone {' '.join(args)} exited {done.code}")
    return done.code, sha256(done.out)


def main() -> None:
    sys.path.insert(0, str(SRC))
    import cyclocone

    rng = random.Random(POOL_SEED)
    expected = {"tables": {}, "chi_tables": {}, "chi_pools": {}, "chi_pool_sha256": {}}
    for key in TABLES:
        n, ell = key.split(",")
        done = spawn(cli_argv(("orbits", "-n", n, "-l", ell, "--format", "tsv")))
        assert done.code == 0
        rows = done.out.count(b"\n") - 1
        assert rows == len(cyclocone.enumerate_orbits(int(n), int(ell)))
        expected["tables"][key] = {"rows": rows, "sha256": sha256(done.out)}
    for key, size in CHI_TABLES.items():
        n, ell = key.split(",")
        entries = []
        for _ in range(size):
            chi = character(rng, int(ell))
            args = ("orbits", "-n", n, "-l", ell, "--format", "json", "--chi", chi)
            entries.append([chi, run_cli(args)[1]])
        expected["chi_tables"][key] = entries
    for key, size in CHI_POOLS.items():
        n, ell = (int(x) for x in key.split(","))
        pool = []
        for _ in range(size):
            chi = character(rng, ell)
            report = cyclocone.semisimplicity_report(
                n, ell, cyclocone.RationalCharacter.parse(chi)
            )
            pool.append([chi, report.semisimple, report.simple_count])
        verdicts = json.dumps([[s, c] for _, s, c in pool], separators=(",", ":"))
        expected["chi_pools"][key] = pool
        expected["chi_pool_sha256"][key] = sha256(verdicts.encode())
    expected["readme"] = []
    for args in README:
        code, digest = run_cli(args, allowed=(0, 1))
        expected["readme"].append({"args": list(args), "exit": code, "sha256": digest})
    # The README documents this one as "exit code 1".
    assert expected["readme"][4]["exit"] == 1
    strata = []
    for n, ell in STRATUM_SIZES:
        labels = cyclocone.enumerate_orbits(n, ell)
        stratum = []
        for _ in range(STRATUM_SIZE):
            label = rng.choice(labels)
            args = ["pi1", "-l", str(ell), "--lambda", str(label.lam), "--nu", str(label.nu)]
            stratum.append({"args": args})
        strata.append(stratum)
        stratum = []
        for _ in range(STRATUM_SIZE):
            args = ["semisimple", "-n", str(n), "-l", str(ell), "--chi", character(rng, ell)]
            stratum.append({"args": args})
        strata.append(stratum)
    for stratum in strata:
        for entry in stratum:
            for fmt in FORMATS:
                entry[fmt] = list(run_cli((*entry["args"], "--format", fmt), (0, 1)))
    expected["strata"] = strata
    text = json.dumps(expected, separators=(",", ":"))
    (HERE / "expected.json").write_text(text + "\n")
    print(f"wrote {HERE / 'expected.json'} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
