"""Golden stdout digests and exit codes of the README examples.

Each README command runs in-process in every `--format`; the sha256 of its
stdout and its exit code must match the values recorded before the CLI's
rendering was consolidated.  The self-test ignores `--format`, so its three
digests coincide.  One extra table at (3, 2) with a character covers
non-trivial pi1 and a mixed monodromic column.  The (3, 3) table has 2,090
labels over far fewer distinct string-class sets, so most of its pi1 column
comes from the per-process pi1 cache rather than a fresh cokernel.  Its
JSON form with a character pins the per-orbit records and totals that the
CLI builds from the report's typed rows.
"""

import hashlib
import io

import pytest

from cyclocone.cli import run

GOLDEN = [
    ("orbits -n 2 -l 2", "pretty", 0, "8940e55f4534a71b460051930a9a1c9eddb7254b50dbf05b09049d5d6b631d86"),
    ("orbits -n 2 -l 2", "json", 0, "3965bb4bc8f4971c1fb9290a8235da9387b1109ceff4bb2102e2c6f78e6aace0"),
    ("orbits -n 2 -l 2", "tsv", 0, "c36f1647621b18a2c9c897d26afce7e47f36d9ab82fd1d0bd9fc0693b99a0a1e"),
    ("orbits -n 2 -l 1 --chi 1/2", "pretty", 0, "e432f6bcfa65a9bb58b6047145fea6bd621b0453802e69d690e02f700bda11f7"),
    ("orbits -n 2 -l 1 --chi 1/2", "json", 0, "0dd422ba4615794630494eb7e4819a537a40d26f3a053d26bb460b90b2c5cf61"),
    ("orbits -n 2 -l 1 --chi 1/2", "tsv", 0, "2ab8949f1f51a8a0f729400065783fc842d078a558c08ccd9ae8b4c2db031320"),
    ("pi1 -l 1 --lambda [] --nu [2]", "pretty", 0, "a11fa08845c98900554963661253bc8b2585556250118cf1b4e1aa44ff9a2582"),
    ("pi1 -l 1 --lambda [] --nu [2]", "json", 0, "97c21559e6268776e4ceeb0726e1037fa8637ddba9e34d1006fdf50adf792d5b"),
    ("pi1 -l 1 --lambda [] --nu [2]", "tsv", 0, "ff221605e827495f6337fc2412d588e2fd68d1bbde874007120f8ac4c04a881d"),
    ("simples -n 2 -l 2 --chi 1/5,1/7", "pretty", 0, "5d7df135b2e3d4de297d83820bcd6be39902d03f34332d03b62cbf47f1c5fd65"),
    ("simples -n 2 -l 2 --chi 1/5,1/7", "json", 0, "d4daf09d4cbe40e42c69c3459f6e0a0ecacab706dea853e64de754ea8c52d601"),
    ("simples -n 2 -l 2 --chi 1/5,1/7", "tsv", 0, "83eba20bdd4ab19f65db8d89101015c5bad21889db3535487f3b3593939653c3"),
    ("semisimple -n 2 -l 1 --chi 1/2", "pretty", 1, "bf53d83d1630aaf9bffdbe56ada58e83935b0afcb010c284ba6bec0fcdaae4ca"),
    ("semisimple -n 2 -l 1 --chi 1/2", "json", 1, "326ca86c41f6e55c773636a777c816bd0420085b139ccab87b5cccb479d53116"),
    ("semisimple -n 2 -l 1 --chi 1/2", "tsv", 1, "8e84fcd65514efdf2ae5311f1f78ecdf7bbd0b0a8e8fbdeefc74eeeb88df0e76"),
    ("semisimple -n 3 -l 2 --selftest 200 --seed 7", "pretty", 0, "d0092359d96ea33c849027dc4031c3129d3ff1491d8ba80b6414f61e8f1debce"),
    ("semisimple -n 3 -l 2 --selftest 200 --seed 7", "json", 0, "d0092359d96ea33c849027dc4031c3129d3ff1491d8ba80b6414f61e8f1debce"),
    ("semisimple -n 3 -l 2 --selftest 200 --seed 7", "tsv", 0, "d0092359d96ea33c849027dc4031c3129d3ff1491d8ba80b6414f61e8f1debce"),
    ("hyperplanes -n 2 -l 2", "pretty", 0, "9eafea96598b3065b247bf4ede43e6eaf504238c9efad55bfa1fcd2694f99a68"),
    ("hyperplanes -n 2 -l 2", "json", 0, "6fa804d70a0a85c58ead4e19002cfe8605595aee93de3c046d754b398ebc4fbf"),
    ("hyperplanes -n 2 -l 2", "tsv", 0, "7cf24b80df2583ef11a488cfb711d82e871b54b63217fa38341af97339afb2d5"),
    ("translate -l 2 --kappa k00=1/3,k=1/4,-1/4", "pretty", 0, "4b5cd53a1b508187c576251a69f79537f1cce1276fd65e41fb87129764d5e1cf"),
    ("translate -l 2 --kappa k00=1/3,k=1/4,-1/4", "json", 0, "21f64c66d0f4aa1b54720f3a040e1235a9731a70a9948384442f657602524c4d"),
    ("translate -l 2 --kappa k00=1/3,k=1/4,-1/4", "tsv", 0, "cfdb1ae25217390cbccc79659cfad341f811c16b5a3fadcd2575633ef3380cca"),
    ("orbits -n 3 -l 2 --chi 1/2,1/3", "pretty", 0, "a0852bacd5be1bfa99410a0af8a5db03618bc27f161bccc1fb31b7ba1df85880"),
    ("orbits -n 3 -l 2 --chi 1/2,1/3", "json", 0, "b88999ae4990b6dad453f5674cb08ec6f76d05e045d196a0112b4ff5a5209808"),
    ("orbits -n 3 -l 2 --chi 1/2,1/3", "tsv", 0, "8573e18bbf98908f67db22b9d2535be68d7c484453ca8d044baaacf40eb2e3db"),
    ("orbits -n 3 -l 3", "tsv", 0, "46b930971d2014d67aae7c8987f8699b4f90b9068af38d4154a86d851805e026"),
    ("orbits -n 3 -l 3 --chi 1/2,1/3,1/5", "json", 0, "e423e8fb77b3eb9198ba0e25746b89f02847b85ca73584084d046a03bd6751da"),
]


@pytest.mark.parametrize(
    "command, fmt, code, digest",
    GOLDEN,
    ids=[f"{command} --format {fmt}" for command, fmt, _, _ in GOLDEN],
)
def test_stdout_and_exit_code(command, fmt, code, digest):
    out, err = io.StringIO(), io.StringIO()
    got = run(command.split() + ["--format", fmt], out=out, err=err)
    assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (
        code,
        digest,
    )
