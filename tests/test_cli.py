import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import cyclocone.abelian as abelian_module
import cyclocone.cli as cli_module
import cyclocone.orbits as orbits_module
import cyclocone.report as report_module
from cyclocone.abelian import FGAbelianGroup
from cyclocone.cli import _build_parser, run
from cyclocone.orbits import (
    admits_monodromic_local_system,
    decompose,
    enumerate_orbits,
    enumerate_Q_chi,
    fundamental_group,
)
from cyclocone.params import RationalCharacter
from cyclocone.report import CriteriaDisagreement
from cyclocone.rootlattice import DimVector, pair

from oracles import (
    brute_force_orbit_pairs,
    multipartition_count,
    random_fraction,
    string_vectors_scan,
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestOrbitsCommand:
    def test_tsv_row_count(self):
        code, out, _ = invoke(["orbits", "-n", "2", "-l", "2", "--format", "tsv"])
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "lambda\tnu\tpi1\tsummands"
        assert len(lines) - 1 == 41

    def test_json_schema(self):
        code, out, _ = invoke(["orbits", "-n", "2", "-l", "1", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["n", "ell", "chi", "orbits", "totals"]
        assert [rec["pi1"]["invariant_factors"] for rec in data["orbits"]] == [
            [],
            [],
            [],
            [2],
            [],
        ]

    def test_monodromic_column_with_chi(self):
        code, out, _ = invoke(
            ["orbits", "-n", "2", "-l", "1", "--chi", "1/2", "--format", "tsv"]
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0].endswith("\tmonodromic")
        flags = [line.split("\t")[-1] for line in lines[1:]]
        assert flags == ["true", "true", "false", "true", "false"]
        # An empty --chi= is a malformed character, not an absent one.
        code, out, err = invoke(["orbits", "-n", "2", "-l", "2", "--chi="])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_byte_identical_runs(self):
        args = ["orbits", "-n", "2", "-l", "2", "--format", "json"]
        assert invoke(args) == invoke(args)


def orbits_json_oracle(n, ell, chi):
    """The `orbits --format json` document, from the per-label functions."""
    entries = []
    for lab in enumerate_orbits(n, ell):
        entry = {
            "lambda": str(lab.lam),
            "nu": str(lab.nu),
            "summands": [
                {"start": s.start, "row": s.row, "dim_vector": str(s.vector)}
                for s in decompose(lab).strings
            ],
            "pi1": fundamental_group(lab).to_json(),
        }
        if chi is not None:
            entry["monodromic_for_chi"] = admits_monodromic_local_system(lab, chi)
        entries.append(entry)
    monodromic = None
    if chi is not None:
        monodromic = sum(entry["monodromic_for_chi"] for entry in entries)
    return {
        "n": n,
        "ell": ell,
        "chi": None if chi is None else chi.to_json(),
        "orbits": entries,
        "totals": {
            "orbits": len(entries),
            "monodromic": monodromic,
            "multipartitions": multipartition_count(n, ell),
        },
    }


class TestStreamedOrbitsJson:
    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("ell", range(1, 4))
    def test_equals_one_dump_of_the_whole_document(self, n, ell):
        rng = random.Random(100 * n + ell)
        chis = [None] + [
            RationalCharacter([random_fraction(rng) for _ in range(ell)])
            for _ in range(2)
        ]
        for chi in chis:
            argv = ["orbits", "-n", str(n), "-l", str(ell), "--format", "json"]
            if chi is not None:
                argv.append(f"--chi={chi}")
            code, out, _ = invoke(argv)
            expected = json.dumps(
                orbits_json_oracle(n, ell, chi), ensure_ascii=False, indent=2
            )
            assert (code, out) == (0, expected + "\n")


def orbits_table_oracle(n, ell, chi, fmt):
    """The `orbits --format tsv` or `--format pretty` text, from the
    per-label functions."""
    rows = []
    for lab in enumerate_orbits(n, ell):
        summands = " ".join(
            f"{s.start}:{s.row}:{s.vector}" for s in decompose(lab).strings
        )
        row = [str(lab.lam), str(lab.nu), str(fundamental_group(lab)), summands or "-"]
        if chi is not None:
            row.append(str(admits_monodromic_local_system(lab, chi)).lower())
        rows.append(row)
    if fmt == "tsv":
        header = ["lambda", "nu", "pi1", "summands"]
        if chi is not None:
            header.append("monodromic")
        lines = ["\t".join(row) for row in [header] + rows]
    else:
        totals = f"totals: orbits={len(rows)}"
        totals += f" multipartitions={multipartition_count(n, ell)}"
        if chi is not None:
            totals += f" monodromic={sum(row[-1] == 'true' for row in rows)}"
        lines = [f"orbit labels for n={n}, ell={ell}"]
        lines += ["  " + "  ".join(row) for row in rows] + [totals]
    return "".join(f"{line}\n" for line in lines)


class TestOrbitsTables:
    @pytest.mark.parametrize("fmt", ["tsv", "pretty"])
    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("ell", range(1, 4))
    def test_equals_the_per_label_text(self, n, ell, fmt):
        rng = random.Random(100 * n + ell)
        chis = [None] + [
            RationalCharacter([random_fraction(rng) for _ in range(ell)])
            for _ in range(2)
        ]
        for chi in chis:
            argv = ["orbits", "-n", str(n), "-l", str(ell), "--format", fmt]
            if chi is not None:
                argv.append(f"--chi={chi}")
            assert invoke(argv) == (0, orbits_table_oracle(n, ell, chi, fmt), "")


class TestPi1Command:
    def test_z2(self):
        code, out, _ = invoke(["pi1", "-l", "1", "--lambda", "[]", "--nu", "[2]"])
        assert code == 0
        assert out.strip() == "Z/2"

    def test_free_rank_two(self):
        code, out, _ = invoke(
            ["pi1", "-l", "2", "--lambda", "[4]", "--nu", "[];[]"]
        )
        assert code == 0
        assert out.strip() == "Z^2"

    def test_invalid_label(self):
        code, _, err = invoke(["pi1", "-l", "2", "--lambda", "[1]", "--nu", "[];[]"])
        assert code == 2
        assert "error" in err

    def test_json(self):
        code, out, _ = invoke(
            ["pi1", "-l", "1", "--lambda", "[]", "--nu", "[2]", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["pi1"] == {"free_rank": 0, "invariant_factors": [2]}
        assert data["pi1_text"] == "Z/2"
        assert data["n"] == 2


class TestSimplesCommand:
    def test_counts(self):
        code, out, _ = invoke(
            ["simples", "-n", "2", "-l", "2", "--chi", "1/5,1/7", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 5
        assert all(lab["nu"] == "[];[]" for lab in data["labels"])

    def test_requires_parameter(self):
        code, _, err = invoke(["simples", "-n", "2", "-l", "2"])
        assert code == 2
        assert "chi" in err

    @pytest.mark.parametrize("fmt", ["pretty", "json", "tsv"])
    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("ell", range(1, 4))
    def test_equals_the_listed_labels(self, n, ell, fmt):
        rng = random.Random(100 * n + ell)
        chis = [RationalCharacter([0] * ell)] + [
            RationalCharacter([random_fraction(rng) for _ in range(ell)])
            for _ in range(2)
        ]
        for chi in chis:
            expected, count = simples_oracle(n, ell, chi, fmt)
            assert count >= 1
            argv = ["simples", "-n", str(n), "-l", str(ell), "--format", fmt]
            assert invoke(argv + [f"--chi={chi}"]) == (0, expected, "")


    @pytest.mark.parametrize("n, ell", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
    def test_labels_dropped_by_their_last_two_components(self, n, ell):
        # The walk hands each prefix the suffixes (the last two components)
        # of the residue it leaves whose masks have no bad bit.  Each
        # character below drops some label whose first ell - 2 components
        # pair integrally, so the suffix filter alone decides it, and keeps
        # some other.
        k = max(ell - 2, 0)
        labels = [
            (
                string_vectors_scan(nu[:k], ell),
                string_vectors_scan(((),) * k + nu[k:], ell),
            )
            for _, nu in brute_force_orbit_pairs(n, ell)
        ]
        rng = random.Random(7 * n + ell)
        tried = 0
        while tried < 3:
            chi = RationalCharacter([random_fraction(rng, max_den=4) for _ in range(ell)])

            def integral(vectors):
                return all(pair(chi, DimVector(v)).denominator == 1 for v in vectors)

            if not any(integral(head) and not integral(tail) for head, tail in labels):
                continue
            tried += 1
            kept = sum(integral(head) and integral(tail) for head, tail in labels)
            for fmt in ("pretty", "json", "tsv"):
                expected, count = simples_oracle(n, ell, chi, fmt)
                assert count == kept >= 1
                argv = ["simples", "-n", str(n), "-l", str(ell), "--format", fmt]
                assert invoke(argv + [f"--chi={chi}"]) == (0, expected, "")

def simples_oracle(n, ell, chi, fmt):
    """The `simples` text in `fmt` and the label count, from enumerate_Q_chi."""
    labels = enumerate_Q_chi(n, ell, chi)
    if fmt == "json":
        document = {
            "n": n,
            "ell": ell,
            "chi": chi.to_json(),
            "count": len(labels),
            "labels": [{"lambda": str(lab.lam), "nu": str(lab.nu)} for lab in labels],
        }
        return json.dumps(document, ensure_ascii=False, indent=2) + "\n", len(labels)
    if fmt == "tsv":
        lines = ["lambda\tnu"] + [f"{lab.lam}\t{lab.nu}" for lab in labels]
    else:
        lines = [f"{len(labels)} simple objects at chi={chi}"]
        lines += [f"  {lab}" for lab in labels]
    return "".join(f"{line}\n" for line in lines), len(labels)


class TestSemisimpleCommand:
    def test_not_semisimple_exit_code_and_root(self):
        code, out, _ = invoke(
            ["semisimple", "-n", "2", "-l", "1", "--chi", "1/2", "--format", "json"]
        )
        assert code == 1
        data = json.loads(out)
        assert data["verdict_roots"] is False
        assert data["violated_roots"] == [{"dim_vector": "(2)", "pairing": "1"}]

    def test_semisimple_exit_zero(self):
        code, out, _ = invoke(
            ["semisimple", "-n", "2", "-l", "2", "--chi", "1/5,1/7"]
        )
        assert code == 0
        assert "semi-simple: yes" in out

    def test_kappa_input(self):
        code, out, _ = invoke(
            [
                "semisimple",
                "-n",
                "1",
                "-l",
                "2",
                "--kappa",
                "k00=0,k=0,0",
                "--format",
                "json",
            ]
        )
        assert code == 1
        data = json.loads(out)
        assert data["chi"] == ["-1/2", "1/2"]

    def test_mutually_exclusive(self):
        code, _, err = invoke(
            ["semisimple", "-n", "1", "-l", "1", "--chi", "0", "--kappa", "k00=0,k=0"]
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_negative_character_value(self):
        code, out, _ = invoke(
            ["semisimple", "-n", "2", "-l", "1", "--chi", "-1/2", "--format", "json"]
        )
        assert code == 1
        assert json.loads(out)["chi"] == ["-1/2"]

    def test_selftest_mode(self):
        code, out, _ = invoke(
            ["semisimple", "-n", "2", "-l", "2", "--selftest", "25", "--seed", "7"]
        )
        assert code == 0
        assert "25 random characters" in out

    def test_selftest_draw_order(self):
        # A seed must keep naming the same characters: per entry the
        # denominator is drawn first, then the numerator.
        from cyclocone.cli import _random_character

        rng = random.Random(5)
        drawn = [str(_random_character(rng, 3)) for _ in range(3)]
        assert drawn == ["-4/5,-1/6,23/12", "9/11,5,17/4", "-14,-1/2,-9/8"]

    def test_tsv(self):
        code, out, _ = invoke(
            ["semisimple", "-n", "2", "-l", "1", "--chi", "1/2", "--format", "tsv"]
        )
        assert code == 1
        header, row = out.rstrip("\n").split("\n")
        cells = dict(zip(header.split("\t"), row.split("\t")))
        assert cells["semisimple"] == "false"
        assert cells["simple_count"] == "3"
        assert cells["violated_roots"] == "(2)=1"


class TestHyperplanesCommand:
    def test_listing(self):
        code, out, _ = invoke(
            ["hyperplanes", "-n", "1", "-l", "1", "--format", "tsv"]
        )
        assert code == 0
        assert out.rstrip("\n").split("\n") == [
            "root\tequation",
            "(1)\tχ_0 ∈ Z",
        ]

    def test_counts(self):
        code, out, _ = invoke(
            ["hyperplanes", "-n", "2", "-l", "2", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["count"] == 5


class TestTranslateCommand:
    def test_kappa_to_chi(self):
        code, out, _ = invoke(
            ["translate", "-l", "2", "--kappa", "k00=1/3,k=1/4,-1/4"]
        )
        assert code == 0
        assert "chi = 2/3,0" in out

    def test_chi_to_kappa_round_trip(self):
        code, out, _ = invoke(
            ["translate", "-l", "2", "--chi", "2/3,0", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["kappa"] == {
            "k00": "1/3",
            "k01": "-1/3",
            "kappa": ["1/4", "-1/4"],
        }
        assert data["hecke"]["q"] == "2/3"

    def test_hecke_json_is_the_reports_with_q(self):
        # One JSON form of the Hecke parameters: translate adds q between
        # q1 and u, and is otherwise what the semisimple report prints.
        tail = ["-l", "3", "--chi", "1/5,-7/3,2", "--format", "json"]
        _, out, _ = invoke(["translate"] + tail)
        hecke = json.loads(out)["hecke"]
        _, out, _ = invoke(["semisimple", "-n", "2"] + tail)
        assert list(hecke) == ["q0", "q1", "q", "u"]
        del hecke["q"]
        assert json.loads(out)["hecke"] == hecke

    def test_requires_exactly_one(self):
        code, _, err = invoke(["translate", "-l", "1"])
        assert code == 2
        assert "exactly one" in err
        # An empty --chi= is given, so it is one too many.
        argv = ["translate", "-l", "2", "--chi=", "--kappa=k00=1/3,k=1/4,-1/4"]
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert "exactly one" in err


class TestInputValidation:
    def test_unknown_subcommand(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_bad_partition(self):
        code, _, err = invoke(["pi1", "-l", "1", "--lambda", "(2)", "--nu", "[]"])
        assert code == 2
        assert "error" in err

    def test_bad_ell(self):
        code, _, _ = invoke(["orbits", "-n", "1", "-l", "0"])
        assert code == 2

    @pytest.mark.parametrize("command", ["orbits", "simples", "semisimple"])
    @pytest.mark.parametrize(
        "option, error",
        [
            ("--chi=1/2,1/3,1/5", "character has 3 entries, expected 2"),
            ("--chi=1/2", "character has 1 entries, expected 2"),
            ("--kappa=k00=1/3,k=1/4,-1/4,0", "expected 2 kappa entries, got 3"),
        ],
        ids=["long-chi", "short-chi", "long-kappa"],
    )
    def test_a_parameter_of_the_wrong_length_is_bad_input(self, command, option, error):
        code, out, err = invoke([command, "-n", "2", "-l", "2", option])
        assert (code, out, err) == (2, "", f"error: {error}\n")


class TestExitCodeContract:
    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_selftest_count_must_be_positive(self, count):
        code, out, err = invoke(
            ["semisimple", "-n", "2", "-l", "1", "--selftest", count]
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "character",
        [
            ["--chi", "1/2,1/3"],
            ["--kappa", "k00=1/3,k=1/4,-1/4"],
            ["--chi="],
            ["--kappa="],
        ],
    )
    def test_selftest_rejects_a_given_character(self, character):
        # An empty value is given too, not absent.
        code, out, err = invoke(
            ["semisimple", "-n", "1", "-l", "2", "--selftest", "2"] + character
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_selftest_refuses_a_structured_format(self, fmt):
        # The self-test prints one plain line; a json or tsv request must
        # not silently get that line instead.
        code, out, err = invoke(
            ["semisimple", "-n", "3", "-l", "2", "--selftest", "5", "--format", fmt]
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_selftest_accepts_the_default_format_by_name(self):
        argv = ["semisimple", "-n", "3", "-l", "2", "--selftest", "5", "--seed", "1"]
        assert invoke(argv + ["--format", "pretty"]) == invoke(argv)
        assert invoke(argv)[0] == 0

    def test_seed_without_selftest_is_input_error(self):
        code, out, err = invoke(
            ["semisimple", "-n", "1", "-l", "2", "--chi", "1/5,1/7", "--seed", "3"]
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_long_cycle_answers_its_one_label(self):
        # The fill walks an explicit stack, not one frame per nu component,
        # so a cycle of 1500 vertices does not run out of stack in any format.
        argv = ["orbits", "-n", "0", "-l", "1500", "--format"]
        nu = ";".join(["[]"] * 1500)
        code, out, err = invoke(argv + ["tsv"])
        assert (code, err) == (0, "")
        header, row = out.splitlines()
        assert header == "lambda\tnu\tpi1\tsummands"
        assert row.split("\t") == ["[]", nu, "Z^1500", "-"]
        code, out, err = invoke(argv + ["pretty"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"  []  {nu}  Z^1500  -"
        code, out, err = invoke(argv + ["json"])
        assert (code, err) == (0, "")
        [entry] = json.loads(out)["orbits"]
        assert (entry["nu"], entry["summands"]) == (nu, [])
        assert entry["pi1"]["free_rank"] == 1500

    def test_unexpected_exception_is_exit_four(self, monkeypatch):
        def crash(*args):
            raise KeyError("boom")

        # The orbits table reads the label walk directly.
        monkeypatch.setattr(orbits_module, "_fill", crash)
        code, out, err = invoke(["orbits", "-n", "1", "-l", "1"])
        assert code == 4
        assert out == ""
        assert err == "internal error: KeyError: 'boom'\n"

    def test_closed_stdout_is_exit_four_without_traceback(self):
        # The (3,3) table is about 150 kB, more than a pipe buffers, so the
        # child is still writing when the reader goes away.
        assert_closed_stdout_exits_four(
            "orbits -n 3 -l 3 --format tsv", b"lambda\tnu\tpi1\tsummands\n"
        )

    def test_closed_stdout_json_is_exit_four_without_traceback(self):
        assert_closed_stdout_exits_four("orbits -n 3 -l 3 --format json", b"{\n")

    def test_closed_stdout_simples_is_exit_four_without_traceback(self):
        # simples prints its count first, so it writes only after listing.
        # At (3,3) its pretty text (51 kB) fits in a pipe buffer and the
        # child would finish; the (3,4) text is 717 kB.
        assert_closed_stdout_exits_four(
            "simples -n 3 -l 4 --chi 0,0,0,0 --format pretty",
            b"23682 simple objects at chi=0,0,0,0\n",
        )


class TestRationalGrammar:
    @pytest.mark.parametrize(
        "command",
        [
            "semisimple -n 1 -l 1 --chi 1e999999999",
            "semisimple -n 1 -l 1 --chi 0.5",
            "translate -l 2 --kappa k00=1e999999999,k=1/4,-1/4",
        ],
    )
    def test_refused_within_a_second(self, command):
        # Fraction() reads exponents, and 10**999999999 took seconds and
        # memory before failing; the README grammar has no exponent or
        # decimal point, so these are bad input, refused up front.  A child
        # process, so that a regression is stopped by the timeout and by a
        # 1 GB address space instead of taking the suite's memory.
        src = os.path.dirname(os.path.dirname(cli_module.__file__))

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "cyclocone.cli", *command.split()],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=cap_memory,
            timeout=10,
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.decode().startswith("error: malformed rational")
        assert elapsed < 1.0


def assert_closed_stdout_exits_four(command, first_line):
    """Run `command` as a child, close its stdout after the first line and
    check that it exits 4 without a traceback."""
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen(
        [sys.executable, "-m", "cyclocone.cli", *command.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline() == first_line
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 4
    assert "Traceback" not in err


def run_child(argv, stdout=subprocess.PIPE):
    """Run `python ARGV...` with the package on its path, stderr through a
    pipe."""
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


class TestMainProcess:
    """main() freezes the collector once the output is flushed, so the
    process skips its finalizing collections; the bytes and the exit code
    must not change, and run(), which callers in a living process use, must
    not freeze."""

    def test_orbit_table_bytes_and_exit_zero(self):
        # The digest of the (3,4) table in perfbench/expected.json.
        done = run_child("-m cyclocone.cli orbits -n 3 -l 4 --format tsv".split())
        assert done.returncode == 0
        assert done.stderr == b""
        assert hashlib.sha256(done.stdout).hexdigest() == (
            "b42b8000a8e9c21e9b9e4dd10e85aff8fd48102a21c650a7eb87cd2c84945bbd"
        )

    def test_not_semisimple_exits_one(self):
        done = run_child("-m cyclocone.cli semisimple -n 2 -l 1 --chi 1/2".split())
        assert done.returncode == 1
        assert done.stderr == b""
        assert done.stdout.startswith(b"semi-simple: no\n")

    @pytest.mark.parametrize("closed", [False, True])
    def test_main_freezes_before_it_exits(self, closed):
        # An atexit handler runs after main() has raised SystemExit and
        # before the interpreter finalizes; it reports the freeze on stderr,
        # on the normal path and when no reader is left for stdout.
        script = "\n".join([
            "import atexit, gc, sys",
            "from cyclocone.cli import main",
            "frozen = lambda: gc.get_freeze_count() > 0",
            "atexit.register(lambda: print('frozen', frozen(), file=sys.stderr))",
            "sys.argv = 'cyclocone orbits -n 2 -l 2 --format tsv'.split()",
            "main()",
        ])
        if closed:
            read_end, write_end = os.pipe()
            os.close(read_end)
            with os.fdopen(write_end, "wb") as stdout:
                done = run_child(["-c", script], stdout=stdout)
        else:
            done = run_child(["-c", script])
        assert done.stderr == b"frozen True\n"
        assert done.returncode == (4 if closed else 0)

    def test_run_leaves_the_collector_unfrozen(self):
        code, out, _ = invoke(["orbits", "-n", "2", "-l", "2", "--format", "tsv"])
        assert code == 0 and out.startswith("lambda\tnu\t")
        assert gc.get_freeze_count() == 0


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
BAD_RATIONALS = st.sampled_from(["1/0", "ham", "", "1//2", "--1", "/", "1/2/3"])


@st.composite
def cli_argvs(draw):
    """Subcommand lines at n, ell <= 3.  Each value is well-formed except
    for one draw in eight, so that most lines get past the parser."""

    def pick(good, bad):
        return draw(bad if draw(st.integers(0, 7)) == 0 else good)

    def rationals(size):
        good = st.lists(FRACTIONS.map(str), min_size=size, max_size=size)
        return pick(good, st.lists(FRACTIONS.map(str) | BAD_RATIONALS, max_size=4))

    sub = pick(
        st.sampled_from(
            ["orbits", "pi1", "simples", "semisimple", "hyperplanes", "translate"]
        ),
        st.just("frobnicate"),
    )
    ell = draw(st.integers(1, 3))
    argv = [sub, "-l", pick(st.just(str(ell)), st.sampled_from(["0", "-1", "x"]))]
    if sub != "translate" and (sub != "pi1" or draw(st.booleans())):
        argv += ["-n", pick(st.integers(1, 3).map(str), st.sampled_from(["0", "-1"]))]
    if draw(st.booleans()):
        formats = st.sampled_from(["pretty", "json", "tsv"])
        argv += ["--format", pick(formats, st.just("xml"))]
    if sub == "pi1":
        parts = st.sampled_from(["[]", "[1]", "[2]", "[1,1]", "[2,1]"])
        nu = ";".join(draw(st.lists(parts, min_size=ell, max_size=ell)))
        argv += ["--lambda", pick(parts, st.sampled_from(["(2)", "[1,2]", "[a]"]))]
        argv += ["--nu", pick(st.just(nu), st.sampled_from(["bad", "[];[];[];[]"]))]
    if sub in ("orbits", "simples", "semisimple", "translate"):
        given_as = draw(st.sampled_from(["--chi", "--kappa", "both", "neither"]))
        if given_as in ("--chi", "both"):
            argv += ["--chi", ",".join(rationals(ell))]
        if given_as in ("--kappa", "both"):
            # kappa entries sum to zero when well-formed.
            head = [draw(FRACTIONS) for _ in range(ell - 1)]
            kappa = [str(-sum(head))] + list(map(str, head))
            kappa = pick(st.just(kappa), st.just(["1"]))
            k00 = pick(FRACTIONS.map(str), BAD_RATIONALS)
            argv += ["--kappa", f"k00={k00},k=" + ",".join(kappa)]
    if sub == "semisimple" and draw(st.booleans()):
        count = pick(st.integers(1, 3).map(str), st.sampled_from(["0", "x"]))
        argv += ["--selftest", count]
        if draw(st.booleans()):
            argv += ["--seed", pick(st.integers(0, 9).map(str), st.just("s"))]
    return argv


class TestExitCodeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(cli_argvs())
    def test_every_input_exits_with_a_contract_code(self, argv):
        # argparse reports usage errors on sys.stderr itself.
        stray = io.StringIO()
        with contextlib.redirect_stderr(stray):
            code, _, err = invoke(argv)
        assert code in (0, 1, 2, 3, 4), argv
        assert "Traceback" not in err + stray.getvalue(), argv


class TestDisagreementReproducer:
    def test_message_ends_with_parseable_command(self):
        chi = RationalCharacter.parse("-1/2,3,-7/4")
        exc = CriteriaDisagreement(2, 3, chi, True, False, True)
        _, _, command = str(exc).rpartition("reproduce with: ")
        argv = command.split()
        assert argv[:2] == ["cyclocone", "semisimple"]
        # The plain parser, without run()'s folding of `--chi -1/2`.
        args = _build_parser().parse_args(argv[1:])
        assert (args.subcommand, args.n, args.ell) == ("semisimple", 2, 3)
        assert RationalCharacter.parse(args.chi) == chi

    def test_exit_three_prints_a_reproducing_command(self, monkeypatch):
        monkeypatch.setattr(
            report_module, "_chi_product_nonzero", lambda d, scaled, n: True
        )
        code, out, err = invoke(["semisimple", "-n", "2", "-l", "1", "--chi", "1/2"])
        assert code == 3 and out == ""
        command = err.rstrip("\n").rpartition("reproduce with: ")[2]
        assert command == "cyclocone semisimple -n 2 -l 1 --chi=1/2"
        assert invoke(command.split()[1:])[0] == 3

    @pytest.mark.parametrize(
        "module, side",
        [(orbits_module, "fundamental_group"), (abelian_module, "cokernel")],
        ids=["fundamental_group", "cokernel"],
    )
    def test_pi1_mismatch_exits_three_with_a_reproducing_command(
        self, monkeypatch, module, side
    ):
        # The pi1 command computes the closed form and the Smith normal form
        # of the string-vector matrix; break either and they must disagree.
        # It imports both from their defining modules when it runs.
        monkeypatch.setattr(module, side, lambda arg: FGAbelianGroup(7))
        code, out, err = invoke(["pi1", "-l", "1", "--lambda", "[]", "--nu", "[2]"])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("internal error: ")
        command = err.rstrip("\n").rpartition("reproduce with: ")[2]
        assert command == "cyclocone pi1 -n 2 -l 1 --lambda '[]' --nu '[2]'"
        assert invoke(shlex.split(command)[1:])[0] == 3
        monkeypatch.undo()
        assert invoke(shlex.split(command)[1:]) == (0, "Z/2\n", "")
