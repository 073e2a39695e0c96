import io
import json
import os
import random
import subprocess
import sys

import pytest

import cyclocone.cli as cli_module
import cyclocone.report as report_module
from cyclocone.cli import _build_parser, run
from cyclocone.params import RationalCharacter
from cyclocone.report import CriteriaDisagreement


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

    def test_byte_identical_runs(self):
        args = ["orbits", "-n", "2", "-l", "2", "--format", "json"]
        assert invoke(args) == invoke(args)


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

    def test_requires_exactly_one(self):
        code, _, err = invoke(["translate", "-l", "1"])
        assert code == 2
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


class TestExitCodeContract:
    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_selftest_count_must_be_positive(self, count):
        code, out, err = invoke(
            ["semisimple", "-n", "2", "-l", "1", "--selftest", count]
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_too_many_components_is_input_error(self):
        code, out, err = invoke(["orbits", "-n", "0", "-l", "1500"])
        assert code == 2
        assert out == ""
        assert err == "error: input too large\n"

    def test_unexpected_exception_is_exit_four(self, monkeypatch):
        def crash(*args):
            raise KeyError("boom")

        monkeypatch.setattr(cli_module, "orbit_report", crash)
        code, out, err = invoke(["orbits", "-n", "1", "-l", "1"])
        assert code == 4
        assert out == ""
        assert err == "internal error: KeyError: 'boom'\n"

    def test_closed_stdout_is_exit_four_without_traceback(self):
        # The (3,3) table is about 150 kB, more than a pipe buffers, so the
        # child is still writing when the reader goes away.
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.Popen(
            [sys.executable, "-m", "cyclocone.cli", "orbits", "-n", "3", "-l", "3"]
            + ["--format", "tsv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert child.stdout.readline() == b"lambda\tnu\tpi1\tsummands\n"
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 4
        assert "Traceback" not in err


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
            report_module, "ariki_product_nonzero", lambda q, u, n: True
        )
        code, out, err = invoke(["semisimple", "-n", "2", "-l", "1", "--chi", "1/2"])
        assert code == 3 and out == ""
        command = err.rstrip("\n").rpartition("reproduce with: ")[2]
        assert command == "cyclocone semisimple -n 2 -l 1 --chi=1/2"
        assert invoke(command.split()[1:])[0] == 3
