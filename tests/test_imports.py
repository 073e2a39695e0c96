"""What a process loads: the package resolves its public names on first
access, and each CLI command imports only the layers it runs.

The module sets are read in fresh interpreters, since this test process has
long since loaded every layer.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cyclocone

SRC = os.path.dirname(os.path.dirname(cyclocone.__file__))

# Every public name of the package.
PUBLIC_NAMES = {
    "CircleElement", "CriteriaDisagreement", "DimVector", "FGAbelianGroup",
    "IntMatrix", "KappaParams", "MultiPartition", "OrbitLabel", "OrbitRow",
    "Partition", "Pi1Disagreement", "RationalCharacter", "SemisimplicityReport",
    "StringSummand", "SummandDecomposition", "admits_monodromic_local_system",
    "ariki_product_nonzero", "cherednik_semisimple", "chi_to_kappa",
    "cokernel", "count_multipartitions", "decompose", "delta",
    "enumerate_Q_chi", "enumerate_orbits", "fundamental_group", "generate_Rn",
    "hecke_params", "hecke_q", "hyperplane_listing", "kappa_to_chi",
    "orbit_report", "pair", "residue", "semisimplicity_report",
    "shifted_residue", "smith_normal_form",
}

# Names the package once exported and no command read; none resolves now.
REMOVED_NAMES = {
    "Box", "RootSet", "circle", "content", "enumerate_multipartitions",
    "enumerate_partitions", "epsilon", "is_integral_pairing",
}


def loaded_after(code: str) -> set[str]:
    """The cyclocone, fractions and json modules loaded after `code` runs
    in a fresh interpreter that has `src/` on its path."""
    # The list goes to stderr, so no command output can mix in, and json
    # is imported for it only after the list is made.
    script = (
        f"{code}\n"
        "import sys\n"
        "watched = [m for m in sys.modules\n"
        "           if m.partition('.')[0] in ('cyclocone', 'fractions', 'json')]\n"
        "import json\n"
        "sys.stderr.write(json.dumps(watched))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


def run_command(argv: list[str]) -> str:
    return (
        "import io\n"
        "from cyclocone.cli import run\n"
        f"code = run({argv!r}, out=io.StringIO(), err=io.StringIO())\n"
        "assert code in (0, 1), code\n"
    )


LAYERS = {
    "cyclocone.abelian",
    "cyclocone.orbits",
    "cyclocone.params",
    "cyclocone.partitions",
    "cyclocone.report",
    "cyclocone.rootlattice",
}


class TestLoadedModules:
    def test_bare_import_loads_no_submodule(self):
        assert loaded_after("import cyclocone") == {"cyclocone"}

    def test_public_names_do_not_load_the_cli(self):
        loaded = loaded_after(
            "import cyclocone\n"
            "for name in cyclocone.__all__:\n"
            "    getattr(cyclocone, name)\n"
        )
        assert LAYERS <= loaded
        assert "cyclocone.cli" not in loaded

    def test_pi1(self):
        argv = ["pi1", "-l", "1", "--lambda", "[]", "--nu", "[2]"]
        loaded = loaded_after(run_command(argv))
        assert {"cyclocone.orbits", "cyclocone.abelian"} <= loaded
        absent = {"cyclocone.params", "cyclocone.report", "fractions", "json"}
        assert not loaded & absent

    def test_translate_loads_params_alone(self):
        argv = ["translate", "-l", "2", "--kappa", "k00=1/3,k=1/4,-1/4"]
        loaded = loaded_after(run_command(argv))
        assert loaded & LAYERS == {"cyclocone.params"}
        assert "json" not in loaded

    def test_orbits_without_a_character(self):
        argv = ["orbits", "-n", "2", "-l", "2", "--format", "tsv"]
        loaded = loaded_after(run_command(argv))
        assert {"cyclocone.orbits", "cyclocone.abelian"} <= loaded
        absent = {"cyclocone.params", "cyclocone.report", "fractions", "json"}
        assert not loaded & absent

    @pytest.mark.parametrize("fmt", ["tsv", "pretty"])
    def test_semisimple_at_a_character(self, fmt):
        argv = ["semisimple", "-n", "2", "-l", "2", "--chi", "1/5,1/7"]
        loaded = loaded_after(run_command(argv + ["--format", fmt]))
        assert {"cyclocone.report", "cyclocone.params"} <= loaded
        assert not loaded & {"cyclocone.abelian", "json"}


class TestPublicNames:
    def test_all_lists_exactly_the_public_names(self):
        assert set(cyclocone.__all__) == PUBLIC_NAMES
        assert len(cyclocone.__all__) == len(PUBLIC_NAMES)
        assert PUBLIC_NAMES <= set(dir(cyclocone))

    @pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
    def test_name_is_the_defining_module_s_object(self, name):
        value = getattr(cyclocone, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("cyclocone.")
        assert getattr(module, name) is value
        namespace = {}
        exec(f"from cyclocone import {name}", namespace)
        assert namespace[name] is value

    @pytest.mark.parametrize("name", sorted(REMOVED_NAMES))
    def test_removed_name_does_not_resolve(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(cyclocone, name)
        with pytest.raises(ImportError):
            exec(f"from cyclocone import {name}", {})
        assert name not in dir(cyclocone)

    def test_moved_names_are_re_exported_by_report(self):
        from cyclocone import errors, partitions, report

        assert report.CriteriaDisagreement is errors.CriteriaDisagreement
        assert report.Pi1Disagreement is errors.Pi1Disagreement
        assert report.count_multipartitions is partitions.count_multipartitions

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cyclocone.no_such_name
