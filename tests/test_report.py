import random
from fractions import Fraction

import pytest

from cyclocone.abelian import FGAbelianGroup
from cyclocone.orbits import (
    admits_monodromic_local_system,
    decompose,
    enumerate_orbits,
    enumerate_Q_chi,
)
from cyclocone.params import RationalCharacter
from cyclocone.report import (
    CriteriaDisagreement,
    OrbitRow,
    count_multipartitions,
    hyperplane_listing,
    orbit_report,
    semisimplicity_report,
)

from oracles import random_fraction


def chi_of(*vals):
    return RationalCharacter(tuple(Fraction(v) for v in vals))


class TestSemisimplicityReport:
    def test_generic_two_two(self):
        rep = semisimplicity_report(2, 2, chi_of("1/5", "1/7"))
        assert rep.verdict_roots and rep.verdict_hecke and rep.verdict_counting
        assert rep.semisimple
        assert rep.simple_count == 5
        assert rep.pell_count == 5
        assert rep.violated_roots == ()
        assert not rep.chi_integral

    def test_half_integral_enhanced_nilcone(self):
        rep = semisimplicity_report(2, 1, chi_of("1/2"))
        assert not rep.semisimple
        assert not (rep.verdict_roots or rep.verdict_hecke or rep.verdict_counting)
        assert [(alpha.coords, value) for alpha, value in rep.violated_roots] == [
            ((2,), Fraction(1))
        ]
        assert rep.simple_count == 3

    def test_integral_two_two(self):
        rep = semisimplicity_report(2, 2, chi_of(0, 0))
        assert not rep.semisimple
        assert rep.simple_count == 41
        assert rep.chi_integral

    def test_validates_input(self):
        with pytest.raises(ValueError):
            semisimplicity_report(0, 1, chi_of(0))
        with pytest.raises(ValueError):
            semisimplicity_report(1, 2, chi_of(0))

    def test_disagreement_is_loud(self, monkeypatch):
        # Deliberately corrupt one criterion; the report must refuse to
        # return rather than reconcile.
        import cyclocone.report as report_module

        def broken_ariki(q, u, n):
            return True

        monkeypatch.setattr(report_module, "ariki_product_nonzero", broken_ariki)
        with pytest.raises(CriteriaDisagreement) as excinfo:
            semisimplicity_report(2, 1, chi_of("1/2"))
        err = excinfo.value
        assert err.verdict_hecke != err.verdict_roots

    def test_json_fields(self):
        rep = semisimplicity_report(2, 1, chi_of("1/2"))
        data = rep.to_json()
        assert list(data) == [
            "n",
            "ell",
            "chi",
            "verdict_roots",
            "verdict_hecke",
            "verdict_counting",
            "violated_roots",
            "simple_count",
            "pell_count",
            "chi_integral",
            "kappa",
            "hecke",
        ]
        assert data["violated_roots"] == [{"dim_vector": "(2)", "pairing": "1"}]
        assert data["kappa"]["k00"] == "1/4"

    def test_count_inequality_random(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 3)
            ell = rng.randint(1, 3)
            chi = RationalCharacter(
                tuple(random_fraction(rng) for _ in range(ell))
            )
            rep = semisimplicity_report(n, ell, chi)
            assert rep.simple_count >= rep.pell_count
            assert rep.verdict_counting == (rep.simple_count == rep.pell_count)


class TestHyperplaneListing:
    def test_smallest_case(self):
        listing = hyperplane_listing(1, 1)
        assert [(alpha.coords, eq) for alpha, eq in listing] == [
            ((1,), "χ_0 ∈ Z")
        ]

    def test_two_delta(self):
        listing = hyperplane_listing(2, 1)
        assert len(listing) == 2
        assert listing[1][1] == "2χ_0 ∈ Z"

    def test_n2_ell2_count_and_text(self):
        listing = hyperplane_listing(2, 2)
        assert len(listing) == 5
        texts = {eq for _, eq in listing}
        assert "χ_0 + χ_1 ∈ Z" in texts
        assert "χ_1 ∈ Z" in texts
        assert "χ_0 + 2χ_1 ∈ Z" in texts

    def test_count_matches_formula(self):
        for n in range(1, 5):
            for ell in range(1, 5):
                assert len(hyperplane_listing(n, ell)) == (
                    n + (2 * n - 1) * ell * (ell - 1) // 2
                )


class TestOrbitReport:
    def test_pi1_column(self):
        rows = orbit_report(2, 1)
        assert all(isinstance(row, OrbitRow) for row in rows)
        assert [row.label for row in rows] == list(enumerate_orbits(2, 1))
        assert [row.pi1 for row in rows] == [
            FGAbelianGroup(1),
            FGAbelianGroup(1),
            FGAbelianGroup(0),
            FGAbelianGroup(0, (2,)),
            FGAbelianGroup(0),
        ]
        assert [row.monodromic for row in rows] == [None] * 5
        assert len(rows) == 5
        assert count_multipartitions(2, 1) == 2

    def test_half_integral_flags(self):
        rows = orbit_report(2, 1, chi_of("1/2"))
        flags = [row.monodromic for row in rows]
        assert flags == [True, True, False, True, False]
        assert sum(flags) == 3

    def test_integral_flags(self):
        rows = orbit_report(2, 1, chi_of(0))
        assert [row.monodromic for row in rows] == [True] * 5

    def test_record_fields(self):
        rows = orbit_report(1, 2, chi_of(0, "1/2"))
        row = next(r for r in rows if str(r.label.nu) == "[];[2]")
        assert str(row.label.lam) == "[]"
        assert [(s.start, s.row, s.vector.coords) for s in row.strings] == [
            (1, 1, (1, 1))
        ]
        assert row.strings == decompose(row.label).strings
        assert row.monodromic is False

    @pytest.mark.parametrize("n, ell", [(3, 2), (2, 3)])
    def test_flags_match_per_label_criterion(self, n, ell):
        # The table-driven flags against the per-label pairing test.
        rng = random.Random(31 * n + ell)
        for _ in range(6):
            chi = RationalCharacter(
                tuple(random_fraction(rng, max_den=4) for _ in range(ell))
            )
            rows = orbit_report(n, ell, chi)
            assert [row.monodromic for row in rows] == [
                admits_monodromic_local_system(row.label, chi) for row in rows
            ]
            assert [row.label for row in rows if row.monodromic] == (
                enumerate_Q_chi(n, ell, chi)
            )


class TestMultipartitionCount:
    def test_known_values(self):
        assert count_multipartitions(2, 2) == 5
        assert count_multipartitions(0, 4) == 1
        assert count_multipartitions(2, 1) == 2
