import itertools
import random
from fractions import Fraction

import pytest

import cyclocone.orbits as orbits_module
import cyclocone.report as report_module
from cyclocone.abelian import FGAbelianGroup
from cyclocone.orbits import (
    admits_monodromic_local_system,
    count_Q_chi,
    decompose,
    enumerate_orbits,
    enumerate_Q_chi,
)
from cyclocone.params import RationalCharacter, cherednik_semisimple
from cyclocone.report import (
    CriteriaDisagreement,
    OrbitRow,
    count_multipartitions,
    hyperplane_listing,
    orbit_report,
    semisimplicity_report,
)
from cyclocone.rootlattice import generate_Rn, pair

import oracles
from oracles import (
    brute_force_orbit_pairs,
    cokernel_by_minors,
    lap_families,
    multipartition_count,
    multipartitions_recursive,
    onto_hyperplanes,
    random_fraction,
    string_vectors_scan,
)


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

        def broken_product(d, scaled, n):
            return True

        monkeypatch.setattr(report_module, "_chi_product_nonzero", broken_product)
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

    @pytest.mark.parametrize(
        "ell, n",
        [(ell, n) for ell in range(1, 5) for n in range(1, 5)]
        + [(ell, n) for ell in range(5, 8) for n in (1, 2)],
    )
    def test_violated_roots_match_the_pairing_scan(self, n, ell):
        # The report pairs each root's closed form with the prefix sums of
        # chi over its common denominator, in integers; pair() scans the
        # coordinates in Fraction arithmetic.  Denominators up to 3 or up
        # to 12 mix the verdicts; cycles of 5 or more vertices have so many
        # roots that up to 60 is needed for a semi-simple character.
        rng = random.Random(41 * n + ell)
        verdicts = set()
        for i in range(30):
            den = 3 if i % 2 else 12 if ell < 5 else 60
            chi = RationalCharacter(
                tuple(random_fraction(rng, max_den=den) for _ in range(ell))
            )
            expected = tuple(
                (alpha, value)
                for alpha in generate_Rn(n, ell)
                if (value := pair(chi, alpha)).denominator == 1
            )
            got = semisimplicity_report(n, ell, chi).violated_roots
            assert got == expected
            assert all(type(value) is Fraction for _, value in got)
            verdicts.add(not got)
        assert verdicts == {True, False}


SEVERAL_LAPS = [(n, ell) for ell in (1, 2) for n in range(1, 7)] + [(3, 6)]


class TestSeveralLapsSolveOneWindow:
    """Roots are grouped by window, m*delta + (one window), and one lookup
    per window must find every m that makes it integral: several when the
    period d / gcd(T, d) of chi is small (oracles.lap_families)."""

    @pytest.mark.parametrize("n, ell", SEVERAL_LAPS)
    def test_violated_roots_match_the_pairing_scan(self, n, ell):
        roots = generate_Rn(n, ell)
        families = lap_families(ell, n, random.Random(61 * n + ell))
        for family, characters in families.items():
            shared = False
            for chi in characters:
                expected = tuple(
                    (alpha, value)
                    for alpha in roots
                    if (value := pair(chi, alpha)).denominator == 1
                )
                got = semisimplicity_report(n, ell, chi).violated_roots
                assert got == expected, (family, str(chi))
                assert all(type(value) is Fraction for _, value in got)
                if family == "integral":
                    assert len(got) == len(roots)
                # Two violated roots a whole number of deltas apart share
                # their window.
                shared |= any(
                    len({x - y for x, y in zip(a.coords, b.coords)}) == 1
                    for (a, _), (b, _) in itertools.combinations(got, 2)
                )
            if characters and n > 1:
                assert shared, family


class TestRoadmapFamilies:
    """Integral characters, and characters on one or two root hyperplanes
    of R_n, are never semi-simple; the report's verdict must equal the
    Cherednik criterion on kappa from the oracle's Fraction translation,
    and the hyperplanes' roots must be among the violated ones."""

    @pytest.mark.parametrize("walls", [0, 1, 2])
    def test_report_against_cherednik(self, walls):
        rng = random.Random(71 + walls)
        sizes = [(n, ell) for n in range(1, 5) for ell in range(1, 5)] + [(3, 6)]
        for n, ell in sizes:
            roots = generate_Rn(n, ell)
            for _ in range(4):
                if walls == 0:
                    chi = RationalCharacter([rng.randint(-4, 4) for _ in range(ell)])
                    picked = list(roots)
                else:
                    chi = RationalCharacter(
                        [random_fraction(rng, max_den=60, max_num=90) for _ in range(ell)]
                    )
                    picked = rng.sample(roots, min(walls, len(roots)))
                    chi = onto_hyperplanes(rng, chi, picked)
                    if pair(chi, picked[-1]).denominator != 1:
                        picked = picked[:1]  # proportional roots: one wall
                report = semisimplicity_report(n, ell, chi)
                kp = oracles.chi_to_kappa(chi)
                assert not report.semisimple
                assert report.semisimple == cherednik_semisimple(kp, n, ell)
                violated = [alpha for alpha, _ in report.violated_roots]
                assert all(alpha in violated for alpha in picked)
                if walls == 0:
                    assert report.chi_integral
                    assert len(report.violated_roots) == len(roots)


class TestRootClosedForms:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_root_is_rebuilt_from_its_closed_form(self, n):
        # alpha = m*delta + sign*(eps_lo + ... + eps_{hi-1}), in the order of
        # generate_Rn, for every cycle up to length 7.
        # Grouped by window (sign, lo, hi), each root keeps its position.
        for ell in range(1, 8):
            stored = report_module._roots(n, ell)
            assert len({entry[:3] for entry in stored}) == len(stored)
            rebuilt = {}
            for sign, lo, hi, laps, members in stored:
                assert sign in (-1, 0, 1)
                assert (sign == 0) == (lo == hi) and 0 <= lo <= hi <= ell
                ms = [m for _, m, _ in members]
                assert ms == sorted(set(ms))
                assert laps == sum(1 << m for m in ms)
                for position, m, alpha in members:
                    coords = [m] * ell
                    for r in range(lo, hi):
                        coords[r] += sign
                    assert tuple(coords) == alpha.coords
                    rebuilt[position] = alpha
            assert [rebuilt[k] for k in sorted(rebuilt)] == list(generate_Rn(n, ell))
            assert sorted(rebuilt) == list(range(len(rebuilt)))


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
        assert iter(rows) is rows  # rows are built as they are read
        rows = list(rows)
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
        rows = list(orbit_report(2, 1, chi_of("1/2")))
        flags = [row.monodromic for row in rows]
        assert flags == [True, True, False, True, False]
        assert sum(flags) == 3

    def test_integral_flags(self):
        rows = list(orbit_report(2, 1, chi_of(0)))
        assert [row.monodromic for row in rows] == [True] * 5

    def test_record_fields(self):
        rows = list(orbit_report(1, 2, chi_of(0, "1/2")))
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
            rows = list(orbit_report(n, ell, chi))
            assert [row.monodromic for row in rows] == [
                admits_monodromic_local_system(row.label, chi) for row in rows
            ]
            assert [row.label for row in rows if row.monodromic] == (
                enumerate_Q_chi(n, ell, chi)
            )


class TestOrbitRowsAgainstOracles:
    """Every row of the table against the oracles, which share no code path
    with the fill: labels by a double loop, string vectors by a box scan,
    pi1 by determinantal divisors and the flag by exact pairings."""

    @pytest.mark.parametrize(
        "n, ell", [(n, ell) for n in range(4) for ell in range(1, 4)] + [(2, 4)]
    )
    def test_rows(self, n, ell):
        rng = random.Random(41 * n + ell)
        chi = RationalCharacter(
            tuple(random_fraction(rng, max_den=3) for _ in range(ell))
        )
        rows = list(orbit_report(n, ell, chi))
        labels = [row.label for row in rows]
        assert labels == list(enumerate_orbits(n, ell))
        pairs = [(lab.lam.parts, tuple(c.parts for c in lab.nu)) for lab in labels]
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == brute_force_orbit_pairs(n, ell)
        for row, (_, nu) in zip(rows, pairs):
            vectors = string_vectors_scan(nu, ell)
            assert [s.vector.coords for s in row.strings] == vectors
            assert row.pi1 == FGAbelianGroup(*cokernel_by_minors(vectors, ell))
            integral = all(
                sum(x * c for x, c in zip(chi.values, v)).denominator == 1
                for v in vectors
            )
            assert row.monodromic == integral
            assert row.monodromic == admits_monodromic_local_system(row.label, chi)


class TestMultipartitionCount:
    def test_known_values(self):
        assert count_multipartitions(2, 2) == 5
        assert count_multipartitions(0, 4) == 1
        assert count_multipartitions(2, 1) == 2

    @pytest.mark.parametrize(
        "n, ell", [(n, ell) for n in range(5) for ell in range(1, 5)]
    )
    def test_agrees_with_listing(self, n, ell):
        assert count_multipartitions(n, ell) == sum(
            1 for _ in multipartitions_recursive(n, ell)
        )

    def test_agrees_with_convolution_oracle(self):
        for n in range(41):
            for ell in range(1, 7):
                assert count_multipartitions(n, ell) == multipartition_count(n, ell)

    def test_counts_large_sizes_without_listing(self):
        assert count_multipartitions(100, 1) == 190_569_292  # p(100)


class TestCountingWithoutListing:
    def test_report_lists_no_orbit_and_no_multipartition(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the counting criterion listed")

        for cache in (
            orbits_module.enumerate_orbits,
            orbits_module._string_class_table,
            orbits_module._placed_of_size,
            orbits_module._row_table,
            orbits_module._string_coords,
            count_multipartitions,
        ):
            cache.cache_clear()
        monkeypatch.setattr(orbits_module, "enumerate_orbits", refuse)
        monkeypatch.setattr(orbits_module, "_fill_labels", refuse)
        monkeypatch.setattr(orbits_module, "_component_strings", refuse)
        # The counts were taken from the listing before counting stopped
        # listing.
        for values, semisimple, simple_count in [
            (("1/5", "1/7", "2/3", "-1/2"), True, 105),
            (("1/2", "1/2", "1/3", "-1/3"), False, 1344),
            (("0", "1/2", "0", "1/3"), False, 188),
        ]:
            rep = semisimplicity_report(4, 4, chi_of(*values))
            assert (rep.semisimple, rep.simple_count, rep.pell_count) == (
                semisimple,
                simple_count,
                105,
            )
        # The table walks the placed records that the listing reads, but
        # only their masks, beside their packed residues: no record made its
        # row texts, and none holds a residue of its own.  The
        # records read here are the report's own, at the (4,4) graph's width
        # of 6 bits a vertex: reading them builds none.
        records = orbits_module._placed_of_size
        misses = records.cache_info().misses
        assert records.cache_info().currsize > 0
        for index in range(4):
            for size in range(17):
                for comp in records(4, index, size, 6)[1]:
                    assert vars(comp).keys() == {"partition", "index", "ell", "mask"}
        assert records.cache_info().misses == misses

    # Per size: the number of labels, then (semisimple, simple_count) of each
    # seeded character below, all taken from the listing before counting
    # stopped listing (it takes seconds at these sizes, so the suite does not
    # list them).
    FRONTIER = {
        (6, 3): (311_455, [(True, 221)] * 8 + [(False, 272)] * 2 + [(True, 221)] * 2),
        (2, 6): (
            50_332,
            [(False, 33)] * 3
            + [(False, 57), (False, 33), (True, 27), (True, 27), (False, 40)]
            + [(False, 33), (False, 37), (False, 33), (True, 27)],
        ),
    }

    @pytest.mark.parametrize("n, ell", sorted(FRONTIER))
    def test_criteria_agree_beyond_the_listed_sizes(self, n, ell):
        # Roots and Hecke parameters do not use the string-class table, so
        # semisimplicity_report raising no CriteriaDisagreement checks the
        # table's verdict; the pinned counts check the table itself.
        labels, expected = self.FRONTIER[n, ell]
        assert count_Q_chi(n, ell, RationalCharacter((0,) * ell)) == labels
        rng = random.Random(97 * n + ell)
        got = []
        for _ in expected:
            chi = RationalCharacter(
                tuple(random_fraction(rng, max_den=2 * n * ell) for _ in range(ell))
            )
            report = semisimplicity_report(n, ell, chi)
            got.append((report.semisimple, report.simple_count))
        assert got == expected
