import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclocone.params import (
    CircleElement,
    KappaParams,
    RationalCharacter,
    _chi_product_nonzero,
    ariki_product_nonzero,
    cherednik_semisimple,
    chi_to_kappa,
    hecke_params,
    hecke_q,
    kappa_to_chi,
    parse_rational,
)
from cyclocone.rootlattice import generate_Rn, pair

import oracles
from oracles import ariki_nonzero_scan, onto_hyperplanes, random_fraction

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def random_character(rng, ell):
    return RationalCharacter(tuple(random_fraction(rng) for _ in range(ell)))


class TestParsing:
    def test_rationals(self):
        assert parse_rational("1/5") == Fraction(1, 5)
        assert parse_rational("-3") == Fraction(-3)
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("ham")

    def test_rational_grammar(self):
        # `a/b` or `a`, an optional sign on a, whitespace around.
        assert parse_rational(" +2/4 ") == Fraction(1, 2)
        assert parse_rational("-7/14") == Fraction(-1, 2)
        assert parse_rational("\t12\n") == Fraction(12)
        # What Fraction() would also read is refused, the exponents before
        # any power of ten is built.
        for text in [
            "0.5", "1e3", "1e999999999", "1.5e-2", "1_000", "1/-2", "+-1",
            "- 1", "1 /2", "inf", "nan", "\u0663", "1/2/3", "", "9" * 5000,
        ]:
            with pytest.raises(ValueError, match="malformed rational"):
                parse_rational(text)

    def test_text_entries_take_the_grammar(self):
        # Strings given to the constructors go through parse_rational too.
        assert RationalCharacter([" 1/2", "-3"]).values == (Fraction(1, 2), -3)
        for bad in ["0.5", "1e999999999"]:
            with pytest.raises(ValueError, match="malformed rational"):
                RationalCharacter(["1/3", bad])
            with pytest.raises(ValueError, match="malformed rational"):
                KappaParams(bad, 0, (0,))
            with pytest.raises(ValueError, match="malformed rational"):
                KappaParams(0, 0, (bad, 0))

    def test_character(self):
        chi = RationalCharacter.parse("1/5,1/7")
        assert chi.values == (Fraction(1, 5), Fraction(1, 7))
        assert str(chi) == "1/5,1/7"

    def test_character_json(self):
        # The one JSON form of chi: every command prints it this way.
        chi = RationalCharacter.parse("-1/2,3,0,2/4")
        assert chi.to_json() == ["-1/2", "3", "0", "1/2"]

    def test_kappa_string(self):
        kp = KappaParams.parse("k00=1/3,k=1/4,-1/4", ell=2)
        assert kp.k00 == Fraction(1, 3)
        assert kp.k01 == Fraction(-1, 3)
        assert kp.kappa == (Fraction(1, 4), Fraction(-1, 4))

    def test_kappa_invariants(self):
        with pytest.raises(ValueError):
            KappaParams(1, 1, (0,))
        with pytest.raises(ValueError):
            KappaParams(1, -1, (Fraction(1, 2),))

    def test_kappa_invariants_on_integers(self):
        # The checks compare numerators over common denominators; fractions
        # given as strings, ints and Fractions all count the same.
        kp = KappaParams("-2/6", Fraction(1, 3), ("1/4", Fraction(-3, 8), 0, "1/8"))
        assert (kp.k00, kp.k01) == (Fraction(-1, 3), Fraction(1, 3))
        assert kp.kappa == (Fraction(1, 4), Fraction(-3, 8), 0, Fraction(1, 8))
        assert all(type(v) is Fraction for v in (kp.k00, kp.k01, *kp.kappa))
        with pytest.raises(ValueError):
            KappaParams(Fraction(1, 3), Fraction(1, 3), (0,))
        with pytest.raises(ValueError):
            KappaParams("1/3", Fraction(-2, 6), (Fraction(1, 6), Fraction(-1, 3)))
        with pytest.raises(ValueError):
            KappaParams(0, 0, ())


class TestCommonDenominator:
    def test_example(self):
        chi = RationalCharacter.parse("1/2,-2/3,5")
        assert chi.common_denominator() == (6, (3, -4, 30))

    @given(st.lists(fracs, min_size=1, max_size=3))
    def test_least_denominator_and_numerators(self, values):
        d, numerators = RationalCharacter(values).common_denominator()
        assert [Fraction(a, d) for a in numerators] == values
        assert not any(
            all((k * v).denominator == 1 for v in values) for k in range(1, d)
        )


class TestCircle:
    def test_canonical_representative(self):
        assert CircleElement(Fraction(5, 4)).t == Fraction(1, 4)
        assert CircleElement(-1).t == 0


class TestKappaChiDictionary:
    def test_example_ell_two(self):
        kp = KappaParams(Fraction(1, 3), Fraction(-1, 3), (Fraction(1, 4), Fraction(-1, 4)))
        chi = kappa_to_chi(kp, 2)
        assert chi.values == (Fraction(2, 3), Fraction(0))

    def test_example_ell_one(self):
        c = Fraction(3, 7)
        kp = KappaParams(c, -c, (0,))
        assert kappa_to_chi(kp, 1).values == (2 * c,)

    def test_example_all_zero(self):
        kp = KappaParams(0, 0, (0, 0))
        assert kappa_to_chi(kp, 2).values == (Fraction(-1, 2), Fraction(1, 2))

    def test_inverse_examples(self):
        kp = chi_to_kappa(RationalCharacter((Fraction(1),)))
        assert kp.k00 == Fraction(1, 2) and kp.kappa == (Fraction(0),)
        kp = chi_to_kappa(RationalCharacter((Fraction(2, 3), Fraction(0))))
        assert kp.k00 == Fraction(1, 3)
        assert kp.kappa == (Fraction(1, 4), Fraction(-1, 4))

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(300):
            ell = rng.randint(1, 5)
            chi = random_character(rng, ell)
            kp = chi_to_kappa(chi)
            assert kappa_to_chi(kp, ell) == chi

    def test_reverse_round_trip_random(self):
        rng = random.Random(6)
        for _ in range(300):
            ell = rng.randint(1, 5)
            kappa = [random_fraction(rng) for _ in range(ell - 1)]
            kappa.append(-sum(kappa, Fraction(0)))
            k00 = random_fraction(rng)
            kp = KappaParams(k00, -k00, tuple(kappa))
            assert chi_to_kappa(kappa_to_chi(kp, ell)) == kp

    @given(st.data())
    def test_delta_pairing_identity(self, data):
        ell = data.draw(st.integers(1, 5))
        chi = RationalCharacter(tuple(data.draw(fracs) for _ in range(ell)))
        kp = chi_to_kappa(chi)
        assert sum(chi.values, Fraction(0)) == kp.k00 - kp.k01

    def test_printed_closed_form_has_centering_constant(self):
        # The closed-form inverse reads, for 1 <= i <= ell-1,
        #   ell*kappa_{i+1} = i - sum_{j<=i} j*chi_j + sum_{j>i} (ell-j)*chi_j,
        # but as printed it holds only up to the additive constant -(ell-1)/2
        # that the normalization sum(kappa) = 0 forces.  The solved linear
        # system (arbitrated by the round trips above) pins the constant.
        rng = random.Random(7)
        for _ in range(100):
            ell = rng.randint(2, 5)
            chi = random_character(rng, ell)
            kp = chi_to_kappa(chi)
            for i in range(1, ell):
                printed = (
                    i
                    - sum(j * chi.values[j] for j in range(1, i + 1))
                    + sum((ell - j) * chi.values[j] for j in range(i + 1, ell))
                )
                corrected = printed - Fraction(ell - 1, 2)
                assert ell * kp.kappa[(i + 1) % ell] == corrected


class TestHeckeParams:
    def test_all_zero_kappa(self):
        kp = KappaParams(0, 0, (0, 0))
        q0, q1, u = hecke_params(kp, 2)
        assert q0 == CircleElement(0)
        assert q1 == CircleElement(Fraction(1, 2))
        assert u == (CircleElement(0), CircleElement(Fraction(1, 2)))

    def test_q_is_k_difference(self):
        rng = random.Random(8)
        for _ in range(200):
            ell = rng.randint(1, 5)
            kappa = [random_fraction(rng) for _ in range(ell - 1)]
            kappa.append(-sum(kappa, Fraction(0)))
            k00 = random_fraction(rng)
            kp = KappaParams(k00, -k00, tuple(kappa))
            q0, q1, _ = hecke_params(kp, ell)
            assert hecke_q(q0, q1) == CircleElement(kp.k00 - kp.k01)

    def test_q_identity_at_half(self):
        kp = KappaParams(Fraction(1, 2), Fraction(-1, 2), (0,))
        q0, q1, _ = hecke_params(kp, 1)
        assert hecke_q(q0, q1) == CircleElement(1)
        assert hecke_q(q0, q1).t == 0


class TestIntegerPathAgainstFractionOracles:
    """chi_to_kappa, hecke_params and hecke_q work on integer numerators over
    common denominators; tests/oracles.py keeps their Fraction versions.
    Cycles of 1 to 7 vertices, denominators up to 60, numerators of both
    signs."""

    @staticmethod
    def characters(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            ell = rng.randint(1, 7)
            values = [random_fraction(rng, max_den=60, max_num=150) for _ in range(ell)]
            yield ell, RationalCharacter(values)

    @staticmethod
    def assert_circles_equal(got, want):
        assert type(got) is CircleElement and got == want
        assert type(got.t) is Fraction and 0 <= got.t < 1

    def test_kappa_and_hecke_field_by_field(self):
        for ell, chi in self.characters(71, 1200):
            kp, want = chi_to_kappa(chi), oracles.chi_to_kappa(chi)
            fields = (kp.k00, kp.k01, *kp.kappa)
            assert fields == (want.k00, want.k01, *want.kappa)
            assert all(type(v) is Fraction for v in fields)
            (q0, q1, u), (w0, w1, wu) = (
                hecke_params(kp, ell),
                oracles.hecke_params(want, ell),
            )
            assert type(u) is tuple and len(u) == len(wu) == ell
            for got, ref in zip((q0, q1, *u), (w0, w1, *wu)):
                self.assert_circles_equal(got, ref)
            self.assert_circles_equal(hecke_q(q0, q1), oracles.hecke_q(w0, w1))

    def test_hecke_of_arbitrary_kappa(self):
        # Kappa vectors drawn directly rather than from a character, with
        # k00 often an integer, a negative half or zero.
        rng = random.Random(72)
        for _ in range(300):
            ell = rng.randint(1, 7)
            kappa = [random_fraction(rng, max_den=60) for _ in range(ell - 1)]
            kappa.append(-sum(kappa, Fraction(0)))
            k00 = rng.choice([Fraction(0), Fraction(-1, 2), Fraction(3)])
            k00 = rng.choice([k00, random_fraction(rng, max_den=60)])
            kp = KappaParams(k00, -k00, tuple(kappa))
            got, want = hecke_params(kp, ell), oracles.hecke_params(kp, ell)
            assert got == want
            self.assert_circles_equal(hecke_q(*got[:2]), oracles.hecke_q(*want[:2]))

    def test_from_ratio_reduces_modulo_one(self):
        assert CircleElement.from_ratio(7, 4) == CircleElement(Fraction(3, 4))
        assert CircleElement.from_ratio(-1, 3).t == Fraction(2, 3)
        assert CircleElement.from_ratio(-6, 3).t == 0
        assert CircleElement.from_ratio(10, 4).t == Fraction(1, 2)


class TestAriki:
    def test_half_rotation_fails_at_n_two(self):
        assert not ariki_product_nonzero(CircleElement(Fraction(1, 2)), (CircleElement(0),), 2)

    def test_fifth_rotation_passes_at_n_two(self):
        assert ariki_product_nonzero(CircleElement(Fraction(1, 5)), (CircleElement(0),), 2)

    @pytest.mark.parametrize(
        "q, u, n",
        [
            ("1/2", ["0"], 2),
            ("1/2", ["1/5", "1/3"], 2),
            ("1/2", ["1/3", "1/3"], 1),
            ("1/7", ["2/5", "2/5", "0"], 3),
            ("0", ["1/3", "2/3"], 1),
            ("0", ["0"], 4),
        ],
    )
    def test_edge_cases_match_the_scan(self, q, u, n):
        u = [Fraction(x) for x in u]
        assert ariki_product_nonzero(
            CircleElement(q), tuple(map(CircleElement, u)), n
        ) == ariki_nonzero_scan(Fraction(q), u, n)

    def test_matches_the_scan(self):
        # Angles with denominators up to 12, so that vanishing factors are
        # common; the scan works on the angles, the library on the circle.
        rng = random.Random(23)
        verdicts = set()
        for _ in range(2400):
            ell = rng.randint(1, 4)
            n = rng.randint(1, 5)
            q = random_fraction(rng)
            u = [random_fraction(rng) for _ in range(ell)]
            got = ariki_product_nonzero(CircleElement(q), tuple(map(CircleElement, u)), n)
            assert got == ariki_nonzero_scan(q, u, n), (q, u, n)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_equal_u_values_fail(self):
        u = (CircleElement(Fraction(1, 3)), CircleElement(Fraction(1, 3)))
        assert not ariki_product_nonzero(CircleElement(Fraction(1, 7)), u, 1)


class TestCherednik:
    def test_ell_one_fifth(self):
        kp = KappaParams(Fraction(1, 10), Fraction(-1, 10), (0,))
        assert kp.k == Fraction(1, 5)
        assert cherednik_semisimple(kp, 2, 1)

    def test_ell_one_half(self):
        kp = KappaParams(Fraction(1, 4), Fraction(-1, 4), (0,))
        assert kp.k == Fraction(1, 2)
        assert not cherednik_semisimple(kp, 2, 1)

    def test_ell_two_zero(self):
        # k = 0 is an integer, which the m = 1 case of the first clause
        # rules out; the report agrees that chi = (-1/2, 1/2) at n = 1 is
        # not semi-simple (the hyperplane of delta).
        kp = KappaParams(0, 0, (0, 0))
        assert not cherednik_semisimple(kp, 1, 2)

    def test_first_clause_vs_multiplier_form(self):
        # For k not an integer the first clause is the same as
        # "m*k not in Z for every 2 <= m <= n"; integer k satisfies the
        # clause vacuously but fails the multiplier form, so the criterion
        # needs its separate m = 1 case, "k not in Z".
        from math import gcd

        rng = random.Random(9)
        for _ in range(400):
            k = random_fraction(rng)
            n = rng.randint(1, 5)
            clause = all(
                (k + Fraction(j, m)).denominator != 1
                for m in range(2, n + 1)
                for j in range(m)
                if gcd(j, m) == 1
            )
            multiplier = all(
                (m * k).denominator != 1 for m in range(2, n + 1)
            )
            if k.denominator != 1:
                assert clause == multiplier
            else:
                assert clause and (n < 2 or not multiplier)


class TestCriterionEquivalence:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_three_way_equivalence(self, seed):
        # roots-side avoidance == Hecke-side product == Cherednik, on random
        # rational characters.
        rng = random.Random(seed)
        for _ in range(150):
            n = rng.randint(1, 4)
            ell = rng.randint(1, 4)
            chi = random_character(rng, ell)
            if rng.random() < 0.2:
                chi = RationalCharacter(
                    tuple(Fraction(rng.randint(-3, 3)) for _ in range(ell))
                )
            roots_ok = all(
                pair(chi, alpha).denominator != 1
                for alpha in generate_Rn(n, ell)
            )
            kp = chi_to_kappa(chi)
            q0, q1, u = hecke_params(kp, ell)
            hecke_ok = ariki_product_nonzero(hecke_q(q0, q1), u, n)
            cher_ok = cherednik_semisimple(kp, n, ell)
            assert roots_ok == hecke_ok == cher_ok


class TestIntegerHeckeVerdict:
    """A report decides the Hecke product on c = d*chi modulo d*ell
    (_chi_product_nonzero); the oracle chain of tests/oracles.py builds
    kappa, the circle numbers and q in Fraction arithmetic and scans every
    factor.  Cycles and bounds of 1 to 6, negative entries, denominators up
    to 60, and families that random characters almost never hit."""

    @staticmethod
    def oracle(chi, n):
        q0, q1, u = oracles.hecke_params(oracles.chi_to_kappa(chi), chi.ell)
        return ariki_nonzero_scan(oracles.hecke_q(q0, q1).t, [x.t for x in u], n)

    def check(self, chi, n):
        got = _chi_product_nonzero(*chi.common_denominator(), n)
        assert got == self.oracle(chi, n), (str(chi), n)
        return got

    def test_random_characters_match_the_oracle(self):
        rng = random.Random(97)
        verdicts = set()
        for n in range(1, 7):
            for ell in range(1, 7):
                for i in range(40):
                    den = 60 if i % 2 else 6
                    values = [random_fraction(rng, max_den=den, max_num=90) for _ in range(ell)]
                    verdicts.add(self.check(RationalCharacter(values), n))
        assert verdicts == {True, False}

    def test_integral_characters_are_never_semisimple(self):
        rng = random.Random(98)
        for n in range(1, 7):
            for ell in range(1, 7):
                for _ in range(10):
                    chi = RationalCharacter([rng.randint(-9, 9) for _ in range(ell)])
                    assert not self.check(chi, n)

    @pytest.mark.parametrize("walls", [1, 2])
    def test_characters_on_root_hyperplanes(self, walls):
        # The roots come from R_6, so a character on a wall of a root
        # outside R_n can still be semi-simple at n.
        rng = random.Random(99 + walls)
        verdicts = set()
        for n in range(1, 7):
            for ell in range(1, 7):
                roots = generate_Rn(6, ell)
                for _ in range(15):
                    chi = RationalCharacter(
                        [random_fraction(rng, max_den=60, max_num=90) for _ in range(ell)]
                    )
                    picked = rng.sample(roots, walls)
                    chi = onto_hyperplanes(rng, chi, picked)
                    assert pair(chi, picked[0]).denominator == 1
                    verdicts.add(self.check(chi, n))
        assert verdicts == {True, False}
