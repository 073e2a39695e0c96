from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclocone.params import RationalCharacter
from cyclocone.rootlattice import DimVector, delta, generate_Rn, pair

from oracles import brute_force_Rn


class TestDimVector:
    def test_delta(self):
        assert delta(1).coords == (1,)
        assert delta(3).coords == (1, 1, 1)

    def test_scalar_multiple(self):
        assert (2 * delta(2)).coords == (2, 2)

    def test_add_sub(self):
        v = delta(2) + DimVector((0, 1))
        assert v.coords == (1, 2)
        assert v + DimVector((0, -1)) == delta(2)

    def test_framing_arithmetic(self):
        framed = DimVector((1, 0), framing=1)
        total = framed + DimVector((0, 1))
        assert total.framing == 1 and total.coords == (1, 1)
        with pytest.raises(ValueError):
            DimVector((1,), framing=-1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            delta(2) + delta(3)

    def test_text(self):
        assert str(DimVector((1, 0, 1))) == "(1,0,1)"
        assert str(DimVector((2, 2), framing=1)) == "inf+(2,2)"
        assert str(DimVector((0, 1), framing=3)) == "3inf+(0,1)"


class TestGenerateRn:
    def test_ell_one(self):
        rs = generate_Rn(2, 1)
        assert rs == (DimVector((1,)), DimVector((2,)))

    def test_n2_ell2(self):
        rs = generate_Rn(2, 2)
        assert set(a.coords for a in rs) == {
            (1, 1),
            (2, 2),
            (0, 1),
            (1, 2),
            (1, 0),
        }
        assert len(rs) == 5

    def test_n1_ell2(self):
        rs = generate_Rn(1, 2)
        assert set(a.coords for a in rs) == {(1, 1), (0, 1)}

    def test_all_nonnegative(self):
        for n in range(1, 5):
            for ell in range(1, 5):
                roots = generate_Rn(n, ell)
                assert all(c >= 0 for a in roots for c in a.coords)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("ell", range(1, 7))
    def test_size_formula_and_oracle(self, n, ell):
        rs = generate_Rn(n, ell)
        expected_size = n + (2 * n - 1) * ell * (ell - 1) // 2
        assert len(rs) == expected_size
        assert set(a.coords for a in rs) == brute_force_Rn(n, ell)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("ell", range(1, 6))
    def test_family_order(self, n, ell):
        # m*delta for m = 1..n, then m*delta + interval for m = 0..n-1, then
        # m*delta - interval for m = 1..n-1; the intervals
        # epsilon_i + ... + epsilon_j run over i, then j, in 1 <= i <= j < ell.
        intervals = [
            [1 if i <= r <= j else 0 for r in range(ell)]
            for i in range(1, ell)
            for j in range(i, ell)
        ]
        expected = [[m] * ell for m in range(1, n + 1)]
        expected += [[m + c for c in iv] for m in range(n) for iv in intervals]
        expected += [[m - c for c in iv] for m in range(1, n) for iv in intervals]
        assert generate_Rn(n, ell) == tuple(map(DimVector, expected))

    def test_deterministic_order(self):
        first = [a.coords for a in generate_Rn(3, 3)]
        second = [a.coords for a in generate_Rn(3, 3)]
        assert first == second


class TestPairing:
    def test_zero_character(self):
        chi = RationalCharacter((0, 0))
        for alpha in generate_Rn(3, 2):
            assert pair(chi, alpha) == 0

    def test_exact_fractions(self):
        chi = RationalCharacter((Fraction(1, 5), Fraction(1, 7)))
        assert pair(chi, delta(2)) == Fraction(12, 35)
        assert pair(chi, DimVector((1, 0))) == Fraction(1, 5)

    def test_integrality(self):
        chi = RationalCharacter((Fraction(1, 2),))
        assert pair(chi, 2 * delta(1)).denominator == 1
        assert pair(chi, delta(1)).denominator == 2

    def test_framing_is_ignored(self):
        chi = RationalCharacter((Fraction(1, 3), Fraction(1, 3)))
        framed = DimVector((1, 1), framing=1)
        assert pair(chi, framed) == Fraction(2, 3)

    def test_dimension_error(self):
        chi = RationalCharacter((Fraction(1, 2),))
        with pytest.raises(ValueError):
            pair(chi, delta(2))

    @given(st.data())
    def test_bilinear(self, data):
        ell = data.draw(st.integers(1, 4))
        fracs = st.fractions(
            min_value=-3, max_value=3, max_denominator=8
        )
        chi = RationalCharacter(
            tuple(data.draw(fracs) for _ in range(ell))
        )
        a = DimVector(tuple(data.draw(st.integers(-5, 5)) for _ in range(ell)))
        b = DimVector(tuple(data.draw(st.integers(-5, 5)) for _ in range(ell)))
        assert pair(chi, a + b) == pair(chi, a) + pair(chi, b)
