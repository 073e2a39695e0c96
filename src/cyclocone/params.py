"""Exact parameter coordinates: characters, kappa parameters, circle elements.

Three coordinate systems describe the same parameter space: rational
characters chi = (chi_0, ..., chi_{ell-1}), the kappa coordinates
(k00, k01, kappa_0, ..., kappa_{ell-1}) constrained by k00 + k01 = 0 and
sum(kappa) = 0, and the multiplicative parameters (q0, q1, u_0, ..., u_{ell-1})
on the unit circle.  Circle numbers are handled additively in Q/Z, so every
"lies in Z" test is an exact rational congruence.  The translations run on
integer numerators over common denominators, each circle element built
once (`CircleElement.from_ratio`), and one integer core, _product_nonzero,
decides the product: for ariki_product_nonzero, and for a report on d*chi
modulo d*ell with no kappa or circle element built (_chi_product_nonzero).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from ._frozen import Frozen


def _fraction(value: Fraction | int | str) -> Fraction:
    """Fraction(value), a Fraction passed through and text parsed."""
    if type(value) is Fraction:
        return value
    return parse_rational(value) if isinstance(value, str) else Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse `a/b` or a plain integer `a` (ASCII digits, a sign on a, spaces
    around) into an exact fraction; an exponent is refused unexpanded."""
    num, slash, den = text.strip().partition("/")
    a, b = (num[1:] if num[:1] in ("+", "-") else num), (den if slash else "1")
    if a.isdigit() and a.isascii() and b.isdigit() and b.isascii():
        try:
            return Fraction(int(num), int(b))
        except (ValueError, ZeroDivisionError):  # b = 0, or too many digits
            pass
    raise ValueError(f"malformed rational: {text!r}")


class RationalCharacter(Frozen):
    """A vector of ell exact rationals, one per cycle vertex."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Fraction | int | str]):
        vals = tuple(map(_fraction, values))
        if not vals:
            raise ValueError("a character needs at least one entry")
        self._assign(vals)

    @classmethod
    def parse(cls, text: str) -> RationalCharacter:
        """Parse the comma syntax, e.g. `1/5,1/7`."""
        return cls(tuple(parse_rational(tok) for tok in text.split(",")))

    @property
    def ell(self) -> int:
        return len(self.values)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    def common_denominator(self) -> tuple[int, tuple[int, ...]]:
        """(d, d*chi): the least common denominator d of the entries and the
        integer numerators over it.  The pairing of chi with an integer
        vector is integral iff the integer pairing with d*chi is divisible
        by d, and then equals that pairing divided by d."""
        ratios = [v.as_integer_ratio() for v in self.values]
        d = lcm(*[b for _, b in ratios])
        return d, tuple([a * (d // b) for a, b in ratios])

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __repr__(self) -> str:
        return f"RationalCharacter({[str(v) for v in self.values]!r})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    def to_json(self) -> list[str]:
        return [str(v) for v in self.values]


class KappaParams(Frozen):
    """Kappa coordinates (k00, k01, kappa) with k00+k01 = 0 and sum(kappa) = 0."""

    __slots__ = ("k00", "k01", "kappa")

    def __init__(
        self,
        k00: Fraction | int | str,
        k01: Fraction | int | str,
        kappa: Sequence[Fraction | int | str],
    ):
        k00, k01 = _fraction(k00), _fraction(k01)
        kappa = tuple(map(_fraction, kappa))
        if not kappa:
            raise ValueError("kappa vector needs at least one entry")
        # Both checks on integers: fractions are kept in lowest terms, and
        # the kappa entries are summed over their common denominator.
        if (k00.numerator, k00.denominator) != (-k01.numerator, k01.denominator):
            raise ValueError(f"k00 + k01 must vanish, got {k00 + k01}")
        den = lcm(*(v.denominator for v in kappa))
        if sum(v.numerator * (den // v.denominator) for v in kappa):
            raise ValueError(f"kappa entries must sum to zero: {kappa!r}")
        self._assign(k00, k01, kappa)

    @property
    def ell(self) -> int:
        return len(self.kappa)

    @property
    def k(self) -> Fraction:
        return self.k00 - self.k01

    def __repr__(self) -> str:
        return (
            f"KappaParams({str(self.k00)!r}, {str(self.k01)!r}, "
            f"{[str(v) for v in self.kappa]!r})"
        )

    def to_json(self) -> dict:
        return {
            "k00": str(self.k00),
            "k01": str(self.k01),
            "kappa": [str(v) for v in self.kappa],
        }

    @classmethod
    def parse(cls, text: str, ell: int | None = None) -> KappaParams:
        """Parse `k00=1/3,k=1/4,-1/4`; k01 is implied by k00 + k01 = 0."""
        k00 = None
        kappa: list[Fraction] | None = None
        for token in text.split(","):
            token = token.strip()
            if token.startswith("k00="):
                k00 = parse_rational(token[4:])
            elif token.startswith("k="):
                kappa = [parse_rational(token[2:])]
            elif kappa is not None:
                kappa.append(parse_rational(token))
            else:
                raise ValueError(f"unexpected token {token!r} in kappa string")
        if k00 is None or kappa is None:
            raise ValueError(f"kappa string needs k00=... and k=...: {text!r}")
        if ell is not None and len(kappa) != ell:
            raise ValueError(f"expected {ell} kappa entries, got {len(kappa)}")
        return cls(k00, -k00, kappa)


class CircleElement(Frozen):
    """exp(2*pi*i*t) for rational t, stored as the canonical t in [0, 1).

    Multiplying circle elements adds their t's modulo one, so equality and
    every vanishing test are exact rational congruences.
    """

    __slots__ = ("t",)

    def __init__(self, t: Fraction | int):
        self._assign(Fraction(t) % 1)

    @classmethod
    def from_ratio(cls, num: int, den: int) -> CircleElement:
        """exp(2*pi*i*num/den) for integers num and den > 0: num is reduced
        modulo den first, so the one Fraction built is already canonical."""
        element = object.__new__(cls)
        element._assign(Fraction(num % den, den))
        return element

    def __repr__(self) -> str:
        return f"CircleElement({str(self.t)!r})"

    def __str__(self) -> str:
        return str(self.t)


def kappa_to_chi(kp: KappaParams, ell: int) -> RationalCharacter:
    """Translate kappa coordinates to a character; kappa indices are cyclic.

    chi_0 = 1/ell + (kappa_0 - kappa_1) + (k00 - k01) - 1 and
    chi_i = 1/ell + (kappa_i - kappa_{i+1}) for 1 <= i <= ell-1, which
    forces the pairing of chi with the all-ones vector to equal k00 - k01.
    """
    if kp.ell != ell:
        raise ValueError(f"expected {ell} kappa entries, got {kp.ell}")
    kappa = kp.kappa
    inv_ell = Fraction(1, ell)
    values = [inv_ell + (kappa[i] - kappa[(i + 1) % ell]) for i in range(ell)]
    values[0] += kp.k - 1
    return RationalCharacter(values)


def chi_to_kappa(chi: RationalCharacter) -> KappaParams:
    """The unique kappa coordinates translating back to the given character.

    Solves the defining linear system: the cyclic differences
    kappa_i - kappa_{i+1} = chi_i - 1/ell for i >= 1, the normalization
    sum(kappa) = 0, and k00 = -k01 = (coordinate sum of chi)/2.  On
    c = d*chi, with S = sum(c) and s_i = c_1 + ... + c_i (s_0 = 0), the
    solution anchored at kappa_1 = 0, times d*ell, is
    p_{i+1 mod ell} = i*d - ell*s_i, so k00 = S/(2d) and
    kappa_r = (ell*p_r - sum(p)) / (d*ell^2).
    """
    d, scaled = chi.common_denominator()
    ell = len(scaled)
    k00 = Fraction(sum(scaled), 2 * d)
    by_i = [i * d - ell * s for i, s in enumerate(accumulate(scaled[1:], initial=0))]
    anchored = by_i[-1:] + by_i[:-1]
    shift, den = sum(anchored), d * ell * ell
    kappa = tuple(Fraction(ell * p - shift, den) for p in anchored)
    return KappaParams(k00, -k00, kappa)


def hecke_params(
    kp: KappaParams, ell: int
) -> tuple[CircleElement, CircleElement, tuple[CircleElement, ...]]:
    """Unit-circle parameters (q0, q1, u) attached to kappa coordinates.

    q0 = exp(2*pi*i*k00), q1 = -exp(2*pi*i*k01) with the sign absorbed as a
    half rotation, and u_r = zeta^{-r} exp(2*pi*i*kappa_r), the angle
    kappa_r - r/ell.
    Each angle is formed as an integer ratio and reduced modulo one there.
    """
    if kp.ell != ell:
        raise ValueError(f"expected {ell} kappa entries, got {kp.ell}")
    ratio = CircleElement.from_ratio
    k00, k01 = kp.k00, kp.k01
    q0 = ratio(k00.numerator, k00.denominator)
    q1 = ratio(2 * k01.numerator + k01.denominator, 2 * k01.denominator)
    u = tuple(
        ratio(v.numerator * ell - r * v.denominator, v.denominator * ell)
        for r, v in enumerate(kp.kappa)
    )
    return q0, q1, u


def hecke_q(q0: CircleElement, q1: CircleElement) -> CircleElement:
    """The deformation parameter q = -q0 * q1^{-1}, another half rotation:
    the angle 1/2 + t0 - t1 over the denominator 2*b0*b1."""
    a0, b0 = q0.t.numerator, q0.t.denominator
    a1, b1 = q1.t.numerator, q1.t.denominator
    return CircleElement.from_ratio(b0 * b1 + 2 * (a0 * b1 - a1 * b0), 2 * b0 * b1)


def hecke_json(
    q0: CircleElement,
    q1: CircleElement,
    u: Sequence[CircleElement],
    q: CircleElement | None = None,
) -> dict:
    """The one JSON form of Hecke parameters: {q0, q1, u}, with q between
    q1 and u when given."""
    out = {"q0": str(q0), "q1": str(q1)}
    if q is not None:
        out["q"] = str(q)
    out["u"] = [str(x) for x in u]
    return out


def ariki_product_nonzero(q: CircleElement, u: Sequence[CircleElement], n: int) -> bool:
    """Whether (1 - q^m) and (u_i - q^k u_j) all stay away from zero.

    The first family runs over 1 <= m <= n; the second over ordered pairs
    i != j and exponents -n < k < n.  Both are decided exactly in Q/Z, by
    _product_nonzero on Q = D*q and U_i = D*u_i, D the common denominator.
    """
    if n < 1:
        raise ValueError("n must be positive")
    D = lcm(q.t.denominator, *(x.t.denominator for x in u))
    Q, *U = (x.t.numerator * (D // x.t.denominator) for x in (q, *u))
    return _product_nonzero(Q, U, D, n)


def _product_nonzero(Q: int, U: Sequence[int], D: int, n: int) -> bool:
    """The product test for q = e(Q/D) and u_i = e(U_i/D), e(t) =
    exp(2*pi*i*t): q^m = 1 for some 1 <= m <= n iff the order D/gcd(Q, D)
    of q is at most n, and u_i = q^k u_j iff U_i - U_j = k*Q mod D, tested
    once per unordered pair as -n < k < n is closed under negation."""
    if D // gcd(Q, D) <= n:
        return False
    powers = {k * Q % D for k in range(-n + 1, n)}
    return powers.isdisjoint([(a - b) % D for a, b in combinations(U, 2)])


def _chi_product_nonzero(d: int, scaled: Sequence[int], n: int) -> bool:
    """The product test at the Hecke parameters of chi, on c = d*chi with no
    kappa or circle element built.  With S, p and s_i as in chi_to_kappa,
    q = e(S/d) and u_r = e((ell*p_r - sum(p) - r*d*ell) / (d*ell^2)); sum(p)
    cancels in u_i/u_j, so the product is decided modulo D = d*ell, with
    Q = S*ell and U_r = p_r - r*d = -d - ell*s_(r-1 mod ell) mod D.  Only
    differences of U's over unordered pairs meet a set closed under
    negation, so U = ell*s_i, 0 <= i < ell, decides the same."""
    ell = len(scaled)
    U = [ell * s for s in accumulate(scaled[1:], initial=0)]
    return _product_nonzero(sum(scaled) * ell, U, d * ell, n)


def cherednik_semisimple(kp: KappaParams, n: int, ell: int) -> bool:
    """Semi-simplicity test in kappa coordinates.

    Requires k00 - k01 + j/m to miss Z for 1 <= m <= n with j coprime to m,
    and m*(k00 - k01) + kappa_j - kappa_i + (i - j)/ell to miss Z for all
    -n < m < n and i != j.

    The first clause rules out exactly the denominators 1..n of k00 - k01;
    its m = 1 case (j = 0) is the condition k00 - k01 not in Z.
    """
    if kp.ell != ell:
        raise ValueError(f"expected {ell} kappa entries, got {kp.ell}")
    if n < 1:
        raise ValueError("n must be positive")
    k, kappa = kp.k, kp.kappa
    if any(
        gcd(j, m) == 1 and (k + Fraction(j, m)).denominator == 1
        for m in range(1, n + 1)
        for j in range(m)
    ):
        return False
    return not any(
        (m * k + kappa[j] - kappa[i] + Fraction(i - j, ell)).denominator == 1
        for m in range(-n + 1, n)
        for i in range(ell)
        for j in range(ell)
        if i != j
    )
