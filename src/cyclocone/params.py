"""Exact parameter coordinates: characters, kappa parameters, circle elements.

Three coordinate systems describe the same parameter space: rational
characters chi = (chi_0, ..., chi_{ell-1}), the kappa coordinates
(k00, k01, kappa_0, ..., kappa_{ell-1}) constrained by k00 + k01 = 0 and
sum(kappa) = 0, and the multiplicative parameters (q0, q1, u_0, ..., u_{ell-1})
on the unit circle.  Circle numbers are handled additively in Q/Z, so every
"lies in Z" test is an exact rational congruence.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from ._frozen import Frozen


def parse_rational(text: str) -> Fraction:
    """Parse `a/b` or a plain integer `a` into an exact fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational: {text!r}") from exc


class RationalCharacter(Frozen):
    """A vector of ell exact rationals, one per cycle vertex."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Fraction | int | str]):
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ValueError("a character needs at least one entry")
        self._assign(vals)

    @classmethod
    def zero(cls, ell: int) -> RationalCharacter:
        return cls((Fraction(0),) * ell)

    @classmethod
    def parse(cls, text: str) -> RationalCharacter:
        """Parse the comma syntax, e.g. `1/5,1/7`."""
        return cls(tuple(parse_rational(tok) for tok in text.split(",")))

    @property
    def ell(self) -> int:
        return len(self.values)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    def delta_pairing(self) -> Fraction:
        """The pairing with the all-ones vector, i.e. the coordinate sum."""
        return sum(self.values, Fraction(0))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __repr__(self) -> str:
        return f"RationalCharacter({[str(v) for v in self.values]!r})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


class KappaParams(Frozen):
    """Kappa coordinates (k00, k01, kappa) with k00+k01 = 0 and sum(kappa) = 0."""

    __slots__ = ("k00", "k01", "kappa")

    def __init__(
        self,
        k00: Fraction | int,
        k01: Fraction | int,
        kappa: Sequence[Fraction | int],
    ):
        k00, k01 = Fraction(k00), Fraction(k01)
        kappa = tuple(Fraction(v) for v in kappa)
        if not kappa:
            raise ValueError("kappa vector needs at least one entry")
        if k00 + k01 != 0:
            raise ValueError(f"k00 + k01 must vanish, got {k00 + k01}")
        if sum(kappa, Fraction(0)) != 0:
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

    Multiplication of circle elements is addition of the t's modulo one,
    so equality and all vanishing tests are exact.
    """

    __slots__ = ("t",)

    def __init__(self, t: Fraction | int):
        self._assign(Fraction(t) % 1)

    def __mul__(self, other: CircleElement) -> CircleElement:
        if not isinstance(other, CircleElement):
            return NotImplemented
        return CircleElement(self.t + other.t)

    def inverse(self) -> CircleElement:
        return CircleElement(-self.t)

    def __pow__(self, exponent: int) -> CircleElement:
        return CircleElement(self.t * exponent)

    def is_one(self) -> bool:
        return self.t == 0

    def __repr__(self) -> str:
        return f"CircleElement({str(self.t)!r})"

    def __str__(self) -> str:
        return str(self.t)


def circle(t: Fraction | int | str) -> CircleElement:
    return CircleElement(Fraction(t))


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
    values = [inv_ell + (kappa[0] - kappa[1 % ell]) + kp.k - 1]
    for i in range(1, ell):
        values.append(inv_ell + (kappa[i] - kappa[(i + 1) % ell]))
    return RationalCharacter(values)


def chi_to_kappa(chi: RationalCharacter) -> KappaParams:
    """The unique kappa coordinates translating back to the given character.

    Solves the defining linear system directly: the cyclic differences
    kappa_i - kappa_{i+1} = chi_i - 1/ell for i >= 1, the normalization
    sum(kappa) = 0, and k00 = -k01 = (coordinate sum of chi)/2.
    """
    ell = chi.ell
    k00 = chi.delta_pairing() / 2
    if ell == 1:
        return KappaParams(k00, -k00, (Fraction(0),))
    inv_ell = Fraction(1, ell)
    provisional = [Fraction(0)] * ell  # anchored at kappa_1 = 0
    cur = Fraction(0)
    for i in range(1, ell):
        cur = cur - (chi.values[i] - inv_ell)
        provisional[(i + 1) % ell] = cur
    shift = -sum(provisional, Fraction(0)) / ell
    return KappaParams(k00, -k00, tuple(v + shift for v in provisional))


def hecke_params(
    kp: KappaParams, ell: int
) -> tuple[CircleElement, CircleElement, tuple[CircleElement, ...]]:
    """Unit-circle parameters (q0, q1, u) attached to kappa coordinates.

    q0 = circle(k00), q1 = -exp(2*pi*i*k01) with the sign absorbed as a half
    rotation, and u_r = zeta^{-r} exp(2*pi*i*kappa_r) = circle(kappa_r - r/ell).
    """
    if kp.ell != ell:
        raise ValueError(f"expected {ell} kappa entries, got {kp.ell}")
    q0 = CircleElement(kp.k00)
    q1 = CircleElement(kp.k01 + Fraction(1, 2))
    u = tuple(
        CircleElement(kp.kappa[r] - Fraction(r, ell)) for r in range(ell)
    )
    return q0, q1, u


def hecke_q(q0: CircleElement, q1: CircleElement) -> CircleElement:
    """The deformation parameter q = -q0 * q1^{-1}, another half rotation."""
    return CircleElement(Fraction(1, 2)) * q0 * q1.inverse()


def ariki_product_nonzero(
    q: CircleElement, u: Sequence[CircleElement], n: int
) -> bool:
    """Whether (1 - q^m) and (u_i - q^d u_j) all stay away from zero.

    The first family runs over 1 <= m <= n; the second over ordered pairs
    i != j and exponents -n < d < n.  Both are decided exactly in Q/Z.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for m in range(1, n + 1):
        if (q ** m).is_one():
            return False
    ell = len(u)
    for i in range(ell):
        for j in range(ell):
            if i == j:
                continue
            for d in range(-n + 1, n):
                if (u[i] * u[j].inverse() * q ** (-d)).is_one():
                    return False
    return True


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
    k = kp.k
    for m in range(1, n + 1):
        for j in range(m):
            if gcd(j, m) == 1 and (k + Fraction(j, m)).denominator == 1:
                return False
    kappa = kp.kappa
    for m in range(-n + 1, n):
        for i in range(ell):
            for j in range(ell):
                if i == j:
                    continue
                value = m * k + kappa[j] - kappa[i] + Fraction(i - j, ell)
                if value.denominator == 1:
                    return False
    return True
