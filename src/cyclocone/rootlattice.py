"""Root lattice of the affine cycle, hyperplane roots and character pairings.

The lattice Z^ell is identified with the group algebra Z[Z_ell]: coordinate
r is the multiplicity of the basis element sigma^r (equivalently the quiver
vertex r).  Vectors optionally carry a framing multiplicity for the extra
vertex used by framed dimension vectors; the framing never takes part in
character pairings.

`generate_Rn` lists the roots of the hyperplanes of the bound n as a plain
tuple of `DimVector`s, each built from the closed form `_root_forms` gives
it; a report pairs a character with those forms on integers, and `pair` is
the exact rational pairing of one character with one vector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from ._frozen import Frozen

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

    from .params import RationalCharacter


class DimVector(Frozen):
    """Integer vector of length ell with an optional framing multiplicity."""

    __slots__ = ("coords", "framing")

    def __init__(self, coords: Sequence[int], framing: int = 0):
        coords = tuple(int(c) for c in coords)
        if not coords:
            raise ValueError("dimension vector needs at least one coordinate")
        if framing < 0:
            raise ValueError("framing multiplicity must be nonnegative")
        self._assign(coords, int(framing))

    @classmethod
    def _trusted(cls, coords: tuple[int, ...]) -> DimVector:
        # An unframed vector from a nonempty tuple of ints, not re-validated.
        vector = object.__new__(cls)
        vector._assign(coords, 0)
        return vector

    @property
    def ell(self) -> int:
        return len(self.coords)

    def _check_compatible(self, other: DimVector) -> None:
        if not isinstance(other, DimVector):
            raise TypeError(f"expected DimVector, got {type(other).__name__}")
        if other.ell != self.ell:
            raise ValueError(f"length mismatch: {self.ell} vs {other.ell}")

    def __add__(self, other: DimVector) -> DimVector:
        self._check_compatible(other)
        return DimVector(
            tuple(a + b for a, b in zip(self.coords, other.coords)),
            self.framing + other.framing,
        )

    def __mul__(self, scalar: int) -> DimVector:
        if not isinstance(scalar, int):
            return NotImplemented
        return DimVector(
            tuple(scalar * c for c in self.coords), scalar * self.framing
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.framing:
            return f"DimVector({self.coords!r}, framing={self.framing})"
        return f"DimVector({self.coords!r})"

    def __str__(self) -> str:
        body = "(" + ",".join(str(c) for c in self.coords) + ")"
        if self.framing == 0:
            return body
        if self.framing == 1:
            return "inf+" + body
        return f"{self.framing}inf+" + body


def delta(ell: int) -> DimVector:
    """The all-ones vector, the minimal imaginary root of the cycle."""
    if ell < 1:
        raise ValueError("cycle length must be positive")
    return DimVector((1,) * ell)


def generate_Rn(n: int, ell: int) -> tuple[DimVector, ...]:
    """All positive roots with vertex-0 coefficient below n, plus n*delta.

    Generated from the closed-form union of three families: the imaginary
    multiples m*delta (1 <= m <= n), and m*delta plus/minus an interval of
    finite simple roots.  The vertex-0 coefficient of every member of the
    interval families equals m, which realizes the bound; the families are
    pairwise disjoint, and each root is built once from its closed form
    (_root_forms).
    """
    if n < 1:
        raise ValueError("bound n must be positive")
    if ell < 1:
        raise ValueError("cycle length must be positive")
    return tuple(
        DimVector._trusted((m,) * lo + (m + sign,) * (hi - lo) + (m,) * (ell - hi))
        for m, sign, lo, hi in _root_forms(n, ell)
    )


def _root_forms(n: int, ell: int) -> Iterator[tuple[int, int, int, int]]:
    """(m, sign, lo, hi) per root of generate_Rn(n, ell), in its order: the
    root m*delta + sign*(eps_lo + ... + eps_{hi-1}), with 1 <= lo < hi <= ell,
    or m*delta itself when sign = lo = hi = 0."""
    for m in range(1, n + 1):
        yield m, 0, 0, 0
    for m, sign in [(m, 1) for m in range(n)] + [(m, -1) for m in range(1, n)]:
        for lo in range(1, ell):
            for hi in range(lo + 1, ell + 1):
                yield m, sign, lo, hi


def pair(chi: "RationalCharacter", alpha: DimVector) -> Fraction:
    """Exact dot product of a character with a lattice vector.

    The framing coordinate of alpha is ignored: characters live on the
    unframed group.
    """
    from fractions import Fraction

    values = chi.values
    if len(values) != alpha.ell:
        raise ValueError(
            f"length mismatch: character has {len(values)} entries, "
            f"vector has {alpha.ell}"
        )
    return sum((v * c for v, c in zip(values, alpha.coords)), Fraction(0))

