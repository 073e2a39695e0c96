"""Orbit labels of the enhanced cyclic nilpotent cone.

A label is a pair (lambda; nu) of a partition and an ell-multipartition whose
residues add up to n*delta.  Each row of each nu component contributes one
string summand; the framed summand absorbs lambda.  Row j >= 1 of component
i >= 0, of length l, is fixed up to isomorphism by its string class

    (top, length) = (i + j - 1 mod ell, l),

and `_string_classes` is the one place that derives it.  The class is the
key of both the fundamental group (the cokernel of one column per distinct
class) and the string-class counting table.  A character admits a
monodromic local system on the orbit exactly when it pairs integrally with
every string summand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from ._frozen import Frozen
from .abelian import FGAbelianGroup, IntMatrix, cokernel
from .params import RationalCharacter
from .partitions import (
    MultiPartition,
    Partition,
    partitions_of,
    residue,
    shifted_residue,
)
from .rootlattice import DimVector, delta

Coords = tuple[int, ...]


class OrbitLabel(Frozen):
    """A pair (lambda; nu) with residue(lambda) + sres(nu) = n*delta."""

    __slots__ = ("lam", "nu", "n", "ell")

    def __init__(self, lam: Partition, nu: MultiPartition, n: int, ell: int):
        if ell < 1:
            raise ValueError("cycle length must be positive")
        if nu.ell != ell:
            raise ValueError(f"expected {ell} components, got {nu.ell}")
        if residue(lam, ell) + shifted_residue(nu, ell) != n * delta(ell):
            raise ValueError(
                f"residues of ({lam}; {nu}) do not add up to {n}*delta"
            )
        self._assign(lam, nu, n, ell)

    @classmethod
    def _trusted(cls, lam, nu, n, ell):
        # Enumeration guarantees the residue identity; skip re-deriving it.
        label = object.__new__(cls)
        label._assign(lam, nu, n, ell)
        return label

    def __repr__(self) -> str:
        return f"OrbitLabel({self.lam!r}, {self.nu!r}, n={self.n}, ell={self.ell})"

    def __str__(self) -> str:
        return f"({self.lam};{self.nu})"


class StringSummand(NamedTuple):
    """One row of one nu component: the component index, row index, vector."""

    start: int
    row: int
    vector: DimVector


class SummandDecomposition(NamedTuple):
    framed: DimVector
    strings: tuple[StringSummand, ...]


def _string_classes(label: OrbitLabel) -> Iterator[tuple[int, int, int, int]]:
    """(component, row, top, length) for every row of every nu component."""
    # Row j of a diagram carries contents j-1 down to j-length; the component
    # shift adds i.  Keeping the within-diagram content shift is what makes
    # framed + sum(strings) close up to n*delta.
    ell = label.ell
    for i, comp in enumerate(label.nu):
        for j, length in enumerate(comp.parts, start=1):
            yield i, j, (i + j - 1) % ell, length


@lru_cache(maxsize=None)
def _string_coords(top: int, length: int, ell: int) -> Coords:
    coords = [0] * ell
    for step in range(length):
        coords[(top - step) % ell] += 1
    return tuple(coords)


@lru_cache(maxsize=None)
def _summand_vector(top: int, length: int, ell: int) -> DimVector:
    # DimVector is immutable, so every row of a class shares one instance.
    return DimVector(_string_coords(top, length, ell))


def decompose(label: OrbitLabel) -> SummandDecomposition:
    """Framed summand plus one string summand per row of each nu component."""
    ell = label.ell
    strings = tuple(
        StringSummand(i, j, _summand_vector(top, length, ell))
        for i, j, top, length in _string_classes(label)
    )
    framed = DimVector(residue(label.lam, ell).coords, framing=1)
    return SummandDecomposition(framed, strings)


def fundamental_group(label: OrbitLabel) -> FGAbelianGroup:
    """Cokernel of the matrix of string summand classes inside Z^ell.

    The framed summand is dropped, and there is one column per distinct
    string class; repeated columns would not change the cokernel anyway.
    Neither does column order, so the group is computed once per distinct
    set of classes.
    """
    classes = frozenset(
        (top, length) for _, _, top, length in _string_classes(label)
    )
    return _class_set_cokernel(label.ell, classes)


@lru_cache(maxsize=None)
def _class_set_cokernel(
    ell: int, classes: frozenset[tuple[int, int]]
) -> FGAbelianGroup:
    columns = [_string_coords(top, length, ell) for top, length in sorted(classes)]
    return cokernel(IntMatrix.from_columns(columns, rows=ell))


def admits_monodromic_local_system(
    label: OrbitLabel, chi: RationalCharacter
) -> bool:
    """Whether chi pairs integrally with every string summand vector."""
    if chi.ell != label.ell:
        raise ValueError(
            f"character has {chi.ell} entries, label lives on a cycle "
            f"of length {label.ell}"
        )
    vectors = tuple(
        _string_coords(top, length, chi.ell)
        for _, _, top, length in _string_classes(label)
    )
    return all(_integral_vector_flags(vectors, chi))


@lru_cache(maxsize=None)
def _interned_partition(parts: tuple[int, ...]) -> Partition:
    return Partition(parts)


@lru_cache(maxsize=None)
def _component_candidates(
    ell: int, index: int, size: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # (parts, rotated residue coords) for every partition of the given size.
    out = []
    for parts in partitions_of(size):
        shifted = residue(_interned_partition(parts), ell).rotated(index)
        out.append((parts, shifted.coords))
    return tuple(out)


def _fill_components(
    ell: int, index: int, remaining: tuple[int, ...]
) -> Iterator[tuple[Partition, ...]]:
    budget = sum(remaining)
    if index == ell - 1:
        # Last component must hit the remaining residue exactly.
        for parts, shifted in _component_candidates(ell, index, budget):
            if shifted == remaining:
                yield (_interned_partition(parts),)
        return
    for size in range(budget + 1):
        for parts, shifted in _component_candidates(ell, index, size):
            rest = tuple(r - s for r, s in zip(remaining, shifted))
            if min(rest) < 0:
                continue
            head = _interned_partition(parts)
            for tail in _fill_components(ell, index + 1, rest):
                yield (head,) + tail


@lru_cache(maxsize=None)
def enumerate_orbits(n: int, ell: int) -> tuple[OrbitLabel, ...]:
    """All orbit labels for the given (n, ell), in a fixed order.

    lambda runs through partition sizes n*ell down to 0 (descending), within
    a size in the standard partition order; nu components are then filled
    left to right against the complementary residue.  The labels with empty
    nu therefore come first.
    """
    if ell < 1:
        raise ValueError("cycle length must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    target = n * delta(ell)
    out = []
    for lam_size in range(n * ell, -1, -1):
        for lam_parts in partitions_of(lam_size):
            lam = _interned_partition(lam_parts)
            rest = target - residue(lam, ell)
            if not rest.is_nonnegative():
                continue
            for combo in _fill_components(ell, 0, rest.coords):
                out.append(
                    OrbitLabel._trusted(lam, MultiPartition(combo), n, ell)
                )
    return tuple(out)


@lru_cache(maxsize=None)
def _string_class_table(n: int, ell: int) -> tuple[
    tuple[Coords, ...], tuple[Coords, ...], tuple[tuple[Coords, int], ...]
]:
    """Distinct string vectors per label, as indices into a shared vector table.

    Returns (vectors, per-label index tuples, grouped multiset of index
    tuples).  This is the hot path for counting monodromic labels over many
    characters: per character only the shared vectors need a pairing test,
    and counting walks the grouped multiset instead of every label.
    """
    vector_index: dict[Coords, int] = {}
    class_index: dict[tuple[int, int], int] = {}  # (top, length) -> vector
    per_label = []
    groups: dict[tuple[int, ...], int] = {}
    for label in enumerate_orbits(n, ell):
        indices = set()
        for _, _, top, length in _string_classes(label):
            k = class_index.get((top, length))
            if k is None:
                coords = _string_coords(top, length, ell)
                k = vector_index.setdefault(coords, len(vector_index))
                class_index[top, length] = k
            indices.add(k)
        key = tuple(sorted(indices))
        per_label.append(key)
        groups[key] = groups.get(key, 0) + 1
    return tuple(vector_index), tuple(per_label), tuple(groups.items())


def _integral_vector_flags(
    vectors: tuple[Coords, ...], chi: RationalCharacter
) -> tuple[bool, ...]:
    values = chi.values
    return tuple(
        sum((v * c for v, c in zip(values, coords)), Fraction(0)).denominator == 1
        for coords in vectors
    )


def enumerate_Q_chi(
    n: int, ell: int, chi: RationalCharacter
) -> list[OrbitLabel]:
    """The labels admitting a chi-monodromic local system.

    Its length is the number of simple objects of the admissible category
    at the character chi.
    """
    if chi.ell != ell:
        raise ValueError(f"character has {chi.ell} entries, expected {ell}")
    labels = enumerate_orbits(n, ell)
    vectors, per_label, _ = _string_class_table(n, ell)
    ok = _integral_vector_flags(vectors, chi)
    return [
        label
        for label, indices in zip(labels, per_label)
        if all(ok[k] for k in indices)
    ]


def count_Q_chi(n: int, ell: int, chi: RationalCharacter) -> int:
    """len(enumerate_Q_chi(...)), via the grouped table."""
    if chi.ell != ell:
        raise ValueError(f"character has {chi.ell} entries, expected {ell}")
    vectors, _, groups = _string_class_table(n, ell)
    ok = _integral_vector_flags(vectors, chi)
    return sum(
        count for indices, count in groups if all(ok[k] for k in indices)
    )
