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

from functools import lru_cache
from itertools import compress
from math import lcm
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

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


@lru_cache(maxsize=None)
def _component_classes(
    ell: int, index: int, parts: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """(top, length) of every row of a partition placed as nu component `index`."""
    # Row j of a diagram carries contents j-1 down to j-length; the component
    # shift adds the index.  Keeping the within-diagram content shift is what
    # makes framed + sum(strings) close up to n*delta.
    return tuple(
        ((index + j - 1) % ell, length) for j, length in enumerate(parts, start=1)
    )


def _string_classes(label: OrbitLabel) -> Iterator[tuple[int, int, int, int]]:
    """(component, row, top, length) for every row of every nu component."""
    ell = label.ell
    for i, comp in enumerate(label.nu):
        for j, (top, length) in enumerate(
            _component_classes(ell, i, comp.parts), start=1
        ):
            yield i, j, top, length


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
    return not _non_integral_mask(vectors, chi)


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
    tuple[Coords, ...], Mapping[tuple[int, int], int], tuple[tuple[int, int], ...]
]:
    """The labels of (n, ell) counted per set of distinct string vectors.

    Returns (vectors, {(top, length): bit}, ((mask, count), ...)).  Bit
    1 << k stands for vectors[k], and every string class with that vector
    maps to it; a group counts the labels whose string vectors are exactly
    the bits of its mask.  Per character only the vectors need a pairing
    test, and counting walks the groups instead of the labels.

    No label is built.  A dynamic program fills the nu components in the
    order enumerate_orbits does, keeping (remaining residue, mask) -> number
    of partial labels: lambda seeds it, components 0 .. ell-2 fold in, and
    the last component must take up the remaining residue exactly.
    """
    if ell < 1:
        raise ValueError("cycle length must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    bits: dict[tuple[int, int], int] = {}
    vectors: dict[Coords, int] = {}
    built: dict[tuple[int, int], list[tuple[Coords, int]]] = {}

    def candidates(index: int, size: int) -> list[tuple[Coords, int]]:
        # (rotated residue, mask) per partition, built on first use.
        out = built.get((index, size))
        if out is None:
            out = built[index, size] = []
            for parts, shifted in _component_candidates(ell, index, size):
                mask = 0
                for top, length in _component_classes(ell, index, parts):
                    bit = bits.get((top, length))
                    if bit is None:
                        coords = _string_coords(top, length, ell)
                        bit = vectors.setdefault(coords, 1 << len(vectors))
                        bits[top, length] = bit
                    mask |= bit
                out.append((shifted, mask))
        return out

    # remaining residue -> mask -> number of partial labels
    states: dict[Coords, dict[int, int]] = {}
    target = n * delta(ell)
    for lam_size in range(n * ell + 1):
        for parts in partitions_of(lam_size):
            rest = target - residue(_interned_partition(parts), ell)
            if rest.is_nonnegative():
                masks = states.setdefault(rest.coords, {0: 0})
                masks[0] += 1
    for index in range(ell - 1):
        folded: dict[Coords, dict[int, int]] = {}
        for remaining, masks in states.items():
            for size in range(sum(remaining) + 1):
                for shifted, part_mask in candidates(index, size):
                    rest = tuple(r - s for r, s in zip(remaining, shifted))
                    if min(rest) < 0:
                        continue
                    into = folded.setdefault(rest, {})
                    for mask, count in masks.items():
                        mask |= part_mask
                        into[mask] = into.get(mask, 0) + count
        states = folded
    closing: dict[int, dict[Coords, list[int]]] = {}
    groups: dict[int, int] = {}
    for remaining, masks in states.items():
        size = sum(remaining)
        by_residue = closing.get(size)
        if by_residue is None:
            by_residue = closing[size] = {}
            for shifted, part_mask in candidates(ell - 1, size):
                by_residue.setdefault(shifted, []).append(part_mask)
        for part_mask in by_residue.get(remaining, ()):
            for mask, count in masks.items():
                mask |= part_mask
                groups[mask] = groups.get(mask, 0) + count
    # Cached and shared by every caller, so the class bits are read-only.
    return tuple(vectors), MappingProxyType(bits), tuple(groups.items())


def _non_integral_mask(vectors: tuple[Coords, ...], chi: RationalCharacter) -> int:
    """Bit k set exactly when chi pairs non-integrally with vectors[k]."""
    # Over the common denominator d of chi the pairing is integral iff the
    # integer pairing with d*chi is divisible by d.
    d = lcm(*(v.denominator for v in chi.values))
    scaled = [v.numerator * (d // v.denominator) for v in chi.values]
    mask = 0
    for k, coords in enumerate(vectors):
        if sum(a * c for a, c in zip(scaled, coords)) % d:
            mask |= 1 << k
    return mask


def _monodromic_flags(n: int, ell: int, chi: RationalCharacter) -> list[bool]:
    """Per label of enumerate_orbits(n, ell): does it admit a chi-monodromic system?"""
    if chi.ell != ell:
        raise ValueError(f"character has {chi.ell} entries, expected {ell}")
    vectors, bits, _ = _string_class_table(n, ell)
    bad = _non_integral_mask(vectors, chi)
    masks: dict[tuple[int, tuple[int, ...]], int] = {}  # per placed component
    flags = []
    for label in enumerate_orbits(n, ell):
        mask = 0
        for index, comp in enumerate(label.nu.components):
            key = index, comp.parts
            part_mask = masks.get(key)
            if part_mask is None:
                part_mask = 0
                for cls in _component_classes(ell, index, comp.parts):
                    part_mask |= bits[cls]
                masks[key] = part_mask
            mask |= part_mask
        flags.append(not mask & bad)
    return flags


def enumerate_Q_chi(
    n: int, ell: int, chi: RationalCharacter
) -> list[OrbitLabel]:
    """The labels admitting a chi-monodromic local system.

    Its length is the number of simple objects of the admissible category
    at the character chi.
    """
    flags = _monodromic_flags(n, ell, chi)
    return list(compress(enumerate_orbits(n, ell), flags))


def count_Q_chi(n: int, ell: int, chi: RationalCharacter) -> int:
    """len(enumerate_Q_chi(...)), from the string-class table, listing no label."""
    if chi.ell != ell:
        raise ValueError(f"character has {chi.ell} entries, expected {ell}")
    vectors, _, groups = _string_class_table(n, ell)
    bad = _non_integral_mask(vectors, chi)
    return sum(count for mask, count in groups if not mask & bad)
