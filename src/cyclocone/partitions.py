"""Partitions, multipartitions and cyclic residues.

The residue of a diagram counts its boxes by content modulo ell, the box
in row j and position i within the row having content j - i: the first box
of row j has content j - 1 and contents decrease along a row.

This module owns that content convention: a diagram placed at cycle vertex
`index` has the string class (index + j - 1 mod ell, length) per row j, and
every residue, of lambda (index 0), of a shifted nu or of a placed component
in `orbits`, is the sum of the string vectors of those classes.

`partitions_of` lists the partitions of one size in descending
lexicographic order on the part tuples, e.g. for size four: [4], [3,1],
[2,2], [2,1,1], [1,1,1,1]; the label walks read them in that order, which
keeps reports byte-stable.  `count_multipartitions` counts the
ell-multipartitions of n from their generating function and lists none of
them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add
from typing import Iterable, Iterator

from ._frozen import Frozen
from .rootlattice import DimVector


class Partition(Frozen):
    """A weakly decreasing tuple of positive integers (possibly empty)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for k in range(len(parts)):
            if parts[k] < 1:
                raise ValueError(f"parts must be positive: {parts!r}")
            if k + 1 < len(parts) and parts[k] < parts[k + 1]:
                raise ValueError(f"parts must be weakly decreasing: {parts!r}")
        self._assign(parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    @classmethod
    def parse(cls, text: str) -> Partition:
        """Parse the bracket syntax, e.g. `[2,1]` or `[]`."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"malformed partition: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return cls(())
        return cls(tuple(int(tok) for tok in inner.split(",")))


class MultiPartition(Frozen):
    """A fixed-length tuple of partitions, one per cycle vertex."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Partition]):
        components = tuple(components)
        if not components:
            raise ValueError("a multipartition needs at least one component")
        for comp in components:
            if not isinstance(comp, Partition):
                raise TypeError(f"expected Partition, got {type(comp).__name__}")
        self._assign(components)

    @property
    def ell(self) -> int:
        return len(self.components)

    @property
    def size(self) -> int:
        return sum(comp.size for comp in self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.components)

    def __getitem__(self, index: int) -> Partition:
        return self.components[index]

    def __repr__(self) -> str:
        return f"MultiPartition({list(self.components)!r})"

    def __str__(self) -> str:
        return ";".join(str(comp) for comp in self.components)

    @classmethod
    def parse(cls, text: str, ell: int | None = None) -> MultiPartition:
        """Parse the semicolon syntax, e.g. `[2];[]` for two components."""
        comps = tuple(Partition.parse(tok) for tok in text.strip().split(";"))
        if ell is not None and len(comps) != ell:
            raise ValueError(
                f"expected {ell} components, got {len(comps)} in {text!r}"
            )
        return cls(comps)


def _component_classes(
    ell: int, index: int, parts: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """(top, length) of every row of a diagram placed at vertex `index`."""
    # Row j of a diagram carries contents j-1 down to j-length; the placement
    # shifts them by the index.  Keeping the within-diagram content shift is
    # what makes the residues of a label close up to n*delta.
    return tuple(
        ((index + j - 1) % ell, length) for j, length in enumerate(parts, start=1)
    )


@lru_cache(maxsize=None)
def _string_coords(top: int, length: int, ell: int) -> tuple[int, ...]:
    coords = [0] * ell
    for step in range(length):
        coords[(top - step) % ell] += 1
    return tuple(coords)


def _rotated_residue(ell: int, classes: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The residue of a placed diagram rotated by its index: the sum of the
    string vectors of its rows."""
    coords = [0] * ell
    for top, length in classes:
        coords = list(map(add, coords, _string_coords(top, length, ell)))
    return tuple(coords)


def residue(lam: Partition, ell: int) -> DimVector:
    """Count boxes by content modulo ell; coordinate sum equals the size."""
    if ell < 1:
        raise ValueError("cycle length must be positive")
    return DimVector(_rotated_residue(ell, _component_classes(ell, 0, lam.parts)))


def shifted_residue(nu: MultiPartition, ell: int) -> DimVector:
    """Sum of the component residues, the i-th rotated by sigma^i."""
    if ell < 1:
        raise ValueError("cycle length must be positive")
    if nu.ell != ell:
        raise ValueError(f"expected {ell} components, got {nu.ell}")
    classes = chain.from_iterable(
        _component_classes(ell, i, comp.parts) for i, comp in enumerate(nu)
    )
    return DimVector(_rotated_residue(ell, classes))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """Part tuples of all partitions of n, in descending lexicographic order."""
    if n < 0:
        raise ValueError("partition size must be nonnegative")
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    cur = [n]
    while True:
        out.append(tuple(cur))
        k = len(cur) - 1
        while k >= 0 and cur[k] == 1:
            k -= 1
        if k < 0:
            break
        rem = len(cur) - k  # the trailing ones, plus one from the decrement
        cur[k] -= 1
        cap = cur[k]
        del cur[k + 1 :]
        while rem > 0:
            take = min(cap, rem)
            cur.append(take)
            rem -= take
    return tuple(out)


@lru_cache(maxsize=None)
def count_multipartitions(n: int, ell: int) -> int:
    """Size of the set of ell-multipartitions of n, listing none of them.

    The generating function is the product over k of (1 - x^k)^(-ell); each
    factor 1/(1 - x^k) is multiplied in place, ascending.
    """
    if ell < 1:
        raise ValueError("cycle length must be positive")
    if n < 0:
        raise ValueError("total size must be nonnegative")
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(ell):
            for m in range(k, n + 1):
                counts[m] += counts[m - k]
    return counts[n]
