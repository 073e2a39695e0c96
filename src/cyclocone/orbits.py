"""Orbit labels of the enhanced cyclic nilpotent cone.

A label is a pair (lambda; nu) of a partition and an ell-multipartition whose
residues add up to n*delta.  Each row of each nu component contributes one
string summand; the framed summand absorbs lambda.  Row j >= 1 of component
i >= 0, of length l, is fixed up to isomorphism by its string class

    (top, length) = (i + j - 1 mod ell, l),

the content convention of `partitions`, which owns it; lambda is placed the
same way at index 0.  String class (top, length) is bit (length - 1) * ell +
top of a class mask, top read as 0 when ell divides the length: one bit per
string vector.  The per-size `PlacedComponent` records that the label walk
and the table that counts labels per mask both read, the pi1 cache and the
pairing test share this numbering.  The fundamental group is the cokernel
Z^ell / L of the lattice L spanned by the string vectors of a label's mask,
the OR of its components', and a character admits a monodromic local system
on the orbit exactly when it pairs integrally with every vector of that mask.

The cokernel has a closed form.  This lemma is derived in this package (the
paper's own statement is not reproduced here); the tests check it against
the Smith normal form and against determinantal divisors.

    Z^ell / L = Z^(c-1) + Z/g, with Z/0 = Z,

where c and g are read off a graph on the vertices Z/ell.  Use the prefix
basis f_k = e_0 + ... + e_(k-1) of Z^ell, with f_0 = 0 and f_ell = delta,
extended to all integers k by f_(k+ell) = f_k + delta.  The string
(top, length) covers the vertices top, top-1, ..., top-length+1, so with
b = top + 1 and a = b - length its vector is f_b - f_a.  Writing
f_k = f_(k mod ell) + (k // ell)*delta, that is an edge from a mod ell to
b mod ell with voltage b // ell - a // ell.  Z^ell has the basis
f_1, ..., f_(ell-1), delta; give vertex v the generator f_v (f_0 = 0).
Each edge identifies its end with its start up to a multiple of delta, so
every vertex equals the root of its component plus a potential times delta,
and each cycle leaves its total voltage times delta in L.  What remains is
one generator per component, of which vertex 0's is zero, plus delta modulo
g, the gcd of the cycle voltages.  So c is the number of components and g
that gcd; at ell = 1 every string is a loop of voltage its length, giving
Z/gcd(nu), and with no string it is Z^ell.  A union-find with potentials
reads c and g off the bits of a mask in one pass.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property, lru_cache, reduce
from itertools import accumulate, chain
from math import gcd
from operator import or_, sub
from typing import Iterator, NamedTuple

from ._frozen import Frozen
from .abelian import FGAbelianGroup
from .params import RationalCharacter
from .partitions import (
    MultiPartition,
    Partition,
    _component_classes,
    _string_coords,
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


def _class_bit(top: int, length: int, ell: int) -> int:
    """The mask bit of the string class (top, length); a length that ell
    divides gives a multiple of delta whatever the top, so top is dropped."""
    return 1 << ((length - 1) * ell + (top if length % ell else 0))


class PlacedComponent:
    """A partition placed at vertex `index`: its residue rotated by the index
    (`shifted`) and the class bits of its rows (`mask`), all that both walks
    read.  A table row's texts, str(partition) and the "i:j:(v)" fragment of
    each row, are made on first read, so counting never makes them."""

    def __init__(self, partition: Partition, index: int, shifted: Coords, mask: int):
        self.partition = partition
        self.index = index
        self.shifted = shifted
        self.mask = mask

    @cached_property
    def text(self) -> str:
        return str(self.partition)

    def strings(self) -> list[tuple[int, int, str]]:
        """(index, row, vector text) per row: the one derivation of the
        summand texts of a table row, in every format."""
        ell, index = len(self.shifted), self.index
        classes = _component_classes(ell, index, self.partition.parts)
        return [(index, j, _class_text(*c, ell)) for j, c in enumerate(classes, 1)]

    @cached_property
    def summands(self) -> str:
        return " ".join([f"{i}:{j}:{v}" for i, j, v in self.strings()])


Components = tuple[PlacedComponent, ...]


@lru_cache(maxsize=None)
def _class_text(top: int, length: int, ell: int) -> str:
    """The string vector of a class as DimVector.__str__ writes it."""
    return str(DimVector._trusted(_string_coords(top, length, ell)))


def _placed(
    ell: int, index: int, partition: Partition, base: Coords
) -> PlacedComponent:
    """`partition` placed at vertex `index`, given its residue `base` at
    vertex 0.  Placing a diagram at vertex i rotates every string vector, so
    the residue, by sigma^i; only the mask is derived per index."""
    classes = _component_classes(ell, index, partition.parts)
    mask = reduce(or_, (_class_bit(*c, ell) for c in classes), 0)
    return PlacedComponent(partition, index, base[-index:] + base[:-index], mask)


@lru_cache(maxsize=None)
def _placed_of_size(ell: int, index: int, size: int) -> Components:
    """The one cache of records: the partitions of `size` placed at `index`,
    in the order of partitions_of.  Vertex 0 makes the Partitions and their
    residues; every other index places those."""
    if index:
        vertex0 = _placed_of_size(ell, 0, size)
        return tuple(_placed(ell, index, c.partition, c.shifted) for c in vertex0)
    partitions = map(Partition, partitions_of(size))
    return tuple(_placed(ell, 0, p, residue(p, ell).coords) for p in partitions)


def _component_strings(comp: PlacedComponent) -> tuple[StringSummand, ...]:
    """The string summands of a record, one per row, from its index and parts."""
    ell, index = len(comp.shifted), comp.index
    classes = _component_classes(ell, index, comp.partition.parts)
    return tuple(
        StringSummand(index, j, DimVector._trusted(_string_coords(top, length, ell)))
        for j, (top, length) in enumerate(classes, 1)
    )


def _placed_nu(ell: int, nu: MultiPartition) -> Components:
    """The components of nu as records, built for one query and kept nowhere."""
    return tuple(_placed(ell, i, p, residue(p, ell).coords) for i, p in enumerate(nu))


def _strings(components: Components) -> tuple[StringSummand, ...]:
    return tuple(chain.from_iterable(map(_component_strings, components)))


def _orbit_label(lam: Partition, components: Components, n: int) -> OrbitLabel:
    nu = MultiPartition(comp.partition for comp in components)
    return OrbitLabel._trusted(lam, nu, n, len(components))


def decompose(label: OrbitLabel) -> SummandDecomposition:
    """Framed summand plus one string summand per row of each nu component."""
    framed = DimVector(residue(label.lam, label.ell).coords, framing=1)
    return SummandDecomposition(framed, _strings(_placed_nu(label.ell, label.nu)))


def _label_mask(label: OrbitLabel) -> int:
    return reduce(or_, (comp.mask for comp in _placed_nu(label.ell, label.nu)), 0)


def fundamental_group(label: OrbitLabel) -> FGAbelianGroup:
    """Cokernel of the matrix of string summand classes inside Z^ell.

    The framed summand is dropped, and the group depends only on the set of
    distinct string vectors, so it is computed once per mask, in closed
    form (see the module docstring).
    """
    return _class_set_pi1(label.ell, _label_mask(label))


@lru_cache(maxsize=None)
def _class_set_pi1(ell: int, mask: int) -> FGAbelianGroup:
    """Z^ell modulo the string vectors of a class mask, as Z^(c-1) + Z/g by
    the lemma of the module docstring: a union-find with potentials over
    the edges of the mask's bits.  `potential[v]` is the voltage from
    `parent[v]` to v; an edge inside a component closes a cycle, and its
    voltage goes into g."""
    parent = list(range(ell))
    potential = [0] * ell
    components, g = ell, 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        k = bit.bit_length() - 1
        b = k % ell + 1
        a = b - k // ell - 1
        # Walk both ends up to their roots, turning the edge's voltage into
        # the voltage from the root of a to the root of b.
        voltage = b // ell - a // ell
        ra, rb = a % ell, b % ell
        while parent[ra] != ra:
            voltage += potential[ra]
            ra = parent[ra]
        while parent[rb] != rb:
            voltage -= potential[rb]
            rb = parent[rb]
        if ra == rb:
            g = gcd(g, voltage)
        else:
            parent[rb] = ra
            potential[rb] = voltage
            components -= 1
    if g == 0:
        return FGAbelianGroup(components)
    return FGAbelianGroup(components - 1, (g,) if g > 1 else ())


def admits_monodromic_local_system(
    label: OrbitLabel, chi: RationalCharacter
) -> bool:
    """Whether chi pairs integrally with every string summand vector."""
    if chi.ell != label.ell:
        raise ValueError(
            f"character has {chi.ell} entries, label lives on a cycle "
            f"of length {label.ell}"
        )
    return not _non_integral_mask(label.ell, _label_mask(label), chi)


def _fits(ell: int, index: int, remaining: Coords, sizes) -> Iterator:
    """(record, rest) per placed record at `index` of the given sizes whose
    `shifted` residue fits under `remaining`, rest the residue left over.
    The one placement of a diagram on the cycle: lambda (index 0, so
    unrotated) and every nu component of both walks go through it.  A
    partition supply pruned by residue would replace _placed_of_size here."""
    for size in sizes:
        for comp in _placed_of_size(ell, index, size):
            rest = tuple(map(sub, remaining, comp.shifted))
            if min(rest) >= 0:
                yield comp, rest


def _steps(ell: int, index: int, remaining: Coords, memo: dict) -> tuple:
    """What nu component `index` can be, given the residue `remaining`: its
    _fits, memoized in `memo` by (index, remaining) for one walk.  The last
    component must take up `remaining` exactly, so its rest is zero.  Dead
    ends are dropped: memo[ell-1, rest] closes every step of component ell-2."""
    key = index, remaining
    found = memo.get(key)
    if found is not None:
        return found
    total = sum(remaining)
    sizes = range(total if index == ell - 1 else 0, total + 1)
    steps = _fits(ell, index, remaining, sizes)
    if index == ell - 2:
        steps = (step for step in steps if _steps(ell, ell - 1, step[1], memo))
    found = memo[key] = tuple(steps)
    return found


def _lambda_seeds(n: int, ell: int) -> Iterator:
    """(lambda as a record placed at index 0, residue left for nu) per
    lambda that fits under n*delta, in the order of enumerate_orbits.
    (n, ell) is checked when this is called, not when it is iterated."""
    if ell < 1:
        raise ValueError("cycle length must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _fits(ell, 0, (n,) * ell, range(n * ell, -1, -1))


def _fill(n: int, ell: int, root, push) -> Iterator[tuple]:
    """(lambda record, state, mask, closings) per lambda and prefix (nu
    components 0..ell-2), in enumeration order: state is push folded over
    the prefix from root, mask ORs its class masks, and each closing, a step
    of the last component, closes one label.  The one label walk: each depth
    of its explicit stack holds one component's _steps and the state and
    mask of the prefix before it, so each state is made once per push."""
    memo: dict = {}
    for seed, remaining in _lambda_seeds(n, ell):
        if ell == 1:
            yield seed, root, 0, _steps(ell, 0, remaining, memo)
            continue
        stack = [(iter(_steps(ell, 0, remaining, memo)), root, 0)]
        while stack:
            steps, parent, parent_mask = stack[-1]
            for comp, rest in steps:
                state, mask = push(parent, comp), parent_mask | comp.mask
                if len(stack) == ell - 1:
                    yield seed, state, mask, memo[ell - 1, rest]
                    continue
                stack.append((iter(_steps(ell, len(stack), rest, memo)), state, mask))
                break
            else:
                stack.pop()


def _fill_labels(
    n: int, ell: int, chi: RationalCharacter | None = None
) -> Iterator[tuple[Partition, Components, int, bool | None]]:
    """(lambda, nu components, class mask, chi-monodromic flag or None) per
    label of enumerate_orbits; the flag is computed once per mask."""
    if chi is not None and chi.ell != ell:
        raise ValueError(f"character has {chi.ell} entries, expected {ell}")
    flag = cache(lambda m: None if chi is None else not _non_integral_mask(ell, m, chi))
    for seed, head, mask, closings in _fill(n, ell, (), lambda h, c: (*h, c)):
        for closing, _ in closings:
            full = mask | closing.mask
            yield seed.partition, (*head, closing), full, flag(full)


@lru_cache(maxsize=None)
def enumerate_orbits(n: int, ell: int) -> tuple[OrbitLabel, ...]:
    """All orbit labels for the given (n, ell), in a fixed order.

    lambda runs through partition sizes n*ell down to 0 (descending), within
    a size in the standard partition order; nu components are then filled
    left to right against the complementary residue.  The labels with empty
    nu therefore come first.
    """
    labels = _fill_labels(n, ell)
    return tuple(_orbit_label(lam, comps, n) for lam, comps, _, _ in labels)


@lru_cache(maxsize=None)
def _string_class_table(n: int, ell: int) -> tuple[int, int, dict[int, int]]:
    """The labels of (n, ell) counted per class mask.

    Returns (ell, union of the masks, {mask: count}); the dict is shared by
    every caller and must not be changed.  A group counts the labels whose
    string vectors are exactly the bits of its mask, in the numbering of
    _class_bit, so per character only the bits of the union need a pairing
    test, and counting reads the groups instead of the labels.

    No label is built.  The table folds over the label walk's component
    steps (_steps, reading the records' residues and masks only), keeping
    (remaining residue, mask) -> number of partial labels: the lambda seeds
    start it, and each nu component in turn moves every state to the rests
    of its steps, until only the zero residue is left.
    """
    seeds = Counter(rest for _, rest in _lambda_seeds(n, ell))
    states = {rest: {0: count} for rest, count in seeds.items()}
    memo: dict = {}
    for index in range(ell):
        folded: dict[Coords, dict[int, int]] = {}
        for remaining, masks in states.items():
            for comp, rest in _steps(ell, index, remaining, memo):
                into = folded.setdefault(rest, {})
                for mask, count in masks.items():
                    mask |= comp.mask
                    into[mask] = into.get(mask, 0) + count
        states = folded
    groups = states.get((0,) * ell, {})
    return ell, reduce(or_, groups, 0), groups


def _non_integral_mask(ell: int, mask: int, chi: RationalCharacter) -> int:
    """The bits of a class mask whose string vectors chi pairs with
    non-integrally: chi admits a monodromic local system on a label's orbit
    exactly when this is 0 for the label's mask.

    Over the common denominator d of chi, with c = d*chi and S = sum(c), the
    string (top, length) of bit k pairs with c as (length // ell)*S plus the
    cyclic window of length % ell entries of c ending at top.  Prefix sums
    over c written twice give every such window as one difference.
    """
    d, scaled = chi.common_denominator()
    prefix = [0, *accumulate(scaled * 2)]
    total = prefix[ell]
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        k = bit.bit_length() - 1
        laps, width = divmod(k // ell + 1, ell)
        end = k % ell + ell + 1
        if (laps * total + prefix[end] - prefix[end - width]) % d:
            out |= bit
    return out


def enumerate_Q_chi(
    n: int, ell: int, chi: RationalCharacter
) -> list[OrbitLabel]:
    """The labels admitting a chi-monodromic local system.

    Its length is the number of simple objects of the admissible category
    at the character chi.  Only those labels are built.
    """
    rows = _fill_labels(n, ell, chi)
    return [_orbit_label(lam, comps, n) for lam, comps, _, flag in rows if flag]


def count_Q_chi(n: int, ell: int, chi: RationalCharacter) -> int:
    """len(enumerate_Q_chi(...)), from the string-class table, listing no label.

    A group counts iff its mask lies inside the good bits, those of the
    union that chi pairs with integrally.  With few good bits the counts of
    their submasks are summed, otherwise the groups are walked.
    """
    if chi.ell != ell:
        raise ValueError(f"character has {chi.ell} entries, expected {ell}")
    _, union, groups = _string_class_table(n, ell)
    good = union & ~_non_integral_mask(ell, union, chi)
    if 1 << good.bit_count() < len(groups):
        return _count_submasks(groups, good)
    return _count_walk(groups, good)


def _count_submasks(groups: dict[int, int], good: int) -> int:
    """The counts of the groups whose mask lies inside good, looked up for
    each of the 2**good.bit_count() submasks of good."""
    total, sub = 0, good
    while True:
        total += groups.get(sub, 0)
        if not sub:
            return total
        sub = (sub - 1) & good


def _count_walk(groups: dict[int, int], good: int) -> int:
    """The counts of the groups whose mask lies inside good, group by group."""
    bad = ~good
    return sum([count for mask, count in groups.items() if not mask & bad])
