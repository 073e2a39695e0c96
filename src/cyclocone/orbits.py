"""Orbit labels of the enhanced cyclic nilpotent cone.

A label is a pair (lambda; nu) of a partition and an ell-multipartition whose
residues add up to n*delta.  Each row of each nu component contributes one
string summand; the framed summand absorbs lambda.  Row j >= 1 of component
i >= 0, of length l, is fixed up to isomorphism by its string class

    (top, length) = (i + j - 1 mod ell, l),

the content convention of `partitions`, which owns it; lambda is placed the
same way at index 0.  String class (top, length) is bit (length - 1) * ell +
top of a class mask, top read as 0 when ell divides the length: one bit per
string vector.  A `PlacedComponent` record holds a partition, its index,
ell and the class mask of its rows, nothing more, and equals any record
of the same three.  Each step graph makes its own records once (_placed),
beside their residues, packed ints, both summed and ORed from tables of
every class's packed vector and bit; no process-wide cache keeps them.
The records, the pi1 cache and the pairing test share this numbering.  A
query on one label (decompose, fundamental_group and
admits_monodromic_local_system) reads its rows' classes in one pass
(_label_classes) and builds no record.

The label walk (_fill) and the table that counts labels per mask
(_string_class_table) read one step graph (_step_graph) of those records:
a layer for lambda and one per nu component, each a dict from a packed
residue left to its (record, residue left) steps; a record fits under a
residue by one subtraction and one test (_fits).  The last nu component
must take exactly the residue left, so its steps come from one dict of
its records keyed by their own residue, and no residue the component
before it leaves that no record matches is kept.  The table folds the
graph from the last layer back, and a residue whose first step is the
empty component starts its counts as a copy of the counts that step
leaves.  At a character the walk's graph makes no nu record with a bit
that chi pairs with non-integrally (_bad_bits), so it meets the labels
of Q_chi and no other; chi's length is checked where it is scaled, by
`RationalCharacter.common_denominator(ell)`.
In the bit numbering one more lap of a string is ell**2 bits up, so the
pairing test reads a mask a window at a time (_window_plan).

The fundamental group is the cokernel Z^ell / L of the lattice L spanned
by the string vectors of a label's mask, the OR of its components', and a
character admits a monodromic local system on the orbit exactly when it
pairs integrally with every vector of that mask.

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
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import gcd
from operator import attrgetter, getitem, or_
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ._frozen import Frozen
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

if TYPE_CHECKING:  # pragma: no cover
    from .abelian import FGAbelianGroup
    from .params import RationalCharacter

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
    """A partition placed at vertex `index` of the cycle of length `ell`, with
    the class bits of its rows (`mask`), all a walk reads of it, equal to
    a record of the same partition, index and ell; its packed residue sits
    beside it in one graph's _placed lists.  A row's texts, str(partition)
    and the "i:j:(v)" fragment of each row, are made on first read, so
    counting never makes them."""

    def __init__(self, partition: Partition, index: int, ell: int, mask: int):
        self.partition = partition
        self.index = index
        self.ell = ell
        self.mask = mask

    def __eq__(self, other):
        key = _record_key
        return type(other) is PlacedComponent and key(self) == key(other)

    def __hash__(self):
        return hash(_record_key(self))

    @cached_property
    def text(self) -> str:
        return str(self.partition)

    def strings(self) -> list[tuple[int, int, str]]:
        """(index, row, vector text) per row: the one derivation of the
        summand texts of a table row, in every format."""
        ell, index = self.ell, self.index
        classes = _component_classes(ell, index, self.partition.parts)
        return [(index, j, _class_text(*c, ell)) for j, c in enumerate(classes, 1)]

    @cached_property
    def summands(self) -> str:
        return " ".join([f"{i}:{j}:{v}" for i, j, v in self.strings()])


_record_key = attrgetter("partition", "index", "ell")


@lru_cache(maxsize=None)
def _class_text(top: int, length: int, ell: int) -> str:
    """The string vector of a class as DimVector.__str__ writes it."""
    return str(DimVector._trusted(_string_coords(top, length, ell), 0))


def _orbit_label(lam: Partition, components: tuple, n: int) -> OrbitLabel:
    # The walk guarantees the residue identity; it is not re-derived.
    nu = MultiPartition(comp.partition for comp in components)
    return OrbitLabel._trusted(lam, nu, n, len(components))


def _label_classes(ell: int, nu) -> Iterator[tuple]:
    """(index, row, top, length) per row of each of the nu components, in
    component and row order: the one pass over a label's rows for a query
    on one label or one table row, which builds no record."""
    for index, partition in enumerate(nu):
        classes = _component_classes(ell, index, partition.parts)
        for row, (top, length) in enumerate(classes, 1):
            yield index, row, top, length


def _string_summands(ell: int, nu) -> tuple[StringSummand, ...]:
    """One string summand per row of each of the nu components, the
    summands of decompose and of a table row."""
    return tuple(
        StringSummand(
            index, row, DimVector._trusted(_string_coords(top, length, ell), 0)
        )
        for index, row, top, length in _label_classes(ell, nu)
    )


def decompose(label: OrbitLabel) -> SummandDecomposition:
    """Framed summand plus one string summand per row of each nu component."""
    framed = DimVector(residue(label.lam, label.ell).coords, framing=1)
    return SummandDecomposition(framed, _string_summands(label.ell, label.nu))


def _label_mask(label: OrbitLabel) -> int:
    ell = label.ell
    bits = [
        _class_bit(top, length, ell)
        for _, _, top, length in _label_classes(ell, label.nu)
    ]
    return reduce(or_, bits, 0)


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
    from .abelian import FGAbelianGroup

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
    return not _label_mask(label) & _bad_bits(label.n, label.ell, chi)


def _pack(coords: tuple[int, ...], width: int) -> int:
    """A residue as one int: coordinate v in the `width` bits from v*width."""
    return sum([c << v * width for v, c in enumerate(coords)])


def _placed(ell: int, largest: int, width: int, bad: int) -> list[list[tuple]]:
    """The records of one step graph: per layer, lambda then nu components
    0..ell-1, the (packed residues, records) pair of each size 0..largest
    in the order of partitions_of, residues packed at `width` bits a vertex
    as _fits reads them.  Lambda, whose classes are no part of a label's
    mask, keeps every record; no nu record's mask meets `bad`.

    Row j at index i has the string class (i + j - 1 mod ell, length), so a
    mask ORs its rows' bits[top][length] and a residue sums their packed
    vectors[top][length], 0 for length 0 (no row).  A size's Partitions,
    trusted since partitions_of gives their parts, and their residues at
    index 0 serve every index: at index i a residue is rotated by sigma^i,
    i fields up modulo 2**(ell*W) - 1 (no residue fills every bit).  At
    i >= 1 a record is made only if its mask misses `bad`; index 0's are
    made once, all for lambda and those that miss `bad` for component 0."""
    lengths = range(1, largest + 1)
    vectors = [
        [0] + [_pack(_string_coords(top, k, ell), width) for k in lengths]
        for top in range(ell)
    ]
    bits = [[0] + [_class_bit(top, k, ell) for k in lengths] for top in range(ell)]
    full = (1 << ell * width) - 1
    scans = [[] for _ in range(ell + 1)]
    for size in range(largest + 1):
        rows = [vectors[j % ell] for j in range(size)]
        partitions = [Partition._trusted(parts) for parts in partitions_of(size)]
        unrotated = [sum(map(getitem, rows, p.parts)) for p in partitions]
        for index, scan in enumerate(scans[1:]):
            tops = [bits[(index + j) % ell] for j in range(size)]
            whole, kept = ([], []), ([], [])
            for packed, partition in zip(unrotated, partitions):
                mask = reduce(or_, map(getitem, tops, partition.parts), 0)
                if index and mask & bad:
                    continue
                packed = (packed << index * width) % full
                comp = PlacedComponent(partition, index, ell, mask)
                if not index:
                    whole[0].append(packed)
                    whole[1].append(comp)
                if not mask & bad:
                    kept[0].append(packed)
                    kept[1].append(comp)
            if not index:
                scans[0].append(whole)
            scan.append(kept)
    return scans


def _fits(remaining: int, pairs, guard: int) -> Iterator:
    """(record, rest) per record of the (packed residues, records) pairs
    given, in their order, whose residue fits under `remaining`, rest the
    residue left over, all packed at W bits a vertex with every coordinate
    below 2**(W - 1) and `guard` the top bit of every field; yielded as
    found, so a caller keeps no list of fits beside the steps it makes of
    them.  The one placement of a diagram on the cycle, with no filter:
    _step_graph scans lambda (index 0, so unrotated) and nu components
    0..ell-2 through it, and keys the last component's records that fit
    under n*delta by it once.

    In (remaining | guard) less the packed record a field keeps its guard
    bit iff the record's coordinate is at most the remaining one, and no
    field borrows from the one above, so the record fits iff every guard
    bit is left, and clearing them leaves the rest: one subtraction and one
    test per record."""
    top = remaining | guard
    return (
        (comp, rest ^ guard)
        for residues, records in pairs
        for packed, comp in zip(residues, records)
        if (rest := top - packed) & guard == guard
    )


def _step_graph(n: int, ell: int, bad=0) -> list[dict]:
    """The labels' steps as layers keyed by packed residue: layers[0] maps
    n*delta to [(lambda record, residue left)], in the order of
    enumerate_orbits, and layers[i + 1] maps each residue left before nu
    component i to [(record of component i, residue left)].  Every key is
    reached from n*delta and has a step, and every residue left is a key
    of the next layer (0 after the last), so no walk meets a dead end.  No
    nu record whose mask meets `bad` is made (_placed).

    Built with no recursion.  The last component must take exactly the
    residue left, so it is matched by residue, not scanned: its records that
    fit under n*delta are keyed once by their own residue, each key's steps
    in the order of partitions_of since a residue fixes the size.  Lambda
    and every other nu component are scanned (_fits) under each residue
    reached, and their kept fits go forward, each residue left interned in
    the next layer's keys; the layer before the last keeps only the fits
    whose residue left is a key of that dict, and the last layer is the
    dict on the residues reached, in the order reached.  Then each other
    layer is rebuilt from the last back keeping only the steps whose
    residue left the rebuilt layer after it keeps.  Residues are packed
    ints (_pack) of W = (n*ell).bit_length() + 1 bits a vertex: no
    coordinate exceeds n*ell < 2**(W - 1), which _fits' guard bits need."""
    if ell < 1:
        raise ValueError("cycle length must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    width = (n * ell).bit_length() + 1
    unit = _pack((1,) * ell, width)
    low, start, guard = (1 << width) - 1, n * unit, unit << width - 1
    # Lambda scans sizes n*ell down; the last component is keyed by residue.
    scans = _placed(ell, n * ell, width, bad)
    scans[0].reverse()
    exact = {}
    for comp, rest in _fits(start, scans.pop(), guard):
        exact.setdefault(start - rest, []).append((comp, 0))
    layers, residues = [], [start]
    for depth, pairs in enumerate(scans):
        layer, following = {}, {}
        intern = following.setdefault
        keep_all = depth < ell - 1
        for remaining in residues:
            # A nu component scans the sizes up to the size left, the
            # coordinate sum: 2**W = 1 modulo low = 2**W - 1, so the packed
            # residue is that sum modulo low, and the sum is at most
            # n*ell < 2**(W - 1) < low, so it is its own rest; lambda scans
            # them all.
            layer[remaining] = [
                (comp, intern(rest, rest))
                for comp, rest in _fits(
                    remaining, pairs[: remaining % low + 1], guard
                )
                if keep_all or rest in exact
            ]
        layers.append(layer)
        residues = following
    layers.append(kept := {rest: exact[rest] for rest in residues})
    for index in reversed(range(ell)):
        layers[index] = kept = {
            remaining: live
            for remaining, steps in layers[index].items()
            if (live := [step for step in steps if step[1] in kept])
        }
    return layers


def _fill(n: int, ell: int, root, push, close, bad=0) -> Iterator[tuple]:
    """(lambda record, state, mask, suffixes) per lambda and prefix (nu
    components 0..k-1, k = max(ell - 2, 0)) of the labels whose mask misses
    `bad`, in enumeration order: state is push folded over the prefix from
    root, mask ORs its class masks, and suffixes, close() of _suffixes of
    the residue the prefix leaves, the ways to finish the label, is never
    empty.  Suffixes are built on a residue's first visit and shared by
    every prefix that leaves it.  The one label walk: a stack of
    (depth, residue, state, mask) over the layers of
    _step_graph(n, ell, bad), so each state is made once per push and no
    depth recurses."""
    layers = _step_graph(n, ell, bad)
    # Stop at the layer of component k: ell = 1, or the next is the last.
    stop, built = max(ell - 1, 1), {}
    [lambdas] = layers[0].values()
    for seed, rest in lambdas:
        stack = [(1, rest, root, 0)]
        while stack:
            depth, remaining, state, mask = stack.pop()
            if depth == stop:
                if remaining not in built:
                    built[remaining] = close(
                        _suffixes(layers[stop:], remaining, root, push)
                    )
                yield seed, state, mask, built[remaining]
                continue
            stack += [
                (depth + 1, rest, push(state, comp), mask | comp.mask)
                for comp, rest in reversed(layers[depth][remaining])
            ]


def _suffixes(tail: list[dict], remaining: int, root, push) -> list[tuple]:
    """(state, mask) per way to place the components of the last one or two
    layers (`tail`) from the residue `remaining`, in walk order: state is
    push folded over them from root, mask ORs theirs."""
    out = []
    for comp, rest in tail[0][remaining]:
        state, mask = push(root, comp), comp.mask
        if len(tail) == 1:
            out.append((state, mask))
        else:
            out += [(push(state, last), mask | last.mask) for last, _ in tail[1][rest]]
    return out


def _fill_labels(n: int, ell: int, bad=0) -> Iterator[tuple]:
    """(lambda, nu components, class mask) per label of enumerate_orbits
    whose mask misses `bad`, read off _fill over the filtered step graph."""
    walk = _fill(n, ell, (), lambda h, c: (*h, c), lambda tails: tails, bad)
    for seed, head, mask, tails in walk:
        for tail, tail_mask in tails:
            yield seed.partition, head + tail, mask | tail_mask


@lru_cache(maxsize=None)
def enumerate_orbits(n: int, ell: int) -> tuple[OrbitLabel, ...]:
    """All orbit labels for the given (n, ell), in a fixed order.

    lambda runs through partition sizes n*ell down to 0 (descending), within
    a size in the standard partition order; nu components are then filled
    left to right against the complementary residue.  The labels with empty
    nu therefore come first.
    """
    labels = _fill_labels(n, ell)
    return tuple(_orbit_label(lam, comps, n) for lam, comps, _ in labels)


@lru_cache(maxsize=None)
def _string_class_table(n: int, ell: int) -> tuple[int, int, dict[int, int]]:
    """The labels of (n, ell) counted per class mask: (ell, union of the
    masks, {mask: count}), the dict shared by every caller and not to be
    changed.  A group counts the labels whose string vectors are exactly
    the bits of its mask, so per character only the union's bits need a
    pairing test, and counting reads the groups, not the labels.

    No label is built.  The layers of _step_graph are folded from the last
    one back: each residue of a nu layer gets {mask: ways to finish from
    it}, merged over its steps from the dicts of the residues they leave
    (0, after the last layer, counts as {0: 1}), each layer dropped once
    folded; then the dict of each residue lambdas leave is summed times
    their number and dropped.  A step of mask 0 met while a residue's dict
    is still empty, the empty component (the only record of mask 0, first
    in its layer's order when kept), starts the dict as a copy of the dict
    it leaves instead of merging into it.  That holds at most residues of
    every nu layer but the last: at (4,4), 262 of the 361 residues of
    components 0-2, whose copies stand for 9,400 of 75,200 merges."""
    layers = _step_graph(n, ell)
    done = {0: {0: 1}}
    while len(layers) > 1:
        counts = {}
        for remaining, steps in layers.pop().items():
            into = {}
            for comp, rest in steps:
                mask = comp.mask
                if not (into or mask):
                    into = done[rest].copy()
                    continue
                for m, count in done[rest].items():
                    m |= mask
                    into[m] = into.get(m, 0) + count
            counts[remaining] = into
        done = counts
    [placed] = layers.pop().values()
    groups = {}
    for rest, count_lambdas in Counter([rest for _, rest in placed]).items():
        for mask, count in done.pop(rest).items():
            groups[mask] = groups.get(mask, 0) + count * count_lambdas
    return ell, reduce(or_, groups, 0), groups


@lru_cache(maxsize=None)
def _window_plan(ell: int, mask: int) -> tuple[tuple[int, ...], tuple]:
    """(spreads, windows) of a class mask for pairing its string vectors
    with c = d*chi.  Bit k = laps*ell**2 + shift, shift = (w - 1)*ell + top
    with 1 <= w <= ell, is the string (top, laps*ell + w): laps*delta plus
    the cyclic window of the w entries of c ending at top, prefix[end] -
    prefix[start] over the prefix sums of c written twice, end = top +
    ell + 1 and start = end - w.  So a window's bits are the comb of laps
    spreads[m] = 1 << m*ell**2 shifted, and a window is (start, end, shift,
    its bits of the mask), for the few masks that come here: a table's
    union and the class range of an (n, ell)."""
    square = ell * ell
    spreads = tuple(1 << m * square for m in range(-(-mask.bit_length() // square)))
    windows = []
    for shift in range(square):
        if bits := mask & sum(spreads) << shift:
            end = shift % ell + ell + 1
            windows.append((end - shift // ell - 1, end, shift, bits))
    return spreads, tuple(windows)


def _non_integral_mask(ell: int, mask: int, d: int, scaled) -> int:
    """The bits of a class mask whose string vectors chi pairs with
    non-integrally, from d, c = scaled = d*chi (d the common denominator)
    and the mask's _window_plan: the one pairing test of counting, listing
    and the monodromic flags.  m*sum(c) + window is divisible by d for the
    laps m with -m*sum(c) = window mod d, so one table from -m*sum(c) mod d
    to those laps' spreads gives a window's good bits by one lookup."""
    spreads, windows = _window_plan(ell, mask)
    prefix = [0, *accumulate(scaled * 2)]
    total = prefix[ell]
    solved, r = {}, 0
    for spread in spreads:
        solved[r] = solved.get(r, 0) | spread
        r = (r - total) % d
    get = solved.get
    return mask ^ sum(
        [
            bits & get((prefix[end] - prefix[start]) % d, 0) << shift
            for start, end, shift, bits in windows
        ]
    )


def _bad_bits(n: int, ell: int, chi: RationalCharacter) -> int:
    """The bits of every string class a label of (n, ell) can have (a row
    is at most n*ell long, so its bit is below n*ell*ell) that chi pairs
    with non-integrally.  Each bit is decided on its own, so a label admits
    a chi-monodromic local system exactly when its mask has none."""
    full = (1 << max(n, 0) * ell * ell) - 1
    return _non_integral_mask(ell, full, *chi.common_denominator(ell))


def enumerate_Q_chi(
    n: int, ell: int, chi: RationalCharacter
) -> list[OrbitLabel]:
    """The labels admitting a chi-monodromic local system.

    Its length is the number of simple objects of the admissible category
    at the character chi.  The walk meets only these labels: its step
    graph makes no nu record with a bit of _bad_bits."""
    rows = _fill_labels(n, ell, _bad_bits(n, ell, chi))
    return [_orbit_label(lam, comps, n) for lam, comps, _ in rows]


def count_Q_chi(n: int, ell: int, chi: RationalCharacter) -> int:
    """len(enumerate_Q_chi(...)), from the string-class table, listing no label.

    A group counts iff its mask lies inside the good bits, those of the
    union that chi pairs with integrally.  With k good bits and G groups,
    the 2**k submasks of the good bits are looked up when
    2**k <= 32 + G // 160; otherwise the bit-sliced index (_sliced_index,
    built on the first such call) counts in a few big-int operations per
    window and count bit.  A submask sum costs about 0.05-0.1 us a probe,
    a sliced count a few us plus a part that grows with G, hence the two
    terms.  In-process (Python 3.11, 2 vCPUs, medians of 40 characters per
    k), the rule sums submasks up to k = 5 below G = 5,120 (2.4-3.2 against
    3.8-6.9 us sliced from (2,3) to (3,4)); up to k = 6 at (4,4), G = 6,090
    (4.3 against 10.2 us; 12.3 against 10.8 us at k = 7); up to k = 7 at
    (5,4), G = 24,056 (13 against 20 us; 26 against 21 us at k = 8); and up
    to k = 8 at (4,5), (3,6) and (2,8), G = 62,407, 55,501 and 47,582 (24-26
    against 39-43 us; 49-53 against 39-44 us at k = 9).
    """
    return _count_Q_chi(n, ell, *chi.common_denominator(ell))


def _count_Q_chi(n: int, ell: int, d: int, scaled) -> int:
    """count_Q_chi at the character scaled / d, d its common denominator,
    for a caller that already holds both."""
    _, union, groups = _string_class_table(n, ell)
    bad = _non_integral_mask(ell, union, d, scaled)
    good = union ^ bad
    if 1 << good.bit_count() <= 32 + len(groups) // 160:
        return _count_submasks(groups, good)
    return _count_sliced(_sliced_index(n, ell), bad)


def _count_submasks(groups: dict[int, int], good: int) -> int:
    """The counts of the groups whose mask lies inside good, looked up for
    each of the 2**good.bit_count() submasks of good."""
    total, sub = 0, good
    while True:
        total += groups.get(sub, 0)
        if not sub:
            return total
        sub = (sub - 1) & good


def _transpose(values: list[int], width: int) -> list[int]:
    """One int per bit j < width, whose bit len(values) - 1 - i is bit j of
    values[i]: each block of values is written as one binary text, "0b1"
    and the width bits of each (bin() with a bit set above them, twice as
    fast as format()), and every column is a strided slice of it, parsed
    by int(., 2)."""
    top, stride = 1 << width, width + 3
    columns = [0] * width
    for start in range(0, len(values), 1 << 16):
        block = values[start : start + (1 << 16)]
        text = "".join(map(bin, map(top.__or__, block)))
        for j, column in enumerate(columns):
            columns[j] = column << len(block) | int(text[stride - 1 - j :: stride], 2)
    return columns


@lru_cache(maxsize=None)
def _sliced_index(n: int, ell: int) -> tuple[int, tuple, tuple[int, ...]]:
    """The string-class table of (n, ell) sliced by bits, each group one bit
    position in every int: (the number of labels, per window of the
    union's _window_plan (its bits, the groups whose mask meets them,
    (bit, the groups whose mask has it) per bit), per count bit j the
    groups whose count has it).  Groups sit by falling count from bit 0
    up, so the high count bits' ints are short.  Built only when a count
    needs it: 6 ms at (4,4), 0.1 s at (4,5), 1 s and 5 MB at (5,5)."""
    _, union, groups = _string_class_table(n, ell)
    masks = sorted(groups, key=groups.__getitem__)
    counts = list(map(groups.__getitem__, masks))
    columns = _transpose(masks, union.bit_length())
    windows = []
    for *_, bits in _window_plan(ell, union)[1]:
        sliced = [(1 << j, c) for j, c in enumerate(columns) if bits >> j & 1]
        windows.append((bits, reduce(or_, [c for _, c in sliced]), tuple(sliced)))
    weights = _transpose(counts, counts[-1].bit_length())
    return sum(counts), tuple(windows), tuple(weights)


def _count_sliced(index: tuple[int, tuple, tuple[int, ...]], bad: int) -> int:
    """The labels of the groups whose mask has no bad bit: the OR of the
    ints of the wholly bad windows and of the other bad bits marks the
    groups left out, whose count bits are summed off the total."""
    total, windows, weights = index
    out = 0
    for bits, column, sliced in windows:
        if (bad & bits) == bits:
            out |= column
        elif bad & bits:
            out |= reduce(or_, [column for bit, column in sliced if bad & bit])
    return total - sum([(w & out).bit_count() << j for j, w in enumerate(weights)])
