"""Independent reference computations used as test oracles.

Everything here is deliberately written from first principles, separate from
the library code paths it checks: determinants via fraction-free elimination,
partition counts via the bounded-part recurrence, partitions and
multipartitions by a plain recursion on the largest part, the root set via the
abstract positive-root filter, residues and string vectors via a plain box
scan, cokernels via determinantal divisors, Q_chi counts via a walk over
the string-class table's groups, and the Hecke product via a
scan of its factors in Fraction arithmetic.  The chi -> kappa -> Hecke
translations are kept here in Fraction arithmetic, as they read before the
library moved them onto integers over common denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from cyclocone.abelian import FGAbelianGroup
from cyclocone.params import CircleElement, KappaParams, RationalCharacter


def det_int(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    assert all(len(r) == n for r in rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@lru_cache(maxsize=None)
def partition_count_bounded(n: int, max_part: int) -> int:
    """Number of partitions of n with all parts <= max_part."""
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return partition_count_bounded(n - max_part, max_part) + partition_count_bounded(
        n, max_part - 1
    )


def partition_count(n: int) -> int:
    return partition_count_bounded(n, n)


def multipartition_count(n: int, ell: int) -> int:
    """Coefficient count by brute-force convolution of partition counts."""
    counts = [partition_count(k) for k in range(n + 1)]
    total = counts[:]
    for _ in range(ell - 1):
        total = [
            sum(total[a] * counts[k - a] for a in range(k + 1)) for k in range(n + 1)
        ]
    return total[n]


def brute_force_Rn(n: int, ell: int) -> set[tuple[int, ...]]:
    """All positive affine roots with vertex-0 coefficient < n, plus n*delta.

    Builds m*delta + phi for phi in the finite root system (both signs of
    every interval) and filters, instead of using the closed-form union.
    """
    intervals = [
        tuple(1 if i <= r <= j else 0 for r in range(ell))
        for i in range(1, ell)
        for j in range(i, ell)
    ]
    phi = (
        [(0,) * ell]
        + intervals
        + [tuple(-x for x in iv) for iv in intervals]
    )
    out: set[tuple[int, ...]] = set()
    for m in range(0, n + 1):
        for f in phi:
            v = tuple(m + x for x in f)
            if all(c >= 0 for c in v) and any(v) and v[0] < n:
                out.add(v)
    out.add((n,) * ell)
    return out


def residue_scan(parts: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """Residue vector by a plain scan over the boxes of the diagram."""
    counts = [0] * ell
    for row, part in enumerate(parts, start=1):
        for col in range(1, part + 1):
            counts[(row - col) % ell] += 1
    return tuple(counts)


def shifted_residue_scan(
    components: tuple[tuple[int, ...], ...], ell: int
) -> tuple[int, ...]:
    """Shifted residue: component i contributes its residue rotated by +i."""
    counts = [0] * ell
    for i, parts in enumerate(components):
        rc = residue_scan(parts, ell)
        for r in range(ell):
            counts[(r + i) % ell] += rc[r]
    return tuple(counts)


def partitions_recursive(n: int, max_part: int | None = None):
    """Every partition of n with parts <= max_part, as a descending tuple,
    by choosing the largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_recursive(n - first, first):
            yield (first, *rest)


def multipartitions_recursive(n: int, ell: int, keep=None, index: int = 0):
    """Every ell-tuple of partitions (descending tuples) of total size n;
    with keep, only those whose component i (counted from `index`) has
    keep(i, parts), a component that fails never being extended."""
    if ell == 1:
        yield from (
            (parts,)
            for parts in partitions_recursive(n)
            if keep is None or keep(index, parts)
        )
        return
    for size in range(n + 1):
        for head in partitions_recursive(size):
            if keep is None or keep(index, head):
                for tail in multipartitions_recursive(
                    n - size, ell - 1, keep, index + 1
                ):
                    yield (head, *tail)


def brute_force_orbit_pairs(
    n: int, ell: int, chi_values=None
) -> set[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """All (lambda, nu) with |lambda| + |nu| = n*ell meeting the residue law.

    Double loop over every partition of every admissible size and every
    multipartition of the complement, both from the plain recursive
    generators above (the multipartitions listed once per size), with
    residues recomputed by the scan-based oracles.  Given the values of a
    character, only the pairs whose every string vector pairs integrally
    with it (pairs_integrally), each nu component tested as it is made.
    """
    keep = None
    if chi_values is not None:

        def keep(index, parts):
            vectors = component_vectors_scan(index, parts, ell)
            return all(pairs_integrally(chi_values, v) for v in vectors)

    out = set()
    total = n * ell
    target = (n,) * ell
    for size in range(total + 1):
        nus = [
            (comps, shifted_residue_scan(comps, ell))
            for comps in multipartitions_recursive(total - size, ell, keep)
        ]
        for lam in partitions_recursive(size):
            lam_res = residue_scan(lam, ell)
            for comps, sres in nus:
                if tuple(a + b for a, b in zip(lam_res, sres)) == target:
                    out.add((lam, comps))
    return out


def component_vectors_scan(
    index: int, parts: tuple[int, ...], ell: int
) -> list[tuple[int, ...]]:
    """One vector per row of the component at `index`: its boxes' shifted
    contents."""
    out = []
    for row, part in enumerate(parts, start=1):
        counts = [0] * ell
        for col in range(1, part + 1):
            counts[(index + row - col) % ell] += 1
        out.append(tuple(counts))
    return out


def string_vectors_scan(
    components: tuple[tuple[int, ...], ...], ell: int
) -> list[tuple[int, ...]]:
    """One vector per row of every component: its boxes' shifted contents."""
    return [
        vector
        for i, parts in enumerate(components)
        for vector in component_vectors_scan(i, parts, ell)
    ]


def pairs_integrally(chi_values, vector: tuple[int, ...]) -> bool:
    """Whether sum(chi_values[v] * vector[v]) is an integer, in Fractions."""
    return sum(Fraction(c) * x for c, x in zip(chi_values, vector)).denominator == 1


def bad_mask_scan(chi_values, n: int, ell: int) -> int:
    """The bits below n*ell*ell (every class of a row at most n*ell long)
    whose string vector, from mask_vectors, does not pair integrally with
    the character of the given values."""
    bad = 0
    for k in range(n * ell * ell):
        (vector,) = mask_vectors(ell, 1 << k)
        if not pairs_integrally(chi_values, vector):
            bad |= 1 << k
    return bad


def mask_vectors(ell: int, mask: int) -> list[tuple[int, ...]]:
    """The string vector of every bit of a class mask, in bit order.

    Bit k is the string class (top, length) = (k % ell, k // ell + 1),
    whose boxes sit at the vertices top, top - 1, ..., one per unit of
    length, read modulo ell.
    """
    out = []
    for k in range(mask.bit_length()):
        if mask >> k & 1:
            top, length = k % ell, k // ell + 1
            counts = [0] * ell
            for step in range(length):
                counts[(top - step) % ell] += 1
            out.append(tuple(counts))
    return out


def onto_hyperplanes(rng, chi, roots):
    """chi moved by one or two coordinates so that it pairs integrally
    with every root given (with the first alone when the two roots are
    proportional on every pair of coordinates)."""
    values = list(chi)
    miss = [
        rng.randint(-3, 3) - sum(v * x for v, x in zip(values, alpha.coords))
        for alpha in roots
    ]
    a = roots[0].coords
    if len(roots) == 2:
        b = roots[1].coords
        for r in range(len(values)):
            for s in range(r + 1, len(values)):
                det = a[r] * b[s] - a[s] * b[r]
                if det:
                    values[r] += (miss[0] * b[s] - miss[1] * a[s]) / det
                    values[s] += (a[r] * miss[1] - b[r] * miss[0]) / det
                    return RationalCharacter(values)
    r = next(i for i, coeff in enumerate(a) if coeff)
    values[r] += miss[0] / a[r]
    return RationalCharacter(values)


def lap_families(ell: int, n: int, rng, size: int = 6) -> dict[str, list]:
    """Characters for which one window of a pairing is solved by several
    laps, `size` per family where the family exists, by d, the least
    common denominator of chi, and T, the coordinate sum of d*chi.  A
    string or root of laps m and window w pairs integrally iff
    m*T + w = 0 mod d, which holds for every m of one class modulo the
    period d / gcd(T, d), the denominator of sum(chi).

    - "integral": d = 1, so every vector pairs integrally.
    - "sum in Z": d > 1 and T = 0 mod d, period 1 (needs ell >= 2).
    - "periodic": a period p with 2 <= p <= n/2, so that two laps m and
      m + p <= n solve a window whatever its class.  With ell >= 2 the
      first entries are odd over 2p, so d carries more factors of 2 than
      p and gcd(T, d) = d/p > 1.
    """
    families: dict[str, list] = {"integral": [], "sum in Z": [], "periodic": []}
    for _ in range(size):
        families["integral"].append(
            RationalCharacter([rng.randint(-5, 5) for _ in range(ell)])
        )
        head = [random_fraction(rng, max_den=6) for _ in range(ell - 1)]
        if ell > 1:
            last = rng.randint(-3, 3) - sum(head, Fraction(0))
            if any(v.denominator > 1 for v in head):
                families["sum in Z"].append(RationalCharacter(head + [last]))
        if n >= 4:
            period = rng.randint(2, n // 2)
            odd = [Fraction(2 * rng.randint(-6, 5) + 1, 2 * period) for _ in head]
            numerator = rng.choice([a for a in range(1, period) if gcd(a, period) == 1])
            last = Fraction(numerator, period) - sum(odd, Fraction(0))
            families["periodic"].append(RationalCharacter(odd + [last]))
    return families


def count_walk(groups: dict[int, int], good: int) -> int:
    """The labels of the table groups whose mask lies inside good, summed
    group by group."""
    return sum(count for mask, count in groups.items() if mask & ~good == 0)


def cyclic_group(order: int) -> FGAbelianGroup:
    """Z/order in invariant factor form, with Z/0 = Z and Z/1 trivial."""
    if order == 0:
        return FGAbelianGroup(1)
    return FGAbelianGroup(0, (order,) if order > 1 else ())


def rank_over_rationals(columns: list[tuple[int, ...]], rows: int) -> int:
    """Rank of the matrix with the given columns, by Gaussian elimination
    that clears an entry by cross-multiplying (so it stays in integers)."""
    pending = [list(c) for c in columns]
    rank = 0
    for r in range(rows):
        pivot = next((c for c in pending if c[r] != 0), None)
        if pivot is None:
            continue
        pending.remove(pivot)
        p = pivot[r]
        pending = [[x * p - c[r] * y for x, y in zip(c, pivot)] for c in pending]
        rank += 1
    return rank


def cokernel_by_minors(
    columns: list[tuple[int, ...]], rows: int
) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors >= 2) of Z^rows / span(columns).

    D_i is the gcd of all i x i minors; the rank r is the largest i with
    D_i != 0, and the invariant factors are d_i = D_i / D_{i-1}, i <= r.
    The rank comes from elimination over the rationals, and no size above
    it is scanned.  A column that is 0 on a set of rows is left out of that
    set's minors, which it would make 0.  A gcd that reaches 1 stays 1, so
    the scan of a size stops there.
    """
    rank = rank_over_rationals(columns, rows)
    divisors = [1]
    for size in range(1, rank + 1):
        d = 0
        minors = (
            det_int([[c[r] for c in cs] for r in rs])
            for rs in combinations(range(rows), size)
            for cs in combinations([c for c in columns if any(c[r] for r in rs)], size)
        )
        for minor in minors:
            d = gcd(d, minor)
            if d == 1:
                break
        assert d != 0, "a nonzero minor exists at every size up to the rank"
        divisors.append(d)
    factors = tuple(divisors[i] // divisors[i - 1] for i in range(1, rank + 1))
    return rows - rank, tuple(f for f in factors if f >= 2)


def ariki_nonzero_scan(q: Fraction, u: list[Fraction], n: int) -> bool:
    """Whether every factor 1 - q^m and u_i - q^d u_j is nonzero, with each
    circle number exp(2 pi i t) given by its angle t; a factor vanishes
    exactly when the difference of its two angles is an integer."""
    for m in range(1, n + 1):
        if (m * q).denominator == 1:
            return False
    for i, ui in enumerate(u):
        for j, uj in enumerate(u):
            for d in range(-n + 1, n):
                if i != j and (ui - (d * q + uj)).denominator == 1:
                    return False
    return True


def random_fraction(rng, max_den: int = 12, max_num: int = 24) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def chi_to_kappa(chi: RationalCharacter) -> KappaParams:
    """The unique kappa coordinates translating back to the given character.

    Solves the defining linear system directly: the cyclic differences
    kappa_i - kappa_{i+1} = chi_i - 1/ell for i >= 1, the normalization
    sum(kappa) = 0, and k00 = -k01 = (coordinate sum of chi)/2.
    """
    ell = chi.ell
    k00 = sum(chi.values, Fraction(0)) / 2
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

    q0 = exp(2*pi*i*k00), q1 = -exp(2*pi*i*k01) with the sign absorbed as a
    half rotation, and u_r = zeta^{-r} exp(2*pi*i*kappa_r), the angle
    kappa_r - r/ell.
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
    """The deformation parameter q = -q0 * q1^{-1}, another half rotation:
    its angle 1/2 + t0 - t1, summed on Fractions and reduced mod 1."""
    return CircleElement((Fraction(1, 2) + q0.t - q1.t) % 1)
