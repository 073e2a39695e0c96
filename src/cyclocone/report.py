"""Aggregated semi-simplicity diagnostics and typed orbit tables.

The report runs three independent criteria for semi-simplicity of the
admissible category at a rational character: hyperplane avoidance on the
root side, the product criterion on the Hecke side, and the counting
criterion comparing the number of simple objects with the number of
multipartitions.  The three verdicts provably agree; a disagreement would
falsify the implementation, so it raises instead of being reconciled.

Per character all three run on integers over the common denominator d of
chi, with c = d*chi and its prefix sums P[k] = c_0 + ... + c_{k-1}.  Every
root is m*delta + sign*(eps_lo + ... + eps_{hi-1}), so its pairing with c is
m*P[ell] + sign*(P[hi] - P[lo]); the Hecke product is decided on c modulo
D = d*ell (params._chi_product_nonzero), and kappa and the Hecke parameters
are built only when a report's kappa or hecke is read; counting pairs c with
the string vectors of the string-class table by cyclic windows of prefix
sums, read from rows cached per table, then sums the counts of the table's
groups that have no bad bit: over the submasks of the k good bits when
2**k * 64 is at most the number of groups, else from a bit-sliced index of
the table, one big-int of groups per class bit and per count bit.  A
Fraction is built only for a value the report returns.  What depends only
on (n, ell), the roots in closed form, the table and its index, is built
once; the index only when a character first needs it.

`CriteriaDisagreement` and `Pi1Disagreement` are defined in `errors`, which
loads no layer, and `count_multipartitions`, a plain partition count, in
`partitions`; all three are re-exported here.  The pi1 group class is
imported for annotations only, so a report loads no `abelian`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, NamedTuple

# Re-exported: the errors and count_multipartitions are also names of report.
from .errors import CriteriaDisagreement, Pi1Disagreement
from .orbits import (
    OrbitLabel,
    PlacedComponent,
    StringSummand,
    _bad_bits,
    _class_set_pi1,
    _count_Q_chi,
    _fill_labels,
    _orbit_label,
    _strings,
)
from .params import (
    CircleElement,
    KappaParams,
    RationalCharacter,
    _chi_product_nonzero,
    chi_to_kappa,
    hecke_json,
    hecke_params,
)
from .partitions import Partition, count_multipartitions
from .rootlattice import DimVector, _root_forms, generate_Rn

if TYPE_CHECKING:  # pragma: no cover
    from .abelian import FGAbelianGroup


class SemisimplicityReport(NamedTuple):
    """All three verdicts plus the data every criterion was run on; `kappa`
    and `hecke` translate chi when read, as the verdict needs neither."""

    n: int
    ell: int
    chi: RationalCharacter
    verdict_roots: bool
    verdict_hecke: bool
    verdict_counting: bool
    violated_roots: tuple[tuple[DimVector, Fraction], ...]
    simple_count: int
    pell_count: int
    chi_integral: bool

    @property
    def semisimple(self) -> bool:
        return self.verdict_roots

    @property
    def kappa(self) -> KappaParams:
        """chi_to_kappa(chi), built on access."""
        return chi_to_kappa(self.chi)

    @property
    def hecke(self) -> tuple[CircleElement, CircleElement, tuple[CircleElement, ...]]:
        """hecke_params(kappa, ell): (q0, q1, u), built on access."""
        return hecke_params(self.kappa, self.ell)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "chi": self.chi.to_json(),
            "verdict_roots": self.verdict_roots,
            "verdict_hecke": self.verdict_hecke,
            "verdict_counting": self.verdict_counting,
            "violated_roots": [
                {"dim_vector": str(alpha), "pairing": str(value)}
                for alpha, value in self.violated_roots
            ],
            "simple_count": self.simple_count,
            "pell_count": self.pell_count,
            "chi_integral": self.chi_integral,
            "kappa": self.kappa.to_json(),
            "hecke": hecke_json(*self.hecke),
        }


@lru_cache(maxsize=None)
def _roots(n: int, ell: int) -> tuple[tuple[DimVector, int, int, int, int], ...]:
    """(alpha, m, sign, lo, hi) per root of generate_Rn(n, ell), in its order:
    alpha = m*delta + sign*(eps_lo + ... + eps_{hi-1}), the closed form it
    was built from (sign = lo = hi = 0 for m*delta itself)."""
    roots = generate_Rn(n, ell)
    return tuple((alpha, *form) for alpha, form in zip(roots, _root_forms(n, ell)))


def semisimplicity_report(
    n: int, ell: int, chi: RationalCharacter
) -> SemisimplicityReport:
    """Run all three criteria and package the evidence.

    A root alpha is violated iff the integer pairing of alpha with d*chi,
    d the common denominator of chi, is divisible by d; the pairing is read
    from the prefix sums of d*chi, and only the violated roots get a
    Fraction, the pairing divided by d.  The Hecke product is decided on
    d*chi modulo d*ell, and _count_Q_chi counts from the string-class table
    on the same d and d*chi.

    Raises CriteriaDisagreement if the verdicts differ; this is the
    falsification signal and is never swallowed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if ell < 1:
        raise ValueError("cycle length must be positive")
    if chi.ell != ell:
        raise ValueError(f"character has {chi.ell} entries, expected {ell}")

    d, scaled = chi.common_denominator()
    prefix = [0, *accumulate(scaled)]
    total = prefix[ell]
    violated = tuple(
        (alpha, Fraction(s // d))
        for alpha, m, sign, lo, hi in _roots(n, ell)
        if (s := m * total + sign * (prefix[hi] - prefix[lo])) % d == 0
    )
    verdict_roots = not violated

    verdict_hecke = _chi_product_nonzero(d, scaled, n)

    simple_count = _count_Q_chi(n, ell, d, scaled)
    pell_count = count_multipartitions(n, ell)
    verdict_counting = simple_count == pell_count

    if not (verdict_roots == verdict_hecke == verdict_counting):
        raise CriteriaDisagreement(
            n, ell, chi, verdict_roots, verdict_hecke, verdict_counting
        )

    return SemisimplicityReport(
        n=n,
        ell=ell,
        chi=chi,
        verdict_roots=verdict_roots,
        verdict_hecke=verdict_hecke,
        verdict_counting=verdict_counting,
        violated_roots=violated,
        simple_count=simple_count,
        pell_count=pell_count,
        chi_integral=d == 1,
    )


def _equation_text(alpha: DimVector) -> str:
    terms = []
    for r, coeff in enumerate(alpha.coords):
        if coeff == 0:
            continue
        term = f"χ_{r}" if abs(coeff) == 1 else f"{abs(coeff)}χ_{r}"
        if terms:
            terms.append(f"{'+' if coeff > 0 else '-'} {term}")
        else:
            terms.append(term if coeff > 0 else f"-{term}")
    return " ".join(terms) + " ∈ Z"


def hyperplane_listing(n: int, ell: int) -> list[tuple[DimVector, str]]:
    """One (root, readable equation) entry per hyperplane of the bound n."""
    if n < 1:
        raise ValueError("n must be positive")
    return [(alpha, _equation_text(alpha)) for alpha in generate_Rn(n, ell)]


class OrbitRow(NamedTuple):
    """An orbit label as lambda and its placed nu components, its pi1 and
    whether it admits a chi-monodromic local system (None without chi).
    `label` and `strings` are built from the components on access."""

    lam: Partition
    components: tuple[PlacedComponent, ...]
    pi1: FGAbelianGroup
    monodromic: bool | None

    @property
    def label(self) -> OrbitLabel:
        size = self.lam.size + sum(comp.partition.size for comp in self.components)
        return _orbit_label(self.lam, self.components, size // len(self.components))

    @property
    def strings(self) -> tuple[StringSummand, ...]:
        return _strings(self.components)


def orbit_report(
    n: int, ell: int, chi: RationalCharacter | None = None
) -> Iterator[OrbitRow]:
    """One OrbitRow per orbit label, in enumeration order, built as it is
    read; pi1 depends only on the label's class mask and is cached per mask."""
    bad = None if chi is None else _bad_bits(n, ell, chi)
    for lam, components, mask in _fill_labels(n, ell):
        flag = None if bad is None else not mask & bad
        yield OrbitRow(lam, components, _class_set_pi1(ell, mask), flag)
