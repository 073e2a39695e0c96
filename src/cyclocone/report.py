"""Aggregated semi-simplicity diagnostics and typed orbit tables.

The report runs three independent criteria for semi-simplicity of the
admissible category at a rational character: hyperplane avoidance on the
root side, the product criterion on the Hecke side, and the counting
criterion comparing the number of simple objects with the number of
multipartitions.  The three verdicts provably agree; a disagreement would
falsify the implementation, so it raises instead of being reconciled.
All three run on integers over the common denominator d of chi, and roots
and string classes alike are tested a window at a time, each on its own
closed form (_roots, orbits._window_plan).  Only what depends on (n, ell)
is cached; no cache is keyed by the character.

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


# Shared Fraction(k) for violated roots' integer values; one takes 0.75 us.
_integer = lru_cache(maxsize=256)(Fraction)


@lru_cache(maxsize=None)
def _roots(n: int, ell: int) -> tuple[tuple[int, int, int, int, tuple], ...]:
    """generate_Rn(n, ell) by window: (sign, lo, hi, laps, ((position, m,
    alpha) per root)), alpha = m*delta + sign*(eps_lo + ... + eps_{hi-1})
    (0, 0, 0 for m*delta) at that position, laps the OR of its 1 << m."""
    groups: dict[tuple[int, ...], list] = {}
    roots = zip(generate_Rn(n, ell), _root_forms(n, ell))
    for position, (alpha, (m, *window)) in enumerate(roots):
        groups.setdefault(tuple(window), []).append((position, m, alpha))
    return tuple(
        (*window, sum([1 << m for _, m, _ in members]), tuple(members))
        for window, members in groups.items()
    )


def semisimplicity_report(
    n: int, ell: int, chi: RationalCharacter
) -> SemisimplicityReport:
    """Run all three criteria and package the evidence.

    With c = d*chi, T = sum(c) and P its prefix sums, the root m*delta +
    sign*(eps_lo + ... + eps_{hi-1}) is violated iff m*T + sign*(P[hi] -
    P[lo]) is divisible by d, so one table from -m*T mod d to its m's finds
    a window's violated m's by one lookup; each gets its Fraction value.
    The Hecke product is decided on c modulo d*ell (_chi_product_nonzero)
    and _count_Q_chi counts on the same d and c.

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
    solved, r = {}, 0
    for m in range(n + 1):
        solved[r] = solved.get(r, 0) | 1 << m
        r = (r - total) % d
    get = solved.get
    found = sorted(
        [
            (position, alpha, _integer((m * total + window) // d))
            for sign, lo, hi, laps, members in _roots(n, ell)
            if (hits := laps & get((window := sign * (prefix[hi] - prefix[lo])) % d, 0))
            for position, m, alpha in members
            if hits >> m & 1
        ]
    )
    violated = tuple([(alpha, value) for _, alpha, value in found])
    verdict_roots = not violated

    verdict_hecke = _chi_product_nonzero(d, scaled, n)

    simple_count = _count_Q_chi(n, ell, d, scaled)
    pell_count = count_multipartitions(n, ell)
    verdict_counting = simple_count == pell_count

    if not (verdict_roots == verdict_hecke == verdict_counting):
        raise CriteriaDisagreement(
            n, ell, chi, verdict_roots, verdict_hecke, verdict_counting
        )

    # Positional, in field order: keywords take twice as long.
    return SemisimplicityReport(
        n, ell, chi, verdict_roots, verdict_hecke, verdict_counting,
        violated, simple_count, pell_count, d == 1,
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
