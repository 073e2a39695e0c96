"""Aggregated semi-simplicity diagnostics and typed orbit tables.

The report runs three independent criteria for semi-simplicity of the
admissible category at a rational character: hyperplane avoidance on the
root side, the product criterion on the Hecke side, and the counting
criterion comparing the number of simple objects with the number of
multipartitions.  The three verdicts provably agree; a disagreement would
falsify the implementation, so it raises instead of being reconciled.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

from .abelian import FGAbelianGroup
from .orbits import (
    OrbitLabel,
    StringSummand,
    _monodromic_flags,
    count_Q_chi,
    decompose,
    enumerate_orbits,
    fundamental_group,
)
from .params import (
    CircleElement,
    KappaParams,
    RationalCharacter,
    ariki_product_nonzero,
    chi_to_kappa,
    hecke_params,
    hecke_q,
)
from .partitions import enumerate_multipartitions
from .rootlattice import DimVector, generate_Rn, pair


class CriteriaDisagreement(RuntimeError):
    """Raised when the three semi-simplicity criteria fail to agree."""

    def __init__(self, n, ell, chi, verdict_roots, verdict_hecke, verdict_counting):
        self.n = n
        self.ell = ell
        self.chi = chi
        self.verdict_roots = verdict_roots
        self.verdict_hecke = verdict_hecke
        self.verdict_counting = verdict_counting
        # `--chi=` keeps a leading minus sign from reading as an option.
        super().__init__(
            f"criteria disagree at n={n}, ell={ell}, chi={chi}: "
            f"roots={verdict_roots}, hecke={verdict_hecke}, "
            f"counting={verdict_counting}; reproduce with: "
            f"cyclocone semisimple -n {n} -l {ell} --chi={chi}"
        )


class SemisimplicityReport(NamedTuple):
    """All three verdicts plus the data every criterion was run on."""

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
    kappa: KappaParams
    hecke: tuple[CircleElement, CircleElement, tuple[CircleElement, ...]]

    @property
    def semisimple(self) -> bool:
        return self.verdict_roots

    def to_json(self) -> dict:
        q0, q1, u = self.hecke
        return {
            "n": self.n,
            "ell": self.ell,
            "chi": [str(v) for v in self.chi.values],
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
            "hecke": {
                "q0": str(q0),
                "q1": str(q1),
                "u": [str(x) for x in u],
            },
        }


@lru_cache(maxsize=None)
def count_multipartitions(n: int, ell: int) -> int:
    """Size of the set of ell-multipartitions of n, by direct enumeration."""
    return sum(1 for _ in enumerate_multipartitions(n, ell))


def semisimplicity_report(
    n: int, ell: int, chi: RationalCharacter
) -> SemisimplicityReport:
    """Run all three criteria and package the evidence.

    Raises CriteriaDisagreement if the verdicts differ; this is the
    falsification signal and is never swallowed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if ell < 1:
        raise ValueError("cycle length must be positive")
    if chi.ell != ell:
        raise ValueError(f"character has {chi.ell} entries, expected {ell}")

    violated = tuple(
        (alpha, value)
        for alpha in generate_Rn(n, ell)
        if (value := pair(chi, alpha)).denominator == 1
    )
    verdict_roots = not violated

    kappa = chi_to_kappa(chi)
    q0, q1, u = hecke_params(kappa, ell)
    verdict_hecke = ariki_product_nonzero(hecke_q(q0, q1), u, n)

    simple_count = count_Q_chi(n, ell, chi)
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
        chi_integral=chi.is_integral(),
        kappa=kappa,
        hecke=(q0, q1, u),
    )


def _equation_text(alpha: DimVector) -> str:
    text = ""
    for r, coeff in enumerate(alpha.coords):
        if coeff == 0:
            continue
        term = f"χ_{r}" if abs(coeff) == 1 else f"{abs(coeff)}χ_{r}"
        if text:
            text += f" {'+' if coeff > 0 else '-'} {term}"
        else:
            text = term if coeff > 0 else f"-{term}"
    return text + " ∈ Z"


def hyperplane_listing(n: int, ell: int) -> list[tuple[DimVector, str]]:
    """One (root, readable equation) entry per hyperplane of the bound n."""
    if n < 1:
        raise ValueError("n must be positive")
    return [(alpha, _equation_text(alpha)) for alpha in generate_Rn(n, ell)]


class OrbitRow(NamedTuple):
    """An orbit label, its string summands, its pi1 and whether it admits a
    chi-monodromic local system (None when no chi is given)."""

    label: OrbitLabel
    strings: tuple[StringSummand, ...]
    pi1: FGAbelianGroup
    monodromic: bool | None


def orbit_report(
    n: int, ell: int, chi: RationalCharacter | None = None
) -> list[OrbitRow]:
    """One OrbitRow per orbit label, in enumeration order."""
    flags = repeat(None) if chi is None else _monodromic_flags(n, ell, chi)
    return [
        OrbitRow(label, decompose(label).strings, fundamental_group(label), flag)
        for label, flag in zip(enumerate_orbits(n, ell), flags)
    ]
