"""Exact-arithmetic toolkit for the enhanced cyclic nilpotent cone.

Enumerates orbit labels (pairs of a partition and a multipartition matched
through cyclic residues), computes orbit fundamental groups via Smith normal
form, counts simple admissible modules, and decides semi-simplicity of the
admissible category by three independent, provably equivalent criteria.
"""

from .abelian import FGAbelianGroup, IntMatrix, cokernel, smith_normal_form
from .orbits import (
    OrbitLabel,
    StringSummand,
    SummandDecomposition,
    admits_monodromic_local_system,
    decompose,
    enumerate_Q_chi,
    enumerate_orbits,
    fundamental_group,
)
from .params import (
    CircleElement,
    KappaParams,
    RationalCharacter,
    ariki_product_nonzero,
    cherednik_semisimple,
    chi_to_kappa,
    circle,
    hecke_params,
    hecke_q,
    kappa_to_chi,
)
from .partitions import (
    Box,
    MultiPartition,
    Partition,
    content,
    enumerate_multipartitions,
    enumerate_partitions,
    residue,
    shifted_residue,
)
from .report import (
    CriteriaDisagreement,
    OrbitRow,
    SemisimplicityReport,
    count_multipartitions,
    hyperplane_listing,
    orbit_report,
    semisimplicity_report,
)
from .rootlattice import (
    DimVector,
    RootSet,
    delta,
    epsilon,
    generate_Rn,
    is_integral_pairing,
    pair,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CircleElement",
    "CriteriaDisagreement",
    "DimVector",
    "FGAbelianGroup",
    "IntMatrix",
    "KappaParams",
    "MultiPartition",
    "OrbitLabel",
    "OrbitRow",
    "Partition",
    "RationalCharacter",
    "RootSet",
    "SemisimplicityReport",
    "StringSummand",
    "SummandDecomposition",
    "admits_monodromic_local_system",
    "ariki_product_nonzero",
    "cherednik_semisimple",
    "chi_to_kappa",
    "circle",
    "cokernel",
    "content",
    "count_multipartitions",
    "decompose",
    "delta",
    "enumerate_Q_chi",
    "enumerate_multipartitions",
    "enumerate_orbits",
    "enumerate_partitions",
    "epsilon",
    "fundamental_group",
    "generate_Rn",
    "hecke_params",
    "hecke_q",
    "hyperplane_listing",
    "is_integral_pairing",
    "kappa_to_chi",
    "orbit_report",
    "pair",
    "residue",
    "semisimplicity_report",
    "shifted_residue",
    "smith_normal_form",
]
