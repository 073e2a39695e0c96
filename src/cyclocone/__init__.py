"""Exact-arithmetic toolkit for the enhanced cyclic nilpotent cone.

Enumerates orbit labels (pairs of a partition and a multipartition matched
through cyclic residues), computes orbit fundamental groups in closed form
(cross-checked against the Smith normal form), counts simple admissible
modules, and decides semi-simplicity of the admissible category by three
independent, provably equivalent criteria.

Importing the package loads none of its modules.  Each public name below
loads its defining module on first access (`cyclocone.X` or
`from cyclocone import X`) and is then an ordinary attribute, so a command
or a script pays only for the layers it reads.
"""

from importlib import import_module

_SOURCES = {
    "abelian": ("FGAbelianGroup", "IntMatrix", "cokernel", "smith_normal_form"),
    "errors": ("CriteriaDisagreement", "Pi1Disagreement"),
    "orbits": (
        "OrbitLabel",
        "StringSummand",
        "SummandDecomposition",
        "admits_monodromic_local_system",
        "decompose",
        "enumerate_Q_chi",
        "enumerate_orbits",
        "fundamental_group",
    ),
    "params": (
        "CircleElement",
        "KappaParams",
        "RationalCharacter",
        "ariki_product_nonzero",
        "cherednik_semisimple",
        "chi_to_kappa",
        "hecke_params",
        "hecke_q",
        "kappa_to_chi",
    ),
    "partitions": (
        "MultiPartition",
        "Partition",
        "count_multipartitions",
        "residue",
        "shifted_residue",
    ),
    "report": (
        "OrbitRow",
        "SemisimplicityReport",
        "hyperplane_listing",
        "orbit_report",
        "semisimplicity_report",
    ),
    "rootlattice": (
        "DimVector",
        "delta",
        "generate_Rn",
        "pair",
    ),
}

_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.2.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
