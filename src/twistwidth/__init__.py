"""Delta-matroid twists, width, minors, obstructions, and certificates."""

from .core import (
    AxiomViolationError,
    DeltaMatroid,
    DeltaMatroidError,
    EmptyFamilyError,
    GroundSetError,
    validate,
)
from .matroids import d_min, is_matroid
from .structure import (
    is_twist_matroid_witness,
    is_twist_width_one_witness,
    min_width_twist,
    rough_structure_witnesses,
    twist_width_formula,
)
from .minors import Obstruction, are_isomorphic, catalog, d5_family
from .certify import (
    AuxGraph,
    CertificationError,
    HUB,
    MinorWitness,
    TwistWitness,
    build_aux_graph,
    certify,
    is_obstructed,
    matroid_twist_obstructions,
)
from .enumeration import (
    EnumerationReport,
    count_all,
    enumerate_all,
    verify_theorem,
)
from .fileio import ParseError, parse, serialize

__version__ = "0.5.0"

__all__ = [
    "AxiomViolationError",
    "AuxGraph",
    "CertificationError",
    "DeltaMatroid",
    "DeltaMatroidError",
    "EmptyFamilyError",
    "EnumerationReport",
    "GroundSetError",
    "HUB",
    "MinorWitness",
    "Obstruction",
    "ParseError",
    "TwistWitness",
    "are_isomorphic",
    "build_aux_graph",
    "catalog",
    "certify",
    "count_all",
    "d5_family",
    "d_min",
    "enumerate_all",
    "is_matroid",
    "is_obstructed",
    "is_twist_matroid_witness",
    "is_twist_width_one_witness",
    "matroid_twist_obstructions",
    "min_width_twist",
    "parse",
    "rough_structure_witnesses",
    "serialize",
    "twist_width_formula",
    "validate",
    "verify_theorem",
]
