"""Delta-matroid twists, width, minors, obstructions, and certificates.

``enumeration``, which no single-instance route needs, loads on the first
access to it or to one of its names here (PEP 562).
"""

from importlib import import_module as _import_module

from .core import (
    AxiomViolationError,
    DeltaMatroid,
    DeltaMatroidError,
    EmptyFamilyError,
    GroundSetError,
    d_min,
    is_matroid,
    validate,
)
from .structure import (
    is_twist_matroid_witness,
    is_twist_width_one_witness,
    min_width_twist,
    rough_structure_witnesses,
    twist_width_formula,
)
from .minors import Obstruction, catalog, d5_family
from .certify import (
    CertificationError,
    MinorWitness,
    TwistWitness,
    certify,
    is_obstructed,
    matroid_twist_obstructions,
)
from .fileio import ParseError, parse, serialize

__version__ = "0.8.0"

__all__ = [
    "AxiomViolationError",
    "CertificationError",
    "DeltaMatroid",
    "DeltaMatroidError",
    "EmptyFamilyError",
    "EnumerationReport",
    "GroundSetError",
    "MinorWitness",
    "Obstruction",
    "ParseError",
    "TwistWitness",
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

_DEFERRED = ("EnumerationReport", "count_all", "enumerate_all", "verify_theorem")


def __getattr__(name):
    """Import ``enumeration`` on first access to it or one of its names, and
    bind them here."""
    if name != "enumeration" and name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = globals()["enumeration"] = _import_module(".enumeration", __name__)
    for attr in _DEFERRED:
        globals()[attr] = getattr(mod, attr)
    return globals()[name]


def __dir__():
    return sorted({*globals(), "enumeration", *_DEFERRED})
