"""Delta-matroid twists, width, minors, obstructions, and certificates.

``enumeration`` and ``matroids``, which no single-instance route needs, load
on first access to one of their names here (PEP 562).
"""

from importlib import import_module as _import_module

from .core import (
    AxiomViolationError,
    DeltaMatroid,
    DeltaMatroidError,
    EmptyFamilyError,
    GroundSetError,
    validate,
)
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

_DEFERRED = {
    "enumeration": ("EnumerationReport", "count_all", "enumerate_all", "verify_theorem"),
    "matroids": ("d_min", "is_matroid"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in (module, *names)}


def __getattr__(name):
    """Import the deferred module holding ``name`` and bind its names here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = globals()[module] = _import_module(f".{module}", __name__)
    for attr in _DEFERRED[module]:
        globals()[attr] = getattr(mod, attr)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_HOME})
