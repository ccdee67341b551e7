"""Combinatorial machinery for Coxeter groups given by labeled defining
graphs: wideness and avoidance deciders, an exact rewriting word engine,
Davis-complex wall queries, fan / filter / multi-tail-filter construction
with quantitative invariant checking, and Morse-boundary classification
verdicts with machine-checked witnesses.

``import coxwide`` loads the classification layer only (``errors``,
``graphs``, ``classification``, ``avoidance`` and ``classify``).  The names
of the word engine, walls, fans and filters are resolved on first access
(PEP 562), which imports their module; every public name is importable from
here as before.  The classify chain stays eager because ``classify`` is both
a submodule and a function: loading the submodule first would bind the
module, not the function, to ``coxwide.classify``.
"""

import importlib

from .avoidance import (AvoidanceReport, SpecialJoin, WideDecomposition,
                        is_affine_free, is_wide, is_wide_avoidant,
                        is_wide_spherical_avoidant, wide_decomposition)
from .classification import (EndsVerdict, GroupConstants, IrreducibleVerdict,
                             classify_irreducible, compute_constants,
                             ends_verdict, is_spherical)
from .classify import ClassificationVerdict, Splitting, classify
from .errors import (ConstructionError, GraphFormatError, NonGeodesicError,
                     OrbitCapError, SizeCapError, VerificationError)
from .graphs import CoxeterGraph, parse_graph

__version__ = "0.1.0"

# public name -> the submodule that defines it, imported on first access
_LAZY = {name: module for module, names in {
    "fans": ("FanCheck", "FanDiagram", "build_fan", "check_fan"),
    "filters": ("FilterCheck", "FilterDiagram", "MultiTailFilter",
                "build_filter", "build_multitail_filter", "check_filter",
                "check_multitail_filter", "itinerary_cap"),
    "walls": ("CayleyBall", "MorseWindowReport", "Pencil", "build_ball",
              "find_pencil", "is_reflection", "morse_window_check",
              "order_of", "wall_separates", "walls_cross"),
    "words": ("GroupElement", "Reflection", "Word", "element",
              "ending_letters", "extend_geodesic", "extension_constant",
              "is_geodesic", "normalize", "parse_word", "reflection_of_edge",
              "tits_orbit", "wide_tail"),
}.items() for name in names}

__all__ = sorted([
    "AvoidanceReport", "ClassificationVerdict", "ConstructionError",
    "CoxeterGraph", "EndsVerdict", "GraphFormatError", "GroupConstants",
    "IrreducibleVerdict", "NonGeodesicError", "OrbitCapError", "SizeCapError",
    "SpecialJoin", "Splitting", "VerificationError", "WideDecomposition",
    "classify", "classify_irreducible", "compute_constants", "ends_verdict",
    "is_affine_free", "is_spherical", "is_wide", "is_wide_avoidant",
    "is_wide_spherical_avoidant", "parse_graph", "wide_decomposition",
    *_LAZY,
])


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
