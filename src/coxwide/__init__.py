"""Combinatorial machinery for Coxeter groups given by labeled defining
graphs: wideness and avoidance deciders, an exact rewriting word engine,
Davis-complex wall queries, fan / filter / multi-tail-filter construction
with quantitative invariant checking, and Morse-boundary classification
verdicts with machine-checked witnesses.
"""

from .avoidance import (AvoidanceReport, SpecialJoin, WideDecomposition,
                        enumerate_special_joins, enumerate_wide_subgraphs,
                        is_affine_free, is_wide, is_wide_avoidant,
                        is_wide_spherical_avoidant, wide_decomposition)
from .classification import (EndsVerdict, GroupConstants, IrreducibleVerdict,
                             classify_irreducible, compute_constants,
                             ends_verdict, is_spherical)
from .classify import ClassificationVerdict, Splitting, classify
from .errors import (ConstructionError, GraphFormatError, NonGeodesicError,
                     OrbitCapError, SizeCapError, VerificationError)
from .fans import FanCheck, FanDiagram, build_fan, check_fan
from .filters import (FilterCheck, FilterDiagram, MultiTailFilter,
                      build_filter, build_multitail_filter, check_filter,
                      check_multitail_filter, itinerary_cap)
from .graphs import CoxeterGraph, parse_graph
from .walls import (CayleyBall, MorseWindowReport, Pencil, build_ball,
                    find_pencil, is_reflection, morse_window_check, order_of,
                    wall_separates, walls_cross)
from .words import (GroupElement, Reflection, Word, element, ending_letters,
                    extend_geodesic, extension_constant, is_geodesic,
                    normalize, parse_word, reflection_of_edge, tits_orbit,
                    wide_tail)

__version__ = "0.1.0"

__all__ = [
    "AvoidanceReport", "CayleyBall", "ClassificationVerdict",
    "ConstructionError", "CoxeterGraph", "EndsVerdict", "FanCheck",
    "FanDiagram", "FilterCheck", "FilterDiagram", "GraphFormatError",
    "GroupConstants", "GroupElement", "IrreducibleVerdict",
    "MorseWindowReport", "MultiTailFilter", "NonGeodesicError",
    "OrbitCapError", "Pencil", "Reflection", "SizeCapError", "SpecialJoin",
    "Splitting", "VerificationError", "WideDecomposition", "Word",
    "build_ball", "build_fan", "build_filter", "build_multitail_filter",
    "check_fan", "check_filter", "check_multitail_filter", "classify",
    "classify_irreducible", "compute_constants", "element", "ending_letters",
    "enumerate_special_joins", "enumerate_wide_subgraphs", "ends_verdict",
    "extend_geodesic", "extension_constant", "find_pencil", "is_affine_free",
    "is_geodesic", "is_reflection", "is_spherical", "is_wide",
    "is_wide_avoidant", "is_wide_spherical_avoidant", "itinerary_cap",
    "morse_window_check", "normalize", "order_of", "parse_graph",
    "parse_word", "reflection_of_edge", "tits_orbit", "wall_separates",
    "walls_cross", "wide_decomposition", "wide_tail",
]
