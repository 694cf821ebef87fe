"""Exact desk-scale toolkit for rainbow matchings in 3-uniform hypergraphs.

The package provides canonical hypergraph types, generators for the
tight extremal instances, exhaustive matching solvers over one bitmask
search kernel, exact-rational fractional matching / vertex cover
optima, the stability shift pipeline, absorbing gadgets, and
reproducible experiment suites.
"""

from .constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    complete_partite,
    extremal_adjacent_degree_sum,
    extremal_graph,
    extremal_partite,
    family_to_partite,
    partite_to_family,
)
from .fractional import (
    FractionalCover,
    FractionalMatching,
    FractionalOptimum,
    fractional_perfect_matching,
    max_fractional_matching,
    min_fractional_cover,
    verify_duality,
)
from .hypergraph import (
    DegreeSumMinima,
    Hypergraph,
    complete_hypergraph,
    empty_hypergraph,
)
from .solvers import (
    Matching,
    RainbowMatching,
    SolverTimeout,
    cover_refutation,
    has_perfect_matching,
    max_matching,
    partite_perfect_matching,
    rainbow_matching,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeSumMinima",
    "FractionalCover",
    "FractionalMatching",
    "FractionalOptimum",
    "Hypergraph",
    "HypergraphFamily",
    "Matching",
    "PartiteHypergraph",
    "RainbowMatching",
    "SolverTimeout",
    "complete_hypergraph",
    "complete_partite",
    "cover_refutation",
    "empty_hypergraph",
    "extremal_adjacent_degree_sum",
    "extremal_graph",
    "extremal_partite",
    "family_to_partite",
    "fractional_perfect_matching",
    "has_perfect_matching",
    "max_fractional_matching",
    "max_matching",
    "min_fractional_cover",
    "partite_perfect_matching",
    "partite_to_family",
    "rainbow_matching",
    "verify_duality",
]
