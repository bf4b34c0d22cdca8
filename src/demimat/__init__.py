"""Exact invariants of demimatroids and combinatroids on small ground sets.

Rank tables over all 2^n subsets, the four duality operators, Wei
hierarchies, Tutte/Hamming/characteristic polynomials, Stanley-Reisner Betti
numbers via restriction homology, parity matroids of prime-field codes, and
a CLI that cross-verifies every multi-route quantity.
"""

from .core import Complex, RankTable, complex_to_demimatroid
from .constructions import (
    from_matroid_bases,
    from_wei_sequence,
    graph_demimatroid,
    random_demimatroid,
    uniform,
)
from .ops import (
    contract,
    delete,
    dual,
    elongate,
    join,
    meet,
    nullity_operator,
    supplement,
)
from .poly import LaurentPoly
from .weights import WeiProfile, check_wei_duality, generalized_hamming_weights, wei_hierarchy

__all__ = [
    "Complex",
    "LaurentPoly",
    "RankTable",
    "WeiProfile",
    "check_wei_duality",
    "complex_to_demimatroid",
    "contract",
    "delete",
    "dual",
    "elongate",
    "from_matroid_bases",
    "from_wei_sequence",
    "generalized_hamming_weights",
    "graph_demimatroid",
    "join",
    "meet",
    "nullity_operator",
    "random_demimatroid",
    "supplement",
    "uniform",
    "wei_hierarchy",
]

__version__ = "0.1.0"
