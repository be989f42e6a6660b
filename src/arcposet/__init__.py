"""Arc diagrams, block matrices, their posets, and simplicial topology.

A library for k-noncrossing arc diagrams on a linear backbone: block
decompositions and block matrices, the regular representative of each
block matrix laid out directly, swaps, dual and blow-up, the diagram and
matrix families as finite posets, multitriangulation complexes, and exact
integral simplicial homology.
"""

from .diagram import Diagram, parse, to_text
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .matrix import SymmetricMatrix
from .poset import FinitePoset
from .complexes import SimplicialComplex

__all__ = [
    "Diagram",
    "FinitePoset",
    "InvalidArgumentError",
    "InvariantError",
    "ResourceLimitError",
    "SimplicialComplex",
    "SymmetricMatrix",
    "parse",
    "to_text",
]
