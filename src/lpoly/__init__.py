"""Exact toolkit for labelled polyhedra, lattice counting and Weyl combinatorics.

Everything is exact rational/big-integer arithmetic, and the package needs
only the Python standard library.
"""

from .counting import QuasiPolynomial, brion_evaluate, count_points, ehrhart_fit, toric_rr
from .desing import canonical_desingularization, depth, shift_desingularization
from .linalg import InvariantError
from .polyhedra import Label, LabelledPolyhedron, format_lpoly, label, parse_lpoly
from .rootsys import root_system
from .subdivisions import Subdivision, dual_subdivision

__all__ = [
    "InvariantError",
    "Label",
    "LabelledPolyhedron",
    "QuasiPolynomial",
    "Subdivision",
    "brion_evaluate",
    "canonical_desingularization",
    "count_points",
    "depth",
    "dual_subdivision",
    "ehrhart_fit",
    "format_lpoly",
    "label",
    "parse_lpoly",
    "root_system",
    "shift_desingularization",
    "toric_rr",
]
