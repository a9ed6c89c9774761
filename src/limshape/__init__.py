"""Exact toolkit for limiting shapes and asymptotic Hilbert polynomials of
symbolic powers of point/flat configurations in projective space."""

__version__ = "0.1.0"

from .rings import Polynomial, DEGREVLEX
from .groebner import (
    GinResult,
    intersect_ideals,
    gin,
    regularity_surrogate,
)
from .staircase import MonomialStaircase
from .polyhedra import (
    RationalPolyhedron,
    newton_polyhedron,
    scale,
    convex_union_approximant,
    volume,
    gamma_region,
)
from .configs import Config, symbolic_power
from .asymptotics import (
    UniPoly,
    flats_hp,
    ahp_flats,
    ahf_estimate,
    ahp_additivity_check,
    intersecting_lines_hp,
)
