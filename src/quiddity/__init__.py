"""Exact combinatorics of 2x2 matrix words over the integers and Z/2Z.

The package computes products of elementary matrices [[c, -1], [1, 0]],
decides membership in the level-2 principal congruence subgroup, relates
mod-2 solutions to dissections of convex polygons into triangles and
quadrilaterals via local surgery, builds frieze patterns from triangulation
quiddities, and ships exhaustive desk-scale verification sweeps plus a CLI.

The public API is the union of the ``__all__`` lists of the modules below;
each is re-exported here unchanged.
"""

from .algebra import *
from .dissections import *
from .enumeration import *
from .frieze import *
from .surgery import *

__version__ = "0.1.0"
