"""Exact skew-spectral computations for oriented graphs.

Exact integer characteristic polynomials of skew-adjacency matrices,
skew energy by independent spectral and integral routes, combinatorial
oracles (matchings, quadrangles, cycle parity, subgraph expansions),
and exhaustive minimum-energy verification at desk scale.
"""

# each module's __all__ is the package's public list
from .charpoly import *
from .energy import *
from .extremal import *
from .graphs import *
from .subgraphs import *

__version__ = "0.1.0"
