"""Exact skew-spectral computations for oriented graphs.

Exact integer characteristic polynomials of skew-adjacency matrices,
skew energy by independent spectral and integral routes, combinatorial
oracles (matchings, quadrangles, cycle parity, subgraph expansions),
and exhaustive minimum-energy verification at desk scale.
"""

from .charpoly import (
    QuasiOrder,
    SkewCharPoly,
    charpoly,
    charpoly_delete_arc,
    pendant_coefficients,
    quasi_compare,
)
from .energy import (
    EnergyReport,
    IntegralEnergy,
    adjacency_energy_tree,
    energy_from_even_coeffs,
    energy_from_even_coeffs_precise,
    energy_report,
    log_psi_over_x2,
    skew_energy_integral,
    skew_energy_spectral,
)
from .extremal import (
    BoundReport,
    CrossoverRow,
    MinimalityCertificate,
    crossover_table,
    enumerate_connected_underlying,
    orientation_coefficient_census,
    predicted_family,
    verify_quadrangle_bound,
    verify_quadrangle_bound_max_degree,
    verify_theorem_1,
)
from .graphs import (
    GraphError,
    OrientedGraph,
    ParseError,
    UndirectedGraph,
    build,
    construct_b_plus,
    construct_o_plus,
    delete_arc,
    delete_vertices,
    oriented_cycle,
    oriented_path,
    oriented_star,
    parse_graph,
    serialize_graph,
    skew_adjacency,
    underlying,
)
from .subgraphs import (
    A4Bound,
    CycleParity,
    a4_bound_check,
    arc_on_even_cycle,
    coefficient_by_expansion,
    count_matchings,
    count_quadrangles,
    cycle_parity,
    matching_counts,
    quadrangles,
)

__version__ = "0.1.0"
