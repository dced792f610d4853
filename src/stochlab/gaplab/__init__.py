"""Interchange, exclusion, walk, and shuffle generators on weighted graphs,
with spectral-gap identity checks, network reduction, and the hub
comparison form; permutation-space spectra come from S_n irrep blocks."""

from .generators import (
    DENSE_STATE_LIMIT,
    GeneratorOperator,
    alpha_shuffle_generator,
    alpha_single_particle_rates,
    exclusion_generator,
    interchange_generator,
    rw_generator,
)
from .graphs import (
    CapacityError,
    GraphFormatError,
    HyperWeights,
    Network,
    WeightedGraph,
    connected_graph_representatives,
    cycle_graph,
    format_network,
    parse_graph_file,
    parse_network,
)
from .irreps import block_spectrum
from .reduction import octopus_extremes, octopus_form, reduce_vertex
from .report import DEFAULT_RTOL, GapReport, gap_report, shuffle_gap_comparison
from .spectral import (
    DEFAULT_TOL_ZERO,
    ReducibilityError,
    block_gap,
    extreme_eigenvalues,
    spectral_gap,
)

__all__ = [
    "CapacityError",
    "DEFAULT_RTOL",
    "DEFAULT_TOL_ZERO",
    "DENSE_STATE_LIMIT",
    "GapReport",
    "GeneratorOperator",
    "GraphFormatError",
    "HyperWeights",
    "Network",
    "ReducibilityError",
    "WeightedGraph",
    "alpha_shuffle_generator",
    "alpha_single_particle_rates",
    "block_gap",
    "block_spectrum",
    "connected_graph_representatives",
    "cycle_graph",
    "exclusion_generator",
    "extreme_eigenvalues",
    "format_network",
    "gap_report",
    "interchange_generator",
    "octopus_extremes",
    "octopus_form",
    "parse_graph_file",
    "parse_network",
    "reduce_vertex",
    "rw_generator",
    "shuffle_gap_comparison",
    "spectral_gap",
]
