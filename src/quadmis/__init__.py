"""Continuous local search for maximum independent sets.

The solver relaxes set membership to [0,1]^n, minimizes a quadratic
penalty/reward objective with clipped Adam steps from many random starts,
and keeps every iterate whose thresholded support is a maximal
independent set.
"""

from .bench import (
    PRESETS,
    BenchInstance,
    BenchSuite,
    bench_suite,
    parse_suite,
    resolve_config,
    write_summary,
)
from .checker import (
    ContractViolation,
    direct_mis_check,
    fast_mis_check,
)
from .generators import InvalidEdgeCount, gen_er, gen_gnm, gnm_edge_count
from .graph import Graph, InvalidEdge, NodeSet
from .graph_io import (
    ParseError,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    write_dimacs,
    write_edge_list,
    write_report,
)
from .initialization import DegenerateDegreeMean, degree_mean
from .objective import (
    DimensionError,
    InvalidGamma,
    ObjectiveParams,
    evaluate,
    gradient,
)
from .optimizer import (
    AdamState,
    NumericalError,
    SolverConfig,
    adam_step,
    run_resampling,
    solve,
)
from .oracle import TooLarge, exact_mis, greedy_min_degree

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BenchInstance",
    "BenchSuite",
    "ContractViolation",
    "DegenerateDegreeMean",
    "DimensionError",
    "Graph",
    "InvalidEdge",
    "InvalidEdgeCount",
    "InvalidGamma",
    "NodeSet",
    "NumericalError",
    "ObjectiveParams",
    "ParseError",
    "PRESETS",
    "SolverConfig",
    "TooLarge",
    "adam_step",
    "bench_suite",
    "degree_mean",
    "direct_mis_check",
    "evaluate",
    "exact_mis",
    "fast_mis_check",
    "gen_er",
    "gen_gnm",
    "gnm_edge_count",
    "gradient",
    "greedy_min_degree",
    "load_graph",
    "parse_dimacs",
    "parse_edge_list",
    "parse_suite",
    "resolve_config",
    "run_resampling",
    "solve",
    "write_dimacs",
    "write_edge_list",
    "write_report",
    "write_summary",
]
