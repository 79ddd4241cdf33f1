"""Exact counting toolkit for the independent set polynomial.

Parsimonious reductions from #3SAT through #X3SAT to independent-set
counting, S-clone graph transformations with their exact path-weight
calculus, and an interpolation pipeline that recovers every coefficient
of I(G; X) from evaluations of transformed graphs at one rational point.
All arithmetic is exact and over the rationals; no floating point.
"""

from .clonecalc import (
    TransformPlan,
    clone_shift,
    is_nondegenerate,
    normalize_point,
    path_weights,
    path_weights_closed_form,
)
from .cnf import (
    CnfFormula,
    count_sat,
    count_sat_via_independent_sets,
    count_x3sat,
    parse_dimacs,
    reduce_to_graph,
    reduce_to_x3sat,
    x3sat_to_graph,
)
from .errors import (
    CapacityError,
    DegeneratePointError,
    DomainError,
    FormulaError,
    GraphFormatError,
    OracleError,
)
from .graphs import (
    Graph,
    attach_path,
    clique_cover,
    comb,
    complete_graph,
    cycle_graph,
    delete_vertex,
    edgeless_graph,
    graph_from_json_dict,
    graph_to_json_dict,
    graph_to_text,
    is_clique_cover,
    k_clone,
    parse_graph,
    parse_graph_text,
    path_graph,
    s_clone,
    s_clone_origin,
)
from .interpolate import (
    ExternalOracle,
    InternalOracle,
    interpolate_coeffs,
    interpolate_family,
)
from .isp import (
    Polynomial,
    count_is_of_size,
    count_is_of_size_by_enumeration,
    count_transversal_is,
    isp_coeffs,
    isp_coeffs_by_enumeration,
    isp_eval,
    isp_multivariate,
)
from .rationals import as_rational, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CnfFormula",
    "DegeneratePointError",
    "DomainError",
    "ExternalOracle",
    "FormulaError",
    "Graph",
    "GraphFormatError",
    "InternalOracle",
    "OracleError",
    "Polynomial",
    "TransformPlan",
    "as_rational",
    "attach_path",
    "clique_cover",
    "clone_shift",
    "comb",
    "complete_graph",
    "count_is_of_size",
    "count_is_of_size_by_enumeration",
    "count_transversal_is",
    "count_sat",
    "count_sat_via_independent_sets",
    "count_x3sat",
    "cycle_graph",
    "delete_vertex",
    "edgeless_graph",
    "format_rational",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "graph_to_text",
    "interpolate_coeffs",
    "interpolate_family",
    "is_clique_cover",
    "is_nondegenerate",
    "isp_coeffs",
    "isp_coeffs_by_enumeration",
    "isp_eval",
    "isp_multivariate",
    "k_clone",
    "normalize_point",
    "parse_dimacs",
    "parse_graph",
    "parse_graph_text",
    "parse_rational",
    "path_graph",
    "path_weights",
    "path_weights_closed_form",
    "reduce_to_graph",
    "reduce_to_x3sat",
    "s_clone",
    "s_clone_origin",
    "x3sat_to_graph",
]
