"""Token-graph automorphism toolkit.

Builds the k-token graph of a base graph (vertices are k-subsets,
adjacent when they differ by one token sliding along a base edge),
computes automorphism groups exactly with an individualization-refinement
search whose certified generators and leaf path give a stabilizer chain,
factors connected graphs into Cartesian primes, constructs the explicit
generator families known for complete bipartite bases and Cartesian
products of primes, and verifies predicted group orders with
machine-readable reports.
"""

__version__ = "0.1.0"

from .errors import CertificationError, ScaleGuardExceeded, TokenautError
from .graphs import (BipartiteSpec, Graph, cartesian_product,
                     complete_bipartite, complete_graph, cycle_graph,
                     distance_matrix, format_edge_list, graph_from_edges,
                     hypercube, parse_edge_list, path_graph, star_graph)
from .subsets import ksubsets, rank, unrank
from .tokens import TokenGraph, token_graph
from .perms import (PermGroup, Permutation, bounded_order,
                    permutation_from_str, permutation_to_str, schreier_sims)
from .refinement import available_backends, default_backend
from .search import (AutResult, automorphism_group, count_automorphisms_brute,
                     is_automorphism, is_isomorphic, refine)
from .constructions import (PredictedAut, bipartite_generators,
                            complement_automorphism, coordinate_swap_product,
                            lift_to_token_graph, predicted_order,
                            predicted_order_cube, product_subgroup_generators,
                            side_swap_bipartite, side_swap_subsets)
from .factorization import (Factorization, is_prime,
                            prime_factor_decomposition)
from .verify import (DEFAULT_GUARD, ScaleGuard, VerificationReport,
                     verify_bipartite, verify_cube, verify_product)

__all__ = [
    "__version__",
    "TokenautError", "ScaleGuardExceeded", "CertificationError",
    "Graph", "BipartiteSpec", "graph_from_edges", "complete_graph",
    "complete_bipartite", "path_graph", "cycle_graph", "star_graph",
    "cartesian_product", "hypercube", "distance_matrix",
    "format_edge_list", "parse_edge_list",
    "rank", "unrank", "ksubsets",
    "TokenGraph", "token_graph",
    "Permutation", "PermGroup", "schreier_sims",
    "bounded_order", "permutation_to_str", "permutation_from_str",
    "available_backends", "default_backend",
    "AutResult", "refine", "automorphism_group", "is_automorphism",
    "is_isomorphic", "count_automorphisms_brute",
    "PredictedAut",
    "lift_to_token_graph", "complement_automorphism", "side_swap_bipartite",
    "bipartite_generators", "side_swap_subsets",
    "predicted_order", "coordinate_swap_product",
    "product_subgroup_generators", "predicted_order_cube",
    "Factorization", "is_prime", "prime_factor_decomposition",
    "ScaleGuard", "DEFAULT_GUARD", "VerificationReport",
    "verify_bipartite", "verify_cube", "verify_product",
]
