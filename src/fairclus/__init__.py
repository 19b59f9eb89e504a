"""Doubly constrained fair k-clustering.

Solvers for k-center, k-median, and k-means under two simultaneous fairness
constraints: bounded color ratios inside every cluster (with additive
violation at most 2) and bounded color counts among the chosen centers
(satisfied exactly). A brute-force oracle provides ground truth for
approximation-ratio checks at desk scale.
"""

from .constraints import (CenterDiversitySpec, Clustering, GroupFairnessSpec,
                          check_cluster_group_fair, check_ds,
                          default_ds_profile, exact_gf_spec,
                          feasibility_precheck, gf_violation,
                          load_fairness_spec, make_clustering)
from .ds import (DsSolution, DsSolverContract, ExactBackend, GreedyBackend,
                 SubprocessBackend, ds_cost, get_backend, solve_ds_exact,
                 solve_ds_greedy, solve_ds_plugin)
from .errors import (BudgetExceededError, ContractViolationError, FairclusError,
                     InfeasibleError, NumericalError, ParseError, PipelineError,
                     ValidationError)
from .instance import (MetricInstance, instance_to_dict, load_instance,
                       make_instance, pairwise_distance_set, random_instance)
from .lp import (FractionalSolution, build_gf_feasibility_lp,
                 build_gf_objective_lp, fractional_cost, lp_residuals,
                 min_feasible_lambda, solve_lp)
from .oracle import OracleBudget, brute_force_doubly_fair, brute_force_gf_assignment
from .pipeline import SolveReport, guarantee_factor, means_pq, solve
from .rerouting import ReroutePlan, reroute_center, reroute_medmeans

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CenterDiversitySpec", "Clustering",
    "ContractViolationError", "DsSolution", "DsSolverContract", "ExactBackend",
    "FairclusError", "FractionalSolution", "GreedyBackend", "GroupFairnessSpec",
    "InfeasibleError", "MetricInstance", "NumericalError", "OracleBudget",
    "ParseError", "PipelineError", "ReroutePlan", "SolveReport",
    "SubprocessBackend", "ValidationError", "brute_force_doubly_fair",
    "brute_force_gf_assignment", "build_gf_feasibility_lp",
    "build_gf_objective_lp", "check_cluster_group_fair", "check_ds",
    "default_ds_profile", "ds_cost", "exact_gf_spec", "feasibility_precheck",
    "fractional_cost", "get_backend", "gf_violation", "guarantee_factor",
    "instance_to_dict", "load_fairness_spec", "load_instance", "lp_residuals",
    "make_clustering", "make_instance", "means_pq", "min_feasible_lambda",
    "pairwise_distance_set", "random_instance", "reroute_center",
    "reroute_medmeans", "solve", "solve_ds_exact", "solve_ds_greedy",
    "solve_ds_plugin", "solve_lp",
]
