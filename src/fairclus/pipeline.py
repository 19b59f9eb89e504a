"""End-to-end solver: diverse centers -> fixed-center fairness LP -> flow
rounding, one pipeline for k-center, k-median and k-means, with every
stage's guarantee re-verified on the produced artifacts.

The LP is the fair assignment LP over the diverse centers S (Bera et al.,
NeurIPS 2019), a column per (center, point) pair (``lp``). k-center takes the
smallest radius r among the distances d[S, :] at which that LP, capped at
r, is feasible, reusing the winning search probe's solution; the rounded
radius is checked to be at most r. Inside that search a counting bound
(``lp.counting_bound_index``) rules out the radii below its own without an
LP, so the search probes from there. Median and means take the LP's
optimum; the rounded cost is checked to be at most its fractional cost.
Either solution is scattered into a k x n table over S, and its
residuals, per-center mass >= 1 included, are checked before the
flow rounds it.

The flow (``flow.min_cost_flow``) fixes each point with one support arc and
routes the points the LP leaves fractional, at most k(2m + 1) at a vertex, by
successive shortest paths; only the LP stage solves an LP, with the
in-package dual simplex or, above its size gate, HiGHS. The flow's output
is each point's center, and the clustering is built from it. Its color
counts are taken once: they are checked against the flow's windows (a
broken window is a ``flow`` failure), then against the cost, center-count
and GF bounds.

No rerouting runs. The paper's rerouted solution is feasible for the same
LP (capped at its own largest support distance for k-center), so r and the
LP optimum are never worse than the rerouted solution and the paper's
factors hold; the test suite checks that lemma by rerouting the full LP.
The precheck's exact ratio test holds exactly when the uncapped LP over S
is feasible (``feasibility_precheck``), so after it a fixed-center LP
without a solution is a broken pipeline; no full LP is solved.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

# gf_violation is no longer called here, but stays importable under this
# name: benchmarks/tracing.py wraps it.
from .constraints import (OBJECTIVES, CenterDiversitySpec, GroupFairnessSpec,  # noqa: F401
                          check_ds, cluster_color_counts, feasibility_precheck,
                          gf_violation, gf_violation_of_counts, make_clustering,
                          require_finite_costs)
from .ds import ExactBackend, solve_ds_plugin
from .errors import (BudgetExceededError, InfeasibleError, PipelineError,
                     ValidationError)
from .flow import build_flow, check_mass_windows, extract_assignment, min_cost_flow
# pairwise_distance_set, build_gf_feasibility_lp, check_rerouted,
# reroute_center and reroute_medmeans are no longer called here, but stay
# importable under these names: benchmarks/tracing.py wraps them.
from .instance import EPS_D, MetricInstance, pairwise_distance_set  # noqa: F401
from .lp import (MASS_TOL, build_gf_feasibility_lp,  # noqa: F401
                 build_gf_objective_lp, check_lp_solution, fractional_cost,
                 min_feasible_lambda, solve_lp)
from .oracle import brute_force_doubly_fair
from .rerouting import check_rerouted, reroute_center, reroute_medmeans  # noqa: F401

# Retired flow entry points, bound only because benchmarks/tracing.py wraps them.
build_center_flow = build_medmeans_flow = max_flow_with_lower_bounds = build_flow


def guarantee_factor(objective: str, alpha: float) -> float:
    """Approximation factor of the pipeline given the backend's factor."""
    if alpha < 1.0:
        raise ValidationError(f"backend factor must be >= 1, got {alpha}")
    if objective == "center":
        return alpha + 1.0
    if objective == "median":
        return alpha + 3.0
    if objective == "means":
        return (means_pq(alpha)[0] + 1.0) ** 2
    raise ValidationError(f"unknown objective {objective!r}")


def means_pq(alpha: float) -> tuple:
    """The (p^2, q^2) pair the paper's sum-of-squares rerouting bound is
    instantiated with; the means factor is (p^2 + 1)^2."""
    p_sq = math.sqrt(1.0 + (1.0 + math.sqrt(alpha)) ** 2)
    q_sq = math.sqrt(alpha)
    return p_sq, q_sq


@dataclass
class SolveReport:
    """Everything a run claims, measured on its own output."""

    objective: str
    n: int
    m: int
    k: int
    cost: float
    ds_backend: str
    ds_cost: float
    alpha: float | None  # claimed by the backend; None = no guarantee
    guaranteed_factor: float | None
    gf_violation: float
    ds_satisfied: bool
    min_cluster_size: int
    lam: float | None = None  # center: the fixed-center LP's radius
    assignment_lp_cost: float | None = None  # median, means: its optimum
    oracle_cost: float | None = None
    oracle_ratio: float | None = None
    oracle_note: str | None = None
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if v is not None}
        out["timings"] = dict(self.timings)
        return out


def _require_precheck(inst, gf, ds):
    report = feasibility_precheck(inst, gf, ds)
    if not report.ok:
        raise InfeasibleError("instance fails feasibility prechecks",
                              diagnosis=report.failures)


def _verify_output(inst, gf, ds, clustering, counts, stage):
    if not check_ds(inst, clustering.centers, ds):
        raise PipelineError(stage, "output violates the center-count bounds")
    min_size = int(counts.sum(axis=1).min())
    if min_size < 1:
        raise PipelineError(stage, "a center ended up with no assigned point")
    violation = gf_violation_of_counts(counts, gf)
    if violation > 2.0 + EPS_D:
        raise PipelineError(stage, f"group-fairness violation {violation} exceeds 2")
    return violation, min_size


def _run_oracle(inst, gf, ds, objective, report):
    try:
        opt = brute_force_doubly_fair(inst, gf, ds, objective)
    except InfeasibleError:
        report.oracle_note = "no zero-violation doubly fair solution exists"
        return
    except BudgetExceededError:
        report.oracle_note = "oracle budget exceeded"
        return
    report.oracle_cost = opt.cost
    if opt.cost > 0:
        report.oracle_ratio = report.cost / opt.cost
    else:
        report.oracle_ratio = 1.0 if report.cost == 0 else math.inf


def _fixed_center_lp(inst, gf, ds_sol):
    """The fixed-center LP over the diverse centers and its checked solution.

    k-center: the smallest radius r among the distances from the centers at
    which the program capped at r is feasible (``min_feasible_lambda``;
    never below the nearest-assignment radius). Median and means: the
    cost-minimizing program. The precheck has passed, so the program has a
    solution at the largest candidate radius (and uncapped): if none is
    found, the pipeline is broken.
    """
    centers = ds_sol.centers
    if ds_sol.objective == "center":
        search = min_feasible_lambda(inst, gf, centers)
        model, sol = (search.model, search.solution) if search else (None, None)
    else:
        model = build_gf_objective_lp(inst, gf, centers, ds_sol.objective)
        sol = solve_lp(model)
    if sol is None:
        raise PipelineError("lp", "the fixed-center assignment program is "
                                  "infeasible though the precheck passed")
    check_lp_solution(model, sol, inst, gf)
    return model, sol


def solve(inst: MetricInstance, gf: GroupFairnessSpec, ds: CenterDiversitySpec,
          objective: str, backend=None, with_oracle: bool = False,
          artifacts: dict | None = None):
    """Doubly fair clustering for 'center', 'median' or 'means'; returns
    (Clustering, SolveReport).

    Pass a dict as ``artifacts`` to receive the intermediate stage outputs:
    ``lp_model`` (the checked LP) and ``net`` (the flow network) as soon as
    each stage makes them, so a failed solve still leaves them; then
    ``lp_solution``, ``flows`` (0/1 per arc of ``net``; the clustering
    carries the assignment they give) and ``ds_solution``. The solver itself
    writes no files.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    require_finite_costs(inst, objective)
    timings = {}
    t0 = time.perf_counter()
    _require_precheck(inst, gf, ds)
    timings["precheck"] = time.perf_counter() - t0
    backend = backend or ExactBackend()
    if artifacts is None:
        artifacts = {}

    t1 = time.perf_counter()
    ds_sol = solve_ds_plugin(inst, ds, objective, backend)
    timings["ds"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    model, sol = _fixed_center_lp(inst, gf, ds_sol)
    artifacts["lp_model"] = model
    if objective == "center":
        bound, slack = model.lam, EPS_D * model.lam
    else:
        bound = fractional_cost(inst, sol, objective)
        slack = MASS_TOL * max(1.0, bound)
    timings["lp"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    net = artifacts["net"] = build_flow(sol, inst, objective)
    flows = min_cost_flow(net)
    clustering = make_clustering(inst, ds_sol.centers,
                                 extract_assignment(flows, net).tolist(), objective)
    counts = cluster_color_counts(inst, clustering)
    check_mass_windows(counts, net)
    timings["flow"] = time.perf_counter() - t3

    if clustering.cost > bound + slack:
        raise PipelineError("output", f"rounded cost {clustering.cost} exceeds "
                                      f"the LP's bound {bound}")
    violation, min_size = _verify_output(inst, gf, ds, clustering, counts, "output")
    artifacts.update(lp_solution=sol, flows=flows, ds_solution=ds_sol)

    report = SolveReport(
        objective=objective, n=inst.n, m=inst.m, k=ds.k, cost=clustering.cost,
        ds_backend=ds_sol.backend_id, ds_cost=ds_sol.cost, alpha=ds_sol.alpha,
        guaranteed_factor=(guarantee_factor(objective, ds_sol.alpha)
                           if ds_sol.alpha is not None else None),
        gf_violation=violation, ds_satisfied=True, min_cluster_size=min_size,
        lam=bound if objective == "center" else None,
        assignment_lp_cost=None if objective == "center" else bound,
        timings=timings)
    if with_oracle:
        t4 = time.perf_counter()
        _run_oracle(inst, gf, ds, objective, report)
        timings["oracle"] = time.perf_counter() - t4
    timings["total"] = time.perf_counter() - t0
    return clustering, report
