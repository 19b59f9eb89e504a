"""End-to-end solvers: diverse centers -> fairness LP -> rerouting -> flow
rounding, with every stage's guarantee re-verified on the produced artifacts.

Radius pipeline: the assignment radius is the larger of the smallest feasible
LP radius and the snapped diverse-cost radius, found as the smallest
LP-feasible pairwise distance no lower than the snapped radius. The LP
solution of that winning search probe is residual-checked and reused, not
solved again. The final clustering is checked against (alpha + 1) times that
radius.

Cost pipelines: the fixed-center assignment LP over the diverse centers S
(k * n columns) is solved, its solution residual-checked and checked for
support on S and per-center mass >= 1, and rounded by the flow; the rounding
may only decrease its cost. No rerouting runs: the paper's rerouted solution
is feasible for that LP, so its optimum is never worse than the rerouted cost
and the paper's factors hold. If the assignment LP is infeasible, the full
n^2-column LP decides between an infeasible input and a broken pipeline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .constraints import (CenterDiversitySpec, GroupFairnessSpec, check_ds,
                          feasibility_precheck, gf_violation, make_clustering)
from .ds import ExactBackend, solve_ds_plugin
from .errors import (BudgetExceededError, InfeasibleError, PipelineError,
                     ValidationError)
from .flow import (build_flow, check_mass_windows, dump_flow_text,
                   extract_assignment, min_cost_flow)
from .instance import EPS_D, MetricInstance, pairwise_distance_set
# build_gf_feasibility_lp and reroute_medmeans are no longer called here, but
# stay importable under these names: benchmarks/tracing.py wraps them.
from .lp import (build_gf_feasibility_lp, build_gf_objective_lp,  # noqa: F401
                 check_lp_solution, dump_lp_text, fractional_cost,
                 infeasibility_diagnosis, min_feasible_lambda, solve_lp)
from .oracle import OracleBudget, brute_force_doubly_fair
from .rerouting import (MASS_TOL, check_rerouted, reroute_center,  # noqa: F401
                        reroute_medmeans)

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
    lam: float | None = None  # radius mode
    lambda_lp: float | None = None
    lambda_ds: float | None = None
    assignment_lp_cost: float | None = None  # cost modes
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


def _effective_alpha(alpha):
    # backends without a claimed factor still satisfy ds_cost <= 1 * snapped
    # radius by construction of the snapping step, so 1 is always safe here
    return alpha if alpha is not None and alpha >= 1.0 else 1.0


def _assignment_from_table(x2: np.ndarray) -> list:
    return [int(np.argmax(x2[:, j])) for j in range(x2.shape[1])]


def _verify_output(inst, gf, ds, clustering, stage):
    if not check_ds(inst, clustering.centers, ds):
        raise PipelineError(stage, "output violates the center-count bounds")
    violation = gf_violation(inst, clustering, gf)
    if violation > 2.0 + EPS_D:
        raise PipelineError(stage, f"group-fairness violation {violation} exceeds 2")
    sizes = [len(clustering.members(c)) for c in clustering.centers]
    if min(sizes) < 1:
        raise PipelineError(stage, "a center ended up with no assigned point")
    return violation, min(sizes)


def _run_oracle(inst, gf, ds, objective, report, budget):
    try:
        opt = brute_force_doubly_fair(inst, gf, ds, objective,
                                      budget=budget or OracleBudget())
    except InfeasibleError:
        report.oracle_note = "no zero-violation doubly fair solution exists"
        return
    except BudgetExceededError:
        report.oracle_note = "oracle budget exceeded"
        return
    report.oracle_cost = opt.cost
    if opt.cost > EPS_D:
        report.oracle_ratio = report.cost / opt.cost
    else:
        report.oracle_ratio = 1.0 if report.cost <= EPS_D else math.inf


def _maybe_dump(dumps, key, writer):
    if dumps and dumps.get(key):
        with open(dumps[key], "w") as fh:
            writer(fh)


def _round_flow(inst, rerouted, centers, objective, dumps):
    net = build_flow(rerouted, centers, inst, objective)
    _maybe_dump(dumps, "flow", lambda fh: dump_flow_text(net, fh))
    flows = min_cost_flow(net)
    x2 = extract_assignment(flows, net)
    check_mass_windows(x2, net, inst)
    return net, flows, x2


def solve_doubly_fair_kcenter(inst: MetricInstance, gf: GroupFairnessSpec,
                              ds: CenterDiversitySpec, backend=None,
                              with_oracle: bool = False,
                              oracle_budget: OracleBudget | None = None,
                              dumps: dict | None = None,
                              artifacts: dict | None = None):
    """Radius pipeline; returns (Clustering, SolveReport).

    Pass a dict as ``artifacts`` to receive the intermediate stage outputs
    (LP solution, rerouted solution, flow network, integral table).
    """
    timings = {}
    t0 = time.perf_counter()
    _require_precheck(inst, gf, ds)
    timings["precheck"] = time.perf_counter() - t0
    backend = backend or ExactBackend()

    t_ds = time.perf_counter()
    ds_sol = solve_ds_plugin(inst, ds, "center", backend)
    alpha = _effective_alpha(ds_sol.alpha)
    timings["ds"] = time.perf_counter() - t_ds

    t1 = time.perf_counter()
    radii = pairwise_distance_set(inst)
    idx = int(np.searchsorted(radii, ds_sol.cost / alpha - EPS_D, side="left"))
    if idx >= radii.size:
        raise PipelineError("lambda", "diverse cost exceeds every pairwise distance")
    lambda_ds = float(radii[idx])
    # feasibility is monotone in the radius, so searching only the candidates
    # >= lambda_ds yields max(lambda_lp, lambda_ds) directly
    search = min_feasible_lambda(inst, gf, ds.k, radii[idx:])
    lam = lambda_lp = search.radius
    timings["lambda_search"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    model, sol = search.model, search.solution
    _maybe_dump(dumps, "lp", lambda fh: dump_lp_text(model, fh))
    check_lp_solution(model, sol, inst, gf)
    timings["lp"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    rerouted, plan = reroute_center(inst, sol, ds_sol.centers)
    radius_cap = (alpha + 1.0) * lam
    check_rerouted(inst, gf, rerouted, ds_sol.centers, radius_cap=radius_cap)
    _maybe_dump(dumps, "rerouting", lambda fh: _dump_rerouting(fh, rerouted, plan))
    timings["rerouting"] = time.perf_counter() - t3

    t4 = time.perf_counter()
    net, flows, x2 = _round_flow(inst, rerouted, ds_sol.centers, "center", dumps)
    timings["flow"] = time.perf_counter() - t4

    clustering = make_clustering(inst, ds_sol.centers,
                                 _assignment_from_table(x2), "center")
    if clustering.cost > radius_cap + EPS_D:
        raise PipelineError("output", f"cost {clustering.cost} exceeds "
                                      f"({alpha}+1) * lambda = {radius_cap}")
    violation, min_size = _verify_output(inst, gf, ds, clustering, "output")
    if artifacts is not None:
        artifacts.update(lp_solution=sol, rerouted=rerouted, plan=plan, net=net,
                         flows=flows, x2=x2, radius_cap=radius_cap,
                         alpha_effective=alpha, ds_solution=ds_sol)

    report = SolveReport(
        objective="center", n=inst.n, m=inst.m, k=ds.k, cost=clustering.cost,
        ds_backend=ds_sol.backend_id, ds_cost=ds_sol.cost, alpha=ds_sol.alpha,
        guaranteed_factor=(guarantee_factor("center", ds_sol.alpha)
                           if ds_sol.alpha is not None else None),
        gf_violation=violation, ds_satisfied=True, min_cluster_size=min_size,
        lam=lam, lambda_lp=lambda_lp, lambda_ds=lambda_ds, timings=timings)
    if with_oracle:
        t5 = time.perf_counter()
        _run_oracle(inst, gf, ds, "center", report, oracle_budget)
        timings["oracle"] = time.perf_counter() - t5
    timings["total"] = time.perf_counter() - t0
    return clustering, report


def _assignment_lp(inst, gf, ds, objective, centers, dumps):
    """Optimal fractional assignment to the fixed centers, checked; if the
    fixed-center program is infeasible, the full program decides the error."""
    model = build_gf_objective_lp(inst, gf, ds.k, objective, centers=centers)
    _maybe_dump(dumps, "lp", lambda fh: dump_lp_text(model, fh))
    sol = solve_lp(model, inst, gf)
    if sol is None:
        if solve_lp(build_gf_objective_lp(inst, gf, ds.k, objective)) is None:
            raise InfeasibleError(
                "the group-fairness program has no fractional solution",
                diagnosis=(list(feasibility_precheck(inst, gf, ds).failures)
                           + infeasibility_diagnosis(gf, ds.k, inst.n)))
        raise PipelineError("lp", "the fixed-center assignment program is "
                                  "infeasible though the full program is feasible")
    check_rerouted(inst, gf, sol, centers, stage="lp")
    return sol


def solve_doubly_fair_medmeans(inst: MetricInstance, gf: GroupFairnessSpec,
                               ds: CenterDiversitySpec, objective: str,
                               backend=None, with_oracle: bool = False,
                               oracle_budget: OracleBudget | None = None,
                               dumps: dict | None = None,
                               artifacts: dict | None = None):
    """Cost pipeline for 'median' or 'means'; returns (Clustering, SolveReport).

    The clustering rounds the optimal fair assignment to the diverse centers.
    """
    if objective not in ("median", "means"):
        raise ValidationError("cost pipeline expects 'median' or 'means'")
    if dumps and dumps.get("rerouting"):
        raise ValidationError("the rerouting dump is k-center only: no "
                              "rerouting runs for median and means")
    timings = {}
    t0 = time.perf_counter()
    _require_precheck(inst, gf, ds)
    timings["precheck"] = time.perf_counter() - t0
    backend = backend or ExactBackend()

    t_ds = time.perf_counter()
    ds_sol = solve_ds_plugin(inst, ds, objective, backend)
    alpha = _effective_alpha(ds_sol.alpha)
    timings["ds"] = time.perf_counter() - t_ds

    t1 = time.perf_counter()
    sol = _assignment_lp(inst, gf, ds, objective, ds_sol.centers, dumps)
    assignment_lp_cost = fractional_cost(inst, sol.x, objective)
    timings["lp"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    net, flows, x2 = _round_flow(inst, sol, ds_sol.centers, objective, dumps)
    timings["flow"] = time.perf_counter() - t2

    clustering = make_clustering(inst, ds_sol.centers,
                                 _assignment_from_table(x2), objective)
    if clustering.cost > assignment_lp_cost + MASS_TOL * max(1.0, assignment_lp_cost):
        raise PipelineError("output", f"rounded cost {clustering.cost} exceeds "
                                      f"the fractional cost {assignment_lp_cost}")
    violation, min_size = _verify_output(inst, gf, ds, clustering, "output")
    if artifacts is not None:
        artifacts.update(lp_solution=sol, net=net, flows=flows, x2=x2,
                         alpha_effective=alpha, ds_solution=ds_sol)

    report = SolveReport(
        objective=objective, n=inst.n, m=inst.m, k=ds.k, cost=clustering.cost,
        ds_backend=ds_sol.backend_id, ds_cost=ds_sol.cost, alpha=ds_sol.alpha,
        guaranteed_factor=(guarantee_factor(objective, ds_sol.alpha)
                           if ds_sol.alpha is not None else None),
        gf_violation=violation, ds_satisfied=True, min_cluster_size=min_size,
        assignment_lp_cost=assignment_lp_cost, timings=timings)
    if with_oracle:
        t3 = time.perf_counter()
        _run_oracle(inst, gf, ds, objective, report, oracle_budget)
        timings["oracle"] = time.perf_counter() - t3
    timings["total"] = time.perf_counter() - t0
    return clustering, report


def solve(inst, gf, ds, objective, **kwargs):
    """Dispatch on the objective."""
    if objective == "center":
        return solve_doubly_fair_kcenter(inst, gf, ds, **kwargs)
    return solve_doubly_fair_medmeans(inst, gf, ds, objective, **kwargs)


def _dump_rerouting(fh, rerouted, plan):
    import json
    json.dump({"x": rerouted.x.tolist(), "y": rerouted.y.tolist(),
               "plan": plan.to_dict()}, fh, indent=1, sort_keys=True)
