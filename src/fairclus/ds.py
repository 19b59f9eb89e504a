"""Diversity-aware center selection backends.

The clustering pipeline consumes diverse center sets through an opaque
contract: a backend returns exactly k centers satisfying the per-color count
bounds, plus the approximation factor it claims for the objective. The
reference backend enumerates all feasible center sets exactly (factor 1 at
desk scale); a greedy backend scales further but claims no factor; arbitrary
external solvers plug in over a subprocess protocol.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from dataclasses import dataclass, field

import numpy as np

from .constraints import (OBJECTIVES, CenterDiversitySpec, check_ds, diverse_center_sets,
                          feasibility_precheck, objective_value)
from .errors import BudgetExceededError, ContractViolationError, InfeasibleError, ValidationError
from .instance import MetricInstance, instance_to_dict

EXACT_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class DsSolverContract:
    """What a backend promises: factor per objective and the objectives it
    supports."""

    backend_id: str
    alpha: dict = field(default_factory=dict)  # objective -> float | None
    objectives: tuple = OBJECTIVES

    def alpha_for(self, objective: str):
        return self.alpha.get(objective)

    def supports(self, objective: str) -> bool:
        return objective in self.objectives


@dataclass(frozen=True)
class DsSolution:
    """A diverse center set with its nearest-assignment cost."""

    centers: tuple
    cost: float
    objective: str
    backend_id: str
    alpha: float | None


def nearest_assignment(inst: MetricInstance, centers) -> np.ndarray:
    """Assign each point to its nearest center, ties to the lowest center id."""
    centers = sorted(centers)
    if not centers:
        raise ValidationError("cannot assign to an empty center set")
    d = inst.distance_matrix()
    sub = d[np.array(centers), :]  # rows ordered by ascending center id
    idx = np.argmin(sub, axis=0)  # argmin takes the first = lowest id on ties
    return np.array(centers, dtype=int)[idx]


def ds_cost(inst: MetricInstance, centers, objective: str) -> float:
    """Nearest-center assignment cost of a center set under the objective."""
    centers = list(centers)
    if not centers:
        raise ValidationError("cost of an empty center set is undefined")
    d = inst.distance_matrix()
    mins = d[np.array(sorted(centers)), :].min(axis=0)
    return float(objective_value(mins, objective))


def solve_ds_exact(inst: MetricInstance, ds: CenterDiversitySpec, objective: str,
                   max_enumerations: int = EXACT_ENUMERATION_BUDGET) -> DsSolution:
    """Optimal diverse center set by exhaustive enumeration.

    Deterministic: center sets are visited in lexicographic order over sorted
    point ids and the first minimum-cost set is kept.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    n, k = inst.n, ds.k
    if math.comb(n, k) > max_enumerations:
        raise BudgetExceededError(
            f"C({n},{k}) = {math.comb(n, k)} exceeds the exact enumeration "
            f"budget of {max_enumerations}")
    d = inst.distance_matrix()
    best_cost = math.inf
    best_set = None
    for combo in diverse_center_sets(inst, ds):
        cost = objective_value(d[list(combo), :].min(axis=0), objective)
        if cost < best_cost:
            best_cost = float(cost)
            best_set = combo
    if best_set is None:
        report = "no size-k center set satisfies the center-count bounds"
        raise InfeasibleError(report, diagnosis=feasibility_precheck(
            inst, _vacuous_gf(inst.m), ds).failures)
    return DsSolution(centers=tuple(best_set), cost=best_cost,
                      objective=objective, backend_id="exact", alpha=1.0)


def _vacuous_gf(m):
    from .constraints import GroupFairnessSpec
    return GroupFairnessSpec(lower=(0,) * m, upper=(1,) * m, rho=0)


def solve_ds_greedy(inst: MetricInstance, ds: CenterDiversitySpec,
                    objective: str) -> DsSolution:
    """Farthest-first seeding repaired to feasibility by color-constrained swaps.

    Heuristic for instances beyond the exact enumerator; claims no
    approximation factor.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    n, k, m = inst.n, ds.k, ds.m
    if n < k:
        raise InfeasibleError(f"fewer points ({n}) than requested centers ({k})")
    d = inst.distance_matrix()
    colors = inst.colors
    counts_total = inst.color_counts()

    centers = [0]
    mind = d[0, :].copy()
    mind[0] = -np.inf  # a chosen point must not win a tie at distance 0
    while len(centers) < k:
        p = int(np.argmax(mind))  # argmax takes the lowest id on ties
        centers.append(p)
        np.minimum(mind, d[p, :], out=mind)
        mind[p] = -np.inf

    # color targets: clamp current counts into [L, min(U, available)], then
    # shift until they sum to k
    cur = np.bincount(colors[centers], minlength=m)
    cap = np.minimum(ds.upper, counts_total[:m])
    target = np.clip(cur, ds.lower, cap)
    while target.sum() > k:
        movable = [h for h in range(m) if target[h] > ds.lower[h]]
        if not movable:
            raise InfeasibleError("cannot reduce center counts to k within lower bounds")
        target[movable[0]] -= 1
    while target.sum() < k:
        movable = [h for h in range(m) if target[h] < cap[h]]
        if not movable:
            raise InfeasibleError(
                "no size-k center set can satisfy the center-count bounds")
        target[movable[0]] += 1

    # drop surplus centers per color: most redundant first (closest to the rest)
    for h in range(m):
        while cur[h] > target[h]:
            of_color = [c for c in centers if colors[c] == h]
            redundancy = []
            for c in of_color:
                others = [o for o in centers if o != c]
                redundancy.append((min((d[c, o] for o in others), default=math.inf), c))
            c_drop = min(redundancy)[1]
            centers.remove(c_drop)
            cur[h] -= 1
    # add missing centers per color: farthest-first within the color
    for h in range(m):
        while cur[h] < target[h]:
            pool = [p for p in np.flatnonzero(colors == h) if p not in centers]
            if not pool:
                raise InfeasibleError(f"no remaining points of color {h} to open")
            if centers:
                gains = [(min(d[p, c] for c in centers), -p) for p in pool]
                p_add = -max(gains)[1]
            else:
                p_add = pool[0]
            centers.append(int(p_add))
            cur[h] += 1

    centers = tuple(sorted(centers))
    if len(centers) != k or not check_ds(inst, centers, ds):
        raise ContractViolationError("greedy repair failed to reach feasibility")
    return DsSolution(centers=centers, cost=ds_cost(inst, centers, objective),
                      objective=objective, backend_id="greedy", alpha=None)


class ExactBackend:
    contract = DsSolverContract(
        backend_id="exact",
        alpha={"center": 1.0, "median": 1.0, "means": 1.0})

    def solve_raw(self, inst, ds, objective):
        sol = solve_ds_exact(inst, ds, objective)
        return sol.centers, 1.0


class GreedyBackend:
    contract = DsSolverContract(backend_id="greedy", alpha={})

    def solve_raw(self, inst, ds, objective):
        sol = solve_ds_greedy(inst, ds, objective)
        return sol.centers, None


class SubprocessBackend:
    """External solver: instance JSON on stdin, {"centers": [...], "alpha": x} on stdout."""

    def __init__(self, command: str, timeout: float = 300.0):
        self.command = command
        self.timeout = timeout
        self.contract = DsSolverContract(backend_id=f"subprocess:{command}", alpha={})

    def solve_raw(self, inst, ds, objective):
        payload = json.dumps({
            "instance": instance_to_dict(inst),
            "k": ds.k,
            "ds": {"lower": list(ds.lower), "upper": list(ds.upper)},
            "objective": objective,
        })
        try:
            proc = subprocess.run(shlex.split(self.command), input=payload,
                                  capture_output=True, text=True,
                                  timeout=self.timeout)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise ContractViolationError(f"backend process failed: {exc}") from exc
        if proc.returncode != 0:
            raise ContractViolationError(
                f"backend exited with {proc.returncode}: {proc.stderr.strip()}")
        try:
            out = json.loads(proc.stdout)
            centers = tuple(int(c) for c in out["centers"])
            alpha = out.get("alpha")
            alpha = float(alpha) if alpha is not None else None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ContractViolationError(f"backend emitted malformed JSON: {exc}") from exc
        return centers, alpha


def solve_ds_plugin(inst: MetricInstance, ds: CenterDiversitySpec, objective: str,
                    backend) -> DsSolution:
    """Run a backend and enforce its contract; never accepts a bad solution.

    Contract: exactly k distinct valid point ids, center-count bounds met
    exactly. The cost is recomputed here, not trusted.
    """
    contract = backend.contract
    if not contract.supports(objective):
        raise ContractViolationError(
            f"backend {contract.backend_id!r} does not support objective {objective!r}")
    centers, alpha = backend.solve_raw(inst, ds, objective)
    centers = tuple(sorted(int(c) for c in centers))
    if len(centers) != ds.k or len(set(centers)) != ds.k:
        raise ContractViolationError(
            f"backend {contract.backend_id!r} returned {len(centers)} centers, "
            f"{len(set(centers))} distinct; contract requires exactly k={ds.k} "
            f"distinct centers")
    if any(c < 0 or c >= inst.n for c in centers):
        raise ContractViolationError(
            f"backend {contract.backend_id!r} returned out-of-range center ids")
    if not check_ds(inst, centers, ds):
        raise ContractViolationError(
            f"backend {contract.backend_id!r} violated the center-count bounds")
    if alpha is None:
        alpha = contract.alpha_for(objective)
    return DsSolution(centers=centers, cost=ds_cost(inst, centers, objective),
                      objective=objective, backend_id=contract.backend_id,
                      alpha=alpha)


def get_backend(name: str):
    """Backend factory for CLI names: exact, greedy, subprocess:<command>."""
    if name == "exact":
        return ExactBackend()
    if name == "greedy":
        return GreedyBackend()
    if name.startswith("subprocess:"):
        return SubprocessBackend(name.split(":", 1)[1])
    raise ValidationError(f"unknown ds backend {name!r}")
