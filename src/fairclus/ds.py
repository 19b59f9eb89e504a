"""Diversity-aware center selection backends.

The clustering pipeline consumes diverse center sets through an opaque
contract. A backend is an object with a ``backend_id`` string and a method
``solve_raw(inst, ds, objective) -> (centers, alpha)``: exactly k centers
satisfying the per-color count bounds, plus the approximation factor it
claims for this solve (None for no claim), the one place a factor is
declared. The reference backend enumerates all feasible center sets exactly
(factor 1 at desk scale); a greedy backend scales further but claims no
factor; arbitrary external solvers plug in over a subprocess protocol.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from .constraints import (OBJECTIVES, CenterDiversitySpec, _require_colors,
                          center_count_failures, check_ds, diverse_center_blocks,
                          objective_value)
from .errors import BudgetExceededError, ContractViolationError, InfeasibleError, ValidationError
from .instance import MetricInstance, instance_to_dict

EXACT_ENUMERATION_BUDGET = 10_000_000  # center sets the exact backend may enumerate
SCORE_CELLS = 1 << 20  # distances gathered at once by the exact backend: 8 MB
SUBPROCESS_TIMEOUT_S = 300.0  # wall time a subprocess backend may take per solve


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


def solve_ds_exact(inst: MetricInstance, ds: CenterDiversitySpec,
                   objective: str) -> DsSolution:
    """Optimal diverse center set by exhaustive enumeration.

    Deterministic: center sets are visited in lexicographic order over sorted
    point ids and the first minimum-cost set is kept.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    n, k = inst.n, ds.k
    if math.comb(n, k) > EXACT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"C({n},{k}) = {math.comb(n, k)} exceeds the exact enumeration "
            f"budget of {EXACT_ENUMERATION_BUDGET}")
    d = inst.distance_matrix()
    best_cost = math.inf
    best_set = None
    rows = max(1, SCORE_CELLS // max(1, k * n))  # sets scored per array operation
    for block in diverse_center_blocks(inst, ds):
        for start in range(0, len(block), rows):
            sets = block[start:start + rows]
            costs = objective_value(d[sets].min(axis=1), objective, axis=1)
            i = int(np.argmin(costs))  # the first minimum of these sets
            if costs[i] < best_cost:
                best_cost = float(costs[i])
                best_set = tuple(sets[i].tolist())
    if best_set is None:
        raise InfeasibleError("no size-k center set satisfies the center-count bounds",
                              diagnosis=center_count_failures(inst, ds))
    return DsSolution(centers=tuple(best_set), cost=best_cost,
                      objective=objective, backend_id="exact", alpha=1.0)


def _greedy_centers(inst: MetricInstance, ds: CenterDiversitySpec,
                    objective: str) -> tuple:
    """Farthest-first over the center sets that can still reach the bounds,
    as sorted point ids; see ``solve_ds_greedy``."""
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    _require_colors(inst, ds, "ds")
    failures = center_count_failures(inst, ds)
    if failures:
        raise InfeasibleError("no size-k center set satisfies the center-count bounds",
                              diagnosis=failures)
    d = inst.distance_matrix()
    colors = inst.colors
    lower = np.array(ds.lower)
    cap = np.minimum(ds.upper, inst.color_counts())
    cur = np.zeros(ds.m, dtype=int)
    mind = np.full(inst.n, np.inf)  # distance to the chosen centers; -inf once chosen
    centers = []
    for left in range(ds.k - 1, -1, -1):  # picks left after this one
        # centers still owed to the lower bounds after a pick of each color
        short = np.maximum(lower - cur, 0).sum() - (cur < lower)
        allowed = (cur < cap) & (short <= left)
        p = int(np.argmax(np.where(allowed[colors], mind, -np.inf)))  # lowest id on ties
        centers.append(p)
        cur[colors[p]] += 1
        np.minimum(mind, d[p], out=mind)
        mind[p] = -np.inf
    return tuple(sorted(centers))


def solve_ds_greedy(inst: MetricInstance, ds: CenterDiversitySpec,
                    objective: str) -> DsSolution:
    """Farthest-first over the center sets that can still reach the bounds.

    A color may take the next center while it is below min(U_h, |P_h|) and
    the colors still below their L_h fit into the picks left after this one:
    that keeps the chosen set independent in the matroid of
    ``center_count_failures``, so k picks always end on a feasible set. Each
    pick opens the unchosen point of an allowed color farthest from the
    centers chosen so far, the lowest id on ties (the first pick is the
    lowest allowed id). Heuristic; claims no approximation factor.
    """
    centers = _greedy_centers(inst, ds, objective)
    if not check_ds(inst, centers, ds):
        raise ContractViolationError("greedy pass left the center-count bounds")
    return DsSolution(centers=centers, cost=ds_cost(inst, centers, objective),
                      objective=objective, backend_id="greedy", alpha=None)


class ExactBackend:
    backend_id = "exact"

    def solve_raw(self, inst, ds, objective):
        sol = solve_ds_exact(inst, ds, objective)
        return sol.centers, 1.0


class GreedyBackend:
    backend_id = "greedy"

    def solve_raw(self, inst, ds, objective):
        return _greedy_centers(inst, ds, objective), None


class SubprocessBackend:
    """External solver: instance JSON on stdin, {"centers": [...], "alpha": x} on stdout."""

    def __init__(self, command: str):
        self.command = command
        self.backend_id = f"subprocess:{command}"

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
                                  timeout=SUBPROCESS_TIMEOUT_S)
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
    exactly, and a claimed factor that is None or a finite number >= 1. The
    cost is recomputed here, not trusted; the factor is the one ``solve_raw``
    claims.
    """
    backend_id = backend.backend_id
    centers, alpha = backend.solve_raw(inst, ds, objective)
    if alpha is not None and not 1.0 <= alpha < math.inf:  # NaN fails both
        raise ContractViolationError(
            f"backend {backend_id!r} claimed factor {alpha}; a factor must be "
            f"a finite number >= 1")
    centers = tuple(sorted(int(c) for c in centers))
    if len(centers) != ds.k or len(set(centers)) != ds.k:
        raise ContractViolationError(
            f"backend {backend_id!r} returned {len(centers)} centers, "
            f"{len(set(centers))} distinct; contract requires exactly k={ds.k} "
            f"distinct centers")
    if any(c < 0 or c >= inst.n for c in centers):
        raise ContractViolationError(
            f"backend {backend_id!r} returned out-of-range center ids")
    if not check_ds(inst, centers, ds):
        raise ContractViolationError(
            f"backend {backend_id!r} violated the center-count bounds")
    return DsSolution(centers=centers, cost=ds_cost(inst, centers, objective),
                      objective=objective, backend_id=backend_id, alpha=alpha)


def get_backend(name: str):
    """Backend factory for CLI names: exact, greedy, subprocess:<command>."""
    if name == "exact":
        return ExactBackend()
    if name == "greedy":
        return GreedyBackend()
    if name.startswith("subprocess:"):
        return SubprocessBackend(name.split(":", 1)[1])
    raise ValidationError(f"unknown ds backend {name!r}")
