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
import numbers
import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from .constraints import (OBJECTIVES, CenterDiversitySpec, _require_colors,
                          center_count_failures, center_set_costs, check_ds,
                          diverse_center_blocks)
from .errors import BudgetExceededError, ContractViolationError, InfeasibleError, ValidationError
from .instance import MetricInstance, instance_to_dict

EXACT_ENUMERATION_BUDGET = 10_000_000  # center sets the exact backend may enumerate
SUBPROCESS_TIMEOUT_S = 300.0  # wall time a subprocess backend may take per solve


@dataclass(frozen=True)
class DsSolution:
    """A diverse center set with its nearest-assignment cost."""

    centers: tuple
    cost: float
    objective: str
    backend_id: str
    alpha: float | None


def ds_cost(inst: MetricInstance, centers, objective: str) -> float:
    """Nearest-center assignment cost of a center set under the objective."""
    centers = list(centers)
    if not centers:
        raise ValidationError("cost of an empty center set is undefined")
    return float(center_set_costs(inst, np.array(centers), objective))


class ExactBackend:
    """Optimal diverse center set by exhaustive enumeration, factor 1.

    Deterministic: center sets are visited in lexicographic order over sorted
    point ids and the first minimum-cost set is kept.
    """

    backend_id = "exact"

    def solve_raw(self, inst, ds, objective):
        n, k = inst.n, ds.k
        if math.comb(n, k) > EXACT_ENUMERATION_BUDGET:
            raise BudgetExceededError(
                f"C({n},{k}) = {math.comb(n, k)} exceeds the exact enumeration "
                f"budget of {EXACT_ENUMERATION_BUDGET}")
        best_cost = math.inf
        best_set = None
        for sets in diverse_center_blocks(inst, ds):
            costs = center_set_costs(inst, sets, objective)
            i = int(np.argmin(costs))  # the first minimum of these sets
            if costs[i] < best_cost:
                best_cost = float(costs[i])
                best_set = tuple(sets[i].tolist())
        if best_set is None:
            raise InfeasibleError("no size-k center set satisfies the center-count bounds",
                                  diagnosis=center_count_failures(inst, ds))
        return best_set, 1.0


class GreedyBackend:
    """Farthest-first over the center sets that can still reach the bounds.

    A color may take the next center while it is below min(U_h, |P_h|) and
    the colors still below their L_h fit into the picks left after this one:
    that keeps the chosen set independent in the matroid of
    ``center_count_failures``, so k picks always end on a feasible set. Each
    pick opens the unchosen point of an allowed color farthest from the
    centers chosen so far, the lowest id on ties (the first pick is the
    lowest allowed id). Heuristic; claims no approximation factor.
    """

    backend_id = "greedy"

    def solve_raw(self, inst, ds, objective):
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
        return tuple(sorted(centers)), None


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
            return out["centers"], out.get("alpha")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ContractViolationError(f"backend emitted malformed JSON: {exc}") from exc


def solve_ds_plugin(inst: MetricInstance, ds: CenterDiversitySpec, objective: str,
                    backend) -> DsSolution:
    """Run a backend and enforce its contract; never accepts a bad solution.

    Contract: exactly k distinct valid point ids, each an ``int`` or numpy
    integer (never a bool), center-count bounds met exactly, and a claimed
    factor that is None or a finite real number >= 1 (never a bool or a
    string). This is the one place a ``DsSolution`` is made: the cost is
    recomputed here, not trusted; the factor is the one ``solve_raw`` claims.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    backend_id = backend.backend_id
    centers, alpha = backend.solve_raw(inst, ds, objective)
    if alpha is not None:
        claimed = alpha
        if isinstance(alpha, numbers.Real) and not isinstance(alpha, bool):
            try:
                alpha = float(alpha)
            except OverflowError:  # an integer past the largest float
                alpha = math.inf
        if not (isinstance(alpha, float) and 1.0 <= alpha < math.inf):  # NaN fails both
            raise ContractViolationError(
                f"backend {backend_id!r} claimed factor {claimed!r}; a factor "
                f"must be None or a finite number >= 1")
    try:
        ids = list(centers)
    except TypeError:
        ids = None
    if ids is None or not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool)
                              for c in ids):
        raise ContractViolationError(
            f"backend {backend_id!r} returned centers {centers!r}; centers "
            f"must be integer point ids")
    centers = tuple(sorted(int(c) for c in ids))
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
