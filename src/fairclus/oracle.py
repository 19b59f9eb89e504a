"""Exhaustive ground truth for doubly fair clustering on tiny instances.

Enumerates every feasible center set and, per set, every assignment of points
to centers via a depth-first search with sound pruning (admissible cost
bounds, integer color-count reachability, empty-cluster reachability). The
pruned search provably returns the same optimum as the unpruned one; the
``prune=False`` switch exists so tests can confirm that claim by brute force.

Color-ratio checks run on exact integer thresholds precomputed per cluster
size, so no float comparison can flip a feasibility verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .constraints import (CenterDiversitySpec, Clustering, GroupFairnessSpec,
                          _require_colors, diverse_center_sets, make_clustering,
                          point_costs)
from .errors import BudgetExceededError, InfeasibleError, ValidationError
from .instance import MetricInstance

# sum-objective cost bounds are float sums; explore ties within this margin so
# float association noise can never prune the true optimum
PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class OracleBudget:
    max_center_sets: int = 1_000_000
    max_nodes_per_set: int = 50_000_000
    time_cap: float | None = None  # wall-clock seconds

    def __post_init__(self):
        if self.max_center_sets <= 0 or self.max_nodes_per_set <= 0:
            raise ValidationError("oracle budget caps must be positive")


def _count_tables(gf: GroupFairnessSpec, n: int):
    """lo[h][s], hi[h][s]: exact integer color-count window for cluster size s."""
    lo = [[0] * (n + 1) for _ in range(gf.m)]
    hi = [[0] * (n + 1) for _ in range(gf.m)]
    for h in range(gf.m):
        for s in range(n + 1):
            lo[h][s] = math.ceil(gf.lower[h] * s)
            hi[h][s] = math.floor(gf.upper[h] * s)
    return lo, hi


class _Search:
    """DFS over assignments for one fixed center tuple."""

    def __init__(self, inst, objective, lo, hi, prune, require_nonempty,
                 budget, deadline):
        self.inst = inst
        self.objective = objective
        self.lo = lo
        self.hi = hi
        self.prune = prune
        self.require_nonempty = require_nonempty
        self.budget = budget
        self.deadline = deadline
        self.colors = inst.colors
        self.n = inst.n
        self.m = inst.m
        self.best_cost = math.inf
        self.best = None  # (centers, assignment tuple)

    def run(self, centers):
        n, k = self.n, len(centers)
        d = self.inst.distance_matrix()
        contrib = point_costs(d[np.array(centers), :], self.objective)
        self.contrib = contrib.tolist()
        if self.objective == "center":
            suffix = [0.0] * (n + 1)
            for p in range(n - 1, -1, -1):
                suffix[p] = max(suffix[p + 1], min(contrib[a][p] for a in range(k)))
        else:
            suffix = [0.0] * (n + 1)
            for p in range(n - 1, -1, -1):
                suffix[p] = suffix[p + 1] + min(contrib[a][p] for a in range(k))
        self.suffix = suffix
        self.centers = centers
        self.k = k
        self.rem_color = [[0] * (n + 1) for _ in range(self.m)]
        for h in range(self.m):
            for p in range(n - 1, -1, -1):
                self.rem_color[h][p] = self.rem_color[h][p + 1] + (1 if self.colors[p] == h else 0)
        self.sizes = [0] * k
        self.counts = [[0] * self.m for _ in range(k)]
        self.assign = [0] * n
        self.nodes = 0
        self._dfs(0, 0.0)

    def _dead(self, p_next):
        """True when no completion can repair feasibility (sound, exact)."""
        rem = self.n - p_next
        if self.require_nonempty:
            empties = sum(1 for s in self.sizes if s == 0)
            if empties > rem:
                return True
        lo, hi = self.lo, self.hi
        for a in range(self.k):
            s = self.sizes[a]
            counts_a = self.counts[a]
            for h in range(self.m):
                if counts_a[h] > hi[h][s + rem]:
                    return True
                rem_h = self.rem_color[h][p_next]
                if counts_a[h] + rem_h < lo[h][s + rem_h]:
                    return True
        return False

    def _dfs(self, p, cost):
        self.nodes += 1
        if self.nodes > self.budget.max_nodes_per_set:
            raise BudgetExceededError(
                f"assignment search exceeded {self.budget.max_nodes_per_set} nodes")
        if self.deadline is not None and self.nodes % 4096 == 0 and \
                time.perf_counter() > self.deadline:
            raise BudgetExceededError("oracle time cap exceeded")
        if p == self.n:
            if self._leaf_feasible() and cost < self.best_cost:
                self.best_cost = cost
                self.best = (self.centers, tuple(self.assign))
            return
        h = int(self.colors[p])
        for a in range(self.k):
            step = self.contrib[a][p]
            new_cost = max(cost, step) if self.objective == "center" else cost + step
            if self.prune:
                if self.objective == "center":
                    bound = max(new_cost, self.suffix[p + 1])
                    if bound >= self.best_cost:  # max of floats: exact, no slack
                        continue
                else:
                    bound = new_cost + self.suffix[p + 1]
                    if bound >= self.best_cost + PRUNE_SLACK:
                        continue
            self.assign[p] = a
            self.sizes[a] += 1
            self.counts[a][h] += 1
            if not (self.prune and self._dead(p + 1)):
                self._dfs(p + 1, new_cost)
            self.sizes[a] -= 1
            self.counts[a][h] -= 1
        return

    def _leaf_feasible(self):
        for a in range(self.k):
            s = self.sizes[a]
            if s == 0:
                if self.require_nonempty:
                    return False
                continue
            counts_a = self.counts[a]
            for h in range(self.m):
                if not self.lo[h][s] <= counts_a[h] <= self.hi[h][s]:
                    return False
        return True


def brute_force_doubly_fair(inst: MetricInstance, gf: GroupFairnessSpec,
                            ds: CenterDiversitySpec, objective: str,
                            budget: OracleBudget | None = None,
                            prune: bool = True) -> Clustering:
    """Optimal clustering satisfying both constraint families exactly.

    The violation budget of ``gf`` is ignored: the optimum is defined at zero
    violation, with every cluster nonempty. Deterministic lexicographic
    tie-break over (center set, assignment).
    """
    _require_colors(inst, gf, "gf")
    _require_colors(inst, ds, "ds")
    if budget is None:
        budget = OracleBudget()
    deadline = (time.perf_counter() + budget.time_cap
                if budget.time_cap is not None else None)
    lo, hi = _count_tables(gf, inst.n)
    search = _Search(inst, objective, lo, hi, prune, require_nonempty=True,
                     budget=budget, deadline=deadline)
    sets_tried = 0
    for combo in diverse_center_sets(inst, ds):
        sets_tried += 1
        if sets_tried > budget.max_center_sets:
            raise BudgetExceededError(
                f"more than {budget.max_center_sets} feasible center sets")
        search.run(combo)
    if search.best is None:
        reason = ("no size-k center set satisfies the center-count bounds"
                  if not sets_tried else
                  "no assignment is group fair with zero violation for any "
                  "feasible center set")
        raise InfeasibleError(reason)
    centers, assign_idx = search.best
    assignment = tuple(centers[a] for a in assign_idx)
    return make_clustering(inst, centers, assignment, objective)


def brute_force_gf_assignment(inst: MetricInstance, centers,
                              gf: GroupFairnessSpec, objective: str,
                              budget: OracleBudget | None = None,
                              prune: bool = True,
                              require_nonempty: bool = False) -> Clustering:
    """Optimal zero-violation group fair assignment for a fixed center set.

    Empty clusters are allowed by default (their ratio constraints are
    vacuous), so with vacuous bounds this reduces to nearest-center
    assignment.
    """
    _require_colors(inst, gf, "gf")
    if budget is None:
        budget = OracleBudget()
    centers = tuple(sorted(int(c) for c in centers))
    if not centers:
        raise ValidationError("need at least one center")
    deadline = (time.perf_counter() + budget.time_cap
                if budget.time_cap is not None else None)
    lo, hi = _count_tables(gf, inst.n)
    search = _Search(inst, objective, lo, hi, prune,
                     require_nonempty=require_nonempty, budget=budget,
                     deadline=deadline)
    search.run(centers)
    if search.best is None:
        raise InfeasibleError(
            "no zero-violation group fair assignment exists for these centers")
    _, assign_idx = search.best
    assignment = tuple(centers[a] for a in assign_idx)
    return make_clustering(inst, centers, assignment, objective)
