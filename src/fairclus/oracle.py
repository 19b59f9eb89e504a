"""Exhaustive ground truth for doubly fair clustering on tiny instances.

The optimum is the lexicographic minimum of (cost, centers, assignment) over
every feasible center set and every zero-violation assignment to it with no
empty cluster. The search finds it as follows:

- An exact completion check answers, for points p..n-1 still to assign and
  the color counts of the clusters so far, whether the clusters can still
  all end nonempty and inside their integer color-count windows. It depends
  on colors and windows only, never on centers, so one memoised table serves
  every center set, and one call at the root refuses an infeasible request
  before any set is searched. The depth-first search over assignments enters
  only subtrees the check passes.
- Every center set is scored at once by its root bound: each point paid at
  its nearest center, combined as the objective combines costs
  (``constraints.center_set_costs``, the exact backend's scorer). Sets are
  visited in (bound, lexicographic) order, and the search stops at the first
  set whose bound cannot beat the incumbent. For the sum objectives a bound
  may exceed the incumbent's cost by the relative slack ``PRUNE_SLACK``, so
  float summation order never prunes the optimum at any scale of costs.
- Tie rule: an equal cost replaces the incumbent only in a set that sorts
  before the incumbent's, so such a set explores subtrees whose bound equals
  the incumbent's cost. Within one set, assignments are visited in
  lexicographic order and only a strictly cheaper one replaces the incumbent.

Color-ratio checks run on exact integer thresholds precomputed per cluster
size, so no float comparison can flip a feasibility verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .constraints import (CenterDiversitySpec, Clustering, GroupFairnessSpec,
                          _require_colors, center_set_costs, diverse_center_blocks,
                          make_clustering, point_costs, require_finite_costs)
from .errors import BudgetExceededError, InfeasibleError, ValidationError
from .instance import MetricInstance

# sum-objective cost bounds are float sums; explore bounds up to this relative
# margin above the incumbent so float association noise, at most about
# 2n * 2**-53 of the cost, can never prune the true optimum
PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class OracleBudget:
    max_center_sets: int = 1_000_000
    # caps the search nodes of each center set and the completion table's states
    max_nodes_per_set: int = 50_000_000
    time_cap: float | None = None  # wall-clock seconds

    def __post_init__(self):
        if self.max_center_sets <= 0 or self.max_nodes_per_set <= 0:
            raise ValidationError("oracle budget caps must be positive")
        if self.time_cap is not None and not self.time_cap >= 0:  # NaN fails too
            raise ValidationError(
                f"oracle time cap must be a nonnegative number of seconds, "
                f"got {self.time_cap}")


def _time_limit(budget):
    return time.perf_counter() + budget.time_cap if budget.time_cap is not None else None


def _check_time(deadline):
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceededError("oracle time cap exceeded")


def _suffix_bounds(mins, objective):
    """Along the last axis, what points p.. pay at least: each pays ``mins``,
    its cost at its nearest center, combined from the last point back as the
    search combines costs."""
    backwards = mins[..., ::-1]
    if objective == "center":
        return np.maximum.accumulate(backwards, axis=-1)[..., ::-1]
    return np.cumsum(backwards, axis=-1)[..., ::-1]


class _Completion:
    """Exact, memoised test: can points p..n-1 still be assigned so that
    every cluster ends nonempty and inside its integer color-count window?

    A state is the sorted tuple of the clusters' codes, a cluster's color
    counts packed as sum_h count_h * (n+1)**h. All clusters share one window
    table, so sorting loses nothing, and the counts sum to p."""

    def __init__(self, gf: GroupFairnessSpec, colors, budget, deadline):
        n = len(colors)
        self.n = n
        self.m = gf.m
        self.base = n + 1
        self.step = [(n + 1) ** int(h) for h in colors]  # code increment per point
        # exact integer windows per cluster size s: ceil(l_h s) and floor(u_h s)
        self.lo = [[-(-r.numerator * s // r.denominator) for s in range(n + 1)]
                   for r in gf.lower]
        self.hi = [[r.numerator * s // r.denominator for s in range(n + 1)]
                   for r in gf.upper]
        self.max_states = budget.max_nodes_per_set
        self.deadline = deadline
        self.table = {}

    def ok(self, p, key):
        known = self.table.get(key)
        if known is not None:
            return known
        if len(self.table) >= self.max_states:
            raise BudgetExceededError(
                f"completion table exceeded {self.max_states} states")
        _check_time(self.deadline)
        if p == self.n:
            result = all(self._fits(code) for code in key)
        else:
            step = self.step[p]
            result = False
            for i, code in enumerate(key):
                if i and code == key[i - 1]:
                    continue  # equal clusters give the same child
                child = tuple(sorted(key[:i] + (code + step,) + key[i + 1:]))
                if self.ok(p + 1, child):
                    result = True
                    break
        self.table[key] = result
        return result

    def _fits(self, code):
        counts = []
        for _ in range(self.m):
            code, count = divmod(code, self.base)
            counts.append(count)
        size = sum(counts)
        return size > 0 and all(self.lo[h][size] <= counts[h] <= self.hi[h][size]
                                for h in range(self.m))


class _Search:
    """DFS over assignments, one fixed center tuple per ``run``, keeping the
    incumbent across runs."""

    def __init__(self, inst, objective, completion, budget, deadline):
        self.contrib = point_costs(inst.distance_matrix(), objective)
        self.objective = objective
        self.completion = completion
        self.budget = budget
        self.deadline = deadline
        self.n = inst.n
        self.best_cost = math.inf
        self.best = None  # (centers, assignment tuple)

    def beats(self, cost, centers):
        """Whether a clustering of ``cost`` over ``centers`` replaces the
        incumbent: it is cheaper, or as cheap over a set that sorts first."""
        return cost < self.best_cost or (cost == self.best_cost
                                         and self.best[0] > centers)

    def may_beat(self, bound, centers):
        """Whether a set or subtree over ``centers`` whose costs are at least
        ``bound`` may hold a clustering that beats the incumbent."""
        if self.objective == "center":  # max of floats: exact, no slack
            return self.beats(bound, centers)
        return bound <= self.best_cost + PRUNE_SLACK * abs(self.best_cost)

    def run(self, centers):
        _check_time(self.deadline)
        k = len(centers)
        contrib = self.contrib[list(centers)]
        self.suffix = _suffix_bounds(contrib.min(axis=0), self.objective).tolist()
        self.suffix.append(0.0)
        self.contrib_rows = contrib.tolist()
        self.centers = centers
        self.k = k
        self.codes = [0] * k
        self.assign = [0] * self.n
        self.nodes = 0
        self._dfs(0, 0.0)

    def _dfs(self, p, cost):
        self.nodes += 1
        if self.nodes > self.budget.max_nodes_per_set:
            raise BudgetExceededError(
                f"assignment search exceeded {self.budget.max_nodes_per_set} nodes")
        if self.nodes % 4096 == 0:
            _check_time(self.deadline)
        codes = self.codes
        if p == self.n:
            # the search enters only subtrees the completion check passes
            if self.beats(cost, self.centers):
                self.best_cost = cost
                self.best = (self.centers, tuple(self.assign))
            return
        step = self.completion.step[p]
        center = self.objective == "center"
        for a in range(self.k):
            point_cost = self.contrib_rows[a][p]
            new_cost = max(cost, point_cost) if center else cost + point_cost
            rest = self.suffix[p + 1]
            bound = max(new_cost, rest) if center else new_cost + rest
            if not self.may_beat(bound, self.centers):
                continue
            codes[a] += step
            if self.completion.ok(p + 1, tuple(sorted(codes))):
                self.assign[p] = a
                self._dfs(p + 1, new_cost)
            codes[a] -= step


def brute_force_doubly_fair(inst: MetricInstance, gf: GroupFairnessSpec,
                            ds: CenterDiversitySpec, objective: str,
                            budget: OracleBudget | None = None) -> Clustering:
    """Optimal clustering satisfying both constraint families exactly.

    The optimum is defined at zero violation of ``gf``, with every cluster
    nonempty. Deterministic: the lexicographic minimum of (cost, center set,
    assignment).
    """
    _require_colors(inst, gf, "gf")
    _require_colors(inst, ds, "ds")
    require_finite_costs(inst, objective)
    if budget is None:
        budget = OracleBudget()
    deadline = _time_limit(budget)
    completion = _Completion(gf, inst.colors, budget, deadline)
    search = _Search(inst, objective, completion, budget, deadline)
    count = 0
    blocks = []
    for sets in diverse_center_blocks(inst, ds):
        count += len(sets)
        if count > budget.max_center_sets:
            raise BudgetExceededError(
                f"more than {budget.max_center_sets} feasible center sets")
        blocks.append(sets)
    # the root check refuses an infeasible request before any set is searched
    if blocks and completion.ok(0, (0,) * ds.k):
        sets = np.concatenate(blocks)
        bounds = np.concatenate([center_set_costs(inst, block, objective)
                                 for block in blocks])
        for i in np.argsort(bounds, kind="stable").tolist():
            centers = tuple(sets[i].tolist())
            if search.best is not None and not search.may_beat(bounds[i], centers):
                break
            search.run(centers)
    if search.best is None:
        reason = ("no size-k center set satisfies the center-count bounds"
                  if not count else
                  "no assignment is group fair with zero violation for any "
                  "feasible center set")
        raise InfeasibleError(reason)
    centers, assign_idx = search.best
    assignment = tuple(centers[a] for a in assign_idx)
    return make_clustering(inst, centers, assignment, objective)
