"""References that ``fairclus.oracle``'s search is compared against.

``exhaustive_doubly_fair`` prunes nothing: it scores every assignment to
every feasible center set. The other two are the oracle's pruned search as
it stood before the exact completion check. Center sets are visited in
lexicographic order. Each runs a depth-first search over assignments that
prunes by admissible cost bounds and by necessary conditions on the color
counts (``_dead``), and checks the exact windows at the leaves. The first
clustering of the least cost is kept.
"""

import math
from itertools import combinations, product

import numpy as np

from fairclus import InfeasibleError, check_ds, make_clustering
from fairclus.constraints import point_costs

PRUNE_SLACK = 1e-9


def _count_tables(gf, n):
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

    def __init__(self, inst, objective, lo, hi, require_nonempty):
        self.inst = inst
        self.objective = objective
        self.lo = lo
        self.hi = hi
        self.require_nonempty = require_nonempty
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
        suffix = [0.0] * (n + 1)
        for p in range(n - 1, -1, -1):
            cheapest = min(contrib[a][p] for a in range(k))
            suffix[p] = (max(suffix[p + 1], cheapest) if self.objective == "center"
                         else suffix[p + 1] + cheapest)
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
        if p == self.n:
            if self._leaf_feasible() and cost < self.best_cost:
                self.best_cost = cost
                self.best = (self.centers, tuple(self.assign))
            return
        h = int(self.colors[p])
        for a in range(self.k):
            step = self.contrib[a][p]
            new_cost = max(cost, step) if self.objective == "center" else cost + step
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
            if not self._dead(p + 1):
                self._dfs(p + 1, new_cost)
            self.sizes[a] -= 1
            self.counts[a][h] -= 1

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


def reference_doubly_fair(inst, gf, ds, objective):
    """``brute_force_doubly_fair`` without budgets, by the search above."""
    search = _Search(inst, objective, *_count_tables(gf, inst.n), require_nonempty=True)
    sets_tried = 0
    for combo in combinations(range(inst.n), ds.k):
        if check_ds(inst, combo, ds):
            sets_tried += 1
            search.run(combo)
    if search.best is None:
        raise InfeasibleError(
            "no size-k center set satisfies the center-count bounds"
            if not sets_tried else
            "no assignment is group fair with zero violation for any "
            "feasible center set")
    centers, assign_idx = search.best
    return make_clustering(inst, centers, tuple(centers[a] for a in assign_idx),
                           objective)


def reference_gf_assignment(inst, centers, gf, objective, require_nonempty=False):
    """The cheapest zero-violation group fair assignment to ``centers``, by
    the search above; a cluster may stay empty unless ``require_nonempty``,
    and the first of equal cost in lexicographic order is kept."""
    centers = tuple(sorted(int(c) for c in centers))
    search = _Search(inst, objective, *_count_tables(gf, inst.n), require_nonempty)
    search.run(centers)
    if search.best is None:
        raise InfeasibleError(
            "no zero-violation group fair assignment exists for these centers")
    _, assign_idx = search.best
    return make_clustering(inst, centers, tuple(centers[a] for a in assign_idx),
                           objective)


def exhaustive_doubly_fair(inst, gf, ds, objective):
    """``brute_force_doubly_fair`` by brute force: every center set that
    ``check_ds`` accepts, then every assignment to it, both in lexicographic
    order. An assignment counts when every cluster is nonempty and inside its
    exact integer color-count window; the first of the least cost is kept.
    Costs are summed point by point from the first, as the oracle's search
    sums them, so float ties break the same way."""
    n, k = inst.n, ds.k
    lo, hi = (np.array(t) for t in _count_tables(gf, n))  # [color, size]
    assigns = np.array(list(product(range(k), repeat=n)), dtype=int).reshape(-1, n)
    member = (assigns[:, :, None] == np.arange(k)).astype(int)  # [assignment, point, cluster]
    counts = np.einsum("apc,ph->ach", member,
                       (inst.colors[:, None] == np.arange(inst.m)).astype(int))
    sizes = counts.sum(axis=2)
    color = np.arange(inst.m)
    fits = (sizes >= 1).all(axis=1) & (
        (counts >= lo[color, sizes[:, :, None]]) &
        (counts <= hi[color, sizes[:, :, None]])).all(axis=(1, 2))
    best_cost, best = math.inf, None
    sets_tried = 0
    for centers in combinations(range(n), k):
        if not check_ds(inst, centers, ds):
            continue
        sets_tried += 1
        contrib = point_costs(inst.distance_matrix()[list(centers)], objective)
        cost = np.zeros(len(assigns))
        for p in range(n):
            cost = (np.maximum(cost, contrib[assigns[:, p], p]) if objective == "center"
                    else cost + contrib[assigns[:, p], p])
        cost[~fits] = math.inf
        i = int(np.argmin(cost))  # the first assignment of the least cost
        if cost[i] < best_cost:
            best_cost, best = float(cost[i]), (centers, assigns[i].tolist())
    if best is None:
        raise InfeasibleError(
            "no size-k center set satisfies the center-count bounds"
            if not sets_tried else
            "no assignment is group fair with zero violation for any "
            "feasible center set")
    centers, assign_idx = best
    return make_clustering(inst, centers, tuple(centers[a] for a in assign_idx),
                           objective)
