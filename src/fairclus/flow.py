"""Rounding a fractional assignment to fixed centers to 0/1 by min-cost flow.

The input is a k x n solution whose rows are the centers; the rounding is
an assignment, each point's center. The network is the layered point ->
(center, color) -> center flow (Bera et al., NeurIPS 2019): an arc per
support pair (center i, point j) with x[i, j] > EPS_POS, one unit out of
every point, and into each (center, color) pair and each center between the
floor and the ceiling of its fractional mass. Those k(m + 1) integer windows
carry the bounded-violation guarantee into the integral solution; a point's
one unit is no window but its assignment. Arc costs are d(i, j), squared
for the sum-of-squares objective; k-center uses the plain distances as well, and its
rounded radius stays within the support's, which the LP capped.

A point with one support arc has one way to be assigned: it is fixed there,
and its count leaves its windows. Only the F fractional points are routed,
by successive shortest paths (Ahuja, Magnanti and Orlin, Network Flows,
1993, ch. 9) with Dijkstra on reduced costs. The windows' lower bounds turn
into node demands, so every arc cost is >= 0 and zero potentials start the
first Dijkstra. Each path carries one or more of the O(F) units of excess,
so the run is O(F E log V) on E arcs and V nodes. The network matrix is
totally unimodular, so that integral optimum is also optimal over the
fractional flows, the LP solution among them: the rounded cost never
exceeds the fractional one. The fixed-center LP has a column x_ij in
[0, 1] per center i and point j that reaches it (``lp``). At one of its
vertices a point with a column at 1 has no other positive column, and the
positive columns of every other point are basic, so linearly independent.
They meet only their points' assignment rows and the k mass and at most
2km ratio rows, so they outnumber their points by at most k(2m + 1); a
fractional point has two or more of them, so F <= k(2m + 1) for any n. The
LP stage solves the program in pivot form, with each point's mass to one
center written as 1 minus its other columns; that substitution is an affine
bijection between the two feasible sets, so it maps vertices to vertices
and the count holds for the table ``lp.solve_lp`` returns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .constraints import point_costs
from .errors import PipelineError
from .instance import MetricInstance
from .lp import EPS_POS, FractionalSolution


@dataclass(frozen=True)
class FlowNetwork:
    """Support arcs and the windows of the rows over them.

    Rows, in order: each (center, color) pair with centers outermost, then
    each center. Every arc sits in two rows, and carries one unit or none.
    """

    n: int
    m: int
    centers: tuple
    arcs: np.ndarray  # (A, 2) int: center, point; point-major
    cost: np.ndarray  # (A,)
    arc_rows: np.ndarray  # (A, 2) int: each arc's (center, color) and center row
    lower: np.ndarray  # per row: floor and ceil of the snapped fractional masses
    upper: np.ndarray


def snap_to_integer(value):
    """Round values within EPS_POS of an integer; floors of exact reals need
    this."""
    nearest = np.rint(value)
    return np.where(np.abs(value - nearest) <= EPS_POS, nearest, value)


def build_flow(sol: FractionalSolution, inst: MetricInstance,
               objective: str) -> FlowNetwork:
    """The rounding network of ``sol``, whose rows are the centers, for
    ``objective``."""
    n, m, k = inst.n, inst.m, sol.rows.size
    # masses per (center, color), centers outermost, then per center
    table = sol.masses(inst)
    masses = snap_to_integer(np.concatenate((table[:, :-1].ravel(), table[:, -1])))
    point, slot = (sol.x.T > EPS_POS).nonzero()
    center = sol.rows[slot]
    cost = point_costs(inst.distance_matrix()[center, point], objective)
    arc_rows = np.array((slot * m + inst.colors[point], k * m + slot)).T
    return FlowNetwork(n=n, m=m, centers=tuple(sol.rows.tolist()),
                       arcs=np.array((center, point)).T, cost=cost, arc_rows=arc_rows,
                       lower=np.floor(masses), upper=np.ceil(masses))


def min_cost_flow(net: FlowNetwork) -> np.ndarray:
    """0/1 arc flows of a cheapest assignment meeting every row window.

    Points with one support arc take it; the fractional points are routed
    by ``_route`` through what their windows have left.
    """
    point = net.arcs[:, 1]
    degree = np.bincount(point, minlength=net.n)
    if not degree.all():
        raise PipelineError("flow", f"point {int(np.argmin(degree))} has no support arc")
    fixed = degree[point] == 1
    flows = fixed.astype(float)
    taken = np.bincount(net.arc_rows[fixed].ravel(), minlength=net.lower.size)
    lower = np.maximum(net.lower - taken, 0.0)
    upper = net.upper - taken
    free = (~fixed).nonzero()[0]
    if (upper < 0).any() or (not free.size and lower.any()):
        raise PipelineError("flow", "no assignment meets the row windows")
    if free.size:
        flows[free] = _route(point[free].tolist(), net.arc_rows[free, 0].tolist(),
                             net.cost[free].tolist(), lower.astype(int).tolist(),
                             upper.astype(int).tolist(), len(net.centers), net.m)
    return flows


def _route(points: list, rows: list, cost: list, lower: list, upper: list, k: int,
           m: int) -> np.ndarray:
    """0/1 flows on the given arcs, from ``points`` to their (center, color)
    ``rows``, of a cheapest routing of one unit per point through the
    residual windows ``lower``/``upper`` (k*m (center, color) rows, then k
    center rows).

    Nodes: the points, the rows in order, then a sink taking one unit per
    point. A window [lo, hi] on the arc out of a row becomes an arc of
    capacity hi - lo plus a demand of lo at its tail and a supply of lo at
    its head. Each round, one Dijkstra over the residual arcs from every
    node with excess finds the nearest node with a deficit; the potentials
    then rise by the distances, and the path carries what it can. Arc a's
    reverse is a ^ 1.
    """
    node = {p: u for u, p in enumerate(sorted(set(points)))}  # in id order
    f = len(node)
    sink = f + k * m + k
    to, cap, price, adj = [], [], [], [[] for _ in range(sink + 1)]
    for p, r, c in zip(points, rows, cost):
        u, v = node[p], f + r
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        cap += (1, 0)
        price += (c, -c)
    excess = [1] * f + [0] * (k * m + k) + [-f]
    for r, (lo, hi) in enumerate(zip(lower, upper)):
        u = f + r
        v = f + k * m + r // m if r < k * m else sink
        excess[u] -= lo
        excess[v] += lo
        if hi > lo:
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to += (v, u)
            cap += (hi - lo, 0)
            price += (0.0, -0.0)

    potential = [0.0] * (sink + 1)
    while True:
        sources = [v for v, e in enumerate(excess) if e > 0]
        if not sources:
            break
        dist = [np.inf] * (sink + 1)
        prev = [-1] * (sink + 1)
        for v in sources:
            dist[v] = 0.0
        heap = [(0.0, v) for v in sources]
        target = None
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if excess[u] < 0:
                target = u
                break
            base = potential[u]
            for a in adj[u]:
                if cap[a]:
                    v = to[a]
                    # reduced costs are >= 0 up to rounding, which the clamp removes
                    reduced = price[a] + base - potential[v]
                    nd = d + reduced if reduced > 0.0 else d
                    if nd < dist[v]:
                        dist[v], prev[v] = nd, a
                        heapq.heappush(heap, (nd, v))
        if target is None:
            raise PipelineError("flow", "no assignment meets the row windows")
        # nodes not settled before the target rise by its distance, which
        # keeps every residual reduced cost >= 0
        reach = dist[target]
        potential = [p + (reach if reach < d else d) for p, d in zip(potential, dist)]
        v = target
        path, amount = [], -excess[target]
        while prev[v] >= 0:
            a = prev[v]
            path.append(a)
            amount = min(amount, cap[a])
            v = to[a ^ 1]
        amount = min(amount, excess[v])
        excess[v] -= amount
        excess[target] += amount
        for a in path:
            cap[a] -= amount
            cap[a ^ 1] += amount
    return np.array(cap[1:2 * len(points):2], dtype=float)


def extract_assignment(flows: np.ndarray, net: FlowNetwork) -> np.ndarray:
    """Each point's center, an (n,) array of center ids, from the arc flows;
    each flow must be 0 or 1, and each point must take one arc."""
    flows = np.asarray(flows, dtype=float)
    units = np.rint(flows)
    unit = (np.abs(flows - units) <= EPS_POS) & (units * (units - 1.0) == 0.0)
    if not unit.all():  # NaN fails the first test
        bad = (~unit).nonzero()[0]
        i, j = net.arcs[bad[0]]
        raise PipelineError("extract", f"non-unit flow {flows[bad[0]]} on arc {i}->{j}")
    center, point = net.arcs[units == 1.0].T
    per_point = np.bincount(point, minlength=net.n)
    if not (per_point == 1).all():
        j = int((per_point != 1).nonzero()[0][0])
        raise PipelineError("extract",
                            f"point {j} assigned {int(per_point[j])} times, expected once")
    assignment = np.empty(net.n, dtype=center.dtype)
    assignment[point] = center
    return assignment


def check_mass_windows(counts: np.ndarray, net: FlowNetwork) -> None:
    """Verify that each center's per-color and total point counts sit in the
    network's windows; ``counts`` is the (k, m) table of color counts, a row
    per center of ``net.centers`` in that order."""
    got = np.concatenate((counts.ravel(), counts.sum(axis=1)))
    bad = ((got < net.lower) | (got > net.upper)).nonzero()[0]
    if bad.size:
        r = int(bad[0])
        raise PipelineError("flow", f"row {_row_labels(net)[r]} counts {got[r]:.0f} points, "
                                    f"outside [{net.lower[r]:.0f}, {net.upper[r]:.0f}]")


def _row_labels(net: FlowNetwork) -> list:
    """ch_<center>_<color> and c_<center>, in row order."""
    return ([f"ch_{i}_{h}" for i in net.centers for h in range(net.m)]
            + [f"c_{i}" for i in net.centers])


def dump_flow_text(net: FlowNetwork, stream) -> None:
    """One arc per line (``arc center point cost``), then one row per line
    (``row label lower upper``) with labels ch_<center>_<color> and
    c_<center>."""
    for (i, j), cost in zip(net.arcs.tolist(), net.cost.tolist()):
        stream.write(f"arc {i} {j} {cost!r}\n")
    for label, lower, upper in zip(_row_labels(net), net.lower.tolist(), net.upper.tolist()):
        stream.write(f"row {label} {int(lower)} {int(upper)}\n")
