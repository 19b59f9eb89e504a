"""Rounding a fractional assignment to fixed centers to 0/1 by min-cost flow.

The input is a k x n solution whose rows are the centers, and so is the
rounding. The network is the layered point -> (center, color) -> center
flow (Bera et al., NeurIPS 2019): an arc per support pair (center i, point
j) with x[i, j] > EPS_POS, one unit out of every point, and into each
(center, color) pair and each center between the floor and the ceiling of
its fractional mass. Those integer windows carry the bounded-violation
guarantee into the integral solution. Arc costs are d(i, j), squared for the
sum-of-squares objective; k-center uses the plain distances as well, and its
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
exceeds the fractional one. The fixed-center LP is written over classes
of points (``lp``), a column y_iG in [0, |G|] per center i and class G. At
one of its vertices a class with a column at |G| has no other positive
column, and the positive columns of every other class are basic, so
linearly independent. They meet only their classes' rows and the k mass
and at most 2km ratio rows, so they outnumber their classes by at most
k(2m + 1). HiGHS solves the program in pivot form, with each class's mass
to one center written as |G| minus its other columns; that substitution
is an affine bijection between the two feasible sets, so it maps vertices
to vertices and the count holds for the masses ``lp.solve_lp`` recovers.
Its northwest-corner split gives a class with p positive masses at most
p - 1 fractional points: F <= k(2m + 1) for any n.
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

    Rows, in order: each point (window [1, 1]), each (center, color) pair
    with centers outermost, each center. Every arc sits in three rows.
    """

    n: int
    m: int
    centers: tuple
    arcs: np.ndarray  # (A, 2) int: center, point; point-major
    cost: np.ndarray  # (A,)
    arc_rows: np.ndarray  # (A, 3) int: each arc's point, (center, color) and center row
    lower: np.ndarray  # per row: floor and ceil of the snapped fractional masses
    upper: np.ndarray


def snap_to_integer(value, eps: float = EPS_POS):
    """Round values within eps of an integer; floors of exact reals need this."""
    nearest = np.rint(value)
    return np.where(np.abs(value - nearest) <= eps, nearest, value)


def build_flow(sol: FractionalSolution, inst: MetricInstance,
               objective: str) -> FlowNetwork:
    """The rounding network of ``sol``, whose rows are the centers, for
    ``objective``."""
    n, m, k = inst.n, inst.m, sol.rows.size
    # masses per (center, color), centers outermost, then per center
    masses = snap_to_integer(np.concatenate(
        (np.column_stack([sol.x[:, inst.colors == h].sum(axis=1) for h in range(m)]).ravel(),
         sol.x.sum(axis=1))))
    point, slot = np.nonzero(sol.x.T > EPS_POS)
    arcs = np.column_stack((sol.rows[slot], point))
    cost = point_costs(inst.distance_matrix()[arcs[:, 0], arcs[:, 1]], objective)
    arc_rows = np.column_stack((point, n + slot * m + inst.colors[point],
                                n + k * m + slot))
    lower = np.concatenate((np.ones(n), np.floor(masses)))
    upper = np.concatenate((np.ones(n), np.ceil(masses)))
    return FlowNetwork(n=n, m=m, centers=tuple(sol.rows.tolist()), arcs=arcs,
                       cost=cost, arc_rows=arc_rows, lower=lower, upper=upper)


def min_cost_flow(net: FlowNetwork) -> np.ndarray:
    """0/1 arc flows of a cheapest assignment meeting every row window.

    Points with one support arc take it; the fractional points are routed
    by ``_route`` through what their windows have left.
    """
    n = net.n
    point = net.arcs[:, 1]
    degree = np.bincount(point, minlength=n)
    if not degree.all():
        raise PipelineError("flow", f"point {int(np.argmin(degree))} has no support arc")
    fixed = degree[point] == 1
    flows = fixed.astype(float)
    taken = np.bincount(net.arc_rows[fixed, 1:].ravel(), minlength=net.lower.size)[n:]
    lower = np.maximum(net.lower[n:] - taken, 0.0)
    upper = net.upper[n:] - taken
    free = np.flatnonzero(~fixed)
    if (upper < 0).any() or (not free.size and lower.any()):
        raise PipelineError("flow", "no assignment meets the row windows")
    if free.size:
        flows[free] = _route(point[free], net.arc_rows[free, 1] - n, net.cost[free],
                             lower.astype(int), upper.astype(int), len(net.centers), net.m)
    return flows


def _route(points, windows, cost, lower, upper, k: int, m: int) -> np.ndarray:
    """0/1 flows on the given point arcs of a cheapest routing of one unit
    per point through the residual windows ``lower``/``upper`` (k*m
    (center, color) rows, then k center rows).

    Nodes: the points, the rows in order, then a sink taking one unit per
    point. A window [lo, hi] on the arc out of a row becomes an arc of
    capacity hi - lo plus a demand of lo at its tail and a supply of lo at
    its head. Each round, one Dijkstra over the residual arcs from every
    node with excess finds the nearest node with a deficit; the potentials
    then rise by the distances, and the path carries what it can.
    """
    _, node_of = np.unique(points, return_inverse=True)
    f = int(node_of.max()) + 1
    sink = f + k * m + k
    to, cap, price, adj = [], [], [], [[] for _ in range(sink + 1)]

    def add_arc(u, v, capacity, c):
        adj[u].append(len(to))
        to.extend((v, u))
        cap.extend((capacity, 0))
        price.extend((c, -c))
        adj[v].append(len(to) - 1)

    excess = [1] * f + [0] * (k * m + k) + [-f]
    for u, r, c in zip(node_of.tolist(), windows.tolist(), cost.tolist()):
        add_arc(u, f + r, 1, c)
    heads = [f + k * m + r // m for r in range(k * m)] + [sink] * k
    for r, (head, lo, hi) in enumerate(zip(heads, lower.tolist(), upper.tolist())):
        excess[f + r] -= lo
        excess[head] += lo
        if hi > lo:
            add_arc(f + r, head, hi - lo, 0.0)

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
            for a in adj[u]:
                if cap[a]:
                    v = to[a]
                    # reduced costs are >= 0 up to rounding, which the clamp removes
                    nd = d + max(price[a] + potential[u] - potential[v], 0.0)
                    if nd < dist[v]:
                        dist[v], prev[v] = nd, a
                        heapq.heappush(heap, (nd, v))
        if target is None:
            raise PipelineError("flow", "no assignment meets the row windows")
        # nodes not settled before the target rise by its distance, which
        # keeps every residual reduced cost >= 0
        for u, d in enumerate(dist):
            potential[u] += min(d, dist[target])
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
    """0/1 table, a row per center, from the arc flows; each must be 0 or 1."""
    flows = np.asarray(flows, dtype=float)
    units = np.rint(flows)
    unit = (np.abs(flows - units) <= EPS_POS) & ((units == 0) | (units == 1))
    bad = np.flatnonzero(~unit)  # NaN fails the first test
    if bad.size:
        i, j = net.arcs[bad[0]]
        raise PipelineError("extract", f"non-unit flow {flows[bad[0]]} on arc {i}->{j}")
    chosen = net.arcs[units == 1]
    x2 = np.zeros((len(net.centers), net.n))
    x2[np.searchsorted(net.centers, chosen[:, 0]), chosen[:, 1]] = 1.0
    per_point = np.bincount(chosen[:, 1], minlength=net.n)
    if not np.all(per_point == 1):
        j = int(np.flatnonzero(per_point != 1)[0])
        raise PipelineError("extract",
                            f"point {j} assigned {int(per_point[j])} times, expected once")
    return x2


def check_mass_windows(x2: np.ndarray, net: FlowNetwork,
                       inst: MetricInstance) -> None:
    """Verify that the per-color and total point counts of each center of
    the 0/1 table ``x2`` sit in the network's windows."""
    onehot = inst.colors[:, None] == np.arange(inst.m)
    got = np.concatenate(((x2 @ onehot).ravel(), x2.sum(axis=1)))
    lower, upper = net.lower[net.n:], net.upper[net.n:]
    bad = np.flatnonzero((got < lower) | (got > upper))
    if bad.size:
        r = int(bad[0])
        raise PipelineError("flow", f"row {_row_labels(net)[net.n + r]} counts {got[r]:.0f} "
                                    f"points, outside [{lower[r]:.0f}, {upper[r]:.0f}]")


def _row_labels(net: FlowNetwork) -> list:
    """p_<point>, ch_<center>_<color> and c_<center>, in row order."""
    return ([f"p_{j}" for j in range(net.n)]
            + [f"ch_{i}_{h}" for i in net.centers for h in range(net.m)]
            + [f"c_{i}" for i in net.centers])


def dump_flow_text(net: FlowNetwork, stream) -> None:
    """One arc per line (``arc center point cost``), then one row per line
    (``row label lower upper``) with labels p_<point>, ch_<center>_<color>
    and c_<center>."""
    for (i, j), cost in zip(net.arcs.tolist(), net.cost.tolist()):
        stream.write(f"arc {i} {j} {cost!r}\n")
    for label, lower, upper in zip(_row_labels(net), net.lower.tolist(), net.upper.tolist()):
        stream.write(f"row {label} {int(lower)} {int(upper)}\n")
