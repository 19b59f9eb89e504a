"""Rounding a fractional assignment to fixed centers to 0/1 with one flow LP.

The input is a k x n solution whose rows are the centers, and so is the
rounding. The network is the layered point -> (center, color) -> center
flow, written as one LP: a variable per support arc (center i, point j) with
x[i, j] > EPS_POS, a row per point fixed at 1, and a row per (center, color)
pair and per center bounded by the floor and ceiling of its fractional mass.
Those integer windows carry the bounded-violation guarantee into the integral
solution. The point rows and the laminar center rows form a totally
unimodular matrix, so the simplex vertex HiGHS returns is 0/1. Arc costs are
d(i, j), squared for the sum-of-squares objective, so the rounded cost never
exceeds the fractional one; k-center uses the plain distances as well, and
its rounded radius stays within the support's, which the LP capped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import PipelineError, ValidationError
from .instance import MetricInstance
from .lp import EPS_POS, FractionalSolution


@dataclass(frozen=True)
class FlowNetwork:
    """Support arcs and the windows of the rows over them.

    Rows, in order: each point (window [1, 1]), each (center, color) pair
    with centers outermost, each center.
    """

    n: int
    m: int
    centers: tuple
    arcs: np.ndarray  # (A, 2) int: center, point; point-major
    cost: np.ndarray  # (A,)
    rows: sparse.csc_array  # (n + k*m + k, A), 0/1
    lower: np.ndarray  # per row: floor and ceil of the snapped fractional masses
    upper: np.ndarray


def snap_to_integer(value, eps: float = EPS_POS):
    """Round values within eps of an integer; floors of exact reals need this."""
    nearest = np.rint(value)
    return np.where(np.abs(value - nearest) <= eps, nearest, value)


def build_flow(sol: FractionalSolution, inst: MetricInstance,
               objective: str) -> FlowNetwork:
    """The rounding LP of ``sol``, whose rows are the centers, for
    ``objective``."""
    if objective not in ("center", "median", "means"):
        raise ValidationError(f"unknown objective {objective!r}")
    n, m, k = inst.n, inst.m, sol.rows.size
    # masses per (center, color), centers outermost, then per center
    masses = snap_to_integer(np.concatenate(
        (np.column_stack([sol.x[:, inst.colors == h].sum(axis=1) for h in range(m)]).ravel(),
         sol.x.sum(axis=1))))
    point, slot = np.nonzero(sol.x.T > EPS_POS)
    arcs = np.column_stack((sol.rows[slot], point))
    d = inst.distance_matrix()[arcs[:, 0], arcs[:, 1]]
    cost = d ** 2 if objective == "means" else d

    # each arc column holds three ones: its point, (center, color) and center rows
    size = len(arcs)
    row_of = np.column_stack((point, n + slot * m + inst.colors[point],
                              n + k * m + slot)).ravel()
    rows = sparse.csc_array((np.ones(3 * size), row_of, np.arange(0, 3 * size + 1, 3)),
                            shape=(n + k * m + k, size))
    lower = np.concatenate((np.ones(n), np.floor(masses)))
    upper = np.concatenate((np.ones(n), np.ceil(masses)))
    return FlowNetwork(n=n, m=m, centers=tuple(sol.rows.tolist()), arcs=arcs,
                       cost=cost, rows=rows, lower=lower, upper=upper)


def min_cost_flow(net: FlowNetwork) -> np.ndarray:
    """Arc flows of a cheapest assignment meeting every row window.

    No integrality is requested: HiGHS solves the LP and, the matrix being
    totally unimodular, returns a 0/1 vertex. Presolve is off because it
    costs more than it saves on these sparse rows, at every size measured
    (n from 6 to 2000).
    """
    result = milp(net.cost, constraints=LinearConstraint(net.rows, net.lower, net.upper),
                  bounds=Bounds(0.0, 1.0), options={"presolve": False})
    if result.status != 0:
        raise PipelineError("flow", f"no assignment meets the row windows: "
                                    f"{result.message}")
    return result.x


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
