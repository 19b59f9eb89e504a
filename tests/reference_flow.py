"""The rounding network solved as one LP by HiGHS: the reference that
``fairclus.flow.min_cost_flow``'s successive shortest paths are compared
against.

Each arc is a column in [0, 1] with three ones, in its point, (center,
color) and center rows, and each row is held in its window. The network
holds no point rows, as each point's one unit is the assignment itself; the
reference adds them, with window [1, 1], ahead of the network's rows. The
matrix is totally unimodular, so with presolve off the simplex vertex HiGHS
returns is 0/1 and optimal.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp


def reference_min_cost_flow(net):
    """Arc flows of a cheapest assignment meeting every row window; None if
    HiGHS certifies that none does."""
    size, ones = len(net.arcs), np.ones(net.n)
    arc_rows = np.column_stack((net.arcs[:, 1], net.n + net.arc_rows))
    rows = sparse.csc_array((np.ones(3 * size), arc_rows.ravel(),
                             np.arange(0, 3 * size + 1, 3)),
                            shape=(net.n + net.lower.size, size))
    lower, upper = np.concatenate((ones, net.lower)), np.concatenate((ones, net.upper))
    result = milp(net.cost, constraints=LinearConstraint(rows, lower, upper),
                  bounds=Bounds(0.0, 1.0), options={"presolve": False})
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return result.x
