"""A dense bounded dual simplex for the small pivot-form models of ``lp``.

The program is

    minimize c @ y   subject to   lo <= A @ y <= hi,   0 <= y <= 1,

with c >= 0 and lo = -inf on the <= rows. It is solved as
[A, -I] z = 0 over z = (y, r), the row activities r lying in [lo, hi]
(Koberstein, *The dual simplex method*, PhD thesis, Paderborn 2005). The
all-slack basis, every r basic and every y at its lower bound 0, has reduced
costs c >= 0, so it is dual feasible and the dual simplex can start there;
in pivot form it is the nearest assignment. Each pivot takes the basic
variable with the largest bound violation out, to the bound it violates,
and brings in the nonbasic variable of the least ratio |d_j| / |alpha_j|,
the lowest index on ties, so every reduced cost keeps its sign. B^-1 is
dense and updated at each pivot, as are the basic values and the reduced
costs; all three are formed afresh from the basis columns every
``REFACTOR_EVERY`` pivots. The answer is a basic solution: every y outside
the basis lies at one of its bounds.

Verdicts are checked, not trusted:
- an optimum y must hold its box and every row within ``PRIMAL_TOL``, and
  the reduced costs of the duals solved afresh from the final basis
  columns must have their signs within ``DUAL_TOL``;
- an infeasible verdict must pass its Farkas row rho = e_p B^-1: over the
  column box, (rho A) @ y and rho @ r cannot meet, even with every row
  relaxed by the caller's ``slack``.
A failed check, a pivot limit reached or a singular basis gives no verdict,
and the caller solves the program another way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances on the scale of the row coefficients (ratios in [-1, 1] and
# +-1), the row bounds (point counts times those) and the costs (scaled so
# the largest lies in [1, 2)). PRIMAL_TOL lies 100x inside the residual
# that ``lp.check_lp_solution`` accepts, so a certified optimum passes it.
PRIMAL_TOL = 1e-9  # largest bound violation of an optimum
DUAL_TOL = 1e-9  # largest reduced cost of the wrong sign at an optimum
PIVOT_TOL = 1e-9  # smallest |alpha_j| that may enter
# Pivots per model on the benchmark pools at seeds 7 and 13, mean and
# largest: 8.8 and 22 per `center-lambda` radius probe, 14.8 and 31 per
# `medmeans-lp` cost LP (90 rows), 1.7 and 11 per `desk-oracle` model;
# near the size gate (80-160 rows) cost LPs took 5-59. The limit leaves
# room for many times that, and stops a run that cycles.
MAX_PIVOTS = 1000
REFACTOR_EVERY = 32  # pivots between two inversions of the basis matrix


@dataclass(frozen=True)
class Outcome:
    """``verdict`` is "optimal" (``y`` holds the basic solution),
    "infeasible" (certified), or why the run gave no verdict: "pivot
    limit", "singular basis", "primal residual", "reduced costs" or
    "Farkas row"."""

    verdict: str
    y: np.ndarray | None
    pivots: int


def solve(a, lo: np.ndarray, hi: np.ndarray, c: np.ndarray, slack: float) -> Outcome:
    """Run the dual simplex from the all-slack basis on ``a``, compressed
    sparse columns (an ``lp.LpModel`` or a ``csc_array``); ``c`` >= 0."""
    m, n = a.shape
    # [A, -I] column-major: the layout fixes BLAS's sums to the last bit
    full = np.zeros((m, n + m), order="F")
    full[a.indices, np.repeat(np.arange(n), np.diff(a.indptr))] = a.data
    full[np.arange(m), np.arange(n, n + m)] = -1.0
    a = full[:, :n]
    lb = np.concatenate((np.zeros(n), lo))
    ub = np.concatenate((np.ones(n), hi))
    cost = np.concatenate((c, np.zeros(m)))
    movable = lb < ub  # a fixed variable (an equality row's) never enters
    basis = np.arange(n, n + m)
    basic = np.zeros(n + m, dtype=bool)
    basic[n:] = True
    z = np.zeros(n + m)  # nonbasic values, each at a bound; basic entries 0
    at_upper = np.zeros(n + m, dtype=bool)
    binv = -np.eye(m)
    xb = np.zeros(m)  # the basic values: B x_B = -N z_N, as [A, -I] z = 0
    d = cost.copy()  # reduced costs
    priced = c.any()  # with zero costs every reduced cost stays 0
    pivots = 0
    while True:
        viol = np.maximum(lb[basis] - xb, xb - ub[basis])
        p = int(viol.argmax())
        if viol[p] <= PRIMAL_TOL:
            break
        if pivots == MAX_PIVOTS:
            return Outcome("pivot limit", None, pivots)
        # x_Bp = -alpha @ z_N: it leaves to the bound it violates, pushed
        # back by a nonbasic variable moving off its bound
        alpha = binv[p] @ full
        leaving = basis[p]
        up = xb[p] > ub[leaving]
        push = alpha if up else -alpha
        enter = ~basic & movable & np.where(at_upper, push < -PIVOT_TOL, push > PIVOT_TOL)
        if not enter.any():
            return _farkas(binv[p], a, lo, hi, slack, pivots)
        cand = enter.nonzero()[0]
        if priced:
            ratio = np.where(at_upper[cand], -d[cand], d[cand])
            np.maximum(ratio, 0.0, out=ratio)
            ratio /= np.abs(alpha[cand])
            q = int(cand[ratio.argmin()])
            d -= d[q] / alpha[q] * alpha
            d[q] = 0.0
        else:
            q = int(cand[0])
        col = binv @ full[:, q]
        bound = ub[leaving] if up else lb[leaving]
        step = (xb[p] - bound) / col[p]
        xb -= step * col
        xb[p] = z[q] + step
        z[leaving], z[q] = bound, 0.0
        at_upper[leaving] = up
        basic[leaving], basic[q] = False, True
        basis[p] = q
        pivots += 1
        if pivots % REFACTOR_EVERY:
            binv[p] /= col[p]
            col[p] = 0.0
            binv -= col[:, None] * binv[p]
        else:  # B^-1, the basic values and the reduced costs afresh
            try:
                binv = np.linalg.inv(full[:, basis])
            except np.linalg.LinAlgError:
                return Outcome("singular basis", None, pivots)
            xb = binv @ (z[n:] - a @ z[:n])
            if priced:
                d = cost - (cost[basis] @ binv) @ full

    # the checks: the answer y itself against its box and rows, and the
    # reduced costs of the duals solved afresh from the basis columns
    z[basis] = xb
    y = z[:n]
    r = a @ y
    if max(np.maximum(-y, y - 1.0).max(initial=0.0),
           np.maximum(lo - r, r - hi).max()) > PRIMAL_TOL:
        return Outcome("primal residual", None, pivots)
    if priced:
        if pivots:
            try:
                duals = np.linalg.solve(full[:, basis].T, cost[basis])
            except np.linalg.LinAlgError:
                return Outcome("singular basis", None, pivots)
            d = cost - duals @ full
        wrong = np.where(at_upper, d, -d)[~basic & movable]
        if wrong.size and wrong.max() > DUAL_TOL:
            return Outcome("reduced costs", None, pivots)
    return Outcome("optimal", y, pivots)


def _farkas(rho: np.ndarray, a: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            slack: float, pivots: int) -> Outcome:
    """Certify that no y in [0, 1] meets every row within ``slack``: every
    such y has rho @ (A y) = rho @ r for some r in [lo - slack, hi +
    slack], so the two ranges must be disjoint. Multipliers that differ from
    0 only by rounding are dropped first; any rho gives a valid check."""
    rho = np.where(np.abs(rho) > 1e-12 * np.abs(rho).max(), rho, 0.0)
    g = rho @ a
    y_lo, y_hi = np.minimum(g, 0.0).sum(), np.maximum(g, 0.0).sum()
    on = rho != 0.0
    rho, r_lo, r_hi = rho[on], lo[on] - slack, hi[on] + slack
    ends = np.array((rho * r_lo, rho * r_hi))  # only lo holds infinities
    r_min, r_max = ends.min(axis=0).sum(), ends.max(axis=0).sum()
    if y_hi < r_min or y_lo > r_max:
        return Outcome("infeasible", None, pivots)
    return Outcome("Farkas row", None, pivots)
