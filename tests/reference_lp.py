"""The paper's full group-fairness LP, written densely as the specification
that ``fairclus.lp``'s sparse fixed-center model is compared against, and
solved as the input of the rerouting lemma's check.

The full LP has a column x_ij for every pair of points (i receives mass from
j) and an opening column y_i for every point i:

    sum_i x_ij = 1                      for every point j
    x_ij <= y_i
    sum_i y_i <= k
    l_h * sum_j x_ij <= sum_{j of color h} x_ij <= u_h * sum_j x_ij
    x_ij = 0 whenever d(i, j) > radius cap   (feasibility variant only)

The fixed-center LP over S keeps the x_ij with i in S and no y, and replaces
the opening rows with ``sum_j x_ij >= 1`` for every i in S. ``fairclus.lp``
writes it in pivot form; the tests reorder its rows as ``fairclus.lp`` does
(``point_model_from_dense``), substitute each point's pivot out of it
(``pivot_model_from_dense``) to compare the two, and solve it
(``solve_dense_reference``) as the independent check of a model's
feasibility and optimum.
"""

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from fairclus.instance import EPS_D
from fairclus.lp import RESIDUAL_TOL, FractionalSolution, _first_passing


def dense_reference(inst, gf, k, lam, objective, centers=None):
    """Kept pairs, (a_eq, b_eq, a_ub, b_ub, c) written row by row from the
    constraint list in the module docstring, with dense matrices. With
    ``centers``, the fixed-center variant: pairs of those centers only, no y,
    and a -sum_j x_ij <= -1 row per center in place of the opening rows."""
    n, d = inst.n, inst.distance_matrix()
    owners = range(n) if centers is None else centers
    pairs = [(i, j) for i in owners for j in range(n)
             if lam is None or d[i, j] <= lam * (1 + EPS_D)]
    col = {pair: a for a, pair in enumerate(pairs)}
    nx = len(pairs)
    ncols = nx + (n if centers is None else 0)
    a_eq = np.zeros((n, ncols))
    for (i, j), a in col.items():  # sum_i x_ij = 1
        a_eq[j, a] = 1.0
    ub = []
    if centers is None:
        for (i, j), a in col.items():  # x_ij <= y_i
            row = np.zeros(ncols)
            row[a], row[nx + i] = 1.0, -1.0
            ub.append((row, 0.0))
        row = np.zeros(ncols)  # sum_i y_i <= k
        row[nx:] = 1.0
        ub.append((row, float(k)))
    else:
        for i in centers:  # sum_j x_ij >= 1
            row = np.zeros(ncols)
            for j in range(n):
                if (i, j) in col:
                    row[col[i, j]] = -1.0
            ub.append((row, -1.0))
    lower, upper = gf.lower_floats(), gf.upper_floats()
    for i in owners:  # l_h * mass_i <= mass_ih <= u_h * mass_i
        for h in range(inst.m):
            for bound, sign, vacuous in ((upper[h], 1.0, upper[h] == 1.0),
                                         (lower[h], -1.0, lower[h] == 0.0)):
                if vacuous:
                    continue
                row = np.zeros(ncols)
                for j in range(n):
                    if (i, j) in col:
                        in_h = 1.0 if inst.colors[j] == h else 0.0
                        row[col[i, j]] = sign * (in_h - bound)
                ub.append((row, 0.0))
    c = np.zeros(ncols)
    for (i, j), a in col.items():
        if objective == "median":
            c[a] = d[i, j]
        elif objective == "means":
            c[a] = d[i, j] * d[i, j]
    return (pairs, a_eq, np.ones(n), np.array([r for r, _ in ub]),
            np.array([b for _, b in ub]), c)


@dataclass(frozen=True)
class FullSolution:
    """A repaired solution of the full LP. ``rows`` and ``x`` read as a
    ``FractionalSolution``'s, a row per point; ``y`` opens each point."""

    rows: np.ndarray
    x: np.ndarray
    y: np.ndarray


def solve_full_lp(inst, gf, k, lam, objective):
    """The full LP (capped at ``lam`` unless it is None; ``objective`` None,
    "median" or "means") solved with HiGHS: the <= rows over the assignment
    rows as one row-bounded matrix, columns in [0, 1], ``output_flag``
    off; then x and y clamped to [0, 1] and every column of x renormalized
    to sum 1. None if HiGHS certifies infeasibility."""
    pairs, a_eq, b_eq, a_ub, b_ub, c = dense_reference(inst, gf, k, lam, objective)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(c, constraints=LinearConstraint(
                       np.vstack((a_ub, a_eq)),
                       np.concatenate((np.full(b_ub.size, -np.inf), b_eq)),
                       np.concatenate((b_ub, b_eq))),
                   bounds=Bounds(0.0, 1.0), options={"output_flag": False})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    n, nx = inst.n, len(pairs)
    x = np.zeros((n, n))
    x[tuple(np.array(pairs).T)] = res.x[:nx]
    np.clip(x, 0.0, 1.0, out=x)
    sums = x.sum(axis=0)
    assert sums.min() >= 0.5, "an assignment column lost more than half its mass"
    return FullSolution(rows=np.arange(n), x=x / sums,
                        y=np.clip(res.x[nx:], 0.0, 1.0))


def solution_from_clustering(inst, centers, assignment):
    """The 0/1 solution induced by an integral clustering, a row per center."""
    rows = np.unique(np.asarray(centers, dtype=int))
    x = np.zeros((rows.size, inst.n))
    x[np.searchsorted(rows, np.asarray(assignment, dtype=int)), np.arange(inst.n)] = 1.0
    return FractionalSolution(rows=rows, x=x)


def _repaired(centers, x):
    """``solve_lp``'s repair of a k x n table: clamped to [0, 1], each
    column renormalized to sum 1."""
    np.clip(x, 0.0, 1.0, out=x)
    return FractionalSolution(rows=np.asarray(centers), x=x / x.sum(axis=0))


def point_model_from_dense(inst, gf, centers, lam, objective):
    """``dense_reference``'s fixed-center model over the sorted ``centers``,
    its rows reordered: (kept, a, lo, hi, c), with ``a`` dense and ``kept``
    the (center, point) pairs of its columns in row-major order.

    Rows: the mass rows, the ratio rows kept as <= rows, one equality row
    (the upper row) per color with 0 < l_h = u_h < 1, then the assignment
    rows; with every window exact the last color's rows are left out, and
    they are checked to be minus the sum of the other colors'."""
    k, m = len(centers), inst.m
    kept, a_eq, b_eq, a_ub, b_ub, c = dense_reference(inst, gf, k, lam, objective, centers)
    lower, upper = gf.lower, gf.upper
    dense_rows, at = {}, k  # the dense <= ratio rows by (center, color, side)
    for i in centers:
        for h in range(m):
            for side, vacuous in (("upper", upper[h] == 1), ("lower", lower[h] == 0)):
                if not vacuous:
                    dense_rows[i, h, side] = a_ub[at]
                    at += 1
    assert at == len(b_ub) and not b_ub[k:].any()
    exact = all(lo == up for lo, up in zip(lower, upper))
    if exact:  # the last color's rows follow from the others'
        def as_upper(i, h):
            return (dense_rows[i, h, "upper"] if (i, h, "upper") in dense_rows
                    else -dense_rows[i, h, "lower"])
        for i in centers:
            assert np.allclose(as_upper(i, m - 1),
                               -sum(as_upper(i, h) for h in range(m - 1)), atol=1e-12)
    colors = range(m - 1 if exact else m)
    equal = [h for h in colors if 0 < lower[h] == upper[h] < 1]
    for i in centers:
        for h in equal:
            assert np.array_equal(dense_rows[i, h, "lower"], -dense_rows[i, h, "upper"])
    below = [dense_rows[i, h, side] for i in centers for h in colors if h not in equal
             for side in ("upper", "lower") if (i, h, side) in dense_rows]
    ratio_eq = [dense_rows[i, h, "upper"] for i in centers for h in equal]
    a = np.vstack([a_ub[:k]] + below + ratio_eq + [a_eq])
    lo = np.concatenate((np.full(k + len(below), -np.inf), np.zeros(len(ratio_eq)), b_eq))
    hi = np.concatenate((b_ub[:k], np.zeros(len(below) + len(ratio_eq)), b_eq))
    return kept, a, lo, hi, c


def pivot_model_from_dense(inst, gf, centers, lam, objective):
    """``point_model_from_dense``'s model with each point's pivot
    substituted out, written densely: (pivot, kept, a, lo, hi, c).

    Point j's pivot is its nearest center among those it reaches, the
    lowest id on ties (-1 if it reaches none). Writing x_pj = 1 - sum_{i !=
    p} x_ij, column (i, j) becomes column (i, j) minus column (p, j), its
    cost c_ij - c_pj, and column (p, j) leaves every row's bounds. The
    assignment rows turn into 0 = 0 and are dropped (a point without a
    pivot, whose row reads 0 = 1, leaves the pivot -1 to say that the model
    is infeasible); x_pj >= 0 becomes the row sum_{i != p} x_ij <= 1, kept
    after the <= rows for each point of two or more columns."""
    n = inst.n
    kept, a, lo, hi, c = point_model_from_dense(inst, gf, centers, lam, objective)
    d = inst.distance_matrix()
    col = {pair: idx for idx, pair in enumerate(kept)}
    pivot = []
    for j in range(n):
        reached = [i for i, h in kept if h == j]
        pivot.append(min(reached, key=lambda i: (d[i, j], i)) if reached else -1)
    body, lo, hi = a[:-n], lo[:-n], hi[:-n]  # the assignment rows go
    shift = sum((body[:, col[p, j]] for j, p in enumerate(pivot) if p >= 0),
                np.zeros(len(body)))
    lo, hi = lo - shift, hi - shift
    others = [(i, j) for i, j in kept if i != pivot[j]]
    body = np.array([body[:, col[i, j]] - body[:, col[pivot[j], j]]
                     for i, j in others]).reshape(len(others), len(body)).T
    cost = np.array([c[col[i, j]] - c[col[pivot[j], j]] for i, j in others])
    width = Counter(j for _, j in others)
    pivot_rows = [[1.0 if h == j else 0.0 for _, h in others]
                  for j in range(n) if width[j] > 1]
    n_ub = int(np.count_nonzero(lo == -np.inf))
    pivot_rows = np.reshape(pivot_rows, (len(pivot_rows), len(others)))
    a = np.vstack((body[:n_ub], pivot_rows, body[n_ub:]))
    lo = np.concatenate((lo[:n_ub], np.full(len(pivot_rows), -np.inf), lo[n_ub:]))
    hi = np.concatenate((hi[:n_ub], np.ones(len(pivot_rows)), hi[n_ub:]))
    return np.array(pivot), others, a, lo, hi, cost


def solve_dense_reference(inst, gf, centers, lam, objective=None):
    """The fixed-center LP over ``centers`` written per point by
    ``dense_reference``, capped at ``lam`` unless it is None, solved with
    HiGHS's default presolve at unscaled costs and repaired as
    ``lp.solve_lp`` repairs: (the k x n solution over the sorted centers,
    the optimum), or None if HiGHS certifies infeasibility."""
    centers = sorted(int(i) for i in centers)
    pairs, a_eq, b_eq, a_ub, b_ub, c = dense_reference(
        inst, gf, len(centers), lam, objective, centers)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(c, constraints=LinearConstraint(
                       np.vstack((a_ub, a_eq)),
                       np.concatenate((np.full(b_ub.size, -np.inf), b_eq)),
                       np.concatenate((b_ub, b_eq))),
                   bounds=Bounds(0.0, 1.0), options={"output_flag": False})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    x = np.zeros((len(centers), inst.n))
    i, j = np.array(pairs).T
    x[np.searchsorted(centers, i), j] = res.x
    return _repaired(centers, x), float(res.fun)


def full_lp_residual(inst, gf, k, lam, sol):
    """Worst residual of ``sol`` on the full LP's rows (the opening rows
    ``x_ij <= y_i`` and ``sum_i y_i <= k`` among them), its column bounds,
    and the mass it puts on pairs beyond the radius cap ``lam``."""
    pairs, a_eq, b_eq, a_ub, b_ub, _ = dense_reference(inst, gf, k, lam, None)
    kept = np.zeros((inst.n, inst.n), dtype=bool)
    kept[tuple(np.array(pairs).T)] = True
    v = np.concatenate((sol.x[kept], sol.y))  # kept pairs in row-major order
    return float(max((a_ub @ v - b_ub).max(), np.abs(a_eq @ v - b_eq).max(),
                     -v.min(), v.max() - 1.0, np.abs(sol.x[~kept]).max(initial=0.0)))


def check_full_lp_solution(inst, gf, k, lam, sol):
    """Assert that ``sol`` breaks the full LP by at most RESIDUAL_TOL, the
    tolerance ``lp.check_lp_solution`` allows."""
    residual = full_lp_residual(inst, gf, k, lam, sol)
    assert residual <= RESIDUAL_TOL, f"full-LP residual {residual:.3e}"


def full_lp_min_feasible_lambda(inst, gf, k, radii):
    """Smallest radius among the sorted candidates at which the full LP
    capped there is feasible, with that probe's solution, searched as
    ``lp.min_feasible_lambda`` searches the fixed-center LP (lowest
    candidate first, then galloping up and bisecting); None if no candidate
    is feasible."""
    best = None

    def feasible(idx):
        nonlocal best
        sol = solve_full_lp(inst, gf, k, float(radii[idx]), None)
        if sol is not None:
            best = (float(radii[idx]), sol)
        return sol is not None

    if _first_passing(feasible, 0, len(radii)) == len(radii):
        return None
    return best
