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
writes it over classes of points; the tests sum this per-point model over
the classes to compare the two, and solve it (``solve_dense_reference``) as
the independent check of a class model's feasibility and optimum.
"""

import warnings
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
             if lam is None or d[i, j] <= lam + EPS_D]
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


def northwest_corner(model, value):
    """The k x n table of a class model's column values, split member by
    member as ``lp.solve_lp`` splits them: each class's members in id order
    fill its centers in sorted order, one unit each."""
    x = np.zeros((model.k, model.n))
    for g in range(model.class_sizes.size):
        members = iter(np.flatnonzero(model.point_class == g).tolist())
        j, room = next(members), 1.0
        cols = np.flatnonzero(model.kept[:, 1] == g)
        for a in cols[np.argsort(model.kept[cols, 0])]:
            s = int(np.searchsorted(model.centers, model.kept[a, 0]))
            mass = max(float(value[a]), 0.0)
            while mass > 0.0 and j is not None:
                take = min(mass, room)
                x[s, j] += take
                mass -= take
                room -= take
                if room <= 0.0:
                    j, room = next(members, None), 1.0
    return x


def sliced_milp_arrays(model):
    """What ``lp.solve_lp`` hands ``milp`` for a model with a free column,
    built the plain way: the free columns sliced from ``a`` (all of it when
    none is fixed), the fixed columns' part of each row as ``a @ value``.
    Returns the scaled costs, the matrix, the row bounds and the column
    upper bounds."""
    nfree = model.nfree
    col_size = model.class_sizes[model.kept[:, 1]].astype(float)
    value = col_size.copy()
    value[:nfree] = 0.0
    fixed_part = model.a @ value
    free = model.a if nfree == model.ncols else model.a[:, :nfree]
    c = model.c[:nfree]
    c = np.ldexp(c, 1 - np.frexp(c.max())[1])
    return c, free, model.lo - fixed_part, model.hi - fixed_part, col_size[:nfree]


def solve_lp_presolved(model):
    """A fixed-center model solved whole, the reference for ``lp.solve_lp``:
    no column fixed beforehand (every column in [0, |G|]), HiGHS's default
    presolve, unscaled costs, then ``northwest_corner`` and ``solve_lp``'s
    repair. None if HiGHS certifies infeasibility."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(model.c, constraints=LinearConstraint(model.a, model.lo, model.hi),
                   bounds=Bounds(0.0, model.class_sizes[model.kept[:, 1]]),
                   options={"output_flag": False})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return _repaired(model.centers, northwest_corner(model, res.x))


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
