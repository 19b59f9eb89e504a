"""The group-fairness linear program over a fixed center set S: the fair
assignment LP of Bera et al. (NeurIPS 2019), as a feasibility program at a
radius cap and as a cost-minimizing program for the sum / sum-of-squares
objectives.

Variable convention throughout the package: ``x[i, j]`` is the mass point j
sends to center i, i.e. the extent to which j is assigned to i, for every
center i in S and every point j. The constraints are:

    sum_{i in S} x_ij = 1               for every point j
    sum_j x_ij >= 1                     for every center i in S
    l_h * sum_j x_ij <= sum_{j of color h} x_ij <= u_h * sum_j x_ij
                                        for every center i in S and color h
    x_ij = 0 whenever d(i, j) > radius cap   (feasibility variant only)

Radius-capped variables are left out of the model rather than constrained
to zero; the feasible set is the same and the model much smaller. A color
with 0 < l_h = u_h < 1 has one equality row per center in place of its two
ratio rows. When every color's window is exact the ratios sum to 1, so the
last color's rows are minus the sum of the others' and are left out.

The LP solvers get the program in pivot form, relative to each point's
nearest center. Point j's pivot p(j) is its nearest center among those it
reaches, the lowest id on ties; for a cost model, its cheapest center.
Writing x_pj = 1 - sum_{i != p} x_ij leaves a column per non-pivot pair
(i, j) in [0, 1], holding its own coefficients minus its pivot's, at cost
c_ij - c_pj >= 0; the pivots' coefficients move into the row bounds, and
each assignment row becomes the pivot's bound,

    sum_{i != p(j)} x_ij <= 1          for every point j of two or more columns

(with one column, that column's bound [0, 1] says it). The substitution
is an affine bijection between the two feasible sets, so it keeps the
optimum, shifted by the constant sum_j c_pj, and maps vertices to
vertices. The all-slack start of a dual simplex, every column at 0, is
the nearest assignment, which holds almost all of an optimum's mass.

``solve_lp`` decides in one place how a model is solved. When the nearest
assignment already meets every row it is the answer, and no solver runs.
Otherwise two solvers take the program (``_solve_columns``). A model whose
dense matrix and basis fit ``_SIMPLEX_CELLS`` goes to the bounded dual
simplex of ``simplex``, which starts there and whose every verdict is
checked; larger models, and any the simplex cannot certify, go to HiGHS
through scipy's ``milp``. Both return a vertex.

A model is plain numpy arrays, its matrix in compressed sparse columns
(``LpModel``), and the simplex reads a dense copy of it. scipy is imported
only for HiGHS: ``milp`` imports ``scipy.optimize`` on its first call, and
``LpModel.a``, the matrix as a scipy ``csc_array``, imports
``scipy.sparse`` on its first read. A solve that HiGHS never sees loads no
scipy module.

Every pipeline solves this program over its diverse centers: k-center
searches for the smallest radius cap at which it is feasible, median and
means minimize its cost. A solution keeps a row of x per center, so it is a
k x n table and no mass can lie off the centers.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import simplex
from .constraints import GroupFairnessSpec, point_costs
from .errors import PipelineError, ValidationError
from .instance import EPS_D, MetricInstance

if TYPE_CHECKING:
    from scipy import sparse

log = logging.getLogger("fairclus")

EPS_POS = 1e-9  # support threshold: x_ij counts as positive above this
RESIDUAL_TOL = 1e-7  # accepted constraint residual after repair
MASS_TOL = 1e-6  # accepted slack on mass checks and on a cost against its LP bound
# every HiGHS call: no presolve (see _solve_columns). ``milp``'s own ``disp=False``
# keeps HiGHS off the console; an option ``milp`` does not know costs a
# warning and another HiGHS options build on every call.
_HIGHS_OPTIONS = {"presolve": False}
# A model goes to the in-package dual simplex (``simplex``) when rows *
# (rows + columns), the cells of its dense matrix and basis, is at most this;
# above it, to HiGHS. Measured on ``random_instance`` median models (m=2,
# exact GF, greedy centers; median of 5 seeds, best of 5 calls each, 2-vCPU
# VM), simplex against ``milp``: n=130, k=4 (7.3e4 cells) 1.7 vs 2.4 ms;
# n=90, k=8 (7.8e4) 2.4 vs 3.2 ms; n=140, k=4 (8.4e4) 2.6 vs 2.5 ms; n=150,
# k=4 (9.6e4) 2.9 vs 1.9 ms; n=200, k=4 (1.7e5) 4.5 vs 2.2 ms. The
# benchmark's largest model, an n=80, k=4 cost LP, has 3.1e4 cells.
_SIMPLEX_CELLS = 80_000
# The counting bound tests every subset of the centers up to this k; its cost
# grows as 2^k, so above it only the 2k + 1 sets {i}, S - {i} and S are tested.
_ALL_SETS_MAX_K = 10
# The counting bound tests its first 16 candidate radii in one numpy pass,
# then 4 times as many per pass, but holds at most about this many count
# bins in one pass.
_WINDOW_CELLS = 1 << 20


@dataclass(frozen=True)
class FractionalSolution:
    """Assignment-mass table of a solution, a row per point that may receive
    mass (the centers, for every solution the package makes)."""

    rows: np.ndarray  # sorted point ids
    x: np.ndarray  # (len(rows), n), x[a, j] = mass from point j to rows[a]

    def masses(self, inst: MetricInstance) -> np.ndarray:
        """Read-only (len(rows), m + 1) table of the mass each row receives
        from the points of each of ``inst``'s m colors, then in all. The LP
        stage's check and the flow's windows both read it, so it is summed
        once per solution and instance."""
        memo = self.__dict__.get("_masses")
        if memo is None or memo[0] is not inst:
            table = np.empty((self.rows.size, inst.m + 1))
            for h in range(inst.m):
                np.add.reduce(self.x[:, inst.colors == h], axis=1, out=table[:, h])
            np.add.reduce(self.x, axis=1, out=table[:, -1])
            table.flags.writeable = False
            memo = self.__dict__["_masses"] = (inst, table)
        return memo[1]


@dataclass
class LpModel:
    """The program over the sorted center set ``centers`` as the LP solvers
    read it, plus enough context to interpret it.

    The model is in pivot form: point j's mass to its pivot center
    ``pivot[j]`` (-1 if j reaches no center) is 1 minus its mass to the
    other centers, and is not a column. Column ``a`` is ``x[kept[a, 0],
    kept[a, 1]]``, the mass point ``kept[a, 1]`` sends to center
    ``kept[a, 0]``, one of its non-pivot centers, and lies in [0, 1];
    columns are in row-major (center, point) order. Its cost ``c[a]`` is
    its center's cost minus its pivot's.

    The matrix A, whose row r holds ``lo[r] <= A[r] @ x <= hi[r]``, is
    kept as the plain numpy arrays of its compressed sparse columns:
    ``data``, row ``indices`` (sorted within each column) and ``indptr``,
    of ``shape`` (rows, columns). Its rows are first the <= rows (``lo =
    -inf``), one mass row per center, then per center the <= ratio rows of
    ``gf.ratio_rows``, then one ``sum_{i != pivot} x_ij <= 1`` row per
    point of two or more columns; then the = rows, per center its equality
    ratio rows. The pivots' mass sits in the bounds of the mass and ratio
    rows.

    ``a`` is A as a scipy ``csc_array``, built on its first read, which
    imports ``scipy.sparse``; only the HiGHS branch of ``_solve_columns``
    reads it in a solve. ``a_ub`` and ``a_eq`` are its two row blocks,
    sliced from ``a`` on every read; their bounds are ``hi[:n_ub]`` and
    ``hi[n_ub:]``.
    """

    n: int
    kept: np.ndarray  # (A, 2) int array of (center, point) pairs
    data: np.ndarray  # A's nonzero entries, column by column
    indices: np.ndarray  # the row of each entry
    indptr: np.ndarray  # (columns + 1,): column a's entries are [indptr[a], indptr[a + 1])
    shape: tuple  # (rows, columns) of A
    lo: np.ndarray  # row lower bounds
    hi: np.ndarray  # row upper bounds
    c: np.ndarray  # objective coefficients (all zero for feasibility models)
    lam: float | None  # radius cap, None for an uncapped model
    gf: GroupFairnessSpec
    centers: np.ndarray  # sorted ids of the centers
    pivot: np.ndarray  # (n,) int: the pivot center of each point, or -1

    @property
    def k(self) -> int:
        return self.centers.size

    @property
    def ncols(self) -> int:
        return len(self.kept)

    @property
    def n_ub(self) -> int:
        return int(np.count_nonzero(self.lo == -np.inf))

    @functools.cached_property
    def a(self) -> sparse.csc_array:
        from scipy import sparse
        return sparse.csc_array((self.data, self.indices, self.indptr), shape=self.shape)

    @property
    def a_ub(self) -> sparse.csc_array:
        return self.a[:self.n_ub]

    @property
    def a_eq(self) -> sparse.csc_array:
        return self.a[self.n_ub:]


@functools.lru_cache(maxsize=64)
def _column_table(ub: tuple, eq: tuple, m: int) -> tuple:
    """The parts of a pivot-form column that depend only on the ratio rows
    ``ub`` and ``eq`` (``GroupFairnessSpec.ratio_rows``) of an m-color
    spec, as read-only arrays: ``coef``, ``layout``, ``by`` and
    ``template``.

    ``coef[h]`` holds a center's own coefficients for a point of color h:
    -1 in its mass row and, in its ratio rows, [h = c] - u (upper and
    equality rows on color c) or l - [h = c] (lower rows). ``layout`` lists
    a column's entries in order, as (side, index into coef[h]): both mass
    rows, both slots' <= rows, the point's row, both slots' equality rows;
    side 0 is the lower slot, 1 the higher, 2 the point's row. An entry's
    row is (lower slot, higher slot, point's row) @ ``by`` plus a base that
    depends on k. Row 2h + (1 if the column's center is the lower slot,
    else 0) of ``template`` holds the entries' values for color h: the
    lower slot's coefficients coef[h] times that sign, the higher's their
    negatives, 0 for the point's row.
    """
    nb = len(ub)
    coef = [[-1.0] + [b - (c == h) if kind == "lower" else (c == h) - b
                      for c, kind, b in ub + eq] for h in range(m)]
    layout = ((0, 0), (1, 0), *((side, 1 + r) for side in (0, 1) for r in range(nb)),
              (2, 0), *((side, 1 + nb + e) for side in (0, 1) for e in range(len(eq))))
    step = [1 if i == 0 else nb if i <= nb else len(eq) for _, i in layout]
    by = np.array([[s * (side == 0) for s, (side, _) in zip(step, layout)],
                   [s * (side == 1) for s, (side, _) in zip(step, layout)],
                   [side == 2 for side, _ in layout]])
    template = np.array([[sign * coef[h][i] if side == 0 else -(sign * coef[h][i])
                          if side == 1 else 0.0 for side, i in layout]
                         for h in range(m) for sign in (-1.0, 1.0)])
    coef = np.array(coef)
    for array in (coef, by, template):
        array.flags.writeable = False
    return coef, layout, by, template


def _build(inst: MetricInstance, gf: GroupFairnessSpec, centers,
           lam: float | None, objective: str | None) -> LpModel:
    centers = _center_ids(inst, centers)
    if gf.m != inst.m:
        raise ValidationError(f"gf spec has {gf.m} colors, instance has {inst.m}")
    n, k, m = inst.n, centers.size, gf.m
    dist = inst.distance_matrix()[centers]
    reach = np.ones((k, n), dtype=bool) if lam is None else dist <= lam * (1 + EPS_D)

    # pivots: the reached center nearest each point, the lowest on ties.
    # Columns: the other reached (center slot, point) pairs, in row-major
    # order.
    pivot = np.where(reach, dist, np.inf).argmin(axis=0)
    pivots = pivot, np.arange(n)
    reached = reach[pivots]
    reach[pivots] = False
    slot, point = reach.nonzero()
    piv = pivot[point]
    has_row = reach.sum(axis=0) > 1

    # rows: k mass rows, the <= ratio rows (center by center), a row per
    # point of two or more columns, then the equality ratio rows. Column
    # (s, j) holds s's coefficients minus its pivot's (``_column_table``),
    # in the rows of the lower slot first, and 1 in j's row if j has one.
    # Zero coefficients are not stored.
    ub, eq = gf.ratio_rows
    nb, ne = len(ub), len(eq)
    coef, layout, by, template = _column_table(ub, eq, m)
    n_head = k * (1 + nb)
    n_row = int(np.count_nonzero(has_row))
    n_ub = n_head + n_row
    base = [0 if side == 2 or i == 0 else k + i - 1 if i <= nb else n_ub + i - 1 - nb
            for side, i in layout]
    rows = np.array((np.minimum(slot, piv), np.maximum(slot, piv),
                     n_head - 1 + has_row.cumsum()[point])).T @ by + base
    data = template[2 * inst.colors[point] + (slot < piv)]
    data[:, 2 + 2 * nb] = has_row[point]
    stored = data != 0.0

    # the pivots' part of each row, moved into its bounds
    at_pivot = np.bincount(pivot * m + inst.colors, reached,
                           minlength=k * m).reshape(k, m) @ coef
    part = 0.0 - at_pivot  # not -at_pivot, which leaves -0.0 bounds
    equal = part[:, 1 + nb:].ravel()
    lo = np.concatenate((np.full(n_ub, -np.inf), equal))
    hi = np.concatenate((part[:, 0] - 1.0, part[:, 1:1 + nb].ravel(), np.ones(n_row), equal))

    cost = np.zeros(slot.size)
    if objective is not None:
        cost = point_costs(dist, objective)
        cost = cost[slot, point] - cost[piv, point]

    return LpModel(n=n, kept=np.array((centers[slot], point)).T, data=data[stored],
                   indices=rows[stored],
                   indptr=np.concatenate(([0], stored.sum(axis=1).cumsum())),
                   shape=(n_ub + k * ne, slot.size), lo=lo, hi=hi, c=cost, lam=lam,
                   gf=gf, centers=centers, pivot=np.where(reached, centers[pivot], -1))


def _center_ids(inst: MetricInstance, centers) -> np.ndarray:
    """Sorted ids of a center set, validated: at least one, distinct, and in
    [0, n)."""
    ids = [int(c) for c in centers]
    out = sorted(set(ids))
    if not ids or len(out) != len(ids) or out[0] < 0 or out[-1] >= inst.n:
        raise ValidationError(f"centers must be one or more distinct ids in [0, {inst.n})")
    return np.array(out)


def build_gf_feasibility_lp(inst: MetricInstance, gf: GroupFairnessSpec,
                            centers, lam: float | None) -> LpModel:
    """Feasibility program over ``centers`` (distinct point ids) with
    assignments capped at radius ``lam`` (no cap if ``lam`` is None), a
    finite number >= 0: each center's own column always stays."""
    if lam is not None:
        lam = float(lam)
        if not 0.0 <= lam < np.inf:  # NaN fails too
            raise ValidationError(f"radius cap must be finite and >= 0, got {lam}")
    return _build(inst, gf, centers, lam=lam, objective=None)


def build_gf_objective_lp(inst: MetricInstance, gf: GroupFairnessSpec,
                          centers, objective: str) -> LpModel:
    """Cost-minimizing program (no radius cutoff) for median or means over
    ``centers`` (distinct point ids): those centers are open, and only they
    receive mass."""
    if objective not in ("median", "means"):
        raise ValidationError("objective LP supports 'median' and 'means' only")
    return _build(inst, gf, centers, lam=None, objective=objective)


def solve_lp(model: LpModel):
    """Solve a model; returns a repaired FractionalSolution, or None if the
    model is infeasible.

    The model is decided in this order:
    1. A point that reaches no center makes it infeasible.
    2. The pivots' assignment, every column at 0, is the answer when it
       meets every row within RESIDUAL_TOL, the tolerance of
       ``check_lp_solution`` (max(lo, -hi) <= RESIDUAL_TOL), at any size.
       Every column costs c_ij - c_pj >= 0, so it is also an optimum.
    3. Else a model with no column (k = 1, or every point reaches one
       center) is infeasible.
    4. Else ``_solve_columns``, the one LP-solver entry, solves it.
    No solver runs in the first three. Each call logs one DEBUG record on
    the ``fairclus`` logger: the radius (``uncapped LP`` for a cost
    model), the point and column counts, the solver that ran with its
    pivot count (``no solve`` when none ran), or why it fell back to
    HiGHS, and the verdict.

    Each column's value is scattered into its (center, point) cell, and
    each pivot takes 1 minus its point's columns. Both solvers return a
    vertex, where at most k(2m + 1) points are fractional (see ``flow``).
    The solution is k x n, a row per center. Repair: negatives clamped,
    each assignment column renormalized to sum exactly 1 (the flow rounds
    each column as one unit of mass). Residuals are not re-verified; see
    ``check_lp_solution``, which checks the table against ``inst`` and
    ``gf``, so the model cannot vouch for itself.
    """
    if (model.pivot < 0).any():
        _log_solve(model, "no solve", None)
        return None
    if np.maximum(model.lo, -model.hi).max() <= RESIDUAL_TOL:
        value, solver = np.zeros(model.ncols), "no solve"
    elif model.ncols == 0:
        value, solver = None, "no solve"
    else:
        value, solver = _solve_columns(model)
    _log_solve(model, solver, value)
    if value is None:
        return None
    value = np.maximum(value, 0.0)

    point = model.kept[:, 1]
    x = np.zeros((model.k, model.n))
    x[model.centers.searchsorted(model.kept[:, 0]), point] = value
    x[model.centers.searchsorted(model.pivot), np.arange(model.n)] = np.maximum(
        1.0 - np.bincount(point, value, minlength=model.n), 0.0)
    sums = np.add.reduce(x, axis=0)
    if (sums < 0.5).any():
        raise PipelineError("lp", "an assignment column lost more than half its mass")
    x /= sums
    return FractionalSolution(rows=model.centers, x=x)


def _solve_columns(model: LpModel):
    """Solve a model with columns, each in [0, 1], whose every point
    reaches a center and whose pivots' assignment breaks a row: (column
    values, solver), the values None if the model is infeasible. Its one
    choice is the solver.

    Costs go in scaled by the power of two that brings the largest into
    [1, 2). The scaling is exact and leaves the optimal vertices as they
    are, and the solvers' absolute tolerances then mean the same at any
    coordinate scale: at 2^-20, where d^2 is near 1e-12, unscaled costs
    fall below HiGHS's and the optimum is lost.

    A model whose dense basis matrix and rows fit ``_SIMPLEX_CELLS`` goes to
    the dual simplex of ``simplex``, from the all-slack basis: in pivot
    form that is the nearest assignment, dual feasible as every column
    costs c_ij - c_pj >= 0, so the simplex only repairs the mass and ratio
    rows. Its optimum is checked against reduced costs recomputed from the
    final basis, and an infeasible verdict against its Farkas row, with
    every row relaxed by RESIDUAL_TOL. When a check fails or the pivot
    limit is reached, HiGHS solves the model.

    Larger models go to HiGHS directly, through scipy's ``milp`` with no
    integer column: the model's CSC matrix and row bounds in a
    ``LinearConstraint``, the column bounds in ``Bounds``, and one option,
    presolve off; ``milp``'s own ``disp=False`` keeps HiGHS off the
    console. Presolve finds little to remove and costs more than it saves:
    on ``random_instance`` seed-1 cost LPs above the gate (m=2, exact GF,
    greedy centers; best of 3, 2-vCPU VM), a ``milp`` call took 42 ms
    without it against 116 ms with it for median at n=2000, k=10, 112
    against 399 ms at n=5000, k=10, and 199 against 757 ms for means at
    n=5000, k=16.
    """
    c = np.ldexp(model.c, 1 - np.frexp(model.c.max())[1])
    rows, ncols = model.shape
    solver = "HiGHS"
    if rows * (rows + ncols) <= _SIMPLEX_CELLS:
        # column-major: the layout fixes how BLAS orders its sums over A,
        # and so the last bits of every solution
        a = np.zeros(model.shape, order="F")
        a[model.indices, np.repeat(np.arange(ncols), np.diff(model.indptr))] = model.data
        out = simplex.solve(a, model.lo, model.hi, c, RESIDUAL_TOL)
        if out.verdict in ("optimal", "infeasible"):
            return out.y, f"simplex, {out.pivots} pivots"
        solver = f"HiGHS after the simplex's {out.verdict} at {out.pivots} pivots"
    from scipy.optimize import Bounds, LinearConstraint
    res = milp(c, constraints=LinearConstraint(model.a, model.lo, model.hi),
               bounds=Bounds(0.0, 1.0), options=_HIGHS_OPTIONS)
    if res.status == 2:
        return None, solver
    if res.status != 0:
        raise PipelineError(
            "lp", f"LP backend failed with status {res.status}: {res.message}")
    return res.x, solver


def milp(*args, **kwargs):
    """scipy's ``scipy.optimize.milp``, imported on the first call so that
    a solve the simplex settles loads no scipy. The HiGHS branch of
    ``_solve_columns`` calls it by this module-level name, which tests
    replace to watch or alter HiGHS calls."""
    from scipy import optimize
    return optimize.milp(*args, **kwargs)


def linprog(*args, **kwargs):
    """scipy's ``scipy.optimize.linprog``, imported on the first call. The
    package never calls it; ``benchmarks/tracing.py`` wraps this name."""
    from scipy import optimize
    return optimize.linprog(*args, **kwargs)


def _log_solve(model: LpModel, solver: str, value) -> None:
    """One DEBUG record of a solve: the model, the solver and its verdict
    (``value`` is None for an infeasible model)."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s: %d points, %d columns, %s, %s",
                  "uncapped LP" if model.lam is None else f"radius probe {model.lam!r}",
                  model.n, model.ncols, solver,
                  "infeasible" if value is None
                  else "optimal" if model.lam is None else "feasible")


def check_lp_solution(model: LpModel, sol: FractionalSolution,
                      inst: MetricInstance, gf: GroupFairnessSpec) -> None:
    """Raise PipelineError if a repaired solution of ``model`` breaks any
    constraint by more than RESIDUAL_TOL."""
    resid = lp_residuals(inst, gf, sol, lam=model.lam, centers=model.centers)
    if resid["max"] > RESIDUAL_TOL:
        raise PipelineError(
            "lp", f"post-repair residual {resid['max']:.3e} exceeds {RESIDUAL_TOL}: {resid}")


def lp_residuals(inst: MetricInstance, gf: GroupFairnessSpec,
                 sol: FractionalSolution, lam: float | None = None,
                 centers=None) -> dict:
    """Worst-case residual of every constraint family, for checks and tests.
    With ``centers`` (a model's), also of their mass rows
    ``sum_j x_ij >= 1``; a center without a row of the solution has mass 0."""
    x = sol.x
    table = sol.masses(inst)
    mass, by_color = table[:, -1:], table[:, :-1]
    top = np.maximum.reduce
    out = {"assign": float(top(np.abs(np.add.reduce(x, axis=0) - 1.0))),
           "color": max(0.0, float(top(by_color - gf.upper_floats() * mass, axis=None)),
                        float(top(gf.lower_floats() * mass - by_color, axis=None)))}
    if centers is not None:
        mass_of = dict(zip(sol.rows.tolist(), mass[:, 0].tolist()))
        out["mass"] = max([0.0] + [1.0 - mass_of.get(int(c), 0.0) for c in centers])
    out["bounds"] = float(max(-x.min(), x.max() - 1.0, 0.0))
    if lam is not None:
        far = x[inst.distance_matrix()[sol.rows] > lam * (1 + EPS_D)]
        out["radius"] = float(far.max()) if far.size else 0.0
    out["max"] = max(out.values())
    return out


def fractional_cost(inst: MetricInstance, sol: FractionalSolution,
                    objective: str) -> float:
    """Linear cost of a solution: sum of x_ij * d(i,j) (squared for means)."""
    if objective not in ("median", "means"):
        raise ValidationError(f"no linear cost for objective {objective!r}")
    return float((sol.x * point_costs(inst.distance_matrix()[sol.rows], objective)).sum())


@dataclass(frozen=True)
class LambdaSearchResult:
    """The winning probe of a radius search: the radius, the feasibility
    model built at it and that model's repaired solution."""

    radius: float
    model: LpModel
    solution: FractionalSolution


def _first_passing(test, lo: int, hi: int) -> int:
    """Smallest index in [lo, hi) at which the monotone ``test`` passes, or
    ``hi`` if none does.

    ``lo`` is tested first, then the search gallops up from it (Bentley and
    Yao, 1976): it tests lo + 1, lo + 3, lo + 7, ..., lo + 2^t - 1 (capped at
    hi - 1) until one passes, then bisects the gap above the last failure.
    No index is tested twice. An answer a < hi takes at most
    2 * ceil(log2(a - lo + 1)) tests (1 when a = lo), so an answer near
    ``lo`` costs a few tests however wide the range; ``hi`` takes at most
    1 + ceil(log2(hi - lo)).
    """
    if lo == hi or test(lo):
        return lo
    failed, offset = lo, 1
    while failed < hi - 1:
        probe = min(lo + offset, hi - 1)
        if test(probe):
            hi = probe
            break
        failed, offset = probe, 2 * offset + 1
    lo = failed + 1  # the answer lies in [lo, hi], and hi passes or is the end
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def min_feasible_lambda(inst: MetricInstance, gf: GroupFairnessSpec,
                        centers) -> LambdaSearchResult | None:
    """Smallest distance from ``centers`` (distinct point ids) to a point at
    which the feasibility program over ``centers``, capped there, solves,
    returned with the model and solution of that probe; None if it solves
    at none. Only those distances change which points reach a center, so
    the program is feasible at one of them if at any cap.

    The search starts at the candidate ``counting_bound_index`` gives, below
    which the program is infeasible, so the first probe is usually the
    answer. Feasibility is monotone in the cap (a larger cap only adds
    variables), so ``_first_passing`` from there equals the linear scan:
    the start is probed first and wins at once if feasible, else the search
    gallops up from it and bisects the last gap, and no radius is probed
    twice. An answer a candidates above the start takes at most
    2 * ceil(log2(a + 1)) probes, whatever the number of candidates. The
    last feasible probe is the answer's. The solution is repaired but not
    checked against the residual tolerance; see ``check_lp_solution``.
    """
    centers = _center_ids(inst, centers)
    radii = inst.distance_matrix()[centers].ravel()  # a copy
    radii.sort()
    radii = radii[np.concatenate(([True], radii[1:] != radii[:-1]))]
    best = None

    def feasible(idx: int) -> bool:
        nonlocal best
        radius = float(radii[idx])
        model = build_gf_feasibility_lp(inst, gf, centers, radius)
        sol = solve_lp(model)
        if sol is not None:
            best = LambdaSearchResult(radius, model, sol)
        return sol is not None

    _first_passing(feasible, counting_bound_index(inst, gf, centers, radii), radii.size)
    return best


def _window_counts(start, end, key, w: int, bins: int) -> np.ndarray:
    """(bins, w) table whose entry [b, t] counts the items with key b and
    start <= t < end; a start or end of w lies past the window."""
    size = bins * (w + 1)
    key = key * (w + 1)
    diff = (np.bincount((key + start).ravel(), minlength=size)
            - np.bincount((key + end).ravel(), minlength=size))
    return diff.reshape(bins, w + 1)[:, :w].cumsum(axis=1)


@functools.lru_cache(maxsize=64)
def _set_slack(k: int, all_sets: bool) -> tuple:
    """For each tested set T of the k centers (every subset, numbered as a
    bitmask, if ``all_sets``; else {i}, S - {i} and S): the slack
    tol = |T| * RESIDUAL_TOL of T's summed rows, shaped (F, 1, 1), and
    |T| - tol, shaped (F, 1), both read-only."""
    size = (np.bitwise_count(np.arange(1 << k)) if all_sets
            else np.concatenate((np.ones(k, dtype=int), np.full(k, k - 1), [k])))
    tol = size[:, None, None] * RESIDUAL_TOL
    least = size[:, None] - tol[:, 0]
    tol.flags.writeable = least.flags.writeable = False
    return tol, least


def _set_counts(k: int, colors: np.ndarray, n_h: np.ndarray):
    """A function that maps a window's reach table to the per-color counts
    Q_h(T) and N_h(T) of each tested center set T (``_set_slack``'s
    order) at each of the window's w radii, as arrays of shape (F, m, w).

    In the (k, n) reach table ``first``, point j reaches center i from the
    radius ``first[i, j]`` of the window on (never if w). Q_h(T) counts the
    color-h points whose reach set lies within T (a point that reaches no
    center counts in every T); N_h(T) counts those that reach some center
    in T, which is n_h - Q_h(S - T). A point changes its counts only where
    it reaches another center, so the counts are summed from those
    changes, in O(k n) work per window.
    """
    n, m = colors.size, n_h.size
    n_h = n_h[:, None]
    if k <= _ALL_SETS_MAX_K:
        # every T as a bitmask: count the points per (reach mask, color)
        # and radius, then sum the counts of every mask within T (a
        # subset-sum transform). Point j's mask
        # gains a bit at each of its k reach radii, taken in order.
        masks = np.zeros((k + 1, n), dtype=np.intp)
        ends = np.zeros((k + 2, n), dtype=np.intp)  # 0, the sorted reach radii, w

        def counts(first, w):
            (1 << first.argsort(axis=0, kind="stable")).cumsum(axis=0, out=masks[1:])
            ends[1:-1] = first
            ends[1:-1].sort(axis=0)
            ends[-1] = w
            q = _window_counts(ends[:-1], ends[1:], masks * m + colors, w,
                               m << k).reshape(1 << k, m, w)
            for i in range(k):
                halves = q.reshape(-1, 2, (m * w) << i)
                halves[:, 1] += halves[:, 0]
            return q, n_h - q[::-1]  # q[::-1][T] is q[S - T]

        return counts
    center_key = np.arange(k)[:, None] * m + colors

    def counts(first, w):
        # a point reaches exactly one center, its nearest, from its
        # earliest reach radius t1 to its second t2 (w past a single center)
        t1, t2 = np.partition(np.vstack((first, np.full((1, n), w))), 1, axis=0)[:2]
        reaches_i = _window_counts(first, w, center_key, w, k * m).reshape(k, m, w)  # N_h({i})
        unreached = n_h - _window_counts(t1, w, colors, w, m)
        only_i = (_window_counts(t1, t2, first.argmin(axis=0) * m + colors, w, k * m)
                  .reshape(k, m, w) + unreached)  # Q_h({i})
        q = np.concatenate((only_i, n_h - reaches_i, np.broadcast_to(n_h, (1, m, w))))
        return q, np.concatenate((reaches_i, n_h - only_i, (n_h - unreached)[None]))

    return counts


def counting_bound_index(inst: MetricInstance, gf: GroupFairnessSpec, centers,
                         radii) -> int:
    """Index of the smallest radius in the sorted candidate set, from the
    nearest-assignment radius up, at which the fixed-center program over
    ``centers`` passes a counting bound, or ``len(radii)`` if none does. The
    program is infeasible at every candidate between the two, so a search
    for the smallest feasible cap at or above the nearest-assignment radius
    can start there.

    The bound (Hall's theorem in counting form). Point j reaches center i at
    radius r when d(i, j) <= r * (1 + EPS_D), the test that keeps the
    column x_ij; the tolerance is relative, so the same points reach at
    every coordinate scale. For a set T of centers let M(T) be the mass T receives, Q_h(T)
    the number of color-h points that reach only centers in T (all their
    mass goes to T) and N_h(T) the number that reach some center in T (only
    they send mass to T). The mass rows give M(T) >= |T|, the color-h mass
    of T lies in [Q_h(T), N_h(T)], and the ratio rows, summed over T, put
    it in [l_h M(T), u_h M(T)]. So a feasible point needs

        max(|T|, sum_h Q_h, max_h Q_h / u_h) <= M(T)
                                             <= min(sum_h N_h, min_{l_h > 0} N_h / l_h)

    and Q_h(T) = 0 where u_h = 0. Every T is tested up to k =
    ``_ALL_SETS_MAX_K`` and the sets {i}, S - {i} and S above it; any family
    of sets gives a valid bound. The set T = S fails while some point
    reaches no center (Q_h(S) counts it, N_h(S) does not), so the search
    starts at the nearest-assignment radius (the largest distance from a
    point to its nearest center). Candidates below it but within a factor
    1 + EPS_D of it are skipped, although every point reaches a center
    there, so that the radius found is never below the nearest-assignment
    radius.

    Reach only grows with r, so the bound is monotone, and the candidates
    are tested in order, a window per numpy pass: the first 16, then 4
    times as many per window (at most about ``_WINDOW_CELLS`` count bins in
    one), and the first passing one is the answer.

    Slack: the test never rejects a radius an LP solver accepts. The pipeline
    accepts a solution whose repair left x >= 0 with unit columns, so the
    counts bound the color-h mass of T exactly, and whose mass and ratio
    rows hold within RESIDUAL_TOL (``check_lp_solution``). Summed over the
    |T| centers of T, the mass rows and each color's ratio rows are off by
    at most tol = |T| * RESIDUAL_TOL in total, so the test compares
    |T| - tol, (Q_h - tol) / u_h and (N_h + tol) / l_h. Every comparison
    but sum_h Q_h against sum_h N_h (exact integers) carries one of these
    tol terms, which exceed the float rounding of its sides by a factor of
    1e8 / n or more.
    """
    radii = np.asarray(radii, dtype=float)
    dc = inst.distance_matrix()[np.asarray(list(centers), dtype=int)]
    k = dc.shape[0]
    n_h = np.bincount(inst.colors, minlength=gf.m)
    lower, upper = gf.lower_floats(), gf.upper_floats()
    if n_h[upper == 0.0].any():  # Q_h(S) = n_h > 0 at every radius
        return radii.size
    # the colors with an upper and with a lower ratio bound, and the bounds
    bounded = (upper > 0.0).nonzero()[0], (lower > 0.0).nonzero()[0]
    upper, lower = upper[bounded[0], None], lower[bounded[1], None]
    counts = _set_counts(k, inst.colors, n_h)
    tol, least_size = _set_slack(k, k <= _ALL_SETS_MAX_K)

    def passes(window: np.ndarray) -> np.ndarray:
        # point j reaches center i from the first radius r of the window
        # with d(i, j) <= r * (1 + EPS_D) on
        q, nn = counts((window * (1 + EPS_D)).searchsorted(dc), window.size)
        by_upper = (q[:, bounded[0]] - tol) / upper
        by_lower = (nn[:, bounded[1]] + tol) / lower
        least = np.maximum(np.maximum(least_size, q.sum(axis=1)),
                           by_upper.max(axis=1, initial=-np.inf))
        most = np.minimum(nn.sum(axis=1), by_lower.min(axis=1, initial=np.inf))
        return ~(least > most).any(axis=0)

    cells = gf.m << k if k <= _ALL_SETS_MAX_K else gf.m * k
    start, width = int(radii.searchsorted(dc.min(axis=0).max())), 16
    while start < radii.size:
        window = radii[start:start + width]
        passed = passes(window)
        if passed.any():
            return start + int(passed.argmax())
        start += window.size
        width = max(16, min(4 * width, _WINDOW_CELLS // cells))
    return radii.size


def dump_lp_text(model: LpModel, stream) -> None:
    """Write the model the LP solvers solve in LP text interchange format (for
    debugging). Column ``x_i_j`` is the mass point j sends to center i. A
    comment line per point names its pivot center (``none`` if it reaches
    none), which takes the point's mass the columns leave."""
    def var(idx):
        i, j = model.kept[idx]
        return f"x_{i}_{j}"

    # the entries row by row, each row's in column order
    col = np.repeat(np.arange(model.ncols), np.diff(model.indptr))
    order = model.indices.argsort(kind="stable")
    start = model.indices[order].searchsorted(np.arange(model.shape[0] + 1))

    def terms(r):
        at = order[start[r]:start[r + 1]]
        return "".join(f" {v:+.12g} {var(cidx)}" for cidx, v in zip(col[at], model.data[at]))

    centers = model.centers.tolist()
    ub, eq = model.gf.ratio_rows
    has_row = np.bincount(model.kept[:, 1], minlength=model.n) > 1
    labels = ([f"mass_{i}" for i in centers]
              + [f"ratio_{kind}_{i}_{h}" for i in centers for h, kind, _ in ub]
              + [f"assign_{j}" for j in np.flatnonzero(has_row)]
              + [f"ratio_{kind}_{i}_{h}" for i in centers for h, kind, _ in eq])

    stream.write("\\ fairclus model"
                 + (f" radius_cap={model.lam}" if model.lam is not None else "")
                 + " centers=" + ",".join(map(str, centers))
                 + f" n={model.n} k={model.k}\n")
    for j, p in enumerate(model.pivot):
        stream.write(f"\\ pivot {j} {p if p >= 0 else 'none'}\n")
    stream.write("Minimize\n obj:")
    obj = [f" {model.c[idx]:+.12g} {var(idx)}" for idx in np.flatnonzero(model.c)]
    stream.write("".join(obj) if obj else " 0")
    stream.write("\nSubject To\n")
    n_ub = model.n_ub
    for r in [*range(n_ub, model.shape[0]), *range(n_ub)]:
        sense = "=" if model.lo[r] == model.hi[r] else "<="
        stream.write(f" {labels[r]}:{terms(r)} {sense} {model.hi[r]:.12g}\n")
    stream.write("Bounds\n")
    for idx in range(model.ncols):
        stream.write(f" 0 <= {var(idx)} <= 1\n")
    stream.write("End\n")
