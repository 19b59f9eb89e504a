"""Group-fairness linear programs: feasibility at a radius cap, and
cost-minimizing variants for the sum / sum-of-squares objectives.

Variable convention throughout the package: ``x[i, j]`` is the mass point j
sends to point i, i.e. the extent to which j is assigned to center i; ``y[i]``
is the extent to which i is opened. All constraints are per receiving row i:

    sum_i x_ij = 1                      for every point j
    x_ij <= y_i
    sum_i y_i <= k
    l_h * sum_j x_ij <= sum_{j of color h} x_ij <= u_h * sum_j x_ij
    x_ij = 0 whenever d(i, j) > radius cap   (feasibility variant only)

Radius-capped variables are eliminated from the model rather than constrained
to zero; the feasible set is identical and the model much smaller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .constraints import GroupFairnessSpec
from .errors import InfeasibleError, NumericalError, ValidationError
from .instance import EPS_D, MetricInstance

EPS_POS = 1e-9  # support threshold: x_ij counts as positive above this
RESIDUAL_TOL = 1e-7  # accepted constraint residual after repair


@dataclass(frozen=True)
class FractionalSolution:
    """Assignment-mass table and opening vector of an LP solution."""

    x: np.ndarray  # (n, n), x[i, j] = mass from point j to center i
    y: np.ndarray  # (n,)


@dataclass
class LpModel:
    """Sparse model ready for the backend, plus enough context to interpret it.

    Column ``a`` < ``len(kept)`` is ``x[kept[a, 0], kept[a, 1]]``; column
    ``len(kept) + i`` is ``y[i]``. The rows of ``a_ub`` are one ``x_ij <= y_i``
    row per kept pair, the ``sum_i y_i <= k`` row, then for each center i the
    non-vacuous ratio rows of ``_ratio_rows(gf)``.
    """

    n: int
    k: int
    kept: np.ndarray  # (A, 2) int array of (center, point) pairs, row-major order
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    c: np.ndarray  # objective coefficients (all zero for feasibility models)
    lam: float | None  # radius cap, None for objective models
    gf: GroupFairnessSpec

    @property
    def ncols(self) -> int:
        return len(self.kept) + self.n


def _ratio_rows(gf: GroupFairnessSpec):
    """Color, side (True for the upper bound) and ratio bound of each center's
    ratio rows, in row order: per color the upper row, then the lower row.
    Rows with u_h = 1 or l_h = 0 are vacuous and left out."""
    h = np.repeat(np.arange(gf.m), 2)
    is_upper = np.tile([True, False], gf.m)
    bound = np.where(is_upper, gf.upper_floats()[h], gf.lower_floats()[h])
    keep = np.where(is_upper, bound < 1.0, bound > 0.0)
    return h[keep], is_upper[keep], bound[keep]


def _build(inst: MetricInstance, gf: GroupFairnessSpec, k: int,
           lam: float | None, objective: str | None) -> LpModel:
    if gf.m != inst.m:
        raise ValidationError(f"gf spec has {gf.m} colors, instance has {inst.m}")
    if not (1 <= k <= inst.n):
        raise ValidationError(f"k={k} outside [1, n={inst.n}]")
    n = inst.n
    d = inst.distance_matrix()

    if lam is None:
        ci, pj = np.divmod(np.arange(n * n), n)
    else:
        ci, pj = np.nonzero(d <= lam + EPS_D)
    nx = ci.size
    ncols = nx + n  # y_i lives at column nx + i
    pairs = np.arange(nx)
    a_eq = sparse.csr_matrix((np.ones(nx), (pj, pairs)), shape=(n, ncols))

    # ratio row (i, h): coefficient [c_j = h] - u_h (upper) or l_h - [c_j = h]
    # (lower) on every kept x_ij; zero coefficients are not stored
    h, is_upper, bound = _ratio_rows(gf)
    in_h = (inst.colors[pj][:, None] == h).astype(float)
    coef = np.where(is_upper, in_h - bound, bound - in_h)
    nonzero = coef != 0.0
    ratio_row = nx + 1 + ci[:, None] * h.size + np.arange(h.size)
    nrows = nx + 1 + n * h.size
    rows = np.concatenate((pairs, pairs, np.full(n, nx), ratio_row[nonzero]))
    cols = np.concatenate((pairs, nx + ci, nx + np.arange(n),
                           np.broadcast_to(pairs[:, None], coef.shape)[nonzero]))
    vals = np.concatenate((np.ones(nx), -np.ones(nx), np.ones(n), coef[nonzero]))
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    b_ub = np.zeros(nrows)
    b_ub[nx] = float(k)

    c = np.zeros(ncols)
    if objective == "median":
        c[:nx] = d[ci, pj]
    elif objective == "means":
        c[:nx] = d[ci, pj] ** 2

    return LpModel(n=n, k=k, kept=np.column_stack((ci, pj)), a_eq=a_eq,
                   b_eq=np.ones(n), a_ub=a_ub, b_ub=b_ub, c=c, lam=lam, gf=gf)


def build_gf_feasibility_lp(inst: MetricInstance, gf: GroupFairnessSpec,
                            k: int, lam: float) -> LpModel:
    """Feasibility program with assignments capped at radius ``lam``."""
    return _build(inst, gf, k, lam=float(lam), objective=None)


def build_gf_objective_lp(inst: MetricInstance, gf: GroupFairnessSpec,
                          k: int, objective: str) -> LpModel:
    """Cost-minimizing program (no radius cutoff) for median or means."""
    if objective not in ("median", "means"):
        raise ValidationError("objective LP supports 'median' and 'means' only")
    return _build(inst, gf, k, lam=None, objective=objective)


def solve_lp(model: LpModel, inst: MetricInstance | None = None,
             gf: GroupFairnessSpec | None = None):
    """Solve a model; returns a repaired FractionalSolution, or None if the
    backend certifies infeasibility.

    Repair: negatives clamped, each assignment column renormalized to sum
    exactly 1 (downstream rerouting divides by these sums). If instance and
    spec are passed, residuals are re-verified after repair.
    """
    res = linprog(model.c, A_ub=model.a_ub, b_ub=model.b_ub, A_eq=model.a_eq,
                  b_eq=model.b_eq, bounds=(0.0, 1.0), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise NumericalError(f"LP backend failed with status {res.status}: {res.message}")

    n, nx = model.n, len(model.kept)
    x = np.zeros((n, n))
    x[model.kept[:, 0], model.kept[:, 1]] = res.x[:nx]
    y = np.clip(res.x[nx:], 0.0, 1.0)
    np.clip(x, 0.0, 1.0, out=x)
    sums = x.sum(axis=0)
    if np.any(sums < 0.5):
        raise NumericalError("an assignment column lost more than half its mass")
    x /= sums[None, :]
    sol = FractionalSolution(x=x, y=y)
    if inst is not None and gf is not None:
        check_lp_solution(model, sol, inst, gf)
    return sol


def check_lp_solution(model: LpModel, sol: FractionalSolution,
                      inst: MetricInstance, gf: GroupFairnessSpec) -> None:
    """Raise NumericalError if a repaired solution of ``model`` breaks any
    constraint by more than RESIDUAL_TOL."""
    resid = lp_residuals(inst, gf, model.k, sol, lam=model.lam)
    if resid["max"] > RESIDUAL_TOL:
        raise NumericalError(
            f"post-repair residual {resid['max']:.3e} exceeds {RESIDUAL_TOL}: {resid}")


def lp_residuals(inst: MetricInstance, gf: GroupFairnessSpec, k: int,
                 sol: FractionalSolution, lam: float | None = None) -> dict:
    """Worst-case residual of every constraint family, for checks and tests."""
    x, y = sol.x, sol.y
    out = {}
    out["assign"] = float(np.abs(x.sum(axis=0) - 1.0).max())
    out["open"] = float((x - y[:, None]).max())
    out["k"] = float(max(0.0, y.sum() - k))
    mass = x.sum(axis=1)
    lower = gf.lower_floats()
    upper = gf.upper_floats()
    color_resid = 0.0
    for h in range(inst.m):
        mass_h = x[:, inst.colors == h].sum(axis=1)
        color_resid = max(color_resid,
                          float((mass_h - upper[h] * mass).max()),
                          float((lower[h] * mass - mass_h).max()))
    out["color"] = color_resid
    out["bounds"] = float(max(-x.min(), x.max() - 1.0, -y.min(), y.max() - 1.0, 0.0))
    if lam is not None:
        d = inst.distance_matrix()
        far = x[d > lam + EPS_D]
        out["radius"] = float(far.max()) if far.size else 0.0
    out["max"] = max(v for v in out.values())
    return out


def fractional_cost(inst: MetricInstance, x: np.ndarray, objective: str) -> float:
    """Linear cost of a mass table: sum of x_ij * d(i,j) (squared for means)."""
    d = inst.distance_matrix()
    if objective == "median":
        return float((x * d).sum())
    if objective == "means":
        return float((x * d ** 2).sum())
    raise ValidationError(f"no linear cost for objective {objective!r}")


def solution_from_clustering(inst: MetricInstance, centers, assignment) -> FractionalSolution:
    """The 0/1 mass table induced by an integral clustering."""
    n = inst.n
    x = np.zeros((n, n))
    y = np.zeros(n)
    for j, c in enumerate(assignment):
        x[c, j] = 1.0
    for c in centers:
        y[c] = 1.0
    return FractionalSolution(x=x, y=y)


def infeasibility_diagnosis(gf: GroupFairnessSpec, k: int, n: int) -> list:
    """The figures an infeasible group-fairness program is reported with."""
    return [f"sum of lower ratios = {float(sum(gf.lower)):.6g}",
            f"sum of upper ratios = {float(sum(gf.upper)):.6g}",
            f"k = {k}, n = {n}"]


@dataclass(frozen=True)
class LambdaSearchResult:
    """The winning probe of a radius search: the radius, the feasibility
    model built at it and that model's repaired solution."""

    radius: float
    model: LpModel
    solution: FractionalSolution


def min_feasible_lambda(inst: MetricInstance, gf: GroupFairnessSpec, k: int,
                        radii) -> LambdaSearchResult:
    """Smallest radius in the sorted candidate set whose feasibility program
    solves, returned with the model and solution of that probe.

    Feasibility is monotone in the cap (a larger cap only adds variables), so
    a binary search over the candidates equals the linear scan. The lowest
    candidate is probed first and wins at once if feasible. Otherwise the
    highest is probed, and if it is infeasible too the program is infeasible
    at every candidate (InfeasibleError); else a binary search between the
    two finds the boundary. No radius is probed twice. The solution is
    repaired but not checked against the residual tolerance; see
    ``check_lp_solution``.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValidationError("empty radius candidate set")

    def probe(idx: int) -> LambdaSearchResult | None:
        radius = float(radii[idx])
        model = build_gf_feasibility_lp(inst, gf, k, radius)
        sol = solve_lp(model)
        return None if sol is None else LambdaSearchResult(radius, model, sol)

    best = probe(0)
    if best is not None:
        return best
    hi = radii.size - 1
    best = probe(hi) if hi > 0 else None
    if best is None:
        raise InfeasibleError(
            "group fairness program infeasible even at the largest radius",
            diagnosis=infeasibility_diagnosis(gf, k, inst.n))
    # radii[lo - 1] is infeasible and best is the probe at radii[hi]
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        found = probe(mid)
        if found is not None:
            hi, best = mid, found
        else:
            lo = mid + 1
    return best


def dump_lp_text(model: LpModel, stream) -> None:
    """Write the model in LP text interchange format (for debugging)."""
    nx = len(model.kept)

    def var(idx):
        if idx < nx:
            i, j = model.kept[idx]
            return f"x_{i}_{j}"
        return f"y_{idx - nx}"

    def terms(a, r):
        lo, hi = a.indptr[r], a.indptr[r + 1]
        return "".join(f" {v:+.12g} {var(cidx)}"
                       for cidx, v in zip(a.indices[lo:hi], a.data[lo:hi]))

    h, is_upper, _ = _ratio_rows(model.gf)
    ub_labels = ([f"open_{i}_{j}" for i, j in model.kept] + ["opened_at_most_k"]
                 + [f"ratio_{'upper' if up else 'lower'}_{i}_{hh}"
                    for i in range(model.n) for hh, up in zip(h, is_upper)])

    stream.write("\\ fairclus model"
                 + (f" radius_cap={model.lam}" if model.lam is not None else "")
                 + f" n={model.n} k={model.k}\n")
    stream.write("Minimize\n obj:")
    obj = [f" {model.c[idx]:+.12g} {var(idx)}" for idx in np.flatnonzero(model.c)]
    stream.write("".join(obj) if obj else " 0 " + var(0))
    stream.write("\nSubject To\n")
    for r in range(model.n):
        stream.write(f" assign_{r}:{terms(model.a_eq, r)} = {model.b_eq[r]:.12g}\n")
    for r, label in enumerate(ub_labels):
        stream.write(f" {label}:{terms(model.a_ub, r)} <= {model.b_ub[r]:.12g}\n")
    stream.write("Bounds\n")
    for idx in range(model.ncols):
        stream.write(f" 0 <= {var(idx)} <= 1\n")
    stream.write("End\n")
