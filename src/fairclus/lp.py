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

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def column_sums(self) -> np.ndarray:
        return self.x.sum(axis=0)

    def center_mass(self) -> np.ndarray:
        """Total incoming mass per row i."""
        return self.x.sum(axis=1)

    def center_color_mass(self, colors: np.ndarray, m: int) -> np.ndarray:
        """(n, m) table of incoming mass per row i restricted to each color."""
        out = np.zeros((self.x.shape[0], m))
        for h in range(m):
            out[:, h] = self.x[:, colors == h].sum(axis=1)
        return out


@dataclass
class LpModel:
    """Sparse model ready for the backend, plus enough context to interpret it."""

    n: int
    k: int
    kept: list  # (i, j) pairs that survived the radius cutoff, in order
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    c: np.ndarray  # objective coefficients (all zero for feasibility models)
    lam: float | None  # radius cap, None for objective models
    row_names: list
    is_feasibility: bool

    @property
    def ncols(self) -> int:
        return len(self.kept) + self.n


def _build(inst: MetricInstance, gf: GroupFairnessSpec, k: int,
           lam: float | None, objective: str | None) -> LpModel:
    if gf.m != inst.m:
        raise ValidationError(f"gf spec has {gf.m} colors, instance has {inst.m}")
    if not (1 <= k <= inst.n):
        raise ValidationError(f"k={k} outside [1, n={inst.n}]")
    n = inst.n
    d = inst.distance_matrix()

    if lam is None:
        kept = [(i, j) for i in range(n) for j in range(n)]
    else:
        kept = [(i, j) for i in range(n) for j in range(n) if d[i, j] <= lam + EPS_D]
    nx = len(kept)
    ncols = nx + n  # y_i lives at column nx + i

    lower = gf.lower_floats()
    upper = gf.upper_floats()

    eq_rows, eq_cols, eq_vals = [], [], []
    b_eq = np.ones(n)
    for idx, (i, j) in enumerate(kept):
        eq_rows.append(j)
        eq_cols.append(idx)
        eq_vals.append(1.0)
    a_eq = sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(n, ncols))

    ub_rows, ub_cols, ub_vals = [], [], []
    b_ub = []
    row_names = []
    row = 0
    # x_ij <= y_i
    for idx, (i, j) in enumerate(kept):
        ub_rows += [row, row]
        ub_cols += [idx, nx + i]
        ub_vals += [1.0, -1.0]
        b_ub.append(0.0)
        row_names.append(f"open_{i}_{j}")
        row += 1
    # sum_i y_i <= k
    for i in range(n):
        ub_rows.append(row)
        ub_cols.append(nx + i)
        ub_vals.append(1.0)
    b_ub.append(float(k))
    row_names.append("opened_at_most_k")
    row += 1
    # per (i, h): color-h mass within the ratio window of the total mass
    by_center = [[] for _ in range(n)]
    for idx, (i, j) in enumerate(kept):
        by_center[i].append((idx, j))
    for i in range(n):
        entries = by_center[i]
        for h in range(inst.m):
            if upper[h] < 1.0:  # u_h = 1 rows are vacuous
                for idx, j in entries:
                    coef = (1.0 if inst.colors[j] == h else 0.0) - upper[h]
                    if coef != 0.0:
                        ub_rows.append(row)
                        ub_cols.append(idx)
                        ub_vals.append(coef)
                b_ub.append(0.0)
                row_names.append(f"ratio_upper_{i}_{h}")
                row += 1
            if lower[h] > 0.0:  # l_h = 0 rows are vacuous
                for idx, j in entries:
                    coef = lower[h] - (1.0 if inst.colors[j] == h else 0.0)
                    if coef != 0.0:
                        ub_rows.append(row)
                        ub_cols.append(idx)
                        ub_vals.append(coef)
                b_ub.append(0.0)
                row_names.append(f"ratio_lower_{i}_{h}")
                row += 1
    a_ub = sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(row, ncols))

    c = np.zeros(ncols)
    if objective == "median":
        for idx, (i, j) in enumerate(kept):
            c[idx] = d[i, j]
    elif objective == "means":
        for idx, (i, j) in enumerate(kept):
            c[idx] = d[i, j] ** 2
    elif objective is not None:
        raise ValidationError(f"unknown LP objective {objective!r}")

    return LpModel(n=n, k=k, kept=kept, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub,
                   b_ub=np.array(b_ub), c=c, lam=lam, row_names=row_names,
                   is_feasibility=objective is None)


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
    for idx, (i, j) in enumerate(model.kept):
        x[i, j] = res.x[idx]
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
            diagnosis=[f"sum of lower ratios = {float(sum(gf.lower)):.6g}",
                       f"sum of upper ratios = {float(sum(gf.upper)):.6g}",
                       f"k = {k}, n = {inst.n}"])
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

    def var(idx):
        if idx < len(model.kept):
            i, j = model.kept[idx]
            return f"x_{i}_{j}"
        return f"y_{idx - len(model.kept)}"

    stream.write("\\ fairclus model"
                 + (f" radius_cap={model.lam}" if model.lam is not None else "")
                 + f" n={model.n} k={model.k}\n")
    stream.write("Minimize\n obj:")
    terms = [f" {model.c[idx]:+.12g} {var(idx)}" for idx in range(model.ncols)
             if model.c[idx] != 0.0]
    stream.write("".join(terms) if terms else " 0 " + var(0))
    stream.write("\nSubject To\n")
    a_eq = model.a_eq.tocoo()
    rows_eq = [[] for _ in range(model.a_eq.shape[0])]
    for r, cidx, v in zip(a_eq.row, a_eq.col, a_eq.data):
        rows_eq[r].append(f" {v:+.12g} {var(cidx)}")
    for r, terms in enumerate(rows_eq):
        stream.write(f" assign_{r}:" + "".join(terms) + f" = {model.b_eq[r]:.12g}\n")
    a_ub = model.a_ub.tocoo()
    rows_ub = [[] for _ in range(model.a_ub.shape[0])]
    for r, cidx, v in zip(a_ub.row, a_ub.col, a_ub.data):
        rows_ub[r].append(f" {v:+.12g} {var(cidx)}")
    for r, terms in enumerate(rows_ub):
        stream.write(f" {model.row_names[r]}:" + "".join(terms)
                     + f" <= {model.b_ub[r]:.12g}\n")
    stream.write("Bounds\n")
    for idx in range(model.ncols):
        stream.write(f" 0 <= {var(idx)} <= 1\n")
    stream.write("End\n")
