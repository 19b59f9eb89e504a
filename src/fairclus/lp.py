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

Radius-capped variables are eliminated from the model rather than constrained
to zero; the feasible set is identical and the model much smaller.

Every pipeline solves this program over its diverse centers: k-center
searches for the smallest radius cap at which it is feasible, median and
means minimize its cost. A solution keeps a row of x per center, so it is a
k x n table and no mass can lie off the centers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
# never called: bound only for the lp.linprog probe of benchmarks/tracing.py
from scipy.optimize import linprog  # noqa: F401

from .constraints import GroupFairnessSpec, point_costs
from .errors import InfeasibleError, NumericalError, ValidationError
from .instance import EPS_D, MetricInstance

EPS_POS = 1e-9  # support threshold: x_ij counts as positive above this
RESIDUAL_TOL = 1e-7  # accepted constraint residual after repair
MASS_TOL = 1e-6  # accepted slack on mass checks and on a cost against its LP bound
# every HiGHS call: no log output (with it on, HiGHS can end at another
# vertex) and no presolve (see solve_lp)
_HIGHS_OPTIONS = {"output_flag": False, "presolve": False}
# The counting bound tests every subset of the centers up to this k; its cost
# grows as 2^k, so above it only the 2k + 1 sets {i}, S - {i} and S are tested.
_ALL_SETS_MAX_K = 10


@dataclass(frozen=True)
class FractionalSolution:
    """Assignment-mass table of a solution, a row per point that may receive
    mass (the centers, for every solution the package makes)."""

    rows: np.ndarray  # sorted point ids
    x: np.ndarray  # (len(rows), n), x[a, j] = mass from point j to rows[a]


@dataclass
class LpModel:
    """The program over the sorted center set ``centers`` as HiGHS reads it,
    plus enough context to interpret it.

    Column ``a`` is ``x[kept[a, 0], kept[a, 1]]`` and lies in [0, 1]. ``a``
    is one CSR matrix whose row r holds ``lo[r] <= a[r] @ x <= hi[r]``:
    first the <= rows (``lo = -inf``), then one ``sum_i x_ij = 1`` row per
    point j (``lo = hi = 1``). The <= rows are one ``-sum_j x_ij <= -1`` row
    per center, then for each center i the non-vacuous ratio rows of
    ``_ratio_rows(gf)``.

    ``a_ub`` and ``a_eq`` are the two row blocks, sliced from ``a`` on every
    read; their bounds are ``hi[:n_ub]`` and ``hi[n_ub:]``.
    """

    n: int
    kept: np.ndarray  # (A, 2) int array of (center, point) pairs, row-major order
    a: sparse.csr_matrix
    lo: np.ndarray  # row lower bounds
    hi: np.ndarray  # row upper bounds
    c: np.ndarray  # objective coefficients (all zero for feasibility models)
    lam: float | None  # radius cap, None for an uncapped model
    gf: GroupFairnessSpec
    centers: np.ndarray  # sorted ids of the centers

    @property
    def k(self) -> int:
        return self.centers.size

    @property
    def ncols(self) -> int:
        return len(self.kept)

    @property
    def n_ub(self) -> int:
        return self.a.shape[0] - self.n

    @property
    def a_ub(self) -> sparse.csr_matrix:
        return self.a[:self.n_ub]

    @property
    def a_eq(self) -> sparse.csr_matrix:
        return self.a[self.n_ub:]


def _ratio_rows(gf: GroupFairnessSpec):
    """Color, side (True for the upper bound) and ratio bound of each center's
    ratio rows, in row order: per color the upper row, then the lower row.
    Rows with u_h = 1 or l_h = 0 are vacuous and left out."""
    h = np.repeat(np.arange(gf.m), 2)
    is_upper = np.tile([True, False], gf.m)
    bound = np.where(is_upper, gf.upper_floats()[h], gf.lower_floats()[h])
    keep = np.where(is_upper, bound < 1.0, bound > 0.0)
    return h[keep], is_upper[keep], bound[keep]


def _build(inst: MetricInstance, gf: GroupFairnessSpec, centers,
           lam: float | None, objective: str | None) -> LpModel:
    centers = _center_ids(inst, centers)
    if gf.m != inst.m:
        raise ValidationError(f"gf spec has {gf.m} colors, instance has {inst.m}")
    n = inst.n
    d = inst.distance_matrix()

    # keep[s, j]: whether x_{centers[s], j} is a column; pairs are numbered in
    # row-major order of this mask, and col holds each kept pair's number
    keep = (np.ones((centers.size, n), dtype=bool) if lam is None
            else d[centers] <= lam + EPS_D)
    slot, pj = np.nonzero(keep)
    ci = centers[slot]
    nx = ci.size
    pairs = np.arange(nx)
    col = np.zeros(keep.shape, dtype=int)
    col[keep] = pairs

    # ratio row (center s, r): coefficient [c_j = h_r] - u (upper) or
    # l - [c_j = h_r] (lower) on every kept x_{centers[s], j}; zero
    # coefficients are not stored. Entries of shape (s, r, j) are in row order.
    h, is_upper, bound = _ratio_rows(gf)
    in_h = (inst.colors[:, None] == h).astype(float)
    coef = np.where(is_upper, in_h - bound, bound - in_h).T
    entry = keep[:, None, :] & (coef != 0.0)

    # the <= rows (-sum_j x_ij <= -1 per center, then the ratio rows), then
    # the assignment rows sum_i x_ij = 1, written row by row
    row_sizes = np.concatenate((keep.sum(axis=1), entry.sum(axis=2).ravel(),
                                keep.sum(axis=0)))
    a = sparse.csr_matrix(
        (np.concatenate((-np.ones(nx), np.broadcast_to(coef, entry.shape)[entry],
                         np.ones(nx))),
         np.concatenate((pairs, np.broadcast_to(col[:, None, :], entry.shape)[entry],
                         col.T[keep.T])),
         np.concatenate(([0], np.cumsum(row_sizes)))),
        shape=(row_sizes.size, nx))
    n_ub = row_sizes.size - n
    lo = np.concatenate((np.full(n_ub, -np.inf), np.ones(n)))
    hi = np.concatenate((-np.ones(centers.size), np.zeros(n_ub - centers.size),
                         np.ones(n)))

    c = np.zeros(nx) if objective is None else point_costs(d[ci, pj], objective)

    return LpModel(n=n, kept=np.column_stack((ci, pj)), a=a, lo=lo, hi=hi,
                   c=c, lam=lam, gf=gf, centers=centers)


def _center_ids(inst: MetricInstance, centers) -> np.ndarray:
    """Sorted ids of a center set, validated: at least one, distinct, and in
    [0, n)."""
    ids = [int(c) for c in centers]
    out = np.array(sorted(set(ids)), dtype=int)
    if not ids or out.size != len(ids) or out[0] < 0 or out[-1] >= inst.n:
        raise ValidationError(f"centers must be one or more distinct ids in [0, {inst.n})")
    return out


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
    """Solve a model with HiGHS, through scipy's ``milp`` with no integer
    column; returns a repaired FractionalSolution, or None if the model is
    infeasible.

    Only the contested part of the model goes to HiGHS. A point whose
    assignment row holds one column (the only center it reaches under the
    cap) is forced: that column is 1 at every feasible point. Its column
    and its assignment row are dropped, and its coefficients move into the
    bounds of the mass and ratio rows. A row left with no free column is
    decided here: the model is infeasible if its fixed part breaks the
    row's bounds by more than RESIDUAL_TOL, the tolerance of
    ``check_lp_solution``, and the row is dropped otherwise. A point with
    no column at all is such a row. If no column is left free (k = 1, or
    every point forced), HiGHS is not called; if there is nothing to take
    out (every cost model at k >= 2), HiGHS gets the model whole, without
    the ~0.15 ms the reduction costs at n=80. The reduced polytope is the
    full one with the forced columns fixed, so its vertices are the full
    model's: at most k(2m + 1) points are fractional at one.

    HiGHS gets the rest as one row-bounded matrix, the column bounds
    [0, 1], ``output_flag`` off (as scipy's ``linprog`` set it: with it on,
    HiGHS can return another optimal vertex) and presolve off. Without
    forced points there is nothing for presolve to remove: on an n=80, k=4
    cost model HiGHS took 2.4 -> 0.8 ms without it (2-vCPU VM), and on the
    radius probes it spent about 0.37 ms a probe finding the forced points.
    Costs go in scaled by the power of two that brings the largest into
    [1, 2). The scaling is exact and leaves the optimal vertices as they
    are, and HiGHS's absolute tolerances then mean the same at any
    coordinate scale: at 2^-20, where d^2 is near 1e-12, unscaled costs fall
    below them and the optimum is lost.

    The solution is k x n, a row per center. Repair: negatives clamped, each
    assignment column renormalized to sum exactly 1 (the flow rounds each
    column as one unit of mass). Residuals are not re-verified; see
    ``check_lp_solution``, which checks the full table against ``inst`` and
    ``gf``, so the reduction cannot vouch for itself.
    """
    a, n_ub = model.a, model.n_ub
    row_nnz = np.diff(a.indptr)
    value = np.zeros(model.ncols)
    value[a.indices[a.indptr[n_ub:-1][row_nnz[n_ub:] == 1]]] = 1.0  # forced columns
    free = value == 0.0
    if free.all() and row_nnz.all():
        # nothing to take out (every cost model at k >= 2): the model as it is
        matrix, lo, hi = a, model.lo, model.hi
    else:
        fixed_part = a @ value
        lo, hi = model.lo - fixed_part, model.hi - fixed_part
        on_free = free[a.indices]
        entry_row = np.repeat(np.arange(row_nnz.size), row_nnz)[on_free]
        kept_row = np.bincount(entry_row, minlength=row_nnz.size) > 0
        if np.any(np.maximum(lo, -hi)[~kept_row] > RESIDUAL_TOL):
            return None
        lo, hi = lo[kept_row], hi[kept_row]
        # the contested part in the CSC form milp hands HiGHS: entries of the
        # free columns, ordered by column, then by row as in a
        col = a.indices[on_free]
        order = np.argsort(col, kind="stable")
        indptr = np.zeros(np.count_nonzero(free) + 1, dtype=a.indptr.dtype)
        np.cumsum(np.bincount(col, minlength=model.ncols)[free], out=indptr[1:])
        matrix = sparse.csc_array(
            (a.data[on_free][order],
             (np.cumsum(kept_row) - 1)[entry_row[order]].astype(a.indices.dtype), indptr),
            shape=(lo.size, indptr.size - 1))
    if free.any():
        c = model.c[free]
        c = np.ldexp(c, 1 - np.frexp(c.max())[1])
        with warnings.catch_warnings():
            # milp warns that it passes output_flag, an option it does not know, on verbatim
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            res = milp(c, constraints=LinearConstraint(matrix, lo, hi),
                       bounds=Bounds(0.0, 1.0), options=_HIGHS_OPTIONS)
        if res.status == 2:
            return None
        if res.status != 0:
            raise NumericalError(f"LP backend failed with status {res.status}: {res.message}")
        value[free] = res.x

    rows = model.centers
    x = np.zeros((rows.size, model.n))
    x[np.searchsorted(rows, model.kept[:, 0]), model.kept[:, 1]] = value
    np.clip(x, 0.0, 1.0, out=x)
    sums = x.sum(axis=0)
    if np.any(sums < 0.5):
        raise NumericalError("an assignment column lost more than half its mass")
    x /= sums[None, :]
    return FractionalSolution(rows=rows, x=x)


def check_lp_solution(model: LpModel, sol: FractionalSolution,
                      inst: MetricInstance, gf: GroupFairnessSpec) -> None:
    """Raise NumericalError if a repaired solution of ``model`` breaks any
    constraint by more than RESIDUAL_TOL."""
    resid = lp_residuals(inst, gf, sol, lam=model.lam, centers=model.centers)
    if resid["max"] > RESIDUAL_TOL:
        raise NumericalError(
            f"post-repair residual {resid['max']:.3e} exceeds {RESIDUAL_TOL}: {resid}")


def lp_residuals(inst: MetricInstance, gf: GroupFairnessSpec,
                 sol: FractionalSolution, lam: float | None = None,
                 centers=None) -> dict:
    """Worst-case residual of every constraint family, for checks and tests.
    With ``centers`` (a model's), also of their mass rows
    ``sum_j x_ij >= 1``; a center without a row of the solution has mass 0."""
    x = sol.x
    out = {}
    out["assign"] = float(np.abs(x.sum(axis=0) - 1.0).max())
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
    if centers is not None:
        mass_of = np.zeros(inst.n)
        mass_of[sol.rows] = mass
        out["mass"] = float(max(0.0, (1.0 - mass_of[np.asarray(centers, dtype=int)]).max()))
    out["bounds"] = float(max(-x.min(), x.max() - 1.0, 0.0))
    if lam is not None:
        far = x[inst.distance_matrix()[sol.rows] > lam + EPS_D]
        out["radius"] = float(far.max()) if far.size else 0.0
    out["max"] = max(v for v in out.values())
    return out


def fractional_cost(inst: MetricInstance, sol: FractionalSolution,
                    objective: str) -> float:
    """Linear cost of a solution: sum of x_ij * d(i,j) (squared for means)."""
    if objective not in ("median", "means"):
        raise ValidationError(f"no linear cost for objective {objective!r}")
    return float((sol.x * point_costs(inst.distance_matrix()[sol.rows], objective)).sum())


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


def min_feasible_lambda(inst: MetricInstance, gf: GroupFairnessSpec, centers,
                        radii) -> LambdaSearchResult:
    """Smallest radius in the sorted candidate set at which the feasibility
    program over ``centers`` solves, returned with the model and solution of
    that probe. The pipeline passes the candidates from
    ``counting_bound_index`` up, so the first probe is usually the answer.

    Feasibility is monotone in the cap (a larger cap only adds variables), so
    ``_first_passing`` over the candidates equals the linear scan: the lowest
    candidate is probed first and wins at once if feasible, else the search
    gallops up from it and bisects the last gap, and no radius is probed
    twice. An answer a candidates above the lowest takes at most
    2 * ceil(log2(a + 1)) probes, whatever the number of candidates; the
    answer usually lies a few candidates up when the first probe fails. The
    last feasible probe is the answer's. If no candidate is feasible the
    program is infeasible at every one (InfeasibleError). The solution is
    repaired but not checked against the residual tolerance; see
    ``check_lp_solution``.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValidationError("empty radius candidate set")
    best = None

    def feasible(idx: int) -> bool:
        nonlocal best
        radius = float(radii[idx])
        model = build_gf_feasibility_lp(inst, gf, centers, radius)
        sol = solve_lp(model)
        if sol is not None:
            best = LambdaSearchResult(radius, model, sol)
        return sol is not None

    if _first_passing(feasible, 0, radii.size) == radii.size:
        raise InfeasibleError(
            "group fairness program infeasible even at the largest radius",
            diagnosis=infeasibility_diagnosis(gf, len(centers), inst.n))
    return best


def _set_counts(reach: np.ndarray, colors: np.ndarray, n_h: np.ndarray):
    """Size |T| and the per-color counts Q_h(T) and N_h(T) of each tested
    center set T, as arrays of shape (F,), (F, m) and (F, m).

    ``reach[i, j]`` says whether point j reaches center i. Q_h(T) counts the
    color-h points whose reach set lies within T (a point that reaches no
    center counts in every T); N_h(T) counts those that reach some center in
    T, which is n_h - Q_h(S - T).
    """
    k = reach.shape[0]
    m = n_h.size
    if k <= _ALL_SETS_MAX_K:
        # every T as a bitmask: count the points per (reach mask, color),
        # then sum the counts of every mask within T (a subset-sum transform)
        mask = (1 << np.arange(k)) @ reach
        q = np.bincount(mask * m + colors, minlength=m << k).reshape(1 << k, m)
        for i in range(k):
            halves = q.reshape(-1, 2, 1 << i, m)
            halves[:, 1] += halves[:, 0]
        size = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).sum(axis=1)
        return size, q, n_h - q[::-1]  # q[::-1][T] is q[S - T]
    hits = reach.sum(axis=0)
    onehot = (colors[:, None] == np.arange(m)).astype(int)
    reaches_i = reach @ onehot  # N_h({i})
    unreached = onehot[hits == 0].sum(axis=0)
    only_i = (reach & (hits == 1)) @ onehot + unreached  # Q_h({i})
    size = np.concatenate((np.ones(k, dtype=int), np.full(k, k - 1), [k]))
    q = np.vstack((only_i, n_h - reaches_i, n_h))
    return size, q, np.vstack((reaches_i, n_h - only_i, n_h - unreached))


def counting_bound_index(inst: MetricInstance, gf: GroupFairnessSpec, centers,
                         radii) -> int:
    """Index of the smallest radius in the sorted candidate set, from the
    nearest-assignment radius up, at which the fixed-center program over
    ``centers`` passes a counting bound, or ``len(radii)`` if none does. The
    program is infeasible at every candidate between the two, so a search
    for the smallest feasible cap at or above the nearest-assignment radius
    can start there.

    The bound (Hall's theorem in counting form). Point j reaches center i at
    radius r when d(i, j) <= r + EPS_D, the test that keeps the column
    x_ij. For a set T of centers let M(T) be the mass T receives, Q_h(T)
    the number of color-h points that reach only centers in T (all their
    mass goes to T) and N_h(T) the number that reach some center in T (only
    they send mass to T). The mass rows give M(T) >= |T|, the color-h mass
    of T lies in [Q_h(T), N_h(T)], and the ratio rows, summed over T, put
    it in [l_h M(T), u_h M(T)]. So a feasible point needs

        max(|T|, sum_h Q_h, max_h Q_h / u_h) <= M(T)
                                             <= min(sum_h N_h, min_{l_h > 0} N_h / l_h)

    and Q_h(T) = 0 where u_h = 0. Every T is tested up to k =
    ``_ALL_SETS_MAX_K`` and the sets {i}, S - {i} and S above it; any family
    of sets gives a valid bound. Reach only grows with r, so the bound is
    monotone and a binary search finds its smallest passing radius. The set
    T = S fails while some point reaches no center (Q_h(S) counts it,
    N_h(S) does not), so the search starts at the nearest-assignment radius
    (the largest distance from a point to its nearest center) and tests it
    first. Candidates below it but within EPS_D of it are skipped, although
    every point reaches a center there, so that the radius found is never
    below the nearest-assignment radius.

    Slack: the test never rejects a radius HiGHS accepts. The pipeline
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
    colors = inst.colors
    n_h = np.bincount(colors, minlength=gf.m)
    lower, upper = gf.lower_floats(), gf.upper_floats()
    has_lower, has_upper = lower > 0.0, upper > 0.0

    def passes(idx: int) -> bool:
        size, q, nn = _set_counts(dc <= radii[idx] + EPS_D, colors, n_h)
        tol = size * RESIDUAL_TOL
        by_upper = (q[:, has_upper] - tol[:, None]) / upper[has_upper]
        by_lower = (nn[:, has_lower] + tol[:, None]) / lower[has_lower]
        least = np.maximum.reduce([size - tol, q.sum(axis=1),
                                   by_upper.max(axis=1, initial=-np.inf)])
        most = np.minimum(nn.sum(axis=1), by_lower.min(axis=1, initial=np.inf))
        return not (np.any(least > most) or np.any(q[:, ~has_upper]))

    return _first_passing(passes, int(np.searchsorted(radii, dc.min(axis=0).max())),
                          radii.size)


def dump_lp_text(model: LpModel, stream) -> None:
    """Write the model in LP text interchange format (for debugging)."""
    def var(idx):
        i, j = model.kept[idx]
        return f"x_{i}_{j}"

    a = model.a

    def terms(r):
        lo, hi = a.indptr[r], a.indptr[r + 1]
        return "".join(f" {v:+.12g} {var(cidx)}"
                       for cidx, v in zip(a.indices[lo:hi], a.data[lo:hi]))

    centers = model.centers.tolist()
    h, is_upper, _ = _ratio_rows(model.gf)
    ub_labels = [f"mass_{i}" for i in centers] + [
        f"ratio_{'upper' if up else 'lower'}_{i}_{hh}"
        for i in centers for hh, up in zip(h, is_upper)]

    stream.write("\\ fairclus model"
                 + (f" radius_cap={model.lam}" if model.lam is not None else "")
                 + " centers=" + ",".join(map(str, centers))
                 + f" n={model.n} k={model.k}\n")
    stream.write("Minimize\n obj:")
    obj = [f" {model.c[idx]:+.12g} {var(idx)}" for idx in np.flatnonzero(model.c)]
    stream.write("".join(obj) if obj else " 0 " + var(0))
    stream.write("\nSubject To\n")
    for j, r in enumerate(range(model.n_ub, a.shape[0])):
        stream.write(f" assign_{j}:{terms(r)} = {model.hi[r]:.12g}\n")
    for r, label in enumerate(ub_labels):
        stream.write(f" {label}:{terms(r)} <= {model.hi[r]:.12g}\n")
    stream.write("Bounds\n")
    for idx in range(model.ncols):
        stream.write(f" 0 <= {var(idx)} <= 1\n")
    stream.write("End\n")
