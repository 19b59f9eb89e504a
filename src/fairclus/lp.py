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

The model is written over classes of points, each of one color. A radius
probe puts the points of one color that reach the same centers under the
cap in one class (as KFC does; Harb and Lam, NeurIPS 2020); a cost model
keeps one class per point, since each point pays its own distances. The
variable y_iG = sum_{j in G} x_ij of center i and class G lies in [0, |G|],
and the rows are the constraints above summed over each class:

    sum_{i in S} y_iG = |G|             for every class G
    sum_G y_iG >= 1                     for every center i in S
    l_h * sum_G y_iG <= sum_{G of color h} y_iG <= u_h * sum_G y_iG
                                        for every center i in S and color h
    y_iG exists only for the centers i that G reaches

A color with 0 < l_h = u_h < 1 has one equality row per center in place of
its two ratio rows. When every color's window is exact the ratios sum to 1,
so the last color's rows are minus the sum of the others' and are left out.
Every feasible x sums to a feasible y, and ``solve_lp``'s northwest-corner
split turns a feasible y back into a feasible x: the two programs are
feasible together, with one optimum. Radius-capped variables are left out
of the model rather than constrained to zero; the feasible set is the same
and the model much smaller.

Every pipeline solves this program over its diverse centers: k-center
searches for the smallest radius cap at which it is feasible, median and
means minimize its cost. A solution keeps a row of x per center, so it is a
k x n table and no mass can lie off the centers.
"""

from __future__ import annotations

import logging
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

log = logging.getLogger("fairclus")

EPS_POS = 1e-9  # support threshold: x_ij counts as positive above this
RESIDUAL_TOL = 1e-7  # accepted constraint residual after repair
MASS_TOL = 1e-6  # accepted slack on mass checks and on a cost against its LP bound
# every HiGHS call: no log output (with it on, HiGHS can end at another
# vertex) and no presolve (see solve_lp)
_HIGHS_OPTIONS = {"output_flag": False, "presolve": False}
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


@dataclass
class LpModel:
    """The program over the sorted center set ``centers`` as HiGHS reads it,
    plus enough context to interpret it.

    Point j lies in class ``point_class[j]``; classes are numbered in the
    order of their first members. Column ``a`` is ``y[kept[a, 0], kept[a,
    1]]``, the mass class ``kept[a, 1]`` sends to center ``kept[a, 0]``, and
    lies in [0, |G|]. The first ``nfree`` columns are free. The rest belong
    to the classes that reach one center only, and are fixed at |G|. Each
    part is in row-major (center, class) order.

    ``a`` is one CSC matrix whose row r holds ``lo[r] <= a[r] @ y <=
    hi[r]``: first the <= rows (``lo = -inf``), one ``-sum_G y_iG <= -1``
    row per center and then per center the <= ratio rows of
    ``_ratio_rows(gf)``; then the = rows, per center its equality ratio
    rows, then one ``sum_i y_iG = |G|`` row per class. ``a_ub`` and
    ``a_eq`` are the two row blocks, sliced from ``a`` on every read; their
    bounds are ``hi[:n_ub]`` and ``hi[n_ub:]``.
    """

    n: int
    kept: np.ndarray  # (A, 2) int array of (center, class) pairs
    a: sparse.csc_matrix
    lo: np.ndarray  # row lower bounds
    hi: np.ndarray  # row upper bounds
    c: np.ndarray  # objective coefficients (all zero for feasibility models)
    lam: float | None  # radius cap, None for an uncapped model
    gf: GroupFairnessSpec
    centers: np.ndarray  # sorted ids of the centers
    point_class: np.ndarray  # (n,) int: the class of each point
    nfree: int  # columns [0, nfree) are free, the rest fixed

    @property
    def k(self) -> int:
        return self.centers.size

    @property
    def ncols(self) -> int:
        return len(self.kept)

    @property
    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.point_class)

    @property
    def n_ub(self) -> int:
        return int(np.count_nonzero(self.lo == -np.inf))

    @property
    def a_ub(self) -> sparse.csc_matrix:
        return self.a[:self.n_ub]

    @property
    def a_eq(self) -> sparse.csc_matrix:
        return self.a[self.n_ub:]


def _ratio_rows(gf: GroupFairnessSpec):
    """Color, kind ("upper", "lower" or "equal") and ratio bound of each
    center's ratio rows, as two lists: the <= rows, per color an upper row
    if u_h < 1 and a lower row if l_h > 0; then one equality row per color
    with 0 < l_h = u_h < 1, which has no <= rows. If every color has
    l_h = u_h, the ratios sum to 1 and the last color's rows, minus the sum
    of the others', are left out."""
    ub, eq = [], []
    exact = gf.lower == gf.upper
    for h, (lower, upper) in enumerate(zip(gf.lower, gf.upper)):
        if exact and h == gf.m - 1:
            break
        if 0 < lower == upper < 1:
            eq.append((h, "equal", float(upper)))
            continue
        if upper < 1:
            ub.append((h, "upper", float(upper)))
        if lower > 0:
            ub.append((h, "lower", float(lower)))
    return ub, eq


def _reach_classes(reach: np.ndarray, colors: np.ndarray):
    """Class of each point and first member of each class, for the (k, n)
    flags ``reach``: points of one color that reach the same centers share a
    class, and classes are numbered in the order of their first members.
    The key is the color above the reach mask; above 32 centers it is
    renumbered every 32 so that it fits 64 bits."""
    key = colors
    for start in range(0, reach.shape[0], 32):
        if start:
            key = np.unique(key, return_inverse=True)[1]
        chunk = reach[start:start + 32]
        key = key << chunk.shape[0] | (1 << np.arange(chunk.shape[0])) @ chunk
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return number[inverse], first[order]


def _build(inst: MetricInstance, gf: GroupFairnessSpec, centers,
           lam: float | None, objective: str | None) -> LpModel:
    centers = _center_ids(inst, centers)
    if gf.m != inst.m:
        raise ValidationError(f"gf spec has {gf.m} colors, instance has {inst.m}")
    n, k = inst.n, centers.size
    d = inst.distance_matrix()
    if objective is None:  # a class per color and reach set
        reach = (np.ones((k, n), dtype=bool) if lam is None
                 else d[centers] <= lam + EPS_D)
        point_class, first = _reach_classes(reach, inst.colors)
        reach = reach[:, first]
    else:  # a class per point
        reach = np.ones((k, n), dtype=bool)
        point_class = first = np.arange(n)
    size = np.bincount(point_class)

    # columns: the (center slot, class) pairs of the classes that reach two
    # or more centers, then those of the classes that reach one
    free = reach.sum(axis=0) > 1
    slot, cls = np.nonzero(reach)
    order = np.argsort(~free[cls], kind="stable")
    slot, cls = slot[order], cls[order]
    nx = slot.size

    # rows: k mass rows, the <= ratio rows and the equality ratio rows (each
    # center by center), then a row per class. Column (s, G) holds -1 in
    # mass row s, [c_G = h] - u (upper and equality rows) or l - [c_G = h]
    # (lower rows) in center s's ratio rows, and 1 in G's row; zero
    # coefficients are not stored.
    ub, eq = _ratio_rows(gf)
    ratio = ub + eq
    is_lower = np.array([r[1] == "lower" for r in ratio], dtype=bool)
    bound = np.array([r[2] for r in ratio])
    in_h = (np.arange(gf.m)[:, None] == [r[0] for r in ratio]).astype(float)
    coef = np.where(is_lower, bound - in_h, in_h - bound)  # (m, R)
    nb, ne = len(ub), len(eq)
    first_row = np.concatenate((k + np.arange(nb), k * (1 + nb) + np.arange(ne)))
    stride = np.concatenate((np.full(nb, nb), np.full(ne, ne)))
    n_rows = k * (1 + nb + ne) + size.size
    rows = np.column_stack((slot, first_row + slot[:, None] * stride,
                            n_rows - size.size + cls))
    data = np.column_stack((-np.ones(nx), coef[inst.colors[first[cls]]], np.ones(nx)))
    stored = data != 0.0
    a = sparse.csc_matrix(
        (data[stored], rows[stored], np.concatenate(([0], np.cumsum(stored.sum(axis=1))))),
        shape=(n_rows, nx))
    lo = np.concatenate((np.full(k * (1 + nb), -np.inf), np.zeros(k * ne), size))
    hi = np.concatenate((-np.ones(k), np.zeros(k * (nb + ne)), size))

    c = (np.zeros(nx) if objective is None
         else point_costs(d[centers[slot], first[cls]], objective))

    return LpModel(n=n, kept=np.column_stack((centers[slot], cls)), a=a, lo=lo,
                   hi=hi, c=c, lam=lam, gf=gf, centers=centers,
                   point_class=point_class, nfree=int(np.count_nonzero(free[cls])))


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
    finite number >= 0: each center's own column always stays. Its classes
    are the points of one color that reach the same centers."""
    if lam is not None:
        lam = float(lam)
        if not 0.0 <= lam < np.inf:  # NaN fails too
            raise ValidationError(f"radius cap must be finite and >= 0, got {lam}")
    return _build(inst, gf, centers, lam=lam, objective=None)


def build_gf_objective_lp(inst: MetricInstance, gf: GroupFairnessSpec,
                          centers, objective: str) -> LpModel:
    """Cost-minimizing program (no radius cutoff) for median or means over
    ``centers`` (distinct point ids): those centers are open, and only they
    receive mass. Each point is a class of its own."""
    if objective not in ("median", "means"):
        raise ValidationError("objective LP supports 'median' and 'means' only")
    return _build(inst, gf, centers, lam=None, objective=objective)


def solve_lp(model: LpModel):
    """Solve a model with HiGHS, through scipy's ``milp`` with no integer
    column; returns a repaired FractionalSolution, or None if the model is
    infeasible.

    HiGHS gets the free columns only: the fixed ones sit at their class
    sizes, and their part of each row moves into its bounds. If no column
    is free (k = 1, or every class reaches one center), HiGHS is not called
    and each row is checked here, at RESIDUAL_TOL, the tolerance of
    ``check_lp_solution``. A class that reaches no center leaves its row
    empty, and so the model infeasible.

    HiGHS gets one row-bounded matrix, the column bounds [0, |G|],
    ``output_flag`` off (as scipy's ``linprog`` set it: with it on, HiGHS
    can return another optimal vertex) and presolve off. With the fixed
    columns gone there is little for presolve to remove: on an n=80, k=4
    cost model HiGHS took 2.4 -> 0.8 ms without it (2-vCPU VM). Costs go in
    scaled by the power of two that brings the largest into [1, 2). The
    scaling is exact and leaves the optimal vertices as they are, and
    HiGHS's absolute tolerances then mean the same at any coordinate scale:
    at 2^-20, where d^2 is near 1e-12, unscaled costs fall below them and
    the optimum is lost.

    Each class's mass is split over its members by the northwest-corner
    rule: members in id order fill the centers in sorted order, each member
    one unit. A class with p positive columns so gets at most p - 1
    fractional members, and at a vertex the positive columns beyond one per
    class number at most k(2m + 1) (see ``flow``). The solution is k x n,
    a row per center. Repair: negatives clamped, each assignment column
    renormalized to sum exactly 1 (the flow rounds each column as one unit
    of mass). Residuals are not re-verified; see ``check_lp_solution``,
    which checks the split table against ``inst`` and ``gf``, so the model
    cannot vouch for itself.
    """
    a, nfree = model.a, model.nfree
    size = model.class_sizes
    col_size = size[model.kept[:, 1]].astype(float)
    value = col_size.copy()
    value[:nfree] = 0.0
    fixed_part = a @ value
    lo, hi = model.lo - fixed_part, model.hi - fixed_part
    if nfree == 0:
        if np.any(np.maximum(lo, -hi) > RESIDUAL_TOL):
            return None
    else:
        c = model.c[:nfree]
        c = np.ldexp(c, 1 - np.frexp(c.max())[1])
        with warnings.catch_warnings():
            # milp warns that it passes output_flag, an option it does not know, on verbatim
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            free = a if nfree == model.ncols else a[:, :nfree]
            res = milp(c, constraints=LinearConstraint(free, lo, hi),
                       bounds=Bounds(0.0, col_size[:nfree]), options=_HIGHS_OPTIONS)
        if res.status == 2:
            return None
        if res.status != 0:
            raise NumericalError(f"LP backend failed with status {res.status}: {res.message}")
        value[:nfree] = res.x

    # northwest corner: member r of class G takes [r, r + 1) of G's mass,
    # center s the interval ending at y_1G + ... + y_sG
    cls = model.point_class
    y = np.zeros((model.k, size.size))
    y[np.searchsorted(model.centers, model.kept[:, 0]), model.kept[:, 1]] = np.maximum(value, 0.0)
    top = np.cumsum(y, axis=0)[:, cls]
    order = np.argsort(cls, kind="stable")
    rank = np.empty(cls.size)
    rank[order] = np.arange(cls.size) - (np.cumsum(size) - size)[cls[order]]
    x = np.minimum(top, rank + 1.0) - np.maximum(top - y[:, cls], rank)
    np.clip(x, 0.0, 1.0, out=x)
    sums = x.sum(axis=0)
    if np.any(sums < 0.5):
        raise NumericalError("an assignment column lost more than half its mass")
    x /= sums[None, :]
    return FractionalSolution(rows=model.centers, x=x)


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
        log.debug("radius probe %r: %d classes, %d columns to HiGHS, %s", radius,
                  model.class_sizes.size, model.nfree,
                  "infeasible" if sol is None else "feasible")
        if sol is not None:
            best = LambdaSearchResult(radius, model, sol)
        return sol is not None

    if _first_passing(feasible, 0, radii.size) == radii.size:
        raise InfeasibleError(
            "group fairness program infeasible even at the largest radius",
            diagnosis=infeasibility_diagnosis(gf, len(centers), inst.n))
    return best


def _window_counts(start, end, key, w: int, bins: int) -> np.ndarray:
    """(bins, w) table whose entry [b, t] counts the items with key b and
    start <= t < end; a start or end of w lies past the window."""
    size = bins * (w + 1)
    diff = (np.bincount((key * (w + 1) + start).ravel(), minlength=size)
            - np.bincount((key * (w + 1) + end).ravel(), minlength=size))
    return np.cumsum(diff.reshape(bins, w + 1)[:, :w], axis=1)


def _set_counts(first: np.ndarray, w: int, colors: np.ndarray, n_h: np.ndarray):
    """Size |T| and the per-color counts Q_h(T) and N_h(T) of each tested
    center set T at each of the w radii of a window, as arrays of shape
    (F,), (F, m, w) and (F, m, w).

    Point j reaches center i from the radius ``first[i, j]`` of the window
    on (never if w). Q_h(T) counts the color-h points whose reach set lies
    within T (a point that reaches no center counts in every T); N_h(T)
    counts those that reach some center in T, which is n_h - Q_h(S - T).
    A point changes its counts only where it reaches another center, so
    the counts are summed from those changes, in O(k n) work per window.
    """
    k, n = first.shape
    m = n_h.size
    n_h = n_h[:, None]
    if k <= _ALL_SETS_MAX_K:
        # every T as a bitmask: count the points per (reach mask, color),
        # the key of the model's classes, and radius, then sum the counts
        # of every mask within T (a subset-sum transform). Point j's mask
        # gains a bit at each of its k reach radii, taken in order.
        by = np.argsort(first, axis=0, kind="stable")
        at = np.take_along_axis(first, by, axis=0)
        none = np.zeros((1, n), dtype=int)
        masks = np.vstack((none, np.cumsum(1 << by, axis=0)))
        q = _window_counts(np.vstack((none, at)), np.vstack((at, np.full((1, n), w))),
                           masks * m + colors, w, m << k).reshape(1 << k, m, w)
        for i in range(k):
            halves = q.reshape(-1, 2, (m * w) << i)
            halves[:, 1] += halves[:, 0]
        size = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).sum(axis=1)
        return size, q, n_h - q[::-1]  # q[::-1][T] is q[S - T]
    # a point reaches exactly one center, its nearest, from its earliest
    # reach radius t1 to its second t2 (w past a single center)
    t1, t2 = np.partition(np.vstack((first, np.full((1, n), w))), 1, axis=0)[:2]
    reaches_i = _window_counts(first, w, np.arange(k)[:, None] * m + colors, w,
                               k * m).reshape(k, m, w)  # N_h({i})
    unreached = n_h - _window_counts(t1, w, colors, w, m)
    only_i = (_window_counts(t1, t2, first.argmin(axis=0) * m + colors, w, k * m)
              .reshape(k, m, w) + unreached)  # Q_h({i})
    size = np.concatenate((np.ones(k, dtype=int), np.full(k, k - 1), [k]))
    q = np.concatenate((only_i, n_h - reaches_i, np.broadcast_to(n_h, (1, m, w))))
    return size, q, np.concatenate((reaches_i, n_h - only_i, (n_h - unreached)[None]))


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
    of sets gives a valid bound. The set T = S fails while some point
    reaches no center (Q_h(S) counts it, N_h(S) does not), so the search
    starts at the nearest-assignment radius (the largest distance from a
    point to its nearest center). Candidates below it but within EPS_D of
    it are skipped, although every point reaches a center there, so that
    the radius found is never below the nearest-assignment radius.

    Reach only grows with r, so the bound is monotone, and the candidates
    are tested in order, a window per numpy pass: the first 16, then 4
    times as many per window (at most about ``_WINDOW_CELLS`` count bins in
    one), and the first passing one is the answer.

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

    def passes(window: np.ndarray) -> np.ndarray:
        # point j reaches center i from the first radius r of the window
        # with d(i, j) <= r + EPS_D on
        first = np.searchsorted(window + EPS_D, dc)
        size, q, nn = _set_counts(first, window.size, colors, n_h)
        size = size[:, None]
        tol = size * RESIDUAL_TOL
        by_upper = (q[:, has_upper] - tol[:, None]) / upper[has_upper, None]
        by_lower = (nn[:, has_lower] + tol[:, None]) / lower[has_lower, None]
        least = np.maximum(np.maximum(size - tol, q.sum(axis=1)),
                           by_upper.max(axis=1, initial=-np.inf))
        most = np.minimum(nn.sum(axis=1), by_lower.min(axis=1, initial=np.inf))
        return ~(np.any(least > most, axis=0) | np.any(q[:, ~has_upper], axis=(0, 1)))

    k = dc.shape[0]
    cells = gf.m << k if k <= _ALL_SETS_MAX_K else gf.m * k
    start, width = int(np.searchsorted(radii, dc.min(axis=0).max())), 16
    while start < radii.size:
        window = radii[start:start + width]
        passed = passes(window)
        if passed.any():
            return start + int(passed.argmax())
        start += window.size
        width = max(16, min(4 * width, _WINDOW_CELLS // cells))
    return radii.size


def dump_lp_text(model: LpModel, stream) -> None:
    """Write the model in LP text interchange format (for debugging).
    Column ``x_i_j`` is the mass the class of point j, its first member,
    sends to center i; a comment line lists the members of each class of
    two or more points."""
    first = np.unique(model.point_class, return_index=True)[1]
    size = model.class_sizes

    def var(idx):
        i, g = model.kept[idx]
        return f"x_{i}_{first[g]}"

    a = model.a.tocsr()

    def terms(r):
        lo, hi = a.indptr[r], a.indptr[r + 1]
        return "".join(f" {v:+.12g} {var(cidx)}"
                       for cidx, v in zip(a.indices[lo:hi], a.data[lo:hi]))

    centers = model.centers.tolist()
    ub, eq = _ratio_rows(model.gf)
    labels = ([f"mass_{i}" for i in centers]
              + [f"ratio_{kind}_{i}_{h}" for rows in (ub, eq) for i in centers
                 for h, kind, _ in rows]
              + [f"assign_{j}" for j in first])

    stream.write("\\ fairclus model"
                 + (f" radius_cap={model.lam}" if model.lam is not None else "")
                 + " centers=" + ",".join(map(str, centers))
                 + f" n={model.n} k={model.k}\n")
    for g in np.flatnonzero(size > 1):
        members = np.flatnonzero(model.point_class == g)
        stream.write(f"\\ class {first[g]}: " + ",".join(map(str, members)) + "\n")
    stream.write("Minimize\n obj:")
    obj = [f" {model.c[idx]:+.12g} {var(idx)}" for idx in np.flatnonzero(model.c)]
    stream.write("".join(obj) if obj else " 0 " + var(0))
    stream.write("\nSubject To\n")
    n_ub = model.n_ub
    for r in [*range(n_ub, a.shape[0]), *range(n_ub)]:
        sense = "=" if model.lo[r] == model.hi[r] else "<="
        stream.write(f" {labels[r]}:{terms(r)} {sense} {model.hi[r]:.12g}\n")
    stream.write("Bounds\n")
    for idx in range(model.ncols):
        bound = size[model.kept[idx, 1]]
        stream.write(f" 0 <= {var(idx)} <= {bound}\n" if idx < model.nfree
                     else f" {var(idx)} = {bound}\n")
    stream.write("End\n")
