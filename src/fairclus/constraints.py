"""Fairness specifications and checkers.

Two constraint families act on a clustering: per-cluster color-ratio bounds,
met up to an additive violation that the solvers measure and bound, and
per-color center-count bounds on the chosen center set. Ratio bounds are
held as exact fractions so that integer count comparisons never fail on
float noise.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations, islice

import numpy as np

from .errors import ParseError, ValidationError
from .instance import MetricInstance

OBJECTIVES = ("center", "median", "means")

# distances gathered per array operation over center sets: 8 MB of float64;
# C(n, k) may reach ten million
GATHER_CELLS = 1 << 20


def point_costs(d, objective: str):
    """What a point pays at distance ``d``: ``d``, or ``d ** 2`` for means."""
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    return d ** 2 if objective == "means" else d


def require_finite_costs(inst: MetricInstance, objective: str) -> None:
    """Refuse a means instance whose largest squared distance is not a
    finite float: its costs would overflow."""
    top = float(inst.dist.max())
    if objective == "means" and math.isinf(top * top):
        raise ValidationError(f"the largest distance {top!r} overflows when squared")


def objective_value(d, objective: str, axis=None):
    """The objective of points at distances ``d`` from their centers: the
    max of their costs for center, the sum otherwise, taken over ``axis``
    (all of ``d`` by default)."""
    costs = point_costs(d, objective)
    return costs.max(axis=axis) if objective == "center" else costs.sum(axis=axis)


def center_set_costs(inst: MetricInstance, sets, objective: str):
    """The objective of each center set in ``sets`` (point ids on the last
    axis) with every point at its nearest center: one value per set, a
    scalar for a single set."""
    mins = inst.distance_matrix()[sets].min(axis=-2)
    return objective_value(mins, objective, axis=-1)


def as_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, 'p/q' string, or finite decimal
    float. A bool, a zero denominator and a float that is not finite are
    refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValidationError(f"ratio bound {value!r} has a zero denominator") from None
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValidationError(f"ratio bound {value!r} is not finite")
        # decimal round-trip: a user writing 0.4 means 2/5, not the binary float
        return Fraction(Decimal(repr(float(value))))
    raise ValidationError(f"cannot interpret {value!r} as a ratio bound")


@dataclass(frozen=True)
class GroupFairnessSpec:
    """Per-color ratio window [lower_h, upper_h] of every cluster."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lower = tuple(as_fraction(v) for v in self.lower)
        upper = tuple(as_fraction(v) for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise ValidationError("lower/upper ratio arrays differ in length")
        for h, (lo, up) in enumerate(zip(lower, upper)):
            if not (0 <= lo <= up <= 1):
                raise ValidationError(
                    f"ratio bounds for color {h} must satisfy 0 <= {lo} <= {up} <= 1")
        if sum(lower) > 1:
            raise ValidationError("sum of lower ratio bounds exceeds 1")
        if sum(upper) < 1:
            raise ValidationError("sum of upper ratio bounds is below 1")

    @property
    def m(self) -> int:
        return len(self.lower)

    def lower_floats(self) -> np.ndarray:
        return self._floats[0]

    def upper_floats(self) -> np.ndarray:
        return self._floats[1]

    @functools.cached_property
    def _floats(self) -> tuple:
        """The ratio bounds as read-only float arrays, made once per spec."""
        bounds = (np.array([float(v) for v in self.lower]),
                  np.array([float(v) for v in self.upper]))
        for array in bounds:
            array.flags.writeable = False
        return bounds

    @functools.cached_property
    def _integer_windows(self) -> tuple:
        """Each color's window over its own common denominator, made once
        per spec: q_h = lcm of the denominators of l_h and u_h, then l_h q_h
        and u_h q_h, three tuples of Python integers."""
        den = tuple(math.lcm(low.denominator, up.denominator)
                    for low, up in zip(self.lower, self.upper))
        return (den, tuple(r.numerator * (q // r.denominator) for r, q in zip(self.lower, den)),
                tuple(r.numerator * (q // r.denominator) for r, q in zip(self.upper, den)))

    @functools.cached_property
    def ratio_rows(self) -> tuple:
        """Color, kind ("upper", "lower" or "equal") and float bound of
        each ratio row a cluster is held to, as two tuples: the <= rows, per
        color an upper row if u_h < 1 and a lower row if l_h > 0; then one
        equality row per color with 0 < l_h = u_h < 1, which has no <= rows.
        If every color has l_h = u_h, the ratios sum to 1 and the last
        color's rows, minus the sum of the others', are left out. Made once
        per spec."""
        ub, eq = [], []
        exact = self.lower == self.upper
        for h, (lower, upper) in enumerate(zip(self.lower, self.upper)):
            if exact and h == self.m - 1:
                break
            # Fractions in lowest terms: 0 < r < 1 iff 0 < numerator < denominator
            below_one = upper.numerator < upper.denominator
            if lower == upper and lower.numerator > 0 and below_one:
                eq.append((h, "equal", float(upper)))
                continue
            if below_one:
                ub.append((h, "upper", float(upper)))
            if lower.numerator > 0:
                ub.append((h, "lower", float(lower)))
        return tuple(ub), tuple(eq)


@dataclass(frozen=True)
class CenterDiversitySpec:
    """Per-color center-count window [L_h, U_h] for a size-k center set.
    Bounds and k must be Python or numpy integers, not bools; they are
    stored as Python ints."""

    lower: tuple
    upper: tuple
    k: int

    def __post_init__(self):
        lower = tuple(_count(v, "center-count bound") for v in self.lower)
        upper = tuple(_count(v, "center-count bound") for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "k", _count(self.k, "k"))
        if len(lower) != len(upper):
            raise ValidationError("center-count bound arrays differ in length")
        if self.k < 1:
            raise ValidationError(f"need k >= 1 centers, got {self.k}")
        for h, (lo, up) in enumerate(zip(lower, upper)):
            if lo < 0 or lo > up:
                raise ValidationError(
                    f"center-count bounds for color {h} must satisfy 0 <= {lo} <= {up}")
        if not (sum(lower) <= self.k <= sum(upper)):
            raise ValidationError(
                f"need sum(L) <= k <= sum(U), got {sum(lower)} <= {self.k} <= {sum(upper)}")

    @property
    def m(self) -> int:
        return len(self.lower)


def _count(value, name: str) -> int:
    """``value`` as a Python int; anything but a Python or numpy integer,
    and a bool, is refused: 2.7 centers is no count to round."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Clustering:
    """Centers plus a total assignment of every point to one center."""

    centers: tuple
    assignment: tuple
    objective: str
    cost: float

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}")
        cset = set(self.centers)
        if not cset.issuperset(self.assignment):
            j, c = next((j, c) for j, c in enumerate(self.assignment) if c not in cset)
            raise ValidationError(f"point {j} assigned to non-center {c}")

    def members(self, center: int) -> list:
        return [j for j, c in enumerate(self.assignment) if c == center]

    def to_dict(self) -> dict:
        return {
            "centers": list(self.centers),
            "assignment": list(self.assignment),
            "objective": self.objective,
            "cost": self.cost,
        }

    @staticmethod
    def from_dict(obj: dict) -> "Clustering":
        """The clustering a JSON object describes; every center and
        assignment entry must be an integer id (a bool or 1.0 is not)."""
        if not isinstance(obj, dict):
            raise ParseError("clustering JSON must be an object")
        try:
            ids = {key: tuple(obj[key]) for key in ("centers", "assignment")}
            bad = [(key, c) for key, values in ids.items() for c in values
                   if isinstance(c, bool) or not isinstance(c, (int, np.integer))]
            if bad:
                key, value = bad[0]
                raise ParseError(f"invalid clustering JSON: {key} entry {value!r} "
                                 "is not an integer id")
            return Clustering(ids["centers"], ids["assignment"], obj["objective"],
                              float(obj["cost"]))
        except KeyError as exc:
            raise ParseError(f"clustering JSON missing key {exc}") from exc
        except (TypeError, ValueError) as exc:  # e.g. a non-list or a non-numeric cost
            raise ParseError(f"invalid clustering JSON: {exc}") from exc


def clustering_cost(inst: MetricInstance, assignment, objective: str) -> float:
    """max / sum / sum-of-squares of point-to-assigned-center distances."""
    dists = inst.distance_matrix()[np.asarray(assignment, dtype=int), np.arange(inst.n)]
    return float(objective_value(dists, objective))


def make_clustering(inst, centers, assignment, objective) -> Clustering:
    cost = clustering_cost(inst, tuple(assignment), objective)
    return Clustering(tuple(sorted(centers)), tuple(assignment), objective, cost)


def _require_colors(inst: MetricInstance, spec, name: str) -> None:
    if spec.m != inst.m:
        raise ValidationError(f"{name} spec has {spec.m} colors, instance has {inst.m}")


def cluster_color_counts(inst: MetricInstance, clustering: Clustering) -> np.ndarray:
    """(k, m) table of each cluster's color counts, a row per center in the
    order of ``clustering.centers``; its row sums are the cluster sizes."""
    centers = np.asarray(clustering.centers, dtype=np.int64)
    if len(clustering.assignment) != inst.n or not all(0 <= c < inst.n for c in centers.tolist()):
        raise ValidationError(f"the clustering does not fit the instance's {inst.n} points")
    cell = np.asarray(clustering.assignment, dtype=np.int64) * inst.m + inst.colors
    return np.bincount(cell, minlength=inst.n * inst.m).reshape(inst.n, inst.m)[centers]


def _worst_violation(counts: np.ndarray, gf: GroupFairnessSpec) -> Fraction:
    """The most any color count of the clusters with color counts ``counts``
    (a row per nonempty cluster) lies outside its window [l_h |C|, u_h |C|];
    negative when every count is strictly inside.

    Exact: per color h, every term is an integer over the common denominator
    q_h of l_h and u_h, computed in int64 where max_h q_h * (n + 1) stays
    below 2^62 and in Python integers otherwise."""
    sizes = counts.sum(axis=1)
    den, low, up = gf._integer_windows
    kind = np.int64 if max(den) * (int(sizes.max()) + 1) < 2**62 else object
    size = sizes.astype(kind)[:, None]
    scaled = counts.astype(kind) * np.array(den, dtype=kind)
    over = np.maximum(np.array(low, dtype=kind) * size - scaled,
                      scaled - np.array(up, dtype=kind) * size).max(axis=0).tolist()
    best = 0  # the color of the largest over_h / q_h
    for h in range(1, len(den)):
        if over[h] * den[best] > over[best] * den[h]:
            best = h
    return Fraction(int(over[best]), den[best])


def gf_violation_of_counts(counts: np.ndarray, gf: GroupFairnessSpec) -> float:
    """``gf_violation`` of the clusters whose color counts are the rows of
    ``counts`` (as ``cluster_color_counts`` gives them), each nonempty."""
    return float(max(Fraction(0), _worst_violation(counts, gf)))


def gf_violation(inst: MetricInstance, clustering: Clustering,
                 gf: GroupFairnessSpec) -> float:
    """Smallest rho >= 0 with l_h |C| - rho <= |C ∩ P_h| <= u_h |C| + rho for
    every cluster C and color h; exact, returned as float. The pipeline
    guarantees at most 2. The spec must have the instance's colors."""
    _require_colors(inst, gf, "gf")
    counts = cluster_color_counts(inst, clustering)
    empty = np.flatnonzero(counts.sum(axis=1) == 0)
    if empty.size:
        raise ValidationError(f"cluster of center {clustering.centers[empty[0]]} is empty")
    return gf_violation_of_counts(counts, gf)


def check_ds(inst: MetricInstance, centers, ds: CenterDiversitySpec) -> bool:
    """True iff there are exactly k centers, no id repeats and
    L_h <= |centers ∩ P_h| <= U_h for every color. The spec must have the
    instance's colors."""
    _require_colors(inst, ds, "ds")
    centers = list(centers)
    if len(centers) != ds.k or len(set(centers)) != len(centers):
        return False
    counts = np.bincount(inst.colors[centers], minlength=ds.m).tolist() if centers else \
        [0] * ds.m
    return all(low <= count <= up for low, count, up in zip(ds.lower, counts, ds.upper))


def diverse_center_blocks(inst: MetricInstance, ds: CenterDiversitySpec):
    """Every size-k center set that ``check_ds`` accepts, ascending point ids
    in lexicographic order, as (rows, k) int arrays, one per block of
    ``max(1, GATHER_CELLS // (k n))`` combinations that holds an accepted
    set, so gathering a block's distances (``center_set_costs``) reads at
    most ``GATHER_CELLS`` of them. The spec must have the instance's
    colors."""
    _require_colors(inst, ds, "ds")
    k = ds.k
    rows = max(1, GATHER_CELLS // (k * inst.n))
    combos = combinations(range(inst.n), k)
    while True:
        block = list(islice(combos, rows))
        if not block:
            return
        sets = np.fromiter(chain.from_iterable(block), dtype=np.intp,
                           count=len(block) * k).reshape(len(block), k)
        counts = (inst.colors[sets][:, :, None] == np.arange(ds.m)).sum(axis=1)
        keep = ((counts >= ds.lower) & (counts <= ds.upper)).all(axis=1)
        if keep.any():
            yield sets[keep]


def center_count_failures(inst: MetricInstance, ds: CenterDiversitySpec) -> list:
    """Why no size-k center set meets the center-count bounds; empty exactly
    when one does.

    The sets S with |S ∩ P_h| <= min(U_h, |P_h|) for every color and
    sum_h max(|S ∩ P_h|, L_h) <= k are the independent sets of a matroid
    whose size-k sets are the ones ``check_ds`` accepts. So such a set exists
    exactly when sum_h L_h <= k, L_h <= min(U_h, |P_h|) for every color, and
    sum_h min(U_h, |P_h|) >= k. Colors beyond the smaller of the instance's
    and the spec's color counts are not read."""
    failures, shared = [], range(min(ds.m, inst.m))
    if not (sum(ds.lower) <= ds.k <= sum(ds.upper)):
        failures.append(
            f"center-count bounds cannot host k: sum(L)={sum(ds.lower)}, "
            f"k={ds.k}, sum(U)={sum(ds.upper)}")
    counts = inst.color_counts()
    for h in shared:
        if counts[h] < ds.lower[h]:
            name = inst.color_names[h] if inst.color_names else str(h)
            failures.append(
                f"insufficient points of color {name}: have {counts[h]}, "
                f"need at least {ds.lower[h]} centers")
    capacity = sum(min(ds.upper[h], int(counts[h])) for h in shared)
    if inst.n < ds.k:
        failures.append(f"fewer points ({inst.n}) than clusters ({ds.k})")
    elif capacity < ds.k:
        failures.append(f"too few points within the center-count caps: "
                        f"Σ min(U_h, |P_h|) = {capacity} < k = {ds.k}")
    return failures


@dataclass(frozen=True)
class PrecheckReport:
    ok: bool
    failures: tuple

    def __str__(self):
        return "ok" if self.ok else "; ".join(self.failures)


def feasibility_precheck(inst: MetricInstance, gf: GroupFairnessSpec,
                         ds: CenterDiversitySpec) -> PrecheckReport:
    """Diagnose the necessary feasibility conditions; never raises.

    The exact test l_h * n <= |P_h| <= u_h * n holds exactly when the full
    LP, and the uncapped fixed-center LP over any k <= n centers, is
    feasible: 1/k of every point at each center meets every row, and summing
    each center's ratio rows of a feasible point gives the test."""
    failures = center_count_failures(inst, ds)
    counts = inst.color_counts()
    if sum(gf.lower) > 1:
        failures.append("lower ratios exceed 1")
    if sum(gf.upper) < 1:
        failures.append("upper ratios sum below 1")
    for h in range(min(gf.m, inst.m)):
        if not gf.lower[h] * inst.n <= int(counts[h]) <= gf.upper[h] * inst.n:
            name = inst.color_names[h] if inst.color_names else str(h)
            failures.append(
                f"color {name} holds {counts[h]} of {inst.n} points, a ratio "
                f"outside its window [{gf.lower[h]}, {gf.upper[h]}]")
    if gf.m != inst.m or ds.m != inst.m:
        failures.append(
            f"spec color count mismatch: instance m={inst.m}, "
            f"gf m={gf.m}, ds m={ds.m}")
    return PrecheckReport(ok=not failures, failures=tuple(failures))


def exact_gf_spec(inst: MetricInstance) -> GroupFairnessSpec:
    """Exact preservation of ratios: lower_h = upper_h = |P_h| / n."""
    counts = inst.color_counts()
    ratios = tuple(Fraction(int(c), inst.n) for c in counts)
    return GroupFairnessSpec(lower=ratios, upper=ratios)


def default_ds_profile(inst: MetricInstance, k: int) -> CenterDiversitySpec:
    """Exact center-count profile (L=U) apportioning k by color frequency.

    Largest-remainder apportionment capped by actual color counts; always
    feasible when k <= n.
    """
    if k > inst.n:
        raise ValidationError(f"k={k} exceeds n={inst.n}")
    counts = inst.color_counts()
    quota = [Fraction(k * int(c), inst.n) for c in counts]
    base = [min(int(q), int(c)) for q, c in zip(quota, counts)]
    remaining = k - sum(base)
    order = sorted(range(inst.m), key=lambda h: (-(quota[h] - int(quota[h])), h))
    idx = 0
    while remaining > 0:
        h = order[idx % inst.m]
        if base[h] < counts[h]:
            base[h] += 1
            remaining -= 1
        idx += 1
        if idx > 10 * inst.m * (k + 1):
            raise ValidationError("cannot apportion centers among colors")
    return CenterDiversitySpec(lower=tuple(base), upper=tuple(base), k=k)


def load_fairness_spec(source, inst: MetricInstance | None = None):
    """Read (gf, ds) specs from JSON.

    Schema: {"gf": {"lower": [..], "upper": [..]},
             "ds": {"lower": [..], "upper": [..]}, "k": int,
             "exact_gf": bool}.
    ``exact_gf`` (a JSON boolean, false if absent) replaces the gf block
    with exact ratio preservation and requires the instance. Other keys,
    such as the ``rho`` that older specs hold in their gf block, are
    ignored.
    """
    if isinstance(source, dict):
        obj = source
    else:
        from .instance import read_text_source
        try:
            obj = json.loads(read_text_source(source))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid fairness spec JSON: {exc}") from exc

    if not isinstance(obj, dict) or "k" not in obj or "ds" not in obj:
        raise ParseError("fairness spec JSON requires 'k' and 'ds'")
    k = _spec_int(obj["k"], "k")
    if not isinstance(obj.get("gf", {}), dict):
        raise ParseError("fairness spec 'gf' must be a JSON object")
    exact = obj.get("exact_gf", False)
    if not isinstance(exact, bool):
        raise ParseError(f"fairness spec 'exact_gf' must be true or false, got {exact!r}")
    if exact and inst is None:
        raise ParseError("exact_gf requires the instance to derive ratios")
    if not exact and "gf" not in obj:
        raise ParseError("fairness spec JSON requires 'gf' unless exact_gf is set")
    ds_lower, ds_upper = _spec_bounds(obj, "ds")
    ds_bounds = ([_spec_int(v, "ds lower") for v in ds_lower],
                 [_spec_int(v, "ds upper") for v in ds_upper])
    gf_bounds = None if exact else _spec_bounds(obj, "gf")
    try:  # ratio bounds that Fraction() cannot read
        ds = CenterDiversitySpec(*ds_bounds, k=k)
        gf = exact_gf_spec(inst) if exact else GroupFairnessSpec(*gf_bounds)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid fairness spec: {exc}") from exc
    return gf, ds


def _spec_int(value, name: str) -> int:
    try:
        return _count(value, f"fairness spec {name!r}")
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def _spec_bounds(obj: dict, block: str) -> tuple:
    """The (lower, upper) bound tuples of a spec block."""
    section = obj[block]
    if not (isinstance(section, dict) and isinstance(section.get("lower"), list)
            and isinstance(section.get("upper"), list)):
        raise ParseError(
            f"fairness spec block {block!r} requires 'lower' and 'upper' lists")
    return tuple(section["lower"]), tuple(section["upper"])
