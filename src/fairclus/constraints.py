"""Fairness specifications and checkers.

Two constraint families act on a clustering: per-cluster color-ratio bounds
with an additive violation budget, and per-color center-count bounds on the
chosen center set. Ratio bounds are held as exact fractions so that integer
count comparisons never fail on float noise.
"""

from __future__ import annotations

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

# center sets checked per array operation; C(n, k) may reach ten million
CENTER_SET_BLOCK = 4096


def point_costs(d, objective: str):
    """What a point pays at distance ``d``: ``d``, or ``d ** 2`` for means."""
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    return d ** 2 if objective == "means" else d


def objective_value(d, objective: str, axis=None):
    """The objective of points at distances ``d`` from their centers: the
    max of their costs for center, the sum otherwise, taken over ``axis``
    (all of ``d`` by default)."""
    costs = point_costs(d, objective)
    return costs.max(axis=axis) if objective == "center" else costs.sum(axis=axis)


def as_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, 'p/q' string, or decimal float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (float, np.floating)):
        # decimal round-trip: a user writing 0.4 means 2/5, not the binary float
        return Fraction(Decimal(repr(float(value))))
    raise ValidationError(f"cannot interpret {value!r} as a ratio bound")


@dataclass(frozen=True)
class GroupFairnessSpec:
    """Per-color ratio window [lower_h, upper_h] plus additive budget rho."""

    lower: tuple
    upper: tuple
    rho: int = 0

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
        if self.rho < 0:
            raise ValidationError("violation budget rho must be nonnegative")
        if sum(lower) > 1:
            raise ValidationError("sum of lower ratio bounds exceeds 1")
        if sum(upper) < 1:
            raise ValidationError("sum of upper ratio bounds is below 1")

    @property
    def m(self) -> int:
        return len(self.lower)

    def lower_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.lower])

    def upper_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.upper])


@dataclass(frozen=True)
class CenterDiversitySpec:
    """Per-color center-count window [L_h, U_h] for a size-k center set."""

    lower: tuple
    upper: tuple
    k: int

    def __post_init__(self):
        lower = tuple(int(v) for v in self.lower)
        upper = tuple(int(v) for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
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
        for j, c in enumerate(self.assignment):
            if c not in cset:
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
        if not isinstance(obj, dict):
            raise ParseError("clustering JSON must be an object")
        try:
            return Clustering(tuple(obj["centers"]), tuple(obj["assignment"]),
                              obj["objective"], float(obj["cost"]))
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


def check_cluster_group_fair(inst: MetricInstance, cluster, gf: GroupFairnessSpec,
                             rho=None) -> bool:
    """Exact Def.-style check: l_h |C| - rho <= |C ∩ P_h| <= u_h |C| + rho.
    The spec must have the instance's colors."""
    _require_colors(inst, gf, "gf")
    members = list(cluster)
    if not members:
        raise ValidationError("group fairness is undefined on an empty cluster")
    counts = np.bincount(inst.colors[members], minlength=gf.m)
    return _worst_violation(counts[None, :], gf) <= (gf.rho if rho is None else rho)


def _require_colors(inst: MetricInstance, spec, name: str) -> None:
    if spec.m != inst.m:
        raise ValidationError(f"{name} spec has {spec.m} colors, instance has {inst.m}")


def cluster_color_counts(inst: MetricInstance, clustering: Clustering) -> np.ndarray:
    """(k, m) table of each cluster's color counts, a row per center in the
    order of ``clustering.centers``; its row sums are the cluster sizes."""
    centers = np.asarray(clustering.centers, dtype=np.int64)
    if len(clustering.assignment) != inst.n or np.any((centers < 0) | (centers >= inst.n)):
        raise ValidationError(f"the clustering does not fit the instance's {inst.n} points")
    cell = np.asarray(clustering.assignment, dtype=np.int64) * inst.m + inst.colors
    return np.bincount(cell, minlength=inst.n * inst.m).reshape(inst.n, inst.m)[centers]


def _worst_violation(counts: np.ndarray, gf: GroupFairnessSpec) -> Fraction:
    """The most any color count of the clusters with color counts ``counts``
    (a row per nonempty cluster) lies outside its window [l_h |C|, u_h |C|];
    negative when every count is strictly inside.

    Exact: per color h, every term is an integer over the common denominator
    q_h of l_h and u_h, computed in int64 where q_h * (n + 1) stays below
    2^62 and in Python integers otherwise."""
    sizes = counts.sum(axis=1)
    excess = []
    for h, (low, up) in enumerate(zip(gf.lower, gf.upper)):
        den = math.lcm(low.denominator, up.denominator)
        kind = np.int64 if den * (int(sizes.max()) + 1) < 2**62 else object
        size, count = sizes.astype(kind), counts[:, h].astype(kind)
        over = max((int(low * den) * size - den * count).max(),
                   (den * count - int(up * den) * size).max())
        excess.append(Fraction(int(over), den))
    return max(excess)


def gf_violation_of_counts(counts: np.ndarray, gf: GroupFairnessSpec) -> float:
    """``gf_violation`` of the clusters whose color counts are the rows of
    ``counts`` (as ``cluster_color_counts`` gives them), each nonempty."""
    return float(max(Fraction(0), _worst_violation(counts, gf)))


def gf_violation(inst: MetricInstance, clustering: Clustering,
                 gf: GroupFairnessSpec) -> float:
    """Smallest rho* >= 0 making every cluster group fair; exact, returned as
    float. The spec must have the instance's colors."""
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
    counts = np.bincount(inst.colors[centers], minlength=ds.m) if centers else \
        np.zeros(ds.m, dtype=int)
    return all(ds.lower[h] <= counts[h] <= ds.upper[h] for h in range(ds.m))


def diverse_center_blocks(inst: MetricInstance, ds: CenterDiversitySpec):
    """``diverse_center_sets`` as (rows, k) int arrays, one per block of
    ``CENTER_SET_BLOCK`` combinations that holds an accepted set. The spec
    must have the instance's colors."""
    _require_colors(inst, ds, "ds")
    k = ds.k
    combos = combinations(range(inst.n), k)
    while True:
        block = list(islice(combos, CENTER_SET_BLOCK))
        if not block:
            return
        sets = np.fromiter(chain.from_iterable(block), dtype=np.intp,
                           count=len(block) * k).reshape(len(block), k)
        counts = (inst.colors[sets][:, :, None] == np.arange(ds.m)).sum(axis=1)
        keep = ((counts >= ds.lower) & (counts <= ds.upper)).all(axis=1)
        if keep.any():
            yield sets[keep]


def diverse_center_sets(inst: MetricInstance, ds: CenterDiversitySpec):
    """Every size-k center set that ``check_ds`` accepts, as a tuple of
    ascending point ids, in lexicographic order. The spec must have the
    instance's colors."""
    for sets in diverse_center_blocks(inst, ds):
        yield from map(tuple, sets.tolist())


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
    failures = []
    if not (sum(ds.lower) <= ds.k <= sum(ds.upper)):
        failures.append(
            f"center-count bounds cannot host k: sum(L)={sum(ds.lower)}, "
            f"k={ds.k}, sum(U)={sum(ds.upper)}")
    counts = inst.color_counts()
    for h in range(min(ds.m, inst.m)):
        if counts[h] < ds.lower[h]:
            name = inst.color_names[h] if inst.color_names else str(h)
            failures.append(
                f"insufficient points of color {name}: have {counts[h]}, "
                f"need at least {ds.lower[h]} centers")
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
    if inst.n < ds.k:
        failures.append(f"fewer points ({inst.n}) than clusters ({ds.k})")
    if gf.m != inst.m or ds.m != inst.m:
        failures.append(
            f"spec color count mismatch: instance m={inst.m}, "
            f"gf m={gf.m}, ds m={ds.m}")
    return PrecheckReport(ok=not failures, failures=tuple(failures))


def exact_gf_spec(inst: MetricInstance, rho: int = 0) -> GroupFairnessSpec:
    """Exact preservation of ratios: lower_h = upper_h = |P_h| / n."""
    counts = inst.color_counts()
    ratios = tuple(Fraction(int(c), inst.n) for c in counts)
    return GroupFairnessSpec(lower=ratios, upper=ratios, rho=rho)


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

    Schema: {"gf": {"lower": [..], "upper": [..], "rho": int},
             "ds": {"lower": [..], "upper": [..]}, "k": int,
             "exact_gf": bool}.
    ``exact_gf`` replaces the gf block with exact ratio preservation and
    requires the instance.
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
    gf_obj = obj.get("gf", {})
    if not isinstance(gf_obj, dict):
        raise ParseError("fairness spec 'gf' must be a JSON object")
    exact = bool(obj.get("exact_gf"))
    if exact and inst is None:
        raise ParseError("exact_gf requires the instance to derive ratios")
    if not exact and "gf" not in obj:
        raise ParseError("fairness spec JSON requires 'gf' unless exact_gf is set")
    ds_bounds = _spec_bounds(obj, "ds")
    gf_bounds = None if exact else _spec_bounds(obj, "gf")
    rho = _spec_int(gf_obj.get("rho", 0), "rho")
    try:  # bounds that int() or Fraction() cannot read
        ds = CenterDiversitySpec(*ds_bounds, k=k)
        gf = (exact_gf_spec(inst, rho=rho) if exact
              else GroupFairnessSpec(*gf_bounds, rho=rho))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid fairness spec: {exc}") from exc
    return gf, ds


def _spec_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParseError(f"fairness spec {name!r} must be an integer, got {value!r}")
    return int(value)


def _spec_bounds(obj: dict, block: str) -> tuple:
    """The (lower, upper) bound tuples of a spec block."""
    section = obj[block]
    if not (isinstance(section, dict) and isinstance(section.get("lower"), list)
            and isinstance(section.get("upper"), list)):
        raise ParseError(
            f"fairness spec block {block!r} requires 'lower' and 'upper' lists")
    return tuple(section["lower"]), tuple(section["upper"])
