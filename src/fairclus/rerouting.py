"""Mass rerouting: move every assignment of an LP solution onto a fixed
diverse center set while preserving the color-ratio structure.

The pipeline does not reroute: it solves the fixed-center LP, for which the
rerouted solution is feasible. These functions are the paper's construction,
kept as the reference the test suite checks that lemma against. They read
the input with a row per point and return a row per diverse center.

Both variants share the same skeleton. Each point p that receives mass in the
input solution redistributes its entire incoming column to the diverse
centers; the output row of center i is a nonnegative combination of input
rows, so per-row color ratios survive.

Radius variant (for the max-radius objective): points receiving mass from
some diverse center split their whole column among those centers
proportionally to the mass each center sends them; every other point's column
goes to its nearest diverse center via the fallback map theta.

Cost variant (for sum / sum-of-squares objectives): every point p returns to
each diverse center i the share r_p(i) = x[p, i] / (total mass into p) of its
column, and only the leftover share goes to theta(p). Splitting by the total
incoming mass (not just the diverse part) is what makes the cost bounds go
through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError, ValidationError
from .instance import MetricInstance
from .lp import EPS_POS, FractionalSolution

MASS_TOL = 1e-6  # accepted slack on conservation / per-center mass checks


@dataclass(frozen=True)
class ReroutePlan:
    """Bookkeeping of one rerouting: LP support, fallback map, shares."""

    centers: tuple  # sorted diverse center ids
    support: np.ndarray  # (n, |centers|) bool: center sends mass to point p
    theta: np.ndarray  # fallback center per point (nearest; itself for centers)
    shares: np.ndarray  # (n, |centers|) coefficient of point p's column sent to each center

    @property
    def in_neighborhood(self) -> np.ndarray:
        """Points receiving positive mass from at least one diverse center."""
        return self.support.any(axis=1)


def _theta_map(inst: MetricInstance, centers: list) -> np.ndarray:
    """Nearest diverse center per point (ties to lowest id); centers map to themselves."""
    d = inst.distance_matrix()
    carr = np.array(centers, dtype=int)
    nearest = carr[np.argmin(d[carr, :], axis=0)]  # argmin: first = lowest id
    nearest[carr] = carr
    return nearest


def _point_table(inst: MetricInstance, sol: FractionalSolution) -> np.ndarray:
    """The n x n mass table of ``sol``: row p is the mass point p receives."""
    x = np.zeros((inst.n, inst.n))
    x[sol.rows] = sol.x
    return x


def _embed(shares: np.ndarray, x: np.ndarray, centers: list):
    """The rerouted solution: row a (center centers[a]) is
    sum_p shares[p, a] * x[p, :]."""
    return FractionalSolution(rows=np.array(centers, dtype=int), x=shares.T @ x)


def reroute_center(inst: MetricInstance, sol: FractionalSolution, centers):
    """Radius-variant rerouting; returns (rerouted solution, plan)."""
    centers = sorted(int(c) for c in centers)
    if not centers:
        raise ValidationError("cannot reroute onto an empty center set")
    x = _point_table(inst, sol)

    mass_from_centers = x[:, centers]  # [p, a] = mass center centers[a] sends to p
    support = mass_from_centers > EPS_POS
    claimed = np.where(support, mass_from_centers, 0.0)
    denom = claimed.sum(axis=1)
    # guard: a point only counts as neighboring if its incoming mass from the
    # diverse centers genuinely clears the support threshold
    neighbor = denom > EPS_POS

    shares = np.zeros_like(claimed)
    shares[neighbor] = claimed[neighbor] / denom[neighbor, None]

    theta = _theta_map(inst, centers)
    col_of = {c: a for a, c in enumerate(centers)}
    fallback = np.flatnonzero(~neighbor)
    if fallback.size:
        cols = np.array([col_of[int(theta[p])] for p in fallback])
        shares[fallback, cols] = 1.0

    plan = ReroutePlan(centers=tuple(centers), support=support, theta=theta,
                       shares=shares)
    return _embed(shares, x, centers), plan


def reroute_medmeans(inst: MetricInstance, sol: FractionalSolution, centers):
    """Cost-variant rerouting; returns (rerouted solution, plan)."""
    centers = sorted(int(c) for c in centers)
    if not centers:
        raise ValidationError("cannot reroute onto an empty center set")
    x = _point_table(inst, sol)
    n = inst.n

    mass_from_centers = x[:, centers]
    support = mass_from_centers > EPS_POS
    total_in = x.sum(axis=1)  # whole incoming mass at p, from every point

    ratios = np.zeros_like(mass_from_centers)
    has_mass = total_in > EPS_POS
    ratios[has_mass] = np.where(support[has_mass], mass_from_centers[has_mass],
                                0.0) / total_in[has_mass, None]
    residual = np.clip(1.0 - ratios.sum(axis=1), 0.0, 1.0)

    # every point's leftover share follows the fallback map, including points
    # that neighbor a diverse center: their ratio sum stays below 1 whenever
    # part of their mass comes from non-diverse points
    theta = _theta_map(inst, centers)
    col_of = {c: a for a, c in enumerate(centers)}
    shares = ratios.copy()
    theta_cols = np.array([col_of[int(theta[p])] for p in range(n)])
    shares[np.arange(n), theta_cols] += residual

    plan = ReroutePlan(centers=tuple(centers), support=support, theta=theta,
                       shares=shares)
    return _embed(shares, x, centers), plan


def check_rerouted(inst: MetricInstance, gf, rerouted: FractionalSolution,
                   centers, radius_cap: float | None = None) -> None:
    """Hard-verify the guaranteed properties of a rerouted solution.

    Column sums 1, rows exactly the center set, per-center mass >= 1,
    color-ratio residuals, and (radius variant) the support radius cap.
    Raises PipelineError naming the failing property.
    """
    stage = "rerouting"
    x = rerouted.x
    colsum_err = float(np.abs(x.sum(axis=0) - 1.0).max())
    if colsum_err > MASS_TOL:
        raise PipelineError(stage, f"column sums drift by {colsum_err:.3e}")
    if not np.array_equal(rerouted.rows, sorted(int(c) for c in centers)):
        raise PipelineError(stage, "rows are not the diverse center set")
    total = x.sum(axis=1)
    if np.any(total < 1.0 - MASS_TOL):
        raise PipelineError(stage, f"a center receives mass {float(total.min())} < 1")
    lower = gf.lower_floats()
    upper = gf.upper_floats()
    for h in range(inst.m):
        mass_h = x[:, inst.colors == h].sum(axis=1)
        if float((mass_h - upper[h] * total).max()) > MASS_TOL or \
                float((lower[h] * total - mass_h).max()) > MASS_TOL:
            raise PipelineError(stage, f"color-ratio window broken for color {h}")
    if radius_cap is not None:
        d = inst.distance_matrix()[rerouted.rows]
        bad = (x > EPS_POS) & (d > radius_cap + EPS_POS)
        if np.any(bad):
            a, j = np.argwhere(bad)[0]
            raise PipelineError(
                stage, f"support arc ({rerouted.rows[a]},{j}) at distance {d[a, j]} "
                       f"exceeds the radius cap {radius_cap}")
