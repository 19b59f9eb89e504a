"""Shared builders for test instances and fairness specs."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fairclus import (GroupFairnessSpec, ValidationError, fractional_cost,
                      make_instance, means_pq, pairwise_distance_set,
                      random_instance, reroute_center, reroute_medmeans)
from fairclus.instance import EPS_D
from fairclus.lp import EPS_POS
from fairclus.rerouting import check_rerouted
from reference_lp import (check_full_lp_solution, full_lp_min_feasible_lambda,
                          solve_full_lp)


def window_gf(inst, width=Fraction(1, 4)):
    """Ratio windows of the given width around the global color ratios."""
    counts = inst.color_counts()
    lower, upper = [], []
    for c in counts:
        ratio = Fraction(int(c), inst.n)
        lower.append(max(Fraction(0), ratio - width))
        upper.append(min(Fraction(1), ratio + width))
    return GroupFairnessSpec(lower=tuple(lower), upper=tuple(upper))


def vacuous_gf(m):
    return GroupFairnessSpec(lower=(0,) * m, upper=(1,) * m)


def violation_by_definition(inst, clustering, gf):
    """The smallest rho >= 0 with l_h |C| - rho <= |C ∩ P_h| <= u_h |C| + rho
    for every cluster C of ``clustering`` and color h, as a Fraction loop
    over each center's members; an empty cluster raises ValidationError."""
    worst = Fraction(0)
    for c in clustering.centers:
        members = clustering.members(c)
        if not members:
            raise ValidationError(f"cluster of center {c} is empty")
        size = len(members)
        counts = np.bincount(inst.colors[members], minlength=gf.m)
        for h in range(gf.m):
            worst = max(worst, gf.lower[h] * size - int(counts[h]),
                        int(counts[h]) - gf.upper[h] * size)
    return worst


def balanced_instance(n, m, seed):
    """Random coords with color counts as equal as possible (round-robin)."""
    rng = np.random.default_rng(seed)
    colors = np.array([i % m for i in range(n)])
    rng.shuffle(colors)
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    return make_instance(colors, coords=coords, m=m)


def line_instance(positions, colors):
    coords = [[float(p)] for p in positions]
    return make_instance(colors, coords=coords)


def rerouting_certificate(inst, gf, k, objective, artifacts):
    """The paper's rerouting lemma on one solve: the full LP rerouted onto the
    solve's diverse centers. ``artifacts`` are the solve's; the full LP is
    ``reference_lp``'s dense one.

    k-center: lam = max(lambda_lp, lambda_ds), the smallest pairwise distance
    no lower than the diverse cost / alpha (snapped to a distance) at which
    the full LP capped there is feasible; its solution rerouted, checked at
    the radius cap (alpha + 1) * lam, and the largest distance the rerouted
    solution uses (``support_radius``).

    Median/means: the full LP's optimum rerouted, with the LP cost, the
    rerouted cost and its bound, 3 * lp + ds (median) or the p,q bound
    (means). A backend without a claimed factor counts as alpha = 1.
    """
    ds_sol = artifacts["ds_solution"]
    alpha = ds_sol.alpha if ds_sol.alpha is not None and ds_sol.alpha >= 1.0 else 1.0
    if objective == "center":
        radii = pairwise_distance_set(inst)
        idx = int(np.searchsorted(radii, ds_sol.cost / alpha - EPS_D, side="left"))
        lam, sol = full_lp_min_feasible_lambda(inst, gf, k, radii[idx:])
        check_full_lp_solution(inst, gf, k, lam, sol)
        rerouted, plan = reroute_center(inst, sol, ds_sol.centers)
        radius_cap = (alpha + 1.0) * lam
        check_rerouted(inst, gf, rerouted, ds_sol.centers, radius_cap=radius_cap)
        support = rerouted.x > EPS_POS
        d = inst.distance_matrix()[rerouted.rows]
        return SimpleNamespace(lam=lam, rerouted=rerouted, plan=plan,
                               radius_cap=radius_cap,
                               support_radius=float(d[support].max()))
    sol = solve_full_lp(inst, gf, k, None, objective)
    check_full_lp_solution(inst, gf, k, None, sol)
    rerouted, plan = reroute_medmeans(inst, sol, ds_sol.centers)
    check_rerouted(inst, gf, rerouted, ds_sol.centers)
    lp_cost = fractional_cost(inst, sol, objective)
    if objective == "median":
        bound = 3.0 * lp_cost + ds_sol.cost
    else:
        p_sq, q_sq = means_pq(alpha)
        bound = ((1.0 + p_sq + (1.0 + 1.0 / p_sq) * (2.0 + q_sq)) * lp_cost
                 + (1.0 + 1.0 / p_sq) * (1.0 + 1.0 / q_sq) * ds_sol.cost)
    return SimpleNamespace(lp_cost=lp_cost, rerouted=rerouted, plan=plan,
                           rerouted_cost=fractional_cost(inst, rerouted, objective),
                           rerouted_cost_bound=bound)


@pytest.fixture
def small_random():
    return random_instance(8, 2, seed=7)
