"""Shared builders for test instances and fairness specs."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fairclus import (GroupFairnessSpec, build_gf_objective_lp, fractional_cost,
                      make_instance, means_pq, random_instance, reroute_medmeans,
                      solve_lp)
from fairclus.rerouting import check_rerouted


def window_gf(inst, width=Fraction(1, 4), rho=0):
    """Ratio windows of the given width around the global color ratios."""
    counts = inst.color_counts()
    lower, upper = [], []
    for c in counts:
        ratio = Fraction(int(c), inst.n)
        lower.append(max(Fraction(0), ratio - width))
        upper.append(min(Fraction(1), ratio + width))
    return GroupFairnessSpec(lower=tuple(lower), upper=tuple(upper), rho=rho)


def vacuous_gf(m):
    return GroupFairnessSpec(lower=(0,) * m, upper=(1,) * m, rho=0)


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
    """The paper's rerouting lemma on one median/means solve: the full LP's
    optimum rerouted onto the solve's diverse centers, with the LP cost, the
    rerouted cost and its bound, 3 * lp + ds (median) or the p,q bound at the
    solve's effective alpha (means). ``artifacts`` are the solve's."""
    ds_sol = artifacts["ds_solution"]
    sol = solve_lp(build_gf_objective_lp(inst, gf, k, objective), inst, gf)
    rerouted, plan = reroute_medmeans(inst, sol, ds_sol.centers)
    check_rerouted(inst, gf, rerouted, ds_sol.centers)
    lp_cost = fractional_cost(inst, sol.x, objective)
    if objective == "median":
        bound = 3.0 * lp_cost + ds_sol.cost
    else:
        p_sq, q_sq = means_pq(artifacts["alpha_effective"])
        bound = ((1.0 + p_sq + (1.0 + 1.0 / p_sq) * (2.0 + q_sq)) * lp_cost
                 + (1.0 + 1.0 / p_sq) * (1.0 + 1.0 / q_sq) * ds_sol.cost)
    return SimpleNamespace(lp_cost=lp_cost, rerouted=rerouted, plan=plan,
                           rerouted_cost=fractional_cost(inst, rerouted.x, objective),
                           rerouted_cost_bound=bound)


@pytest.fixture
def small_random():
    return random_instance(8, 2, seed=7)
