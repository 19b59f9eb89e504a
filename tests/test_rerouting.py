import math

import numpy as np
import pytest

from fairclus import (CenterDiversitySpec, ExactBackend, fractional_cost,
                      lp_residuals, make_instance, pairwise_distance_set,
                      random_instance, reroute_center, reroute_medmeans,
                      solve_ds_plugin)
from fairclus.lp import FractionalSolution
from fairclus.pipeline import means_pq
from fairclus.rerouting import check_rerouted

from conftest import line_instance, vacuous_gf, window_gf
from reference_lp import (check_full_lp_solution, full_lp_min_feasible_lambda,
                          solution_from_clustering, solve_full_lp)


def test_two_center_split_configuration():
    # two diverse centers i1, i2 both send mass to p; a fourth point q gets
    # mass only from j. p's column splits pro rata; q's goes to its nearest
    # center wholesale.
    inst = line_instance([0.0, 10.0, 1.0, 2.0, 0.5], [0, 1, 0, 1, 0])
    i1, i2, p, j, q = 0, 1, 2, 3, 4
    x = np.zeros((5, 5))
    x[p, i1] = 0.3  # mass i1 -> p
    x[p, i2] = 0.1  # mass i2 -> p
    x[p, j] = 0.4   # mass j -> p
    x[q, j] = 0.6   # mass j -> q
    sol = FractionalSolution(rows=np.arange(5), x=x)
    rerouted, plan = reroute_center(inst, sol, [i1, i2])

    w1 = 0.3 / (0.3 + 0.1)
    w2 = 0.1 / (0.3 + 0.1)
    assert rerouted.rows.tolist() == [i1, i2]  # so row i1 is center i1, row i2 is i2
    assert rerouted.x[i1, j] == pytest.approx(w1 * 0.4 + 0.6)
    assert rerouted.x[i2, j] == pytest.approx(w2 * 0.4)
    # column j keeps its full unit of mass
    assert rerouted.x[:, j].sum() == pytest.approx(1.0)
    # q is not in any neighborhood and falls back to the nearer center i1
    assert not plan.in_neighborhood[q]
    assert plan.theta[q] == i1
    assert plan.in_neighborhood[p]


def test_singleton_center_set_takes_everything():
    inst = random_instance(6, 2, seed=5)
    gf = vacuous_gf(2)
    lam, sol = full_lp_min_feasible_lambda(inst, gf, 1, pairwise_distance_set(inst))
    check_full_lp_solution(inst, gf, 1, lam, sol)
    rerouted, _ = reroute_center(inst, sol, [3])
    assert rerouted.rows.tolist() == [3]
    assert np.allclose(rerouted.x, 1.0)


def test_medmeans_share_and_residual_configuration():
    # one diverse center i sends mass to p; p also receives from plain point
    # j; t is the second diverse center and p's nearest. The i-share of p's
    # column returns to i, the leftover follows theta(p) = t.
    inst = make_instance([0, 1, 0, 1],
                         coords=[[0.0, -2.0], [0.0, 1.0], [0.0, 0.0], [2.0, -2.0]])
    i, t, p, j = 0, 1, 2, 3
    x = np.zeros((4, 4))
    x[p, i] = 0.3  # mass i -> p
    x[p, j] = 0.5  # mass j -> p
    sol = FractionalSolution(rows=np.arange(4), x=x)
    rerouted, plan = reroute_medmeans(inst, sol, [i, t])

    share = 0.3 / 0.8
    assert rerouted.rows.tolist() == [i, t]  # so row i is center i, row t is t
    assert plan.theta[p] == t  # d(p,t)=1 < d(p,i)=2
    assert rerouted.x[i, j] == pytest.approx(share * 0.5)
    assert rerouted.x[i, i] == pytest.approx(share * 0.3)  # the loop-back term
    assert rerouted.x[t, j] == pytest.approx((1 - share) * 0.5)
    assert rerouted.x[t, i] == pytest.approx((1 - share) * 0.3)


def test_medmeans_identity_on_integral_support():
    # x already integral on the diverse centers: rerouting is the identity
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        centers = sorted(rng.choice(n, size=2, replace=False).tolist())
        assignment = [int(centers[rng.integers(0, 2)]) for _ in range(n)]
        for c in centers:
            assignment[c] = c
        sol = solution_from_clustering(inst, centers, assignment)
        rerouted, _ = reroute_medmeans(inst, sol, centers)
        assert np.allclose(rerouted.x, sol.x, atol=1e-12)


def _pipeline_front(inst, gf, k, objective, seed_ds=None):
    """DS centers + full-LP solution, the rerouting inputs, for tests."""
    counts = inst.color_counts()
    lower = tuple(1 if counts[h] > 0 else 0 for h in range(inst.m))
    if sum(lower) > k:
        lower = tuple(0 for _ in range(inst.m))
    ds = CenterDiversitySpec(lower=lower, upper=(k,) * inst.m, k=k)
    ds_sol = solve_ds_plugin(inst, ds, objective, ExactBackend())
    if objective == "center":
        radii = pairwise_distance_set(inst)
        lam = max(full_lp_min_feasible_lambda(inst, gf, k, radii)[0],
                  float(radii[np.searchsorted(radii, ds_sol.cost - 1e-9)]))
    else:
        lam = None
    sol = solve_full_lp(inst, gf, k, lam, None if objective == "center" else objective)
    check_full_lp_solution(inst, gf, k, lam, sol)
    return ds_sol, sol, lam


def test_center_rerouting_guarantees():
    rng = np.random.default_rng(19)
    for trial in range(12):
        n = int(rng.integers(5, 10))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        k = 2
        ds_sol, sol, lam = _pipeline_front(inst, gf, k, "center")
        rerouted, plan = reroute_center(inst, sol, ds_sol.centers)

        # conservation
        assert np.abs(rerouted.x.sum(axis=0) - 1.0).max() <= 1e-6
        # per-center mass >= 1
        assert rerouted.x.sum(axis=1).min() >= 1.0 - 1e-6
        # the rows are the center set
        assert rerouted.rows.tolist() == list(ds_sol.centers)
        # support radius: (alpha + 1) * lambda with alpha = 1
        d = inst.distance_matrix()[rerouted.rows]
        sup = rerouted.x > 1e-9
        assert d[sup].max() <= (1.0 + 1.0) * lam + 1e-9
        # ratio constraints survive
        resid = lp_residuals(inst, gf, rerouted)
        assert resid["color"] <= 1e-6
        check_rerouted(inst, gf, rerouted, ds_sol.centers,
                       radius_cap=2.0 * lam)


def test_medmeans_rerouting_guarantees_and_cost_bounds():
    rng = np.random.default_rng(29)
    for trial in range(12):
        n = int(rng.integers(5, 10))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        k = 2
        for objective in ("median", "means"):
            ds_sol, sol, _ = _pipeline_front(inst, gf, k, objective)
            rerouted, _ = reroute_medmeans(inst, sol, ds_sol.centers)

            assert np.abs(rerouted.x.sum(axis=0) - 1.0).max() <= 1e-6
            assert rerouted.x.sum(axis=1).min() >= 1.0 - 1e-6
            resid = lp_residuals(inst, gf, rerouted)
            assert resid["color"] <= 1e-6
            check_rerouted(inst, gf, rerouted, ds_sol.centers)

            lp_cost = fractional_cost(inst, sol, objective)
            new_cost = fractional_cost(inst, rerouted, objective)
            if objective == "median":
                assert new_cost <= 3.0 * lp_cost + ds_sol.cost + 1e-6
            else:
                p_sq, q_sq = means_pq(1.0)
                assert p_sq == pytest.approx(math.sqrt(5.0))
                assert q_sq == pytest.approx(1.0)
                bound = ((1 + p_sq + (1 + 1 / p_sq) * (2 + q_sq)) * lp_cost
                         + (1 + 1 / p_sq) * (1 + 1 / q_sq) * ds_sol.cost)
                assert new_cost <= bound + 1e-6


def test_theta_prefers_lowest_id_on_ties():
    inst = make_instance([0, 1, 0], coords=[[0.0], [0.0], [1.0]])
    x = np.zeros((3, 3))
    x[2, 2] = 1.0  # only point 2 receives anything, from itself
    sol = FractionalSolution(rows=np.arange(3), x=x)
    _, plan = reroute_center(inst, sol, [0, 1])
    # centers 0 and 1 are co-located: the tie goes to the lower id
    assert plan.theta[2] == 0
    # each center maps to itself even when a co-located lower id exists
    assert plan.theta[1] == 1


def test_check_rerouted_flags_broken_solutions():
    inst = line_instance([0, 1], [0, 1])
    gf = vacuous_gf(2)
    whole = np.array([[1.0, 1.0]])
    elsewhere = FractionalSolution(rows=np.array([1]), x=whole)
    with pytest.raises(Exception, match="rows are not the diverse center set"):
        check_rerouted(inst, gf, elsewhere, [0])
    starved = FractionalSolution(rows=np.array([0, 1]),
                                 x=np.array([[0.9, 0.9], [0.1, 0.1]]))
    with pytest.raises(Exception, match="mass"):
        check_rerouted(inst, gf, starved, [0, 1])


@pytest.mark.parametrize("scale", [-30, 0, 30])
def test_check_rerouted_tests_the_radius_cap_relative_to_the_cap(scale):
    """Center 0 sends mass to point 2, at twice the cap d(0, 1), and the
    check refuses it at every scale. An absolute slack of EPS_POS on the
    cap once let it through at 2^-30, where the whole line is shorter
    than the slack."""
    inst = make_instance([0, 1, 0, 1], coords=np.array([[0.0], [1.0], [2.0], [3.0]]) * 2.0 ** scale)
    gf = vacuous_gf(2)
    x = np.array([[1.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0]])
    rerouted = FractionalSolution(rows=np.array([0, 3]), x=x)
    with pytest.raises(Exception, match=r"support arc \(0,2\) .* exceeds the radius cap"):
        check_rerouted(inst, gf, rerouted, [0, 3], radius_cap=inst.distance(0, 1))
    check_rerouted(inst, gf, rerouted, [0, 3], radius_cap=inst.distance(0, 2))
