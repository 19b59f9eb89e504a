import io
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from fairclus import (GroupFairnessSpec, InfeasibleError, ValidationError,
                      brute_force_gf_assignment, build_gf_feasibility_lp,
                      build_gf_objective_lp, fractional_cost, lp_residuals,
                      make_instance, min_feasible_lambda,
                      pairwise_distance_set, random_instance, solve_lp)
from fairclus import lp as lp_module
from fairclus.lp import RESIDUAL_TOL, dump_lp_text, solution_from_clustering

from conftest import line_instance, vacuous_gf, window_gf


def test_single_point_forced():
    inst = line_instance([0.0], [0])
    gf = GroupFairnessSpec(lower=(1,), upper=(1,))
    model = build_gf_feasibility_lp(inst, gf, k=1, lam=0.0)
    sol = solve_lp(model, inst, gf)
    assert sol.x[0, 0] == pytest.approx(1.0)
    assert sol.y[0] == pytest.approx(1.0)


def test_colocated_lower_bound_infeasible():
    # two points at the same place, but every cluster must be all color 0
    inst = make_instance([0, 1], coords=[[0.0], [0.0]])
    gf = GroupFairnessSpec(lower=(1, 0), upper=(1, 1))
    model = build_gf_feasibility_lp(inst, gf, k=2, lam=0.0)
    assert solve_lp(model) is None


def test_vacuous_gf_feasible_at_max_distance():
    inst = random_instance(6, 2, seed=1)
    gf = vacuous_gf(2)
    lam = float(pairwise_distance_set(inst)[-1])
    sol = solve_lp(build_gf_feasibility_lp(inst, gf, k=1, lam=lam), inst, gf)
    assert sol is not None


def test_solution_invariants_on_random_instances():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        radii = pairwise_distance_set(inst)
        lam = min_feasible_lambda(inst, gf, 2, radii).radius
        sol = solve_lp(build_gf_feasibility_lp(inst, gf, 2, lam), inst, gf)
        resid = lp_residuals(inst, gf, 2, sol, lam=lam)
        assert resid["max"] <= 1e-7
        assert resid["assign"] <= 1e-9  # columns renormalized exactly


def test_objective_lp_trivial_cases():
    inst = line_instance([0.0], [0])
    gf = GroupFairnessSpec(lower=(0,), upper=(1,))
    sol = solve_lp(build_gf_objective_lp(inst, gf, 1, "median"), inst, gf)
    assert fractional_cost(inst, sol.x, "median") == pytest.approx(0.0)
    assert sol.x[0, 0] == pytest.approx(1.0)

    two = make_instance([0, 1], coords=[[0.0], [0.0]])
    gf2 = vacuous_gf(2)
    sol2 = solve_lp(build_gf_objective_lp(two, gf2, 1, "means"), two, gf2)
    assert fractional_cost(two, sol2.x, "means") == pytest.approx(0.0)


def test_lp_is_a_relaxation_of_integral_gf_clustering():
    rng = np.random.default_rng(8)
    checked = 0
    for trial in range(12):
        n = 6
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst, width=Fraction(1, 3))
        for objective in ("median", "means"):
            sol = solve_lp(build_gf_objective_lp(inst, gf, 2, objective), inst, gf)
            lp_cost = fractional_cost(inst, sol.x, objective)
            best_integral = math.inf
            for centers in combinations(range(n), 2):
                try:
                    clus = brute_force_gf_assignment(inst, centers, gf, objective)
                except InfeasibleError:
                    continue
                best_integral = min(best_integral, clus.cost)
            if best_integral < math.inf:
                checked += 1
                assert lp_cost <= best_integral + 1e-7
    assert checked >= 8


def test_integral_clustering_embeds_into_lp():
    rng = np.random.default_rng(15)
    checked = 0
    for trial in range(12):
        n = int(rng.integers(4, 8))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst, width=Fraction(1, 3))
        centers = tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
        try:
            clus = brute_force_gf_assignment(inst, centers, gf, "center")
        except InfeasibleError:
            continue
        checked += 1
        embedded = solution_from_clustering(inst, clus.centers, clus.assignment)
        resid = lp_residuals(inst, gf, 2, embedded, lam=clus.cost)
        assert resid["max"] <= 1e-9
    assert checked >= 5


def test_min_feasible_lambda_matches_linear_scan():
    rng = np.random.default_rng(27)
    for trial in range(8):
        n = int(rng.integers(4, 8))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        k = 2
        radii = pairwise_distance_set(inst)
        lam = min_feasible_lambda(inst, gf, k, radii).radius
        flags = [solve_lp(build_gf_feasibility_lp(inst, gf, k, float(r)))
                 is not None for r in radii]
        # monotone: once feasible, stays feasible
        first = flags.index(True)
        assert all(flags[first:])
        assert lam == pytest.approx(float(radii[first]))


def test_min_feasible_lambda_trivial_values():
    single = line_instance([0.0], [0])
    gf1 = GroupFairnessSpec(lower=(0,), upper=(1,))
    assert min_feasible_lambda(single, gf1, 1, pairwise_distance_set(single)).radius == 0.0

    inst = random_instance(5, 2, seed=3)
    gf = vacuous_gf(2)
    # every point its own center: radius 0 suffices
    assert min_feasible_lambda(inst, gf, 5, pairwise_distance_set(inst)).radius == 0.0


def test_min_feasible_lambda_globally_infeasible():
    inst = make_instance([0, 1], coords=[[0.0], [1.0]])
    gf = GroupFairnessSpec(lower=(1, 0), upper=(1, 1))  # clusters must be pure color 0
    with pytest.raises(InfeasibleError):
        min_feasible_lambda(inst, gf, 2, pairwise_distance_set(inst))


def _record_probes(monkeypatch):
    """Radii of the feasibility models the search builds, in build order."""
    probed = []
    build = lp_module.build_gf_feasibility_lp

    def recording(inst, gf, k, lam):
        probed.append(lam)
        return build(inst, gf, k, lam)

    monkeypatch.setattr(lp_module, "build_gf_feasibility_lp", recording)
    return probed


def test_min_feasible_lambda_on_candidate_suffixes(monkeypatch):
    rng = np.random.default_rng(43)
    probed = _record_probes(monkeypatch)
    searched = 0
    for n, m, k in ((5, 2, 1), (6, 2, 2), (7, 3, 2), (8, 2, 3), (8, 3, 3)):
        inst = make_instance(np.arange(n) % m, coords=rng.uniform(0, 1, (n, 2)), m=m)
        gf = window_gf(inst)
        radii = pairwise_distance_set(inst)
        flags = [solve_lp(build_gf_feasibility_lp(inst, gf, k, float(r))) is not None
                 for r in radii]
        first = flags.index(True)  # the full search's answer
        assert all(flags[first:])
        for i in range(radii.size):
            probed.clear()
            result = min_feasible_lambda(inst, gf, k, radii[i:])
            assert result.radius == float(radii[max(first, i)])
            assert result.model.lam == result.radius
            assert len(probed) == len(set(probed))  # no radius probed twice
            assert len(probed) <= 2 + math.ceil(math.log2(radii.size - i))
            resid = lp_residuals(inst, gf, k, result.solution, lam=result.radius)
            assert resid["max"] <= RESIDUAL_TOL
            searched += 1
    assert searched >= 60


def test_min_feasible_lambda_single_candidate_probed_once(monkeypatch):
    probed = _record_probes(monkeypatch)
    inst = random_instance(6, 2, seed=4)
    gf = vacuous_gf(2)
    top = float(pairwise_distance_set(inst)[-1])
    assert min_feasible_lambda(inst, gf, 1, [top]).radius == top
    assert probed == [top]

    probed.clear()
    pair = make_instance([0, 1], coords=[[0.0], [1.0]])
    pure = GroupFairnessSpec(lower=(1, 0), upper=(1, 1))
    with pytest.raises(InfeasibleError):
        min_feasible_lambda(pair, pure, 2, [1.0])
    assert probed == [1.0]


def test_alternating_line_lambda_matches_scan():
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    radii = pairwise_distance_set(inst)
    lam = min_feasible_lambda(inst, gf, 1, radii).radius
    scan = next(float(r) for r in radii
                if solve_lp(build_gf_feasibility_lp(inst, gf, 1, float(r))) is not None)
    assert lam == pytest.approx(scan)


def test_radius_cutoff_eliminates_variables():
    inst = line_instance([0, 1, 10], [0, 1, 0])
    gf = vacuous_gf(2)
    model = build_gf_feasibility_lp(inst, gf, 2, lam=1.0)
    kept_pairs = set(model.kept)
    assert (0, 2) not in kept_pairs and (2, 0) not in kept_pairs
    assert (0, 1) in kept_pairs
    full = build_gf_objective_lp(inst, gf, 2, "median")
    assert len(full.kept) == 9  # no cutoff: all n^2 assignment variables


def test_objective_lp_rejects_center():
    inst = line_instance([0, 1], [0, 1])
    with pytest.raises(ValidationError):
        build_gf_objective_lp(inst, vacuous_gf(2), 1, "center")


def test_dump_lp_text():
    inst = line_instance([0, 1], [0, 1])
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    model = build_gf_objective_lp(inst, gf, 1, "median")
    buf = io.StringIO()
    dump_lp_text(model, buf)
    text = buf.getvalue()
    assert "Minimize" in text and "Subject To" in text and "End" in text
    assert "x_0_1" in text and "y_0" in text
    assert "opened_at_most_k" in text
