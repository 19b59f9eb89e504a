import io
import json
import math
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from fairclus import (ExactBackend, GreedyBackend, GroupFairnessSpec,
                      InfeasibleError, ValidationError, build_gf_feasibility_lp,
                      build_gf_objective_lp, default_ds_profile, exact_gf_spec,
                      fractional_cost, lp_residuals, make_instance,
                      min_feasible_lambda, pairwise_distance_set,
                      random_instance, solve, solve_lp)
from fairclus import lp as lp_module
from fairclus import simplex
from fairclus.constraints import point_costs
from fairclus.errors import PipelineError
from fairclus.instance import EPS_D
from fairclus.lp import (EPS_POS, RESIDUAL_TOL, FractionalSolution, check_lp_solution,
                         dump_lp_text)

from conftest import line_instance, vacuous_gf, window_gf
from reference_lp import (full_lp_residual, pivot_model_from_dense,
                          point_model_from_dense, solution_from_clustering,
                          solve_dense_reference, solve_full_lp)
from reference_oracle import reference_gf_assignment


def test_single_point_forced():
    inst = line_instance([0.0], [0])
    gf = GroupFairnessSpec(lower=(1,), upper=(1,))
    model = build_gf_feasibility_lp(inst, gf, [0], lam=0.0)
    sol = solve_lp(model)
    check_lp_solution(model, sol, inst, gf)
    assert sol.rows.tolist() == [0]
    assert sol.x[0, 0] == pytest.approx(1.0)


def test_radius_cap_must_be_finite_and_nonnegative():
    inst = line_instance([0, 1, 2], [0, 1, 0])
    for lam in (-1.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ValidationError, match="radius cap"):
            build_gf_feasibility_lp(inst, vacuous_gf(2), [0], lam)
    # a zero cap keeps the center's own column, at its pivot, the center
    model = build_gf_feasibility_lp(inst, vacuous_gf(2), [0], 0.0)
    assert model.ncols == 0 and model.pivot[0] == 0


def test_colocated_lower_bound_infeasible():
    # two points at the same place, but every cluster must be all color 0
    inst = make_instance([0, 1], coords=[[0.0], [0.0]])
    gf = GroupFairnessSpec(lower=(1, 0), upper=(1, 1))
    model = build_gf_feasibility_lp(inst, gf, [0, 1], lam=0.0)
    assert solve_lp(model) is None


def test_vacuous_gf_feasible_at_max_distance():
    inst = random_instance(6, 2, seed=1)
    gf = vacuous_gf(2)
    lam = float(pairwise_distance_set(inst)[-1])
    model = build_gf_feasibility_lp(inst, gf, [0], lam=lam)
    sol = solve_lp(model)
    assert sol is not None
    check_lp_solution(model, sol, inst, gf)


def test_check_lp_solution_holds_the_mass_rows():
    """A fixed-center solution that leaves a center 1e-6 short of unit mass
    breaks its ``sum_j x_ij >= 1`` row, and no other row."""
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = vacuous_gf(2)
    model = build_gf_objective_lp(inst, gf, [0, 3], "median")
    rows = np.array([0, 3])
    x = np.zeros((2, 4))
    x[0, 0] = 1.0
    x[1, 1:] = 1.0
    check_lp_solution(model, FractionalSolution(rows=rows, x=x), inst, gf)
    x[0, 0], x[1, 0] = 1.0 - 1e-6, 1e-6
    doctored = FractionalSolution(rows=rows, x=x)
    resid = lp_residuals(inst, gf, doctored, centers=model.centers)
    assert resid["mass"] == pytest.approx(1e-6)
    assert max(v for key, v in resid.items() if key not in ("mass", "max")) <= 1e-15
    with pytest.raises(PipelineError, match=r"\[lp\] post-repair residual"):
        check_lp_solution(model, doctored, inst, gf)


def _doctored(family):
    """An instance on two well-separated groups of four points, centers 0
    and 4, a spec holding color 0 to [1/4, 3/4] of each cluster, the model
    the solution is checked against, and each point's nearest assignment
    with 1e-6 of mass moved so that only ``family``'s rows break: every
    move keeps each assignment column and each center's per-color mass,
    except the one that breaks them."""
    colors = {"upper": [0, 0, 0, 1, 0, 0, 1, 1],  # cluster 0 at color 0's cap
              "lower": [0, 1, 1, 1, 0, 0, 1, 1]}.get(family, [0, 0, 1, 1, 0, 0, 1, 1])
    inst = line_instance([0, 1, 2, 3, 10, 11, 12, 13], colors)
    gf = GroupFairnessSpec(lower=(Fraction(1, 4), 0), upper=(Fraction(3, 4), 1))
    model = (build_gf_feasibility_lp(inst, gf, [0, 4], 3.0) if family == "radius"
             else build_gf_objective_lp(inst, gf, [0, 4], "median"))
    x = np.zeros((2, 8))
    x[0, :4] = x[1, 4:] = 1.0
    clean = x.copy()

    def move(point, to):  # 1e-6 of the point's mass to the other center
        x[1 - to, point] -= 1e-6
        x[to, point] += 1e-6

    if family == "assign":  # a point of each color loses mass at center 0
        x[0, 0] -= 1e-6
        x[0, 2] -= 1e-6
    elif family == "upper":  # color 1 for color 0 at center 0
        move(3, 1)
        move(4, 0)
    elif family == "lower":  # color 0 for color 1 at center 0
        move(0, 1)
        move(7, 0)
    elif family == "radius":  # two color-0 points swap mass across the cap
        move(5, 0)
        move(1, 1)
    else:  # bounds: point 0 above 1 at center 0, point 1 short of it
        x[0, 0] += 1e-6
        x[1, 0] -= 1e-6
        x[0, 1] -= 1e-6
        x[1, 1] += 1e-6
    rows = np.array([0, 4])
    return (inst, gf, model, FractionalSolution(rows=rows, x=clean),
            FractionalSolution(rows=rows, x=x))


@pytest.mark.parametrize("family, entry", [
    ("assign", "assign"), ("upper", "color"), ("lower", "color"),
    ("radius", "radius"), ("bounds", "bounds")])
def test_check_lp_solution_holds_each_family(family, entry):
    """A doctored solution that breaks one constraint family by 1e-6 (an
    assignment column summing to 1 - 1e-6, a color's upper or lower ratio
    row, mass 1e-6 on a pair beyond the radius cap, an entry outside
    [0, 1]) fails the check, and moves only that family's residual."""
    inst, gf, model, clean, doctored = _doctored(family)
    check_lp_solution(model, clean, inst, gf)
    before = lp_residuals(inst, gf, clean, lam=model.lam, centers=model.centers)
    resid = lp_residuals(inst, gf, doctored, lam=model.lam, centers=model.centers)
    assert before["max"] == 0.0 and entry in resid
    assert resid[entry] == pytest.approx(1e-6)
    assert max(v for key, v in resid.items() if key not in (entry, "max")) <= 1e-15
    with pytest.raises(PipelineError, match=r"\[lp\] post-repair residual"):
        check_lp_solution(model, doctored, inst, gf)


def test_full_lp_check_holds_the_opening_rows():
    """The full LP's own check, in the reference, catches a solution that
    sends mass to a closed point (x_ij > y_i) or opens more than k points."""
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = vacuous_gf(2)
    sol = solve_full_lp(inst, gf, 2, None, "median")
    assert full_lp_residual(inst, gf, 2, None, sol) <= RESIDUAL_TOL
    i = int(sol.x.sum(axis=1).argmax())
    closed = replace(sol, y=np.where(np.arange(4) == i, 0.0, sol.y))
    assert full_lp_residual(inst, gf, 2, None, closed) == pytest.approx(sol.x[i].max())
    every = replace(sol, y=np.ones(4))
    assert full_lp_residual(inst, gf, 2, None, every) == pytest.approx(2.0)


def test_solution_invariants_on_random_instances():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        centers = sorted(rng.choice(n, size=2, replace=False).tolist())
        lam = min_feasible_lambda(inst, gf, centers).radius
        sol = solve_lp(build_gf_feasibility_lp(inst, gf, centers, lam))
        resid = lp_residuals(inst, gf, sol, lam=lam, centers=centers)
        assert resid["max"] <= 1e-7
        assert resid["assign"] <= 1e-9  # columns renormalized exactly


def test_objective_lp_trivial_cases():
    inst = line_instance([0.0], [0])
    gf = GroupFairnessSpec(lower=(0,), upper=(1,))
    model = build_gf_objective_lp(inst, gf, [0], "median")
    sol = solve_lp(model)
    check_lp_solution(model, sol, inst, gf)
    assert fractional_cost(inst, sol, "median") == pytest.approx(0.0)
    assert sol.x[0, 0] == pytest.approx(1.0)

    two = make_instance([0, 1], coords=[[0.0], [0.0]])
    gf2 = vacuous_gf(2)
    model2 = build_gf_objective_lp(two, gf2, [1], "means")
    sol2 = solve_lp(model2)
    check_lp_solution(model2, sol2, two, gf2)
    assert fractional_cost(two, sol2, "means") == pytest.approx(0.0)


def test_lp_is_a_relaxation_of_integral_gf_clustering():
    """Over every center pair, the LP optimum is at most the cost of the best
    fair assignment to those centers that leaves no center empty."""
    rng = np.random.default_rng(8)
    checked = 0
    for trial in range(12):
        n = 6
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst, width=Fraction(1, 3))
        for objective in ("median", "means"):
            for centers in combinations(range(n), 2):
                try:
                    clus = reference_gf_assignment(inst, centers, gf, objective,
                                                   require_nonempty=True)
                except InfeasibleError:
                    continue
                model = build_gf_objective_lp(inst, gf, centers, objective)
                sol = solve_lp(model)
                check_lp_solution(model, sol, inst, gf)
                assert fractional_cost(inst, sol, objective) <= clus.cost + 1e-7
                checked += 1
    assert checked >= 100


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
            clus = reference_gf_assignment(inst, centers, gf, "center")
        except InfeasibleError:
            continue
        checked += 1
        embedded = solution_from_clustering(inst, clus.centers, clus.assignment)
        resid = lp_residuals(inst, gf, embedded, lam=clus.cost)
        assert resid["max"] <= 1e-9
    assert checked >= 5


def _dense_scan(inst, gf, centers, radii):
    """Whether the dense per-point model over ``centers`` is feasible at
    each radius."""
    return [solve_dense_reference(inst, gf, centers, float(r)) is not None for r in radii]


def test_min_feasible_lambda_matches_linear_scan():
    """Uniform points, then points on a 3 x 3 integer grid, most with
    duplicates (exact ties among the distances): the radius is the dense
    scan's first feasible distance from the centers."""
    rng = np.random.default_rng(27)
    cases = []
    for trial in range(8):
        n = int(rng.integers(4, 8))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        cases.append((inst, window_gf(inst),
                      sorted(rng.choice(n, size=2, replace=False).tolist())))
    grid = np.random.default_rng(28)
    for trial in range(24):
        n = int(grid.integers(5, 11))
        inst = make_instance(grid.integers(0, 2, size=n),
                             coords=grid.integers(0, 3, (n, 2)), m=2)
        gf = (window_gf(inst), exact_gf_spec(inst))[trial % 2]
        cases.append((inst, gf, sorted(grid.choice(n, size=2, replace=False).tolist())))
    assert sum(len(np.unique(inst.coords, axis=0)) < inst.n for inst, _, _ in cases) >= 20
    for inst, gf, centers in cases:
        radii = np.unique(inst.distance_matrix()[centers])
        lam = min_feasible_lambda(inst, gf, centers).radius
        flags = _dense_scan(inst, gf, centers, radii)
        # monotone: once feasible, stays feasible
        first = flags.index(True)
        assert all(flags[first:])
        assert lam == float(radii[first])


def test_min_feasible_lambda_trivial_values():
    single = line_instance([0.0], [0])
    gf1 = GroupFairnessSpec(lower=(0,), upper=(1,))
    assert min_feasible_lambda(single, gf1, [0]).radius == 0.0

    inst = random_instance(5, 2, seed=3)
    gf = vacuous_gf(2)
    # every point its own center: radius 0 suffices
    assert min_feasible_lambda(inst, gf, range(5)).radius == 0.0


def _start_search_at(monkeypatch, start):
    """Make the radius search start at index ``start(radii)`` of its
    candidates, in place of the counting bound's."""
    monkeypatch.setattr(lp_module, "counting_bound_index",
                        lambda inst, gf, centers, radii: start(radii))


def test_min_feasible_lambda_globally_infeasible(monkeypatch):
    """No radius passes the counting bound, so nothing is probed; searched
    from the lowest candidate, every probe fails. Either way there is no
    radius."""
    inst = make_instance([0, 1], coords=[[0.0], [1.0]])
    gf = GroupFairnessSpec(lower=(1, 0), upper=(1, 1))  # clusters must be pure color 0
    probed = _record_probes(monkeypatch)
    assert min_feasible_lambda(inst, gf, [0, 1]) is None
    assert probed == []
    _start_search_at(monkeypatch, lambda radii: 0)
    assert min_feasible_lambda(inst, gf, [0, 1]) is None
    assert probed == [0.0, 1.0]


def _record_probes(monkeypatch):
    """Radii of the feasibility models the search builds, in build order."""
    probed = []
    build = lp_module.build_gf_feasibility_lp

    def recording(inst, gf, centers, lam):
        probed.append(lam)
        return build(inst, gf, centers, lam)

    monkeypatch.setattr(lp_module, "build_gf_feasibility_lp", recording)
    return probed


def _search_bound(lo, answer, hi):
    """Most tests ``lp._first_passing`` may make on [lo, hi) when ``answer``
    (hi if none passes) is the first passing index: 2 * ceil(log2(answer -
    lo + 1)), 1 when the answer is lo, and 1 + ceil(log2(hi - lo)) when no
    index passes."""
    if answer == hi:
        return 1 + math.ceil(math.log2(hi - lo))
    return 1 if answer == lo else 2 * math.ceil(math.log2(answer - lo + 1))


def test_min_feasible_lambda_on_candidate_suffixes(monkeypatch):
    """Programs over a random center set, searched from every distance from
    its centers up."""
    rng = np.random.default_rng(43)
    pick = np.random.default_rng(44)
    probed = _record_probes(monkeypatch)
    searched = 0
    for n, m, k in ((5, 2, 1), (6, 2, 2), (7, 3, 2), (8, 2, 3), (8, 3, 3)):
        inst = make_instance(np.arange(n) % m, coords=rng.uniform(0, 1, (n, 2)), m=m)
        gf = window_gf(inst)
        centers = sorted(pick.choice(n, size=k, replace=False).tolist())
        radii = np.unique(inst.distance_matrix()[centers])
        flags = _dense_scan(inst, gf, centers, radii)
        first = flags.index(True)  # the full search's answer
        assert all(flags[first:])
        for i in range(radii.size):
            probed.clear()
            _start_search_at(monkeypatch, lambda radii, i=i: i)
            result = min_feasible_lambda(inst, gf, centers)
            assert result.radius == float(radii[max(first, i)])
            assert result.model.lam == result.radius
            assert result.model.centers.tolist() == centers
            assert result.solution.rows.tolist() == centers
            assert result.solution.x.shape == (k, n)
            assert len(probed) == len(set(probed))  # no radius probed twice
            assert probed[0] == float(radii[i])  # the lowest candidate first
            assert len(probed) <= _search_bound(i, max(first, i), radii.size)
            resid = lp_residuals(inst, gf, result.solution, lam=result.radius,
                                 centers=centers)
            assert resid["max"] <= RESIDUAL_TOL
            searched += 1
    assert searched >= 30


def test_first_passing_matches_a_linear_scan():
    """On monotone 0/1 sequences: the first passing index of [lo, hi), or hi,
    with lo tested first, no index twice and at most ``_search_bound`` tests,
    which grows with the answer's distance from lo, not with hi - lo."""
    rng = np.random.default_rng(61)
    cases = [(np.zeros(0, bool), 0, 0), (np.ones(5, bool), 3, 3),
             (np.zeros(9, bool), 0, 9), (np.ones(9, bool), 0, 9),
             (np.ones(9, bool), 4, 9)]
    for trial in range(600):
        size = int(rng.integers(1, 400 if trial % 2 else 40))
        flags = np.arange(size) >= rng.integers(0, size + 1)
        lo = int(rng.integers(0, size + 1))
        cases.append((flags, lo, int(rng.integers(lo, size + 1))))
    for flags, lo, hi in cases:
        tested = []

        def test(idx):
            tested.append(idx)
            return bool(flags[idx])

        got = lp_module._first_passing(test, lo, hi)
        assert got == next((i for i in range(lo, hi) if flags[i]), hi)
        assert tested[:1] == ([lo] if hi > lo else [])
        assert len(tested) == len(set(tested))
        assert all(lo <= i < hi for i in tested)
        if hi > lo:
            assert len(tested) <= _search_bound(lo, got, hi)


def test_min_feasible_lambda_single_candidate_probed_once(monkeypatch):
    """Searched from the last candidate only, the search probes it once."""
    probed = _record_probes(monkeypatch)
    _start_search_at(monkeypatch, lambda radii: radii.size - 1)
    inst = random_instance(6, 2, seed=4)
    gf = vacuous_gf(2)
    top = float(inst.distance_matrix()[0].max())
    assert min_feasible_lambda(inst, gf, [0]).radius == top
    assert probed == [top]

    probed.clear()
    pair = make_instance([0, 1], coords=[[0.0], [1.0]])
    pure = GroupFairnessSpec(lower=(1, 0), upper=(1, 1))
    assert min_feasible_lambda(pair, pure, [0, 1]) is None
    assert probed == [1.0]


def test_alternating_line_lambda_matches_scan():
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    for centers in ([1], [0, 3]):
        radii = pairwise_distance_set(inst)
        lam = min_feasible_lambda(inst, gf, centers).radius
        assert lam == radii[_dense_scan(inst, gf, centers, radii).index(True)]


def test_radius_cutoff_eliminates_variables():
    inst = line_instance([0, 1, 10], [0, 1, 0])
    gf = vacuous_gf(2)
    model = build_gf_feasibility_lp(inst, gf, [0, 2], lam=1.0)
    # each point reaches one center, its pivot: no column is left
    assert model.ncols == 0
    assert model.pivot.tolist() == [0, 0, 2]
    uncapped = build_gf_objective_lp(inst, gf, [0, 2], "median")
    # no cutoff: all k * n assignment variables but each point's nearest
    assert uncapped.pivot.tolist() == [0, 0, 2]
    assert uncapped.kept.tolist() == [[0, 2], [2, 0], [2, 1]]


def test_objective_lp_rejects_center():
    inst = line_instance([0, 1], [0, 1])
    with pytest.raises(ValidationError):
        build_gf_objective_lp(inst, vacuous_gf(2), [0], "center")


@pytest.mark.parametrize("centers", [[], [0, 0], [0, 2], [-1, 1]])
def test_fixed_center_lp_rejects_bad_center_sets(centers):
    inst = line_instance([0, 1], [0, 1])
    with pytest.raises(ValidationError, match="distinct ids"):
        build_gf_objective_lp(inst, vacuous_gf(2), centers, "median")
    # the radius search too, before it reads any distance
    with pytest.raises(ValidationError, match="distinct ids"):
        min_feasible_lambda(inst, vacuous_gf(2), centers)


def test_fixed_center_lp_solution_is_the_optimal_fair_assignment():
    inst = line_instance([0, 1, 2, 10, 11, 12], [0, 1, 0, 1, 0, 1])
    gf = GroupFairnessSpec(lower=(Fraction(1, 3), Fraction(1, 3)),
                           upper=(Fraction(2, 3), Fraction(2, 3)))
    model = build_gf_objective_lp(inst, gf, [4, 1], "median")
    sol = solve_lp(model)
    check_lp_solution(model, sol, inst, gf)
    assert model.ncols == 6 and model.centers.tolist() == [1, 4] and model.k == 2
    assert sol.rows.tolist() == [1, 4]
    assert sol.x.shape == (2, 6)
    # each point goes to its near center; both clusters hold 1 or 2 of each color
    assert fractional_cost(inst, sol, "median") == pytest.approx(4.0)


def test_dump_lp_text():
    inst = line_instance([0, 1], [0, 1])
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    buf = io.StringIO()
    dump_lp_text(build_gf_objective_lp(inst, gf, [1, 0], "median"), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "\\ fairclus model centers=0,1 n=2 k=2"
    assert lines[1:3] == ["\\ pivot 0 0", "\\ pivot 1 1"]
    assert {"Minimize", "Subject To", "End"} <= set(lines)
    # center 0's mass row, -x_0_1 - (1 - x_1_0) <= -1, with point 0's
    # share at its pivot 0 moved into the bound
    assert " mass_0: -1 x_0_1 +1 x_1_0 <= 0" in lines
    assert " 0 <= x_0_1 <= 1" in lines and " 0 <= x_1_0 <= 1" in lines
    assert not any("y_" in line or "open" in line for line in lines)


def _grid_spec(inst, kind):
    m = inst.m
    if kind == "exact":
        ratios = [Fraction(int(c), inst.n) for c in inst.color_counts()]
        return GroupFairnessSpec(lower=tuple(ratios), upper=tuple(ratios))
    if kind == "vacuous":  # every l_h = 0 and u_h = 1 row is left out
        return vacuous_gf(m)
    if kind == "lower-only":
        return GroupFairnessSpec(lower=(Fraction(1, 2 * m),) * m, upper=(1,) * m)
    # u_0 = 0: the coefficient of every other color in color 0's upper row is 0
    return GroupFairnessSpec(lower=(0,) + (Fraction(1, 4 * m),) * (m - 1),
                             upper=(0,) + (1,) * (m - 1))


def test_columns_over_many_centers():
    """With 70 centers, more than the bits of an int64: each point's columns
    are the centers it reaches under the cap but its pivot, the nearest of
    them, the lowest id on ties."""
    inst = random_instance(90, 3, seed=5)
    centers = list(range(70))
    d = inst.distance_matrix()[centers]
    for lam in np.quantile(d, [0.05, 0.2, 0.5]):
        model = build_gf_feasibility_lp(inst, vacuous_gf(3), centers, float(lam))
        reach = d <= float(lam) * (1 + EPS_D)
        nearest = np.where(reach, d, np.inf).argmin(axis=0)
        assert model.pivot.tolist() == np.where(reach.any(axis=0), nearest, -1).tolist()
        reach[nearest, np.arange(inst.n)] = False
        assert model.kept.tolist() == np.array(reach.nonzero()).T.tolist()


def test_fixed_center_model_matches_dense_reference():
    """Uncapped median and means models, and feasibility models capped at a
    distance from the centers and at the largest one below the
    nearest-assignment radius, where some point reaches no center, with and
    without duplicate points: each is ``dense_reference``'s model with each
    point's pivot substituted out."""
    rng = np.random.default_rng(63)
    checked = {"uncapped": 0, "capped": 0, "below": 0, "duplicates": 0}
    for n in range(2, 10):
        for m in (1, 2, 3):
            if m == 1 and n % 2:
                continue
            coords = rng.uniform(0, 1, (n, 2))
            if n > 2 and rng.integers(2):  # some points copy others
                copies = rng.choice(n, size=n // 2, replace=False)
                coords[copies] = coords[rng.integers(0, n, copies.size)]
            inst = make_instance(np.arange(n) % m, coords=coords, m=m)
            duplicates = len(np.unique(coords, axis=0)) < n
            for kind in ("exact", "vacuous", "lower-only", "forbidden-color"):
                if kind == "forbidden-color" and m == 1:
                    continue
                gf = _grid_spec(inst, kind)
                k = int(rng.integers(1, n + 1))
                centers = sorted(rng.choice(n, size=k, replace=False).tolist())
                dc = inst.distance_matrix()[centers]
                radii = np.unique(dc)
                below = radii[radii < dc.min(axis=0).max()]
                cases = [("uncapped", build_gf_objective_lp(inst, gf, centers[::-1], objective),
                          None, objective) for objective in ("median", "means")]
                for case, lam in (("capped", radii[rng.integers(0, radii.size)]),
                                  ("below", below[-1] if below.size else None)):
                    if lam is not None:
                        cases.append((case, build_gf_feasibility_lp(
                            inst, gf, centers[::-1], float(lam)), float(lam), None))
                for case, model, lam, objective in cases:
                    pivot, kept, a, lo, hi, c = pivot_model_from_dense(
                        inst, gf, centers, lam, objective)
                    assert model.centers.tolist() == centers and model.k == k
                    assert model.lam == lam
                    assert np.array_equal(model.pivot, pivot)
                    assert model.kept.tolist() == [list(p) for p in kept]
                    reached = np.count_nonzero(pivot >= 0)
                    assert model.ncols == len(point_model_from_dense(
                        inst, gf, centers, lam, objective)[0]) - reached
                    if lam is None:
                        assert len(kept) == (k - 1) * n
                    assert np.array_equal(model.a.toarray(), a)
                    assert np.array_equal(model.lo == -np.inf, lo == -np.inf)
                    finite = lo > -np.inf
                    assert np.allclose(model.lo[finite], lo[finite], rtol=0, atol=1e-12)
                    assert np.allclose(model.hi, hi, rtol=0, atol=1e-12)
                    assert model.n_ub == np.count_nonzero(lo == -np.inf)
                    assert np.array_equal(
                        np.vstack((model.a_ub.toarray(), model.a_eq.toarray())), a)
                    assert np.array_equal(model.c, c)
                    assert model.a.has_canonical_format and np.all(model.a.data != 0.0)
                    checked[case] += 1
                    checked["duplicates"] += duplicates
    assert checked["uncapped"] >= 150 and checked["capped"] >= 75
    assert checked["below"] >= 40 and checked["duplicates"] >= 40, checked


GOLDEN = Path(__file__).parent / "data"


def _golden_model(name):
    if name == "lp_capped.lp":
        inst = line_instance([0, 1, 2, 4, 7, 8], [0, 1, 2, 0, 1, 2])
        gf = GroupFairnessSpec(lower=(Fraction(1, 4), 0, 0),
                               upper=(Fraction(1, 2), 1, Fraction(1, 2)))
        return build_gf_feasibility_lp(inst, gf, [1, 4], 3.0)
    if name == "lp_ties.lp":  # duplicate points, a tie at 3, exact windows
        inst = line_instance([0, 0, 1, 3, 5, 6, 6], [0, 1, 0, 1, 0, 1, 1])
        return build_gf_feasibility_lp(inst, exact_gf_spec(inst), [0, 5], 5.0)
    inst = random_instance(5, 2, seed=3)
    gf = GroupFairnessSpec(lower=(Fraction(1, 3), Fraction(1, 4)),
                           upper=(Fraction(2, 3), 1))
    return build_gf_objective_lp(inst, gf, [0, 3], "means")


@pytest.mark.parametrize("name", ["lp_capped.lp", "lp_ties.lp", "lp_means.lp"])
def test_dump_lp_text_matches_golden(name):
    buf = io.StringIO()
    dump_lp_text(_golden_model(name), buf)
    assert buf.getvalue() == (GOLDEN / name).read_text()


def test_cost_lp_without_presolve_matches_a_presolved_solve(monkeypatch):
    """Above the simplex's size gate (patched to 0 here) the median/means LP
    goes to HiGHS without presolve; on random instances its optimum is the
    presolved one and the pipeline rounds it to the same clustering. Under
    the gate, the simplex's optimum is the presolved one too."""
    solve_milp = lp_module.milp

    def presolved(c, *, options, **kwargs):
        return solve_milp(c, options={**options, "presolve": True}, **kwargs)

    rng = np.random.default_rng(14)
    for case in range(120):
        exact = case % 3 == 0  # the exact backend enumerates C(n, k) sets
        n = int(rng.integers(6, 15 if exact else 81))
        m, k = int(rng.integers(2, 4)), int(rng.integers(2, 7))
        objective = ("median", "means")[case % 2]
        inst = random_instance(n, m, seed=int(rng.integers(2**31)))
        gf = exact_gf_spec(inst) if case % 4 < 2 else window_gf(inst)
        ds = default_ds_profile(inst, k)
        backend = ExactBackend() if exact else GreedyBackend()
        with monkeypatch.context() as patched:
            patched.setattr(lp_module, "_SIMPLEX_CELLS", 0)
            artifacts = {}
            got, _ = solve(inst, gf, ds, objective, backend=backend, artifacts=artifacts)
            patched.setattr(lp_module, "milp", presolved)
            want, _ = solve(inst, gf, ds, objective, backend=backend)
        assert got == want, (case, n, m, k, objective)

        model = build_gf_objective_lp(inst, gf, artifacts["ds_solution"].centers,
                                      objective)
        sol = solve_lp(model)
        check_lp_solution(model, sol, inst, gf)
        ref = milp(model.c, constraints=LinearConstraint(model.a, model.lo, model.hi),
                   bounds=Bounds(0.0, 1.0), options={"presolve": True})
        assert ref.status == 0
        # the model's costs are relative to each point's nearest center
        nearest = point_costs(inst.distance_matrix()[model.centers], objective).min(axis=0)
        assert fractional_cost(inst, sol, objective) == pytest.approx(
            ref.fun + nearest.sum(), rel=RESIDUAL_TOL)


def test_no_highs_call_uses_presolve(monkeypatch):
    """Above the simplex's size gate (patched to 0 here), each HiGHS call of
    a solve gets one option, presolve off: median, means, the k-center
    radius probes and an uncapped feasibility model."""
    monkeypatch.setattr(lp_module, "_SIMPLEX_CELLS", 0)
    calls = []
    solve_milp = lp_module.milp

    def recording(c, *, options, **kwargs):
        calls.append(options)
        return solve_milp(c, options=options, **kwargs)

    monkeypatch.setattr(lp_module, "milp", recording)
    inst = random_instance(20, 2, seed=3)
    gf, ds = exact_gf_spec(inst), default_ds_profile(inst, 4)
    for objective in ("median", "means", "center"):
        calls.clear()
        solve(inst, gf, ds, objective, backend=GreedyBackend())
        assert calls
        assert all(options == {"presolve": False} for options in calls)
    calls.clear()
    model = build_gf_feasibility_lp(inst, gf, [0, 1, 2], None)
    assert model.lam is None and not model.c.any()
    assert solve_lp(model) is not None
    assert calls == [{"presolve": False}]


def test_kcenter_radius_matches_presolved_full_model_probes(monkeypatch):
    """The k-center radius, searched with pivot-form probes without presolve,
    is the one found when every probe solves the dense per-point model
    with presolve on, on random instances."""
    rng = np.random.default_rng(15)
    for case in range(120):
        exact = case % 3 == 0  # the exact backend enumerates C(n, k) sets
        n = int(rng.integers(6, 15 if exact else 81))
        m, k = int(rng.integers(2, 4)), int(rng.integers(2, 7))
        inst = random_instance(n, m, seed=int(rng.integers(2**31)))
        gf = exact_gf_spec(inst) if case % 4 < 2 else window_gf(inst)
        ds = default_ds_profile(inst, k)
        backend = ExactBackend() if exact else GreedyBackend()
        def dense_probe(model):
            solved = solve_dense_reference(inst, gf, model.centers, model.lam)
            return solved and solved[0]

        with monkeypatch.context() as patched:
            patched.setattr(lp_module, "solve_lp", dense_probe)
            _, want = solve(inst, gf, ds, "center", backend=backend)
        _, got = solve(inst, gf, ds, "center", backend=backend)
        assert got.lam == want.lam, (case, n, m, k)


def _fractional_points(sol):
    """Points whose mass the solution splits among two or more centers."""
    return int(((sol.x > EPS_POS).sum(axis=0) > 1).sum())


def test_reduced_probe_matches_the_full_model(monkeypatch):
    """On random capped models, from below the counting bound's radius to
    the largest: the pivot-form probe is feasible exactly when HiGHS with
    presolve finds the whole per-point model feasible, and each solution it
    returns passes the full check and splits at most k(2m + 1) points.
    Among them are k = 1 and models whose every point reaches one center
    only, which no LP solver sees."""
    calls = []
    solve_columns = lp_module._solve_columns

    def recording(*args):
        calls.append(1)
        return solve_columns(*args)

    monkeypatch.setattr(lp_module, "_solve_columns", recording)
    rng = np.random.default_rng(29)
    seen = {"feasible": 0, "infeasible": 0, "k=1": 0, "all forced": 0}
    for case in range(240):
        n, m = int(rng.integers(2, 41)), int(rng.integers(1, 4))
        k = int(rng.integers(1, min(n, 6) + 1))
        if case % 8 == 7:  # every point a center: all forced at radius 0
            n = k = int(rng.integers(2, 7))
        inst = make_instance(rng.integers(0, m, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=m)
        gf = (exact_gf_spec(inst), window_gf(inst), vacuous_gf(m))[case % 3]
        centers = sorted(rng.choice(n, size=k, replace=False).tolist())
        radii = np.unique(inst.distance_matrix()[centers])
        start = lp_module.counting_bound_index(inst, gf, centers, radii)
        idx = 0 if n == k else int(rng.integers(max(0, start - 3), radii.size))
        model = build_gf_feasibility_lp(inst, gf, centers, float(radii[idx]))
        calls.clear()
        sol = solve_lp(model)
        dense = solve_dense_reference(inst, gf, centers, float(radii[idx]))
        assert (sol is not None) == (dense is not None), case
        if sol is not None:
            check_lp_solution(model, sol, inst, gf)
            assert _fractional_points(sol) <= k * (2 * m + 1)
        reach = inst.distance_matrix()[centers] <= radii[idx] * (1 + EPS_D)
        if np.all(reach.sum(axis=0) == 1):
            assert not calls
            seen["all forced"] += 1
        seen["feasible" if sol is not None else "infeasible"] += 1
        seen["k=1"] += k == 1
    assert min(seen.values()) >= 30, seen


@st.composite
def _tied_cases(draw):
    """Inputs rich in ties and duplicates:
    colocated points, repeated points on a line or the equidistant metric
    1 - I, with an exact, a window or a vacuous spec, and a center set."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    layout = draw(st.sampled_from(["colocated", "line", "equidistant"]))
    if layout == "colocated":
        inst = make_instance(colors, coords=np.full((n, 2), 0.5), m=m)
    elif layout == "line":
        positions = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        inst = make_instance(colors, coords=np.array(positions, dtype=float)[:, None], m=m)
    else:
        inst = make_instance(colors, dist=1.0 - np.eye(n), m=m)
    gf = draw(st.sampled_from([exact_gf_spec(inst), window_gf(inst), vacuous_gf(m)]))
    centers = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return inst, gf, sorted(centers)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_tied_cases())
def test_class_models_on_ties_and_duplicates(case):
    """At every candidate radius the pivot-form probe is feasible exactly
    when the dense per-point model is, and its table passes the full check
    with at most k(2m + 1) fractional points; the median and means optima
    (written with equality rows where a window is exact) are the dense
    model's."""
    inst, gf, centers = case
    bound = len(centers) * (2 * inst.m + 1)
    for lam in np.unique(inst.distance_matrix()[centers]):
        model = build_gf_feasibility_lp(inst, gf, centers, float(lam))
        sol = solve_lp(model)
        assert (sol is None) == (solve_dense_reference(inst, gf, centers, float(lam)) is None)
        if sol is not None:
            check_lp_solution(model, sol, inst, gf)
            assert _fractional_points(sol) <= bound
    for objective in ("median", "means"):
        model = build_gf_objective_lp(inst, gf, centers, objective)
        sol = solve_lp(model)
        ref = solve_dense_reference(inst, gf, centers, None, objective)
        assert (sol is None) == (ref is None)
        if sol is not None:
            check_lp_solution(model, sol, inst, gf)
            assert _fractional_points(sol) <= bound
            assert fractional_cost(inst, sol, objective) == pytest.approx(
                ref[1], rel=RESIDUAL_TOL)


def _as_milp_reads(c, constraints, bounds):
    """The arrays ``milp`` hands HiGHS for these arguments, formed as
    ``milp`` forms them: c, the matrix's data, indices and indptr, the row
    bounds and the column bounds."""
    c = np.atleast_1d(c).astype(np.float64)
    a = sparse.csc_array(constraints.A)
    return [c, a.data.astype(np.float64), a.indices, a.indptr,
            np.atleast_1d(constraints.lb).astype(np.float64),
            np.atleast_1d(constraints.ub).astype(np.float64),
            np.broadcast_to(bounds.lb, c.shape).astype(np.float64),
            np.broadcast_to(bounds.ub, c.shape).astype(np.float64)]


@st.composite
def _uniform_cases(draw):
    """n 2-30 points of m 1-3 colors, uniform in the unit square, some of
    them copies of others; an exact, a window or a vacuous spec; and a
    center set."""
    n, m = draw(st.integers(2, 30)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.uniform(0, 1, (n, 2))
    copies = rng.choice(n, size=draw(st.integers(0, n // 2)), replace=False)
    coords[copies] = coords[rng.integers(0, n, copies.size)]
    inst = make_instance(rng.integers(0, m, n), coords=coords, m=m)
    gf = draw(st.sampled_from([exact_gf_spec(inst), window_gf(inst), vacuous_gf(m)]))
    k = draw(st.integers(1, min(n, 5)))
    return inst, gf, sorted(rng.choice(n, size=k, replace=False).tolist())


def test_solutions_scatter_each_points_columns(monkeypatch):
    """Radius probes at every candidate radius, and median and means
    models: each solution's column x[:, j] is point j's column values, its
    pivot taking 1 minus their sum, repaired (clamped at 0, divided by the
    sum), to the last bits; and no mass lies on a center that j does not
    reach under the cap."""
    values = []
    solve_columns = lp_module._solve_columns

    def recording(model):
        out = solve_columns(model)
        values.append(out[0])
        return out

    monkeypatch.setattr(lp_module, "_solve_columns", recording)
    seen = Counter()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_tied_cases(), _uniform_cases()))
    def check(case):
        inst, gf, centers = case
        d = inst.distance_matrix()[centers]
        models = [build_gf_feasibility_lp(inst, gf, centers, float(lam))
                  for lam in np.unique(d)]
        models += [build_gf_objective_lp(inst, gf, centers, objective)
                   for objective in ("median", "means")]
        for model in models:
            values.clear()
            sol = solve_lp(model)
            if sol is None:
                continue
            value = values[0] if values else np.zeros(model.ncols)
            seen["solved" if values else "no solve"] += 1
            for j in range(inst.n):
                cols = np.flatnonzero(model.kept[:, 1] == j)
                want = np.zeros(model.k)
                taken = 0.0
                for a in cols:
                    want[centers.index(model.kept[a, 0])] = max(value[a], 0.0)
                    taken += max(value[a], 0.0)
                want[centers.index(model.pivot[j])] = max(1.0 - taken, 0.0)
                np.testing.assert_array_max_ulp(sol.x[:, j], want / want.sum(), maxulp=2)
            if model.lam is not None:
                far = d > model.lam * (1 + EPS_D)
                assert not sol.x[far].any()
                seen["capped"] += bool(far.any())

    check()
    assert min(seen[kind] for kind in ("solved", "no solve", "capped")) >= 20, seen


def test_milp_gets_the_pivot_model(monkeypatch):
    """On the tied cases, at every candidate radius, uncapped and for median
    and means, above the simplex's size gate (patched to 0 here):
    ``solve_lp`` calls HiGHS exactly when every point reaches a
    center, some column is left and the pivots' assignment breaks a row by
    more than RESIDUAL_TOL, and then hands it ``pivot_model_from_dense``'s
    model, the costs scaled: the same costs, matrix entries and column
    bounds [0, 1], and the row bounds within rounding. Among the models are
    ones with no column, ones whose pivots' assignment meets every row,
    ones whose every point has two or more columns and ones mixing points
    of one column with others."""
    calls = []
    solve_milp = lp_module.milp

    def recording(c, *, constraints, bounds, options):
        calls.append(_as_milp_reads(c, constraints, bounds))
        return solve_milp(c, constraints=constraints, bounds=bounds, options=options)

    monkeypatch.setattr(lp_module, "milp", recording)
    monkeypatch.setattr(lp_module, "_SIMPLEX_CELLS", 0)
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_tied_cases())
    def check(case):
        inst, gf, centers = case
        radii = np.unique(inst.distance_matrix()[centers]).tolist()
        for lam, objective in ([(lam, None) for lam in radii + [None]]
                               + [(None, "median"), (None, "means")]):
            model = (build_gf_feasibility_lp(inst, gf, centers, lam) if objective is None
                     else build_gf_objective_lp(inst, gf, centers, objective))
            pivot, kept, a, lo, hi, cost = pivot_model_from_dense(
                inst, gf, centers, lam, objective)
            calls.clear()
            solve_lp(model)
            if np.any(pivot < 0) or not kept:
                assert not calls
                seen["unreached" if np.any(pivot < 0) else "no column"] += 1
                continue
            if np.maximum(lo, -hi).max() <= RESIDUAL_TOL:
                assert not calls
                seen["pivots feasible"] += 1
                continue
            [(c, data, indices, indptr, row_lo, row_hi, col_lo, col_hi)] = calls
            want = np.ldexp(cost, 1 - np.frexp(cost.max())[1])
            assert c.tobytes() == want.tobytes()
            matrix = sparse.csc_array((data, indices, indptr), shape=a.shape)
            assert np.array_equal(matrix.toarray(), a) and np.all(data != 0.0)
            assert np.array_equal(row_lo == -np.inf, lo == -np.inf)
            finite = lo > -np.inf
            assert np.allclose(row_lo[finite], lo[finite], rtol=0, atol=1e-12)
            assert np.allclose(row_hi, hi, rtol=0, atol=1e-12)
            assert not col_lo.any() and (col_hi == 1.0).all()
            columns = Counter(j for _, j in kept)
            seen["two or more" if min(columns[j] for j in range(inst.n)) > 1
                 else "mixed"] += 1

    check()
    assert min(seen[kind] for kind in ("no column", "pivots feasible", "two or more",
                                       "mixed")) >= 20, seen


def test_a_fair_pivot_assignment_is_solved_without_highs(monkeypatch):
    """Each point at its nearest center already meets every row: a cost
    model (whose costs are >= 0) and a radius probe are both solved by that
    assignment, and no solver runs, under the simplex's size gate and above
    it (the gate patched to 0): neither the simplex nor HiGHS is called."""
    def fail(*args, **kwargs):
        raise AssertionError("a solver called")

    monkeypatch.setattr(lp_module, "milp", fail)
    monkeypatch.setattr(simplex, "solve", fail)
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = exact_gf_spec(inst)
    nearest = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    for gate in (lp_module._SIMPLEX_CELLS, 0):
        monkeypatch.setattr(lp_module, "_SIMPLEX_CELLS", gate)
        for model in (build_gf_objective_lp(inst, gf, [0, 3], "median"),
                      build_gf_objective_lp(inst, gf, [0, 3], "means"),
                      build_gf_feasibility_lp(inst, gf, [0, 3], 2.0)):
            assert model.ncols > 0
            sol = solve_lp(model)
            check_lp_solution(model, sol, inst, gf)
            assert np.array_equal(sol.x, nearest)


def test_a_class_without_a_center_is_refused_before_highs(monkeypatch):
    """A probe below the nearest-assignment radius, where point 3 reaches
    no center while point 1 reaches both: no pivot for point 3, and
    ``solve_lp`` returns None without calling an LP solver."""
    calls = []
    monkeypatch.setattr(lp_module, "_solve_columns", lambda *args: calls.append(1))
    inst = line_instance([0, 1, 2, 10], [0, 1, 0, 1])
    model = build_gf_feasibility_lp(inst, vacuous_gf(2), [0, 2], 1.0)
    assert model.ncols == 1 and model.pivot[3] == -1
    assert solve_lp(model) is None
    assert not calls


def test_pivot_ties_go_to_the_lowest_center():
    """Point 1 lies midway between centers 0 and 2: its pivot is center 0,
    given in either order, for cost models and radius probes alike."""
    inst = line_instance([0, 1, 2], [0, 1, 0])
    gf = vacuous_gf(2)
    for centers in ([0, 2], [2, 0]):
        for model in (build_gf_objective_lp(inst, gf, centers, "median"),
                      build_gf_feasibility_lp(inst, gf, centers, 1.0)):
            assert model.pivot.tolist() == [0, 0, 2]
            assert [2, 1] in model.kept.tolist()


def test_radius_probes_log_one_debug_record_each(caplog, monkeypatch):
    """Each probe of the radius search logs its radius, point count, its
    pivot-form column count, the solver that ran with its pivot count, and
    its verdict on the ``fairclus`` logger."""
    inst = line_instance([0, 0, 1, 1, 5, 6, 6], [0, 1, 0, 1, 0, 1, 1])
    gf = exact_gf_spec(inst)
    _start_search_at(monkeypatch, lambda radii: 0)  # below the answer
    with caplog.at_level("DEBUG", logger="fairclus"):
        result = min_feasible_lambda(inst, gf, [0, 5])
    probes = [r.getMessage() for r in caplog.records if r.name == "fairclus"]
    assert re.fullmatch(re.escape(f"radius probe {result.radius!r}: "
                                  f"{inst.n} points, "
                                  f"{result.model.ncols} columns, simplex, ")
                        + r"[1-9]\d* pivots, feasible", probes[-1]), probes[-1]
    assert all(p.startswith("radius probe ") for p in probes)
    assert len(probes) == len({p.split(":")[0] for p in probes}) >= 2
    assert any(p.endswith("infeasible") for p in probes)


# Solves center, median and means with both backends and the oracle, then
# prints the scipy modules loaded so far and, with argument "lazy", solves
# again with the simplex's size gate at 0, so that every model with a
# column goes to HiGHS; with "eager" it imports scipy.optimize first and
# solves with the gate at 0 at once. Each pass prints its outputs, the
# reports without their timings.
_SOLVE_SCRIPT = """
import json
import sys

import fairclus
import fairclus.cli
from fairclus import (ExactBackend, GreedyBackend, default_ds_profile,
                      exact_gf_spec, lp, random_instance, solve)


def outputs():
    inst = random_instance(9, 2, seed=4)
    gf, ds = exact_gf_spec(inst), default_ds_profile(inst, 3)
    out = []
    for backend in (GreedyBackend(), ExactBackend()):
        for objective in ("center", "median", "means"):
            clustering, report = solve(inst, gf, ds, objective, backend=backend,
                                       with_oracle=True)
            report = report.to_dict()
            del report["timings"]
            out.append([clustering.to_dict(), report])
    return json.dumps(out, sort_keys=True)


if sys.argv[1] == "eager":
    import scipy.optimize
else:
    outputs()
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
lp._SIMPLEX_CELLS = 0
print(outputs())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_loads_until_a_model_goes_to_highs():
    """Importing ``fairclus`` and its CLI and solving every objective with
    both backends and the oracle loads no scipy module while the simplex
    takes every model. With its size gate at 0 HiGHS takes them, scipy
    loads on the first call, and the outputs are byte-identical to those of
    a process that imported scipy.optimize before it solved. Subprocesses:
    pytest's own warning filters import scipy.optimize into this one."""
    def run(mode):
        proc = subprocess.run([sys.executable, "-c", _SOLVE_SCRIPT, mode],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    before, lazy, after = run("lazy")
    assert json.loads(before) == []
    assert "scipy.optimize" in json.loads(after)
    eager, _ = run("eager")
    assert lazy == eager
