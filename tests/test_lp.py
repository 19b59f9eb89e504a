import io
import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.optimize import Bounds, LinearConstraint, milp

from fairclus import (ExactBackend, GreedyBackend, GroupFairnessSpec,
                      InfeasibleError, ValidationError,
                      brute_force_gf_assignment, build_gf_feasibility_lp,
                      build_gf_objective_lp, default_ds_profile, exact_gf_spec,
                      fractional_cost, lp_residuals, make_instance,
                      min_feasible_lambda, pairwise_distance_set,
                      random_instance, solve, solve_lp)
from fairclus import lp as lp_module
from fairclus.errors import NumericalError
from fairclus.instance import EPS_D
from fairclus.lp import (EPS_POS, RESIDUAL_TOL, FractionalSolution, check_lp_solution,
                         dump_lp_text)

from conftest import line_instance, vacuous_gf, window_gf
from reference_lp import (dense_reference, full_lp_residual, solution_from_clustering,
                          solve_dense_reference, solve_full_lp, solve_lp_presolved)


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
    # a zero cap keeps the center's own column
    assert build_gf_feasibility_lp(inst, vacuous_gf(2), [0], 0.0).ncols == 1


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
    with pytest.raises(NumericalError, match="post-repair residual"):
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
        radii = np.unique(inst.distance_matrix()[centers])
        lam = min_feasible_lambda(inst, gf, centers, radii).radius
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
                    clus = brute_force_gf_assignment(inst, centers, gf, objective,
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
            clus = brute_force_gf_assignment(inst, centers, gf, "center")
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
    rng = np.random.default_rng(27)
    for trial in range(8):
        n = int(rng.integers(4, 8))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        centers = sorted(rng.choice(n, size=2, replace=False).tolist())
        radii = np.unique(inst.distance_matrix()[centers])
        lam = min_feasible_lambda(inst, gf, centers, radii).radius
        flags = _dense_scan(inst, gf, centers, radii)
        # monotone: once feasible, stays feasible
        first = flags.index(True)
        assert all(flags[first:])
        assert lam == pytest.approx(float(radii[first]))


def test_min_feasible_lambda_trivial_values():
    single = line_instance([0.0], [0])
    gf1 = GroupFairnessSpec(lower=(0,), upper=(1,))
    assert min_feasible_lambda(single, gf1, [0],
                               pairwise_distance_set(single)).radius == 0.0

    inst = random_instance(5, 2, seed=3)
    gf = vacuous_gf(2)
    # every point its own center: radius 0 suffices
    assert min_feasible_lambda(inst, gf, range(5),
                               pairwise_distance_set(inst)).radius == 0.0


def test_min_feasible_lambda_globally_infeasible():
    inst = make_instance([0, 1], coords=[[0.0], [1.0]])
    gf = GroupFairnessSpec(lower=(1, 0), upper=(1, 1))  # clusters must be pure color 0
    with pytest.raises(InfeasibleError) as exc_info:
        min_feasible_lambda(inst, gf, [0, 1], pairwise_distance_set(inst))
    assert exc_info.value.diagnosis == ["sum of lower ratios = 1",
                                        "sum of upper ratios = 2", "k = 2, n = 2"]


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
    """Programs over a random center set, searched over every suffix of the
    distances from its centers."""
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
            result = min_feasible_lambda(inst, gf, centers, radii[i:])
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
    probed = _record_probes(monkeypatch)
    inst = random_instance(6, 2, seed=4)
    gf = vacuous_gf(2)
    top = float(pairwise_distance_set(inst)[-1])
    assert min_feasible_lambda(inst, gf, [0], [top]).radius == top
    assert probed == [top]

    probed.clear()
    pair = make_instance([0, 1], coords=[[0.0], [1.0]])
    pure = GroupFairnessSpec(lower=(1, 0), upper=(1, 1))
    with pytest.raises(InfeasibleError):
        min_feasible_lambda(pair, pure, [0, 1], [1.0])
    assert probed == [1.0]


def test_alternating_line_lambda_matches_scan():
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    for centers in ([1], [0, 3]):
        radii = pairwise_distance_set(inst)
        lam = min_feasible_lambda(inst, gf, centers, radii).radius
        assert lam == radii[_dense_scan(inst, gf, centers, radii).index(True)]


def test_radius_cutoff_eliminates_variables():
    inst = line_instance([0, 1, 10], [0, 1, 0])
    gf = vacuous_gf(2)
    model = build_gf_feasibility_lp(inst, gf, [0, 2], lam=1.0)
    kept_pairs = set(map(tuple, model.kept.tolist()))
    assert (0, 2) not in kept_pairs and (2, 0) not in kept_pairs
    assert (0, 1) in kept_pairs
    uncapped = build_gf_objective_lp(inst, gf, [0, 2], "median")
    assert len(uncapped.kept) == 6  # no cutoff: all k * n assignment variables


def test_objective_lp_rejects_center():
    inst = line_instance([0, 1], [0, 1])
    with pytest.raises(ValidationError):
        build_gf_objective_lp(inst, vacuous_gf(2), [0], "center")


@pytest.mark.parametrize("centers", [[], [0, 0], [0, 2], [-1, 1]])
def test_fixed_center_lp_rejects_bad_center_sets(centers):
    inst = line_instance([0, 1], [0, 1])
    with pytest.raises(ValidationError, match="distinct ids"):
        build_gf_objective_lp(inst, vacuous_gf(2), centers, "median")


def test_fixed_center_lp_solution_is_the_optimal_fair_assignment():
    inst = line_instance([0, 1, 2, 10, 11, 12], [0, 1, 0, 1, 0, 1])
    gf = GroupFairnessSpec(lower=(Fraction(1, 3), Fraction(1, 3)),
                           upper=(Fraction(2, 3), Fraction(2, 3)))
    model = build_gf_objective_lp(inst, gf, [4, 1], "median")
    sol = solve_lp(model)
    check_lp_solution(model, sol, inst, gf)
    assert model.ncols == 12 and model.centers.tolist() == [1, 4] and model.k == 2
    assert sol.rows.tolist() == [1, 4]
    assert sol.x.shape == (2, 6)
    # each point goes to its near center; both clusters hold 1 or 2 of each color
    assert fractional_cost(inst, sol, "median") == pytest.approx(4.0)


def test_dump_lp_text():
    inst = line_instance([0, 1], [0, 1])
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    buf = io.StringIO()
    dump_lp_text(build_gf_objective_lp(inst, gf, [1], "median"), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "\\ fairclus model centers=1 n=2 k=1"
    assert {"Minimize", "Subject To", "End"} <= set(lines)
    assert " mass_1: -1 x_1_0 -1 x_1_1 <= -1" in lines
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


def _classes(inst, centers, lam, objective):
    """Each point's class, found from the instance: a class per point in a
    cost model, else one per color and set of centers reached under
    ``lam`` (every center if None), numbered in the order of first members."""
    if objective is not None:
        return np.arange(inst.n)
    d = inst.distance_matrix()
    number = {}
    return np.array([number.setdefault(
        (int(inst.colors[j]), tuple(lam is None or d[i, j] <= lam + EPS_D for i in centers)),
        len(number)) for j in range(inst.n)])


def _class_model_from_dense(inst, gf, centers, lam, objective):
    """The class model written from ``dense_reference``'s per-point model:
    (point_class, kept, nfree, a, lo, hi, c), with ``a`` dense.

    Each column (i, G) is the sum of the pair columns (i, j) of G's members,
    all of which exist and carry the same coefficient in every <= row; each
    class row is the sum of its members' assignment rows. Free columns (G
    reaches two or more centers) come first, each part in (center, class)
    order. Rows: the mass rows, the ratio rows kept as <= rows, one
    equality row (the upper row) per color with 0 < l_h = u_h < 1, then the
    class rows; with every window exact the last color's rows are left
    out, and they are checked to be minus the sum of the other colors'."""
    k, m = len(centers), inst.m
    pairs, a_eq, b_eq, a_ub, b_ub, c = dense_reference(inst, gf, k, lam, objective, centers)
    col_of = {pair: a for a, pair in enumerate(pairs)}
    point_class = _classes(inst, centers, lam, objective)
    members = [np.flatnonzero(point_class == g) for g in range(point_class.max() + 1)]
    reached = [[i for i in centers if (i, int(g[0])) in col_of] for g in members]
    kept = [(i, g) for free in (True, False) for i in centers
            for g in range(len(members)) if i in reached[g] and (len(reached[g]) > 1) == free]
    rep = [col_of[i, int(members[g][0])] for i, g in kept]
    for (i, g), a in zip(kept, rep):
        for j in members[g]:
            assert np.array_equal(a_ub[:, col_of[i, int(j)]], a_ub[:, a])
    in_class = (point_class == np.arange(len(members))[:, None]).astype(float)
    class_rows = (in_class @ a_eq)[:, rep]

    lower, upper = gf.lower, gf.upper
    dense_rows, at = {}, k  # the dense <= ratio rows by (center, color, side)
    for i in centers:
        for h in range(m):
            for side, vacuous in (("upper", upper[h] == 1), ("lower", lower[h] == 0)):
                if not vacuous:
                    dense_rows[i, h, side] = a_ub[at, rep]
                    at += 1
    assert at == len(b_ub) and not b_ub[k:].any()
    exact = all(lo == up for lo, up in zip(lower, upper))
    if exact:  # the last color's rows follow from the others'
        def as_upper(i, h):
            return (dense_rows[i, h, "upper"] if (i, h, "upper") in dense_rows
                    else -dense_rows[i, h, "lower"])
        for i in centers:
            assert np.allclose(as_upper(i, m - 1),
                               -sum(as_upper(i, h) for h in range(m - 1)), atol=1e-12)
    colors = range(m - 1 if exact else m)
    equal = [h for h in colors if 0 < lower[h] == upper[h] < 1]
    for i in centers:
        for h in equal:
            assert np.array_equal(dense_rows[i, h, "lower"], -dense_rows[i, h, "upper"])
    below = [dense_rows[i, h, side] for i in centers for h in colors if h not in equal
             for side in ("upper", "lower") if (i, h, side) in dense_rows]
    ratio_eq = [dense_rows[i, h, "upper"] for i in centers for h in equal]
    a = np.vstack([a_ub[:k, rep]] + below + ratio_eq + [class_rows])
    sizes = in_class @ b_eq
    lo = np.concatenate((np.full(k + len(below), -np.inf), np.zeros(len(ratio_eq)), sizes))
    hi = np.concatenate((b_ub[:k], np.zeros(len(below) + len(ratio_eq)), sizes))
    nfree = sum(len(reached[g]) > 1 for _, g in kept)
    return point_class, kept, nfree, a, lo, hi, c[rep]


def test_classes_over_many_centers():
    """Above 32 centers the class key is renumbered between 32-center
    chunks; the classes still are the points of one color that reach the
    same centers, numbered by first member."""
    inst = random_instance(90, 3, seed=5)
    centers = list(range(70))  # more reach bits than an int64 holds
    d = inst.distance_matrix()[centers]
    for lam in np.quantile(d, [0.05, 0.2, 0.5]):
        model = build_gf_feasibility_lp(inst, vacuous_gf(3), centers, float(lam))
        classes = _classes(inst, centers, float(lam), None)
        assert np.array_equal(model.point_class, classes)
        assert 3 < classes.max() + 1 < inst.n


def test_fixed_center_model_matches_dense_reference():
    """Uncapped median and means models, and feasibility models capped at a
    distance from the centers and at the largest one below the
    nearest-assignment radius, where some point reaches no center: each is
    ``dense_reference``'s model summed over its classes."""
    rng = np.random.default_rng(63)
    checked = {"uncapped": 0, "capped": 0, "below": 0, "merged": 0}
    for n in range(2, 10):
        for m in (1, 2, 3):
            if m == 1 and n % 2:
                continue
            inst = make_instance(np.arange(n) % m, coords=rng.uniform(0, 1, (n, 2)), m=m)
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
                    point_class, kept, nfree, a, lo, hi, c = _class_model_from_dense(
                        inst, gf, centers, lam, objective)
                    assert model.centers.tolist() == centers and model.k == k
                    assert model.lam == lam
                    assert np.array_equal(model.point_class, point_class)
                    assert model.kept.tolist() == [list(p) for p in kept]
                    assert model.nfree == nfree
                    assert model.ncols == len(kept) <= k * n
                    if lam is None:
                        assert len(kept) == k * n
                    assert np.array_equal(model.a.toarray(), a)
                    assert np.array_equal(model.lo, lo) and np.array_equal(model.hi, hi)
                    assert model.n_ub == np.count_nonzero(lo == -np.inf)
                    assert np.array_equal(
                        np.vstack((model.a_ub.toarray(), model.a_eq.toarray())), a)
                    assert np.array_equal(model.c, c)
                    assert model.a.has_canonical_format and np.all(model.a.data != 0.0)
                    checked[case] += 1
                    checked["merged"] += model.class_sizes.size < n
    assert checked["uncapped"] >= 150 and checked["capped"] >= 75
    assert checked["below"] >= 40 and checked["merged"] >= 40, checked


GOLDEN = Path(__file__).parent / "data"


def _golden_model(name):
    if name == "lp_capped.lp":
        inst = line_instance([0, 1, 2, 4, 7, 8], [0, 1, 2, 0, 1, 2])
        gf = GroupFairnessSpec(lower=(Fraction(1, 4), 0, 0),
                               upper=(Fraction(1, 2), 1, Fraction(1, 2)))
        return build_gf_feasibility_lp(inst, gf, [1, 4], 3.0)
    if name == "lp_classes.lp":  # two classes of two points, exact windows
        inst = line_instance([0, 0, 1, 1, 5, 6, 6], [0, 1, 0, 1, 0, 1, 1])
        return build_gf_feasibility_lp(inst, exact_gf_spec(inst), [0, 5], 5.0)
    inst = random_instance(5, 2, seed=3)
    gf = GroupFairnessSpec(lower=(Fraction(1, 3), Fraction(1, 4)),
                           upper=(Fraction(2, 3), 1))
    return build_gf_objective_lp(inst, gf, [0, 3], "means")


@pytest.mark.parametrize("name", ["lp_capped.lp", "lp_classes.lp", "lp_means.lp"])
def test_dump_lp_text_matches_golden(name):
    buf = io.StringIO()
    dump_lp_text(_golden_model(name), buf)
    assert buf.getvalue() == (GOLDEN / name).read_text()


def test_cost_lp_without_presolve_matches_a_presolved_solve(monkeypatch):
    """The median/means LP runs without HiGHS presolve; on random instances
    its optimum is the presolved one and the pipeline rounds it to the same
    clustering."""
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
            patched.setattr(lp_module, "milp", presolved)
            want, _ = solve(inst, gf, ds, objective, backend=backend)
        artifacts = {}
        got, _ = solve(inst, gf, ds, objective, backend=backend, artifacts=artifacts)
        assert got == want, (case, n, m, k, objective)

        model = build_gf_objective_lp(inst, gf, artifacts["ds_solution"].centers,
                                      objective)
        sol = solve_lp(model)
        check_lp_solution(model, sol, inst, gf)
        ref = milp(model.c, constraints=LinearConstraint(model.a, model.lo, model.hi),
                   bounds=Bounds(0.0, 1.0), options={"presolve": True})
        assert ref.status == 0
        assert fractional_cost(inst, sol, objective) == pytest.approx(
            ref.fun, rel=RESIDUAL_TOL)


def test_no_highs_call_uses_presolve(monkeypatch):
    """Each HiGHS call of a solve runs without presolve: median, means, the
    k-center radius probes and an uncapped feasibility model."""
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
        assert all(options["presolve"] is False for options in calls)
    calls.clear()
    model = build_gf_feasibility_lp(inst, gf, [0, 1, 2], None)
    assert model.lam is None and not model.c.any()
    assert solve_lp(model) is not None
    assert [options["presolve"] for options in calls] == [False]


def test_kcenter_radius_matches_presolved_full_model_probes(monkeypatch):
    """The k-center radius, searched with class probes without presolve,
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
    the largest: the class probe is feasible exactly when HiGHS with
    presolve finds the whole model feasible, and each solution it returns
    passes the full check and splits at most k(2m + 1) points. Among them
    are k = 1 and models whose every point reaches one center only, which
    HiGHS never sees."""
    calls = []
    solve_milp = lp_module.milp

    def recording(*args, **kwargs):
        calls.append(1)
        return solve_milp(*args, **kwargs)

    monkeypatch.setattr(lp_module, "milp", recording)
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
        assert (sol is not None) == (solve_lp_presolved(model) is not None), case
        if sol is not None:
            check_lp_solution(model, sol, inst, gf)
            assert _fractional_points(sol) <= k * (2 * m + 1)
        reach = inst.distance_matrix()[centers] <= radii[idx] + EPS_D
        if np.all(reach.sum(axis=0) == 1):
            assert not calls
            seen["all forced"] += 1
        seen["feasible" if sol is not None else "infeasible"] += 1
        seen["k=1"] += k == 1
    assert min(seen.values()) >= 30, seen


@st.composite
def _tied_cases(draw):
    """Inputs rich in ties and duplicates, where classes merge many points:
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
    """At every candidate radius the class probe is feasible exactly when
    the dense per-point model is, and its split table passes the full check
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


def test_radius_probes_log_one_debug_record_each(caplog):
    """Each probe of the radius search logs its radius, class count, the
    columns HiGHS got and its verdict on the ``fairclus`` logger."""
    inst = line_instance([0, 0, 1, 1, 5, 6, 6], [0, 1, 0, 1, 0, 1, 1])
    gf = exact_gf_spec(inst)
    radii = np.unique(inst.distance_matrix()[[0, 5]])
    with caplog.at_level("DEBUG", logger="fairclus"):
        result = min_feasible_lambda(inst, gf, [0, 5], radii)
    probes = [r.getMessage() for r in caplog.records if r.name == "fairclus"]
    assert probes[-1] == (f"radius probe {result.radius!r}: "
                          f"{result.model.class_sizes.size} classes, "
                          f"{result.model.nfree} columns to HiGHS, feasible")
    assert all(p.startswith("radius probe ") for p in probes)
    assert len(probes) == len({p.split(":")[0] for p in probes}) >= 2
    assert any(p.endswith("infeasible") for p in probes)
