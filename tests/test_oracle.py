import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fairclus import (BudgetExceededError, CenterDiversitySpec,
                      GroupFairnessSpec, InfeasibleError, OracleBudget,
                      ValidationError, brute_force_doubly_fair, check_ds, default_ds_profile, ds_cost, exact_gf_spec,
                      gf_violation, make_instance, random_instance)
from fairclus.constraints import OBJECTIVES

from conftest import (balanced_instance, line_instance, vacuous_gf,
                      violation_by_definition, window_gf)
from reference_oracle import (exhaustive_doubly_fair, reference_doubly_fair,
                              reference_gf_assignment)


def test_singletons_when_k_equals_n():
    inst = line_instance([0, 1, 2], [0, 1, 0])
    counts = inst.color_counts()
    ds = CenterDiversitySpec(lower=tuple(counts), upper=tuple(counts), k=3)
    opt = brute_force_doubly_fair(inst, vacuous_gf(2), ds, "center")
    assert opt.cost == 0.0
    assert opt.centers == (0, 1, 2)
    assert opt.assignment == (0, 1, 2)


def test_four_point_line_opt_is_one():
    inst = line_instance([0, 1, 10, 11], [0, 1, 0, 1])
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    opt = brute_force_doubly_fair(inst, gf, ds, "center")
    # hand-checkable: pair {0,1} and {10,11} with one center in each
    assert opt.cost == pytest.approx(1.0)
    members = {c: tuple(opt.members(c)) for c in opt.centers}
    assert sorted(tuple(sorted(v)) for v in members.values()) == [(0, 1), (2, 3)]


def test_oracle_output_is_doubly_feasible():
    rng = np.random.default_rng(51)
    done = 0
    for trial in range(12):
        n = int(rng.integers(5, 9))
        inst = balanced_instance(n, 2, seed=int(rng.integers(0, 1000)))
        gf = window_gf(inst)
        ds = CenterDiversitySpec(lower=(1, 1), upper=(2, 2), k=2)
        try:
            opt = brute_force_doubly_fair(inst, gf, ds, "median")
        except InfeasibleError:
            continue
        done += 1
        assert check_ds(inst, opt.centers, ds)
        assert gf_violation(inst, opt, gf) == 0.0
        assert all(len(opt.members(c)) >= 1 for c in opt.centers)
    assert done >= 8


def test_pruned_equals_unpruned():
    rng = np.random.default_rng(53)
    for trial in range(8):
        n = int(rng.integers(5, 8))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
        for objective in ("center", "median", "means"):
            try:
                pruned = brute_force_doubly_fair(inst, gf, ds, objective)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    exhaustive_doubly_fair(inst, gf, ds, objective)
                continue
            unpruned = exhaustive_doubly_fair(inst, gf, ds, objective)
            assert pruned == unpruned


def test_pruning_is_the_same_at_any_scale_of_costs():
    """Coordinates times 2**-20 scale every distance exactly, so the search
    must prune exactly as at scale 1. An absolute slack of 1e-9 would hold
    every k-means cost there (about 2**-40), and the search would visit
    every node."""
    budget = OracleBudget(max_nodes_per_set=1000)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        colors = rng.permutation(np.arange(9) % 2)
        coords = rng.uniform(0, 1, (9, 2))
        for objective in ("median", "means"):
            found = []
            for scale in (1.0, 2.0 ** -20):
                inst = make_instance(colors, coords=coords * scale, m=2)
                opt = brute_force_doubly_fair(inst, window_gf(inst),
                                              default_ds_profile(inst, 3),
                                              objective, budget=budget)
                found.append((opt.centers, opt.assignment))
            assert found[0] == found[1], (seed, objective)


def test_oracle_determinism():
    inst = balanced_instance(7, 2, seed=9)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    a = brute_force_doubly_fair(inst, gf, ds, "means")
    b = brute_force_doubly_fair(inst, gf, ds, "means")
    assert a == b


def test_oracle_infeasible_exact_ratios():
    # counts (3, 2): exact per-cluster ratios force a single cluster of all 5
    inst = line_instance([0, 1, 2, 3, 4], [0, 0, 0, 1, 1])
    gf = exact_gf_spec(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    with pytest.raises(InfeasibleError):
        brute_force_doubly_fair(inst, gf, ds, "center")


def test_oracle_rejects_specs_with_other_colors():
    """A two-color spec on a three-color instance is refused up front, not
    indexed by the instance's colors."""
    inst = random_instance(9, 3, seed=2)
    ds3 = CenterDiversitySpec(lower=(0, 0, 0), upper=(3, 3, 3), k=3)
    ds2 = CenterDiversitySpec(lower=(0, 0), upper=(3, 3), k=3)
    with pytest.raises(ValidationError, match="gf spec has 2 colors, instance has 3"):
        brute_force_doubly_fair(inst, vacuous_gf(2), ds3, "center")
    with pytest.raises(ValidationError, match="ds spec has 2 colors, instance has 3"):
        brute_force_doubly_fair(inst, vacuous_gf(3), ds2, "center")


def test_budget_exceeded_center_sets():
    inst = random_instance(8, 2, seed=3)
    ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    tight = OracleBudget(max_center_sets=1)
    with pytest.raises(BudgetExceededError):
        brute_force_doubly_fair(inst, vacuous_gf(2), ds, "center", budget=tight)


def test_budget_exceeded_nodes():
    inst = random_instance(10, 2, seed=4)
    ds = CenterDiversitySpec(lower=(0, 0), upper=(3, 3), k=3)
    tight = OracleBudget(max_nodes_per_set=10)
    with pytest.raises(BudgetExceededError):
        brute_force_doubly_fair(inst, vacuous_gf(2), ds, "center", budget=tight)


def test_time_cap():
    inst = random_instance(12, 2, seed=5)
    ds = CenterDiversitySpec(lower=(0, 0), upper=(3, 3), k=3)
    capped = OracleBudget(time_cap=0.0)
    with pytest.raises(BudgetExceededError, match="time cap"):
        brute_force_doubly_fair(inst, vacuous_gf(2), ds, "center", budget=capped)


@pytest.mark.parametrize("cap", [math.nan, -1.0, -math.inf])
def test_time_cap_must_be_a_nonnegative_duration(cap):
    with pytest.raises(ValidationError, match="time cap"):
        OracleBudget(time_cap=cap)


def test_zero_time_cap_stops_even_a_small_pruned_search():
    """The deadline is checked at each center set and in the completion
    check, not only every 4096 search nodes."""
    inst = random_instance(6, 2, seed=5)
    ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    capped = OracleBudget(time_cap=0.0)
    with pytest.raises(BudgetExceededError, match="time cap"):
        brute_force_doubly_fair(inst, vacuous_gf(2), ds, "center", budget=capped)


def test_infinite_time_cap_is_no_cap():
    inst = balanced_instance(7, 2, seed=9)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    for objective in OBJECTIVES:
        assert brute_force_doubly_fair(
            inst, gf, ds, objective, budget=OracleBudget(time_cap=math.inf)) == \
            brute_force_doubly_fair(inst, gf, ds, objective)


def _outcome(solve, *args):
    """A clustering, or the message of the InfeasibleError raised instead."""
    try:
        return solve(*args)
    except InfeasibleError as exc:
        return str(exc)


def _desk_gf(inst, width):
    """Exact GF for width 0, else windows of +-width/8 around the ratios."""
    return exact_gf_spec(inst) if width == 0 else window_gf(inst, Fraction(width, 8))


def test_pruned_search_matches_the_frozen_reference():
    """Desk requests: n 6-10, m 2-3, k 1-3, exact GF and +-1/8 to +-3/8
    windows, all three objectives. At n 9-10 the exhaustive search is too
    slow to compare against, so the reference is the earlier pruned search."""
    rng = np.random.default_rng(67)
    requests = infeasible = 0
    for _ in range(2):
        for n, m, k, width in product(range(6, 11), (2, 3), (1, 2, 3), range(4)):
            inst = balanced_instance(n, m, seed=int(rng.integers(2**31)))
            gf, ds = _desk_gf(inst, width), default_ds_profile(inst, k)
            expected = None
            for objective in OBJECTIVES:
                # the reference finds no solution for one objective exactly
                # when it finds none for any: with no incumbent nothing is
                # pruned by cost
                if not isinstance(expected, str):
                    expected = _outcome(reference_doubly_fair, inst, gf, ds, objective)
                assert _outcome(brute_force_doubly_fair, inst, gf, ds,
                                objective) == expected, (n, m, k, width, objective)
                requests += 1
                infeasible += isinstance(expected, str)
    assert requests >= 600 and infeasible >= 50


def test_pruned_equals_unpruned_on_duplicate_points():
    """Integer-grid coordinates with repeated points give exact distance
    ties between center sets and between assignments."""
    rng = np.random.default_rng(73)
    for trial in range(40):
        n, m, k = int(rng.integers(4, 8)), 2 + trial % 2, 1 + trial % 3
        inst = make_instance(np.arange(n) % m, coords=rng.integers(0, 3, (n, 2)), m=m)
        gf = _desk_gf(inst, trial % 4)
        ds = CenterDiversitySpec(lower=(0,) * m, upper=(k,) * m, k=k)
        for objective in OBJECTIVES:
            assert _outcome(brute_force_doubly_fair, inst, gf, ds, objective) == \
                _outcome(exhaustive_doubly_fair, inst, gf, ds, objective), \
                (trial, objective)


def test_a_tie_found_later_goes_to_the_set_that_sorts_first():
    """Centers (2, 3) have the smallest bound, so they are searched first and
    reach the optimal radius 2. Centers (0, 1) sort first and reach it too,
    with a bound equal to it: the oracle must still search them, and keep
    them."""
    inst = line_instance([3, 5, 4, 1], [1, 0, 1, 0])
    gf = exact_gf_spec(inst)  # each cluster one point of each color
    ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    assert ds_cost(inst, (2, 3), "center") == 1.0
    assert ds_cost(inst, (0, 1), "center") == 2.0
    for centers in ((0, 1), (2, 3)):
        assert reference_gf_assignment(inst, centers, gf, "center",
                                       require_nonempty=True).cost == 2.0
    opt = brute_force_doubly_fair(inst, gf, ds, "center")
    assert opt.centers == (0, 1) and opt.assignment == (0, 1, 1, 0)
    assert opt == exhaustive_doubly_fair(inst, gf, ds, "center")


def test_infeasible_request_is_refused_before_any_set_is_searched():
    """No split of the color counts (5, 8) into three clusters of ratio 5/13
    exists, so the completion check refuses the request at the root, with a
    table of a few hundred states, before any of the 140 center sets is
    searched."""
    inst = random_instance(13, 2, 2)
    ds = default_ds_profile(inst, 3)
    with pytest.raises(InfeasibleError, match="no assignment is group fair"):
        brute_force_doubly_fair(inst, exact_gf_spec(inst), ds, "median",
                                budget=OracleBudget(max_nodes_per_set=10_000))


def test_gf_assignment_single_center():
    """The test-side fixed-center search that other tests take as ground
    truth."""
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = exact_gf_spec(inst)  # global ratios: a single cluster is fair
    clus = reference_gf_assignment(inst, [1], gf, "median")
    assert clus.assignment == (1, 1, 1, 1)
    gf_strict = GroupFairnessSpec(lower=(0.75, 0.25), upper=(0.75, 1.0))
    with pytest.raises(InfeasibleError):
        reference_gf_assignment(inst, [1], gf_strict, "median")


def test_gf_assignment_vacuous_equals_nearest():
    rng = np.random.default_rng(57)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        centers = sorted(rng.choice(n, size=2, replace=False).tolist())
        for objective in ("median", "means"):
            clus = reference_gf_assignment(inst, centers, vacuous_gf(2), objective)
            # centers ascend, so argmin's first minimum is the lowest id on ties
            nearest = np.array(centers)[inst.distance_matrix()[centers].argmin(axis=0)]
            expected = ds_cost(inst, centers, objective)
            assert clus.cost == pytest.approx(expected)
            assert list(clus.assignment) == nearest.tolist()


def test_oracle_lower_bounds_random_feasible_solutions():
    # sample random doubly feasible clusterings; none may beat the oracle
    rng = np.random.default_rng(61)
    inst = balanced_instance(8, 2, seed=2)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    opt = brute_force_doubly_fair(inst, gf, ds, "median")
    from fairclus import make_clustering
    found = 0
    for _ in range(300):
        centers = sorted(rng.choice(8, size=2, replace=False).tolist())
        if not check_ds(inst, centers, ds):
            continue
        assignment = [int(centers[rng.integers(0, 2)]) for _ in range(8)]
        clus = make_clustering(inst, centers, assignment, "median")
        sizes = [len(clus.members(c)) for c in centers]
        if min(sizes) == 0:
            continue
        if violation_by_definition(inst, clus, gf) > 0:
            continue
        found += 1
        assert clus.cost >= opt.cost - 1e-12
    assert found > 10
