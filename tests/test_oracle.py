import numpy as np
import pytest

from fairclus import (BudgetExceededError, CenterDiversitySpec,
                      GroupFairnessSpec, InfeasibleError, OracleBudget,
                      ValidationError,
                      brute_force_doubly_fair, brute_force_gf_assignment,
                      check_ds, ds_cost, exact_gf_spec, gf_violation,
                      make_instance, random_instance)
from fairclus.ds import nearest_assignment

from conftest import balanced_instance, line_instance, vacuous_gf, window_gf


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
                pruned = brute_force_doubly_fair(inst, gf, ds, objective,
                                                 prune=True)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    brute_force_doubly_fair(inst, gf, ds, objective, prune=False)
                continue
            unpruned = brute_force_doubly_fair(inst, gf, ds, objective,
                                               prune=False)
            assert pruned == unpruned


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
    with pytest.raises(ValidationError, match="gf spec has 2 colors, instance has 3"):
        brute_force_gf_assignment(inst, [0, 1, 2], vacuous_gf(2), "median")


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
        brute_force_doubly_fair(inst, vacuous_gf(2), ds, "center",
                                budget=capped, prune=False)


def test_gf_assignment_single_center():
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = exact_gf_spec(inst)  # global ratios: a single cluster is fair
    clus = brute_force_gf_assignment(inst, [1], gf, "median")
    assert clus.assignment == (1, 1, 1, 1)
    gf_strict = GroupFairnessSpec(lower=(0.75, 0.25), upper=(0.75, 1.0))
    with pytest.raises(InfeasibleError):
        brute_force_gf_assignment(inst, [1], gf_strict, "median")


def test_gf_assignment_vacuous_equals_nearest():
    rng = np.random.default_rng(57)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        centers = sorted(rng.choice(n, size=2, replace=False).tolist())
        for objective in ("median", "means"):
            clus = brute_force_gf_assignment(inst, centers, vacuous_gf(2),
                                             objective)
            nearest = nearest_assignment(inst, centers)
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
    from fairclus import check_cluster_group_fair, make_clustering
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
        if any(not check_cluster_group_fair(inst, clus.members(c), gf, rho=0)
               for c in centers):
            continue
        found += 1
        assert clus.cost >= opt.cost - 1e-12
    assert found > 10
