import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from fairclus import (CenterDiversitySpec, Clustering, GroupFairnessSpec,
                      ValidationError, check_ds,
                      default_ds_profile, exact_gf_spec, feasibility_precheck,
                      gf_violation, load_fairness_spec, make_clustering,
                      make_instance, random_instance)
from fairclus import constraints
from fairclus.constraints import (GATHER_CELLS, as_fraction, center_count_failures,
                                  diverse_center_blocks, objective_value,
                                  point_costs)
from fairclus.errors import ParseError

from conftest import line_instance, violation_by_definition, window_gf


def four_point_inst():
    # colors: 3 red (0), 1 blue (1)
    return line_instance([0, 1, 2, 3], [0, 0, 0, 1])


def test_spec_validation():
    with pytest.raises(ValidationError):
        GroupFairnessSpec(lower=(0.6,), upper=(0.4,))
    with pytest.raises(ValidationError):
        GroupFairnessSpec(lower=(0.7, 0.7), upper=(1, 1))  # lowers sum > 1
    with pytest.raises(ValidationError):
        GroupFairnessSpec(lower=(0, 0), upper=(0.3, 0.3))  # uppers sum < 1
    with pytest.raises(ValidationError):
        CenterDiversitySpec(lower=(2,), upper=(1,), k=1)
    with pytest.raises(ValidationError):
        CenterDiversitySpec(lower=(2, 2), upper=(3, 3), k=1)  # k < sum(L)
    for k in (0, -1):  # sum(L) <= k <= sum(U) holds, but no center is opened
        with pytest.raises(ValidationError, match="k >= 1"):
            CenterDiversitySpec(lower=(0, 0), upper=(0, 0), k=k)


@pytest.mark.parametrize("lower, upper, k", [
    ((0.6, 0), (2.7, 2), 2),  # not (0, 0), (2, 2) by truncation
    ((0, 0), (2.0, 2), 2),
    ((0, 0), (2, 2), 2.0),
    ((0, True), (2, 2), 2),
    ((0, 0), (2, 2), True),
    ((0, 0), (2, "2"), 2),
])
def test_center_counts_must_be_integers(lower, upper, k):
    """A center-count bound or k that is not an integer, or is a bool, is
    refused rather than rounded, as the spec loader refuses it."""
    with pytest.raises(ValidationError, match="must be an integer"):
        CenterDiversitySpec(lower, upper, k=k)


def test_center_counts_accept_numpy_integers():
    ds = CenterDiversitySpec(np.array([0, 1]), (np.int32(2), 2), k=np.int64(2))
    assert ds == CenterDiversitySpec((0, 1), (2, 2), k=2)
    assert all(type(v) is int for v in (*ds.lower, *ds.upper, ds.k))


def _one_cluster(inst):
    """Every point of ``inst`` in the cluster of point 0."""
    return make_clustering(inst, [0], [0] * inst.n, "center")


def test_balanced_cluster_is_fair():
    inst = make_instance([0, 0, 1, 1], coords=[[0], [1], [2], [3]])
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    assert gf_violation(inst, _one_cluster(inst), gf) == 0.0


def test_unbalanced_cluster_needs_rho_one():
    inst = four_point_inst()  # one cluster of 3 red, 1 blue
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    assert gf_violation(inst, _one_cluster(inst), gf) == 1.0


def test_empty_cluster_rejected():
    inst = four_point_inst()
    clustering = make_clustering(inst, [0, 3], [0, 0, 0, 0], "center")
    with pytest.raises(ValidationError, match="empty"):
        gf_violation(inst, clustering, exact_gf_spec(inst))


def test_cluster_check_rejects_a_spec_with_fewer_colors():
    """Color 2 is not skipped: gf_violation refuses a two-color spec on a
    three-color instance."""
    inst = make_instance([0, 1, 2], coords=[[0], [1], [2]])
    gf = GroupFairnessSpec(lower=(0, 0), upper=(1, 1))
    with pytest.raises(ValidationError, match="gf spec has 2 colors, instance has 3"):
        gf_violation(inst, _one_cluster(inst), gf)


def test_check_matches_direct_reevaluation():
    """A budget rho covers one cluster's violation exactly when the cluster
    meets the inequality with that rho."""
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(2, 4))
        colors = rng.integers(0, m, size=n)
        coords = rng.uniform(0, 1, (n, 2))
        draws = sorted(rng.uniform(0, 1, size=2))
        lo_val = round(draws[0] / m, 3)
        up_val = round(min(1.0, draws[1] + 0.5), 3)
        rho = int(rng.integers(0, 3))
        gf = GroupFairnessSpec(lower=(lo_val,) * m, upper=(up_val,) * m)
        members = list(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                  replace=False))
        cluster = make_instance(colors[members], coords=coords[members], m=m)
        got = gf_violation(cluster, _one_cluster(cluster), gf) <= rho
        # independent re-evaluation, straight from the inequality
        size = len(members)
        counts = np.bincount(colors[members], minlength=m)
        lo, up = Fraction(str(lo_val)), Fraction(str(up_val))
        expected = all(lo * size - rho <= counts[h] <= up * size + rho
                       for h in range(m))
        assert got == expected


def test_gf_violation_examples():
    inst = four_point_inst()
    gf = GroupFairnessSpec(lower=(0.5, 0.5), upper=(0.5, 0.5))
    clustering = make_clustering(inst, [0], [0, 0, 0, 0], "center")
    assert gf_violation(inst, clustering, gf) == pytest.approx(1.0)

    balanced = make_instance([0, 1, 0, 1], coords=[[0], [1], [2], [3]])
    gf_exact = exact_gf_spec(balanced)
    clus = make_clustering(balanced, [0, 3], [0, 0, 3, 3], "center")
    assert gf_violation(balanced, clus, gf_exact) == 0.0


def test_gf_violation_matches_bruteforce_over_rho():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(3, 10))
        m = 2
        inst = make_instance(rng.integers(0, m, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=m)
        gf = window_gf(inst, width=Fraction(1, 8))
        k = int(rng.integers(1, 3))
        centers = sorted(rng.choice(n, size=k, replace=False).tolist())
        assignment = [int(centers[rng.integers(0, k)]) for _ in range(n)]
        for c in centers:
            assignment[c] = c  # keep clusters nonempty
        clustering = make_clustering(inst, centers, assignment, "center")
        v = gf_violation(inst, clustering, gf)
        # brute force: the smallest integer budget the definition accepts
        exact = violation_by_definition(inst, clustering, gf)
        smallest = next(rho for rho in range(n + 1) if exact <= rho)
        assert smallest == math.ceil(v - 1e-12)
        assert v == float(exact)


def test_check_ds_examples():
    inst = make_instance([0, 1, 0], coords=[[0], [1], [2]])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    assert check_ds(inst, [0, 1], ds)
    assert not check_ds(inst, [0, 2], ds)  # two of color 0
    loose = CenterDiversitySpec(lower=(1, 0), upper=(2, 1), k=2)
    assert check_ds(inst, [0, 2], loose)
    assert not check_ds(inst, [0, 0], loose)  # one center listed twice
    line = make_instance([0, 0, 1, 1], coords=[[0], [1], [2], [3]])
    short = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    assert check_ds(line, [0, 2], short)
    assert not check_ds(line, [0], short)  # fewer than k centers


@pytest.mark.parametrize("centers", [[0, -1], [0, 7], [0.0, 1], [True, 0]])
def test_check_ds_refuses_ids_that_are_not_points(centers):
    """-1 used to read point 4's color and pass; 7 raised IndexError."""
    ds = CenterDiversitySpec((0, 0), (2, 2), 2)
    with pytest.raises(ValidationError, match=r"integer ids in \[0, 5\)"):
        check_ds(random_instance(5, 2, 1), centers, ds)


@pytest.mark.parametrize("centers, assignment", [
    ([0, -1], [0, -1, 0, -1, 0, -1]), ([0, 6], [0, 6, 0, 6, 0, 6]),
    ([0, 1.0], [0, 1.0, 0, 1.0, 0, 1.0]), ([0, 1], [0, 1, 0, True, 0, 1]),
    ([0, 1], [0, 1, 0, 1, 0]), ([0, 1], [1])])
def test_make_clustering_refuses_ids_that_are_not_points(centers, assignment):
    """Center -1 used to cost row -1 of the table, and a one-entry
    assignment was broadcast to every point."""
    inst = random_instance(6, 2, 1)
    with pytest.raises(ValidationError, match="does not fit the instance's 6 points"):
        make_clustering(inst, centers, assignment, "median")
    clustering = make_clustering(inst, np.array([1, 0]), [0, 1] * 3, "median")
    assert clustering.centers == (0, 1) and type(clustering.centers[0]) is int


def test_checkers_reject_a_spec_with_other_colors():
    """A point of color 2 under a two-color spec is not skipped: both
    checkers refuse the pair."""
    inst = line_instance([0, 1, 2], [0, 1, 2])
    clustering = make_clustering(inst, [0, 2], [0, 0, 2], "median")
    gf = GroupFairnessSpec(lower=(0, 0), upper=(1, 1))
    ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    with pytest.raises(ValidationError, match="gf spec has 2 colors, instance has 3"):
        gf_violation(inst, clustering, gf)
    with pytest.raises(ValidationError, match="ds spec has 2 colors, instance has 3"):
        check_ds(inst, clustering.centers, ds)
    wide = CenterDiversitySpec(lower=(0,) * 4, upper=(2,) * 4, k=2)
    with pytest.raises(ValidationError, match="ds spec has 4 colors"):
        check_ds(inst, clustering.centers, wide)


def test_check_ds_matches_direct_recount_and_permutation():
    rng = np.random.default_rng(13)
    for trial in range(40):
        n, m = 8, 3
        inst = make_instance(rng.integers(0, m, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=m)
        k = int(rng.integers(1, 5))
        centers = rng.choice(n, size=k, replace=False).tolist()
        lower = tuple(int(v) for v in rng.integers(0, 2, size=m))
        upper = tuple(lo + int(v) for lo, v in zip(lower, rng.integers(0, 3, size=m)))
        if not (sum(lower) <= k <= sum(upper)):
            continue
        ds = CenterDiversitySpec(lower=lower, upper=upper, k=k)
        counts = np.bincount(inst.colors[centers], minlength=m)
        expected = all(lower[h] <= counts[h] <= upper[h] for h in range(m))
        assert check_ds(inst, centers, ds) == expected
        assert check_ds(inst, list(reversed(centers)), ds) == expected


def test_feasibility_precheck():
    inst = make_instance([0, 1], coords=[[0], [1]])
    gf = exact_gf_spec(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    assert feasibility_precheck(inst, gf, ds).ok

    # 2 red points but 3 red centers required -> named failure
    names = make_instance([0, 0, 1], coords=[[0], [1], [2]],
                          color_names=("red", "blue"))
    bad_ds = CenterDiversitySpec(lower=(3, 0), upper=(3, 1), k=3)
    report = feasibility_precheck(names, exact_gf_spec(names), bad_ds)
    assert not report.ok
    assert any("insufficient points of color red" in f for f in report.failures)
    assert not any("color blue" in f for f in report.failures)

    too_many_clusters = CenterDiversitySpec(lower=(0, 0), upper=(9, 9), k=5)
    report = feasibility_precheck(names, exact_gf_spec(names), too_many_clusters)
    assert any("fewer points" in f for f in report.failures)


def test_precheck_fails_when_the_caps_cannot_reach_k():
    """Four points of color 0 of m=2 with at most one center per color hold
    no two-center set, though every lower bound and sum(U) >= k pass."""
    inst = make_instance([0, 0, 0, 0], coords=[[0], [1], [2], [3]], m=2)
    gf = GroupFairnessSpec(lower=(0, 0), upper=(1, 1))
    ds = CenterDiversitySpec(lower=(0, 0), upper=(1, 1), k=2)
    report = feasibility_precheck(inst, gf, ds)
    assert report.failures == (
        "too few points within the center-count caps: "
        "Σ min(U_h, |P_h|) = 1 < k = 2",)
    assert center_count_failures(inst, ds) == list(report.failures)
    assert not any(True for _ in diverse_center_blocks(inst, ds))


def test_precheck_tests_every_color_ratio_exactly():
    """l_h n <= |P_h| <= u_h n in exact rationals: 2 of 3 points red passes a
    window that ends at 2/3 and fails one that ends a hair below it."""
    inst = make_instance([0, 0, 1], coords=[[0], [1], [2]],
                         color_names=("red", "blue"))
    ds = CenterDiversitySpec(lower=(0, 0), upper=(1, 1), k=1)
    at_edge = GroupFairnessSpec(lower=(Fraction(2, 3), 0), upper=(1, Fraction(1, 3)))
    assert feasibility_precheck(inst, at_edge, ds).ok
    below = GroupFairnessSpec(lower=(0, Fraction(1, 3)),
                              upper=(Fraction(2, 3) - Fraction(1, 10 ** 12), 1))
    report = feasibility_precheck(inst, below, ds)
    assert report.failures == (
        "color red holds 2 of 3 points, a ratio outside its window "
        "[0, 1999999999997/3000000000000]",)
    above = GroupFairnessSpec(lower=(0, Fraction(1, 2)), upper=(1, 1))
    assert feasibility_precheck(inst, above, ds).failures == (
        "color blue holds 1 of 3 points, a ratio outside its window [1/2, 1]",)


def test_precheck_reports_ratio_failure():
    from types import SimpleNamespace
    inst = make_instance([0, 1], coords=[[0], [1]])
    ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    # the spec type itself rejects these sums, so feed the precheck a raw
    # stand-in the way a foreign config layer might
    gf = SimpleNamespace(lower=(Fraction(3, 5), Fraction(3, 5)),
                         upper=(Fraction(1), Fraction(1)), m=2)
    report = feasibility_precheck(inst, gf, ds)
    assert any("lower ratios exceed 1" in f for f in report.failures)


def test_violation_zero_iff_all_clusters_pass():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(4, 10))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst, width=Fraction(1, 3))
        centers = sorted(rng.choice(n, size=2, replace=False).tolist())
        assignment = [int(centers[rng.integers(0, 2)]) for _ in range(n)]
        for c in centers:
            assignment[c] = c
        clustering = make_clustering(inst, centers, assignment, "median")
        v = gf_violation(inst, clustering, gf)
        assert (v == 0.0) == (violation_by_definition(inst, clustering, gf) == 0)


def test_gf_violation_matches_the_fraction_rule():
    """The integer violation over one bincount equals the Fraction loop, to
    the last bit, on random clusterings under windows with denominators up
    to 97, exact GF and vacuous bounds; both refuse an empty cluster."""
    rng = np.random.default_rng(71)
    seen = {"window": 0, "exact": 0, "vacuous": 0, "empty": 0}
    for trial in range(600):
        n, m = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        inst = make_instance(rng.integers(0, m, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=m)
        kind = ("window", "exact", "vacuous")[trial % 3]
        if kind == "window":
            low, up = rng.integers(1, 98, size=m), rng.integers(1, 98, size=m)
            gf = GroupFairnessSpec(
                lower=tuple(Fraction(int(rng.integers(0, q // m + 1)), int(q)) for q in low),
                upper=tuple(Fraction(int(rng.integers(-(-q // m), q + 1)), int(q))
                            for q in up))
        else:
            gf = exact_gf_spec(inst) if kind == "exact" else window_gf(inst, width=1)
        k = int(rng.integers(1, n + 1))
        centers = rng.choice(n, size=k, replace=False)
        assignment = centers[rng.integers(0, k, size=n)]
        assignment[centers] = centers
        empty = k >= 2 and trial % 7 == 0
        if empty:  # center 0's points, itself included, go to center 1
            assignment[assignment == centers[0]] = centers[1]
        clustering = Clustering(tuple(centers.tolist()), tuple(assignment.tolist()),
                                "median", 0.0)
        if empty:
            for rule in (gf_violation, violation_by_definition):
                with pytest.raises(ValidationError, match=f"center {centers[0]} is empty"):
                    rule(inst, clustering, gf)
            seen["empty"] += 1
        else:
            assert gf_violation(inst, clustering, gf) == float(violation_by_definition(
                inst, clustering, gf))
            seen[kind] += 1
    assert min(seen.values()) >= 50 and sum(seen.values()) >= 500


def test_gf_violation_with_denominators_beyond_int64():
    """Bounds whose denominator times n overflows int64 are counted in
    Python integers, still exactly."""
    inst = line_instance([0, 1, 2, 3, 4], [0, 0, 1, 1, 1])
    tiny = Fraction(1, 3 ** 40)
    gf = GroupFairnessSpec(lower=(Fraction(1, 2) + tiny, 0), upper=(1, 1))
    clustering = make_clustering(inst, [0, 4], [0, 0, 4, 4, 4], "median")
    assert gf_violation(inst, clustering, gf) == float(Fraction(3, 2) + 3 * tiny)
    assert gf_violation(inst, clustering, gf) == float(
        violation_by_definition(inst, clustering, gf))


def test_gf_violation_refuses_a_clustering_of_another_size():
    inst = line_instance([0, 1, 2], [0, 1, 0])
    gf = exact_gf_spec(inst)
    for centers, assignment in (((0,), (0, 0)), ((0, 3), (0, 0, 3))):
        with pytest.raises(ValidationError, match="does not fit the instance's 3 points"):
            gf_violation(inst, Clustering(centers, assignment, "median", 0.0), gf)


def test_exact_gf_spec_ratios():
    inst = make_instance([0, 0, 0, 1], coords=[[0], [1], [2], [3]])
    gf = exact_gf_spec(inst)
    assert gf.lower == (Fraction(3, 4), Fraction(1, 4))
    assert gf.upper == gf.lower


def test_default_ds_profile_feasible():
    rng = np.random.default_rng(21)
    for trial in range(30):
        n = int(rng.integers(3, 14))
        m = int(rng.integers(2, 4))
        inst = make_instance(rng.integers(0, m, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=m)
        k = int(rng.integers(1, min(n, 4) + 1))
        ds = default_ds_profile(inst, k)
        counts = inst.color_counts()
        assert sum(ds.lower) == k
        assert all(ds.lower[h] <= counts[h] for h in range(m))


def test_load_fairness_spec_json(tmp_path):
    inst = make_instance([0, 0, 1, 1], coords=[[0], [1], [2], [3]])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        # the rho that specs written by older versions hold is ignored
        "gf": {"lower": [0.25, 0.25], "upper": [0.75, 0.75], "rho": 1},
        "ds": {"lower": [1, 1], "upper": [1, 1]},
        "k": 2,
    }))
    gf, ds = load_fairness_spec(str(path))
    assert gf == GroupFairnessSpec(lower=(0.25, 0.25), upper=(0.75, 0.75))
    assert gf.lower == (Fraction(1, 4), Fraction(1, 4))
    assert ds.k == 2

    path.write_text(json.dumps({
        "exact_gf": True, "ds": {"lower": [1, 1], "upper": [1, 1]}, "k": 2}))
    gf, ds = load_fairness_spec(str(path), inst)
    assert gf.lower == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("spec", [
    {"gf": {"lower": [0, 0], "upper": [1, 1]}, "ds": {"upper": [2, 2]}, "k": 2},
    {"gf": {"lower": [0, 0], "upper": [1, 1]}, "ds": {"lower": [0, 0]}, "k": 2},
    {"gf": {"upper": [1, 1]}, "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 2},
    {"gf": {"lower": [0, 0]}, "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 2},
    {"gf": {"lower": [0, 0], "upper": [1, 1]},
     "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 1.5},
    {"gf": {"lower": [0, 0], "upper": [1, 1]},
     "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": "2"},
    {"gf": {"lower": [0, 0], "upper": [1, 1]},
     "ds": {"lower": ["one", 0], "upper": [2, 2]}, "k": 2},
    {"exact_gf": True, "gf": 5, "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 2},
    {"exact_gf": "false", "gf": {"lower": [0, 0], "upper": [1, 1]},
     "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 2},
    # center counts of 0.6 and 2.7 were once truncated to 0 and 2, true read as 1
    {"gf": {"lower": [0, 0], "upper": [1, 1]},
     "ds": {"lower": [0.6, 0], "upper": [2.7, 2]}, "k": 2},
    {"gf": {"lower": [0, 0], "upper": [1, 1]},
     "ds": {"lower": [0, 0], "upper": [2.0, 2]}, "k": 2},
    {"gf": {"lower": [0, 0], "upper": [1, 1]},
     "ds": {"lower": [True, 0], "upper": [2, 2]}, "k": 2},
])
def test_load_fairness_spec_rejects_malformed_blocks(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ParseError):
        load_fairness_spec(str(path))


@pytest.mark.parametrize("value, message", [
    ("1/0", "zero denominator"), ("-3/0", "zero denominator"),
    (math.inf, "not finite"), (-math.inf, "not finite"), (math.nan, "not finite"),
    (np.float64(math.inf), "not finite"), (True, "cannot interpret"),
    (False, "cannot interpret")])
def test_ratio_bound_refuses_zero_denominators_infinities_and_bools(value, message):
    """A ratio bound of "1/0" used to end in ZeroDivisionError, an infinity
    in OverflowError, and true was read as 1."""
    with pytest.raises(ValidationError, match=message):
        as_fraction(value)
    spec = {"gf": {"lower": [0, 0], "upper": [value, 1]},
            "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 2}
    with pytest.raises(ValidationError, match=message):
        load_fairness_spec(spec)
    assert as_fraction("3/4") == as_fraction(0.75) == Fraction(3, 4)


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_load_fairness_spec_reads_exact_gf_as_a_json_boolean(flag):
    """"exact_gf": "false" used to turn exact GF on and drop the gf block."""
    inst = make_instance([0, 0, 1, 1], coords=[[0], [1], [2], [3]])
    spec = {"gf": {"lower": [0, 0], "upper": [1, 1]},
            "ds": {"lower": [1, 1], "upper": [1, 1]}, "k": 2}
    with pytest.raises(ParseError, match="'exact_gf' must be true or false"):
        load_fairness_spec({**spec, "exact_gf": flag}, inst)
    window = GroupFairnessSpec(lower=(0, 0), upper=(1, 1))
    assert load_fairness_spec(spec, inst)[0] == window
    assert load_fairness_spec({**spec, "exact_gf": False}, inst)[0] == window
    assert load_fairness_spec({**spec, "exact_gf": True}, inst)[0] == exact_gf_spec(inst)


def test_clustering_validation_and_roundtrip():
    inst = four_point_inst()
    with pytest.raises(ValidationError, match="non-center"):
        Clustering(centers=(0,), assignment=(0, 1, 0, 0), objective="center",
                   cost=1.0)
    clus = make_clustering(inst, [0, 3], [0, 0, 3, 3], "means")
    again = Clustering.from_dict(json.loads(json.dumps(clus.to_dict())))
    assert again == clus
    # cost: d(0,1)^2 + d(3,2)^2 = 1 + 1
    assert clus.cost == pytest.approx(2.0)


@pytest.mark.parametrize("key", ["centers", "assignment"])
@pytest.mark.parametrize("value", [True, 1.0])
def test_clustering_json_ids_must_be_integers(key, value):
    """Set membership reads true and 1.0 as center 1, so a clustering read
    from JSON once passed with them; an id must be an int."""
    obj = {"centers": [0, 1], "assignment": [0, 1, 0, 1], "objective": "median",
           "cost": 1.0}
    obj[key] = obj[key][:-1] + [value]
    with pytest.raises(ParseError, match=f"{key} entry {value!r} is not an integer id"):
        Clustering.from_dict(obj)


def test_point_costs_and_objective_value_match_the_formulas():
    d = np.array([0.5, 2.0, 0.0, 1.5])
    assert np.array_equal(point_costs(d, "center"), d)
    assert np.array_equal(point_costs(d, "median"), d)
    assert np.array_equal(point_costs(d, "means"), d ** 2)
    assert objective_value(d, "center") == d.max()
    assert objective_value(d, "median") == d.sum()
    assert objective_value(d, "means") == (d ** 2).sum()
    for call in (point_costs, objective_value):
        with pytest.raises(ValidationError, match="unknown objective 'radius'"):
            call(d, "radius")


def _diverse_center_sets(inst, ds):
    """The rows of ``diverse_center_blocks``, in order, as tuples."""
    return [tuple(row) for sets in diverse_center_blocks(inst, ds)
            for row in sets.tolist()]


def test_diverse_center_sets_are_the_check_ds_passing_combinations():
    inst = line_instance(range(7), [0, 1, 2, 0, 1, 0, 2])
    grid = 0
    for k in (1, 2, 3, 4):
        for lower in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (2, 0, 0)):
            for upper in ((k, k, k), (2, 1, 1), (3, 1, 2)):
                try:
                    ds = CenterDiversitySpec(lower=lower, upper=upper, k=k)
                except ValidationError:
                    continue
                grid += 1
                expected = [c for c in combinations(range(inst.n), k)
                            if check_ds(inst, c, ds)]
                assert _diverse_center_sets(inst, ds) == expected
    assert grid >= 20
    with pytest.raises(ValidationError, match="ds spec has 2 colors"):
        next(diverse_center_blocks(inst, CenterDiversitySpec((0, 0), (2, 2), k=2)))


def test_diverse_center_sets_across_a_block_boundary(monkeypatch):
    """With 1 << 14 cells a block holds 204 combinations at n=20, k=4, so the
    C(20, 4) = 4845 of them span many blocks; the blocks' rows, in order,
    are the sets of the per-set filter."""
    monkeypatch.setattr(constraints, "GATHER_CELLS", 1 << 14)
    inst = random_instance(20, 3, seed=8)
    combos = list(combinations(range(inst.n), 4))
    assert len(combos) > (1 << 14) // (4 * inst.n)
    for ds in (default_ds_profile(inst, 4),
               CenterDiversitySpec(lower=(0, 1, 0), upper=(2, 3, 4), k=4),
               CenterDiversitySpec(lower=(0, 0, 0), upper=(4, 4, 4), k=4)):
        expected = [c for c in combos if check_ds(inst, c, ds)]
        assert _diverse_center_sets(inst, ds) == expected


@pytest.mark.parametrize("n, k, cells", [(300, 2, GATHER_CELLS), (10, 2, 16)])
def test_a_block_holds_at_most_gather_cells_over_k_n_sets(monkeypatch, n, k, cells):
    """Scoring a block gathers at most ``GATHER_CELLS`` distances, and at
    least one set when k n exceeds it; with every set accepted, every
    block but the last is full."""
    monkeypatch.setattr(constraints, "GATHER_CELLS", cells)
    inst = random_instance(n, 2, seed=5)
    rows = max(1, cells // (k * n))
    sizes = [len(sets) for sets in diverse_center_blocks(
        inst, CenterDiversitySpec(lower=(0, 0), upper=(k, k), k=k))]
    assert sum(sizes) == math.comb(n, k)
    assert len(sizes) >= 2
    assert sizes[:-1] == [rows] * (len(sizes) - 1) and sizes[-1] <= rows
