import io
import json
import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairclus import (CenterDiversitySpec, ContractViolationError,
                      ExactBackend, GreedyBackend,
                      GroupFairnessSpec, InfeasibleError, PipelineError,
                      ValidationError, build_gf_feasibility_lp, check_ds,
                      default_ds_profile, exact_gf_spec, feasibility_precheck,
                      gf_violation,
                      guarantee_factor, make_instance, means_pq,
                      random_instance, solve, solve_lp)
from fairclus import lp as lp_module
from fairclus import pipeline
from fairclus.flow import extract_assignment
from fairclus.instance import EPS_D
from fairclus.lp import (RESIDUAL_TOL, LambdaSearchResult, counting_bound_index,
                         dump_lp_text)
from fairclus.oracle import brute_force_doubly_fair

from conftest import (balanced_instance, line_instance, rerouting_certificate,
                      vacuous_gf, window_gf)
from reference_lp import solve_dense_reference, solve_full_lp


def test_two_point_trivial():
    inst = line_instance([0, 1], [0, 1])
    gf = GroupFairnessSpec(lower=(0, 0), upper=(1, 1))
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    clustering, report = solve(inst, gf, ds, "center")
    assert clustering.centers == (0, 1)
    assert report.cost == 0.0
    assert report.gf_violation == 0.0
    assert report.ds_satisfied


def test_guarantee_factor_published_values():
    assert guarantee_factor("center", 3.0) == pytest.approx(4.0, abs=1e-9)
    assert guarantee_factor("median", 7.081) == pytest.approx(10.081, abs=1e-9)
    expected_means = 291.0 + 2.0 * math.sqrt(290.0)
    assert guarantee_factor("means", 256.0) == pytest.approx(expected_means, abs=1e-9)
    assert expected_means == pytest.approx(325.06, abs=0.01)
    # algebraic cross-check of the closed form at alpha = 256
    assert (math.sqrt(1 + 17 ** 2) + 1) ** 2 == pytest.approx(expected_means, abs=1e-9)
    # the exact backend's factors
    assert guarantee_factor("center", 1.0) == 2.0
    assert guarantee_factor("median", 1.0) == 4.0
    assert guarantee_factor("means", 1.0) == pytest.approx(
        (math.sqrt(5.0) + 1.0) ** 2, abs=1e-12)
    with pytest.raises(ValidationError):
        guarantee_factor("center", 0.5)


def test_means_pq_choice():
    p_sq, q_sq = means_pq(1.0)
    assert p_sq == pytest.approx(math.sqrt(5.0))
    assert q_sq == 1.0
    p_sq, q_sq = means_pq(256.0)
    assert q_sq == 16.0
    assert p_sq == pytest.approx(math.sqrt(1 + 17 ** 2))


def test_pipeline_invariants_all_objectives():
    rng = np.random.default_rng(71)
    for trial in range(6):
        n = int(rng.integers(6, 11))
        inst = random_instance(n, 2, seed=int(rng.integers(0, 10 ** 6)))
        gf = exact_gf_spec(inst)
        counts = inst.color_counts()
        lower = tuple(min(1, int(c)) for c in counts)
        k = 2
        if sum(lower) > k:
            lower = (0, 0)
        ds = CenterDiversitySpec(lower=lower, upper=(k, k), k=k)
        for objective in ("center", "median", "means"):
            artifacts = {}
            clustering, report = solve(inst, gf, ds, objective,
                                       artifacts=artifacts)
            assert check_ds(inst, clustering.centers, ds)
            assert report.gf_violation <= 2.0 + 1e-9
            assert report.min_cluster_size >= 1
            assert gf_violation(inst, clustering, gf) == pytest.approx(
                report.gf_violation)
            cert = rerouting_certificate(inst, gf, k, objective, artifacts)
            if objective == "center":
                assert report.cost <= report.lam + 1e-9
                assert report.lam <= cert.support_radius <= cert.radius_cap + 1e-9
                assert report.cost <= 2.0 * cert.lam + 1e-9
            else:
                assert report.cost <= report.assignment_lp_cost + 1e-6
                assert report.assignment_lp_cost <= cert.rerouted_cost + 1e-6
                assert cert.rerouted_cost <= cert.rerouted_cost_bound + 1e-6


def test_center_lambda_below_oracle_opt():
    done = 0
    for seed in range(12):
        inst = balanced_instance(8, 2, seed=seed)
        gf = window_gf(inst)
        ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
        try:
            opt = brute_force_doubly_fair(inst, gf, ds, "center")
        except InfeasibleError:
            continue
        artifacts = {}
        clustering, report = solve(inst, gf, ds, "center", artifacts=artifacts)
        done += 1
        assert rerouting_certificate(inst, gf, 2, "center", artifacts).lam \
            <= opt.cost + 1e-9
        assert report.cost <= 2.0 * opt.cost + 1e-6
    assert done >= 8


def test_medmeans_ratio_against_oracle():
    done = 0
    for seed in range(10):
        inst = balanced_instance(7, 2, seed=100 + seed)
        gf = window_gf(inst)
        ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
        for objective, factor in (("median", 4.0),
                                  ("means", (math.sqrt(5.0) + 1.0) ** 2)):
            try:
                opt = brute_force_doubly_fair(inst, gf, ds, objective)
            except InfeasibleError:
                continue
            clustering, report = solve(inst, gf, ds, objective)
            done += 1
            assert report.cost <= factor * opt.cost + 1e-6
    assert done >= 10


def test_with_oracle_report_fields():
    inst = balanced_instance(8, 2, seed=5)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    clustering, report = solve(inst, gf, ds, "center", with_oracle=True)
    assert report.oracle_cost is not None
    assert report.oracle_ratio == pytest.approx(report.cost / report.oracle_cost)
    assert report.oracle_ratio <= guarantee_factor("center", 1.0) + 1e-6


def test_oracle_infeasible_noted_in_report():
    inst = line_instance([0, 1, 2, 3, 4], [0, 0, 0, 1, 1])
    gf = exact_gf_spec(inst)  # indivisible exact ratios: no zero-violation split
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    clustering, report = solve(inst, gf, ds, "center", with_oracle=True)
    assert report.oracle_cost is None
    assert "no zero-violation" in report.oracle_note


def test_determinism_byte_identical_reports():
    inst = random_instance(9, 2, seed=77)
    gf = exact_gf_spec(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(2, 2), k=2)
    blobs = []
    for _ in range(2):
        clustering, report = solve(inst, gf, ds, "median")
        payload = report.to_dict()
        payload.pop("timings")
        blobs.append((json.dumps(payload, sort_keys=True),
                      json.dumps(clustering.to_dict(), sort_keys=True)))
    assert blobs[0] == blobs[1]


def test_precheck_failure_raises_infeasible():
    inst = line_instance([0, 1, 2], [0, 0, 1])
    gf = exact_gf_spec(inst)
    ds = CenterDiversitySpec(lower=(3, 0), upper=(3, 1), k=3)
    with pytest.raises(InfeasibleError) as exc_info:
        solve(inst, gf, ds, "center")
    assert any("insufficient" in reason for reason in exc_info.value.diagnosis)


def test_broken_backend_aborts_pipeline():
    class ShortBackend:
        backend_id = "short"

        def solve_raw(self, inst, ds, objective):
            return tuple(range(ds.k - 1)), None

    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = vacuous_gf(2)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    with pytest.raises(ContractViolationError):
        solve(inst, gf, ds, "center", backend=ShortBackend())


def test_backend_repeating_a_center_aborts_pipeline():
    class RepeatingBackend:
        backend_id = "repeats"

        def solve_raw(self, inst, ds, objective):
            return (0, 0, 3), None  # two distinct ids, listed three times

    inst = line_instance([0, 1, 2, 3, 4, 5], [0, 0, 0, 1, 1, 1])
    gf = vacuous_gf(2)
    ds = CenterDiversitySpec(lower=(2, 0), upper=(2, 2), k=2)
    with pytest.raises(ContractViolationError, match="'repeats' returned 3 centers"):
        solve(inst, gf, ds, "center", backend=RepeatingBackend())


def test_claimed_alpha_three_reports_factor_four():
    class ClaimsThree:
        backend_id = "claims3"

        def solve_raw(self, inst, ds, objective):
            return ExactBackend().solve_raw(inst, ds, objective)[0], 3.0

    inst = balanced_instance(8, 2, seed=11)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    clustering, report = solve(inst, gf, ds, "center", backend=ClaimsThree())
    assert report.alpha == 3.0
    assert report.guaranteed_factor == pytest.approx(4.0)
    assert report.gf_violation <= 2.0 + 1e-9


def test_greedy_backend_reports_no_factor():
    inst = balanced_instance(10, 2, seed=13)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(2, 2), k=2)
    clustering, report = solve(inst, gf, ds, "center", backend=GreedyBackend())
    assert report.alpha is None
    assert report.guaranteed_factor is None
    assert report.ds_satisfied
    assert report.gf_violation <= 2.0 + 1e-9


def test_all_points_colocated_cost_zero():
    inst = make_instance([0, 1, 0, 1], coords=[[0.0, 0.0]] * 4)
    gf = exact_gf_spec(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    for objective in ("median", "means"):
        clustering, report = solve(inst, gf, ds, objective)
        assert report.cost == pytest.approx(0.0, abs=1e-9)


def test_report_serializes_to_json():
    inst = balanced_instance(6, 2, seed=21)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    _, report = solve(inst, gf, ds, "means", with_oracle=True)
    text = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(text)
    assert parsed["objective"] == "means"
    # exact backend: alpha = 1, p^2 = sqrt(5), factor (p^2 + 1)^2
    assert parsed["guaranteed_factor"] == pytest.approx((math.sqrt(5.0) + 1.0) ** 2)
    assert parsed["cost"] <= parsed["assignment_lp_cost"] + 1e-9


def _fixed_center_scan(inst, gf, centers):
    """Every fixed-center candidate radius from the nearest-assignment radius
    up, each with the feasibility of the dense per-point model there."""
    dc = inst.distance_matrix()[list(centers)]
    radii = np.unique(dc)
    radii = radii[radii >= dc.min(axis=0).max()]
    return [(float(r), solve_dense_reference(inst, gf, centers, float(r)) is not None)
            for r in radii]


def test_kcenter_with_feasible_nearest_radius_solves_one_lp(monkeypatch):
    inst = random_instance(20, 2, seed=3)
    gf = exact_gf_spec(inst)
    ds = default_ds_profile(inst, 4)
    clustering, first = solve(inst, gf, ds, "center", backend=GreedyBackend())
    # precondition: the LP is feasible at the nearest-assignment radius
    assert dict(_fixed_center_scan(inst, gf, clustering.centers))[first.ds_cost]

    objectives = _count_lp_solves(monkeypatch)
    _, report = solve(inst, gf, ds, "center", backend=GreedyBackend())
    assert len(objectives) == 1
    assert report.lam == report.ds_cost


def test_kcenter_matches_full_search_and_fresh_solve(monkeypatch):
    """Searching only the radii that pass the counting bound and reusing the
    winning probe gives the clustering of a linear scan over the distances
    from the centers plus a fresh LP at its radius."""
    _match_full_search_and_fresh_solve(monkeypatch)


def test_kcenter_without_the_bound_matches_full_search_and_fresh_solve(
        monkeypatch):
    """The same with every distance from the centers searched: the winning
    probe is then found by binary search above the first."""
    monkeypatch.setattr(lp_module, "counting_bound_index", lambda *args: 0)
    _match_full_search_and_fresh_solve(monkeypatch)


def _match_full_search_and_fresh_solve(monkeypatch):
    above_ds = []

    def full_scan_then_fresh_solve(inst, gf, centers):
        scan = _fixed_center_scan(inst, gf, centers)
        radius = next(r for r, feasible in scan if feasible)
        candidates = np.unique(inst.distance_matrix()[list(centers)])
        start = lp_module.counting_bound_index(inst, gf, centers, candidates)
        assert radius in candidates[start:]  # the bound skips no feasible radius
        model = build_gf_feasibility_lp(inst, gf, centers, radius)
        return LambdaSearchResult(radius, model, solve_lp(model))

    def outcome(clustering, report):
        fields = report.to_dict()
        fields.pop("timings")
        return clustering.to_dict(), fields

    for seed in range(4):
        for n, m, k in ((8, 2, 2), (9, 3, 3), (10, 2, 3)):
            inst = balanced_instance(n, m, seed)
            gf = exact_gf_spec(inst)
            ds = default_ds_profile(inst, k)
            for backend in (ExactBackend(), GreedyBackend()):
                got = solve(inst, gf, ds, "center", backend=backend)
                with monkeypatch.context() as patch:
                    patch.setattr(pipeline, "min_feasible_lambda",
                                  full_scan_then_fresh_solve)
                    want = solve(inst, gf, ds, "center", backend=backend)
                assert got[1].cost <= got[1].lam + 1e-9
                assert outcome(*got) == outcome(*want)
                above_ds.append(want[1].lam > want[1].ds_cost)
    assert any(above_ds) and not all(above_ds)


def test_kcenter_lp_dump_is_the_model_at_lam():
    inst = balanced_instance(8, 2, seed=1)
    gf = exact_gf_spec(inst)
    ds = default_ds_profile(inst, 2)
    artifacts = {}
    clustering, report = solve(inst, gf, ds, "center", artifacts=artifacts)
    dumped = io.StringIO()
    dump_lp_text(artifacts["lp_model"], dumped)
    text = dumped.getvalue()
    centers = ",".join(map(str, clustering.centers))
    assert f" radius_cap={report.lam} centers={centers} " in text.splitlines()[0]
    fresh = io.StringIO()
    dump_lp_text(build_gf_feasibility_lp(inst, gf, clustering.centers, report.lam),
                 fresh)
    assert text == fresh.getvalue()


def test_timings_time_the_precheck_apart_from_ds():
    inst = balanced_instance(6, 2, seed=21)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    for objective in ("center", "median", "means"):
        for with_oracle, extra in ((False, set()), (True, {"oracle"})):
            _, report = solve(inst, gf, ds, objective, with_oracle=with_oracle)
            timings = report.timings
            assert {"precheck", "ds", "lp", "flow", "total"} | extra == set(timings)
            assert timings["precheck"] + timings["ds"] <= timings["total"]


@pytest.mark.parametrize("inst", [
    make_instance([0, 1, 0, 1, 0, 1], coords=[[2.0, 3.0]] * 6),
    make_instance([0, 1, 1, 0, 0, 1, 1, 0],
                  coords=[[0.0], [0.0], [1.0], [1.0], [1.0], [3.0], [3.0], [4.0]]),
    make_instance([0, 0, 1, 1, 0, 1], dist=1.0 - np.eye(6)),
], ids=["colocated", "duplicates-on-a-line", "equidistant"])
def test_kcenter_radius_search_on_ties_and_duplicates(inst):
    gf = exact_gf_spec(inst)
    for k in (2, 3):
        ds = default_ds_profile(inst, k)
        for backend in (ExactBackend(), GreedyBackend()):
            clustering, report = solve(inst, gf, ds, "center", backend=backend)
            scan = _fixed_center_scan(inst, gf, clustering.centers)
            assert report.lam == next(r for r, feasible in scan if feasible)
            assert report.cost <= report.lam + 1e-9
            assert report.gf_violation <= 2.0 + 1e-9
            if inst.distance_matrix().max() == 0.0:
                assert report.lam == 0.0 and report.cost == 0.0


def test_kcenter_hands_highs_only_fixed_center_models(monkeypatch):
    """A radius probe has a column per point and center it reaches under
    the cap but its pivot: sum_j (reach(j) - 1) columns. The LP solver gets
    one LP with those columns, or none if there are none."""
    objectives = _count_lp_solves(monkeypatch)
    models = []
    for module in (lp_module, pipeline):
        def recording(model, *args, _solve=module.solve_lp):
            models.append(model)
            before = len(objectives)
            sol = _solve(model, *args)
            reach = inst.distance_matrix()[model.centers] <= model.lam * (1 + EPS_D)
            columns = int(np.maximum(reach.sum(axis=0) - 1, 0).sum())
            assert model.ncols == columns
            assert [c.size for c in objectives[before:]] == ([columns] if columns else [])
            return sol
        monkeypatch.setattr(module, "solve_lp", recording)
    for n, m, k in ((8, 2, 2), (12, 3, 3), (20, 2, 4), (30, 2, 4)):
        inst = random_instance(n, m, seed=n)
        gf, ds = exact_gf_spec(inst), default_ds_profile(inst, k)
        for backend in (ExactBackend(), GreedyBackend()):
            objectives.clear()
            models.clear()
            clustering, report = solve(inst, gf, ds, "center", backend=backend)
            assert len(models) >= max(1, len(objectives))
            radii = [model.lam for model in models]
            assert len(radii) == len(set(radii))  # no radius probed twice
            assert report.lam in radii
            for model in models:
                assert model.centers.tolist() == list(clustering.centers)
                assert model.ncols <= k * n
                assert model.lam is not None


def _count_lp_solves(monkeypatch):
    """Cost vectors of the LPs handed to the LP-solver entry
    ``lp._solve_columns`` (the simplex or HiGHS), in call order."""
    objectives = []
    solve_columns = lp_module._solve_columns

    def counting(model, *args):
        objectives.append(model.c)
        return solve_columns(model, *args)

    monkeypatch.setattr(lp_module, "_solve_columns", counting)
    return objectives


def test_medmeans_solves_one_assignment_lp(monkeypatch):
    """On instances whose nearest assignment to the diverse centers breaks a
    ratio row, each cost solve hands the LP solver one LP, with a column per
    center and point but each point's nearest center."""
    objectives = _count_lp_solves(monkeypatch)
    for n, m, k, seed in ((8, 2, 2, 9), (12, 3, 3, 12), (20, 2, 4, 20)):
        inst = random_instance(n, m, seed=seed)
        gf, ds = exact_gf_spec(inst), default_ds_profile(inst, k)
        for objective in ("median", "means"):
            objectives.clear()
            artifacts = {}
            clustering, report = solve(inst, gf, ds, objective, artifacts=artifacts)
            assert len(objectives) == 1
            # one x_ij per center and point, but each point's nearest center
            assert objectives[0].size == (k - 1) * n
            assert "rerouted" not in artifacts and "plan" not in artifacts
            sol = artifacts["lp_solution"]
            assert sol.rows.tolist() == list(clustering.centers)
            assert sol.x.sum(axis=1).min() >= 1.0 - 1e-6


def test_rounding_calls_no_highs(monkeypatch):
    """A median solve hands the LP solver its one LP and nothing else: the
    flow module binds nothing from scipy.optimize."""
    from fairclus import flow
    assert not hasattr(flow, "milp") and not hasattr(flow, "linprog")
    assert not [name for name, value in vars(flow).items()
                if getattr(value, "__module__", "").startswith("scipy.optimize")]
    objectives = _count_lp_solves(monkeypatch)
    inst = random_instance(20, 2, seed=20)
    artifacts = {}
    solve(inst, exact_gf_spec(inst), default_ds_profile(inst, 4), "median",
          artifacts=artifacts)
    assert len(objectives) == 1
    # the solve had points to route, so the flow did run
    assert np.bincount(artifacts["net"].arcs[:, 1]).max() > 1


def _record_model_centers(monkeypatch):
    """The centers of every LP model built, in build order."""
    built = []
    build = lp_module._build

    def recording(*args, **kwargs):
        model = build(*args, **kwargs)
        built.append(model.centers.tolist())
        return model

    monkeypatch.setattr(lp_module, "_build", recording)
    return built


def test_production_path_is_k_by_n(monkeypatch):
    """The LP solution is a k x n table over the centers, the rounding an
    assignment of the n points to them through k(m + 1) windows, and every
    model built is over those centers."""
    built = _record_model_centers(monkeypatch)
    for n, m, k in ((8, 2, 2), (12, 3, 3), (20, 2, 4)):
        inst = random_instance(n, m, seed=n)
        gf, ds = exact_gf_spec(inst), default_ds_profile(inst, k)
        for objective in ("center", "median", "means"):
            artifacts = {}
            built.clear()
            clustering, _ = solve(inst, gf, ds, objective, artifacts=artifacts)
            sol, net = artifacts["lp_solution"], artifacts["net"]
            assignment = extract_assignment(artifacts["flows"], net)
            assert sol.x.shape == (k, n) and assignment.shape == (n,)
            assert assignment.tolist() == list(clustering.assignment)
            assert net.lower.shape == net.upper.shape == (k * (m + 1),)
            assert net.arc_rows.shape == (len(net.arcs), 2)
            assert sol.rows.tolist() == list(net.centers) == list(clustering.centers)
            assert built and all(centers == list(clustering.centers)
                                 for centers in built)


@pytest.mark.parametrize("objective", ["center", "median", "means"])
def test_a_count_outside_its_window_is_a_flow_failure(monkeypatch, objective):
    """The clustering's color counts meet the flow's windows before the cost
    and GF checks: with every window tight, point 0 moved to the other
    center after the flow leaves its color short at its own center, a
    ``flow`` failure that names the row."""
    inst = line_instance([0, 1, 10, 11], [0, 1, 0, 1])
    gf, ds = exact_gf_spec(inst), default_ds_profile(inst, 2)
    artifacts = {}
    clustering, _ = solve(inst, gf, ds, objective, artifacts=artifacts)
    net = artifacts["net"]
    assert np.array_equal(net.lower, net.upper)
    center = clustering.assignment[0]
    extract = pipeline.extract_assignment

    def moved(flows, net):
        assignment = extract(flows, net)
        assignment[0] = next(c for c in net.centers if c != center)
        return assignment

    monkeypatch.setattr(pipeline, "extract_assignment", moved)
    with pytest.raises(PipelineError, match=rf"row ch_{center}_0 counts 0 points, "
                                            r"outside \[1, 1\]") as info:
        solve(inst, gf, ds, objective)
    assert info.value.stage == "flow"


def test_solve_counts_each_cluster_once(monkeypatch):
    """One table of cluster color counts per solve serves the window check
    and the GF check, on every objective."""
    counted, checked = [], []
    count, check = pipeline.cluster_color_counts, pipeline.check_mass_windows
    violation = pipeline.gf_violation_of_counts
    monkeypatch.setattr(pipeline, "cluster_color_counts",
                        lambda *args: counted.append(count(*args)) or counted[-1])
    monkeypatch.setattr(pipeline, "check_mass_windows",
                        lambda counts, net: checked.append(counts) or check(counts, net))
    monkeypatch.setattr(pipeline, "gf_violation_of_counts",
                        lambda counts, gf: checked.append(counts) or violation(counts, gf))
    inst = random_instance(12, 2, seed=12)
    gf, ds = exact_gf_spec(inst), default_ds_profile(inst, 3)
    for objective in ("center", "median", "means"):
        counted.clear()
        checked.clear()
        solve(inst, gf, ds, objective)
        assert len(counted) == 1, objective
        assert len(checked) == 2 and all(counts is counted[0] for counts in checked), objective


def test_means_refuses_squared_distances_that_overflow(monkeypatch):
    """A means instance whose largest squared distance is not finite is
    refused before any stage runs, and by the oracle."""
    def no_stage(*args):
        raise AssertionError("a stage ran")

    inst = make_instance([0, 1, 0, 1], coords=[[0.0], [1e155], [2e155], [3e155]])
    gf = GroupFairnessSpec(lower=(0, 0), upper=(1, 1))
    ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    monkeypatch.setattr(pipeline, "feasibility_precheck", no_stage)
    monkeypatch.setattr(pipeline, "solve_ds_plugin", no_stage)
    with pytest.raises(ValidationError, match="overflows when squared"):
        solve(inst, gf, ds, "means")
    with pytest.raises(ValidationError, match="overflows when squared"):
        brute_force_doubly_fair(inst, gf, ds, "means")


@pytest.mark.parametrize("objective, far", [("means", 1.2e154), ("median", 1e308)])
def test_cost_sums_that_overflow_are_refused(monkeypatch, objective, far):
    """8 points alternating at 0 and ``far``: each point cost is finite, but
    8 times the largest is not, so a sum of costs could overflow. Solve
    and oracle refuse the instance before any stage runs, with no
    RuntimeWarning; once this read as a false infeasible verdict. Center,
    whose objective is a max, solves it."""
    def no_stage(*args):
        raise AssertionError("a stage ran")

    inst = make_instance([0, 1] * 4, coords=[[0.0], [far]] * 4)
    gf = GroupFairnessSpec(lower=(0, 0), upper=(1, 1))
    ds = CenterDiversitySpec(lower=(0, 0), upper=(1, 1), k=1)
    with monkeypatch.context() as patched, warnings.catch_warnings():
        warnings.simplefilter("error")
        patched.setattr(pipeline, "feasibility_precheck", no_stage)
        patched.setattr(pipeline, "solve_ds_plugin", no_stage)
        message = f"{objective} costs overflow: 8 points times the largest point cost"
        with pytest.raises(ValidationError, match=message):
            solve(inst, gf, ds, objective)
        with pytest.raises(ValidationError, match=message):
            brute_force_doubly_fair(inst, gf, ds, objective)
    _, report = solve(inst, gf, ds, "center")
    assert report.cost == far


def test_ratio_window_failure_is_found_by_the_precheck(monkeypatch):
    """Color 0 is half the points but at most a third of any cluster: the
    precheck's exact ratio test rejects the input before any backend or LP
    runs."""
    inst = line_instance([0, 1, 2, 3, 4, 5], [0, 0, 0, 1, 1, 1])
    gf = GroupFairnessSpec(lower=(0, 0), upper=(Fraction(1, 3), 1))
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    objectives = _count_lp_solves(monkeypatch)
    backends = []
    monkeypatch.setattr(pipeline, "solve_ds_plugin",
                        lambda *args: backends.append(args))
    for objective in ("center", "median", "means"):
        with pytest.raises(InfeasibleError, match="feasibility prechecks") as exc_info:
            solve(inst, gf, ds, objective)
        assert exc_info.value.diagnosis == [
            "color 0 holds 3 of 6 points, a ratio outside its window [0, 1/3]"]
    assert objectives == [] and backends == []


def test_infeasible_fixed_center_programs_have_no_solution():
    """An input the precheck's ratio test rejects, handed straight to the
    LPs over fixed centers: the median and means programs have no solution,
    and the k-center radius search finds no radius."""
    inst = line_instance([0, 1, 2, 3, 4, 5], [0, 0, 0, 1, 1, 1])
    gf = GroupFairnessSpec(lower=(0, 0), upper=(Fraction(1, 3), 1))
    centers = (0, 3)
    for objective in ("median", "means"):
        assert solve_lp(lp_module.build_gf_objective_lp(
            inst, gf, centers, objective)) is None
    assert lp_module.min_feasible_lambda(inst, gf, centers) is None


def test_kcenter_with_no_radius_passing_the_bound_solves_only_the_full_lp(
        monkeypatch):
    """Color 0 is half the points but at most a third of any cluster. With
    the precheck bypassed, no radius from any two centers of distinct colors
    passes the counting bound, so the k-center path solves no LP and
    reports a broken pipeline. The one LP that decides the input is the
    full LP (the reference's, n^2 + n columns), infeasible at the largest
    radius, as the precheck's exact ratio test says."""
    inst = line_instance([0, 1, 2, 3, 4, 5], [0, 0, 0, 1, 1, 1])
    gf = GroupFairnessSpec(lower=(0, 0), upper=(Fraction(1, 3), 1))
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    assert not feasibility_precheck(inst, gf, ds).ok
    for a in (0, 1, 2):
        for b in (3, 4, 5):
            radii = np.unique(inst.distance_matrix()[[a, b]])
            assert counting_bound_index(inst, gf, (a, b), radii) == radii.size
    monkeypatch.setattr(pipeline, "_require_precheck", lambda *args: None)
    objectives = _count_lp_solves(monkeypatch)
    with pytest.raises(PipelineError, match="fixed-center") as exc_info:
        solve(inst, gf, ds, "center")
    assert exc_info.value.stage == "lp"
    assert objectives == []
    largest = float(inst.distance_matrix().max())
    assert solve_full_lp(inst, gf, 2, largest, None) is None


def test_fixed_center_lp_without_a_solution_is_a_pipeline_error(monkeypatch):
    """Once the precheck passes, the fixed-center LP is feasible; if it
    returns no solution anyway, the pipeline is broken, and no full LP is
    built to say otherwise."""
    inst = random_instance(6, 2, seed=1)
    gf, ds = exact_gf_spec(inst), default_ds_profile(inst, 2)
    built = _record_model_centers(monkeypatch)
    for module in (lp_module, pipeline):
        monkeypatch.setattr(module, "solve_lp", lambda *args: None)
    for objective in ("center", "median", "means"):
        built.clear()
        with pytest.raises(PipelineError, match="fixed-center") as exc_info:
            solve(inst, gf, ds, objective)
        assert exc_info.value.stage == "lp"
        assert built and all(len(centers) == ds.k for centers in built)


def test_kcenter_radius_is_never_below_the_diverse_cost():
    """A distance one ulp below the nearest-assignment radius lies within
    EPS_D of it, so every point reaches a center there and the program at
    it is feasible; the search still starts at the nearest-assignment
    radius."""
    near, below = 0.1 + 0.2, 0.3  # 0.30000000000000004 and 0.3
    dist = np.array([[0.0, 1.0, near, 1.0],
                     [1.0, 0.0, 1.0, below],
                     [near, 1.0, 0.0, 1.0],
                     [1.0, below, 1.0, 0.0]])
    inst = make_instance([0, 1, 0, 1], dist=dist)
    gf = vacuous_gf(2)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    assert solve_lp(build_gf_feasibility_lp(inst, gf, (0, 1), below)) is not None
    clustering, report = solve(inst, gf, ds, "center")
    assert tuple(clustering.centers) == (0, 1)
    assert report.ds_cost == near
    assert report.lam == near


def test_kcenter_counting_bound_pins_a_radius_above_the_diverse_cost(monkeypatch):
    """The search's radius lies above the nearest-assignment radius, where a
    binary search over LP probes needs several; the counting bound pins it,
    so one LP is solved."""
    inst = random_instance(12, 2, seed=0)
    gf, ds = exact_gf_spec(inst), default_ds_profile(inst, 3)
    objectives = _count_lp_solves(monkeypatch)
    clustering, report = solve(inst, gf, ds, "center", backend=GreedyBackend())
    assert len(objectives) == 1
    assert report.lam > report.ds_cost
    scan = _fixed_center_scan(inst, gf, clustering.centers)
    assert report.lam == next(r for r, feasible in scan if feasible)


def _gf_of_kind(kind, inst):
    if kind == "exact":
        return exact_gf_spec(inst)
    if kind == "window":
        return window_gf(inst)
    if kind == "lower-only":
        return GroupFairnessSpec(lower=[s / 2 for s in exact_gf_spec(inst).lower],
                                 upper=(1,) * inst.m)
    return GroupFairnessSpec(lower=(0,) * inst.m, upper=(0,) + (1,) * (inst.m - 1))


@st.composite
def _bound_cases(draw):
    n = draw(st.integers(6, 14))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    layout = draw(st.sampled_from(["uniform", "grid", "colocated"]))
    if layout == "uniform":
        coords = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                               min_size=n, max_size=n))
    elif layout == "grid":  # duplicate points and tied distances
        coords = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                               min_size=n, max_size=n))
    else:
        coords = [(0.5, 0.5)] * n
    inst = make_instance(colors, coords=np.array(coords, dtype=float), m=m)
    kinds = ["exact", "window", "lower-only"] + (["u0-zero"] if m > 1 else [])
    gf = _gf_of_kind(draw(st.sampled_from(kinds)), inst)
    centers = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                            unique=True))
    return inst, gf, sorted(centers), draw(st.booleans())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_bound_cases())
def test_counting_bound_never_passes_the_first_feasible_radius(case):
    """The bound's radius is never above the linear scan's, with every set
    of centers tested or only the 2k + 1 sets used above _ALL_SETS_MAX_K."""
    inst, gf, centers, few_sets = case
    scan = _fixed_center_scan(inst, gf, centers)
    first = next((idx for idx, (_, feasible) in enumerate(scan) if feasible),
                 len(scan))
    with pytest.MonkeyPatch.context() as patch:
        if few_sets:
            patch.setattr(lp_module, "_ALL_SETS_MAX_K", 0)
        assert counting_bound_index(inst, gf, centers, [r for r, _ in scan]) <= first


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_bound_cases())
def test_precheck_ratio_test_decides_both_lps(case):
    """The uncapped fixed-center LP is feasible exactly when the full LP is,
    and exactly when the precheck's ratio test l_h n <= |P_h| <= u_h n
    passes (the center-count spec here admits any k centers)."""
    inst, gf, centers, _ = case
    k = len(centers)
    ds = CenterDiversitySpec(lower=(0,) * inst.m, upper=(k,) * inst.m, k=k)
    fixed = solve_lp(build_gf_feasibility_lp(inst, gf, centers, None))
    full = solve_full_lp(inst, gf, k, None, None)
    assert (fixed is not None) == (full is not None) \
        == feasibility_precheck(inst, gf, ds).ok


def _counting_bound_by_loops(inst, gf, centers, radii, all_sets):
    """``counting_bound_index`` written radius by radius with loops over the
    tested sets and the points: every subset of the centers, or the sets
    {i}, S - {i} and S."""
    k, d, colors = len(centers), inst.distance_matrix(), inst.colors.tolist()
    lower, upper = gf.lower_floats(), gf.upper_floats()
    if all_sets:
        family = [set(t) for size in range(k + 1) for t in combinations(range(k), size)]
    else:
        family = ([{i} for i in range(k)] + [set(range(k)) - {i} for i in range(k)]
                  + [set(range(k))])
    start = int(np.searchsorted(radii, d[centers].min(axis=0).max()))
    for idx in range(start, len(radii)):
        reach = [{s for s in range(k) if d[centers[s], j] <= radii[idx] * (1 + EPS_D)}
                 for j in range(inst.n)]

        def passes(t):
            tol = len(t) * RESIDUAL_TOL
            q = [sum(c == h and r <= t for c, r in zip(colors, reach)) for h in range(inst.m)]
            nn = [sum(c == h and bool(r & t) for c, r in zip(colors, reach))
                  for h in range(inst.m)]
            least = max([len(t) - tol, sum(q)]
                        + [(q[h] - tol) / upper[h] for h in range(inst.m) if upper[h] > 0])
            most = min([sum(nn)]
                       + [(nn[h] + tol) / lower[h] for h in range(inst.m) if lower[h] > 0])
            return least <= most and not any(q[h] for h in range(inst.m) if upper[h] == 0)

        if all(passes(t) for t in family):
            return idx
    return len(radii)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_bound_cases(), st.booleans())
def test_counting_bound_matches_a_scan_by_loops(case, small_windows):
    """The windowed counting bound gives the index a radius-by-radius scan
    gives, with either family of sets and with windows held at 16
    candidates. The candidates are every pairwise distance and 120 radii
    evenly spaced up to the largest, so the answer often lies beyond the
    first window."""
    inst, gf, centers, few_sets = case
    d = inst.distance_matrix()
    radii = np.unique(np.concatenate((d.ravel(), np.linspace(0.0, d.max(), 120))))
    with pytest.MonkeyPatch.context() as patch:
        if few_sets:
            patch.setattr(lp_module, "_ALL_SETS_MAX_K", 0)
        if small_windows:
            patch.setattr(lp_module, "_WINDOW_CELLS", 1)
        assert counting_bound_index(inst, gf, centers, radii) == _counting_bound_by_loops(
            inst, gf, centers, radii, not few_sets)


@pytest.mark.parametrize("all_sets", [True, False])
def test_counting_bound_across_window_edges(monkeypatch, all_sets):
    """Candidates added between the nearest-assignment radius and the
    bound's radius reach what the distance below them reaches, so they
    fail; with 0 to 99 of them the bound's radius lands on every offset
    past the first windows' edges (16 and 16 + 64), and is still found."""
    if not all_sets:
        monkeypatch.setattr(lp_module, "_ALL_SETS_MAX_K", 0)
    inst = random_instance(12, 2, seed=23)
    gf = exact_gf_spec(inst)
    centers = [0, 4, 6, 7]  # the two families pass at different radii
    dc = inst.distance_matrix()[centers]
    radii = np.unique(dc)
    answer = radii[counting_bound_index(inst, gf, centers, radii)]
    nearest = dc.min(axis=0).max()
    assert answer > nearest
    for extra in range(100):
        fill = np.linspace(nearest, answer, extra + 2)[1:-1]
        candidates = np.unique(np.concatenate((radii, fill)))
        assert candidates[counting_bound_index(inst, gf, centers, candidates)] == answer


def test_counting_bound_needs_the_sets_of_two_centers_at_k4():
    """At k = 4 the sets of two centers are the only ones outside {i},
    S - {i} and S; here they pin the first feasible radius, which the 2k + 1
    sets alone fall short of."""
    inst = random_instance(12, 2, seed=31)
    gf = exact_gf_spec(inst)
    centers = [0, 4, 5, 9]
    scan = _fixed_center_scan(inst, gf, centers)
    radii = [r for r, _ in scan]
    first = next(idx for idx, (_, feasible) in enumerate(scan) if feasible)
    assert counting_bound_index(inst, gf, centers, radii) == first
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "_ALL_SETS_MAX_K", 0)
        assert counting_bound_index(inst, gf, centers, radii) < first


@pytest.mark.parametrize("objective", ["center", "median", "means"])
def test_clustering_is_scale_free(objective):
    """Coordinates scaled by s = 2^-20 or 2^20 (exact in floating point) give
    the same centers and assignment at every one of 40 seeds, at a cost
    scaled by s (s^2 for means), with the simplex and, above its size gate
    (patched to 0), with HiGHS. Unscaled, the LP's costs at 2^-20 (d^2 near
    1e-12) fall below the solvers' absolute tolerances. A k-center radius
    is compared with the cap relatively, d <= lam * (1 + EPS_D): an absolute
    slack of EPS_D let points beyond the cap reach a center at 2^-20, and
    the rounded radius then lay above lam."""
    power = 2 if objective == "means" else 1
    for gate in (lp_module._SIMPLEX_CELLS, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp_module, "_SIMPLEX_CELLS", gate)
            for seed in range(40):
                base = random_instance(10, 2, seed=seed)
                gf, ds = exact_gf_spec(base), default_ds_profile(base, 3)
                want, _ = solve(base, gf, ds, objective, backend=ExactBackend())
                for e in (-20, 20):
                    s = 2.0 ** e
                    inst = make_instance(base.colors, coords=base.coords * s, m=2)
                    got, report = solve(inst, gf, ds, objective, backend=ExactBackend())
                    assert (got.centers, got.assignment) == (want.centers, want.assignment), \
                        (gate, seed, e)
                    assert got.cost == pytest.approx(want.cost * s ** power, rel=1e-12)
                    if objective == "center":
                        assert report.cost <= report.lam, (gate, seed, e)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(6, 12), k=st.integers(2, 3),
       exact=st.booleans())
def test_clustering_is_scale_free_at_every_power_of_two(seed, n, k, exact):
    """At every scale s = 2^e, e in [-20, 20] and e = +-600 (+-500 for
    means, whose squares must stay normal floats), an instance's coordinates
    times s give the clustering they give at s = 1, for every objective
    and with either backend, at a cost scaled by s (s^2 for means); a
    k-center cost stays within its radius cap. At 2^600 the squared
    coordinates once overflowed to a NaN distance table, and at 2^-600
    they underflowed to distance 0."""
    base = random_instance(n, 2, seed=seed)
    gf, ds = exact_gf_spec(base), default_ds_profile(base, k)
    backend = ExactBackend() if exact else GreedyBackend()
    for objective in ("center", "median", "means"):
        want, _ = solve(base, gf, ds, objective, backend=backend)
        far = 500 if objective == "means" else 600
        for e in (*range(-20, 21), -far, far):
            s = 2.0 ** e
            inst = make_instance(base.colors, coords=base.coords * s, m=2)
            got, report = solve(inst, gf, ds, objective, backend=backend)
            assert (got.centers, got.assignment) == (want.centers, want.assignment), \
                (objective, e)
            assert got.cost == pytest.approx(
                want.cost * s ** (2 if objective == "means" else 1), rel=1e-12)
            if objective == "center":
                assert report.cost <= report.lam, e


@pytest.mark.parametrize("objective", ["median", "means"])
def test_oracle_ratio_is_scale_free(objective):
    """The oracle ratio divides by the optimum whatever its scale: at
    coordinates scaled by 2^-20 the k-means optimum is about 6e-13, which an
    absolute cutoff of 1e-9 once read as zero, reporting a ratio of 1."""
    base = random_instance(9, 2, seed=8)
    ds = default_ds_profile(base, 3)
    _, want = solve(base, exact_gf_spec(base), ds, objective, with_oracle=True)
    assert want.oracle_ratio > 1.0
    for e in (-20, 20):
        inst = make_instance(base.colors, coords=base.coords * 2.0 ** e, m=2)
        _, got = solve(inst, exact_gf_spec(inst), ds, objective, with_oracle=True)
        assert got.oracle_ratio == pytest.approx(want.oracle_ratio, rel=1e-12), e


def test_oracle_ratio_of_a_zero_optimum():
    """A zero optimum gives ratio 1 for a zero cost and infinity otherwise."""
    report = pipeline.SolveReport(
        objective="median", n=2, m=1, k=1, cost=0.0, ds_backend="exact",
        ds_cost=0.0, alpha=1.0, guaranteed_factor=4.0, gf_violation=0.0,
        ds_satisfied=True, min_cluster_size=2)
    inst = make_instance([0, 0], coords=[[0.0], [0.0]])
    gf = GroupFairnessSpec(lower=(1,), upper=(1,))
    ds = CenterDiversitySpec(lower=(1,), upper=(1,), k=1)
    pipeline._run_oracle(inst, gf, ds, "median", report)
    assert (report.oracle_cost, report.oracle_ratio) == (0.0, 1.0)
    report.cost = 2.0 ** -1074
    pipeline._run_oracle(inst, gf, ds, "median", report)
    assert report.oracle_ratio == math.inf
