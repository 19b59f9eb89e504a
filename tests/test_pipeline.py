import io
import json
import math

import numpy as np
import pytest

from fairclus import (CenterDiversitySpec, ContractViolationError,
                      DsSolverContract, ExactBackend, GreedyBackend,
                      GroupFairnessSpec, InfeasibleError, ValidationError,
                      build_gf_feasibility_lp, check_ds, default_ds_profile,
                      exact_gf_spec, gf_violation, guarantee_factor,
                      make_instance, means_pq, pairwise_distance_set,
                      random_instance, solve, solve_doubly_fair_kcenter,
                      solve_doubly_fair_medmeans, solve_lp)
from fairclus import lp as lp_module
from fairclus import pipeline
from fairclus.lp import LambdaSearchResult, dump_lp_text
from fairclus.oracle import brute_force_doubly_fair

from conftest import balanced_instance, line_instance, vacuous_gf, window_gf


def test_two_point_trivial():
    inst = line_instance([0, 1], [0, 1])
    gf = GroupFairnessSpec(lower=(0, 0), upper=(1, 1))
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    clustering, report = solve_doubly_fair_kcenter(inst, gf, ds)
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
            clustering, report = solve(inst, gf, ds, objective)
            assert check_ds(inst, clustering.centers, ds)
            assert report.gf_violation <= 2.0 + 1e-9
            assert report.min_cluster_size >= 1
            assert gf_violation(inst, clustering, gf) == pytest.approx(
                report.gf_violation)
            if objective == "center":
                assert report.lam == max(report.lambda_lp, report.lambda_ds)
                assert report.cost <= 2.0 * report.lam + 1e-9
            else:
                assert report.cost <= report.rerouted_cost + 1e-6
                assert report.rerouted_cost <= report.rerouted_cost_bound + 1e-6


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
        clustering, report = solve_doubly_fair_kcenter(inst, gf, ds)
        done += 1
        assert report.lam <= opt.cost + 1e-9
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
            clustering, report = solve_doubly_fair_medmeans(inst, gf, ds,
                                                            objective)
            done += 1
            assert report.cost <= factor * opt.cost + 1e-6
    assert done >= 10


def test_with_oracle_report_fields():
    inst = balanced_instance(8, 2, seed=5)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    clustering, report = solve_doubly_fair_kcenter(inst, gf, ds,
                                                   with_oracle=True)
    assert report.oracle_cost is not None
    assert report.oracle_ratio == pytest.approx(report.cost / report.oracle_cost)
    assert report.oracle_ratio <= guarantee_factor("center", 1.0) + 1e-6


def test_oracle_infeasible_noted_in_report():
    inst = line_instance([0, 1, 2, 3, 4], [0, 0, 0, 1, 1])
    gf = exact_gf_spec(inst)  # indivisible exact ratios: no zero-violation split
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    clustering, report = solve_doubly_fair_kcenter(inst, gf, ds,
                                                   with_oracle=True)
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
        solve_doubly_fair_kcenter(inst, gf, ds)
    assert any("insufficient" in reason for reason in exc_info.value.diagnosis)


def test_infeasible_objective_lp_reports_ratio_sums(monkeypatch):
    inst = random_instance(6, 2, seed=1)
    gf, ds = exact_gf_spec(inst), default_ds_profile(inst, 2)
    monkeypatch.setattr(pipeline, "solve_lp", lambda *args: None)
    with pytest.raises(InfeasibleError, match="no fractional solution") as exc_info:
        solve_doubly_fair_medmeans(inst, gf, ds, "median")
    assert exc_info.value.diagnosis == ["sum of lower ratios = 1",
                                        "sum of upper ratios = 1", "k = 2, n = 6"]


def test_broken_backend_aborts_pipeline():
    class ShortBackend:
        contract = DsSolverContract(backend_id="short", alpha={})

        def solve_raw(self, inst, ds, objective):
            return tuple(range(ds.k - 1)), None

    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    gf = vacuous_gf(2)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    with pytest.raises(ContractViolationError):
        solve_doubly_fair_kcenter(inst, gf, ds, backend=ShortBackend())


def test_claimed_alpha_three_reports_factor_four():
    class ClaimsThree:
        contract = DsSolverContract(backend_id="claims3",
                                    alpha={"center": 3.0})

        def solve_raw(self, inst, ds, objective):
            from fairclus import solve_ds_exact
            return solve_ds_exact(inst, ds, objective).centers, 3.0

    inst = balanced_instance(8, 2, seed=11)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    clustering, report = solve_doubly_fair_kcenter(inst, gf, ds,
                                                   backend=ClaimsThree())
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
        clustering, report = solve_doubly_fair_medmeans(inst, gf, ds, objective)
        assert report.cost == pytest.approx(0.0, abs=1e-9)


def test_report_serializes_to_json():
    inst = balanced_instance(6, 2, seed=21)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    _, report = solve(inst, gf, ds, "means", with_oracle=True)
    text = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(text)
    assert parsed["objective"] == "means"
    assert parsed["p_squared"] == pytest.approx(math.sqrt(5.0))
    assert parsed["q_squared"] == 1.0


def test_kcenter_with_feasible_lambda_ds_solves_one_lp(monkeypatch):
    inst = random_instance(20, 2, seed=3)
    gf = exact_gf_spec(inst)
    ds = default_ds_profile(inst, 4)
    _, first = solve_doubly_fair_kcenter(inst, gf, ds, backend=GreedyBackend())
    # precondition: the snapped diverse-cost radius is already LP-feasible
    assert solve_lp(build_gf_feasibility_lp(inst, gf, ds.k, first.lambda_ds)) is not None

    calls = []
    linprog = lp_module.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(lp_module, "linprog", counting)
    _, report = solve_doubly_fair_kcenter(inst, gf, ds, backend=GreedyBackend())
    assert len(calls) == 1
    assert report.lam == report.lambda_lp == report.lambda_ds


def test_kcenter_matches_full_search_and_fresh_solve(monkeypatch):
    """Searching only radii >= lambda_ds and reusing the winning probe gives
    the clustering of a search over every distance plus a fresh LP at lam."""
    lp_above_ds = []

    def full_search_then_fresh_solve(inst, gf, k, candidates):
        radii = pairwise_distance_set(inst)
        lambda_lp = next(float(r) for r in radii if solve_lp(
            build_gf_feasibility_lp(inst, gf, k, float(r))) is not None)
        lambda_ds = float(candidates[0])
        lp_above_ds.append(lambda_lp > lambda_ds)
        lam = max(lambda_lp, lambda_ds)
        model = build_gf_feasibility_lp(inst, gf, k, lam)
        return LambdaSearchResult(lam, model, solve_lp(model, inst, gf))

    def outcome(clustering, report):
        fields = report.to_dict()
        fields.pop("timings")
        fields.pop("lambda_lp")
        return clustering.to_dict(), fields

    for seed in range(4):
        for n, m, k in ((8, 2, 2), (9, 3, 3), (10, 2, 3)):
            inst = balanced_instance(n, m, seed)
            gf = exact_gf_spec(inst)
            ds = default_ds_profile(inst, k)
            for backend in (ExactBackend(), GreedyBackend()):
                got = solve_doubly_fair_kcenter(inst, gf, ds, backend=backend)
                with monkeypatch.context() as patch:
                    patch.setattr(pipeline, "min_feasible_lambda",
                                  full_search_then_fresh_solve)
                    want = solve_doubly_fair_kcenter(inst, gf, ds, backend=backend)
                assert got[1].lam == want[1].lam
                assert got[1].lam == max(got[1].lambda_lp, got[1].lambda_ds)
                assert outcome(*got) == outcome(*want)
    assert any(lp_above_ds) and not all(lp_above_ds)


def test_kcenter_lp_dump_is_the_model_at_lam(tmp_path):
    inst = balanced_instance(8, 2, seed=1)
    gf = exact_gf_spec(inst)
    ds = default_ds_profile(inst, 2)
    path = tmp_path / "model.lp"
    _, report = solve_doubly_fair_kcenter(inst, gf, ds, dumps={"lp": str(path)})
    text = path.read_text()
    assert f" radius_cap={report.lam} " in text.splitlines()[0]
    fresh = io.StringIO()
    dump_lp_text(build_gf_feasibility_lp(inst, gf, ds.k, report.lam), fresh)
    assert text == fresh.getvalue()


def test_timings_time_the_precheck_apart_from_ds():
    inst = balanced_instance(6, 2, seed=21)
    gf = window_gf(inst)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    for objective in ("center", "median"):
        _, report = solve(inst, gf, ds, objective)
        timings = report.timings
        assert {"precheck", "ds", "lp", "rerouting", "flow", "total"} <= set(timings)
        assert timings["precheck"] + timings["ds"] <= timings["total"]
