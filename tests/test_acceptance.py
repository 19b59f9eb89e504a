"""Acceptance suite.

Runs the full pipeline over a seeded 200-instance family (all three
objectives), an oracle-friendly family for approximation-ratio checks, and
prints one verdict line per criterion. Run with ``pytest -s`` to see the
verdict lines on success.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fairclus import (BudgetExceededError, FractionalSolution,
                      GroupFairnessSpec, InfeasibleError,
                      OracleBudget, brute_force_doubly_fair, check_ds,
                      default_ds_profile, exact_gf_spec, fractional_cost,
                      gf_violation, guarantee_factor, lp_residuals,
                      make_instance, means_pq, random_instance, solve)

from fairclus.flow import snap_to_integer
from fairclus.lp import EPS_POS

from conftest import rerouting_certificate
from reference_oracle import exhaustive_doubly_fair

MEANS_FACTOR = (math.sqrt(5.0) + 1.0) ** 2  # exact backend, alpha = 1
ORACLE_WORK_CAP = 300_000  # attempt the oracle when C(n,k) * k^n is below this
ORACLE_BUDGET = OracleBudget(time_cap=10.0)


def _verdict(num, name, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    line = f"[criterion {num:2d}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not failures, f"criterion {num}: {failures[:5]}"


def _suite_configs():
    configs = []
    for i in range(200):
        configs.append({
            "seed": 10_000 + i,
            "n": 6 + (i % 9),          # 6..14
            "m": 2 if i % 2 == 0 else 3,
            "k": 2 if (i // 2) % 2 == 0 else 3,
        })
    return configs


def _balanced(n, m, seed):
    rng = np.random.default_rng(seed)
    colors = np.array([i % m for i in range(n)])
    rng.shuffle(colors)
    return make_instance(colors, coords=rng.uniform(0, 1, (n, 2)), m=m)


def _window_gf(inst, width=Fraction(1, 4)):
    counts = inst.color_counts()
    lower, upper = [], []
    for c in counts:
        ratio = Fraction(int(c), inst.n)
        lower.append(max(Fraction(0), ratio - width))
        upper.append(min(Fraction(1), ratio + width))
    return GroupFairnessSpec(lower=tuple(lower), upper=tuple(upper))


def _solve_record(inst, gf, ds, objective, try_oracle):
    artifacts = {}
    clustering, report = solve(inst, gf, ds, objective, artifacts=artifacts)
    record = {"inst": inst, "gf": gf, "ds": ds, "objective": objective,
              "clustering": clustering, "report": report, **artifacts}
    record["certificate"] = rerouting_certificate(inst, gf, ds.k, objective,
                                                  artifacts)
    if try_oracle and math.comb(inst.n, ds.k) * ds.k ** inst.n <= ORACLE_WORK_CAP:
        try:
            record["oracle"] = brute_force_doubly_fair(inst, gf, ds, objective,
                                                       budget=ORACLE_BUDGET)
        except (InfeasibleError, BudgetExceededError):
            record["oracle"] = None
    else:
        record["oracle"] = None
    return record


@pytest.fixture(scope="session")
def suite():
    """200 seeded instances x 3 objectives through the full pipeline."""
    records = []
    for cfg in _suite_configs():
        inst = random_instance(cfg["n"], cfg["m"], cfg["seed"])
        gf = exact_gf_spec(inst)
        ds = default_ds_profile(inst, cfg["k"])
        for objective in ("center", "median", "means"):
            records.append(_solve_record(inst, gf, ds, objective,
                                         try_oracle=True))
    return records


@pytest.fixture(scope="session")
def oracle_family():
    """Balanced small instances with ratio windows: the oracle almost always
    completes with a zero-violation optimum here."""
    records = []
    for i in range(25):
        n = 6 + (i % 4)  # 6..9
        inst = _balanced(n, 2, seed=40_000 + i)
        gf = _window_gf(inst)
        ds = default_ds_profile(inst, 2)
        for objective in ("center", "median", "means"):
            records.append(_solve_record(inst, gf, ds, objective,
                                         try_oracle=True))
    return records


def test_criterion_1_ds_exactness(suite):
    failures = [r["report"].to_dict() for r in suite
                if not check_ds(r["inst"], r["clustering"].centers, r["ds"])]
    _verdict(1, "center-count bounds satisfied exactly", failures,
             f"{len(suite)} pipeline runs")


def test_criterion_2_gf_violation_at_most_two(suite):
    failures = []
    for r in suite:
        measured = gf_violation(r["inst"], r["clustering"], r["gf"])
        if measured > 2.0 + 1e-6:
            failures.append((r["report"].to_dict(), measured))
    _verdict(2, "group-fairness violation <= 2", failures,
             f"{len(suite)} pipeline runs")


def test_criterion_3_kcenter_ratio(suite, oracle_family):
    failures = []
    comparisons = 0
    center_records = [r for r in suite + oracle_family
                      if r["objective"] == "center"]
    for r in center_records:
        # lam is the certificate's max(lambda_lp, lambda_ds); rep.lam is the
        # fixed-center LP's radius r, which the rerouted solution bounds
        rep, cert = r["report"], r["certificate"]
        lam = cert.lam
        if rep.cost > 2.0 * lam + 1e-6:
            failures.append(("cost export exceeds 2*lambda", rep.to_dict(), lam))
        if not (rep.cost <= rep.lam + 1e-9 and rep.lam <= cert.support_radius
                and cert.support_radius <= cert.radius_cap + 1e-9):
            failures.append(("cost <= r <= rerouted radius <= (alpha+1)*lambda",
                             rep.to_dict(), cert.support_radius, cert.radius_cap))
        if r["oracle"] is not None:
            comparisons += 1
            opt = r["oracle"].cost
            if rep.cost > 2.0 * opt + 1e-6:
                failures.append(("cost exceeds 2*OPT", rep.cost, opt))
            if lam > opt + 1e-6:
                failures.append(("lambda exceeds OPT", lam, opt))
    if comparisons < 30:
        failures.append(("too few oracle comparisons", comparisons))
    _verdict(3, "k-center: cost <= 2*OPT, cost <= 2*lambda, lambda <= OPT, "
                "cost <= r <= rerouted radius <= (alpha+1)*lambda",
             failures, f"{comparisons} oracle comparisons, "
                       f"{len(center_records)} radius checks")


def _cost_ratio_criterion(num, name, objective, factor, suite, oracle_family,
                          min_comparisons):
    failures = []
    comparisons = 0
    for r in suite + oracle_family:
        if r["objective"] != objective:
            continue
        rep, cert = r["report"], r["certificate"]
        if rep.cost > rep.assignment_lp_cost + 1e-6:
            failures.append(("rounding increased cost", rep.to_dict()))
        if rep.assignment_lp_cost > cert.rerouted_cost + 1e-6:
            failures.append(("assignment LP above the rerouted cost",
                             rep.to_dict(), cert.rerouted_cost))
        if cert.rerouted_cost > cert.rerouted_cost_bound + 1e-6:
            failures.append(("rerouted cost above its bound", rep.to_dict(),
                             cert.rerouted_cost, cert.rerouted_cost_bound))
        if r["oracle"] is not None:
            comparisons += 1
            if rep.cost > factor * r["oracle"].cost + 1e-6:
                failures.append(("ratio violated", rep.cost, r["oracle"].cost))
    if comparisons < min_comparisons:
        failures.append(("too few oracle comparisons", comparisons))
    _verdict(num, name, failures, f"{comparisons} oracle comparisons")


def test_criterion_4_kmedian_ratio(suite, oracle_family):
    # rerouted_cost_bound is 3*lp_cost + ds_cost in median mode
    for r in suite:
        if r["objective"] == "median":
            assert r["certificate"].rerouted_cost_bound == pytest.approx(
                3.0 * r["certificate"].lp_cost + r["report"].ds_cost)
    _cost_ratio_criterion(4, "k-median: cost'' <= assignment lp <= cost' <= "
                             "3*lp + ds, cost <= 4*OPT", "median", 4.0, suite,
                          oracle_family, min_comparisons=20)


def test_criterion_5_kmeans_ratio(suite, oracle_family):
    p_sq, q_sq = means_pq(1.0)
    assert p_sq == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert q_sq == 1.0
    for r in suite:
        if r["objective"] == "means":
            rep, cert = r["report"], r["certificate"]
            expected = ((1 + p_sq + (1 + 1 / p_sq) * (2 + q_sq)) * cert.lp_cost
                        + (1 + 1 / p_sq) * (1 + 1 / q_sq) * rep.ds_cost)
            assert cert.rerouted_cost_bound == pytest.approx(expected)
    _cost_ratio_criterion(5, f"k-means: p^2=sqrt(5), q^2=1 bound, "
                             f"cost <= {MEANS_FACTOR:.4f}*OPT", "means",
                          MEANS_FACTOR, suite, oracle_family,
                          min_comparisons=20)


def test_criterion_6_rerouting_guarantees(suite, oracle_family):
    # the pipeline rounds the fixed-center assignment LP's solution, which
    # must have every property the certificate's rerouted solution has; the
    # radius caps are (alpha+1)*lambda and r. Both are tables with a row per
    # center, so support on the centers is their rows.
    failures = []
    checked = 0
    for r in suite + oracle_family:
        inst, gf = r["inst"], r["gf"]
        centers = list(r["clustering"].centers)
        cert = r["certificate"]
        solutions = [(cert.rerouted, getattr(cert, "radius_cap", None)),
                     (r["lp_solution"], r["report"].lam)]
        for rerouted, radius_cap in solutions:
            checked += 1
            col_err = float(np.abs(rerouted.x.sum(axis=0) - 1.0).max())
            if col_err > 1e-6:
                failures.append(("column sums", col_err))
            if rerouted.rows.tolist() != centers:
                failures.append(("rows are not the centers", r["report"].to_dict()))
            mass = rerouted.x.sum(axis=1)
            if float(mass.min()) < 1.0 - 1e-6:
                failures.append(("center mass below 1", float(mass.min())))
            resid = lp_residuals(inst, gf, rerouted)
            if resid["color"] > 1e-6:
                failures.append(("ratio residual", resid["color"]))
            if r["objective"] == "center":
                d = inst.distance_matrix()[rerouted.rows]
                sup = rerouted.x > 1e-9
                if np.any(sup) and float(d[sup].max()) > radius_cap + 1e-9:
                    failures.append(("support radius", float(d[sup].max()),
                                     radius_cap))
    _verdict(6, "rerouting and assignment LP: conservation, support on the "
                "centers, mass >= 1, ratios, radius",
             failures, f"{checked} fractional solutions")


def test_criterion_7_flow_rounding(suite, oracle_family):
    # x2 has a row per center, as the LP solution has; the windows are the
    # floor and ceiling of the LP solution's snapped masses
    failures = []
    for r in suite + oracle_family:
        inst, net, x2, sol = r["inst"], r["net"], r["x2"], r["lp_solution"]
        point_flows = np.bincount(net.arcs[:, 1], weights=r["flows"], minlength=inst.n)
        if not np.array_equal(point_flows, np.ones(inst.n)):
            failures.append(("point not saturated by exactly one unit",
                             point_flows.tolist()))
        if list(net.centers) != sol.rows.tolist() or x2.shape != sol.x.shape:
            failures.append(("rounding rows differ from the LP's", net.centers, x2.shape))
        if r["objective"] != "center":
            frac = fractional_cost(inst, sol, r["objective"])
            rounded = fractional_cost(inst, FractionalSolution(
                rows=sol.rows, x=x2), r["objective"])
            if rounded > frac + 1e-6:
                failures.append(("min-cost above fractional", rounded, frac))
        color_windows, total_windows = [], []
        for a, i in enumerate(sol.rows.tolist()):
            total = int(x2[a, :].sum())
            mass = float(snap_to_integer(sol.x[a, :].sum()))
            total_windows.append((math.floor(mass), math.ceil(mass)))
            if not math.floor(mass) <= total <= math.ceil(mass):
                failures.append(("total mass window", i, total))
            for h in range(inst.m):
                got = int(x2[a, inst.colors == h].sum())
                mass_h = float(snap_to_integer(sol.x[a, inst.colors == h].sum()))
                color_windows.append((math.floor(mass_h), math.ceil(mass_h)))
                if not math.floor(mass_h) <= got <= math.ceil(mass_h):
                    failures.append(("color mass window", i, h, got))
        if color_windows + total_windows != list(zip(net.lower[inst.n:], net.upper[inst.n:])):
            failures.append(("network windows differ from the LP's masses", net.centers))
    _verdict(7, "flow rounding: saturation, mass windows, no cost increase",
             failures, f"{len(suite) + len(oracle_family)} roundings")


def test_lp_vertex_leaves_few_fractional_points(suite, oracle_family):
    """A vertex of the fixed-center LP has one basic variable per row, so at
    most k(2m + 1) points split their mass: the flow routes only those."""
    failures = []
    for r in suite + oracle_family:
        sol = r["lp_solution"]
        fractional = int(np.count_nonzero((sol.x > EPS_POS).sum(axis=0) > 1))
        if fractional > sol.rows.size * (2 * r["inst"].m + 1):
            failures.append((sol.rows.tolist(), r["inst"].m, fractional))
    assert not failures, failures[:5]


def test_criterion_8_guarantee_constants():
    failures = []
    if abs(guarantee_factor("center", 3.0) - 4.0) > 1e-9:
        failures.append(("center", guarantee_factor("center", 3.0)))
    if abs(guarantee_factor("median", 7.081) - 10.081) > 1e-9:
        failures.append(("median", guarantee_factor("median", 7.081)))
    expected = 291.0 + 2.0 * math.sqrt(290.0)
    if abs(guarantee_factor("means", 256.0) - expected) > 1e-9:
        failures.append(("means", guarantee_factor("means", 256.0)))
    _verdict(8, "guarantee constants 4 / 10.081 / 291+2*sqrt(290)", failures)


def test_criterion_9_oracle_prune_consistency():
    failures = []
    compared = 0
    optima = 0
    for i in range(50):
        n = 5 + (i % 4)  # 5..8
        k = 3 if (i % 3 == 0 and n <= 7) else 2
        inst = _balanced(n, 2, seed=60_000 + i)
        if i % 10 == 9:
            gf = exact_gf_spec(inst)
        else:
            gf = _window_gf(inst)
        ds = default_ds_profile(inst, k)
        objective = ("center", "median", "means")[i % 3]
        try:
            pruned = brute_force_doubly_fair(inst, gf, ds, objective)
        except InfeasibleError:
            pruned = None
        try:
            unpruned = exhaustive_doubly_fair(inst, gf, ds, objective)
        except InfeasibleError:
            unpruned = None
        compared += 1
        if pruned is not None:
            optima += 1
        if pruned != unpruned:
            failures.append((i, pruned, unpruned))
    if optima < 30:
        failures.append(("too few feasible optima", optima))
    _verdict(9, "pruned oracle == unpruned exhaustive enumeration", failures,
             f"{compared} instances, {optima} with optima")


def test_criterion_10_determinism(suite):
    failures = []
    reruns = 0
    for cfg in _suite_configs()[:8]:
        inst = random_instance(cfg["n"], cfg["m"], cfg["seed"])
        gf = exact_gf_spec(inst)
        ds = default_ds_profile(inst, cfg["k"])
        for objective in ("center", "median", "means"):
            blobs = []
            for _ in range(2):
                clustering, report = solve(inst, gf, ds, objective)
                payload = report.to_dict()
                payload.pop("timings")
                blobs.append((json.dumps(payload, sort_keys=True).encode(),
                              json.dumps(clustering.to_dict(),
                                         sort_keys=True).encode()))
            reruns += 1
            if blobs[0] != blobs[1]:
                failures.append((cfg, objective))
    _verdict(10, "byte-identical reports and clusterings on reruns", failures,
             f"{reruns} config/objective pairs solved twice")

