import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fairclus import (CenterDiversitySpec, Clustering, ExactBackend, GreedyBackend,
                      PipelineError, default_ds_profile, exact_gf_spec, fractional_cost,
                      make_instance, pairwise_distance_set, random_instance,
                      reroute_center, reroute_medmeans, solve, solve_ds_plugin)
from fairclus import flow as flow_module
from fairclus.constraints import cluster_color_counts
from fairclus.flow import (build_flow, check_mass_windows, dump_flow_text,
                           extract_assignment, min_cost_flow, snap_to_integer)
from fairclus.lp import FractionalSolution

from conftest import line_instance, window_gf
from reference_flow import reference_min_cost_flow
from reference_lp import (check_full_lp_solution, full_lp_min_feasible_lambda,
                          solution_from_clustering, solve_full_lp)


def _rounded(sol, assignment):
    """The flow's assignment as a 0/1 solution over the same centers."""
    return FractionalSolution(rows=sol.rows, x=(sol.rows[:, None] == assignment).astype(float))


def _check_windows(inst, net, assignment):
    """``check_mass_windows`` on the color counts of ``assignment``, a row
    per center of ``net``."""
    clustering = Clustering(net.centers, tuple(assignment.tolist()), "median", 0.0)
    check_mass_windows(cluster_color_counts(inst, clustering), net)


def _fractional_points(net):
    """How many points have two or more support arcs."""
    return int(np.count_nonzero(np.bincount(net.arcs[:, 1], minlength=net.n) > 1))


def _assert_matches_reference(net):
    """The flow's assignment is HiGHS's, at the same cost within 1e-9
    relative."""
    flows, reference = min_cost_flow(net), reference_min_cost_flow(net)
    assert np.array_equal(extract_assignment(flows, net),
                          extract_assignment(reference, net))
    assert net.cost @ flows == pytest.approx(net.cost @ reference, rel=1e-9, abs=1e-12)


def _forbid_routing(monkeypatch):
    """Make any routing of fractional points fail the test."""
    def fail(*args):
        raise AssertionError("routed points though none is fractional")
    monkeypatch.setattr(flow_module, "_route", fail)


def test_snap_to_integer():
    assert snap_to_integer(2.0 - 1e-12) == 2.0
    assert snap_to_integer(2.0 + 1e-12) == 2.0
    assert snap_to_integer(2.4) == 2.4
    assert math.floor(snap_to_integer(2.0 - 1e-12)) == 2


def test_floor_ceil_window_arithmetic():
    # one center, per-color masses 2.4 (color 0) and 1.6 (color 1)
    inst = make_instance([0, 0, 0, 0, 1, 1, 1, 1],
                         coords=[[float(i)] for i in range(8)])
    x = np.zeros((1, 8))
    x[0, :4] = 0.6   # 2.4 units of color 0
    x[0, 4:] = 0.4   # 1.6 units of color 1
    rerouted = FractionalSolution(rows=np.array([0]), x=x)
    net = build_flow(rerouted, inst, "center")
    windows = list(zip(net.lower.tolist(), net.upper.tolist()))
    # rows: (center 0, color 0), (center 0, color 1), center 0
    assert windows == [(2, 3), (1, 2), (4, 4)]
    # each arc sits in its (center, color) and center row
    assert net.arc_rows.tolist() == [[j // 4, 2] for j in range(8)]


def test_check_mass_windows_names_the_row_outside_its_window():
    # every point at center 0 of test_floor_ceil_window_arithmetic's
    # solution: 4 of color 0 against the window [2, 3]
    inst = make_instance([0, 0, 0, 0, 1, 1, 1, 1],
                         coords=[[float(i)] for i in range(8)])
    x = np.zeros((1, 8))
    x[0, :4], x[0, 4:] = 0.6, 0.4
    net = build_flow(FractionalSolution(rows=np.array([0]), x=x),
                     inst, "center")
    with pytest.raises(PipelineError, match=r"row ch_0_0 counts 4 points, outside \[2, 3\]"):
        check_mass_windows(np.array([[4, 4]]), net)


def test_integral_passthrough_center_mode(monkeypatch):
    _forbid_routing(monkeypatch)
    rng = np.random.default_rng(7)
    for trial in range(8):
        n = int(rng.integers(4, 9))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        centers = sorted(rng.choice(n, size=2, replace=False).tolist())
        assignment = [int(centers[rng.integers(0, 2)]) for _ in range(n)]
        for c in centers:
            assignment[c] = c
        sol = solution_from_clustering(inst, centers, assignment)
        net = build_flow(sol, inst, "center")
        # all windows collapse to the exact integral masses
        assert np.array_equal(net.lower, net.upper)
        # one support arc per point, each fixed at one unit
        flows = min_cost_flow(net)
        assert np.array_equal(flows, np.ones(n))
        got = extract_assignment(flows, net)
        assert got.tolist() == assignment
        _check_windows(inst, net, got)


def test_infeasible_lower_bound_raises():
    # centers 0 and 2 each carry a mass of exactly 2, yet only point 1 can
    # add to either of them: four units of demand meet three points
    inst = line_instance([0.0, 1.0, 2.0], [0, 0, 0])
    x = np.zeros((2, 3))
    x[0, [0, 1]] = 1.0
    x[1, [1, 2]] = 1.0
    net = build_flow(FractionalSolution(rows=np.array([0, 2]), x=x),
                     inst, "median")
    assert net.lower[-2:].tolist() == [2, 2]
    assert reference_min_cost_flow(net) is None
    with pytest.raises(PipelineError, match="flow"):
        min_cost_flow(net)


def test_windows_the_fixed_points_break_raise(monkeypatch):
    # both points of _two_point_net have one arc each, to center 0, whose
    # window is [2, 2]: one point too many, or one too few, cannot be met
    _forbid_routing(monkeypatch)
    net = _two_point_net()
    for lower, upper in ((1, 1), (3, 3)):
        bad = replace(net, lower=np.concatenate((net.lower[:-1], [lower])),
                      upper=np.concatenate((net.upper[:-1], [upper])))
        with pytest.raises(PipelineError, match="row windows"):
            min_cost_flow(bad)


def _center_stage(inst, gf, k):
    counts = inst.color_counts()
    lower = tuple(1 if counts[h] > 0 else 0 for h in range(inst.m))
    if sum(lower) > k:
        lower = (0,) * inst.m
    ds = CenterDiversitySpec(lower=lower, upper=(k,) * inst.m, k=k)
    ds_sol = solve_ds_plugin(inst, ds, "center", ExactBackend())
    lam = max(full_lp_min_feasible_lambda(inst, gf, k, pairwise_distance_set(inst))[0],
              ds_sol.cost)
    sol = solve_full_lp(inst, gf, k, lam, None)
    check_full_lp_solution(inst, gf, k, lam, sol)
    rerouted, _ = reroute_center(inst, sol, ds_sol.centers)
    return ds_sol, rerouted


def _medmeans_stage(inst, gf, objective):
    ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    ds_sol = solve_ds_plugin(inst, ds, objective, ExactBackend())
    sol = solve_full_lp(inst, gf, 2, None, objective)
    check_full_lp_solution(inst, gf, 2, None, sol)
    rerouted, _ = reroute_medmeans(inst, sol, ds_sol.centers)
    return ds_sol, rerouted


def test_center_flow_always_saturates():
    rng = np.random.default_rng(37)
    for trial in range(10):
        n = int(rng.integers(5, 11))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        ds_sol, rerouted = _center_stage(inst, gf, 2)
        net = build_flow(rerouted, inst, "center")
        _assert_matches_reference(net)
        flows = min_cost_flow(net)
        # every point's arcs carry exactly one unit
        point_sums = np.bincount(net.arcs[:, 1], weights=flows, minlength=n)
        assert np.array_equal(point_sums, np.ones(n))
        got = extract_assignment(flows, net)
        _check_windows(inst, net, got)
        # integral support sits inside the fractional support
        assert np.all(rerouted.x[_rounded(rerouted, got).x > 0] > 0)


def test_medmeans_windows_bracket_point_count():
    rng = np.random.default_rng(41)
    for trial in range(8):
        n = int(rng.integers(5, 10))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        ds_sol, rerouted = _medmeans_stage(inst, window_gf(inst), "median")
        net = build_flow(rerouted, inst, "median")
        k = len(ds_sol.centers)
        assert net.lower.size == net.upper.size == 2 * k + k
        # every arc sits in its (center, color) row and its center row
        slot = np.searchsorted(net.centers, net.arcs[:, 0])
        assert np.array_equal(net.arc_rows, np.column_stack(
            (2 * slot + inst.colors[net.arcs[:, 1]], 2 * k + slot)))
        centers_lo, centers_hi = net.lower[-k:], net.upper[-k:]
        assert centers_lo.sum() <= n <= centers_hi.sum()


def test_min_cost_never_exceeds_fractional_cost():
    rng = np.random.default_rng(43)
    for trial in range(10):
        n = int(rng.integers(5, 10))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        stages = [(objective, *_medmeans_stage(inst, gf, objective))
                  for objective in ("median", "means")]
        # k-center rounds on plain distances, so its sum of distances drops too
        stages.append(("center", *_center_stage(inst, gf, 2)))
        for objective, ds_sol, rerouted in stages:
            net = build_flow(rerouted, inst, objective)
            _assert_matches_reference(net)
            got = extract_assignment(min_cost_flow(net), net)
            _check_windows(inst, net, got)
            measure = "median" if objective == "center" else objective
            rounded = fractional_cost(inst, _rounded(rerouted, got), measure)
            frac = fractional_cost(inst, rerouted, measure)
            assert rounded <= frac + 1e-6


def test_min_cost_single_point():
    inst = line_instance([0.0, 3.0], [0, 1])
    # both points fully assigned to center 0
    rerouted = FractionalSolution(rows=np.array([0]), x=np.ones((1, 2)))
    net = build_flow(rerouted, inst, "means")
    got = extract_assignment(min_cost_flow(net), net)
    assert got.tolist() == [0, 0]
    assert fractional_cost(inst, _rounded(rerouted, got), "means") == pytest.approx(9.0)


def test_integral_passthrough_min_cost_mode(monkeypatch):
    _forbid_routing(monkeypatch)
    rng = np.random.default_rng(47)
    for trial in range(6):
        n = int(rng.integers(4, 9))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        centers = sorted(rng.choice(n, size=2, replace=False).tolist())
        assignment = [int(centers[rng.integers(0, 2)]) for _ in range(n)]
        for c in centers:
            assignment[c] = c
        sol = solution_from_clustering(inst, centers, assignment)
        net = build_flow(sol, inst, "median")
        got = extract_assignment(min_cost_flow(net), net)
        # the windows pin every mass: the unique flow reproduces the input
        assert got.tolist() == assignment
        assert np.array_equal(_rounded(sol, got).x, sol.x)
        assert fractional_cost(inst, _rounded(sol, got), "median") == pytest.approx(
            fractional_cost(inst, sol, "median"))


def test_pipeline_roundings_match_highs_reference():
    """The fixed-center LP solutions of random pipeline solves, n 6-40, all
    three objectives: on every one with a fractional point, the rounding is
    the HiGHS reference's, and the points to route fit the vertex bound."""
    checked = 0
    for seed in range(80):
        rng = np.random.default_rng(seed)
        n, m, k = int(rng.integers(6, 41)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
        inst = random_instance(n, m, seed)
        gf, ds = exact_gf_spec(inst), default_ds_profile(inst, k)
        for objective in ("center", "median", "means"):
            artifacts = {}
            solve(inst, gf, ds, objective, backend=GreedyBackend(), artifacts=artifacts)
            net = artifacts["net"]
            fractional = _fractional_points(net)
            assert fractional <= k * (2 * m + 1)
            if fractional:
                _assert_matches_reference(net)
                checked += 1
    assert checked >= 200


def test_all_fractional_table_rounds_fast():
    """Every point split evenly between two of four centers: all 200 are
    routed, at the reference's cost, in well under a second."""
    n, k = 200, 4
    inst = random_instance(n, 2, seed=3)
    rng = np.random.default_rng(3)
    x = np.zeros((k, n))
    for j in range(n):
        x[rng.choice(k, size=2, replace=False), j] = 0.5
    sol = FractionalSolution(rows=np.arange(k), x=x)
    for objective in ("center", "median", "means"):
        net = build_flow(sol, inst, objective)
        assert _fractional_points(net) == n
        start = time.perf_counter()
        flows = min_cost_flow(net)
        assert time.perf_counter() - start < 1.0
        assert net.cost @ flows == pytest.approx(
            net.cost @ reference_min_cost_flow(net), rel=1e-9)
        _check_windows(inst, net, extract_assignment(flows, net))


def _two_point_net():
    inst = line_instance([0, 1], [0, 1])
    return build_flow(FractionalSolution(rows=np.array([0]), x=np.ones((1, 2))), inst, "median")


def test_extraction_rejects_unassigned_points():
    net = _two_point_net()
    with pytest.raises(PipelineError, match="assigned"):
        extract_assignment(np.array([1.0, 0.0]), net)


def test_extraction_rejects_half_unit_flows():
    net = _two_point_net()
    for flows in (np.full(len(net.arcs), 0.5), np.array([1.0, np.nan]),
                  np.array([1.0, 2.0])):
        with pytest.raises(PipelineError, match="non-unit"):
            extract_assignment(flows, net)


def test_dump_flow_text():
    import io
    buf = io.StringIO()
    dump_flow_text(_two_point_net(), buf)
    lines = buf.getvalue().strip().splitlines()
    # the arcs, then only the (center, color) and center windows
    assert lines == ["arc 0 0 0.0", "arc 0 1 1.0",
                     "row ch_0_0 1 1", "row ch_0_1 1 1", "row c_0 2 2"]


def test_import_leaves_networkx_out():
    import os
    import subprocess
    import sys

    import fairclus
    src = os.path.dirname(os.path.dirname(fairclus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fairclus; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
