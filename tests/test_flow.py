import math

import numpy as np
import pytest

from fairclus import (CenterDiversitySpec, PipelineError, fractional_cost,
                      make_instance, pairwise_distance_set, reroute_center,
                      reroute_medmeans, solve_ds_exact)
from fairclus.flow import (build_flow, check_mass_windows, dump_flow_text,
                           extract_assignment, min_cost_flow, snap_to_integer)
from fairclus.lp import FractionalSolution, solution_from_clustering

from conftest import line_instance, window_gf
from reference_lp import (check_full_lp_solution, full_lp_min_feasible_lambda,
                          solve_full_lp)


def _rounded(sol, x2):
    """The flow's 0/1 table as a solution over the same centers."""
    return FractionalSolution(rows=sol.rows, x=x2)


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
    # rows: 8 points, then (center 0, color 0), (center 0, color 1), center 0
    assert windows[:8] == [(1, 1)] * 8
    assert windows[8:] == [(2, 3), (1, 2), (4, 4)]
    assert net.rows.shape == (11, 8)


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
        check_mass_windows(np.ones((1, 8)), net, inst)


def test_integral_passthrough_center_mode():
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
        x2 = extract_assignment(min_cost_flow(net), net)
        assert np.array_equal(x2, sol.x)
        check_mass_windows(x2, net, inst)


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
    with pytest.raises(PipelineError, match="flow"):
        min_cost_flow(net)


def _center_stage(inst, gf, k):
    counts = inst.color_counts()
    lower = tuple(1 if counts[h] > 0 else 0 for h in range(inst.m))
    if sum(lower) > k:
        lower = (0,) * inst.m
    ds = CenterDiversitySpec(lower=lower, upper=(k,) * inst.m, k=k)
    ds_sol = solve_ds_exact(inst, ds, "center")
    lam = max(full_lp_min_feasible_lambda(inst, gf, k, pairwise_distance_set(inst))[0],
              ds_sol.cost)
    sol = solve_full_lp(inst, gf, k, lam, None)
    check_full_lp_solution(inst, gf, k, lam, sol)
    rerouted, _ = reroute_center(inst, sol, ds_sol.centers)
    return ds_sol, rerouted


def _medmeans_stage(inst, gf, objective):
    ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
    ds_sol = solve_ds_exact(inst, ds, objective)
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
        flows = min_cost_flow(net)
        # every point's arcs carry exactly one unit
        point_sums = np.bincount(net.arcs[:, 1], weights=flows, minlength=n)
        assert np.array_equal(point_sums, np.ones(n))
        x2 = extract_assignment(flows, net)
        check_mass_windows(x2, net, inst)
        # integral support sits inside the fractional support
        assert np.all(rerouted.x[x2 > 0] > 0)


def test_medmeans_windows_bracket_point_count():
    rng = np.random.default_rng(41)
    for trial in range(8):
        n = int(rng.integers(5, 10))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        ds_sol, rerouted = _medmeans_stage(inst, window_gf(inst), "median")
        net = build_flow(rerouted, inst, "median")
        k = len(ds_sol.centers)
        assert net.rows.shape == (n + 2 * k + k, len(net.arcs))
        # every arc sits in one point row, one (center, color) row, one center row
        assert np.array_equal(np.asarray(net.rows.sum(axis=0)).ravel(),
                              np.full(len(net.arcs), 3.0))
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
            x2 = extract_assignment(min_cost_flow(net), net)
            check_mass_windows(x2, net, inst)
            measure = "median" if objective == "center" else objective
            rounded = fractional_cost(inst, _rounded(rerouted, x2), measure)
            frac = fractional_cost(inst, rerouted, measure)
            assert rounded <= frac + 1e-6


def test_min_cost_single_point():
    inst = line_instance([0.0, 3.0], [0, 1])
    # both points fully assigned to center 0
    rerouted = FractionalSolution(rows=np.array([0]), x=np.ones((1, 2)))
    net = build_flow(rerouted, inst, "means")
    x2 = extract_assignment(min_cost_flow(net), net)
    assert fractional_cost(inst, _rounded(rerouted, x2), "means") == pytest.approx(9.0)


def test_integral_passthrough_min_cost_mode():
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
        x2 = extract_assignment(min_cost_flow(net), net)
        # the windows pin every mass: the unique flow reproduces the input
        assert np.array_equal(x2, sol.x)
        assert fractional_cost(inst, _rounded(sol, x2), "median") == pytest.approx(
            fractional_cost(inst, sol, "median"))


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
    assert lines[:2] == ["arc 0 0 0.0", "arc 0 1 1.0"]
    assert "row p_1 1 1" in lines
    assert "row ch_0_1 1 1" in lines
    assert lines[-1] == "row c_0 2 2"


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
