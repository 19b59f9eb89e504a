import math

import numpy as np
import pytest

from fairclus import (CenterDiversitySpec, PipelineError, fractional_cost,
                      make_instance, reroute_center, reroute_medmeans,
                      solve_ds_exact, solve_lp)
from fairclus.flow import (FlowArc, FlowNetwork, build_center_flow,
                           build_medmeans_flow, check_mass_windows,
                           dump_flow_text, extract_assignment,
                           max_flow_with_lower_bounds, min_cost_flow,
                           snap_to_integer)
from fairclus.lp import (FractionalSolution, build_gf_feasibility_lp,
                         build_gf_objective_lp, solution_from_clustering)
from fairclus import min_feasible_lambda, pairwise_distance_set

from conftest import line_instance, window_gf


def test_snap_to_integer():
    assert snap_to_integer(2.0 - 1e-12) == 2.0
    assert snap_to_integer(2.0 + 1e-12) == 2.0
    assert snap_to_integer(2.4) == 2.4
    assert math.floor(snap_to_integer(2.0 - 1e-12)) == 2


def test_floor_ceil_window_arithmetic():
    # one center, per-color masses 2.4 (color 0) and 1.6 (color 1)
    inst = make_instance([0, 0, 0, 0, 1, 1, 1, 1],
                         coords=[[float(i)] for i in range(8)])
    x = np.zeros((8, 8))
    x[0, :4] = 0.6   # 2.4 units of color 0
    x[0, 4:] = 0.4   # 1.6 units of color 1
    rerouted = FractionalSolution(x=x, y=np.eye(8)[0])
    net = build_center_flow(rerouted, [0], inst)
    bounds = {(a.tail, a.head): (a.lower, a.upper) for a in net.arcs}
    assert bounds[(("ch", 0, 0), ("c", 0))] == (2, 3)
    assert bounds[(("ch", 0, 1), ("c", 0))] == (1, 2)
    assert bounds[(("c", 0), "t")] == (4, 4)


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
        net = build_center_flow(sol, centers, inst)
        # all windows collapse to the exact integral masses
        for arc in net.arcs:
            if isinstance(arc.tail, tuple) and arc.tail[0] == "ch":
                assert arc.lower == arc.upper
        flows = max_flow_with_lower_bounds(net)
        x2 = extract_assignment(flows, net)
        assert np.array_equal(x2, sol.x)
        check_mass_windows(x2, net, inst)


def test_infeasible_lower_bound_raises():
    net = FlowNetwork(kind="center", n=1, centers=(0,), m=1, arcs=[
        FlowArc("s", ("p", 0), 0, 1),
        # no assignment arc feeds this center, yet it must serve one point
        FlowArc(("ch", 0, 0), ("c", 0), 0, 0),
        FlowArc(("c", 0), "t", 1, 1),
    ], color_mass={(0, 0): 0.0}, total_mass={0: 1.0})
    with pytest.raises(PipelineError, match="flow"):
        max_flow_with_lower_bounds(net)


def _center_stage(inst, gf, k):
    counts = inst.color_counts()
    lower = tuple(1 if counts[h] > 0 else 0 for h in range(inst.m))
    if sum(lower) > k:
        lower = (0,) * inst.m
    ds = CenterDiversitySpec(lower=lower, upper=(k,) * inst.m, k=k)
    ds_sol = solve_ds_exact(inst, ds, "center")
    radii = pairwise_distance_set(inst)
    lam = max(min_feasible_lambda(inst, gf, k, radii).radius, ds_sol.cost)
    sol = solve_lp(build_gf_feasibility_lp(inst, gf, k, lam), inst, gf)
    rerouted, _ = reroute_center(inst, sol, ds_sol.centers)
    return ds_sol, rerouted


def test_center_flow_always_saturates():
    rng = np.random.default_rng(37)
    for trial in range(10):
        n = int(rng.integers(5, 11))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        ds_sol, rerouted = _center_stage(inst, gf, 2)
        net = build_center_flow(rerouted, ds_sol.centers, inst)
        flows = max_flow_with_lower_bounds(net)
        # flow value |P|: every source arc saturated
        assert all(flows[("s", ("p", j))] == 1 for j in range(n))
        x2 = extract_assignment(flows, net)
        check_mass_windows(x2, net, inst)
        # integral support sits inside the fractional support
        assert np.all(rerouted.x[x2 > 0] > 0)


def test_medmeans_balances_telescope_to_zero():
    rng = np.random.default_rng(41)
    for trial in range(8):
        n = int(rng.integers(5, 10))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
        ds_sol = solve_ds_exact(inst, ds, "median")
        sol = solve_lp(build_gf_objective_lp(inst, gf, 2, "median"), inst, gf)
        rerouted, _ = reroute_medmeans(inst, sol, ds_sol.centers)
        net = build_medmeans_flow(rerouted, ds_sol.centers, inst, "median")
        assert sum(net.balances.values()) == 0
        assert net.balances["s"] == n


def test_min_cost_never_exceeds_fractional_cost():
    rng = np.random.default_rng(43)
    for trial in range(10):
        n = int(rng.integers(5, 10))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        gf = window_gf(inst)
        ds = CenterDiversitySpec(lower=(0, 0), upper=(2, 2), k=2)
        for objective in ("median", "means"):
            ds_sol = solve_ds_exact(inst, ds, objective)
            sol = solve_lp(build_gf_objective_lp(inst, gf, 2, objective), inst, gf)
            rerouted, _ = reroute_medmeans(inst, sol, ds_sol.centers)
            net = build_medmeans_flow(rerouted, ds_sol.centers, inst, objective)
            flows = min_cost_flow(net)
            x2 = extract_assignment(flows, net)
            check_mass_windows(x2, net, inst)
            rounded = fractional_cost(inst, x2, objective)
            frac = fractional_cost(inst, rerouted.x, objective)
            assert rounded <= frac + 1e-6


def test_min_cost_single_point():
    inst = line_instance([0.0, 3.0], [0, 1])
    x = np.zeros((2, 2))
    x[0, :] = 1.0  # both points fully assigned to center 0
    rerouted = FractionalSolution(x=x, y=np.array([1.0, 0.0]))
    net = build_medmeans_flow(rerouted, [0], inst, "means")
    flows = min_cost_flow(net)
    x2 = extract_assignment(flows, net)
    assert fractional_cost(inst, x2, "means") == pytest.approx(9.0)


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
        net = build_medmeans_flow(sol, centers, inst, "median")
        flows = min_cost_flow(net)
        x2 = extract_assignment(flows, net)
        # balances pin every mass: the unique flow reproduces the input
        assert np.array_equal(x2, sol.x)
        assert fractional_cost(inst, x2, "median") == pytest.approx(
            fractional_cost(inst, sol.x, "median"))


def test_extraction_rejects_unassigned_points():
    net = FlowNetwork(kind="center", n=2, centers=(0,), m=1, arcs=[],
                      color_mass={}, total_mass={})
    flows = {("s", ("p", 0)): 1, (("p", 0), ("ch", 0, 0)): 1}
    with pytest.raises(PipelineError, match="assigned"):
        extract_assignment(flows, net)


def test_dump_flow_text():
    import io
    inst = line_instance([0, 1], [0, 1])
    x = np.zeros((2, 2))
    x[0, :] = 1.0
    net = build_medmeans_flow(FractionalSolution(x=x, y=np.array([1.0, 0.0])),
                              [0], inst, "median")
    buf = io.StringIO()
    dump_flow_text(net, buf)
    lines = buf.getvalue().strip().splitlines()
    assert any(line.startswith("s p_0 0 1 0") for line in lines)
    assert any(line.startswith("balance s 2") for line in lines)
