import math
from itertools import combinations

import numpy as np
import pytest

from fairclus import (BudgetExceededError, CenterDiversitySpec,
                      ContractViolationError, DsSolverContract, ExactBackend,
                      InfeasibleError, SubprocessBackend, check_ds, ds_cost,
                      make_instance, random_instance, solve_ds_exact,
                      solve_ds_greedy, solve_ds_plugin)

from conftest import line_instance


def test_two_points_opposite_colors():
    inst = line_instance([0, 1], [0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    for objective in ("center", "median", "means"):
        sol = solve_ds_exact(inst, ds, objective)
        assert sol.centers == (0, 1)
        assert sol.cost == 0.0
        assert sol.alpha == 1.0


def test_four_point_line_radius_one():
    inst = line_instance([0, 1, 10, 11], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    sol = solve_ds_exact(inst, ds, "center")
    assert sol.cost == pytest.approx(1.0)
    # brute force over all C(4,2) center pairs confirms no feasible pair does better
    best = math.inf
    for combo in combinations(range(4), 2):
        if not check_ds(inst, combo, ds):
            continue
        best = min(best, ds_cost(inst, combo, "center"))
    assert best == pytest.approx(sol.cost)
    # one center from each tight pair, with opposite colors
    assert sol.centers in ((0, 3), (1, 2))


def test_exact_is_optimal_by_reenumeration():
    rng = np.random.default_rng(17)
    for trial in range(15):
        n = int(rng.integers(5, 10))
        m = 2
        inst = make_instance(rng.integers(0, m, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=m)
        counts = inst.color_counts()
        k = 2
        if counts[0] < 1 or counts[1] < 1:
            continue
        ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=k)
        for objective in ("center", "median", "means"):
            sol = solve_ds_exact(inst, ds, objective)
            for combo in combinations(range(n), k):
                if check_ds(inst, combo, ds):
                    assert ds_cost(inst, combo, objective) >= sol.cost - 1e-12


def test_exact_determinism():
    inst = random_instance(9, 2, seed=2)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(2, 2), k=3)
    a = solve_ds_exact(inst, ds, "median")
    b = solve_ds_exact(inst, ds, "median")
    assert a == b


def test_ds_cost_examples():
    inst = line_instance([0, 1, 2], [0, 0, 0])
    all_centers = [0, 1, 2]
    for objective in ("center", "median", "means"):
        assert ds_cost(inst, all_centers, objective) == 0.0
    # one center at 0, points at distances 1 and 2
    assert ds_cost(inst, [0], "center") == pytest.approx(2.0)
    assert ds_cost(inst, [0], "median") == pytest.approx(3.0)
    assert ds_cost(inst, [0], "means") == pytest.approx(5.0)


def test_ds_cost_matches_naive_loop():
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(4, 12))
        inst = make_instance(rng.integers(0, 2, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=2)
        k = int(rng.integers(1, n + 1))
        centers = sorted(rng.choice(n, size=k, replace=False).tolist())
        mins = [min(inst.distance(c, p) for c in centers) for p in range(n)]
        assert ds_cost(inst, centers, "center") == pytest.approx(max(mins))
        assert ds_cost(inst, centers, "median") == pytest.approx(sum(mins))
        assert ds_cost(inst, centers, "means") == pytest.approx(
            sum(v * v for v in mins))


def test_exact_budget_guard():
    inst = random_instance(20, 2, seed=4)
    ds = CenterDiversitySpec(lower=(0, 0), upper=(10, 10), k=10)
    with pytest.raises(BudgetExceededError):
        solve_ds_exact(inst, ds, "center", max_enumerations=100)


def test_exact_infeasible_spec():
    inst = line_instance([0, 1, 2], [0, 0, 1])
    # two centers of color 1 requested, only one such point exists
    ds = CenterDiversitySpec(lower=(0, 2), upper=(0, 2), k=2)
    with pytest.raises(InfeasibleError):
        solve_ds_exact(inst, ds, "center")


def test_greedy_feasible_and_deterministic():
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = int(rng.integers(10, 40))
        m = int(rng.integers(2, 4))
        inst = make_instance(rng.integers(0, m, size=n),
                             coords=rng.uniform(0, 1, (n, 2)), m=m)
        counts = inst.color_counts()
        if np.any(counts[:2] < 1):
            continue
        lower = [0] * m
        lower[0] = 1
        lower[1] = 1
        k = min(n, 4)
        upper = [k] * m
        ds = CenterDiversitySpec(lower=tuple(lower), upper=tuple(upper), k=k)
        a = solve_ds_greedy(inst, ds, "center")
        b = solve_ds_greedy(inst, ds, "center")
        assert a == b
        assert len(a.centers) == k
        assert check_ds(inst, a.centers, ds)
        assert a.alpha is None


def test_greedy_repair_shifts_colors():
    # farthest-first alone would pick both far points of color 0
    inst = line_instance([0.0, 0.1, 100.0, 100.1], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    sol = solve_ds_greedy(inst, ds, "center")
    assert check_ds(inst, sol.centers, ds)


def test_greedy_opens_distinct_centers_on_duplicate_points():
    # farthest-first once picked point 0 again when every remaining point
    # sat at distance 0, and the repair then failed on the repeated center
    for coords in ([[1.0, 1.0]] * 6, [[0.0], [0.0], [0.0], [5.0], [5.0], [5.0]]):
        inst = make_instance([0, 1, 0, 1, 0, 1], coords=coords)
        for k in (2, 3, 4):
            ds = CenterDiversitySpec(lower=(1, 1), upper=(k - 1, k - 1), k=k)
            sol = solve_ds_greedy(inst, ds, "center")
            assert len(set(sol.centers)) == k
            assert check_ds(inst, sol.centers, ds)


def test_greedy_repair_drops_every_center_of_an_unwanted_color():
    # farthest-first opens points 0 and 1, both of color 0, which may have no
    # center: dropping the last of them once failed on an empty min()
    inst = line_instance([0.0, 10.0, 4.0, 6.0], [0, 0, 1, 1])
    ds = CenterDiversitySpec(lower=(0, 2), upper=(0, 2), k=2)
    assert solve_ds_greedy(inst, ds, "center").centers == (2, 3)


class _BrokenCountBackend:
    contract = DsSolverContract(backend_id="broken-count", alpha={})

    def solve_raw(self, inst, ds, objective):
        return tuple(range(ds.k - 1)), None


class _BrokenColorBackend:
    contract = DsSolverContract(backend_id="broken-color", alpha={})

    def __init__(self, centers):
        self._centers = centers

    def solve_raw(self, inst, ds, objective):
        return self._centers, None


def test_plugin_matches_exact_backend():
    inst = random_instance(8, 2, seed=6)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    direct = solve_ds_exact(inst, ds, "means")
    via_plugin = solve_ds_plugin(inst, ds, "means", ExactBackend())
    assert via_plugin.centers == direct.centers
    assert via_plugin.cost == pytest.approx(direct.cost)


def test_plugin_contract_violations():
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    with pytest.raises(ContractViolationError, match="exactly k"):
        solve_ds_plugin(inst, ds, "center", _BrokenCountBackend())
    with pytest.raises(ContractViolationError, match="center-count"):
        solve_ds_plugin(inst, ds, "center", _BrokenColorBackend((0, 2)))
    with pytest.raises(ContractViolationError, match="out-of-range"):
        solve_ds_plugin(inst, ds, "center", _BrokenColorBackend((0, 9)))


def test_plugin_objective_capability():
    inst = line_instance([0, 1], [0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)

    class OnlyCenter:
        contract = DsSolverContract(backend_id="oc", alpha={"center": 3.0},
                                    objectives=("center",))

        def solve_raw(self, inst, ds, objective):
            return (0, 1), 3.0

    sol = solve_ds_plugin(inst, ds, "center", OnlyCenter())
    assert sol.alpha == 3.0
    with pytest.raises(ContractViolationError, match="does not support"):
        solve_ds_plugin(inst, ds, "median", OnlyCenter())


def test_plugin_cost_never_below_exact_optimum():
    # any compliant backend is at best optimal: recomputed cost >= exact cost
    rng = np.random.default_rng(41)
    for trial in range(10):
        inst = make_instance(rng.integers(0, 2, size=7),
                             coords=rng.uniform(0, 1, (7, 2)), m=2)
        counts = inst.color_counts()
        if counts[0] < 1 or counts[1] < 1:
            continue
        ds = CenterDiversitySpec(lower=(1, 1), upper=(6, 6), k=2)
        exact = solve_ds_exact(inst, ds, "median")

        feasible_sets = [c for c in combinations(range(7), 2)
                         if check_ds(inst, c, ds)]
        pick = feasible_sets[int(rng.integers(0, len(feasible_sets)))]

        class Fixed:
            contract = DsSolverContract(backend_id="fixed", alpha={})

            def solve_raw(self, inst, ds, objective):
                return pick, None

        sol = solve_ds_plugin(inst, ds, "median", Fixed())
        assert sol.cost >= exact.cost - 1e-12


def test_subprocess_backend(tmp_path):
    script = tmp_path / "backend.py"
    script.write_text(
        "import json, sys\n"
        "req = json.load(sys.stdin)\n"
        "inst = req['instance']\n"
        "# pick the lowest-id point of each color until k are chosen\n"
        "chosen, seen = [], set()\n"
        "for pid, color in enumerate(inst['colors']):\n"
        "    if color not in seen:\n"
        "        chosen.append(pid); seen.add(color)\n"
        "    if len(chosen) == req['k']:\n"
        "        break\n"
        "json.dump({'centers': chosen, 'alpha': 3.0}, sys.stdout)\n")
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    backend = SubprocessBackend(f"python3 {script}")
    sol = solve_ds_plugin(inst, ds, "center", backend)
    assert sol.centers == (0, 1)
    assert sol.alpha == 3.0
    assert sol.backend_id.startswith("subprocess:")


def test_subprocess_backend_failure(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("import sys; sys.exit(5)\n")
    inst = line_instance([0, 1], [0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    with pytest.raises(ContractViolationError, match="exited with 5"):
        solve_ds_plugin(inst, ds, "center", SubprocessBackend(f"python3 {script}"))
