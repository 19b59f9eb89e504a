import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairclus import (BudgetExceededError, CenterDiversitySpec,
                      ContractViolationError, ExactBackend, GreedyBackend,
                      InfeasibleError, SubprocessBackend, check_ds,
                      default_ds_profile, ds_cost, exact_gf_spec,
                      make_instance, random_instance, solve, solve_ds_plugin)
from fairclus import constraints
from fairclus.constraints import diverse_center_blocks

from conftest import line_instance


def test_two_points_opposite_colors():
    inst = line_instance([0, 1], [0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    for objective in ("center", "median", "means"):
        sol = solve_ds_plugin(inst, ds, objective, ExactBackend())
        assert sol.centers == (0, 1)
        assert sol.cost == 0.0
        assert sol.alpha == 1.0


def test_four_point_line_radius_one():
    inst = line_instance([0, 1, 10, 11], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    sol = solve_ds_plugin(inst, ds, "center", ExactBackend())
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
            sol = solve_ds_plugin(inst, ds, objective, ExactBackend())
            for combo in combinations(range(n), k):
                if check_ds(inst, combo, ds):
                    assert ds_cost(inst, combo, objective) >= sol.cost - 1e-12


def test_exact_determinism():
    inst = random_instance(9, 2, seed=2)
    ds = CenterDiversitySpec(lower=(1, 1), upper=(2, 2), k=3)
    a = solve_ds_plugin(inst, ds, "median", ExactBackend())
    b = solve_ds_plugin(inst, ds, "median", ExactBackend())
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


def test_exact_keeps_the_first_minimum_of_a_per_set_loop(monkeypatch):
    """Blocks scored at once pick the set, and the cost to the last bit, that
    a loop over the sets in lexicographic order keeps; integer coordinates
    give exact ties, and with 1024 cells per block n=20, k=4 spans many
    blocks and n=10, k=3 several."""
    monkeypatch.setattr(constraints, "GATHER_CELLS", 1 << 10)
    rng = np.random.default_rng(19)
    cases = [(random_instance(20, 2, seed=3), 4)]
    assert len(list(diverse_center_blocks(
        cases[0][0], CenterDiversitySpec(lower=(0, 0), upper=(4, 4), k=4)))) >= 2
    for _ in range(12):
        n = int(rng.integers(5, 11))
        cases.append((make_instance(np.arange(n) % 2, coords=rng.integers(0, 3, (n, 2)),
                                    m=2), int(rng.integers(1, 4))))
    for inst, k in cases:
        for ds in (default_ds_profile(inst, k),
                   CenterDiversitySpec(lower=(0, 0), upper=(k, k), k=k)):
            for objective in ("center", "median", "means"):
                best_cost, best_set = math.inf, None
                for combo in combinations(range(inst.n), k):
                    if check_ds(inst, combo, ds):
                        cost = ds_cost(inst, combo, objective)
                        if cost < best_cost:
                            best_cost, best_set = cost, combo
                sol = solve_ds_plugin(inst, ds, objective, ExactBackend())
                assert (sol.centers, sol.cost) == (best_set, best_cost)


def test_exact_budget_guard():
    # C(30, 15) = 155117520 sets exceed EXACT_ENUMERATION_BUDGET
    inst = random_instance(30, 2, seed=4)
    ds = CenterDiversitySpec(lower=(0, 0), upper=(15, 15), k=15)
    with pytest.raises(BudgetExceededError, match="exact enumeration budget"):
        solve_ds_plugin(inst, ds, "center", ExactBackend())


def test_exact_infeasible_spec():
    inst = line_instance([0, 1, 2], [0, 0, 1])
    # two centers of color 1 requested, only one such point exists
    ds = CenterDiversitySpec(lower=(0, 2), upper=(0, 2), k=2)
    with pytest.raises(InfeasibleError):
        solve_ds_plugin(inst, ds, "center", ExactBackend())


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
        a = solve_ds_plugin(inst, ds, "center", GreedyBackend())
        b = solve_ds_plugin(inst, ds, "center", GreedyBackend())
        assert a == b
        assert len(a.centers) == k
        assert check_ds(inst, a.centers, ds)
        assert a.alpha is None


def test_greedy_repair_shifts_colors():
    # farthest-first alone would pick both far points of color 0
    inst = line_instance([0.0, 0.1, 100.0, 100.1], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    sol = solve_ds_plugin(inst, ds, "center", GreedyBackend())
    assert check_ds(inst, sol.centers, ds)


def test_greedy_opens_distinct_centers_on_duplicate_points():
    # farthest-first once picked point 0 again when every remaining point
    # sat at distance 0, and the repair then failed on the repeated center
    for coords in ([[1.0, 1.0]] * 6, [[0.0], [0.0], [0.0], [5.0], [5.0], [5.0]]):
        inst = make_instance([0, 1, 0, 1, 0, 1], coords=coords)
        for k in (2, 3, 4):
            ds = CenterDiversitySpec(lower=(1, 1), upper=(k - 1, k - 1), k=k)
            sol = solve_ds_plugin(inst, ds, "center", GreedyBackend())
            assert len(set(sol.centers)) == k
            assert check_ds(inst, sol.centers, ds)


def test_greedy_repair_drops_every_center_of_an_unwanted_color():
    # farthest-first opens points 0 and 1, both of color 0, which may have no
    # center: dropping the last of them once failed on an empty min()
    inst = line_instance([0.0, 10.0, 4.0, 6.0], [0, 0, 1, 1])
    ds = CenterDiversitySpec(lower=(0, 2), upper=(0, 2), k=2)
    assert solve_ds_plugin(inst, ds, "center", GreedyBackend()).centers == (2, 3)


@st.composite
def _greedy_cases(draw):
    """n <= 8 integer points (ties, duplicates), m <= 3 colors (some absent),
    count windows with U_h = 0 allowed, and k up to past n."""
    n, m, dim = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    coords = draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    lower = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    upper = [lo + draw(st.integers(0, 2)) for lo in lower]
    assume(sum(upper) >= max(1, sum(lower)))
    k = draw(st.integers(max(1, sum(lower)), sum(upper)))
    inst = make_instance(colors, coords=coords, m=m)
    ds = CenterDiversitySpec(lower=tuple(lower), upper=tuple(upper), k=k)
    return inst, ds, draw(st.sampled_from(("center", "median", "means")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_greedy_cases())
def test_greedy_succeeds_exactly_when_a_feasible_set_exists(case):
    """The greedy pass succeeds exactly when a feasible center set exists,
    and a second run returns the same solution or refuses the same
    request."""
    inst, ds, objective = case
    exists = any(True for _ in diverse_center_blocks(inst, ds))
    try:
        sol = solve_ds_plugin(inst, ds, objective, GreedyBackend())
    except InfeasibleError as exc:
        assert not exists
        assert exc.diagnosis
        with pytest.raises(InfeasibleError):
            solve_ds_plugin(inst, ds, objective, GreedyBackend())
        return
    assert exists
    assert len(set(sol.centers)) == ds.k
    assert check_ds(inst, sol.centers, ds)
    assert solve_ds_plugin(inst, ds, objective, GreedyBackend()) == sol


class _BrokenCountBackend:
    backend_id = "broken-count"

    def solve_raw(self, inst, ds, objective):
        return tuple(range(ds.k - 1)), None


class _Answers:
    backend_id = "answers"

    def __init__(self, centers, alpha=None):
        self.answer = centers, alpha

    def solve_raw(self, inst, ds, objective):
        return self.answer


def test_plugin_contract_violations():
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    with pytest.raises(ContractViolationError, match="exactly k"):
        solve_ds_plugin(inst, ds, "center", _BrokenCountBackend())
    with pytest.raises(ContractViolationError, match="center-count"):
        solve_ds_plugin(inst, ds, "center", _Answers((0, 2)))
    with pytest.raises(ContractViolationError, match="out-of-range"):
        solve_ds_plugin(inst, ds, "center", _Answers((0, 9)))


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
        exact = solve_ds_plugin(inst, ds, "median", ExactBackend())

        feasible_sets = [c for c in combinations(range(7), 2)
                         if check_ds(inst, c, ds)]
        pick = feasible_sets[int(rng.integers(0, len(feasible_sets)))]

        class Fixed:
            backend_id = "fixed"

            def solve_raw(self, inst, ds, objective):
                return pick, None

        sol = solve_ds_plugin(inst, ds, "median", Fixed())
        assert sol.cost >= exact.cost - 1e-12


@pytest.mark.parametrize("answer", [
    {"centers": [0.6, 1.9], "alpha": True},
    {"centers": "01", "alpha": "2.5"},
    {"centers": [True, 2]},
    {"centers": [0, 1], "alpha": True},
    {"centers": [0, 1], "alpha": "2.5"},
    {"centers": [0, 1], "alpha": 10 ** 400},
    {"centers": 1},
])
def test_plugin_refuses_ids_that_are_not_integers_and_factors_that_are_not_numbers(
        tmp_path, answer):
    """Answers a coercing plugin once read as a valid solution ((0, 1) or
    (1, 2), with factor 1 or 2.5) are refused, from a subprocess and from a
    Python backend alike."""
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    script = tmp_path / "backend.py"
    script.write_text(f"print({json.dumps(answer)!r})\n")
    for backend in (SubprocessBackend(f"python3 {script}"),
                    _Answers(answer["centers"], answer.get("alpha"))):
        with pytest.raises(ContractViolationError,
                           match="integer point ids|claimed factor"):
            solve_ds_plugin(inst, ds, "center", backend)


def test_plugin_takes_numpy_ids_and_any_real_factor_as_a_float():
    inst = line_instance([0, 1, 2, 3], [0, 1, 0, 1])
    ds = CenterDiversitySpec(lower=(1, 1), upper=(1, 1), k=2)
    for alpha in (2, np.float32(2.0), np.int64(2)):
        sol = solve_ds_plugin(inst, ds, "center", _Answers(np.array([3, 0]), alpha))
        assert sol.centers == (0, 3) and all(type(c) is int for c in sol.centers)
        assert type(sol.alpha) is float and sol.alpha == 2.0


class _Claims:
    backend_id = "claims"

    def __init__(self, alpha):
        self.alpha = alpha

    def solve_raw(self, inst, ds, objective):
        return ExactBackend().solve_raw(inst, ds, objective)[0], self.alpha


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.5])
def test_plugin_refuses_a_factor_that_is_not_finite_and_at_least_one(alpha):
    """Exact centers with a bad claim: refused at the DS stage, never a
    report with a NaN or infinite factor."""
    inst = random_instance(8, 2, seed=11)
    ds = default_ds_profile(inst, 2)
    with pytest.raises(ContractViolationError, match="claimed factor"):
        solve_ds_plugin(inst, ds, "median", _Claims(alpha))
    with pytest.raises(ContractViolationError, match="claimed factor"):
        solve(inst, exact_gf_spec(inst), ds, "median", backend=_Claims(alpha))
    assert solve_ds_plugin(inst, ds, "median", _Claims(1.0)).alpha == 1.0


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
