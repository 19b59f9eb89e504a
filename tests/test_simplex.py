"""The in-package dual simplex against HiGHS, on the pivot-form models of
``lp``: each model is solved under the simplex's size gate and, with the
gate patched to 0, by HiGHS."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairclus import (build_gf_feasibility_lp, build_gf_objective_lp, exact_gf_spec,
                      fractional_cost, make_instance, min_feasible_lambda, solve_lp)
from fairclus import lp as lp_module
from fairclus import simplex
from fairclus.lp import RESIDUAL_TOL, check_lp_solution

from conftest import line_instance, window_gf


def _with_highs(monkeypatch, call):
    """``call()`` with every model above the simplex's size gate."""
    with monkeypatch.context() as patched:
        patched.setattr(lp_module, "_SIMPLEX_CELLS", 0)
        return call()


def _column_values(model):
    """The simplex's run on a model, as ``lp._solve_columns`` makes it."""
    c = np.ldexp(model.c, 1 - np.frexp(model.c.max())[1])
    return simplex.solve(model.a.toarray(), model.lo, model.hi, c, RESIDUAL_TOL)


@st.composite
def _models(draw):
    """A pivot-form model: n 6-40 points of m 2-3 balanced colors, uniform in
    the unit square or on a 4 x 4 integer grid (so with duplicate points),
    scaled by 2^-20, 1 or 2^20; an exact or a window spec; k 2-5 random
    centers; a median, means or radius-probe model, the probe at a random
    candidate radius."""
    n, k, m = draw(st.integers(6, 40)), draw(st.integers(2, 5)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    colors = rng.permutation(np.arange(n) % m)
    grid = draw(st.booleans())
    coords = rng.integers(0, 4, (n, 2)).astype(float) if grid else rng.uniform(0, 1, (n, 2))
    inst = make_instance(colors, coords=coords * 2.0 ** draw(st.sampled_from([-20, 0, 20])),
                         m=m)
    gf = exact_gf_spec(inst) if draw(st.booleans()) else window_gf(inst)
    centers = sorted(rng.choice(n, size=k, replace=False).tolist())
    kind = draw(st.sampled_from(["median", "means", "radius"]))
    if kind == "radius":
        radii = np.unique(inst.distance_matrix()[centers])
        lam = float(radii[draw(st.integers(0, radii.size - 1))])
        return inst, gf, centers, kind, build_gf_feasibility_lp(inst, gf, centers, lam)
    return inst, gf, centers, kind, build_gf_objective_lp(inst, gf, centers, kind)


def test_simplex_matches_highs(monkeypatch):
    """Same verdict as HiGHS; the same optimum within RESIDUAL_TOL relative;
    the scattered solution holds every row and bound; the simplex's answer is a
    basic solution, with no more columns strictly inside their bounds than
    rows; and the radius search finds HiGHS's radius."""
    seen = Counter()

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_models())
    def check(case):
        inst, gf, centers, kind, model = case
        got = solve_lp(model)
        want = _with_highs(monkeypatch, lambda: solve_lp(model))
        assert (got is None) == (want is None)
        seen[kind if kind != "radius" else "infeasible" if got is None else "feasible"] += 1
        if got is not None:
            check_lp_solution(model, got, inst, gf)
            if kind != "radius":
                assert fractional_cost(inst, got, kind) == pytest.approx(
                    fractional_cost(inst, want, kind), rel=RESIDUAL_TOL, abs=0.0)
        if model.ncols and (model.pivot >= 0).all():
            run = _column_values(model)
            assert run.verdict == ("infeasible" if got is None else "optimal")
            seen["pivoted"] += run.pivots > 0
            if run.y is not None:
                inside = (run.y > simplex.PRIMAL_TOL) & (run.y < 1.0 - simplex.PRIMAL_TOL)
                assert inside.sum() <= model.a.shape[0]
        if kind == "radius":
            found = min_feasible_lambda(inst, gf, centers)
            again = _with_highs(monkeypatch, lambda: min_feasible_lambda(inst, gf, centers))
            assert (found and found.radius) == (again and again.radius)

    check()
    assert min(seen.values()) >= 20 and len(seen) == 5, seen


def _median_model():
    """An n=30, k=4 median model whose nearest assignment breaks a ratio
    row, so the simplex pivots."""
    rng = np.random.default_rng(3)
    inst = make_instance(rng.permutation(np.arange(30) % 2), coords=rng.uniform(0, 1, (30, 2)))
    gf = exact_gf_spec(inst)
    return inst, gf, build_gf_objective_lp(inst, gf, [0, 1, 2, 3], "median")


@pytest.mark.parametrize("doctor", ["pivot limit", "reduced costs", "refactor"])
def test_a_run_without_a_verdict_falls_back_to_highs(monkeypatch, doctor):
    """A pivot limit of 1, or a dual tolerance below 0 that no reduced cost
    can meet, leaves the simplex without a verdict, and HiGHS returns its
    own answer, byte for byte. Refactoring B^-1 at every pivot changes
    nothing but rounding."""
    inst, gf, model = _median_model()
    assert _column_values(model).pivots > 1
    want = _with_highs(monkeypatch, lambda: solve_lp(model))
    if doctor == "pivot limit":
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    elif doctor == "reduced costs":
        monkeypatch.setattr(simplex, "DUAL_TOL", -1.0)
    else:
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", 1)
    run = _column_values(model)
    assert run.verdict == {"pivot limit": "pivot limit", "reduced costs": "reduced costs",
                           "refactor": "optimal"}[doctor]
    got = solve_lp(model)
    check_lp_solution(model, got, inst, gf)
    if doctor == "refactor":
        assert fractional_cost(inst, got, "median") == pytest.approx(
            fractional_cost(inst, want, "median"), rel=RESIDUAL_TOL)
    else:
        assert got.x.tobytes() == want.x.tobytes()


def test_an_infeasible_probe_is_certified_by_its_farkas_row(monkeypatch):
    """At radius 3 the two centers, at 8 and 2 on a line, each need as many
    points of color 0 as of color 1, but only the points at 5 and 6 may move
    between them: the simplex stops after a pivot with no column to enter,
    and the Farkas row proves that no point meets every row within
    RESIDUAL_TOL. With a slack too wide for that proof, or the check
    doctored to fail, the run gives no verdict and HiGHS says infeasible."""
    inst = line_instance([8, 6, 5, 2, 3, 0], [0, 0, 0, 1, 1, 1])
    gf = exact_gf_spec(inst)
    model = build_gf_feasibility_lp(inst, gf, [0, 3], 3.0)
    assert model.ncols > 0 and (model.pivot >= 0).all()
    run = _column_values(model)
    assert (run.verdict, run.pivots) == ("infeasible", 1)
    wide = simplex.solve(model.a.toarray(), model.lo, model.hi, model.c, 10.0)
    assert wide.verdict == "Farkas row"
    highs = []
    milp = lp_module.milp
    monkeypatch.setattr(lp_module, "milp", lambda *a, **kw: highs.append(1) or milp(*a, **kw))
    assert solve_lp(model) is None and not highs
    monkeypatch.setattr(simplex, "_farkas", lambda *args: simplex.Outcome("Farkas row", None, 1))
    assert solve_lp(model) is None and highs == [1]


def test_cost_lps_and_fallbacks_log_one_debug_record_each(caplog, monkeypatch):
    """A cost LP logs one record naming the simplex and its pivot count; a
    fallback names HiGHS and why the simplex gave no verdict; a model above
    the size gate names HiGHS alone."""
    _, _, model = _median_model()
    pivots = _column_values(model).pivots
    with caplog.at_level("DEBUG", logger="fairclus"):
        solve_lp(model)
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        solve_lp(model)
        monkeypatch.setattr(lp_module, "_SIMPLEX_CELLS", 0)
        solve_lp(model)
    head = f"uncapped LP: {model.n} points, {model.ncols} columns, "
    assert [r.getMessage() for r in caplog.records if r.name == "fairclus"] == [
        head + f"simplex, {pivots} pivots, optimal",
        head + "HiGHS after the simplex's pivot limit at 1 pivots, optimal",
        head + "HiGHS, optimal"]
