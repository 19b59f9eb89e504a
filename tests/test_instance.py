import decimal
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairclus import (ParseError, ValidationError, instance_to_dict,
                      load_instance, make_instance, pairwise_distance_set,
                      random_instance)

from conftest import line_instance


def test_collinear_points_euclidean():
    inst = line_instance([0, 1, 2], [0, 1, 0])
    assert inst.distance(0, 2) == pytest.approx(2.0)
    assert inst.distance(0, 0) == 0.0


def test_explicit_matrix_roundtrip():
    inst = make_instance([0, 1], dist=[[0, 1], [1, 0]])
    assert inst.n == 2
    assert inst.distance(0, 1) == 1.0
    assert inst.distance(1, 0) == 1.0


@pytest.mark.parametrize("colors, bad", [
    ([0.7, 1.2, 0, 1], "0.7 of point 0"), ([0, 1.0, 0, 1], "1.0 of point 1"),
    ([0, True, 0, 1], "True of point 1"), ([0, 1, "0", 1], "'0' of point 2"),
    (np.array([0.0, 1.0, 0.0, 1.0]), "0.0 of point 0"),
    (np.array([False, True, False, True]), "False of point 0")])
def test_color_labels_must_be_integers(colors, bad):
    """Labels 0.7 and 1.2 used to load as 0 and 1, and bools and strings
    were read as numbers."""
    coords = [[0], [1], [2], [3]]
    with pytest.raises(ValidationError, match=f"color label {bad} is not an integer"):
        make_instance(colors, coords=coords, m=2)
    if isinstance(colors, list):
        text = json.dumps({"n": 4, "m": 2, "colors": colors, "coords": coords})
        with pytest.raises(ValidationError, match=f"color label {bad} is not an integer"):
            load_instance(io.StringIO(text), "json")
    for labels in ([np.int64(0), 1, 0, 1], np.array([0, 1, 0, 1], dtype=np.uint8)):
        assert make_instance(labels, coords=coords).colors.tolist() == [0, 1, 0, 1]


def test_a_label_past_int64_is_a_parse_error():
    """It used to end in OverflowError with a traceback."""
    text = json.dumps({"n": 2, "m": 2, "colors": [10 ** 30, 1], "coords": [[0], [1]]})
    with pytest.raises(ParseError, match="invalid instance JSON"):
        load_instance(io.StringIO(text), "json")


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"], []])
def test_color_names_must_name_every_color(names):
    """A color_names list shorter than m used to load, and a report naming
    color 1 then ended in IndexError."""
    colors, coords = [0, 1, 0, 1], [[0], [1], [2], [3]]
    with pytest.raises(ValidationError, match=f"color_names has {len(names)} names, expected m=2"):
        make_instance(colors, coords=coords, color_names=names)
    text = json.dumps({"n": 4, "m": 2, "colors": colors, "coords": coords,
                       "color_names": names})
    with pytest.raises(ValidationError, match="color_names has"):
        load_instance(io.StringIO(text), "json")
    assert make_instance(colors, coords=coords, color_names=["a", "b"]).color_names == ("a", "b")


def test_triangle_violation_names_triple():
    with pytest.raises(ValidationError, match=r"\(0, 1, 2\)"):
        make_instance([0, 0, 0], dist=[[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_sampled_triangle_check_reports_the_first_sampled_violation():
    """Above n = 200 the triangle inequality is tested on 50n random
    triples from ``default_rng(0)``; with one planted violation at n = 300,
    the triple reported is the first violating one in sample order, as a
    loop over the samples finds it."""
    n = 300
    d = np.abs(np.arange(n, dtype=float)[:, None] - np.arange(n, dtype=float))
    triples = np.random.default_rng(0).integers(0, n, size=(50 * n, 3))
    i, l, j = next(t for t in triples[1000:] if len(set(t.tolist())) == 3)
    d[i, j] = d[j, i] = 10.0 * n  # breaks d(i,j) <= d(i,l) + d(l,j) for every l
    want = next((a, b, c) for a, b, c in triples if d[a, b] + d[b, c] < d[a, c])
    with pytest.raises(ValidationError, match=re.escape(
            "triangle inequality violated for triple ({}, {}, {})".format(*want))):
        make_instance(np.arange(n) % 2, dist=d)


@pytest.mark.parametrize("table, message", [
    ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], r"triangle inequality violated for triple \(0, 1, 2\)"),
    ([[0, 1], [2, 0]], "asymmetric"),
    ([[0.5, 1], [1, 0]], "not 0"),
    ([[0, -1], [-1, 0]], "negative distance"),
])
def test_metric_checks_are_scale_free(table, message):
    """Each metric check's tolerance is EPS_D times the largest distance: a
    table that breaks an axiom is refused at 1e-12 times its scale as at
    scale 1; an absolute EPS_D would let d(0,1) = d(1,2) = 1e-12,
    d(0,2) = 5e-12 through."""
    colors = [0] * len(table)
    for s in (1.0, 1e-12, 2.0 ** 20):
        with pytest.raises(ValidationError, match=message):
            make_instance(colors, dist=np.array(table, dtype=float) * s)


def test_a_metric_table_loads_at_any_scale():
    base = random_instance(30, 2, seed=5)
    for e in (-20, 20):
        inst = make_instance(base.colors, dist=base.distance_matrix() * 2.0 ** e)
        assert np.array_equal(inst.distance_matrix(), base.distance_matrix() * 2.0 ** e)


@pytest.mark.filterwarnings("error")
def test_euclidean_distances_at_any_coordinate_scale():
    """Coordinates are scaled by a power of two before they are squared:
    at 1e155 the squares once overflowed to a NaN table, and at 1e-170 they
    underflowed, giving distinct points distance 0. Both scalings are exact,
    so the line 0, 1, 2, 3 scaled by a power of two gives its distances
    times the scale, bit for bit."""
    line = np.array([[0.0], [1.0], [2.0], [3.0]])
    want = np.abs(line - line.T)
    for s in (1e155, 1e-170):
        inst = make_instance([0, 1, 0, 1], coords=line * s)
        assert np.allclose(inst.distance_matrix(), want * s, rtol=1e-15, atol=0.0), s
    for e in (520, 1000, -570, -1060, 0):
        inst = make_instance([0, 1, 0, 1], coords=line * 2.0 ** e)
        assert np.array_equal(inst.distance_matrix(), want * 2.0 ** e), e


def test_duplicate_points_are_at_distance_zero():
    """The Gram identity |x|^2 + |y|^2 - 2x.y once put these two copies
    1.35e-6 apart."""
    inst = make_instance([0, 1, 0], coords=[[43.1, 58.7], [43.1, 58.7], [73.8, 95.6]], m=2)
    assert inst.distance(0, 1) == 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_duplicated_rows_have_distance_zero_and_equal_rows(n, dim, seed):
    """Each point is followed by a copy of itself: every copy is at
    distance 0 from its original and has the original's row of the table,
    bit for bit."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-100.0, 100.0, (n, dim)) * 2.0 ** rng.integers(-30, 31)
    inst = make_instance(np.arange(2 * n) % 2, coords=np.repeat(base, 2, axis=0))
    d = inst.distance_matrix()
    assert (d[0::2, 1::2].diagonal() == 0.0).all()
    assert np.array_equal(d[0::2], d[1::2])


def test_near_points_far_from_the_origin_keep_exact_distances():
    """200 points within 1e-6 of (3, 4): every distance is within 1e-15
    relative of the exact root of the rational sum of squared coordinate
    differences, and the triangle inequality holds within 4 ulps of each
    two-edge path. The Gram identity gave relative errors up to 1.69."""
    pts = np.array([3.0, 4.0]) + np.random.default_rng(0).uniform(-1e-6, 1e-6, (200, 2))
    d = make_instance(np.arange(200) % 2, coords=pts).distance_matrix()
    exact = [[Fraction(v) for v in p] for p in pts]
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for i, j in itertools.combinations(range(200), 2):
            sq = sum((a - b) ** 2 for a, b in zip(exact[i], exact[j]))
            want = (decimal.Decimal(sq.numerator) / sq.denominator).sqrt()
            assert abs(decimal.Decimal(d[i, j]) - want) <= want * decimal.Decimal("1e-15"), (i, j)
    for l in range(200):
        assert (d <= (d[:, l, None] + d[l]) * (1 + 4 * np.finfo(float).eps)).all(), l


def test_coordinate_table_has_the_same_bytes_under_every_blas_kernel():
    """One 300 x 3 table built under OpenBLAS's default kernel and under
    ``OPENBLAS_CORETYPE=Prescott`` has the same bytes: no BLAS routine
    touches it. Where numpy does not use OpenBLAS the variable does
    nothing, and this passes trivially."""
    import fairclus
    src = os.path.dirname(os.path.dirname(fairclus.__file__))
    code = ("import hashlib, numpy as np; from fairclus import make_instance; "
            "c = np.random.default_rng(1).uniform(-1, 1, (300, 3)); "
            "t = make_instance(np.arange(300) % 2, coords=c).distance_matrix(); "
            "print(hashlib.sha256(t.tobytes()).hexdigest())")

    def digest(kernel):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env=env, timeout=120).stdout

    assert digest(None) == digest("Prescott")


@pytest.mark.filterwarnings("error")
def test_a_distance_that_overflows_is_refused():
    """Finite coordinates whose distance passes the largest float are
    refused in one line, with no RuntimeWarning."""
    with pytest.raises(ValidationError, match=r"distance d\(0,1\) overflows"):
        make_instance([0, 0], coords=[[-1.7e308], [1.7e308]])


def test_colors_and_coords_must_have_their_shapes():
    """A 2-D integer array of colors used to pass as an instance whose
    colors had that shape, and coordinates with no column ended in a bare
    ValueError."""
    with pytest.raises(ValidationError, match=r"one label per point, got shape \(2, 2\)"):
        make_instance(np.zeros((2, 2), int), coords=np.zeros((2, 1)))
    with pytest.raises(ValidationError, match=r"dim >= 1, got \(2, 0\)"):
        make_instance([0, 1], coords=np.zeros((2, 0)))


def test_asymmetry_rejected():
    with pytest.raises(ValidationError, match="asymmetric"):
        make_instance([0, 0], dist=[[0, 1], [2, 0]])


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError, match="not 0"):
        make_instance([0, 0], dist=[[0.5, 1], [1, 0]])


def test_color_out_of_range():
    with pytest.raises(ValidationError, match="color label"):
        make_instance([0, 3], m=2, dist=[[0, 1], [1, 0]])


@pytest.mark.parametrize("m", [2.5, 3.0, "3", True])
def test_color_count_must_be_an_integer(m):
    """An m of 2.5 used to load as m=2 while a point had color 2."""
    colors, coords = [0, 1, 2, 1], [[0], [1], [2], [3]]
    with pytest.raises(ValidationError, match="color count m must be an integer"):
        make_instance(colors, coords=coords, m=m)
    text = json.dumps({"n": 4, "m": m, "colors": colors, "coords": coords})
    with pytest.raises(ValidationError, match="color count m must be an integer"):
        load_instance(io.StringIO(text), "json")
    assert make_instance(colors, coords=coords, m=np.int64(3)).m == 3


def test_pairwise_distance_set_trivial():
    inst = make_instance([0, 1], dist=[[0, 1], [1, 0]])
    assert pairwise_distance_set(inst).tolist() == [0.0, 1.0]


def test_pairwise_distance_set_unit_square():
    inst = make_instance([0, 0, 1, 1],
                         coords=[[0, 0], [1, 0], [0, 1], [1, 1]])
    got = pairwise_distance_set(inst)
    assert np.allclose(got, [0.0, 1.0, math.sqrt(2.0)])


def test_pairwise_distance_set_matches_bruteforce():
    inst = random_instance(5, 2, seed=3)
    expected = {0.0}
    for i, j in itertools.combinations(range(5), 2):
        expected.add(inst.distance(i, j))
    got = pairwise_distance_set(inst)
    assert sorted(expected) == pytest.approx(got.tolist())
    assert len(got) <= 5 * 4 // 2 + 1


def test_pairwise_distance_set_invariant_under_reordering():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        coords = rng.uniform(0, 1, size=(n, 2))
        colors = rng.integers(0, 2, size=n)
        inst = make_instance(colors, coords=coords)
        perm = rng.permutation(n)
        inst_p = make_instance(colors[perm], coords=coords[perm])
        assert np.allclose(pairwise_distance_set(inst),
                           pairwise_distance_set(inst_p))


def test_distance_euclidean_345():
    inst = make_instance([0, 1], coords=[[0, 0], [3, 4]])
    assert inst.distance(0, 1) == pytest.approx(5.0)


def test_distance_index_error():
    inst = make_instance([0, 1], dist=[[0, 1], [1, 0]])
    with pytest.raises(IndexError):
        inst.distance(0, 2)


def test_metric_axioms_hold_on_generated():
    for seed in range(5):
        inst = random_instance(12, 3, seed=seed)
        d = inst.distance_matrix()
        assert np.allclose(d, d.T, atol=1e-9)
        assert np.all(np.diag(d) == 0.0)
        for i, l, j in itertools.product(range(12), repeat=3):
            assert d[i, j] <= d[i, l] + d[l, j] + 1e-9


def test_load_json_stream_and_errors():
    obj = {"n": 2, "m": 2, "colors": [0, 1], "dist": [[0, 1], [1, 0]]}
    inst = load_instance(io.StringIO(json.dumps(obj)), "json")
    assert inst.n == 2
    with pytest.raises(ParseError):
        load_instance(io.StringIO("{not json"), "json")
    with pytest.raises(ParseError):
        load_instance(io.StringIO(json.dumps({"n": 2})), "json")


def test_a_missing_path_is_a_parse_error(tmp_path):
    """A Path is always opened, never read as JSON text, and a missing file
    is a ParseError that names it."""
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError, match="cannot read .*nope.json: No such file"):
        load_instance(missing, "json")
    missing.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_instance(missing, "json")


def test_load_csv_points():
    text = "id,color,x0,x1\n1,1,1.0,0.0\n0,0,0.0,0.0\n"
    inst = load_instance(io.StringIO(text), "csv-points")
    assert inst.n == 2
    assert inst.colors.tolist() == [0, 1]
    assert inst.distance(0, 1) == pytest.approx(1.0)
    with pytest.raises(ValidationError, match="contiguous"):
        load_instance(io.StringIO("id,color,x0\n0,0,0\n2,0,1\n"), "csv-points")


def test_load_csv_matrix_with_colors():
    inst = load_instance(io.StringIO("0,1\n1,0\n"), "csv-matrix",
                         colors_source=io.StringIO("0\n1\n"))
    assert inst.colors.tolist() == [0, 1]
    with pytest.raises(ParseError, match="companion"):
        load_instance(io.StringIO("0,1\n1,0\n"), "csv-matrix")


def test_instance_json_roundtrip():
    inst = random_instance(6, 2, seed=5)
    again = load_instance(io.StringIO(json.dumps(instance_to_dict(inst))), "json")
    assert np.allclose(inst.distance_matrix(), again.distance_matrix())
    assert inst.colors.tolist() == again.colors.tolist()


def test_generator_determinism():
    a = random_instance(10, 2, seed=42)
    b = random_instance(10, 2, seed=42)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.colors, b.colors)
    assert instance_to_dict(a) == instance_to_dict(b)


def test_generator_color_distribution_support():
    inst = random_instance(10, 2, seed=1, color_dist=[0.5, 0.5])
    assert inst.n == 10
    assert set(inst.colors.tolist()) <= {0, 1}
    only_zero = random_instance(10, 2, seed=1, color_dist=[1.0, 0.0])
    assert set(only_zero.colors.tolist()) == {0}


@pytest.mark.parametrize("seed", [-1, -3, True, 1.5, "3", None])
def test_generator_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        random_instance(5, 2, seed=seed)


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 1.0], [1e308, 1e308]])
def test_generator_rejects_weights_that_are_not_finite(weights):
    with pytest.raises(ValidationError, match="color distribution"):
        random_instance(5, 2, seed=1, color_dist=weights)


def test_instance_immutability():
    inst = random_instance(4, 2, seed=0)
    with pytest.raises(ValueError):
        inst.colors[0] = 1
    with pytest.raises(ValueError):
        inst.distance_matrix()[0, 1] = 3.0


def test_large_euclidean_instance_keeps_one_table():
    n = 2001
    inst = make_instance(np.zeros(n, dtype=int),
                         coords=np.arange(n, dtype=float)[:, None])
    table = inst.distance_matrix()
    assert table.shape == (n, n)
    assert inst.distance_matrix() is table
    assert inst.distance(0, n - 1) == table[0, n - 1] == pytest.approx(n - 1.0)
