import io
import itertools
import json
import math

import numpy as np
import pytest

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


def test_triangle_violation_names_triple():
    with pytest.raises(ValidationError, match=r"\(0, 1, 2\)"):
        make_instance([0, 0, 0], dist=[[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_asymmetry_rejected():
    with pytest.raises(ValidationError, match="asymmetric"):
        make_instance([0, 0], dist=[[0, 1], [2, 0]])


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError, match="not 0"):
        make_instance([0, 0], dist=[[0.5, 1], [1, 0]])


def test_color_out_of_range():
    with pytest.raises(ValidationError, match="color label"):
        make_instance([0, 3], m=2, dist=[[0, 1], [1, 0]])


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
