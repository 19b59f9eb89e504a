import csv
import json
import subprocess
import sys
import warnings

import pytest

from fairclus import cli, load_fairness_spec, load_instance, pipeline
from fairclus import lp as lp_module
from fairclus.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("gen", "--n", "10", "--m", "2", "--seed", "42",
                   "--out", str(a)) == 0
    assert run_cli("gen", "--n", "10", "--m", "2", "--seed", "42",
                   "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_output_is_valid_instance(tmp_path):
    out = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--m", "2", "--seed", "1",
            "--color-dist", "0.5,0.5", "--out", str(out))
    inst = load_instance(str(out), "json")  # loader re-validates the metric
    assert inst.n == 10
    assert set(inst.colors.tolist()) <= {0, 1}


def test_gen_spec_out(tmp_path):
    inst_path = tmp_path / "inst.json"
    spec_path = tmp_path / "spec.json"
    run_cli("gen", "--n", "8", "--m", "2", "--seed", "3", "--out",
            str(inst_path), "--spec-out", str(spec_path), "--k", "2")
    spec = json.loads(spec_path.read_text())
    assert spec["exact_gf"] is True
    assert spec["k"] == 2
    assert sum(spec["ds"]["lower"]) == 2


@pytest.mark.parametrize("extra", [[], ["--k", "6"]])
def test_gen_refusing_the_spec_writes_no_file(tmp_path, capsys, extra):
    """--spec-out without --k, or with --k above --n, exits 1 before the
    instance is written."""
    inst_path = tmp_path / "inst.json"
    spec_path = tmp_path / "spec.json"
    assert run_cli("gen", "--n", "5", "--m", "2", "--seed", "1", "--out",
                   str(inst_path), "--spec-out", str(spec_path), *extra) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not inst_path.exists() and not spec_path.exists()


def _gen_pair(tmp_path, seed=5, n=8):
    inst_path = tmp_path / "inst.json"
    spec_path = tmp_path / "spec.json"
    run_cli("gen", "--n", str(n), "--m", "2", "--seed", str(seed),
            "--out", str(inst_path), "--spec-out", str(spec_path), "--k", "2")
    return inst_path, spec_path


def test_solve_writes_report_and_clustering(tmp_path, capsys):
    inst_path, spec_path = _gen_pair(tmp_path)
    report_path = tmp_path / "report.json"
    clus_path = tmp_path / "clustering.json"
    code = run_cli("solve", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--objective", "center",
                   "--out", str(report_path),
                   "--clustering-out", str(clus_path))
    assert code == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("cost=")
    report = json.loads(report_path.read_text())
    assert report["objective"] == "center"
    assert report["gf_violation"] <= 2.0 + 1e-6
    assert "timings" in report
    clustering = json.loads(clus_path.read_text())
    assert len(clustering["assignment"]) == 8


@pytest.mark.parametrize("objective", ["center", "median", "means"])
def test_solve_is_silent_at_the_file_descriptors(tmp_path, capfd, monkeypatch, objective):
    """Read at file descriptors 1 and 2, which capsys cannot see and where
    HiGHS would write from C: ``pipeline.solve`` writes nothing, ``fairclus
    solve`` its summary line only, and neither leaves a file in the working
    directory. HiGHS is called in both, with the simplex's size gate patched
    to 0."""
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    inst_path, spec_path = inputs / "inst.json", inputs / "spec.json"
    run_cli("gen", "--n", "12", "--m", "2", "--seed", "1", "--k", "3",
            "--out", str(inst_path), "--spec-out", str(spec_path))
    calls = []
    solve_milp = lp_module.milp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_milp(*args, **kwargs)

    monkeypatch.setattr(lp_module, "milp", counting)
    monkeypatch.setattr(lp_module, "_SIMPLEX_CELLS", 0)
    monkeypatch.chdir(work)
    inst = load_instance(str(inst_path), "json")
    gf, ds = load_fairness_spec(str(spec_path), inst)
    capfd.readouterr()
    pipeline.solve(inst, gf, ds, objective, with_oracle=True)
    assert capfd.readouterr() == ("", "")
    assert calls
    calls.clear()
    assert run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                   "--objective", objective, "--with-oracle") == 0
    out, err = capfd.readouterr()
    assert out.count("\n") == 1 and out.startswith("cost=") and err == ""
    assert calls
    assert list(work.iterdir()) == []


def test_solve_exact_gf_flag(tmp_path):
    inst_path, _ = _gen_pair(tmp_path)
    report_path = tmp_path / "report.json"
    code = run_cli("solve", "--instance", str(inst_path), "--exact-gf",
                   "--k", "2", "--objective", "median",
                   "--out", str(report_path))
    assert code == 0
    assert json.loads(report_path.read_text())["objective"] == "median"


def test_solve_report_byte_deterministic(tmp_path):
    inst_path, spec_path = _gen_pair(tmp_path, seed=9)
    blobs = []
    for name in ("r1.json", "r2.json"):
        report_path = tmp_path / name
        clus_path = tmp_path / ("c_" + name)
        run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                "--objective", "means", "--out", str(report_path),
                "--clustering-out", str(clus_path))
        report = json.loads(report_path.read_text())
        report.pop("timings")
        blobs.append((json.dumps(report, sort_keys=True),
                      clus_path.read_bytes()))
    assert blobs[0] == blobs[1]


def test_check_pipeline_output(tmp_path, capsys):
    inst_path, spec_path = _gen_pair(tmp_path, seed=7)
    clus_path = tmp_path / "clustering.json"
    run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
            "--objective", "center", "--clustering-out", str(clus_path))
    capsys.readouterr()
    code = run_cli("check", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--clustering", str(clus_path))
    assert code == 0
    out = capsys.readouterr().out
    violation = float(out.split("gf_violation=")[1].splitlines()[0])
    assert violation <= 2.0 + 1e-6
    assert "ds_satisfied=True" in out


def test_check_handmade_unfair_clustering(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "n": 4, "m": 2, "colors": [0, 0, 0, 1],
        "coords": [[0.0], [1.0], [2.0], [3.0]]}))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0.5, 0.5], "upper": [0.5, 0.5], "rho": 0},
        "ds": {"lower": [1, 0], "upper": [2, 1]}, "k": 2}))
    clus_path = tmp_path / "clus.json"
    # cluster {0,1,2} is 3 red / 0 blue: violation 1.5 against the half bounds
    clus_path.write_text(json.dumps({
        "centers": [0, 3], "assignment": [0, 0, 0, 3],
        "objective": "center", "cost": 2.0}))
    code = run_cli("check", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--clustering", str(clus_path))
    assert code == 0
    out = capsys.readouterr().out
    assert float(out.split("gf_violation=")[1].splitlines()[0]) == pytest.approx(1.5)


def test_check_rejects_a_spec_with_fewer_colors(tmp_path, capsys):
    """A three-color instance with a two-color spec: ``check`` refuses the
    pair (exit 1) instead of skipping color 2, and ``solve`` reports the
    mismatch through its precheck (exit 2)."""
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "--n", "9", "--m", "3", "--seed", "2", "--k", "3",
            "--out", str(inst_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0, 0], "upper": [1, 1], "rho": 0},
        "ds": {"lower": [0, 0], "upper": [3, 3]}, "k": 3}))
    clus_path = tmp_path / "clus.json"
    clus_path.write_text(json.dumps({
        "centers": [0, 1, 2], "assignment": [0, 1, 2] * 3,
        "objective": "center", "cost": 1.0}))
    capsys.readouterr()
    code = run_cli("check", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--clustering", str(clus_path))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: gf spec has 2 colors, instance has 3\n"
    assert "gf_violation" not in captured.out
    code = run_cli("solve", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--objective", "center")
    assert code == 2
    assert "spec color count mismatch" in capsys.readouterr().err


_MALFORMED_INSTANCES = {
    "colors-not-a-list": {"n": 2, "m": 2, "colors": 5, "coords": [[0.0], [1.0]]},
    "non-numeric-coords": {"n": 2, "m": 2, "colors": [0, 1], "coords": [["a"], [1.0]]},
    "ragged-dist": {"n": 2, "m": 2, "colors": [0, 1], "dist": [[0.0, 1.0], [1.0]]},
    "top-level-list": [0, 1],
}


@pytest.mark.parametrize("case", [*_MALFORMED_INSTANCES, "missing-instance",
                                  "missing-clustering"])
def test_malformed_input_exits_1_without_a_traceback(tmp_path, case):
    inst_path, spec_path = _gen_pair(tmp_path, seed=1)
    command = ["solve", "--objective", "center", "--spec", str(spec_path)]
    if case in _MALFORMED_INSTANCES:
        inst_path = tmp_path / "bad.json"
        inst_path.write_text(json.dumps(_MALFORMED_INSTANCES[case]))
    elif case == "missing-instance":
        inst_path = tmp_path / "nope.json"
    else:
        command = ["check", "--spec", str(spec_path),
                   "--clustering", str(tmp_path / "nope.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "fairclus.cli", *command, "--instance", str(inst_path)],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    if case.startswith("missing"):
        assert proc.stderr.startswith(f"error: cannot read {tmp_path / 'nope.json'}")


def test_oracle_rejects_a_spec_with_fewer_colors(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "--n", "9", "--m", "3", "--seed", "2", "--out", str(inst_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0, 0], "upper": [1, 1], "rho": 0},
        "ds": {"lower": [0, 0], "upper": [3, 3]}, "k": 3}))
    capsys.readouterr()
    code = run_cli("oracle", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--objective", "center")
    assert code == 1
    assert capsys.readouterr().err == "error: gf spec has 2 colors, instance has 3\n"


def test_solve_rejects_a_spec_with_no_centers(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "--n", "12", "--m", "2", "--seed", "1", "--out", str(inst_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0, 0], "upper": [1, 1]},
        "ds": {"lower": [0, 0], "upper": [0, 0]}, "k": 0}))
    capsys.readouterr()
    code = run_cli("solve", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--objective", "median")
    assert code == 1
    assert capsys.readouterr().err == "error: need k >= 1 centers, got 0\n"


_FOUR_POINTS = {"n": 4, "m": 2, "colors": [0, 1, 0, 1],
                "coords": [[0.0], [1.0], [2.0], [3.0]]}
_OPEN_SPEC = {"gf": {"lower": [0, 0], "upper": [1, 1]},
              "ds": {"lower": [0, 1], "upper": [2, 2]}, "k": 2}


@pytest.mark.parametrize("instance, spec, message", [
    (_FOUR_POINTS, {**_OPEN_SPEC, "gf": {"lower": [0, 0], "upper": ["1/0", 1]}},
     "ratio bound '1/0' has a zero denominator"),
    (_FOUR_POINTS, {**_OPEN_SPEC, "gf": {"lower": [0, 0], "upper": [float("inf"), 1]}},
     "ratio bound inf is not finite"),
    (_FOUR_POINTS, {**_OPEN_SPEC, "ds": {"lower": [0.6, 0], "upper": [2.7, 2]}},
     "fairness spec 'ds lower' must be an integer, got 0.6"),
    ({**_FOUR_POINTS, "colors": [0.7, 1.2, 0, 1]}, _OPEN_SPEC,
     "color label 0.7 of point 0 is not an integer"),
    ({**_FOUR_POINTS, "color_names": ["a"]}, _OPEN_SPEC,
     "color_names has 1 names, expected m=2"),
])
def test_solve_refuses_bad_bounds_and_labels_with_one_error_line(
        tmp_path, capsys, instance, spec, message):
    """Each of these used to end in a traceback (a zero denominator, an
    infinity, a short color_names) or to be solved after truncating a bound
    or a label; now it is one error line and exit 1."""
    inst_path, spec_path = tmp_path / "inst.json", tmp_path / "spec.json"
    inst_path.write_text(json.dumps(instance))
    spec_path.write_text(json.dumps(spec))
    code = run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                   "--objective", "median")
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, flag", [
    ("solve", "--out"), ("solve", "--clustering-out"), ("solve", "--dump-lp"),
    ("solve", "--dump-flow"), ("gen", "--out"), ("sweep", "--out")])
def test_output_in_a_missing_directory_exits_1_without_a_traceback(
        tmp_path, capsys, monkeypatch, command, flag):
    """An unwritable output path is one error line and exit 1, before any
    solve runs."""
    inst_path, spec_path = _gen_pair(tmp_path, seed=1)
    target = tmp_path / "missing" / "out.txt"
    args = {"solve": ["--instance", str(inst_path), "--spec", str(spec_path),
                      "--objective", "center"],
            "gen": ["--n", "6", "--m", "2", "--seed", "1"],
            "sweep": ["--count", "1", "--n-min", "6", "--n-max", "6",
                      "--objectives", "center"]}[command]
    calls = []
    for name in ("_sweep_task", "pipeline_solve"):
        def recording(*call_args, _name=name, _call=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _call(*call_args, **kwargs)
        monkeypatch.setattr(cli, name, recording)
    capsys.readouterr()
    assert run_cli(command, *args, flag, str(target)) == 1
    assert capsys.readouterr().err == \
        f"error: cannot write {target}: No such file or directory\n"
    assert calls == []


@pytest.mark.parametrize("command", ["gen", "solve"])
def test_a_refused_later_path_leaves_no_earlier_file(tmp_path, capsys, command):
    """The first output path is created while the paths are checked, and
    removed again once a later one fails; a file that existed is kept."""
    inst_path, spec_path = _gen_pair(tmp_path, seed=1)
    first, later = tmp_path / "first.json", tmp_path / "missing" / "later.json"
    args = {"gen": ["gen", "--n", "5", "--m", "2", "--seed", "1", "--k", "2",
                    "--out", str(first), "--spec-out", str(later)],
            "solve": ["solve", "--instance", str(inst_path), "--spec", str(spec_path),
                      "--objective", "center", "--out", str(first),
                      "--clustering-out", str(later)]}[command]
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == \
        f"error: cannot write {later}: No such file or directory\n"
    assert not first.exists()
    first.write_text("kept")
    assert run_cli(*args) == 1
    assert first.read_text() == "kept"


def test_check_fewer_than_k_centers_breaks_ds(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "n": 4, "m": 2, "colors": [0, 0, 1, 1],
        "coords": [[0.0], [1.0], [2.0], [3.0]]}))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0, 0], "upper": [1, 1], "rho": 0},
        "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 2}))
    clus_path = tmp_path / "clus.json"
    clus_path.write_text(json.dumps({
        "centers": [0], "assignment": [0, 0, 0, 0],
        "objective": "center", "cost": 3.0}))
    code = run_cli("check", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--clustering", str(clus_path))
    assert code == 0
    assert "ds_satisfied=False" in capsys.readouterr().out


def test_check_empty_cluster_is_an_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "n": 2, "m": 2, "colors": [0, 1], "coords": [[0.0], [1.0]]}))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0, 0], "upper": [1, 1], "rho": 0},
        "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 2}))
    clus_path = tmp_path / "clus.json"
    clus_path.write_text(json.dumps({
        "centers": [0, 1], "assignment": [0, 0],  # center 1 has no members
        "objective": "center", "cost": 1.0}))
    code = run_cli("check", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--clustering", str(clus_path))
    assert code == 1
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("clustering, message", [
    ({"centers": [0], "assignment": [0, 0, 0]}, "assigns 3 points"),
    ({"centers": [0, 99], "assignment": [0] * 7 + [99]}, "center id 99"),
    ({"centers": [3, 3], "assignment": [3] * 8}, "center ids repeat"),
])
def test_check_rejects_clustering_not_on_the_instance(tmp_path, capsys,
                                                      clustering, message):
    inst_path, spec_path = _gen_pair(tmp_path, seed=1)
    clus_path = tmp_path / "clus.json"
    clus_path.write_text(json.dumps({**clustering, "objective": "center",
                                     "cost": 1.0}))
    code = run_cli("check", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--clustering", str(clus_path))
    assert code == 1
    captured = capsys.readouterr()
    assert "gf_violation" not in captured.out
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("key", ["centers", "assignment"])
@pytest.mark.parametrize("value", [True, 1.0])
def test_check_refuses_ids_that_are_not_integers(tmp_path, capsys, key, value):
    """An assignment of true or 1.0 once passed ``check`` with exit 0, read
    as center 1; any id that is not an int exits 1 with one line."""
    inst_path, spec_path = _gen_pair(tmp_path, seed=1)
    clustering = {"centers": [0, 1], "assignment": [0, 1] * 4, "objective": "median",
                  "cost": 1}
    clustering[key] = clustering[key][:-1] + [value]
    clus_path = tmp_path / "clus.json"
    clus_path.write_text(json.dumps(clustering))
    capsys.readouterr()
    code = run_cli("check", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--clustering", str(clus_path))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid clustering JSON: {key} entry {value!r} " \
                           "is not an integer id\n"


@pytest.mark.filterwarnings("error")
def test_solve_at_coordinates_near_1e155(tmp_path, capsys):
    """Distances near 1e155 once gave a NaN table: median then read the
    instance as infeasible (exit 2) and greedy k-center found a NaN radius
    cap. Now both solve; means, whose squared distances overflow, is
    refused with exit 1 before any stage runs, by solve and by the oracle."""
    inst_path, spec_path = tmp_path / "inst.json", tmp_path / "spec.json"
    inst_path.write_text(json.dumps({"n": 4, "m": 2, "colors": [0, 1, 0, 1],
                                     "coords": [[0.0], [1e155], [2e155], [3e155]]}))
    spec_path.write_text(json.dumps({"gf": {"lower": [0, 0], "upper": [1, 1]},
                                     "ds": {"lower": [0, 0], "upper": [2, 2]}, "k": 2}))
    common = ("solve", "--instance", str(inst_path), "--spec", str(spec_path))
    assert run_cli(*common, "--objective", "median") == 0
    assert run_cli(*common, "--objective", "center", "--ds-backend", "greedy") == 0
    assert capsys.readouterr().out.splitlines() == [
        "cost=2e+155 factor=4 violation=0 ds_ok=True",
        "cost=1e+155 factor=none violation=0 ds_ok=True"]
    for command in ("solve", "oracle"):
        assert run_cli(command, *common[1:], "--objective", "means") == 1
        assert capsys.readouterr().err == \
            "error: the largest distance 3e+155 overflows when squared\n"


@pytest.mark.parametrize("objective, far", [("means", 1.2e154), ("median", 1e308)])
def test_solve_refuses_cost_sums_that_overflow(tmp_path, capsys, objective, far):
    """8 points alternating at 0 and ``far``, k = 1: 8 times the largest
    point cost overflows, and ``solve`` refuses the instance with one error
    line and exit 1, with no RuntimeWarning (it once exited 2 with a false
    infeasible verdict)."""
    inst_path, spec_path = tmp_path / "inst.json", tmp_path / "spec.json"
    inst_path.write_text(json.dumps({"n": 8, "m": 2, "colors": [0, 1] * 4,
                                     "coords": [[0.0], [far]] * 4}))
    spec_path.write_text(json.dumps({"gf": {"lower": [0, 0], "upper": [1, 1]},
                                     "ds": {"lower": [0, 0], "upper": [1, 1]}, "k": 1}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                       "--objective", objective) == 1
    cost = far * far if objective == "means" else far
    assert capsys.readouterr().err == (
        f"error: {objective} costs overflow: 8 points times the largest point cost "
        f"{cost!r} is not finite\n")


@pytest.mark.parametrize("text, message", [
    ("[0, 1]", "must be an object"),
    (json.dumps({"centers": [0], "assignment": [0] * 8, "objective": "center",
                 "cost": "abc"}), "invalid clustering JSON"),
], ids=["top-level-list", "non-numeric-cost"])
def test_check_rejects_malformed_clustering_json(tmp_path, capsys, text, message):
    inst_path, spec_path = _gen_pair(tmp_path, seed=1)
    clus_path = tmp_path / "clus.json"
    clus_path.write_text(text)
    code = run_cli("check", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--clustering", str(clus_path))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err


def test_oracle_command(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "n": 4, "m": 2, "colors": [0, 1, 0, 1],
        "coords": [[0.0], [1.0], [10.0], [11.0]]}))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0.5, 0.5], "upper": [0.5, 0.5], "rho": 0},
        "ds": {"lower": [1, 1], "upper": [1, 1]}, "k": 2}))
    out_path = tmp_path / "opt.json"
    code = run_cli("oracle", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--objective", "center", "--out",
                   str(out_path))
    assert code == 0
    assert "optimal cost=1" in capsys.readouterr().out
    assert json.loads(out_path.read_text())["cost"] == pytest.approx(1.0)


@pytest.mark.parametrize("cap", ["nan", "-1"])
def test_oracle_rejects_a_time_cap_that_is_not_a_duration(tmp_path, capsys, cap):
    inst_path, spec_path = _gen_pair(tmp_path, seed=1)
    capsys.readouterr()
    code = run_cli("oracle", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--objective", "center", f"--time-cap={cap}")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "time cap" in captured.err
    assert captured.err.count("\n") == 1


def test_infeasible_exits_2(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "n": 3, "m": 2, "colors": [0, 0, 1], "coords": [[0.0], [1.0], [2.0]]}))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0, 0], "upper": [1, 1], "rho": 0},
        "ds": {"lower": [0, 2], "upper": [0, 2]}, "k": 2}))
    code = run_cli("solve", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--objective", "center")
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_caps_below_k_fail_the_precheck(tmp_path, capsys):
    """Four points of one color, at most one center per color, k=2: exit 2
    with the reason, before any backend runs."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "n": 4, "m": 2, "colors": [0, 0, 0, 0],
        "coords": [[0.0], [1.0], [2.0], [3.0]]}))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0, 0], "upper": [1, 1]},
        "ds": {"lower": [0, 0], "upper": [1, 1]}, "k": 2}))
    for backend in ("exact", "greedy"):
        assert run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                       "--objective", "center", "--ds-backend", backend) == 2
        assert capsys.readouterr().err == (
            "infeasible: instance fails feasibility prechecks\n"
            "  - too few points within the center-count caps: "
            "Σ min(U_h, |P_h|) = 1 < k = 2\n")


def test_contract_violation_exits_3(tmp_path, capsys):
    inst_path, spec_path = _gen_pair(tmp_path, seed=11)
    bad_backend = tmp_path / "bad.py"
    bad_backend.write_text(
        "import json, sys\n"
        "req = json.load(sys.stdin)\n"
        "json.dump({'centers': [0], 'alpha': 1.0}, sys.stdout)\n")
    code = run_cli("solve", "--instance", str(inst_path), "--spec",
                   str(spec_path), "--objective", "center",
                   "--ds-backend", f"subprocess:python3 {bad_backend}")
    assert code == 3
    assert "contract violation" in capsys.readouterr().err


def test_a_claimed_factor_of_nan_exits_3(tmp_path, capsys):
    """json.loads reads NaN, so a subprocess backend can claim it; the
    centers it returns meet the exact count profile."""
    inst_path, spec_path = _gen_pair(tmp_path, seed=11)
    backend = tmp_path / "nan.py"
    backend.write_text(
        "import json, sys\n"
        "req = json.load(sys.stdin)\n"
        "need, centers = list(req['ds']['lower']), []\n"
        "for pid, color in enumerate(req['instance']['colors']):\n"
        "    if need[color]:\n"
        "        centers.append(pid); need[color] -= 1\n"
        "json.dump({'centers': centers, 'alpha': float('nan')}, sys.stdout)\n")
    capsys.readouterr()
    code = run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                   "--objective", "center",
                   "--ds-backend", f"subprocess:{sys.executable} {backend}")
    assert code == 3
    assert "claimed factor nan" in capsys.readouterr().err


def test_dump_flags_write_files(tmp_path):
    inst_path, spec_path = _gen_pair(tmp_path, seed=13)
    lp_path = tmp_path / "model.lp"
    fl_path = tmp_path / "net.txt"
    run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
            "--objective", "center", "--dump-lp", str(lp_path),
            "--dump-flow", str(fl_path))
    text = lp_path.read_text()
    assert "Minimize" in text
    assert " radius_cap=" in text.splitlines()[0] and " centers=" in text.splitlines()[0]
    assert fl_path.read_text().startswith("arc ")


def test_dumps_survive_a_failed_flow(tmp_path, capsys, monkeypatch):
    """A solve that fails after its LP still writes the LP and flow dumps."""
    from fairclus import pipeline
    from fairclus.errors import PipelineError

    def broken(net):
        raise PipelineError("flow", "no flow")

    monkeypatch.setattr(pipeline, "min_cost_flow", broken)
    inst_path, spec_path = _gen_pair(tmp_path, seed=13)
    lp_path = tmp_path / "model.lp"
    fl_path = tmp_path / "net.txt"
    assert run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                   "--objective", "median", "--dump-lp", str(lp_path),
                   "--dump-flow", str(fl_path)) == 3
    assert "[flow] no flow" in capsys.readouterr().err
    assert lp_path.read_text().splitlines()[-1] == "End"
    assert fl_path.read_text().startswith("arc ")


def test_an_lp_failure_exits_3(tmp_path, capsys, monkeypatch):
    """A solution the LP stage's own check refuses is an internal failure:
    exit 3 with a contract-violation line naming the stage, no traceback."""
    monkeypatch.setattr(lp_module, "RESIDUAL_TOL", -1.0)
    inst_path, spec_path = _gen_pair(tmp_path, seed=13)
    assert run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                   "--objective", "median") == 3
    err = capsys.readouterr().err
    assert err.startswith("contract violation: [lp] post-repair residual")
    assert "Traceback" not in err


def _write_four_of_one_color(tmp_path):
    """Four points of color 0 of m = 2 and k = 2 with at most one center per
    color: the precheck refuses it."""
    inst_path = tmp_path / "inst4.json"
    inst_path.write_text(json.dumps({
        "n": 4, "m": 2, "colors": [0, 0, 0, 0],
        "coords": [[0.0], [1.0], [2.0], [3.0]]}))
    spec_path = tmp_path / "spec4.json"
    spec_path.write_text(json.dumps({
        "gf": {"lower": [0, 0], "upper": [1, 1]},
        "ds": {"lower": [0, 0], "upper": [1, 1]}, "k": 2}))
    return inst_path, spec_path


@pytest.mark.parametrize("code", [2, 3])
def test_a_failed_solve_leaves_no_empty_output(tmp_path, capsys, monkeypatch, code):
    """A solve that fails after its output paths were checked removes the
    empty files the check created: on the precheck's refusal (exit 2) and on
    a broken flow (exit 3), where the dumps written before the failure keep
    their content and a file that existed before is kept."""
    from fairclus import pipeline
    from fairclus.errors import PipelineError

    out = {name: tmp_path / name for name in ("r.json", "c.json", "lp.txt", "flow.txt")}
    if code == 2:
        inst_path, spec_path = _write_four_of_one_color(tmp_path)
    else:
        def broken(net):
            raise PipelineError("flow", "no flow")

        monkeypatch.setattr(pipeline, "min_cost_flow", broken)
        inst_path, spec_path = _gen_pair(tmp_path, seed=13)
        out["c.json"].write_text("")
    assert run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                   "--objective", "median", "--out", str(out["r.json"]),
                   "--clustering-out", str(out["c.json"]), "--dump-lp", str(out["lp.txt"]),
                   "--dump-flow", str(out["flow.txt"])) == code
    assert "Traceback" not in capsys.readouterr().err
    if code == 2:
        assert not any(path.exists() for path in out.values())
    else:
        assert not out["r.json"].exists() and out["c.json"].read_text() == ""
        assert out["lp.txt"].read_text().splitlines()[-1] == "End"
        assert out["flow.txt"].read_text().startswith("arc ")


def test_a_failed_sweep_leaves_no_empty_output(tmp_path, monkeypatch):
    from fairclus import cli

    def broken(params):
        raise RuntimeError("worker died")

    monkeypatch.setattr(cli, "_sweep_task", broken)
    out = tmp_path / "sweep.csv"
    with pytest.raises(RuntimeError, match="worker died"):
        run_cli("sweep", "--count", "1", "--n-min", "6", "--n-max", "6", "--out", str(out))
    assert not out.exists()


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--count", "3", "--seed", "100", "--n-min", "6",
                   "--n-max", "8", "--m", "2", "--k", "2",
                   "--objectives", "center,median", "--out", str(out))
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["gf_violation"]) <= 2.0 + 1e-6 for r in rows)
    seeds = [int(r["seed"]) for r in rows]
    assert seeds == sorted(seeds)


def test_sweep_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["sweep", "--count", "2", "--seed", "7", "--n-min", "6",
            "--n-max", "7", "--m", "2", "--k", "2", "--objectives", "center"]
    assert run_cli(*args, "--jobs", "1", "--out", str(serial)) == 0
    assert run_cli(*args, "--jobs", "2", "--out", str(parallel)) == 0

    def strip_time(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            r.pop("wall_time")
        return rows

    assert strip_time(serial) == strip_time(parallel)


def test_console_entry_point(tmp_path):
    inst_path = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fairclus.cli", "gen", "--n", "5", "--m", "2",
         "--seed", "1", "--out", str(inst_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert inst_path.exists()


@pytest.mark.parametrize("args, message", [
    (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("--seed", "1", "--color-dist", "nan,1"), "color distribution must be m finite"),
    (("--seed", "1", "--color-dist", "inf,1"), "color distribution must be m finite"),
])
def test_gen_rejects_a_negative_seed_and_weights_that_are_not_finite(tmp_path, capsys,
                                                                    args, message):
    out = tmp_path / "g.json"
    assert run_cli("gen", "--n", "5", "--m", "2", *args, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("bounds, message", [
    (("--n-min", "10", "--n-max", "6", "--k", "2"), "--n-min 10 exceeds --n-max 6"),
    (("--n-min", "6", "--n-max", "6", "--k", "20"), "--k 20 outside [1, --n-min 6]"),
    (("--n-min", "6", "--n-max", "8", "--k", "0"), "--k 0 outside [1, --n-min 6]"),
    (("--ds-backend", "nope"), "unknown ds backend 'nope'"),
    (("--count", "-3"), "--count -3 is below 1"),
    (("--count", "0"), "--count 0 is below 1"),
    (("--jobs", "0"), "--jobs 0 is below 1"),
    (("--jobs", "-2"), "--jobs -2 is below 1"),
    (("--seed", "-3"), "--seed -3 is below 0"),
])
def test_sweep_rejects_bad_ranges_before_solving(tmp_path, capsys, bounds, message):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--count", "2", *bounds, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("solve", "--objective", "center")
    assert exc_info.value.code == 1
    assert "required: --instance" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        run_cli("solve", "--help")
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert "--dump-lp" in out and "--dump-rerouting" not in out


def test_rerouting_dump_flag_is_a_usage_error(tmp_path, capsys):
    # no objective reroutes, so there is no rerouting to dump
    inst_path, spec_path = _gen_pair(tmp_path, seed=13)
    rr_path = tmp_path / "rerouting.json"
    for objective in ("center", "median", "means"):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("solve", "--instance", str(inst_path), "--spec", str(spec_path),
                    "--objective", objective, "--dump-rerouting", str(rr_path))
        assert exc_info.value.code == 1
        assert "unrecognized arguments: --dump-rerouting" in capsys.readouterr().err
        assert not rr_path.exists()


def test_sweep_reports_the_assignment_lp_cost(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--count", "2", "--seed", "3", "--n-min", "6",
                   "--n-max", "7", "--objectives", "center,means",
                   "--out", str(out)) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["objective"] for r in rows] == ["center", "means"] * 2
    for r in rows:
        if r["objective"] == "center":
            assert r["assignment_lp_cost"] == ""
        else:
            assert float(r["cost"]) <= float(r["assignment_lp_cost"]) + 1e-9
