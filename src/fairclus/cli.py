"""Command-line surface: instance generation, solving, oracle runs, clustering
audits, and seeded batch sweeps.

Exit codes: 0 success, 2 infeasible instance/spec, 3 internal contract
violation, 1 anything else (parse errors, bad arguments, usage errors).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .constraints import (OBJECTIVES, Clustering, check_ds, default_ds_profile,
                          exact_gf_spec, gf_violation, load_fairness_spec)
from .ds import get_backend
from .errors import (ContractViolationError, FairclusError, InfeasibleError,
                     ParseError, PipelineError, ValidationError)
from .flow import dump_flow_text
from .instance import (instance_to_dict, load_instance, open_output,
                       random_instance, read_text_source)
from .lp import dump_lp_text
from .oracle import OracleBudget, brute_force_doubly_fair
from .pipeline import solve as pipeline_solve

log = logging.getLogger("fairclus")


def _setup_logging():
    level = os.environ.get("FAIRCLUS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_json(path, obj):
    with open_output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_outputs(*paths):
    """Fail on an output path that cannot be written before any work runs.
    Opening it for appending creates a missing file and leaves an existing
    one as it was; the files created here are removed if a later path fails.
    Returns the paths of the files it created."""
    created = []
    try:
        for path in filter(None, paths):
            existed = os.path.exists(path)
            open_output(path, "a").close()
            if not existed:
                created.append(path)
    except FairclusError:
        for path in created:
            os.remove(path)
        raise
    return created


@contextmanager
def _removing_unwritten(created):
    """If the command fails, remove the files ``_check_outputs`` created
    that it left empty, having never written them."""
    try:
        yield
    except BaseException:
        for path in created:
            if os.path.getsize(path) == 0:
                os.remove(path)
        raise


def _load_instance_args(args):
    return load_instance(args.instance, args.format, colors_source=args.colors)


def _load_specs(args, inst):
    if args.spec:
        return load_fairness_spec(args.spec, inst)
    if args.exact_gf:
        if args.k is None:
            raise ValidationError("--exact-gf needs --k")
        return exact_gf_spec(inst), default_ds_profile(inst, args.k)
    raise ValidationError("provide --spec or --exact-gf with --k")


def cmd_gen(args) -> int:
    if args.spec_out and args.k is None:
        raise ValidationError("--spec-out needs --k")
    inst = random_instance(args.n, args.m, args.seed, dim=args.dim,
                           color_dist=args.color_dist)
    # refuse a bad --k or an unwritable path before either file is written
    ds = default_ds_profile(inst, args.k) if args.spec_out else None
    _check_outputs(args.out, args.spec_out)
    _write_json(args.out, instance_to_dict(inst))
    log.info("wrote instance n=%d m=%d to %s", args.n, args.m, args.out)
    if ds is not None:
        _write_json(args.spec_out, {
            "exact_gf": True,
            "ds": {"lower": list(ds.lower), "upper": list(ds.upper)},
            "k": args.k,
        })
    print(args.out)
    return 0


def cmd_solve(args) -> int:
    inst = _load_instance_args(args)
    gf, ds = _load_specs(args, inst)
    backend = get_backend(args.ds_backend)
    created = _check_outputs(args.out, args.clustering_out, args.dump_lp, args.dump_flow)
    artifacts = {}
    with _removing_unwritten(created):
        try:
            clustering, report = pipeline_solve(
                inst, gf, ds, args.objective, backend=backend,
                with_oracle=args.with_oracle, artifacts=artifacts)
        finally:  # a solve that fails after its LP still leaves the dumps
            for path, key, dump in ((args.dump_lp, "lp_model", dump_lp_text),
                                    (args.dump_flow, "net", dump_flow_text)):
                if path and key in artifacts:
                    with open_output(path) as fh:
                        dump(artifacts[key], fh)
        if args.out:
            _write_json(args.out, report.to_dict())
        if args.clustering_out:
            _write_json(args.clustering_out, clustering.to_dict())
    factor = report.guaranteed_factor
    print(f"cost={report.cost:.6g} "
          f"factor={'none' if factor is None else f'{factor:.6g}'} "
          f"violation={report.gf_violation:.6g} ds_ok={report.ds_satisfied}")
    return 0


def cmd_oracle(args) -> int:
    inst = _load_instance_args(args)
    gf, ds = _load_specs(args, inst)
    budget = OracleBudget(max_center_sets=args.max_center_sets,
                          max_nodes_per_set=args.max_nodes,
                          time_cap=args.time_cap)
    opt = brute_force_doubly_fair(inst, gf, ds, args.objective, budget=budget)
    payload = opt.to_dict()
    if args.out:
        _write_json(args.out, payload)
    print(f"optimal cost={opt.cost:.6g} centers={list(opt.centers)}")
    return 0


def cmd_check(args) -> int:
    inst = _load_instance_args(args)
    gf, ds = _load_specs(args, inst)
    try:
        clustering = Clustering.from_dict(json.loads(read_text_source(args.clustering)))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid clustering JSON: {exc}") from exc
    if len(clustering.assignment) != inst.n:
        raise ValidationError(f"clustering assigns {len(clustering.assignment)} "
                              f"points, the instance has {inst.n}")
    for c in clustering.centers:
        if not 0 <= c < inst.n:
            raise ValidationError(f"center id {c!r} outside [0, {inst.n})")
    if len(set(clustering.centers)) < len(clustering.centers):
        raise ValidationError(f"center ids repeat: {list(clustering.centers)}")
    violation = gf_violation(inst, clustering, gf)
    ds_ok = check_ds(inst, clustering.centers, ds)
    print(f"gf_violation={violation:.6g}")
    print(f"ds_satisfied={ds_ok}")
    for c in clustering.centers:
        members = clustering.members(c)
        hist = np.bincount(inst.colors[members], minlength=inst.m).tolist()
        print(f"cluster center={c} size={len(members)} colors={hist}")
    return 0


def _sweep_task(params):
    """One seeded run; returns a flat CSV row (executed in worker processes)."""
    (seed, n, m, k, objective, backend_name, with_oracle) = params
    inst = random_instance(n, m, seed)
    gf = exact_gf_spec(inst)
    ds = default_ds_profile(inst, k)
    start = time.perf_counter()
    row = {"seed": seed, "objective": objective, "n": n, "m": m, "k": k}
    try:
        clustering, report = pipeline_solve(
            inst, gf, ds, objective, backend=get_backend(backend_name),
            with_oracle=with_oracle)
        row.update({
            "status": "ok",
            "cost": report.cost,
            "lambda": report.lam,
            "assignment_lp_cost": report.assignment_lp_cost,
            "ds_cost": report.ds_cost,
            "gf_violation": report.gf_violation,
            "ds_satisfied": report.ds_satisfied,
            "guaranteed_factor": report.guaranteed_factor,
            "oracle_cost": report.oracle_cost,
            "oracle_ratio": report.oracle_ratio,
            "note": report.oracle_note,
        })
    except FairclusError as exc:
        row.update({"status": f"error:{type(exc).__name__}", "note": str(exc)})
    row["wall_time"] = time.perf_counter() - start
    return row


_SWEEP_FIELDS = ["seed", "objective", "n", "m", "k", "status", "cost", "lambda",
                 "assignment_lp_cost", "ds_cost", "gf_violation",
                 "ds_satisfied", "guaranteed_factor", "oracle_cost",
                 "oracle_ratio", "wall_time", "note"]


def cmd_sweep(args) -> int:
    objectives = args.objectives.split(",")
    for obj in objectives:
        if obj not in OBJECTIVES:
            raise ValidationError(f"unknown objective {obj!r} in --objectives")
    if args.n_min > args.n_max:
        raise ValidationError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if not 1 <= args.k <= args.n_min:
        raise ValidationError(f"--k {args.k} outside [1, --n-min {args.n_min}]")
    for flag, value, least in (("--count", args.count, 1), ("--jobs", args.jobs, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise ValidationError(f"{flag} {value} is below {least}")
    get_backend(args.ds_backend)
    created = _check_outputs(args.out)
    rng = np.random.default_rng(args.seed)
    tasks = []
    for i in range(args.count):
        seed = args.seed + i
        n = int(rng.integers(args.n_min, args.n_max + 1))
        for obj in objectives:
            tasks.append((seed, n, args.m, args.k, obj, args.ds_backend,
                          args.with_oracle))
    with _removing_unwritten(created):
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                rows = list(pool.map(_sweep_task, tasks))
        else:
            rows = [_sweep_task(t) for t in tasks]
        rows.sort(key=lambda r: (r["seed"], r["objective"]))
        with open_output(args.out, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_SWEEP_FIELDS)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    ok = sum(1 for r in rows if r.get("status") == "ok")
    print(f"{ok}/{len(rows)} runs succeeded; wrote {args.out}")
    return 0


def _add_instance_args(p):
    p.add_argument("--instance", type=Path, required=True, help="instance file path")
    p.add_argument("--format", default="json",
                   choices=["json", "csv-points", "csv-matrix"])
    p.add_argument("--colors", type=Path, default=None,
                   help="colors companion file (csv-matrix format)")
    p.add_argument("--spec", type=Path, default=None, help="fairness spec JSON path")
    p.add_argument("--exact-gf", action="store_true",
                   help="exact ratio preservation instead of a spec file")
    p.add_argument("--k", type=int, default=None, help="cluster count for --exact-gf")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, as every bad argument does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fairclus",
        description="Doubly constrained fair k-clustering solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--color-dist", type=lambda s: [float(v) for v in s.split(",")],
                   default=None, help="comma-separated color weights")
    p.add_argument("--out", required=True)
    p.add_argument("--spec-out", default=None,
                   help="also write an exact-gf fairness spec (needs --k)")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run the approximation pipeline")
    _add_instance_args(p)
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.add_argument("--ds-backend", default="exact",
                   help="exact, greedy, or subprocess:<command>")
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--clustering-out", default=None, help="clustering JSON path")
    p.add_argument("--dump-lp", default=None)
    p.add_argument("--dump-flow", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force optimum on a tiny instance")
    _add_instance_args(p)
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.add_argument("--max-center-sets", type=int, default=1_000_000)
    p.add_argument("--max-nodes", type=int, default=50_000_000)
    p.add_argument("--time-cap", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="audit a clustering against the specs")
    _add_instance_args(p)
    p.add_argument("--clustering", type=Path, required=True, help="clustering JSON path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="seeded batch of solves, CSV aggregate")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--objectives", default="center,median,means")
    p.add_argument("--ds-backend", default="exact")
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for reason in exc.diagnosis:
            print(f"  - {reason}", file=sys.stderr)
        return 2
    except (PipelineError, ContractViolationError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except FairclusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
