"""Measured loops, output checks and metrics of one benchmark run.

Every solve is a closed loop with one caller: the next request starts when
the previous one returns. Each output is checked through the public API
before it counts, and its canonical bytes feed the run's output digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from time import perf_counter

from fairclus import check_ds, gf_violation
from fairclus.constraints import clustering_cost

from tracing import Tracer

# name -> unit; printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "peak_rss_mb": "MB",
    "cost_gm": "cost",
    "gf_violation_mean": "points",
}

LAYERS = ("instance", "constraints", "ds", "lp", "rerouting", "flow", "oracle",
          "pipeline")

# name -> unit, per traced pass; printed with --trace 1
PER_LAYER = {
    "pipeline.solve_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "lp.lambda_search_s": "s",
    "lp.probes": "count",
    "lp.build_s": "s",
    "lp.solve_s": "s",
    "lp.highs_s": "s",
    "lp.highs_nit": "count",
    "lp.nnz_total": "count",
    "lp.cols_max": "count",
    "ds.solve_s": "s",
    "constraints.precheck_s": "s",
    "constraints.verify_s": "s",
    "rerouting.reroute_s": "s",
    "rerouting.check_s": "s",
    "flow.build_s": "s",
    "flow.solve_s": "s",
    "flow.extract_s": "s",
    "flow.check_s": "s",
    "flow.arcs_total": "count",
    "oracle.solve_s": "s",
    "oracle.calls": "count",
    "instance.gen_s": "s",
    "instance.distance_matrix_calls": "count",
    "trace.overhead_frac": "ratio",
}

# counters that depend only on the inputs, so every traced pass repeats them
EXACT_COUNTERS = ("lp.probes", "lp.highs_nit", "lp.nnz_total", "lp.cols_max",
                  "flow.arcs_total", "instance.distance_matrix_calls",
                  "oracle.calls")

GF_LIMIT = 2.0 + 1e-9  # the pipelines guarantee a GF violation of at most 2
RATIO_SLACK = 1e-9


def check_output(request, clustering, report):
    """Problems found by recomputing the output's guarantees; [] if none."""
    inst, ds = request.inst, request.ds
    problems = []
    centers = list(clustering.centers)
    if len(set(centers)) != ds.k or len(clustering.assignment) != inst.n:
        problems.append(f"{len(set(centers))} centers for k={ds.k}, "
                        f"{len(clustering.assignment)} points assigned of {inst.n}")
        return problems
    if not check_ds(inst, centers, ds):
        problems.append("center counts break the DS windows")
    empty = [c for c in centers if not clustering.members(c)]
    if empty:
        problems.append(f"empty clusters at centers {empty}")
        return problems
    violation = gf_violation(inst, clustering, request.gf)
    if violation > GF_LIMIT or violation != report.gf_violation:
        problems.append(f"GF violation {violation}, report says {report.gf_violation}")
    cost = clustering_cost(inst, clustering.assignment, request.objective)
    if cost != report.cost or cost != clustering.cost:
        problems.append(f"recomputed cost {cost}, report says {report.cost}")
    if report.oracle_ratio is not None and report.guaranteed_factor is not None \
            and report.oracle_ratio > report.guaranteed_factor * (1 + RATIO_SLACK):
        problems.append(f"oracle ratio {report.oracle_ratio} above the "
                        f"guarantee {report.guaranteed_factor}")
    if request.with_oracle and report.oracle_cost is None and report.oracle_note is None:
        problems.append("oracle requested but the report carries no oracle result")
    return problems


def canonical(clustering, report):
    """Deterministic bytes of an output: clustering plus report without timings."""
    body = {k: v for k, v in report.to_dict().items() if k != "timings"}
    return json.dumps({"clustering": clustering.to_dict(), "report": body},
                      sort_keys=True).encode()


class Run:
    """Solves requests, checks them and keeps what the metrics need."""

    def __init__(self, pool):
        self.pool = pool
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.walls = [[] for _ in pool]  # seconds of each untraced solve, per request
        self.first = [None] * len(pool)  # canonical bytes of each request's output
        self.reports = [None] * len(pool)

    def solve(self, index, call=None):
        """Solve pool[index], through ``call`` if given; returns its wall time
        in seconds."""
        request = self.pool[index]
        self.attempted += 1
        start = perf_counter()
        try:
            clustering, report = call(request) if call else request.solve()
        except Exception:  # the loop must go on and count the failure
            wall = perf_counter() - start
            self._fail(index, traceback.format_exc(limit=3))
            return wall
        wall = perf_counter() - start
        problems = check_output(request, clustering, report)
        data = canonical(clustering, report)
        if self.first[index] is None:
            self.first[index] = data
            self.reports[index] = report
        elif data != self.first[index]:
            problems.append("output differs from the first solve of the same request")
        if problems:
            self._fail(index, "; ".join(problems))
        return wall

    def _fail(self, index, message):
        self.failed += 1
        self.problems.append(f"request {index}: {message}")
        print(f"request {index} failed: {message}", file=sys.stderr)

    def digest(self, count):
        """sha256 over the canonical outputs of the first ``count`` requests."""
        h = hashlib.sha256()
        for data in self.first[:count]:
            h.update(data or b"<failed>")
            h.update(b"\n")
        return h.hexdigest()


def run_untraced(pool, seconds):
    """Cycle through the pool until ``seconds`` have passed and every request
    has been solved once; returns (run, end-to-end metrics, details)."""
    run = Run(pool)
    start = perf_counter()
    i = 0
    while i < len(pool) or perf_counter() - start < seconds:
        index = i % len(pool)
        run.walls[index].append(run.solve(index))
        i += 1
    reports = [r for r in run.reports if r is not None]
    # Other tenants of the host only ever slow a solve down, so each
    # request's fastest solve in the run is the steadiest estimate of the
    # solver's own time.
    best = [min(walls) for walls in run.walls]
    metrics = {
        "solves_per_s": len(reports) / sum(best),
        "solve_s_p50": statistics.median(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cost_gm": _geometric_mean([r.cost for r in reports]),
        "gf_violation_mean": statistics.fmean(r.gf_violation for r in reports)
        if reports else math.nan,
    }
    ratios = [r.oracle_ratio for r in reports if r.oracle_ratio is not None]
    p90 = statistics.quantiles(best, n=10)[-1] if len(best) >= 2 else None
    beyond = sum(1 for w in best if p90 is not None and w > p90)
    details = {
        "solves": run.attempted,
        "requests": len(pool),
        "solves_per_request_min": min(len(walls) for walls in run.walls),
        # a percentile is reported only with ten samples beyond it
        "solve_s_p90": p90 if beyond >= 10 else None,
        "solves_beyond_p90": beyond,
        "oracle_solves": len(ratios),
        "oracle_ratio_max": max(ratios) if ratios else None,
        "oracle_ratio_mean": statistics.fmean(ratios) if ratios else None,
        "outputs_count": len(pool),
        "outputs_sha256": run.digest(len(pool)),
    }
    return run, metrics, details


def run_traced(pool, trace_count, seconds, gen_s):
    """Alternate an untraced and a traced pass over the first ``trace_count``
    requests until ``seconds`` have passed and two traced passes are done;
    returns (run, per-layer metrics per traced pass, details)."""
    trace_set = range(min(trace_count, len(pool)))
    run = Run(pool)
    tracer = Tracer()
    totals = {name: 0.0 for name in PER_LAYER}
    pass_counts = []
    walls = {False: 0.0, True: 0.0}
    start = perf_counter()
    while len(pass_counts) < 2 or perf_counter() - start < seconds:
        # swap which pass goes first, so warm caches favour neither
        order = (False, True) if len(pass_counts) % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.install()
            try:
                for index in trace_set:
                    walls[traced] += run.solve(index, tracer.solve if traced else None)
            finally:
                tracer.uninstall()
        inclusive, self_time, counts = tracer.take()
        for layer in LAYERS:
            totals[f"{layer}.self_s"] += self_time[layer]
        for name in PER_LAYER:
            if name.endswith("_s") and name[:-2] in inclusive:
                totals[name] += inclusive[name[:-2]]
        pass_counts.append({name: counts[name] for name in EXACT_COUNTERS})
    passes = len(pass_counts)
    metrics = {name: value / passes for name, value in totals.items()}
    metrics.update(pass_counts[0])
    metrics["instance.gen_s"] = gen_s
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    if any(c != pass_counts[0] for c in pass_counts):
        run.problems.append(f"exact counters differ between traced passes: {pass_counts}")
    details = {
        "traced_passes": passes,
        "traced_requests": len(trace_set),
        "counters": pass_counts[0],
        "probes_missing": tracer.missing,
        "outputs_count": len(trace_set),
        "outputs_sha256": run.digest(len(trace_set)),
    }
    return run, metrics, details


def _geometric_mean(values):
    if not values or min(values) <= 0.0:
        return math.nan
    return math.exp(statistics.fmean(math.log(v) for v in values))
