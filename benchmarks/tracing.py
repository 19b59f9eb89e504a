"""Per-layer spans recorded from outside the solver.

Each probe replaces one function under the name its caller looks it up by,
so the solver runs unchanged while the benchmark times every call that
crosses a layer boundary. Spans are kept in memory; the harness folds them
into per-layer totals after each traced pass.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from fairclus import lp, pipeline
from fairclus.instance import MetricInstance

ROOT_SPAN = "pipeline.solve"


# A counter sees the call's result, or None when the call raised.
def _count_model(counts, model):
    if model is not None:
        counts["lp.nnz_total"] += int(model.a_ub.nnz + model.a_eq.nnz)
        counts["lp.cols_max"] = max(counts["lp.cols_max"], int(model.ncols))


def _count_probe(counts, model):
    counts["lp.probes"] += 1
    _count_model(counts, model)


def _count_nit(counts, result):
    if result is not None:
        counts["lp.highs_nit"] += int(result.nit)


def _count_arcs(counts, net):
    if net is not None:
        counts["flow.arcs_total"] += len(net.arcs)


def _counter(name):
    def count(counts, _result):
        counts[name] += 1
    return count


# (owner, attribute, span name, counter). The span's layer is the part of
# its name before the dot. ``lp.build_gf_feasibility_lp`` is the name the
# lambda search looks up, so its calls are the search's probes.
PROBES = (
    (pipeline, "feasibility_precheck", "constraints.precheck", None),
    (pipeline, "solve_ds_plugin", "ds.solve", None),
    (pipeline, "pairwise_distance_set", "instance.pairwise", None),
    (pipeline, "min_feasible_lambda", "lp.lambda_search", None),
    (pipeline, "build_gf_feasibility_lp", "lp.build", _count_model),
    (pipeline, "build_gf_objective_lp", "lp.build", _count_model),
    (pipeline, "solve_lp", "lp.solve", None),
    (pipeline, "fractional_cost", "lp.cost", None),
    (pipeline, "reroute_center", "rerouting.reroute", None),
    (pipeline, "reroute_medmeans", "rerouting.reroute", None),
    (pipeline, "check_rerouted", "rerouting.check", None),
    (pipeline, "build_center_flow", "flow.build", _count_arcs),
    (pipeline, "build_medmeans_flow", "flow.build", _count_arcs),
    (pipeline, "max_flow_with_lower_bounds", "flow.solve", None),
    (pipeline, "min_cost_flow", "flow.solve", None),
    (pipeline, "extract_assignment", "flow.extract", None),
    (pipeline, "check_mass_windows", "flow.check", None),
    (pipeline, "make_clustering", "constraints.cost", None),
    (pipeline, "check_ds", "constraints.verify", None),
    (pipeline, "gf_violation", "constraints.verify", None),
    (pipeline, "brute_force_doubly_fair", "oracle.solve", _counter("oracle.calls")),
    (lp, "build_gf_feasibility_lp", "lp.build", _count_probe),
    (lp, "solve_lp", "lp.solve", None),
    (lp, "linprog", "lp.highs", _count_nit),
    (MetricInstance, "distance_matrix", "instance.distance_matrix",
     _counter("instance.distance_matrix_calls")),
)


class Tracer:
    """Records nested spans and counters while a root solve span is open."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.missing = []  # probes whose function the solver no longer has
        self._stack = []
        self._installed = []

    def _open(self, name):
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        self.spans[-1][1] = perf_counter()

    def _close(self):
        end = perf_counter()
        self.spans[self._stack.pop()][2] = end

    def solve(self, request):
        """Run one request inside a root span."""
        self._open(ROOT_SPAN)
        try:
            return request.solve()
        finally:
            self._close()

    def install(self):
        self.missing = []
        for owner, attr, name, count in PROBES:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, count))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._stack:  # outside a solve, e.g. the benchmark's own checks
                return original(*args, **kwargs)
            tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close()
                if count is not None:
                    count(tracer.counts, result)
        return traced

    def take(self):
        """Inclusive time per span name, self time per layer, and counters
        since the last call; then start afresh."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name.split(".", 1)[0]] += end - start - child[i]
        counts = Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return inclusive, self_time, counts
