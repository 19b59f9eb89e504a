"""Seeded workloads: each turns a seed into a fixed pool of solve requests.

The benchmark generates every instance and spec here; the solver only ever
sees the finished inputs. ``README.md`` next to this file says why each
workload exists and which layer it is meant to expose.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fairclus import (ExactBackend, GreedyBackend, GroupFairnessSpec,
                      default_ds_profile, exact_gf_spec, make_instance,
                      random_instance)
from fairclus import pipeline


@dataclass(frozen=True)
class Request:
    """One solve: the inputs of ``pipeline.solve`` and nothing else."""

    inst: object
    gf: GroupFairnessSpec
    ds: object
    objective: str
    backend: object
    with_oracle: bool

    def solve(self):
        return pipeline.solve(self.inst, self.gf, self.ds, self.objective,
                              backend=self.backend, with_oracle=self.with_oracle)


def _instance_seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def center_lambda(rng, smoke):
    """k-center, greedy backend, exact GF, k=4, m alternating 2 and 3."""
    n, count = (14, 2) if smoke else (60, 24)
    pool = []
    for i, seed in enumerate(_instance_seeds(rng, count)):
        inst = random_instance(n, 2 + i % 2, seed)
        pool.append(Request(inst, exact_gf_spec(inst), default_ds_profile(inst, 4),
                            "center", GreedyBackend(), False))
    return pool


def medmeans_lp(rng, smoke):
    """k-median and k-means in turn, same generator and backend as center-lambda."""
    n, count = (14, 2) if smoke else (80, 48)
    pool = []
    for i, seed in enumerate(_instance_seeds(rng, count)):
        inst = random_instance(n, 2 + (i // 2) % 2, seed)
        pool.append(Request(inst, exact_gf_spec(inst), default_ds_profile(inst, 4),
                            ("median", "means")[i % 2], GreedyBackend(), False))
    return pool


def _balanced_instance(rng, n, m):
    colors = np.array([i % m for i in range(n)])
    rng.shuffle(colors)
    return make_instance(colors, coords=rng.uniform(0.0, 1.0, size=(n, 2)), m=m)


def _window_gf(inst, width=Fraction(1, 4)):
    lower, upper = [], []
    for count in inst.color_counts():
        ratio = Fraction(int(count), inst.n)
        lower.append(max(Fraction(0), ratio - width))
        upper.append(min(Fraction(1), ratio + width))
    return GroupFairnessSpec(lower=tuple(lower), upper=tuple(upper))


def desk_oracle(rng, smoke):
    """Acceptance-suite traffic: all three objectives on each desk instance,
    exact backend, brute-force oracle on every solve.

    Every (n, m, k) cell of the grid appears equally often, in rounds, so
    only the geometry and colouring vary with the seed: a pool whose mix of
    sizes varied would move the timings more than the solver does.
    """
    rounds, sizes = (1, (6, 7)) if smoke else (10, range(6, 11))
    grid = [(n, m, k) for n in sizes for m in (2, 3) for k in (2, 3)]
    pool = []
    for n, m, k in grid * rounds:
        inst = _balanced_instance(rng, n, m)
        gf, ds = _window_gf(inst), default_ds_profile(inst, k)
        for objective in ("center", "median", "means"):
            pool.append(Request(inst, gf, ds, objective, ExactBackend(), True))
    return pool


# name -> (pool generator, number of pool requests in the traced set)
WORKLOADS = {
    "center-lambda": (center_lambda, 2),
    "medmeans-lp": (medmeans_lp, 2),
    "desk-oracle": (desk_oracle, 60),
}


def make_pool(name, seed, smoke):
    """The workload's request pool; the same (name, seed, smoke) gives the same pool."""
    generate, _ = WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return generate(rng, smoke)


def warm_up(name):
    """Solve a toy pool of the workload once, so lazy imports and HiGHS load."""
    for request in make_pool(name, 0, smoke=True):
        request.solve()
