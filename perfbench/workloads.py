"""Seeded request lists for the three benchmark workloads.

Each request is one ``momangle`` CLI call on one complex file; the
program under test sees only the JSON files written from them.  The
random complexes are fixed draws from the test-suite distribution; the
workload seed and the sweep's number within the run shuffle the request
order of ``analyze`` and ``verify``, and ``walk`` runs its five requests
in a fixed order.  Per-request cost and peak memory follow the order
through momangle's caches (peak memory on ``verify`` moved 6 % between
seeds), so each sweep of a run takes another order and the run's
medians cover several.

- ``walk``: ``hochster --json`` over Z.  The 2^m subset walk does all the
  work (relabelled ``full_subcomplex`` and the integer Smith form).  It
  holds spheres (where Alexander duality would apply), a cone right after
  its base (core reduction and cache sharing would apply) and a random
  complex where neither does.
- ``analyze``: ``analyze --json`` on sphere families and their cones,
  shuffled with random complexes from the test-suite distribution.  Field
  elimination for cocycle bases dominates.  The random inputs are almost
  all product-free, so the Golod search finds nothing; the sphere families
  are connected sums, so their products are resolved to coordinates and
  minimal non-Golodness deletes each vertex in turn.
- ``verify``: ``verify thm1.1|thm1.2|thm4.2 --json`` on random complexes
  on 6-9 vertices.  The cellular R_K complex and its rank over Q dominate.

Sizes are chosen so one sweep takes a few seconds on a 2-CPU host, which
lets a run of the benchmark report medians over several fresh processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from momangle import cone, from_facets, polygon, stacked_sphere

WORKLOADS = ("walk", "analyze", "verify")

WALK_RANDOM_M = 12
ANALYZE_RANDOM = 40
VERIFY_RANDOM = 60
THEOREMS = ("thm1.1", "thm1.2", "thm4.2")


@dataclass(frozen=True)
class Request:
    """One CLI call: ``momangle <command...> <file> --json``."""

    command: tuple[str, ...]
    complex_json: str
    kind: str  # "sphere", "cone" or "random"

    def argv(self, path: str) -> list[str]:
        return [*self.command, path, "--json"]


def random_complex(rng: random.Random, lo: int, hi: int):
    """The random-complex distribution of the test suite's corpus."""
    while True:
        m = rng.randint(lo, hi)
        facets = [
            tuple(rng.sample(range(1, m + 1), rng.randint(1, min(m, 4))))
            for _ in range(rng.randint(2, m + 2))
        ]
        if set().union(*map(set, facets)) == set(range(1, m + 1)):
            return from_facets(m, facets)


def _sphere_families():
    spheres = [polygon(m) for m in range(4, 8)]
    spheres += [stacked_sphere(2, k) for k in range(3)]
    spheres += [stacked_sphere(3, k) for k in range(2)]
    return spheres


def _random_pool(workload: str, count: int, lo: int, hi: int):
    """count random complexes, the same draw on every seed.

    Redrawing per seed moved a sweep's cost by about 20 % between seeds,
    and relabelling the vertices per seed by about 10 % (elimination order
    and cache sharing follow the labels), both more than a regression
    bound can absorb.  The seed sets the request order instead.
    """
    draw = random.Random(f"pool:{workload}")
    return [random_complex(draw, lo, hi) for _ in range(count)]


def build(workload: str, seed: int, sweep: int = 0) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}:{sweep}")
    if workload == "walk":
        # Fixed order, so the cone follows its base and each request pays
        # the same share of the shared cache on every seed.
        base = polygon(11)
        (other,) = _random_pool(workload, 1, WALK_RANDOM_M, WALK_RANDOM_M)
        pairs = [
            (polygon(14), "sphere"),
            (stacked_sphere(2, 9), "sphere"),
            (base, "sphere"),
            (cone(base), "cone"),
            (other, "random"),
        ]
        return [Request(("hochster",), K.to_json(), kind) for K, kind in pairs]
    if workload == "analyze":
        spheres = _sphere_families()
        pairs = [(K, "sphere") for K in spheres]
        pairs += [(cone(K), "cone") for K in spheres if K.m < 7]
        pairs += [(K, "random") for K in _random_pool(workload, ANALYZE_RANDOM, 3, 7)]
        rng.shuffle(pairs)
        return [Request(("analyze",), K.to_json(), kind) for K, kind in pairs]
    if workload == "verify":
        pool = _random_pool(workload, VERIFY_RANDOM, 6, 9)
        rng.shuffle(pool)
        return [
            Request(("verify", thm), K.to_json(), "random")
            for K in pool
            for thm in THEOREMS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def smoke(workload: str) -> list[Request]:
    """One small request of the workload's kind, for the benchmark's own test."""
    K = polygon(5)
    command = {"walk": ("hochster",), "analyze": ("analyze",), "verify": ("verify", "thm1.1")}
    return [Request(command[workload], K.to_json(), "sphere")]
