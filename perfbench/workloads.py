"""Seeded job lists for the qgwalk benchmark.

``generate(workload, seed, tiny)`` returns the jobs of one pass.  Each job
holds the CLI command, the JSON config the program receives, and ``meta``:
what the benchmark's checker needs to judge the output (graph, expected
roots, walk length).  ``meta`` is never given to the program.

Sizes are fixed per workload (``tiny`` shrinks them for the smoke test).
The seed only varies parameters (lengths, couplings, potentials, partitions,
coins, chains, k windows), so every seed measures the same amount of work:
each scan window holds a fixed number of roots, known from ``oracles.py``.
"""

from __future__ import annotations

import math
import random

import oracles

WORKLOADS = ("walk", "scan", "spectral")

# End-to-end job classes reported as job1_s and job2_s, per workload.
JOB_CLASSES = {
    "walk": ("evolve_large", "evolve_long"),
    "scan": ("scan", "eigenfunction"),
    "spectral": ("verify", "szegedy"),
}


def cycle_edges(n: int) -> list:
    return [[i, i + 1] for i in range(1, n)] + [[1, n]]


def star_edges(leaves: int) -> list:
    return [[1, i] for i in range(2, leaves + 2)]


def complete_edges(n: int) -> list:
    return [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def torus_edges(rows: int, cols: int) -> list:
    def label(r, c):
        return r * cols + c + 1

    edges = set()
    for r in range(rows):
        for c in range(cols):
            for nb in (label(r, (c + 1) % cols), label((r + 1) % rows, c)):
                u, v = label(r, c), nb
                edges.add((min(u, v), max(u, v)))
    return [list(e) for e in sorted(edges)]


def _random_arc(rng: random.Random, edges: list) -> list:
    u, v = rng.choice(edges)
    return [u, v] if rng.random() < 0.5 else [v, u]


def _evolve_job(rng, cls, graph, edges, kind, steps):
    arc = _random_arc(rng, edges)
    return {
        "class": cls, "command": "evolve",
        "config": {
            "graph": graph,
            "walk": {"kind": kind,
                     "partition": {"random_seed": rng.randrange(2**31)},
                     "coins": {"family": "random", "seed": rng.randrange(2**31)}},
            "evolve": {"steps": steps, "initial": {"arc": arc}},
        },
        "meta": {"vertices": max(max(e) for e in edges), "steps": steps,
                 "initial_vertex": arc[0]},
    }


def _walk(rng: random.Random, tiny: bool) -> list:
    # Large: about 2000 arcs, bound by dense assembly and its unitarity SVD.
    # Long: about 100 arcs over many steps, bound by per-step work and CSV rows.
    n_cycle, torus, steps_large = (20, (4, 5), 5) if tiny else (1000, (22, 22), 100)
    n_long, steps_long = (10, 50) if tiny else (50, 2000)
    cyc = cycle_edges(n_cycle)
    tor = torus_edges(*torus)
    long_edges = cycle_edges(n_long)
    return [
        _evolve_job(rng, "evolve_large", {"family": "cycle", "n": n_cycle}, cyc, "G",
                    steps_large),
        _evolve_job(rng, "evolve_large", {"vertices": torus[0] * torus[1], "edges": tor},
                    tor, "A", steps_large),
        _evolve_job(rng, "evolve_long", {"family": "cycle", "n": n_long}, long_edges, "G",
                    steps_long),
        _evolve_job(rng, "evolve_long", {"family": "cycle", "n": n_long}, long_edges, "A",
                    steps_long),
    ]


def _scan_job(graph, edges, qg, k_min, k_max, points, expected):
    return {
        "class": "scan", "command": "qg-scan",
        "config": {"graph": graph, "quantum_graph": qg,
                   "scan": {"k_min": k_min, "k_max": k_max, "grid_points": points}},
        "meta": {"edges": edges, "expected_roots": [list(r) for r in expected]},
    }


def _equilateral(rng, graph, edges, lo, hi, phase_min, phase_max, points):
    """Kirchhoff graph with one edge length; the scan window is set in units of
    kL, with both ends between closed-form roots."""
    length = rng.uniform(lo, hi)
    qg = {"lengths": length, "lambdas": 0.0, "potentials": 0.0}
    k_min, k_max = phase_min / length, phase_max / length
    return _scan_job(graph, edges, qg, k_min, k_max, points,
                     oracles.von_below_roots(edges, length, k_min, k_max))


def _generic(rng, graph, edges, lambdas, k_start, count, points):
    """Unequal lengths and potentials; the window holds exactly ``count``
    secular-equation roots, with both ends midway between roots, so every
    seed does the same number of refinements and eigenfunction jobs."""
    qg = {
        "lengths": {f"{u},{v}": rng.uniform(0.6, 1.4) for u, v in edges},
        "lambdas": lambdas,
        "potentials": {f"{u},{v}": rng.uniform(-0.6, 0.6) for u, v in edges},
    }
    span = 2.0
    roots = oracles.secular_roots(edges, qg, k_start, k_start + span)
    while len(roots) < count + 2:
        span *= 2.0
        roots = oracles.secular_roots(edges, qg, k_start, k_start + span)
    k_min = 0.5 * (roots[0] + roots[1])
    k_max = 0.5 * (roots[count] + roots[count + 1])
    return _scan_job(graph, edges, qg, k_min, k_max, points,
                     [(k, 1) for k in roots[1:count + 1]])


def _scan(rng: random.Random, tiny: bool) -> list:
    # Grid density is about 100 points per closed-form root spacing.
    dens = 25 if tiny else 100
    pi = math.pi
    m = rng.randint(1, 3)
    jobs = [
        # interval: roots m pi / L
        _equilateral(rng, {"vertices": 2, "edges": [[1, 2]]}, [[1, 2]], 0.5, 2.0,
                     (m - 0.5) * pi, (m + 5.5) * pi, 6 * dens),
    ]
    j = rng.randint(1, 4)
    jobs.append(  # 4-leaf star: roots j pi / (2L)
        _equilateral(rng, {"family": "star", "n": 5}, star_edges(4), 0.5, 2.0,
                     (j - 0.5) * pi / 2, (j + 5.5) * pi / 2, 6 * dens))
    n_cyc = 10 if tiny else 30
    m = rng.randint(1, 3)
    jobs.append(  # n-cycle: roots 2 pi m / (n L), double
        _equilateral(rng, {"family": "cycle", "n": n_cyc}, cycle_edges(n_cyc), 0.05, 0.15,
                     (m - 0.5) * 2 * pi / n_cyc, (m + 2.5) * 2 * pi / n_cyc, 3 * dens))
    m = rng.randint(0, 1)
    jobs.append(  # K6: one period of kL, both ends 1 away from the roots at 2 pi m
        _equilateral(rng, {"family": "complete", "n": 6}, complete_edges(6), 0.5, 2.0,
                     2 * pi * m + 1.0, 2 * pi * (m + 1) + 1.0, 4 * dens))
    count = 2 if tiny else 5
    lambdas = {"1": rng.uniform(0.2, 2.0), "2": "dirichlet",
               "3": rng.uniform(0.0, 3.0), "4": 0.0}
    jobs.append(_generic(rng, {"family": "star", "n": 4}, star_edges(3), lambdas,
                         rng.uniform(1.0, 2.0), count, 6 * dens))
    lambdas = {str(v): rng.uniform(0.0, 2.0) for v in range(1, 5)}
    jobs.append(_generic(rng, {"family": "complete", "n": 4}, complete_edges(4), lambdas,
                         rng.uniform(1.0, 2.0), count, 3 * dens))
    return jobs


def random_chain(rng: random.Random, n: int, edges: list) -> list:
    """Reversible chain from symmetric positive edge weights, as matrix rows."""
    w = [[0.0] * n for _ in range(n)]
    for u, v in edges:
        w[u - 1][v - 1] = w[v - 1][u - 1] = rng.uniform(0.2, 1.0)
    return [[x / sum(row) for x in row] for row in w]


def _verify_job(rng, graph, edges):
    return {
        "class": "verify", "command": "verify",
        "config": {
            "graph": graph,
            "walk": {"partition": {"random_seed": rng.randrange(2**31)},
                     "coins": {"family": "random", "seed": rng.randrange(2**31)}},
            "verify": {"steps": 3, "other_partition": {"random_seed": rng.randrange(2**31)}},
        },
        "meta": {"edges": edges},
    }


def _spectral(rng: random.Random, tiny: bool) -> list:
    n_k1, n_k2, n_cyc = (5, 6, 20) if tiny else (25, 30, 500)
    k2_edges = complete_edges(n_k2)
    return [
        _verify_job(rng, {"family": "complete", "n": n_k1}, complete_edges(n_k1)),
        # explicit chain: the checker predicts the spectrum from it independently
        {"class": "szegedy", "command": "szegedy",
         "config": {"graph": {"family": "complete", "n": n_k2},
                    "szegedy": {"transition": random_chain(rng, n_k2, k2_edges)}},
         "meta": {"edges": k2_edges, "explicit_chain": True}},
        # seeded chain: exercises random_reversible_transition inside qgwalk
        {"class": "szegedy", "command": "szegedy",
         "config": {"graph": {"family": "cycle", "n": n_cyc},
                    "szegedy": {"transition": {"random_seed": rng.randrange(2**31)}}},
         "meta": {"edges": cycle_edges(n_cyc), "explicit_chain": False}},
    ]


_BUILDERS = {"walk": _walk, "scan": _scan, "spectral": _spectral}


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The jobs of one pass of ``workload``; the same seed gives the same jobs."""
    rng = random.Random(f"qgwalk-bench:{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, tiny)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:02d}-{job['class']}"
    return jobs
