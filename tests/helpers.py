"""Shared oracles and fixtures for the test suite.

Everything here is deliberately independent of the package's own solver
paths: the star-graph spectrum oracle integrates the edge ODE with RK4 and
matches fluxes at the center, the ring-walk oracle replays the two-component
recurrences with plain Python loops, and the closed forms are textbook
interval/star spectra.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from qgwalk import (
    DIRICHLET,
    CoinSet,
    Graph,
    QuantumGraphParams,
    TransitionMatrix,
    VertexWeights,
    build_arc_space,
    complete_graph,
    evolution,
    flip_flop_partition,
    grover_coins,
    identity_coins,
    projector_coins,
    quantum_graph_coins,
    random_connected_graph,
    random_reversible_transition,
    random_unitary_coins,
    star_graph,
    szegedy_coins,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# The subcommand a config is written for, from the section naming it.
SECTION_COMMANDS = {"evolve": "evolve", "verify": "verify", "szegedy": "szegedy",
                    "scan": "qg-scan", "eigenfunction": "qg-eigenfunction",
                    "partitions": "partitions"}


def config_command(cfg: dict) -> str:
    return next(SECTION_COMMANDS[key] for key in cfg if key in SECTION_COMMANDS)


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------


def interval_roots(length: float, k_max: float) -> list[float]:
    """Positive eigenwavenumbers of a unit interval, Neumann or Dirichlet ends.

    Both end conditions give k = m pi / L for m >= 1 (the Neumann m = 0
    constant mode is excluded because only k > 0 is scanned).
    """
    out = []
    m = 1
    while m * math.pi / length <= k_max:
        out.append(m * math.pi / length)
        m += 1
    return out


def equilateral_star_roots(n_leaves: int, length: float, k_max: float) -> list[tuple[float, int]]:
    """(k, multiplicity) pairs for the equilateral Neumann star.

    With every edge solution cos(kx) from its leaf, matching at the center
    forces either sin(kL) = 0 (all-equal mode, simple) or cos(kL) = 0
    (zero-sum modes, multiplicity n_leaves - 1).
    """
    roots = []
    m = 1
    while m * math.pi / length <= k_max:
        roots.append((m * math.pi / length, 1))
        m += 1
    m = 0
    while (m + 0.5) * math.pi / length <= k_max:
        roots.append(((m + 0.5) * math.pi / length, n_leaves - 1))
        m += 1
    return sorted(roots)


# ---------------------------------------------------------------------------
# ODE shooting oracle for Neumann stars
# ---------------------------------------------------------------------------


def _edge_shoot(k: float, length: float, steps: int) -> tuple[float, float]:
    """RK4-integrate u'' = -k^2 u from a Neumann leaf: u(0)=1, u'(0)=0."""
    h = length / steps
    u, du = 1.0, 0.0
    c = -k * k
    for _ in range(steps):
        k1u, k1d = du, c * u
        k2u, k2d = du + 0.5 * h * k1d, c * (u + 0.5 * h * k1u)
        k3u, k3d = du + 0.5 * h * k2d, c * (u + 0.5 * h * k2u)
        k4u, k4d = du + h * k3d, c * (u + h * k3u)
        u += h * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        du += h * (k1d + 2 * k2d + 2 * k3d + k4d) / 6.0
    return u, du


def _star_matching_svals(k: float, lengths: list[float], steps: int) -> np.ndarray:
    """Singular values of the center-matching system for a Neumann star.

    Unknowns are one coefficient per edge plus the center value phi; rows
    demand c_e u_e(L_e) = phi for every edge and a vanishing total inward
    derivative sum_e c_e u_e'(L_e) = 0 (Kirchhoff at the center).
    """
    n = len(lengths)
    m = np.zeros((n + 1, n + 1))
    for e, length in enumerate(lengths):
        u, du = _edge_shoot(k, length, steps)
        m[e, e] = u
        m[e, n] = -1.0
        m[n, e] = du
    return np.linalg.svd(m, compute_uv=False)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-13):
    """Plain golden-section minimization, tracking the best point seen."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
        for x, fx in ((c, fc), (d, fd)):
            if fx < best_f:
                best_x, best_f = x, fx
    return best_x, best_f


def star_neumann_shooting_roots(lengths: list[float], k_min: float, k_max: float,
                                grid: int = 3000, steps: int = 2000,
                                accept: float = 1e-6) -> list[tuple[float, int]]:
    """(k, multiplicity) roots of the Neumann star by shooting + matching."""
    ks = np.linspace(k_min, k_max, grid)
    vals = np.array([_star_matching_svals(float(k), lengths, steps)[-1] for k in ks])

    def f(k: float) -> float:
        return float(_star_matching_svals(k, lengths, steps)[-1])

    roots: list[tuple[float, int]] = []
    for i in range(len(ks)):
        left = vals[i - 1] if i > 0 else np.inf
        right = vals[i + 1] if i + 1 < len(ks) else np.inf
        if not (vals[i] <= left and vals[i] <= right and vals[i] < 0.05):
            continue
        lo = float(ks[max(i - 1, 0)])
        hi = float(ks[min(i + 1, len(ks) - 1)])
        k_root, f_root = _golden_min(f, lo, hi)
        if f_root > accept:
            continue
        if roots and abs(k_root - roots[-1][0]) < 1e-8:
            continue
        svals = _star_matching_svals(k_root, lengths, steps)
        mult = int(np.sum(svals < 1e-4))
        roots.append((k_root, mult))
    return roots


# ---------------------------------------------------------------------------
# pure-Python ring-walk recurrence oracle
# ---------------------------------------------------------------------------


def ring_recurrence_oracle(a: float, b: float, n_sites: int, steps: int,
                           initial_right, initial_left):
    """Replay the two-component recurrences with explicit loops.

    R'(j) = a R(j-1) + i b L(j+1) and L'(j) = i b R(j-1) + a L(j+1), indices
    mod n_sites; returns (right, left) histories of shape (steps+1, n_sites).
    """
    right = [list(map(complex, initial_right))]
    left = [list(map(complex, initial_left))]
    for _ in range(steps):
        r_prev, l_prev = right[-1], left[-1]
        r_new = [a * r_prev[(j - 1) % n_sites] + 1j * b * l_prev[(j + 1) % n_sites]
                 for j in range(n_sites)]
        l_new = [1j * b * r_prev[(j - 1) % n_sites] + a * l_prev[(j + 1) % n_sites]
                 for j in range(n_sites)]
        right.append(r_new)
        left.append(l_new)
    return np.array(right), np.array(left)


def ring_engine_histories(a: float, b: float, n_sites: int, steps: int,
                          initial_right, initial_left):
    """Run the same walk on the general engine and read back components.

    Site j (0-based) keeps its right-mover on the arc (j+1, j+2 mod n) and
    its left-mover on (j+1, j mod n); every vertex carries the coin
    [[ib, a], [a, ib]] and the walk is the G-type flip-flop evolution.
    """
    g = Graph.from_edges(n_sites, [(v, v % n_sites + 1) for v in range(1, n_sites + 1)])
    space = build_arc_space(g)
    coin = np.array([[1j * b, a], [a, 1j * b]], dtype=complex)
    coins = CoinSet({v: coin for v in g.vertices})
    op = evolution(flip_flop_partition(g), coins, "G")

    def right_arc(site):
        v = site + 1
        return (v, v % n_sites + 1)

    def left_arc(site):
        v = site + 1
        return (v, (v - 2) % n_sites + 1)

    vec = np.zeros(space.size, dtype=complex)
    for j in range(n_sites):
        vec[space.index_of(right_arc(j))] += complex(initial_right[j])
        vec[space.index_of(left_arc(j))] += complex(initial_left[j])

    right = [[vec[space.index_of(right_arc(j))] for j in range(n_sites)]]
    left = [[vec[space.index_of(left_arc(j))] for j in range(n_sites)]]
    for _ in range(steps):
        vec = op.matrix @ vec
        right.append([vec[space.index_of(right_arc(j))] for j in range(n_sites)])
        left.append([vec[space.index_of(left_arc(j))] for j in range(n_sites)])
    return np.array(right), np.array(left)


# ---------------------------------------------------------------------------
# coin families
# ---------------------------------------------------------------------------


def random_weights(g: Graph, rng: np.random.Generator) -> VertexWeights:
    """One random complex unit vector per vertex."""
    vectors = {}
    for v in g.vertices:
        w = rng.normal(size=g.degree(v)) + 1j * rng.normal(size=g.degree(v))
        vectors[v] = w / np.linalg.norm(w)
    return VertexWeights(g, vectors)


def generic_params(g: Graph, rng: np.random.Generator,
                   dirichlet: bool = False) -> QuantumGraphParams:
    """Random edge lengths/potentials and mixed vertex couplings."""
    lengths = {e: float(rng.uniform(0.3, 2.0)) for e in g.edges}
    potentials = {e: float(rng.uniform(-1.5, 1.5)) for e in g.edges}
    choices = [0.0, float(rng.uniform(0.2, 3.0))]
    if dirichlet:
        choices.append(DIRICHLET)
    lambdas = {v: choices[int(rng.integers(len(choices)))] for v in g.vertices}
    return QuantumGraphParams.build(g, lengths, lambdas, potentials)


def metric_cases() -> list[tuple[Graph, QuantumGraphParams]]:
    """A 3-leaf star with delta, Dirichlet and magnetic terms, and K4 with all three."""
    star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    k4 = Graph.from_edges(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    return [
        (star, QuantumGraphParams.build(
            star, lengths={(1, 2): 1.0, (1, 3): 0.8, (1, 4): 1.3},
            potentials={(1, 2): 0.4, (1, 3): 0.0, (1, 4): -0.2},
            lambdas={1: 0.7, 2: 0.0, 3: 2.5, 4: DIRICHLET})),
        (k4, QuantumGraphParams.build(
            k4, lengths={e: 0.5 + 0.15 * i for i, e in enumerate(k4.edges)},
            potentials={e: 0.3 - 0.2 * i for i, e in enumerate(k4.edges)},
            lambdas={1: 0.0, 2: 1.2, 3: DIRICHLET, 4: 0.35})),
    ]


def coin_families(g: Graph, rng: np.random.Generator, k: float = 1.3) -> dict:
    """Every supported coin family on g, seeded where randomness enters."""
    q = generic_params(g, rng, dirichlet=True)
    return {
        "identity": identity_coins(g),
        "grover": grover_coins(g),
        "haar": random_unitary_coins(g, rng),
        "szegedy_uniform": szegedy_coins(TransitionMatrix.uniform(g)),
        "szegedy_random": szegedy_coins(random_reversible_transition(g, rng)),
        "metric": quantum_graph_coins(q, k),
        "projector": projector_coins(q, random_weights(g, rng), k),
    }


# ---------------------------------------------------------------------------
# explicit cycle-graph partitions
# ---------------------------------------------------------------------------

# On the 4-cycle 1-2-3-4: "straight" passes through a vertex, "turn" bounces
# back along the incoming edge.
C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]

# straight at every vertex: two opposite directed 4-cycles
C4_P1 = {(1, 2): 3, (3, 2): 1, (2, 3): 4, (4, 3): 2,
         (3, 4): 1, (1, 4): 3, (4, 1): 2, (2, 1): 4}

# bounce at 2 and 4, straight at 1 and 3
C4_P2 = {(1, 2): 1, (3, 2): 3, (2, 3): 4, (4, 3): 2,
         (3, 4): 3, (1, 4): 1, (4, 1): 2, (2, 1): 4}

# bounce at 4 only: a single directed 8-cycle through every arc
C4_P3 = {(1, 2): 3, (3, 2): 1, (2, 3): 4, (4, 3): 2,
         (3, 4): 3, (1, 4): 1, (4, 1): 2, (2, 1): 4}


def c4_graph() -> Graph:
    return Graph.from_edges(4, C4_EDGES)


# 4 vertices, center-ish vertex 1 of degree 3, extra edge {2,4}: the smallest
# graph where a degree-2 vertex has non-adjacent-looking neighbors {1, 4}
BOWTIE_EDGES = [(1, 2), (1, 3), (1, 4), (2, 4)]


def bowtie_graph() -> Graph:
    return Graph.from_edges(4, BOWTIE_EDGES)


def mixed_degree_graph() -> Graph:
    """Nine vertices of degrees 5, 2, 3, 3, 2, 2, 2, 2, 1, in vertex order."""
    return Graph.from_edges(9, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4),
                                (4, 7), (5, 8), (6, 9), (7, 8)])


def arc_order_graphs() -> list[Graph]:
    """A star, the bowtie, K6 and seeded random graphs, for checks of arc order."""
    rng = np.random.default_rng(808)
    return [star_graph(4), bowtie_graph(), complete_graph(6),
            *(random_connected_graph(rng, 2, 9, 0.4) for _ in range(6))]


def partition_order_graph() -> Graph:
    """Six vertices of degrees 4, 2, 2, 2, 1, 1: 192 partitions, mixed degrees."""
    return Graph.from_edges(6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 6)])


# ---------------------------------------------------------------------------
# successor-map references for the partition builders
# ---------------------------------------------------------------------------

# Each builds the arc-keyed dict {(i, j): f(i, j)} one arc at a time, the way
# the partition builders once did; the builders now write the arc permutation.


def reference_random_successors(g: Graph, rng: np.random.Generator) -> dict:
    """One ``rng.permutation`` of the neighbour positions per vertex, in vertex order."""
    succ = {}
    for v in g.vertices:
        nbrs = g.neighbors(v)
        perm = rng.permutation(len(nbrs))
        for pos, i in enumerate(nbrs):
            succ[(i, v)] = nbrs[int(perm[pos])]
    return succ


def reference_enumerated_successors(g: Graph) -> list[dict]:
    """Every successor map: vertices ascending, bijections in lexicographic order."""
    per_vertex = []
    for v in g.vertices:
        nbrs = g.neighbors(v)
        per_vertex.append([dict(zip(nbrs, perm)) for perm in itertools.permutations(nbrs)])
    out = []
    for combo in itertools.product(*per_vertex):
        succ = {}
        for v, table in zip(g.vertices, combo):
            for i, m in table.items():
                succ[(i, v)] = m
        out.append(succ)
    return out


def reference_reverse_successors(g: Graph, succ: dict) -> dict:
    """The map r with succ[(r[(x, y)], y)] == x: every per-vertex bijection inverted."""
    rev = {}
    for y in g.vertices:
        for u in g.neighbors(y):
            rev[(succ[(u, y)], y)] = u
    return rev


def reference_cycles(succ: dict) -> tuple:
    """Orbits of (i, j) -> (j, f(i, j)), each from its smallest arc, sorted by first arc."""
    seen = set()
    cycles = []
    for a in sorted(succ):
        if a in seen:
            continue
        cyc = [a]
        b = (a[1], succ[a])
        while b != a:
            cyc.append(b)
            b = (b[1], succ[b])
        seen.update(cyc)
        cycles.append(tuple(cyc))
    return tuple(cycles)
