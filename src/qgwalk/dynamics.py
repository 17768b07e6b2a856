"""Walk states, time evolution, path-sum amplitudes, and the 1-D walk.

A state assigns a complex amplitude to every arc.  The walker's position is
the arc's origin; the terminus plays the role of the coin value, so the
probability of finding the walker at a vertex sums |amplitude|^2 over that
vertex's origin block.

``path_sum_probability`` recomputes evolved amplitudes by summing transfer
matrix products over explicitly enumerated vertex paths.  It shares no code
with the operator route (``EvolutionOperator.apply`` and its dense
``matrix``), which is what makes the agreement between the two a meaningful
check.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .graphs import ArcSpace, Partition
from .operators import CoinSet, EvolutionOperator

__all__ = [
    "WalkState",
    "point_mass",
    "from_arc_amplitudes",
    "local_state",
    "evolve",
    "finding_probability",
    "probability_history",
    "transfer_weight",
    "path_sum_amplitudes",
    "path_sum_probability",
    "ChiralLineResult",
    "one_dim_walk",
]

# Amplitudes one chunk of ``probability_history`` steps holds: 512 KiB.
_CHUNK_AMPLITUDES = 2**15


@dataclass(frozen=True, eq=False)
class WalkState:
    """Unit vector over the arc basis, tagged with its step count."""

    space: ArcSpace
    amplitudes: np.ndarray
    time: int = 0

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.space.size,):
            raise ValueError(f"state has shape {amps.shape}, expected ({self.space.size},)")
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= 1e-9:  # written so that NaN fails
            raise ValueError(f"state norm {nrm:.15g} is not 1 within 1e-9")

    def amplitude(self, arc) -> complex:
        return complex(self.amplitudes[self.space.index_of(arc)])


def _exact_unit(amps: np.ndarray, what: str) -> np.ndarray:
    nrm = np.linalg.norm(amps)
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"{what} must have unit norm, got {nrm:.15g}")
    return amps


def point_mass(space: ArcSpace, arc) -> WalkState:
    """All amplitude on a single arc."""
    amps = np.zeros(space.size, dtype=complex)
    amps[space.index_of(arc)] = 1.0
    return WalkState(space, amps)


def from_arc_amplitudes(space: ArcSpace, mapping: dict) -> WalkState:
    """State from {arc: amplitude}; the combined amplitudes must be unit."""
    amps = np.zeros(space.size, dtype=complex)
    for arc, a in mapping.items():
        amps[space.index_of(arc)] = a
    return WalkState(space, _exact_unit(amps, "arc amplitude map"))


def local_state(space: ArcSpace, vertex: int, local: np.ndarray) -> WalkState:
    """Unit vector placed on one origin block, in neighbour order."""
    vec = np.asarray(local, dtype=complex)
    d = space.graph.degree(vertex)
    if vec.shape != (d,):
        raise ValueError(f"local vector at {vertex} has shape {vec.shape}, expected ({d},)")
    amps = np.zeros(space.size, dtype=complex)
    amps[space.origin_slice(vertex)] = vec
    return WalkState(space, _exact_unit(amps, f"local state at vertex {vertex}"))


def _check_walk(op: EvolutionOperator, state: WalkState, steps: int) -> None:
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if op.space is not state.space and op.space.arcs != state.space.arcs:
        raise ValueError("operator and state live on different arc spaces")


def _check_drift(amps: np.ndarray, steps: int) -> None:
    drift = abs(np.linalg.norm(amps) - 1.0)
    if not drift <= 1e-10:
        raise ArithmeticError(f"norm drifted by {drift:.3e} over {steps} steps")


def evolve(op: EvolutionOperator, state: WalkState, steps: int) -> WalkState:
    """Apply the one-step operator repeatedly; guards against norm drift."""
    _check_walk(op, state, steps)
    amps = state.amplitudes
    for _ in range(steps):
        amps = op.apply(amps)
    _check_drift(amps, steps)
    return WalkState(state.space, amps, state.time + steps)


def finding_probability(state: WalkState) -> np.ndarray:
    """Probability of finding the walker at each vertex (origin-block mass)."""
    return np.add.reduceat(np.abs(state.amplitudes) ** 2, state.space.starts)


def probability_history(op: EvolutionOperator, state: WalkState,
                        steps: int) -> Iterator[np.ndarray]:
    """Finding probabilities after 0, 1, ..., steps steps, yielded one row per step.

    Row 0 comes out before any step.  The walk is then stepped a chunk of
    steps at a time into one reused buffer of at most ``_CHUNK_AMPLITUDES``
    amplitudes (one step, if a step alone holds more), and each chunk's norms
    and origin-block masses are taken in one call each.  A chunk's rows come
    out up to the first step whose norm has drifted past 1e-10, and then
    ArithmeticError names that step.  So a long run holds neither its rows
    nor the dense matrix.
    """
    _check_walk(op, state, steps)
    starts = state.space.starts
    amps = state.amplitudes
    yield np.add.reduceat(np.abs(amps) ** 2, starts)
    buf = np.empty((max(1, min(steps, _CHUNK_AMPLITUDES // amps.size)), amps.size), dtype=complex)
    for first in range(1, steps + 1, len(buf)):
        chunk = buf[:steps + 1 - first]
        for row in chunk:
            row[...] = amps = op.apply(amps)
        drift = np.abs(np.linalg.norm(chunk, axis=1) - 1.0)
        bad = np.flatnonzero(~(drift <= 1e-10))
        if bad.size:
            chunk = chunk[:bad[0]]
        yield from np.add.reduceat(np.abs(chunk) ** 2, starts, axis=1)
        if bad.size:
            raise ArithmeticError(f"norm drifted by {drift[bad[0]]:.3e} "
                                  f"over {first + bad[0]} steps")


# ---------------------------------------------------------------------------
# transfer matrices and path sums
# ---------------------------------------------------------------------------


def transfer_weight(p: Partition, coins: CoinSet, kind: str, u: int, v: int) -> np.ndarray:
    """Single-hop weight carrying the origin block of u to the block of v.

    G-type: column local(u; v) holds coin column local(v; f(u, v)) of H_v.
    A-type: row local(v; f(u, v)) holds coin row local(u; v) of H_u.
    Every other entry is zero, so one hop transports exactly one local mode.
    """
    g, space = p.graph, p.arc_space
    if v not in g.neighbors(u):
        raise ValueError(f"{u} -> {v} is not an arc")
    if kind not in ("G", "A"):
        raise ValueError(f"kind must be 'G' or 'A', got {kind!r}")
    du, dv = g.degree(u), g.degree(v)
    w = np.zeros((dv, du), dtype=complex)
    f_uv = p.successor(u, v)
    if kind == "G":
        w[:, space.local_index(u, v)] = coins.block(v)[:, space.local_index(v, f_uv)]
    else:
        w[space.local_index(v, f_uv), :] = coins.block(u)[space.local_index(u, v), :]
    return w


def path_sum_amplitudes(p: Partition, coins: CoinSet, kind: str, origin: int,
                        phi: np.ndarray, steps: int, cap: int = 6) -> dict:
    """Evolved origin-block vectors, one per reachable end vertex.

    Sums, over every vertex path origin = v0 -> v1 -> ... -> v_steps, the
    product W(v_{steps-1}, v_steps) ... W(v0, v1) phi into the bucket of the
    path's final vertex.  Paths are enumerated explicitly, so the cost grows
    with degree^steps; ``cap`` bounds the step count to keep that honest.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps > cap:
        raise ValueError(f"path enumeration over {steps} steps exceeds cap {cap}")
    g = p.graph
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (g.degree(origin),):
        raise ValueError(f"origin block vector has shape {phi.shape}")
    buckets: dict[int, np.ndarray] = {}

    def walk(v: int, vec: np.ndarray, remaining: int) -> None:
        if remaining == 0:
            if v in buckets:
                buckets[v] = buckets[v] + vec
            else:
                buckets[v] = vec
            return
        for w in g.neighbors(v):
            walk(w, transfer_weight(p, coins, kind, v, w) @ vec, remaining - 1)

    walk(origin, phi, steps)
    return buckets


def path_sum_probability(p: Partition, coins: CoinSet, kind: str, origin: int,
                         phi: np.ndarray, steps: int, event: int, cap: int = 6) -> float:
    """Probability of finding the walker at ``event`` after ``steps`` hops."""
    buckets = path_sum_amplitudes(p, coins, kind, origin, phi, steps, cap)
    vec = buckets.get(event)
    if vec is None:
        return 0.0
    return float(np.linalg.norm(vec) ** 2)


# ---------------------------------------------------------------------------
# 1-D two-component walk on a ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChiralLineResult:
    """Right/left component histories of the 1-D walk, shape (steps+1, sites)."""

    right: np.ndarray
    left: np.ndarray

    def probability(self, t: int = -1) -> np.ndarray:
        return np.abs(self.right[t]) ** 2 + np.abs(self.left[t]) ** 2


def one_dim_walk(a: float, b: float, n_sites: int, steps: int,
                 initial_right: np.ndarray, initial_left: np.ndarray) -> ChiralLineResult:
    """Two-component walk on a periodic line, amplitudes a and i b.

    Update: R'(j) = a R(j-1) + i b L(j+1) and L'(j) = i b R(j-1) + a L(j+1),
    requiring a^2 + b^2 = 1.  Each component obeys the three-term relation
    psi_{n+1}(j) = a [psi_n(j-1) + psi_n(j+1)] - psi_{n-1}(j), which is
    recomputed every step as an internal consistency guard.
    """
    if not abs(a * a + b * b - 1.0) <= 1e-12:
        raise ValueError("need a^2 + b^2 = 1 for a unitary step")
    if n_sites < 3:
        raise ValueError("need at least 3 sites for an unambiguous ring")
    r = np.zeros((steps + 1, n_sites), dtype=complex)
    l = np.zeros((steps + 1, n_sites), dtype=complex)
    r[0] = np.asarray(initial_right, dtype=complex)
    l[0] = np.asarray(initial_left, dtype=complex)
    nrm = np.sqrt(np.sum(np.abs(r[0]) ** 2 + np.abs(l[0]) ** 2))
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"initial components must combine to unit norm, got {nrm:.15g}")
    for n in range(1, steps + 1):
        r[n] = a * np.roll(r[n - 1], 1) + 1j * b * np.roll(l[n - 1], -1)
        l[n] = 1j * b * np.roll(r[n - 1], 1) + a * np.roll(l[n - 1], -1)
        if n >= 2:
            for hist in (r, l):
                lhs = hist[n] + hist[n - 2]
                rhs = a * (np.roll(hist[n - 1], 1) + np.roll(hist[n - 1], -1))
                if not np.abs(lhs - rhs).max() <= 1e-12:
                    raise ArithmeticError("three-term recurrence violated; update is inconsistent")
    return ChiralLineResult(r, l)
