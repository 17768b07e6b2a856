"""Coin constructors: permutation-free unitaries applied at each vertex.

Families:

* identity / Grover reflections, degree-sized;
* reflections built from a row-stochastic transition matrix;
* metric-graph coins for wave propagation on edges with lengths, magnetic
  potentials, and delta-type vertex coupling strengths (``DIRICHLET`` =
  infinite strength decouples a vertex);
* generalized projector coins steering the reflection with an arbitrary
  unit weight vector per vertex.

Within the block at vertex j the row/column order is the ascending neighbour
order of j.  The metric-graph coin carries, on its row index m, the
propagation phase of the outgoing arc j -> m, from ``propagation_phases``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import ArcSpace, Graph, build_arc_space
from .operators import CoinSet

__all__ = [
    "DIRICHLET",
    "TransitionMatrix",
    "QuantumGraphParams",
    "VertexWeights",
    "grover_coin",
    "identity_coins",
    "grover_coins",
    "szegedy_coins",
    "quantum_graph_coins",
    "projector_coins",
    "boundary_phase",
]

DIRICHLET = math.inf


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix supported exactly on the graph's arcs.

    ``matrix[u-1, v-1]`` is the step probability u -> v; rows sum to one,
    entries are strictly positive on arcs and zero elsewhere.
    """

    graph: Graph
    matrix: np.ndarray

    def __post_init__(self):
        g = self.graph
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        n = g.vertex_count
        if m.shape != (n, n):
            raise ValueError(f"transition matrix shape {m.shape}, expected {(n, n)}")
        if not np.all((m >= 0.0) & (m <= 1.0)):  # also rejects NaN
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_err = np.abs(m.sum(axis=1) - 1.0).max()
        if row_err > 1e-12:
            raise ValueError(f"rows must sum to one (max defect {row_err:.3e})")
        on_arc = np.zeros((n, n), dtype=bool)
        ends = np.array(g.edges) - 1
        on_arc[ends[:, 0], ends[:, 1]] = on_arc[ends[:, 1], ends[:, 0]] = True
        bad = np.argwhere(np.where(on_arc, m <= 0.0, m != 0.0))
        if bad.size:
            u, v = (int(x) + 1 for x in bad[0])  # first offender in row-major order
            if on_arc[u - 1, v - 1]:
                raise ValueError(f"transition {u}->{v} must be positive on an edge")
            raise ValueError(f"transition {u}->{v} must be zero off the edge set")

    @classmethod
    def uniform(cls, g: Graph) -> "TransitionMatrix":
        n = g.vertex_count
        m = np.zeros((n, n))
        for u in g.vertices:
            for v in g.neighbors(u):
                m[u - 1, v - 1] = 1.0 / g.degree(u)
        return cls(g, m)

    def entry(self, u: int, v: int) -> float:
        return float(self.matrix[u - 1, v - 1])


@dataclass(frozen=True)
class QuantumGraphParams:
    """Edge lengths, per-edge magnetic potentials, per-vertex couplings.

    Lengths are nonnegative (zero collapses an edge's phase to 1, useful
    only for limiting checks; spectral scans expect positive lengths); the
    potential of the arc u -> v is +A on the canonical direction (u < v)
    and -A against it; coupling strengths are nonnegative or ``DIRICHLET``.
    ``arc_space`` (the graph's), ``arc_lengths`` and ``arc_potentials`` (the
    same values per arc, in its order, read-only) are derived once, here.
    """

    graph: Graph
    lengths: dict
    lambdas: dict
    potentials: dict
    arc_space: ArcSpace = field(init=False, repr=False, compare=False)
    arc_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    arc_potentials: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.graph
        if set(self.lengths) != set(g.edges):
            raise ValueError("lengths must be keyed by every canonical edge")
        if set(self.potentials) != set(g.edges):
            raise ValueError("potentials must be keyed by every canonical edge")
        if set(self.lambdas) != set(g.vertices):
            raise ValueError("coupling strengths must be keyed by every vertex")
        for e, length in self.lengths.items():
            if not (length >= 0.0 and math.isfinite(length)):
                raise ValueError(f"edge {e} needs a nonnegative finite length")
        for e, a in self.potentials.items():
            if not math.isfinite(a):
                raise ValueError(f"edge {e} needs a finite potential")
        for v, lam in self.lambdas.items():
            if lam != DIRICHLET and not (lam >= 0.0 and math.isfinite(lam)):
                raise ValueError(f"vertex {v} coupling must be >= 0 or DIRICHLET")
        object.__setattr__(self, "arc_space", build_arc_space(g))
        for name, value in (("arc_lengths", self.length), ("arc_potentials", self.arc_potential)):
            arr = np.array([value(u, v) for u, v in self.arc_space.arcs], dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def build(cls, g: Graph, lengths=1.0, lambdas=0.0, potentials=0.0) -> "QuantumGraphParams":
        """Broadcast scalars, or pass dicts keyed by edge / vertex.

        Edge keys may be given in either orientation; a potential keyed
        against the canonical direction has its sign flipped to keep the
        meaning of the arc it was stated for.
        """
        def edge_map(x, signed=False):
            if not isinstance(x, dict):
                return {e: float(x) for e in g.edges}
            out = {}
            for (u, v), val in x.items():
                key = (min(u, v), max(u, v))
                if key in out:
                    raise ValueError(f"edge {key} is given twice")
                out[key] = float(val) if (u < v or not signed) else -float(val)
            return out

        lam = dict(lambdas) if isinstance(lambdas, dict) else {v: lambdas for v in g.vertices}
        return cls(g, edge_map(lengths), {int(v): float(s) for v, s in lam.items()},
                   edge_map(potentials, signed=True))

    def length(self, u: int, v: int) -> float:
        return self.lengths[(min(u, v), max(u, v))]

    def lam(self, v: int) -> float:
        return self.lambdas[v]

    def arc_potential(self, u: int, v: int) -> float:
        """Signed potential along the arc u -> v (antisymmetric under reversal)."""
        a = self.potentials[(min(u, v), max(u, v))]
        return a if u < v else -a

    def propagation_phases(self, k: float) -> np.ndarray:
        """exp(i L (k - A)) of every arc, in ``arc_space`` order."""
        return np.exp(1j * self.arc_lengths * (k - self.arc_potentials))


@dataclass(frozen=True, eq=False)
class VertexWeights:
    """A unit vector over the neighbour order of each vertex."""

    graph: Graph
    vectors: dict

    def __post_init__(self):
        g = self.graph
        clean = {}
        if set(self.vectors) != set(g.vertices):
            raise ValueError("weights must be keyed by every vertex")
        for v, vec in self.vectors.items():
            arr = np.array(vec, dtype=complex)
            if arr.shape != (g.degree(v),):
                raise ValueError(f"weight vector at {v} has shape {arr.shape}")
            nrm = np.linalg.norm(arr)
            if abs(nrm - 1.0) > 1e-12:
                raise ValueError(f"weight vector at {v} is not unit (norm {nrm:.15g})")
            arr.setflags(write=False)
            clean[int(v)] = arr
        object.__setattr__(self, "vectors", clean)

    @classmethod
    def uniform(cls, g: Graph) -> "VertexWeights":
        return cls(g, {v: np.full(g.degree(v), 1.0 / math.sqrt(g.degree(v)))
                       for v in g.vertices})

    def vector(self, v: int) -> np.ndarray:
        return self.vectors[v]


# ---------------------------------------------------------------------------
# coin families
# ---------------------------------------------------------------------------


def grover_coin(d: int) -> np.ndarray:
    """(2/d) J - I: reflection about the uniform vector."""
    if d < 1:
        raise ValueError("coin dimension must be positive")
    return 2.0 / d * np.ones((d, d)) - np.eye(d)


def identity_coins(g: Graph) -> CoinSet:
    return CoinSet({v: np.eye(g.degree(v)) for v in g.vertices})


def grover_coins(g: Graph) -> CoinSet:
    return CoinSet({v: grover_coin(g.degree(v)) for v in g.vertices})


def szegedy_coins(g: Graph, t: TransitionMatrix) -> CoinSet:
    """Reflection about the square-root transition profile at each vertex.

    Block entry (m, l) at vertex j is 2 sqrt(p(j,l) p(j,m)) - delta(l, m);
    each block squares to the identity.
    """
    if t.graph != g:
        raise ValueError("transition matrix belongs to a different graph")
    blocks = {}
    for j in g.vertices:
        p = np.array([t.entry(j, l) for l in g.neighbors(j)])
        # sqrt of the product, not a product of sqrts: the uniform row then
        # lands on the Grover coin without rounding
        blocks[j] = 2.0 * np.sqrt(np.outer(p, p)) - np.eye(len(p))
    return CoinSet(blocks)


def _check_wavenumber(k: float) -> None:
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"wavenumber must be positive and finite, got {k}")


def _scattering_block(d: int, lam: float, k: float) -> np.ndarray:
    """Phase-free metric coin sigma(k) = (2 / (d + i lam/k)) J - I; -I at DIRICHLET."""
    if lam == DIRICHLET:
        return -np.eye(d, dtype=complex)
    coeff = 2.0 / d if lam == 0.0 else 2.0 / (d + 1j * lam / k)
    return coeff * np.ones((d, d)) - np.eye(d)


def _metric_coins(g: Graph, q: QuantumGraphParams, k: float,
                  w: VertexWeights | None = None) -> CoinSet:
    """diag(arc phases) times sigma(k) at every vertex, or with weights w the
    projector core (1 + e^{-i rho}) |a><a| - I at every non-DIRICHLET vertex."""
    _check_wavenumber(k)
    if q.graph != g or (w is not None and w.graph != g):
        raise ValueError("parameters belong to a different graph")
    phases = q.propagation_phases(k)
    blocks = {}
    for j, start in zip(g.vertices, q.arc_space.starts.tolist()):
        d = g.degree(j)
        lam = q.lam(j)
        if w is None or lam == DIRICHLET:
            core = _scattering_block(d, lam, k)
        else:
            a = w.vector(j)
            mu = 1.0 + np.exp(-1j * boundary_phase(lam, d, k))
            core = mu * np.outer(a, a.conj()) - np.eye(d)
        blocks[j] = phases[start:start + d, None] * core
    return CoinSet(blocks)


def quantum_graph_coins(g: Graph, q: QuantumGraphParams, k: float) -> CoinSet:
    """Metric-graph coin at wavenumber k.

    Block at j: diag(arc phases) ((2 / (d + i lam/k)) J - I).  The lam = 0
    rows reduce exactly to the Grover reflection; DIRICHLET gives -I times
    the phases.
    """
    return _metric_coins(g, q, k)


def boundary_phase(lam: float, d: int, k: float) -> float:
    """Extra reflection phase a coupling of strength lam adds at degree d.

    Ranges over [0, pi]: 0 at lam = 0 (pure reflection), pi at DIRICHLET.
    """
    _check_wavenumber(k)
    if lam == DIRICHLET:
        return math.pi
    return 2.0 * math.atan(lam / (k * d))


def projector_coins(g: Graph, q: QuantumGraphParams, w: VertexWeights, k: float) -> CoinSet:
    """Projector-steered metric-graph coin.

    Block at j: diag(arc phases) ((1 + e^{-i rho}) |a><a| - I) with rho the
    boundary phase and a the unit weight vector at j.  Uniform weights
    reproduce ``quantum_graph_coins`` up to rounding.
    """
    return _metric_coins(g, q, k, w)
