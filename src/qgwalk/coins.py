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

Both metric families have one formula, ``_metric_coin_stacks``: each degree
stack's blocks at every k of a batch, the phases from one ``np.exp`` and the
phase-free cores from ``_vertex_cores``.  A stack with no finite positive
coupling has cores that do not depend on k (``_k_free_cores``); a caller
that builds many batches, as ``scan_roots`` does, takes them once and passes
them in.  ``quantum_graph_coins`` and ``projector_coins`` are its one-k call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
            if not abs(nrm - 1.0) <= 1e-12:  # written so that NaN fails
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

    @cached_property
    def arc_vector(self) -> np.ndarray:
        """The vectors concatenated in vertex order, read-only: the entry of arc
        (j, m) of the graph's arc space is the weight of m at j."""
        vec = np.concatenate([self.vectors[v] for v in self.graph.vertices])
        vec.setflags(write=False)
        return vec


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


def szegedy_coins(t: TransitionMatrix) -> CoinSet:
    """Reflection about the square-root transition profile at each vertex.

    Block entry (m, l) at vertex j is 2 sqrt(p(j,l) p(j,m)) - delta(l, m);
    each block squares to the identity.
    """
    space = build_arc_space(t.graph)
    stacks = []
    for vertices, arcs in space.degree_blocks:
        p = t.matrix[vertices[:, None] - 1, space.terminus[arcs] - 1]  # p(j, l) along j's arcs
        # sqrt of the product, not a product of sqrts: the uniform row then
        # lands on the Grover coin without rounding
        stacks.append((vertices, 2.0 * np.sqrt(p[:, :, None] * p[:, None, :]) - np.eye(p.shape[1])))
    return CoinSet.from_stacks(stacks)


def _check_wavenumber(k: float) -> None:
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"wavenumber must be positive and finite, got {k}")


def _check_weights(q: QuantumGraphParams, w: VertexWeights) -> None:
    if w.graph != q.graph:
        raise ValueError("weights belong to a different graph")


def _vertex_cores(q: QuantumGraphParams, ks: np.ndarray, vertices: np.ndarray,
                  arcs: np.ndarray, w: VertexWeights | None = None) -> np.ndarray:
    """Phase-free metric coins of the vertices of one degree stack at every k of ``ks``.

    sigma_j(k) = (2 / (d + i lam/k)) J - I, or with weights w the projector
    core (1 + e^{-i rho}) |a><a| - I; -I at a DIRICHLET vertex either way.
    ``arcs`` holds the vertices' arcs, one row each, as ``degree_blocks`` does;
    the result has shape (len(ks), n_d, d, d).  Each coefficient is a Python
    scalar per vertex and k: divided for a whole stack, 2 / (d + i lam/k)
    moves in its last bits.
    """
    d = arcs.shape[1]
    lams = [q.lam(j) for j in vertices.tolist()]
    if w is None:
        def coefficient(lam, k):
            return 2.0 / d if lam == 0.0 else 2.0 / (d + 1j * lam / k)
        shape = np.ones((d, d))
    else:
        def coefficient(lam, k):  # rho = 0 at lam = 0
            return 2.0 if lam == 0.0 else 1.0 + np.exp(-1j * boundary_phase(lam, d, k))
        a = w.arc_vector[arcs]
        shape = a[:, :, None] * a.conj()[:, None, :]  # |a><a| of every vertex
    coeff = [[0.0 if lam == DIRICHLET else coefficient(lam, k) for lam in lams]
             for k in ks.tolist()]
    cores = np.array(coeff, dtype=complex)[:, :, None, None] * shape - np.eye(d)
    dirichlet = [lam == DIRICHLET for lam in lams]
    if any(dirichlet):
        cores[:, dirichlet] = -np.eye(d, dtype=complex)  # its zeros are -0.0
    return cores


def _k_free_cores(q: QuantumGraphParams, w: VertexWeights | None = None) -> tuple:
    """Per degree stack, its ``_vertex_cores`` as one (n_d, d, d) array when they
    do not depend on k (every coupling 0 or DIRICHLET), else None."""
    # any k will do for such a stack: none of its coefficients reads k
    return tuple(None if any(q.lam(j) not in (0.0, DIRICHLET) for j in vs.tolist())
                 else _vertex_cores(q, np.ones(1), vs, arcs, w)[0]
                 for vs, arcs in q.arc_space.degree_blocks)


def _metric_coin_stacks(q: QuantumGraphParams, ks: np.ndarray, w: VertexWeights | None = None,
                        cores: tuple | None = None) -> list:
    """Each degree stack's metric coins at every k of ``ks``: diag(arc phases) times its
    ``_vertex_cores``, one (len(ks), n_d, d, d) array per stack.

    The phases come from one ``np.exp`` over (len(ks), arcs), in the operation
    order of ``propagation_phases``.  A caller that builds many batches passes
    ``cores``, its ``_k_free_cores(q, w)``, and those stacks skip
    ``_vertex_cores``; without it every stack takes ``_vertex_cores`` at every k.
    """
    for k in ks.tolist():
        _check_wavenumber(k)
    if w is not None:
        _check_weights(q, w)
    if cores is None:
        cores = (None,) * len(q.arc_space.degree_blocks)
    phases = np.exp(1j * q.arc_lengths * (ks[:, None] - q.arc_potentials))
    return [phases[:, arcs][..., None] * (_vertex_cores(q, ks, vs, arcs, w) if core is None
                                          else core)
            for (vs, arcs), core in zip(q.arc_space.degree_blocks, cores)]


def _metric_coins(q: QuantumGraphParams, k: float, w: VertexWeights | None = None) -> CoinSet:
    """The one-k call of ``_metric_coin_stacks``, as a coin set."""
    stacks = _metric_coin_stacks(q, np.array([k], dtype=float), w)
    return CoinSet.from_stacks((vs, hs[0])
                               for (vs, _), hs in zip(q.arc_space.degree_blocks, stacks))


def quantum_graph_coins(q: QuantumGraphParams, k: float) -> CoinSet:
    """Metric-graph coin at wavenumber k.

    Block at j: diag(arc phases) ((2 / (d + i lam/k)) J - I).  The lam = 0
    rows reduce exactly to the Grover reflection; DIRICHLET gives -I times
    the phases.
    """
    return _metric_coins(q, k)


def boundary_phase(lam: float, d: int, k: float) -> float:
    """Extra reflection phase a coupling of strength lam adds at degree d.

    Ranges over [0, pi]: 0 at lam = 0 (pure reflection), pi at DIRICHLET.
    """
    _check_wavenumber(k)
    if lam == DIRICHLET:
        return math.pi
    return 2.0 * math.atan(lam / (k * d))


def projector_coins(q: QuantumGraphParams, w: VertexWeights, k: float) -> CoinSet:
    """Projector-steered metric-graph coin.

    Block at j: diag(arc phases) ((1 + e^{-i rho}) |a><a| - I) with rho the
    boundary phase and a the unit weight vector at j.  Uniform weights
    reproduce ``quantum_graph_coins`` up to rounding.
    """
    return _metric_coins(q, k, w)
