"""Graphs, symmetric arcs, line digraphs, and Euler-cycle partitions.

Vertices are labelled 1..n.  Every edge {u, v} contributes the two arcs
(u, v) and (v, u); walks live on this arc space, whose order ``ArcSpace``
alone fixes and every other module reads.  A graph's arc space is built on
first use and shared, while anything holds it, by every partition, walk and
parameter set of that graph.  A partition decomposes the line digraph's
vertex set (which is the arc set) into disjoint cycles with pairwise-distinct
members; equivalently it fixes, at each vertex, a bijection between incoming
and outgoing arcs.  It is stored as the permutation of the arc space these
make, validated once (``Partition.perm``): the walk's shift.  A successor map
is only input (``from_successors``) and a derived view.  The number of
partitions is the product of the factorials of the vertex degrees.

All containers are frozen after construction and safe to share across
threads.  Arc lists, neighbour lists, and enumeration orders are sorted, so
every derived object is reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

__all__ = [
    "Arc",
    "Graph",
    "ArcSpace",
    "Partition",
    "PermutationTable",
    "GraphValidationError",
    "build_arc_space",
    "flip_flop_partition",
    "enumerate_partitions",
    "partition_count",
    "random_partition",
    "reverse_partition",
    "partition_permutation",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "random_connected_graph",
]

Arc = tuple  # (origin, terminus)


class GraphValidationError(ValueError):
    """The input graph is not simple, connected, and 1..n labelled."""


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph on vertices 1..vertex_count.

    ``edges`` must be canonical: tuples (u, v) with u < v, sorted
    lexicographically and free of duplicates.  Use :meth:`from_edges` to
    canonicalize arbitrary input.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertex_count
        if n < 2:
            raise GraphValidationError("graph needs at least two vertices")
        seen = set()
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise GraphValidationError(f"edge {e!r} is not a pair")
            u, v = e
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphValidationError(f"edge {e} uses labels outside 1..{n}")
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {u}")
            if u > v:
                raise GraphValidationError(f"edge {e} is not canonical (want u < v)")
            if e in seen:
                raise GraphValidationError(f"duplicate edge {e}")
            seen.add(e)
        if tuple(sorted(self.edges)) != self.edges:
            raise GraphValidationError("edges are not sorted; use Graph.from_edges")
        if not self.edges:
            raise GraphValidationError("graph has no edges")
        self._check_connected()

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        canon = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {u}")
            canon.append((min(u, v), max(u, v)))
        if len(set(canon)) != len(canon):
            dup = sorted(e for e in set(canon) if canon.count(e) > 1)[0]
            raise GraphValidationError(f"duplicate edge {dup}")
        return cls(int(vertex_count), tuple(sorted(canon)))

    def _check_connected(self):
        seen = {1}
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for w in self._neighbors[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != self.vertex_count:
            missing = sorted(set(range(1, self.vertex_count + 1)) - seen)
            raise GraphValidationError(f"graph is disconnected (unreachable: {missing})")

    @cached_property
    def _neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: tuple(sorted(adj[v])) for v in self.vertices}

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.vertex_count + 1))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of v in ascending label order (the local basis order)."""
        try:
            return self._neighbors[v]
        except KeyError:
            raise GraphValidationError(f"vertex {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._neighbors.get(u, ())


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphValidationError("cycle graph needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with centre 1 and the given number of leaves 2..leaves+1."""
    if leaves < 1:
        raise GraphValidationError("star graph needs at least one leaf")
    return Graph.from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def random_connected_graph(rng: np.random.Generator, n_min: int = 2, n_max: int = 8,
                           extra_edge_prob: float = 0.25) -> Graph:
    """Random simple connected graph: a random attachment tree plus extras."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


# ---------------------------------------------------------------------------
# arc space and line digraph
# ---------------------------------------------------------------------------


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ArcSpace:
    """The 2|E| arcs of a graph in lexicographic order, with index lookups.

    Arcs sharing an origin are contiguous, ordered by terminus; this makes a
    vertex's block in any arc-indexed matrix a plain slice.  Derived once, as
    read-only arrays: ``origin`` and ``terminus`` of every arc, ``reverse``
    (the index of (v, u) at the place of (u, v): the flip-flop shift),
    ``starts``, where each vertex's origin block begins, ``degrees`` and
    ``degree_blocks``.
    """

    graph: Graph
    arcs: tuple[Arc, ...]

    @property
    def size(self) -> int:
        return len(self.arcs)

    @cached_property
    def _index(self) -> dict[Arc, int]:
        return {a: i for i, a in enumerate(self.arcs)}

    @cached_property
    def origin(self) -> np.ndarray:
        return _read_only(np.array([u for u, _ in self.arcs], dtype=np.intp))

    @cached_property
    def terminus(self) -> np.ndarray:
        return _read_only(np.array([v for _, v in self.arcs], dtype=np.intp))

    @cached_property
    def reverse(self) -> np.ndarray:
        # place i of the arcs sorted by (terminus, origin) holds the reverse of arc i
        return _read_only(np.lexsort((self.origin, self.terminus)))

    @cached_property
    def starts(self) -> np.ndarray:
        return _read_only(np.searchsorted(self.origin, self.graph.vertices))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Every vertex's degree, in vertex order: the length of its origin block."""
        return _read_only(np.diff(self.starts, append=self.size))

    @cached_property
    def degree_blocks(self) -> tuple:
        """One (vertices, arcs) pair per distinct degree d, ascending: the
        vertices of degree d in vertex order, and their origin blocks as the
        rows of the (n_d, d) array ``arcs``."""
        degrees = self.degrees
        groups = []
        for d in sorted(set(degrees.tolist())):  # np.unique would import numpy.ma
            vertices = np.flatnonzero(degrees == d)
            groups.append((_read_only(vertices + 1),
                           _read_only(self.starts[vertices, None] + np.arange(d))))
        return tuple(groups)

    def index_of(self, arc: Arc) -> int:
        try:
            return self._index[tuple(arc)]
        except KeyError:
            raise ValueError(f"{tuple(arc)} is not an arc of the graph") from None

    def origin_slice(self, v: int) -> slice:
        d = self.graph.degree(v)  # raises for a vertex outside the graph
        start = self.starts.item(v - 1)
        return slice(start, start + d)

    def local_index(self, v: int, w: int) -> int:
        """Position of terminus w within the local basis at vertex v."""
        if not self.graph.has_edge(v, w):
            raise ValueError(f"{w} is not a neighbour of {v}")
        return self._index[(v, w)] - self.starts.item(v - 1)


def build_arc_space(g: Graph) -> ArcSpace:
    """The arc space of ``g``: built on first use, then the same object while it is in use."""
    # cached weakly: the space refers to g, and a strong reference back would be a cycle
    space = g.__dict__.get("_arc_space", lambda: None)()
    if space is None:
        space = ArcSpace(g, tuple(sorted([*g.edges, *((v, u) for u, v in g.edges)])))
        g.__dict__["_arc_space"] = weakref.ref(space)
    return space


# ---------------------------------------------------------------------------
# partitions into essential cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Partition:
    """Decomposition of the arc set into disjoint cycles of the line digraph.

    At every vertex j a bijection i -> f(i, j) of the neighbourhood of j
    fixes the cycles: ((i, j), (j, f(i, j))) lies on one of them.  Stored as
    ``perm``, the shift as a read-only permutation of the graph's
    ``arc_space``: ``perm[c]`` is the index of (j, f(i, j)) for arc c = (i, j).
    Derived from it on first use are ``successors``, the map (i, j) -> f(i, j)
    in arc order, ``inverse``, and ``cycles``, the orbits of ``perm`` in
    canonical order (each cycle starts at its smallest arc, cycles sorted by
    first arc).  Two partitions are equal when their graphs and perms are.
    A successor map enters through :meth:`from_successors` or
    :meth:`from_cycles`.
    """

    graph: Graph
    perm: np.ndarray
    arc_space: ArcSpace = field(init=False, repr=False)

    def __post_init__(self):
        space = build_arc_space(self.graph)
        # a copy, of integers: a float perm raises rather than being truncated
        perm, n = _read_only(np.asarray(self.perm).astype(np.intp, casting="same_kind")), space.size
        if perm.shape != (n,):
            raise ValueError(f"perm has shape {perm.shape}, expected ({n},)")
        outside = (perm < 0) | (perm >= n)
        if outside.any():
            c = np.argmax(outside)
            raise ValueError(f"perm sends {space.arcs[c]} to {perm[c]}, not in 0..{n - 1}")
        astray = space.origin[perm] != space.terminus
        if astray.any():
            c = np.argmax(astray)
            raise ValueError(f"perm sends {space.arcs[c]} to {space.arcs[perm[c]]}, "
                             f"which does not leave {space.terminus[c]}")
        # the arcs into j go to j's origin block; one of them hit twice leaves another unhit
        unbalanced = np.bincount(perm, minlength=n) != 1
        if unbalanced.any():
            raise ValueError(f"successor map is not a bijection at vertex "
                             f"{space.origin[np.argmax(unbalanced)]}")
        object.__setattr__(self, "arc_space", space)
        object.__setattr__(self, "perm", perm)

    def __eq__(self, other):
        return (isinstance(other, Partition) and self.graph == other.graph
                and np.array_equal(self.perm, other.perm))

    @classmethod
    def from_successors(cls, graph: Graph, successors: dict) -> "Partition":
        """From a map (i, j) -> f(i, j) over every arc, keys and values read with ``int``."""
        space = build_arc_space(graph)
        succ = {(int(a[0]), int(a[1])): int(m) for a, m in successors.items()}
        missing = sorted(space._index.keys() - succ.keys())
        if missing:
            raise ValueError(f"successor map missing arcs, e.g. {missing[0]}")
        if len(succ) != space.size:
            raise ValueError("successor map must cover exactly the arc set")
        perm = np.array([space._index.get((j, succ[(i, j)]), -1) for i, j in space.arcs],
                        dtype=np.intp)
        if (perm < 0).any():
            i, j = space.arcs[np.argmax(perm < 0)]
            raise ValueError(f"successor of {(i, j)} is {succ[(i, j)]}, not a neighbour of {j}")
        return cls(graph, perm)

    @classmethod
    def from_cycles(cls, graph: Graph, cycles) -> "Partition":
        """From a cycle listing, in which each arc must compose with the next
        (the last with the first) and no arc may appear twice."""
        succ: dict[Arc, int] = {}
        for cyc in cycles:
            cyc = [tuple(a) for a in cyc]
            for idx, (u, v) in enumerate(cyc):
                nxt = cyc[(idx + 1) % len(cyc)]
                if nxt[0] != v:
                    raise ValueError(f"cycle arcs {(u, v)} -> {nxt} do not compose")
                if (u, v) in succ:
                    raise ValueError(f"arc {(u, v)} appears in more than one cycle")
                succ[(u, v)] = nxt[1]
        return cls.from_successors(graph, succ)

    @cached_property
    def successors(self) -> MappingProxyType:
        """{(i, j): f(i, j)} in arc order, read-only."""
        space = self.arc_space
        return MappingProxyType(dict(zip(space.arcs, space.terminus[self.perm].tolist())))

    @cached_property
    def inverse(self) -> np.ndarray:
        """The inverse permutation (read-only): ``inverse[perm[c]] == c``."""
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        return _read_only(inv)

    @cached_property
    def cycles(self) -> tuple[tuple[Arc, ...], ...]:
        """The orbits of ``perm``, in canonical order (arc order is index order)."""
        arcs, perm = self.arc_space.arcs, self.perm.tolist()
        seen, cycles = [False] * len(perm), []
        for first in range(len(perm)):
            cyc, c = [], first
            while not seen[c]:
                seen[c] = True
                cyc.append(arcs[c])
                c = perm[c]
            if cyc:
                cycles.append(tuple(cyc))
        return tuple(cycles)

    def successor(self, i: int, j: int) -> int:
        """f(i, j): continuation vertex of arc (i, j) along its cycle."""
        try:
            return self.successors[(i, j)]
        except KeyError:
            raise ValueError(f"{(i, j)} is not an arc of the graph") from None

    @property
    def is_flip_flop(self) -> bool:
        return np.array_equal(self.perm, self.arc_space.reverse)


def _partition_from_local(g: Graph, local) -> Partition:
    """The partition sending the arc into j that reverses out-arc s + a to out-arc
    s + ``local[s + a]``, with s where j's origin block starts: a bijection per vertex."""
    space = build_arc_space(g)
    return Partition(g, (space.starts[space.origin - 1] + local)[space.reverse])


def flip_flop_partition(g: Graph) -> Partition:
    """The partition of 2-cycles {(u,v), (v,u)}; f(i, j) = i."""
    return Partition(g, build_arc_space(g).reverse)


def partition_count(g: Graph) -> int:
    return math.prod(math.factorial(g.degree(v)) for v in g.vertices)


def enumerate_partitions(g: Graph) -> Iterator[Partition]:
    """Every partition, one at a time: vertices ascending, each vertex's bijections
    in lexicographic order of the permuted neighbour tuple, the last vertex's
    varying fastest.  No vertex's bijections are listed ahead, so the first
    partition comes at once whatever the degrees.
    """
    degrees = build_arc_space(g).degrees.tolist()
    bijections = [itertools.permutations(range(d)) for d in degrees]
    local = [next(b) for b in bijections]
    while True:
        yield _partition_from_local(g, np.concatenate(local))
        # an odometer: the last vertex steps; one that has run out restarts and carries
        v = len(local) - 1
        while (step := next(bijections[v], None)) is None:
            bijections[v] = itertools.permutations(range(degrees[v]))
            local[v] = next(bijections[v])
            v -= 1
            if v < 0:
                return
        local[v] = step


def random_partition(g: Graph, rng: np.random.Generator) -> Partition:
    """One uniform bijection per vertex, drawn in vertex order."""
    draws = [rng.permutation(d) for d in build_arc_space(g).degrees.tolist()]
    return _partition_from_local(g, np.concatenate(draws))


def reverse_partition(p: Partition) -> Partition:
    """Partition whose per-vertex bijections are the inverses of p's.

    Its successor map g satisfies f(g(x, y), y) = x where f is p's map.
    Reversing twice returns p, and p is its own reverse exactly when every
    per-vertex bijection is an involution (the flip-flop partition is the
    canonical case).
    """
    # p sends (u, y) to (y, f) and its reverse (f, y) to (y, u): p's inverse, arcs reversed
    reverse = p.arc_space.reverse
    return Partition(p.graph, reverse[p.inverse[reverse]])


@dataclass(frozen=True)
class PermutationTable:
    """A bijection of the neighbourhood of one vertex, with a matrix form."""

    vertex: int
    mapping: dict

    def __post_init__(self):
        if set(self.mapping) != set(self.mapping.values()):
            raise ValueError(f"mapping at vertex {self.vertex} is not a bijection")

    def matrix(self, neighbor_order: tuple[int, ...]) -> np.ndarray:
        pos = {w: i for i, w in enumerate(neighbor_order)}
        d = len(neighbor_order)
        m = np.zeros((d, d))
        for src, tgt in self.mapping.items():
            m[pos[tgt], pos[src]] = 1.0
        return m


def partition_permutation(p: Partition, p2: Partition, j: int) -> PermutationTable:
    """Bijection f_p(i, j) -> f_p2(i, j) on the neighbourhood of j.

    Its matrix, multiplied into the coin at j from the right, converts a
    walk built with partition p2 into one built with partition p.
    """
    if p2.graph != p.graph:
        raise ValueError("partitions belong to different graphs")
    mapping = {p.successors[(i, j)]: p2.successors[(i, j)] for i in p.graph.neighbors(j)}
    return PermutationTable(j, mapping)
