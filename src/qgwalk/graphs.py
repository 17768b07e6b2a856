"""Graphs, symmetric arcs, line digraphs, and Euler-cycle partitions.

Vertices are labelled 1..n.  Every edge {u, v} contributes the two arcs
(u, v) and (v, u); walks live on this arc space, whose order ``ArcSpace``
alone fixes and every other module reads.  A partition decomposes the line
digraph's vertex set (which is the arc set) into disjoint cycles with
pairwise-distinct members; equivalently it fixes, at each vertex, a bijection
between incoming and outgoing arcs.  The number of partitions is the product
of the factorials of the vertex degrees.

All containers are frozen after construction and safe to share across
threads.  Arc lists, neighbour lists, and enumeration orders are sorted, so
every derived object is reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Arc",
    "Graph",
    "ArcSpace",
    "LineDigraph",
    "Partition",
    "PermutationTable",
    "GraphValidationError",
    "PartitionCapError",
    "build_arc_space",
    "line_digraph",
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


class PartitionCapError(ValueError):
    """Partition enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"partition count {count} exceeds enumeration cap {cap}")
        self.count = count
        self.cap = cap


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


@dataclass(frozen=True)
class ArcSpace:
    """The 2|E| arcs of a graph in lexicographic order, with index lookups.

    Arcs sharing an origin are contiguous, ordered by terminus; this makes a
    vertex's block in any arc-indexed matrix a plain slice.  Derived once, as
    read-only arrays: ``origin`` and ``terminus`` of every arc, ``reverse``
    (the index of (v, u) at the place of (u, v): the flip-flop shift) and
    ``starts``, where each vertex's origin block begins.
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
        origin = np.array([u for u, _ in self.arcs], dtype=np.intp)
        origin.setflags(write=False)
        return origin

    @cached_property
    def terminus(self) -> np.ndarray:
        terminus = np.array([v for _, v in self.arcs], dtype=np.intp)
        terminus.setflags(write=False)
        return terminus

    @cached_property
    def reverse(self) -> np.ndarray:
        # place i of the arcs sorted by (terminus, origin) holds the reverse of arc i
        reverse = np.lexsort((self.origin, self.terminus))
        reverse.setflags(write=False)
        return reverse

    @cached_property
    def starts(self) -> np.ndarray:
        starts = np.searchsorted(self.origin, self.graph.vertices)
        starts.setflags(write=False)
        return starts

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
    arcs = sorted([(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
    return ArcSpace(g, tuple(arcs))


@dataclass(frozen=True)
class LineDigraph:
    """Line digraph: vertices are arcs, arcs are composable pairs.

    ((u, v), (v, w)) is an arc for every w adjacent to v, including the
    back-turn w = u.
    """

    vertices: tuple[Arc, ...]
    arcs: tuple[tuple[Arc, Arc], ...]

    @cached_property
    def _out(self) -> dict:
        out: dict[Arc, list[Arc]] = {a: [] for a in self.vertices}
        for a, b in self.arcs:
            out[a].append(b)
        return {a: tuple(bs) for a, bs in out.items()}

    def out_neighbors(self, arc: Arc) -> tuple[Arc, ...]:
        return self._out[tuple(arc)]


def line_digraph(g: Graph) -> LineDigraph:
    arcs = build_arc_space(g).arcs
    return LineDigraph(arcs, tuple(((u, v), (v, w)) for u, v in arcs for w in g.neighbors(v)))


# ---------------------------------------------------------------------------
# partitions into essential cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Decomposition of the arc set into disjoint cycles of the line digraph.

    ``successors`` maps each arc (i, j) to the vertex f(i, j) such that
    ((i, j), (j, f(i, j))) lies on one of the cycles.  At every vertex j the
    map i -> f(i, j) is a bijection of the neighbourhood of j onto itself.
    The successor map is the only stored form; ``cycles`` is derived from it
    in canonical order (each cycle starts at its smallest arc, cycles sorted
    by first arc).  Construct through :meth:`from_successors` or
    :meth:`from_cycles`.
    """

    graph: Graph
    successors: dict

    def __post_init__(self):
        g = self.graph
        arcs = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
        missing = sorted(arcs - set(self.successors))
        if missing:
            raise ValueError(f"successor map missing arcs, e.g. {missing[0]}")
        if set(self.successors) != arcs:
            raise ValueError("successor map must cover exactly the arc set")
        for i, j in sorted(arcs):
            m = self.successors[(i, j)]
            if not g.has_edge(j, m):
                raise ValueError(f"successor of {(i, j)} is {m}, not a neighbour of {j}")
        for j in g.vertices:
            image = {self.successors[(i, j)] for i in g.neighbors(j)}
            if image != set(g.neighbors(j)):
                raise ValueError(f"successor map is not a bijection at vertex {j}")

    @classmethod
    def from_successors(cls, graph: Graph, successors: dict) -> "Partition":
        return cls(graph, {(int(a[0]), int(a[1])): int(m) for a, m in successors.items()})

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
    def cycles(self) -> tuple[tuple[Arc, ...], ...]:
        """The orbits of the arc map (i, j) -> (j, f(i, j)), in canonical order."""
        seen: set[Arc] = set()
        cycles = []
        for a in sorted(self.successors):
            if a in seen:
                continue
            cyc = [a]
            b = (a[1], self.successors[a])
            while b != a:
                cyc.append(b)
                b = (b[1], self.successors[b])
            seen.update(cyc)
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
        return all(m == i for (i, _j), m in self.successors.items())


def flip_flop_partition(g: Graph) -> Partition:
    """The partition of 2-cycles {(u,v), (v,u)}; f(i, j) = i."""
    succ = {}
    for u, v in g.edges:
        succ[(u, v)] = u
        succ[(v, u)] = v
    return Partition.from_successors(g, succ)


def partition_count(g: Graph) -> int:
    return math.prod(math.factorial(g.degree(v)) for v in g.vertices)


def enumerate_partitions(g: Graph, cap: int = 1_000_000) -> list[Partition]:
    """All partitions, as the product of per-vertex neighbourhood bijections.

    Deterministic order: vertices ascending, bijections in lexicographic
    order of the permuted neighbour tuple.  Raises PartitionCapError (with
    the computed count attached) when the product of degree factorials
    exceeds ``cap``.
    """
    count = partition_count(g)
    if count > cap:
        raise PartitionCapError(count, cap)
    per_vertex = []
    for v in g.vertices:
        nbrs = g.neighbors(v)
        per_vertex.append([dict(zip(nbrs, perm)) for perm in itertools.permutations(nbrs)])
    out = []
    for combo in itertools.product(*per_vertex):
        succ: dict[Arc, int] = {}
        for v, table in zip(g.vertices, combo):
            for i, m in table.items():
                succ[(i, v)] = m
        out.append(Partition.from_successors(g, succ))
    return out


def random_partition(g: Graph, rng: np.random.Generator) -> Partition:
    succ: dict[Arc, int] = {}
    for v in g.vertices:
        nbrs = g.neighbors(v)
        perm = rng.permutation(len(nbrs))
        for pos, i in enumerate(nbrs):
            succ[(i, v)] = nbrs[int(perm[pos])]
    return Partition.from_successors(g, succ)


def reverse_partition(p: Partition) -> Partition:
    """Partition whose per-vertex bijections are the inverses of p's.

    Its successor map g satisfies f(g(x, y), y) = x where f is p's map.
    Reversing twice returns p, and p is its own reverse exactly when every
    per-vertex bijection is an involution (the flip-flop partition is the
    canonical case).
    """
    g = p.graph
    rev: dict[Arc, int] = {}
    for y in g.vertices:
        for u in g.neighbors(y):
            rev[(p.successors[(u, y)], y)] = u
    return Partition.from_successors(g, rev)


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


def partition_permutation(g: Graph, p: Partition, p2: Partition, j: int) -> PermutationTable:
    """Bijection f_p(i, j) -> f_p2(i, j) on the neighbourhood of j.

    Its matrix, multiplied into the coin at j from the right, converts a
    walk built with partition p2 into one built with partition p.
    """
    if p.graph != g or p2.graph != g:
        raise ValueError("partitions do not belong to the given graph")
    mapping = {p.successors[(i, j)]: p2.successors[(i, j)] for i in g.neighbors(j)}
    return PermutationTable(j, mapping)
