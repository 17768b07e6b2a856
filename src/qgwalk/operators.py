"""Shift, coin, and evolution operators on the arc space, plus identities.

Matrix conventions (column = input basis arc, row = output basis arc):

* shift      S|i,j>   = |j, f(i,j)>        for the partition's map f
* coin       C|j,m>   = sum_m' H_j[m',m] |j,m'>   (block diagonal by origin)
* G-type     U = C S  so  <l,m|U|i,j> = delta(l,j) H_j[m, f(i,j)]
* A-type     U = S C  so  <l,m|U|i,j> = delta(m, f(i,l)) H_i[l, j]

Within the block of origin vertex j, local coordinates follow the ascending
neighbour order of j.

A walk is stored as the shift's arc permutation (the partition's ``perm``)
plus the per-vertex coin blocks.  ``EvolutionOperator.apply`` steps a state
from those alone; ``EvolutionOperator.matrix`` is a cached dense view of the
same data, which dynamics never builds.  Neither part depends on the type, so
``with_kind`` gives a walk's other type without rebuilding it.  Each residual
below takes the walk it checks, of either type, and returns the
spectral-norm defect of an exact identity on the dense views: zero in exact
arithmetic, so tests can pin it near machine precision.

Conjugating by the shift is a reindexing: for the permutation matrix S of
``perm``, S^T X S = X[perm][:, perm], and S X S^T is the same gather through
the inverse permutation, so no residual multiplies by S.  ``operator_norm``
splits a residual into the blocks of its own nonzero pattern (rows and
columns joined by a nonzero entry) and returns the largest block norm.  That
is exact for any matrix, which is a direct sum of those blocks up to row and
column permutations; the walk residuals split into per-vertex blocks, and an
exactly zero residual needs no SVD at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .graphs import ArcSpace, Graph, Partition, flip_flop_partition

__all__ = [
    "CoinSet",
    "EvolutionOperator",
    "AdjacencySupportReport",
    "shift_operator",
    "coin_operator",
    "evolution",
    "operator_norm",
    "unitarity_defect",
    "random_unitary_coins",
    "shift_duality_residual",
    "inverse_walk_residual",
    "partition_change_residual",
    "g_type_reduction_residual",
    "a_type_reduction_residual",
    "line_digraph_adjacency",
    "adjacency_support_report",
]


# Below this many rows a matrix goes straight to the dense SVD: on the 2x2 to
# 5x5 coin blocks a scan validates at every k, finding the blocks costs more
# than the SVD it would split.
_SPLIT_MIN_ROWS = 64

UNITARITY_TOL = 1e-12  # largest unitarity defect a coin block may have
SUPPORT_TOL = 1e-12  # largest entry a walk may have off its support pattern


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm ||m||_2, taken block by block over m's nonzero pattern.

    Rows and columns joined by a nonzero entry belong to one block, so m is a
    direct sum of its blocks up to row and column permutations, and its norm
    is the largest block norm.  An all-zero matrix has norm 0; small matrices,
    non-finite ones and single-block ones take one SVD of the whole.  For a
    small finite matrix that is the first value ``svd`` returns (they come
    sorted, largest first), the very value of ``np.linalg.norm(m, 2)`` without
    the axis handling that costs more than a coin block's SVD; empty, non-2-D
    and non-finite input goes to ``norm`` and fails as it does.
    """
    m = np.asarray(m)
    small = m.ndim == 2 and m.shape[0] < _SPLIT_MIN_ROWS
    if small and m.size and np.isfinite(m).all():
        return float(np.linalg.svd(m, compute_uv=False)[0])
    if small or m.ndim != 2 or not np.isfinite(m).all():
        return float(np.linalg.norm(m, 2))
    mask = m != 0
    if not mask.any():
        return 0.0
    row_label, col_label = _pattern_components(mask)
    labels = np.unique(row_label[mask.any(axis=1)])
    if labels.size == 1:
        return float(np.linalg.norm(m, 2))
    return max(float(np.linalg.norm(m[np.ix_(row_label == c, col_label == c)], 2))
               for c in labels)


def _pattern_components(mask: np.ndarray) -> tuple:
    """Connected-component labels of the rows and columns of a nonzero pattern.

    Nodes are the rows, then the columns; ``mask[r, c]`` joins row r and
    column c.  Every round hooks each tree root onto the smallest root across
    its nonzeros, when that is smaller, then flattens the trees; a round that
    hooks nothing ends the search, and every other round removes a root.  A
    label is the smallest node of its component, so a row or column with no
    nonzero keeps its own node number.
    """
    n_rows, n_cols = mask.shape
    parent = np.arange(n_rows + n_cols)
    while True:
        row_root, col_root = parent[:n_rows], parent[n_rows:]
        hooked = parent.copy()
        np.minimum.at(hooked, row_root, np.where(mask, col_root, parent.size).min(axis=1))
        np.minimum.at(hooked, col_root, np.where(mask, row_root[:, None], parent.size).min(axis=0))
        if np.array_equal(hooked, parent):
            return row_root, col_root
        parent = hooked
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]


def unitarity_defect(m: np.ndarray) -> float:
    return operator_norm(m.conj().T @ m - np.eye(m.shape[0]))


@dataclass(frozen=True, eq=False)
class CoinSet:
    """One unitary block per vertex, sized by that vertex's degree."""

    blocks: dict

    def __post_init__(self):
        clean = {int(v): np.array(h, dtype=complex) for v, h in self.blocks.items()}
        for h in clean.values():
            h.setflags(write=False)
        object.__setattr__(self, "blocks", clean)

    def validate(self, g: Graph) -> None:
        if set(self.blocks) != set(g.vertices):
            raise ValueError("coin set must assign one block to every vertex")
        for v in g.vertices:
            h = self.blocks[v]
            d = g.degree(v)
            if h.shape != (d, d):
                raise ValueError(f"coin at vertex {v} has shape {h.shape}, expected {(d, d)}")
            defect = unitarity_defect(h)
            if defect > UNITARITY_TOL:
                raise ValueError(f"coin at vertex {v} is not unitary (defect {defect:.3e})")

    def block(self, v: int) -> np.ndarray:
        return self.blocks[v]

    def dagger(self) -> "CoinSet":
        return CoinSet({v: h.conj().T for v, h in self.blocks.items()})

    def inverse(self) -> "CoinSet":
        return CoinSet({v: np.linalg.inv(h) for v, h in self.blocks.items()})


@dataclass(frozen=True, eq=False)
class EvolutionOperator:
    """A single-step walk: the shift as an arc permutation plus the coin blocks.

    :attr:`space` and :attr:`perm` are the partition's.  :meth:`apply` steps a
    state block by block and never forms a matrix; :attr:`matrix` is the dense
    operator, scattered from the same data on first access and cached.
    """

    kind: str
    partition: Partition
    coins: CoinSet

    @property
    def space(self) -> ArcSpace:
        return self.partition.arc_space

    @cached_property
    def size(self) -> int:
        return self.space.size

    @property
    def perm(self) -> np.ndarray:
        """``perm[c]`` is the arc the shift sends arc ``c`` to."""
        return self.partition.perm

    def with_kind(self, kind: str) -> "EvolutionOperator":
        """This walk as type ``kind``: the same permutation and validated blocks."""
        return self if kind == self.kind else replace(self, kind=kind)

    @cached_property
    def _degree_groups(self) -> tuple:
        """One (rows, cols, blocks) triple per distinct vertex degree d.

        U[rows[v, a], cols[v, b]] = blocks[v, a, b] gives every nonzero of U.
        ``rows`` and ``cols`` have shape (n_d, d), one line per vertex of
        degree d.  G-type (U = C S) reads each origin block at the arcs the
        shift moves into it; A-type (U = S C) writes it where the shift moves
        it to.
        """
        g = self.space.graph
        by_degree: dict[int, list[int]] = {}
        for v in g.vertices:
            by_degree.setdefault(g.degree(v), []).append(v)
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        groups = []
        for d, vs in sorted(by_degree.items()):
            block_arcs = self.space.starts[np.subtract(vs, 1), None] + np.arange(d)
            blocks = np.stack([self.coins.block(v) for v in vs])
            if self.kind == "G":
                groups.append((block_arcs, inv[block_arcs], blocks))
            else:
                groups.append((self.perm[block_arcs], block_arcs, blocks))
        return tuple(groups)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """One step, U @ amps, as a gather and one batched product per degree."""
        size = self.size
        if np.shape(amps) != (size,):
            raise ValueError(f"amplitudes have shape {np.shape(amps)}, expected ({size},)")
        out = np.empty(size, dtype=complex)
        for rows, cols, blocks in self._degree_groups:
            out[rows] = np.einsum("vab,vb->va", blocks, amps[cols])
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense 2|E| x 2|E| operator (read-only), built on first access."""
        u = np.zeros((self.size, self.size), dtype=complex)
        for rows, cols, blocks in self._degree_groups:
            u[rows[:, :, None], cols[:, None, :]] = blocks
        u.setflags(write=False)
        return u


def shift_operator(space: ArcSpace, p: Partition) -> np.ndarray:
    """Permutation matrix sending arc (i, j) to (j, f(i, j)).

    The package itself works from the partition's ``perm``; this dense form
    is the reference that the gathers and scatters are checked against.
    """
    n = space.size
    s = np.zeros((n, n))
    s[p.perm, np.arange(n)] = 1.0
    return s


def coin_operator(space: ArcSpace, coins: CoinSet) -> np.ndarray:
    """Block-diagonal coin; the block of vertex j occupies its origin slice."""
    coins.validate(space.graph)
    n = space.size
    c = np.zeros((n, n), dtype=complex)
    for v, start in zip(space.graph.vertices, space.starts.tolist()):
        sl = slice(start, start + space.graph.degree(v))
        c[sl, sl] = coins.block(v)
    return c


def evolution(space: ArcSpace, p: Partition, coins: CoinSet, kind: str = "G") -> EvolutionOperator:
    """One-step evolution: G-type applies the shift first, A-type the coin.

    Unitarity is checked on the coin blocks alone.  The shift is a
    permutation, so ||U^dag U - I|| = max_v ||H_v^dag H_v - I|| exactly and
    the walk is unitary precisely when every block is.
    """
    if kind not in ("G", "A"):
        raise ValueError(f"kind must be 'G' or 'A', got {kind!r}")
    if p.graph != space.graph:
        raise ValueError("partition belongs to a different graph")
    coins.validate(space.graph)
    return EvolutionOperator(kind, p, coins)


def random_unitary_coins(g: Graph, rng: np.random.Generator) -> CoinSet:
    """Independent Haar-distributed unitary coin at every vertex.

    Each vertex draws a complex Gaussian matrix in vertex order (real part,
    then imaginary part); the vertices of one degree then share a stacked QR,
    whose R diagonal phases are divided out of Q's columns.
    """
    by_degree: dict[int, list] = {}
    for v in g.vertices:
        by_degree.setdefault(g.degree(v), []).append(v)
    slot = {v: i for vs in by_degree.values() for i, v in enumerate(vs)}
    # each draw goes straight into its degree's stack, which is then scaled and
    # phase-fixed in place: per-vertex draws kept alive until the QR, or
    # out-of-place temporaries, fragmented the heap and raised the peak RSS
    stacks = {d: np.empty((len(vs), d, d), dtype=complex) for d, vs in by_degree.items()}
    for v in g.vertices:
        d = g.degree(v)
        stacks[d][slot[v]] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    blocks = {}
    for d, vs in by_degree.items():
        z = stacks[d]
        z /= np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        q *= (diag.conj() / np.abs(diag))[:, None, :]
        blocks.update(zip(vs, q))
    return CoinSet({v: blocks[v] for v in g.vertices})


# ---------------------------------------------------------------------------
# operator identities (each residual vanishes in exact arithmetic)
# ---------------------------------------------------------------------------


def shift_duality_residual(op: EvolutionOperator, n: int) -> float:
    """|| (U_G)^n - S^dag (U_A)^n S ||: the two types are conjugate by the shift."""
    lhs = np.linalg.matrix_power(op.with_kind("G").matrix, n)
    rhs = np.linalg.matrix_power(op.with_kind("A").matrix, n)[np.ix_(op.perm, op.perm)]
    return operator_norm(lhs - rhs)


def inverse_walk_residual(space: ArcSpace, coins: CoinSet) -> float:
    """Flip-flop inversion: inverting a walk swaps its type and daggers coins.

    Checks inv(U_G[H]) = U_A[H^dag] and inv(U_A[H]) = U_G[H^dag]; returns the
    larger defect.  Holds only for the flip-flop partition, whose shift is an
    involution.
    """
    p = flip_flop_partition(space.graph)
    ug = evolution(space, p, coins, "G")
    ua_dag = evolution(space, p, coins.dagger(), "A")
    # the uncached twins go first, so two dense walks at most are alive at once
    r_a = operator_norm(np.linalg.inv(ug.with_kind("A").matrix) - ua_dag.with_kind("G").matrix)
    return max(operator_norm(np.linalg.inv(ug.matrix) - ua_dag.matrix), r_a)


def _permuted_coins(base: Partition, target: Partition, coins: CoinSet) -> CoinSet:
    """Coins K_j = H_j P_j, P_j mapping base's local successor to target's: with
    ``cols[base.perm] = target.perm``, column local(c) of K_j is local(cols[c]) of H_j."""
    if base.graph != target.graph:
        raise ValueError("partitions belong to different graphs")
    g, space, cols = base.graph, base.arc_space, np.empty_like(base.perm)
    cols[base.perm] = target.perm
    local = cols - space.starts[space.origin - 1]
    return CoinSet({j: coins.block(j)[:, local[space.origin_slice(j)]] for j in g.vertices})


def partition_change_residual(space: ArcSpace, p: Partition, p2: Partition, coins: CoinSet) -> float:
    """|| U_G,p2[H] - U_G,p[H P] ||: any G-type walk re-expressed on partition p."""
    target = evolution(space, p2, coins, "G").matrix
    rebuilt = evolution(space, p, _permuted_coins(p, p2, coins), "G").matrix
    return operator_norm(target - rebuilt)


def g_type_reduction_residual(op: EvolutionOperator) -> float:
    """G-type on any partition equals the dagger of a flip-flop A-type walk.

    U_G,p[H] = (U_A,ff[K^dag])^dag with K_j = H_j P_j, P_j the permutation
    from the flip-flop successor map to p's; ``op`` is the walk on p with
    coins H, of either type.
    """
    ff = flip_flop_partition(op.space.graph)
    k = _permuted_coins(ff, op.partition, op.coins)
    rhs = evolution(op.space, ff, k.dagger(), "A").matrix.conj().T
    return operator_norm(op.with_kind("G").matrix - rhs)


def a_type_reduction_residual(op: EvolutionOperator) -> float:
    """A-type on any partition, conjugated by its shift, reduces the same way.

    U_A,p[H] = S_p (U_A,ff[K^dag])^dag S_p^dag with K as in the G-type case.
    """
    ff = flip_flop_partition(op.space.graph)
    k = _permuted_coins(ff, op.partition, op.coins)
    inv = np.argsort(op.perm)
    rhs = evolution(op.space, ff, k.dagger(), "A").matrix.conj().T[np.ix_(inv, inv)]
    return operator_norm(op.with_kind("A").matrix - rhs)


# ---------------------------------------------------------------------------
# line digraph support
# ---------------------------------------------------------------------------


def line_digraph_adjacency(space: ArcSpace) -> np.ndarray:
    """M[target, source] = 1 when source -> target compose head to tail."""
    n = space.size
    # compared straight into the float matrix, with no n x n boolean temporary
    return np.equal(space.origin[:, None], space.terminus, out=np.empty((n, n)))


@dataclass(frozen=True)
class AdjacencySupportReport:
    """Where each walk type lives relative to the line digraph adjacency.

    * a G-type walk is supported on the adjacency itself;
    * an A-type walk conjugated by its shift is (it then equals the G-type);
    * a flip-flop A-type walk is supported on the transpose.

    ``flip_flop_a_on_transpose`` is None when the partition checked is not
    the flip-flop one, since the transpose containment fails off it.
    """

    g_on_adjacency: bool
    conjugated_a_on_adjacency: bool
    flip_flop_a_on_transpose: bool | None
    max_leak: float
    ok: bool = field(default=False)

    def __post_init__(self):
        checks = [self.g_on_adjacency, self.conjugated_a_on_adjacency]
        if self.flip_flop_a_on_transpose is not None:
            checks.append(self.flip_flop_a_on_transpose)
        object.__setattr__(self, "ok", all(checks))


def _support_leak(op: np.ndarray, mask: np.ndarray) -> float:
    return float(np.abs(op[mask == 0.0]).max(initial=0.0))


def adjacency_support_report(op: EvolutionOperator) -> AdjacencySupportReport:
    m = line_digraph_adjacency(op.space)
    ug, ua = op.with_kind("G"), op.with_kind("A")
    leaks = [_support_leak(ug.matrix, m), _support_leak(ua.matrix[np.ix_(op.perm, op.perm)], m)]
    ff_leak = None
    if op.partition.is_flip_flop:
        ff_leak = _support_leak(ua.matrix, m.T)
        leaks.append(ff_leak)
    return AdjacencySupportReport(
        g_on_adjacency=leaks[0] <= SUPPORT_TOL,
        conjugated_a_on_adjacency=leaks[1] <= SUPPORT_TOL,
        flip_flop_a_on_transpose=None if ff_leak is None else ff_leak <= SUPPORT_TOL,
        max_leak=max(leaks),
    )
