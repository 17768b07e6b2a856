"""Shift, coin, and evolution operators on the arc space, plus identities.

Matrix conventions (column = input basis arc, row = output basis arc):

* shift      S|i,j>   = |j, f(i,j)>        for the partition's map f
* coin       C|j,m>   = sum_m' H_j[m',m] |j,m'>   (block diagonal by origin)
* G-type     U = C S  so  <l,m|U|i,j> = delta(l,j) H_j[m, f(i,j)]
* A-type     U = S C  so  <l,m|U|i,j> = delta(m, f(i,l)) H_i[l, j]

Within the block of origin vertex j, local coordinates follow the ascending
neighbour order of j.

A walk is stored as the shift's arc permutation (the partition's ``perm``)
plus the coin blocks, one stack per degree.  ``EvolutionOperator.apply``
steps a state from those alone; ``EvolutionOperator.matrix`` is a cached
dense view of the same data, which dynamics never builds.  Neither part depends on the type, so
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

A walk is unitary exactly when every coin block is, so ``CoinSet.validate``
checks one block at a time, then that the stacks are the graph's
``degree_blocks``, which the walk reads by place, not by vertex label.
``unitarity_defect`` takes a small block's defect from the block's own
singular values, with no Gram product, and keeps the Gram route, split by
``operator_norm``, for matrices of ``_SPLIT_MIN_ROWS`` rows or more, such as
a whole walk's dense view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .graphs import (ArcSpace, Graph, Partition, _read_only, build_arc_space,
                     flip_flop_partition)

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


# Below this many rows a matrix goes straight to the dense SVD, and a square
# one's unitarity defect comes from its own singular values: on a small matrix,
# finding the blocks costs more than the SVD it would split.
_SPLIT_MIN_ROWS = 64

UNITARITY_TOL = 1e-12  # largest unitarity defect a coin block may have
SUPPORT_TOL = 1e-12  # largest entry a walk may have off its support pattern


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm ||m||_2, taken block by block over m's nonzero pattern.

    Rows and columns joined by a nonzero entry belong to one block, so m is a
    direct sum of its blocks up to row and column permutations, and its norm
    is the largest block norm.  An all-zero matrix has norm 0; matrices of
    fewer than ``_SPLIT_MIN_ROWS`` rows, non-finite ones and single-block ones
    take one ``np.linalg.norm(m, 2)`` of the whole, and empty, non-2-D and
    non-finite input fails there as ``norm`` fails.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < _SPLIT_MIN_ROWS or not np.isfinite(m).all():
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
    """||m^dag m - I||_2: zero exactly when m is unitary.

    The eigenvalues of m^dag m - I are s^2 - 1 over the singular values s of
    m.  So a square m of fewer than ``_SPLIT_MIN_ROWS`` rows, such as a coin
    block, takes one SVD of m itself and returns the larger of |s_max^2 - 1|
    and |s_min^2 - 1|.  The squares are Python floats, so a finite block whose
    square overflows reads inf, with no warning.  Larger, non-square and empty
    input, and input whose singular values are not finite (a NaN or infinite
    entry), forms the Gram matrix, subtracts 1 from its diagonal in place and
    takes its ``operator_norm``, which splits the block-diagonal Gram of a
    walk into its blocks.
    """
    if m.ndim == 2 and 0 < len(m) == m.shape[1] < _SPLIT_MIN_ROWS:
        try:
            s = np.linalg.svd(m, compute_uv=False).tolist()
        except np.linalg.LinAlgError:  # a NaN entry: the Gram route fails as it always has
            s = []
        if s and all(map(math.isfinite, s)):
            return max(abs(s[0] * s[0] - 1.0), abs(s[-1] * s[-1] - 1.0))
    gram = m.conj().T @ m
    gram.reshape(-1)[::len(gram) + 1] -= 1  # the diagonal of the fresh, C-ordered product
    return operator_norm(gram)


@dataclass(frozen=True, eq=False, init=False)
class CoinSet:
    """One unitary block per vertex, sized by that vertex's degree.

    Stored as ``stacks``, one read-only (vertices, blocks) pair per block
    shape, ascending, vertices in vertex order: a set valid on a graph pairs
    stack for stack with its ``ArcSpace.degree_blocks``.
    """

    stacks: tuple

    def __init__(self, blocks: dict):
        """Group {vertex: block}, keys read with ``int``, blocks copied as complex."""
        clean = {int(v): np.asarray(h) for v, h in blocks.items()}
        by_shape: dict[tuple, list[int]] = {}
        for v in sorted(clean):
            by_shape.setdefault(clean[v].shape, []).append(v)
        object.__setattr__(self, "stacks", CoinSet.from_stacks(
            (np.array(vs), np.array([clean[v] for v in vs], dtype=complex))
            for _, vs in sorted(by_shape.items())).stacks)

    @classmethod
    def from_stacks(cls, stacks) -> "CoinSet":
        """A coin set from (vertices, blocks) pairs grouped as ``stacks`` holds them."""
        coins = cls.__new__(cls)
        object.__setattr__(coins, "stacks", tuple(
            (_read_only(vs), _read_only(np.ascontiguousarray(hs, dtype=complex)))
            for vs, hs in stacks))
        return coins

    def validate(self, g: Graph) -> None:
        """Check the blocks against ``g`` and the stacks against its ``degree_blocks``."""
        labels = [vs.tolist() for vs, _ in self.stacks]
        if (sorted(v for vs in labels for v in vs) != list(g.vertices)
                or any(len(vs) != len(hs) for vs, (_, hs) in zip(labels, self.stacks))):
            raise ValueError("coin set must assign one block to every vertex")
        # a non-finite block would end in an SVD error that names no vertex
        if not all(np.isfinite(hs).all() for _, hs in self.stacks):
            bad = min(v for vs, hs in self.stacks
                      for v in vs[~np.isfinite(hs).all(axis=tuple(range(1, hs.ndim)))].tolist())
            raise ValueError(f"coin at vertex {bad} has a non-finite entry")
        space = build_arc_space(g)
        degrees, faults = space.degrees.tolist(), {}
        # a large finite block whose Gram product overflows reads a NaN defect,
        # which the error below reports; numpy's warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            for vs, (_, hs) in zip(labels, self.stacks):
                for v, h in zip(vs, hs):
                    d = degrees[v - 1]
                    if h.shape != (d, d):
                        faults[v] = f"coin at vertex {v} has shape {h.shape}, expected {(d, d)}"
                        continue
                    defect = unitarity_defect(h)
                    if not defect <= UNITARITY_TOL:  # a NaN defect fails too
                        faults[v] = f"coin at vertex {v} is not unitary (defect {defect:.3e})"
        if faults:
            raise ValueError(faults[min(faults)])  # the first in vertex order
        if labels != [vs.tolist() for vs, _ in space.degree_blocks]:
            raise ValueError("coin stacks do not follow the graph's degree blocks")

    def block(self, v: int) -> np.ndarray:
        """The block of vertex ``v``: a read-only view of the stack that holds it."""
        for vs, hs in self.stacks:
            if v in (labels := vs.tolist()):
                return hs[labels.index(v)]
        raise KeyError(v)

    def dagger(self) -> "CoinSet":
        return CoinSet.from_stacks((vs, hs.conj().swapaxes(1, 2)) for vs, hs in self.stacks)


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
        ``blocks`` is the coins' stack of degree d, and ``rows`` and ``cols``
        have shape (n_d, d).  G-type (U = C S) reads each origin block at the
        arcs the shift moves into it; A-type (U = S C) writes it where the
        shift moves it to.
        """
        inv = self.partition.inverse
        return tuple((arcs, inv[arcs], blocks) if self.kind == "G"
                     else (self.perm[arcs], arcs, blocks)
                     for (_, arcs), (_, blocks) in zip(self.space.degree_blocks, self.coins.stacks))

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
        return _read_only(u)


def shift_operator(p: Partition) -> np.ndarray:
    """Permutation matrix sending arc (i, j) to (j, f(i, j)).

    The package itself works from the partition's ``perm``; this dense form
    is the reference that the gathers and scatters are checked against.
    """
    n = p.perm.size
    s = np.zeros((n, n))
    s[p.perm, np.arange(n)] = 1.0
    return s


def coin_operator(space: ArcSpace, coins: CoinSet) -> np.ndarray:
    """Block-diagonal coin; the block of vertex j occupies its origin slice."""
    coins.validate(space.graph)
    c = np.zeros((space.size, space.size), dtype=complex)
    for (_, arcs), (_, blocks) in zip(space.degree_blocks, coins.stacks):
        c[arcs[:, :, None], arcs[:, None, :]] = blocks
    return c


def evolution(p: Partition, coins: CoinSet, kind: str = "G") -> EvolutionOperator:
    """One-step evolution: G-type applies the shift first, A-type the coin.

    Unitarity is checked on the coin blocks alone.  The shift is a
    permutation, so ||U^dag U - I|| = max_v ||H_v^dag H_v - I|| exactly and
    the walk is unitary precisely when every block is.
    """
    if kind not in ("G", "A"):
        raise ValueError(f"kind must be 'G' or 'A', got {kind!r}")
    coins.validate(p.graph)
    return EvolutionOperator(kind, p, coins)


def random_unitary_coins(g: Graph, rng: np.random.Generator) -> CoinSet:
    """Independent Haar-distributed unitary coin at every vertex.

    Each vertex draws a complex Gaussian matrix in vertex order (real part,
    then imaginary part) into its degree's stack; each stack then takes one
    QR, whose R diagonal phases are divided out of Q's columns.
    """
    groups = build_arc_space(g).degree_blocks
    # each draw goes straight into its degree's stack, which is then scaled and
    # phase-fixed in place: per-vertex draws kept alive until the QR, or
    # out-of-place temporaries, fragmented the heap and raised the peak RSS
    stacks = [np.empty((len(vs), arcs.shape[1], arcs.shape[1]), dtype=complex)
              for vs, arcs in groups]
    rows = {z.shape[1]: iter(z) for z in stacks}  # the next free row of each degree's stack
    for v in g.vertices:
        d = g.degree(v)
        next(rows[d])[...] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for z in stacks:
        z /= np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        np.multiply(q, (diag.conj() / np.abs(diag))[:, None, :], out=z)
    return CoinSet.from_stacks(zip((vs for vs, _ in groups), stacks))


# ---------------------------------------------------------------------------
# operator identities (each residual vanishes in exact arithmetic)
# ---------------------------------------------------------------------------


def shift_duality_residual(op: EvolutionOperator, n: int) -> float:
    """|| (U_G)^n - S^dag (U_A)^n S ||: the two types are conjugate by the shift.

    The residual is inf when, over enough steps, rounding overflows the powers.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.linalg.matrix_power(op.with_kind("G").matrix, n)
        rhs = np.linalg.matrix_power(op.with_kind("A").matrix, n)[np.ix_(op.perm, op.perm)]
        diff = lhs - rhs
    return operator_norm(diff) if np.isfinite(diff).all() else math.inf


def inverse_walk_residual(space: ArcSpace, coins: CoinSet) -> float:
    """Flip-flop inversion: inverting a walk swaps its type and daggers coins.

    Checks inv(U_G[H]) = U_A[H^dag] and inv(U_A[H]) = U_G[H^dag]; returns the
    larger defect.  Holds only for the flip-flop partition, whose shift is an
    involution.
    """
    p = flip_flop_partition(space.graph)
    ug = evolution(p, coins, "G")
    # H^dag is unitary exactly when the H just validated is
    ua_dag = replace(ug, kind="A", coins=coins.dagger())
    # the uncached twins go first, so two dense walks at most are alive at once
    r_a = operator_norm(np.linalg.inv(ug.with_kind("A").matrix) - ua_dag.with_kind("G").matrix)
    return max(operator_norm(np.linalg.inv(ug.matrix) - ua_dag.matrix), r_a)


def _permuted_coins(base: Partition, target: Partition, coins: CoinSet) -> CoinSet:
    """Coins K_j = H_j P_j, P_j mapping base's local successor to target's: with
    ``cols[base.perm] = target.perm``, column local(c) of K_j is local(cols[c]) of H_j."""
    if base.graph != target.graph:
        raise ValueError("partitions belong to different graphs")
    space, cols = base.arc_space, np.empty_like(base.perm)
    cols[base.perm] = target.perm
    local = cols - space.starts[space.origin - 1]
    return CoinSet.from_stacks(
        (vertices, np.take_along_axis(blocks, local[arcs][:, None, :], axis=2))
        for (vertices, arcs), (_, blocks) in zip(space.degree_blocks, coins.stacks))


def partition_change_residual(p: Partition, p2: Partition, coins: CoinSet) -> float:
    """|| U_G,p2[H] - U_G,p[H P] ||: any G-type walk re-expressed on partition p."""
    target = evolution(p2, coins, "G").matrix
    rebuilt = evolution(p, _permuted_coins(p, p2, coins), "G").matrix
    return operator_norm(target - rebuilt)


def g_type_reduction_residual(op: EvolutionOperator) -> float:
    """G-type on any partition equals the dagger of a flip-flop A-type walk.

    U_G,p[H] = (U_A,ff[K^dag])^dag with K_j = H_j P_j, P_j the permutation
    from the flip-flop successor map to p's; ``op`` is the walk on p with
    coins H, of either type.
    """
    ff = flip_flop_partition(op.space.graph)
    k = _permuted_coins(ff, op.partition, op.coins)
    rhs = evolution(ff, k.dagger(), "A").matrix.conj().T
    return operator_norm(op.with_kind("G").matrix - rhs)


def a_type_reduction_residual(op: EvolutionOperator) -> float:
    """A-type on any partition, conjugated by its shift, reduces the same way.

    U_A,p[H] = S_p (U_A,ff[K^dag])^dag S_p^dag with K as in the G-type case.
    """
    ff = flip_flop_partition(op.space.graph)
    k = _permuted_coins(ff, op.partition, op.coins)
    inv = op.partition.inverse
    rhs = evolution(ff, k.dagger(), "A").matrix.conj().T[np.ix_(inv, inv)]
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
