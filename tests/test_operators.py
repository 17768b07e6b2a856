"""Shift/coin assembly, walk unitarity, and the structural identities."""

import numpy as np
import pytest

from helpers import C4_P1, C4_P3, arc_order_graphs, bowtie_graph, c4_graph, coin_families
from qgwalk import (
    CoinSet,
    Graph,
    Partition,
    adjacency_support_report,
    a_type_reduction_residual,
    build_arc_space,
    coin_operator,
    complete_graph,
    enumerate_partitions,
    evolution,
    flip_flop_partition,
    g_type_reduction_residual,
    grover_coins,
    inverse_walk_residual,
    line_digraph,
    line_digraph_adjacency,
    operator_norm,
    partition_change_residual,
    random_connected_graph,
    random_partition,
    random_unitary_coins,
    shift_duality_residual,
    shift_operator,
    shift_permutation,
    star_graph,
    unitarity_defect,
)
from qgwalk.operators import _SPLIT_MIN_ROWS, _permuted_coins


def random_instance(rng):
    g = random_connected_graph(rng)
    return g, build_arc_space(g), random_partition(g, rng), random_unitary_coins(g, rng)


# ---------------------------------------------------------------------------
# shifts and coins
# ---------------------------------------------------------------------------


def test_shift_is_a_permutation_following_the_partition():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g, space, p, _ = random_instance(rng)
        s = shift_operator(space, p)
        perm = shift_permutation(space, p)
        assert np.array_equal(s @ s.T, np.eye(space.size))
        assert np.all((s == 0.0) | (s == 1.0))
        for col, (i, j) in enumerate(space.arcs):
            row = space.index_of((j, p.successor(i, j)))
            assert s[row, col] == 1.0
            assert perm[col] == row


def test_flip_flop_shift_squares_to_identity():
    space = build_arc_space(c4_graph())
    s = shift_operator(space, flip_flop_partition(space.graph))
    assert np.array_equal(s @ s, np.eye(8))


def test_single_cycle_shift_has_order_eight():
    g = c4_graph()
    space = build_arc_space(g)
    s = shift_operator(space, Partition.from_successors(g, C4_P3))
    power = np.eye(8)
    for n in range(1, 8):
        power = power @ s
        assert not np.array_equal(power, np.eye(8)), n
    assert np.array_equal(power @ s, np.eye(8))


def test_coin_operator_is_block_diagonal_on_origin_blocks():
    g = star_graph(3)
    space = build_arc_space(g)
    coins = random_unitary_coins(g, np.random.default_rng(1))
    c = coin_operator(space, coins)
    for v in g.vertices:
        sl = space.origin_slice(v)
        assert np.array_equal(c[sl, sl], coins.block(v))
    mask = np.zeros((space.size, space.size), dtype=bool)
    for v in g.vertices:
        sl = space.origin_slice(v)
        mask[sl, sl] = True
    assert np.all(c[~mask] == 0.0)


def test_coin_set_validation():
    g = c4_graph()
    with pytest.raises(ValueError):
        CoinSet({v: np.eye(2) for v in (1, 2, 3)}).validate(g)  # missing vertex
    blocks = {v: np.eye(2, dtype=complex) for v in g.vertices}
    blocks[2] = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        CoinSet(blocks).validate(g)  # wrong block size
    blocks[2] = 2.0 * np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        CoinSet(blocks).validate(g)  # not unitary


def test_dagger_inverse_agree_for_unitary_coins():
    g = c4_graph()
    coins = random_unitary_coins(g, np.random.default_rng(2))
    for v in g.vertices:
        assert np.allclose(coins.dagger().block(v), coins.inverse().block(v),
                           atol=1e-14, rtol=0.0)


def test_random_unitary_coins_seeded():
    g = star_graph(4)
    a = random_unitary_coins(g, np.random.default_rng(6))
    b = random_unitary_coins(g, np.random.default_rng(6))
    for v in g.vertices:
        assert np.array_equal(a.block(v), b.block(v))
        assert unitarity_defect(a.block(v)) <= 1e-12


def _haar_unitary(n, rng):
    """One Haar coin drawn on its own: the per-vertex reference for the batched draw."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


@pytest.mark.parametrize("seed", [0, 1, 17, 90317])
def test_random_unitary_coins_equal_per_vertex_draws_exactly(seed):
    # degrees 5, 2, 3, 3, 2, 2, 2, 2, 1 in vertex order, so each degree's
    # stack gathers vertices that drew far apart in the generator's stream
    g = Graph.from_edges(9, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4),
                             (4, 7), (5, 8), (6, 9), (7, 8)])
    assert [g.degree(v) for v in g.vertices] == [5, 2, 3, 3, 2, 2, 2, 2, 1]
    batched, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    coins = random_unitary_coins(g, batched)
    for v in g.vertices:
        assert np.array_equal(coins.block(v), _haar_unitary(g.degree(v), reference))
    assert batched.random() == reference.random()  # the same draws were taken


# ---------------------------------------------------------------------------
# matrix elements, re-derived entry by entry
# ---------------------------------------------------------------------------


def entrywise_walk(space, p, coins, kind):
    """Assemble the walk from its scalar matrix elements, one arc pair at a time."""
    g = space.graph
    u = np.zeros((space.size, space.size), dtype=complex)
    for col, (i, j) in enumerate(space.arcs):
        for row, (l, m) in enumerate(space.arcs):
            if kind == "G":
                if l == j:
                    u[row, col] = coins.block(j)[space.local_index(j, m),
                                                 space.local_index(j, p.successor(i, j))]
            else:
                if l in g.neighbors(i) and m == p.successor(i, l):
                    u[row, col] = coins.block(i)[space.local_index(i, l),
                                                 space.local_index(i, j)]
    return u


@pytest.mark.parametrize("kind", ["G", "A"])
def test_matrix_elements_match_entrywise_assembly(kind):
    rng = np.random.default_rng(13)
    for _ in range(6):
        g, space, p, coins = random_instance(rng)
        fast = evolution(space, p, coins, kind).matrix
        slow = entrywise_walk(space, p, coins, kind)
        assert np.abs(fast - slow).max() == 0.0


# ---------------------------------------------------------------------------
# matrix-free stepping against the dense matrix
# ---------------------------------------------------------------------------


def mixed_degree_graphs(rng):
    """Graphs with several distinct vertex degrees, so several coin batches."""
    return [star_graph(4), bowtie_graph()] + [random_connected_graph(rng, 5, 10, 0.3)
                                              for _ in range(4)]


@pytest.mark.parametrize("kind", ["G", "A"])
def test_matrix_is_the_coin_shift_product(kind):
    rng = np.random.default_rng(51)
    for g in mixed_degree_graphs(rng):
        space = build_arc_space(g)
        p, coins = random_partition(g, rng), random_unitary_coins(g, rng)
        s, c = shift_operator(space, p), coin_operator(space, coins)
        op = evolution(space, p, coins, kind)
        assert np.array_equal(op.matrix, c @ s if kind == "G" else s @ c)
        assert op.matrix is op.matrix


@pytest.mark.parametrize("kind", ["G", "A"])
def test_apply_matches_the_dense_matrix(kind):
    rng = np.random.default_rng(52)
    for g in mixed_degree_graphs(rng):
        space = build_arc_space(g)
        assert len({g.degree(v) for v in g.vertices}) >= 2
        op = evolution(space, random_partition(g, rng), random_unitary_coins(g, rng), kind)
        x = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
        x /= np.linalg.norm(x)
        assert np.abs(op.apply(x) - op.matrix @ x).max() <= 1e-13
        fast, dense = x, x
        for _ in range(50):
            fast, dense = op.apply(fast), op.matrix @ dense
        assert np.abs(fast - dense).max() <= 1e-13
        with pytest.raises(ValueError):
            op.apply(x[:-1])


# ---------------------------------------------------------------------------
# unitarity
# ---------------------------------------------------------------------------


def test_unitarity_all_c4_partitions_all_families_both_kinds():
    g = c4_graph()
    space = build_arc_space(g)
    rng = np.random.default_rng(21)
    families = coin_families(g, rng)
    for p in enumerate_partitions(g):
        for name, coins in families.items():
            for kind in ("G", "A"):
                op = evolution(space, p, coins, kind)
                assert unitarity_defect(op.matrix) <= 1e-12, (name, kind)


def test_unitary_norm_and_defect_basics():
    g = c4_graph()
    space = build_arc_space(g)
    u = evolution(space, flip_flop_partition(g), grover_coins(g), "G").matrix
    assert abs(operator_norm(u) - 1.0) <= 1e-12
    assert unitarity_defect(u) <= 1e-13
    assert unitarity_defect(0.5 * u) > 0.7


# ---------------------------------------------------------------------------
# residual norms over the blocks of the nonzero pattern
# ---------------------------------------------------------------------------

# one size on each side of the cutoff below which operator_norm never splits
NORM_SIZES = [_SPLIT_MIN_ROWS // 4, 3 * _SPLIT_MIN_ROWS]


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _scrambled_blocks(rng, n_rows):
    """Rectangular complex blocks on a scrambled diagonal, with empty rows and columns."""
    shapes, used = [], 0
    while used < n_rows - 4:
        r = int(rng.integers(1, min(9, n_rows - 3 - used) + 1))
        shapes.append((r, int(rng.integers(1, 9))))
        used += r
    m = np.zeros((n_rows, sum(c for _, c in shapes) + 3), dtype=complex)
    r0 = c0 = 0
    for r, c in shapes:
        m[r0:r0 + r, c0:c0 + c] = _complex_gaussian(rng, (r, c))
        r0, c0 = r0 + r, c0 + c
    return m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])], shapes


def _svd_shapes(monkeypatch):
    """Record the shape of every matrix np.linalg.norm or np.linalg.svd is asked for.

    ``norm`` reaches LAPACK through numpy's own module-level ``svd``, not the
    patched attribute, so each SVD is recorded once whichever route it takes.
    """
    shapes = []

    def spy(dense):
        def record(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return dense(m, *args, **kwargs)
        return record

    for name in ("norm", "svd"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    return shapes


@pytest.mark.parametrize("n_rows", NORM_SIZES)
def test_operator_norm_of_scrambled_blocks_matches_the_dense_norm(monkeypatch, n_rows):
    rng = np.random.default_rng(n_rows)
    for _ in range(5):
        m, blocks = _scrambled_blocks(rng, n_rows)
        expected = np.linalg.norm(m, 2)
        shapes = _svd_shapes(monkeypatch)
        assert abs(operator_norm(m) - expected) <= 1e-14 * expected
        assert sorted(shapes) == ([m.shape] if n_rows < _SPLIT_MIN_ROWS else sorted(blocks))
        monkeypatch.undo()


@pytest.mark.parametrize("n_rows", NORM_SIZES)
def test_operator_norm_of_dense_and_zero_matrices(monkeypatch, n_rows):
    m = _complex_gaussian(np.random.default_rng(7), (n_rows, n_rows + 5))
    expected = np.linalg.norm(m, 2)
    shapes = _svd_shapes(monkeypatch)
    assert abs(operator_norm(m) - expected) <= 1e-14 * expected
    assert shapes == [m.shape]
    shapes.clear()
    assert operator_norm(np.zeros((n_rows, n_rows), dtype=complex)) == 0.0
    assert shapes == ([(n_rows, n_rows)] if n_rows < _SPLIT_MIN_ROWS else [])


def test_operator_norm_of_walk_residuals_matches_the_dense_norm(monkeypatch):
    g = complete_graph(10)
    space = build_arc_space(g)
    assert space.size >= _SPLIT_MIN_ROWS
    rng = np.random.default_rng(10)
    p, coins = random_partition(g, rng), random_unitary_coins(g, rng)
    ug = evolution(space, p, coins, "G").matrix
    ff = flip_flop_partition(g)
    inverse = np.linalg.inv(evolution(space, ff, coins, "G").matrix)
    for r in (ug.conj().T @ ug - np.eye(space.size),
              inverse - evolution(space, ff, coins.dagger(), "A").matrix):
        expected = np.linalg.norm(r, 2)
        shapes = _svd_shapes(monkeypatch)
        assert abs(operator_norm(r) - expected) <= 1e-14 * expected
        assert len(shapes) > 1 and all(max(shape) < space.size for shape in shapes)
        monkeypatch.undo()


@pytest.mark.parametrize("n_rows", NORM_SIZES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_operator_norm_of_non_finite_matrices_follows_the_dense_norm(n_rows, bad):
    m, _ = _scrambled_blocks(np.random.default_rng(3), n_rows)
    m[n_rows // 2, 1] = bad
    try:
        expected = np.linalg.norm(m, 2)
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            operator_norm(m)
    else:
        assert np.array_equal(operator_norm(m), expected, equal_nan=True)


def test_operator_norm_of_small_matrices_is_the_dense_norm_exactly():
    # below the split cutoff the norm is read from svd directly; it must be
    # the very value np.linalg.norm returns, not just a close one
    rng = np.random.default_rng(63)
    for n_rows in range(1, _SPLIT_MIN_ROWS):
        for n_cols in (n_rows, int(rng.integers(1, _SPLIT_MIN_ROWS))):
            m = _complex_gaussian(rng, (n_rows, n_cols))
            assert operator_norm(m) == float(np.linalg.norm(m, 2))


@pytest.mark.parametrize("m", [
    np.array([[np.nan, 1.0], [1.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, np.inf]], dtype=complex),
    np.array([[complex(0.0, -np.inf)]]),
    np.zeros((0, 0)),
    np.zeros((3, 0), dtype=complex),
    np.zeros((0, 3)),
    np.ones(3),
], ids=["nan", "inf", "complex-inf", "empty", "no-columns", "no-rows", "vector"])
def test_operator_norm_of_degenerate_small_inputs_follows_the_dense_norm(m):
    try:
        expected = np.linalg.norm(m, 2)
    except Exception as exc:  # noqa: BLE001 - the same type must come back
        with pytest.raises(type(exc)):
            operator_norm(m)
    else:
        assert np.array_equal(operator_norm(m), expected, equal_nan=True)


@pytest.mark.parametrize("make_graph", [lambda: star_graph(5), bowtie_graph,
                                        lambda: complete_graph(6)])
def test_shift_conjugations_are_exact_gathers(make_graph):
    """Each residual's gather equals the S^T X S or S X S^T product it replaces."""
    g = make_graph()
    space = build_arc_space(g)
    ff = flip_flop_partition(g)
    rng = np.random.default_rng(space.size)
    for _ in range(3):
        p, coins = random_partition(g, rng), random_unitary_coins(g, rng)
        s = shift_operator(space, p)
        ug = evolution(space, p, coins, "G").matrix
        ua_op = evolution(space, p, coins, "A")
        perm, inv = ua_op.perm, np.argsort(ua_op.perm)
        ua = ua_op.matrix

        ua3 = np.linalg.matrix_power(ua, 3)
        assert np.array_equal(ua3[np.ix_(perm, perm)], s.T @ ua3 @ s)
        lhs = np.linalg.matrix_power(ug, 3)
        assert shift_duality_residual(space, p, coins, 3) == operator_norm(lhs - s.T @ ua3 @ s)

        k = _permuted_coins(g, ff, p, coins)
        x = evolution(space, ff, k.dagger(), "A").matrix.conj().T
        assert np.array_equal(x[np.ix_(inv, inv)], s @ x @ s.T)
        assert a_type_reduction_residual(space, p, coins) == operator_norm(ua - s @ x @ s.T)

        assert np.array_equal(ua[np.ix_(perm, perm)], s.T @ ua @ s)
        off = line_digraph_adjacency(space) == 0.0
        leaks = [np.abs(op[mask]).max(initial=0.0)
                 for op, mask in [(ug, off), (s.T @ ua @ s, off)]
                 + ([(ua, off.T)] if p.is_flip_flop else [])]
        assert adjacency_support_report(space, p, coins).max_leak == max(leaks)


@pytest.mark.parametrize("kind", ["G", "A"])
def test_evolution_rejects_a_non_unitary_coin_block(kind):
    g = star_graph(3)
    space = build_arc_space(g)
    blocks = dict(random_unitary_coins(g, np.random.default_rng(54)).blocks)
    blocks[1] = blocks[1] @ np.diag([1.0, 1.0, 1.0 + 1e-9])
    with pytest.raises(ValueError, match="not unitary"):
        evolution(space, flip_flop_partition(g), CoinSet(blocks), kind)


def test_evolution_rejects_bad_kind():
    g = c4_graph()
    space = build_arc_space(g)
    with pytest.raises(ValueError):
        evolution(space, flip_flop_partition(g), grover_coins(g), "X")


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_type_duality_through_shift_conjugation():
    rng = np.random.default_rng(31)
    for _ in range(10):
        _, space, p, coins = random_instance(rng)
        for n in range(6):
            assert shift_duality_residual(space, p, coins, n) <= 1e-10


def test_flip_flop_inversion_swaps_type_and_daggers():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g, space, _, coins = random_instance(rng)
        assert inverse_walk_residual(space, coins) <= 1e-10


def test_inversion_special_case_self_adjoint_coins():
    # with H = H^dag the inverse of the G-type walk is the A-type walk itself
    g = c4_graph()
    space = build_arc_space(g)
    ff = flip_flop_partition(g)
    coins = grover_coins(g)
    ug = evolution(space, ff, coins, "G").matrix
    ua = evolution(space, ff, coins, "A").matrix
    assert operator_norm(np.linalg.inv(ug) - ua) <= 1e-12


def test_partition_change_rebuilds_any_partition():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g, space, p, coins = random_instance(rng)
        p2 = random_partition(g, rng)
        assert partition_change_residual(space, p, p2, coins) <= 1e-10
        assert partition_change_residual(space, p, p, coins) <= 1e-14


def test_g_type_reduces_to_flip_flop_a_type():
    rng = np.random.default_rng(34)
    for _ in range(10):
        _, space, p, coins = random_instance(rng)
        assert g_type_reduction_residual(space, p, coins) <= 1e-10


def test_a_type_reduces_to_flip_flop_a_type():
    rng = np.random.default_rng(35)
    for _ in range(10):
        _, space, p, coins = random_instance(rng)
        assert a_type_reduction_residual(space, p, coins) <= 1e-10


# ---------------------------------------------------------------------------
# line digraph support patterns
# ---------------------------------------------------------------------------


def test_adjacency_matrix_agrees_with_line_digraph():
    for g in (c4_graph(), star_graph(3), Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4)])):
        space = build_arc_space(g)
        m = line_digraph_adjacency(space)
        ld = line_digraph(g)
        expected = np.zeros_like(m)
        for src in ld.vertices:
            for tgt in ld.out_neighbors(src):
                expected[space.index_of(tgt), space.index_of(src)] = 1.0
        assert np.array_equal(m, expected)


@pytest.mark.parametrize("g", arc_order_graphs())
def test_adjacency_matrix_equals_the_per_arc_loop(g):
    space = build_arc_space(g)
    reference = np.zeros((space.size, space.size))
    for col, (_i, j) in enumerate(space.arcs):
        reference[space.origin_slice(j), col] = 1.0
    m = line_digraph_adjacency(space)
    assert m.dtype == reference.dtype and np.array_equal(m, reference)


def test_support_report_flip_flop():
    rng = np.random.default_rng(41)
    for _ in range(8):
        g, space, _, coins = random_instance(rng)
        report = adjacency_support_report(space, flip_flop_partition(g), coins)
        assert report.g_on_adjacency
        assert report.conjugated_a_on_adjacency
        assert report.flip_flop_a_on_transpose is True
        assert report.ok
        assert report.max_leak <= 1e-12


def test_support_report_generic_partition_skips_transpose_claim():
    g = c4_graph()
    space = build_arc_space(g)
    p1 = Partition.from_successors(g, C4_P1)
    coins = random_unitary_coins(g, np.random.default_rng(42))
    report = adjacency_support_report(space, p1, coins)
    assert report.g_on_adjacency
    assert report.conjugated_a_on_adjacency
    assert report.flip_flop_a_on_transpose is None
    assert report.ok


def test_raw_a_type_off_flip_flop_leaks_off_the_transpose():
    # the transpose support claim is specific to the flip-flop shift: on the
    # all-straight partition the raw A-type walk lands outside it
    g = c4_graph()
    space = build_arc_space(g)
    p1 = Partition.from_successors(g, C4_P1)
    coins = random_unitary_coins(g, np.random.default_rng(43))
    ua = evolution(space, p1, coins, "A").matrix
    off_mask = line_digraph_adjacency(space).T == 0.0
    assert np.abs(ua[off_mask]).max() > 0.1


def test_generic_haar_coins_fill_the_allowed_support():
    g = c4_graph()
    space = build_arc_space(g)
    coins = random_unitary_coins(g, np.random.default_rng(44))
    u = evolution(space, flip_flop_partition(g), coins, "G").matrix
    m = line_digraph_adjacency(space)
    assert np.abs(u[m == 1.0]).min() > 1e-6
