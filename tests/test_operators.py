"""Shift/coin assembly, walk unitarity, and the structural identities."""

import math
import warnings

import numpy as np
import pytest

from helpers import (
    C4_P1,
    C4_P3,
    arc_order_graphs,
    bowtie_graph,
    c4_graph,
    coin_families,
    mixed_degree_graph,
)
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
    line_digraph_adjacency,
    operator_norm,
    partition_change_residual,
    partition_permutation,
    random_connected_graph,
    random_partition,
    random_unitary_coins,
    shift_duality_residual,
    shift_operator,
    star_graph,
    unitarity_defect,
)
from qgwalk import operators
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
        s = shift_operator(p)
        perm = p.perm
        assert np.array_equal(s @ s.T, np.eye(space.size))
        assert np.all((s == 0.0) | (s == 1.0))
        for col, (i, j) in enumerate(space.arcs):
            row = space.index_of((j, p.successor(i, j)))
            assert s[row, col] == 1.0
            assert perm[col] == row


def test_evolution_rejects_a_partition_of_another_graph():
    g = c4_graph()
    coins = grover_coins(g)
    for other in (complete_graph(4), star_graph(4)):  # the star has C4's arc count
        foreign = flip_flop_partition(other)
        with pytest.raises(ValueError, match="coin"):  # C4's coins, validated on the other graph
            evolution(foreign, coins)
        with pytest.raises(ValueError, match="different graphs"):
            _permuted_coins(flip_flop_partition(g), foreign, coins)


def test_flip_flop_shift_squares_to_identity():
    space = build_arc_space(c4_graph())
    s = shift_operator(flip_flop_partition(space.graph))
    assert np.array_equal(s @ s, np.eye(8))


def test_single_cycle_shift_has_order_eight():
    g = c4_graph()
    s = shift_operator(Partition.from_successors(g, C4_P3))
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


def _mixed_blocks(g, seed):
    coins = random_unitary_coins(g, np.random.default_rng(seed))
    return {v: np.array(coins.block(v)) for v in g.vertices}


@pytest.mark.parametrize("edit,message", [
    # the whole vertex set is checked before any block
    ({10: np.eye(1)}, "coin set must assign one block to every vertex"),
    ({7: None, 3: 2.0 * np.eye(3)}, "coin set must assign one block to every vertex"),
    # then each vertex in vertex order: its shape, then its unitarity
    ({6: np.eye(3)}, "coin at vertex 6 has shape (3, 3), expected (2, 2)"),
    ({4: np.eye(2), 9: np.eye(2)}, "coin at vertex 4 has shape (2, 2), expected (3, 3)"),
    ({2: np.ones((2, 3))}, "coin at vertex 2 has shape (2, 3), expected (2, 2)"),
    ({9: np.array([1.0])}, "coin at vertex 9 has shape (1,), expected (1, 1)"),
    ({8: 2.0 * np.eye(2)}, "coin at vertex 8 is not unitary (defect 3.000e+00)"),
    ({3: 2.0 * np.eye(3), 5: np.eye(3)}, "coin at vertex 3 is not unitary (defect 3.000e+00)"),
    ({5: 2.0 * np.eye(2), 8: np.eye(3)}, "coin at vertex 5 is not unitary (defect 3.000e+00)"),
    ({2: np.eye(3), 7: 2.0 * np.eye(2)}, "coin at vertex 2 has shape (3, 3), expected (2, 2)"),
    # finite, but its singular values square to inf
    ({6: np.diag([1e200, 1.0])}, "coin at vertex 6 is not unitary (defect inf)"),
])
def test_validate_names_the_first_offender_in_vertex_order(edit, message):
    g = mixed_degree_graph()
    blocks = _mixed_blocks(g, 71)
    for v, h in edit.items():
        if h is None:
            del blocks[v]
        else:
            blocks[v] = h
    with pytest.raises(ValueError) as info:
        CoinSet(blocks).validate(g)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_validate_names_the_first_non_finite_vertex_before_any_svd(bad, monkeypatch):
    g = mixed_degree_graph()
    blocks = _mixed_blocks(g, 73)
    for v in (9, 8, 7):  # degrees 1, 2 and 2: the stacks hold 9 first, vertex order 7
        blocks[v][0, -1] = bad
    defects = []
    monkeypatch.setattr(operators, "unitarity_defect", defects.append)
    with pytest.raises(ValueError, match="^coin at vertex 7 has a non-finite entry$"):
        CoinSet(blocks).validate(g)
    assert defects == []


def test_validate_rejects_a_large_block_whose_gram_overflows():
    # the Gram product of the 64x64 centre block overflows, with numpy's
    # RuntimeWarning, to a NaN defect, which fails like any other
    g = star_graph(_SPLIT_MIN_ROWS)
    blocks = {v: np.eye(g.degree(v)) for v in g.vertices}
    blocks[1][0, 0] = 1e200
    with pytest.warns(RuntimeWarning), \
            pytest.raises(ValueError, match=r"^coin at vertex 1 is not unitary \(defect nan\)$"):
        CoinSet(blocks).validate(g)


def test_coin_set_from_a_dict_groups_copies_and_freezes():
    g = mixed_degree_graph()
    blocks = _mixed_blocks(g, 72)
    ref = CoinSet(blocks)
    shuffled = CoinSet({np.int64(v): blocks[v].tolist() for v in reversed(g.vertices)})
    by_string = CoinSet({str(v): blocks[v] for v in (4, 9, 1, 7, 2, 8, 3, 6, 5)})
    for coins in (ref, shuffled, by_string):
        coins.validate(g)
        assert list(coins.blocks) == list(g.vertices)
        assert all(type(v) is int for v in coins.blocks)
        for (vs, hs), (degree_vs, arcs) in zip(coins.stacks, build_arc_space(g).degree_blocks,
                                               strict=True):
            d = arcs.shape[1]
            assert np.array_equal(vs, degree_vs) and hs.shape == (len(vs), d, d)
            assert hs.dtype == complex and not vs.flags.writeable and not hs.flags.writeable
        for v in g.vertices:
            assert np.array_equal(coins.block(v), blocks[v])
            assert not coins.block(v).flags.writeable
    blocks[1][0, 0] = 7.0  # the set holds a copy
    assert ref.block(1)[0, 0] != 7.0
    with pytest.raises(ValueError, match="read-only"):
        ref.block(2)[0, 0] = 0.0
    with pytest.raises(TypeError):
        ref.blocks[2] = np.eye(2)
    with pytest.raises(AttributeError):
        ref.stacks = ()
    assert ref != CoinSet(blocks) and ref == ref  # equality is identity


def test_stacked_transforms_equal_the_per_vertex_formulas():
    rng = np.random.default_rng(73)
    for g in (mixed_degree_graph(), *arc_order_graphs()):
        space = build_arc_space(g)
        base, target = random_partition(g, rng), random_partition(g, rng)
        cols = np.empty_like(base.perm)
        cols[base.perm] = target.perm
        local = cols - space.starts[space.origin - 1]
        for coins in coin_families(g, rng).values():
            dagger, inverse = coins.dagger(), coins.inverse()
            permuted = _permuted_coins(base, target, coins)
            for v in g.vertices:
                h = coins.block(v)
                assert np.array_equal(dagger.block(v), h.conj().T)
                assert np.array_equal(inverse.block(v), np.linalg.inv(h))
                assert np.array_equal(permuted.block(v), h[:, local[space.origin_slice(v)]])


def test_degree_blocks_agree_with_degree_and_origin_slice():
    for g in (mixed_degree_graph(), c4_graph(), *arc_order_graphs()):
        space = build_arc_space(g)
        groups = space.degree_blocks
        assert groups is space.degree_blocks  # built once
        degrees = [arcs.shape[1] for _, arcs in groups]
        assert degrees == sorted(set(g.degree(v) for v in g.vertices))
        assert sorted(v for vs, _ in groups for v in vs.tolist()) == list(g.vertices)
        for vs, arcs in groups:
            assert not vs.flags.writeable and not arcs.flags.writeable
            assert list(vs) == sorted(vs) and len(arcs) == len(vs)
            for v, row in zip(vs.tolist(), arcs.tolist()):
                sl = space.origin_slice(v)
                assert g.degree(v) == len(row) and row == list(range(sl.start, sl.stop))


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
        fast = evolution(p, coins, kind).matrix
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
        s, c = shift_operator(p), coin_operator(space, coins)
        op = evolution(p, coins, kind)
        assert np.array_equal(op.matrix, c @ s if kind == "G" else s @ c)
        assert op.matrix is op.matrix


@pytest.mark.parametrize("kind", ["G", "A"])
def test_apply_matches_the_dense_matrix(kind):
    rng = np.random.default_rng(52)
    for g in mixed_degree_graphs(rng):
        space = build_arc_space(g)
        assert len({g.degree(v) for v in g.vertices}) >= 2
        op = evolution(random_partition(g, rng), random_unitary_coins(g, rng), kind)
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
    rng = np.random.default_rng(21)
    families = coin_families(g, rng)
    for p in enumerate_partitions(g):
        for name, coins in families.items():
            for kind in ("G", "A"):
                op = evolution(p, coins, kind)
                assert unitarity_defect(op.matrix) <= 1e-12, (name, kind)


def test_unitary_norm_and_defect_basics():
    g = c4_graph()
    u = evolution(flip_flop_partition(g), grover_coins(g), "G").matrix
    assert abs(operator_norm(u) - 1.0) <= 1e-12
    assert unitarity_defect(u) <= 1e-13
    assert unitarity_defect(0.5 * u) > 0.7


def _haar_orthogonal(n, rng):
    """The real counterpart of ``_haar_unitary``: a Haar-random orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_small_block_defect_matches_the_gram_norm(real):
    # Below _SPLIT_MIN_ROWS rows the defect comes from m's own singular values.
    # Those carry an absolute error of up to a few hundred ulps near 1, so on
    # blocks within 1e-12 of unitary the two routes part by up to about 4e-14
    # (a 40-digit reference sides with the Gram route there); on the others they
    # agree within about 2e-15.  Either is far inside UNITARITY_TOL.
    rng = np.random.default_rng(2300 + real)
    draw = _haar_orthogonal if real else _haar_unitary
    for n in range(1, _SPLIT_MIN_ROWS):
        u = draw(n, rng)
        cases = [u, 0.5 * u, 2.0 * np.eye(n, dtype=u.dtype)]
        for eps in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3):
            noise = draw(n, rng) * rng.standard_normal((1, n))
            cases.append(u + eps * noise / np.abs(noise).max())
        for i, m in enumerate(cases):
            ref = operator_norm(m.conj().T @ m - np.eye(n))
            scale = max(1.0, np.linalg.norm(m, 2) ** 2)
            assert abs(unitarity_defect(m) - ref) <= 1e-13 * scale, (n, i)


def _gram_defect(m):
    """The Gram route: ||m^dag m - I||_2 through ``operator_norm``."""
    gram = m.conj().T @ m
    gram.reshape(-1)[::len(gram) + 1] -= 1
    return operator_norm(gram)


def _outcome(f, m, action):
    """f(m) under the warnings filter ``action``: its value or exception, and its warnings."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        try:
            got = ("value", repr(f(m)))
        except Exception as exc:  # a warning turned into an error, too
            got = (type(exc), str(exc))
    return got, [(w.category, str(w.message)) for w in seen]


@pytest.mark.parametrize("m", [
    np.ones((2, 3)),
    np.ones((3, 2)) / math.sqrt(3.0),
    np.zeros((0, 0)),
    np.zeros((0, 3), dtype=complex),
    np.array([[math.nan, 0.0], [0.0, 1.0]]),
    np.array([[math.inf, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, complex(1.0, -math.inf)]]),
    np.full((2, 2), 1e308),  # finite, but its largest singular value overflows
    2.0 * np.eye(_SPLIT_MIN_ROWS),
    np.diag([1e200] + [1.0] * (_SPLIT_MIN_ROWS - 1)),
], ids=["2x3", "3x2", "empty", "0x3", "nan", "inf", "complex-inf", "sv-overflow", "64-rows",
        "64-rows-overflow"])
@pytest.mark.parametrize("action", ["error", "always"])
def test_other_input_keeps_the_gram_route(m, action):
    # the Gram route's own value or exception, and its warnings
    assert _outcome(unitarity_defect, m, action) == _outcome(_gram_defect, m, action)


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
    ug = evolution(p, coins, "G").matrix
    ff = flip_flop_partition(g)
    inverse = np.linalg.inv(evolution(ff, coins, "G").matrix)
    for r in (ug.conj().T @ ug - np.eye(space.size),
              inverse - evolution(ff, coins.dagger(), "A").matrix):
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
        s = shift_operator(p)
        ug = evolution(p, coins, "G").matrix
        ua_op = evolution(p, coins, "A")
        perm, inv = ua_op.perm, np.argsort(ua_op.perm)
        ua = ua_op.matrix

        ua3 = np.linalg.matrix_power(ua, 3)
        assert np.array_equal(ua3[np.ix_(perm, perm)], s.T @ ua3 @ s)
        lhs = np.linalg.matrix_power(ug, 3)
        assert (shift_duality_residual(evolution(p, coins, "G"), 3)
                == operator_norm(lhs - s.T @ ua3 @ s))

        k = _permuted_coins(ff, p, coins)
        x = evolution(ff, k.dagger(), "A").matrix.conj().T
        assert np.array_equal(x[np.ix_(inv, inv)], s @ x @ s.T)
        assert (a_type_reduction_residual(evolution(p, coins, "G"))
                == operator_norm(ua - s @ x @ s.T))

        assert np.array_equal(ua[np.ix_(perm, perm)], s.T @ ua @ s)
        off = line_digraph_adjacency(space) == 0.0
        leaks = [np.abs(op[mask]).max(initial=0.0)
                 for op, mask in [(ug, off), (s.T @ ua @ s, off)]
                 + ([(ua, off.T)] if p.is_flip_flop else [])]
        assert adjacency_support_report(evolution(p, coins, "G")).max_leak == max(leaks)


@pytest.mark.parametrize("kind,other", [("G", "A"), ("A", "G")])
def test_with_kind_gives_the_other_walk_without_a_rebuild(kind, other):
    rng = np.random.default_rng(36)
    for _ in range(5):
        _, _, p, coins = random_instance(rng)
        op = evolution(p, coins, kind)
        twin = op.with_kind(other)
        assert op.with_kind(kind) is op
        assert twin.kind == other and twin.perm is op.perm and twin.coins is op.coins
        assert np.array_equal(twin.matrix, evolution(p, coins, other).matrix)


def test_residuals_take_a_walk_of_either_type():
    rng = np.random.default_rng(37)
    for _ in range(5):
        _, _, p, coins = random_instance(rng)
        ug, ua = evolution(p, coins, "G"), evolution(p, coins, "A")
        assert shift_duality_residual(ug, 3) == shift_duality_residual(ua, 3)
        assert g_type_reduction_residual(ug) == g_type_reduction_residual(ua)
        assert a_type_reduction_residual(ug) == a_type_reduction_residual(ua)
        assert adjacency_support_report(ug) == adjacency_support_report(ua)


@pytest.mark.parametrize("kind", ["G", "A"])
def test_evolution_rejects_a_non_unitary_coin_block(kind):
    g = star_graph(3)
    blocks = dict(random_unitary_coins(g, np.random.default_rng(54)).blocks)
    blocks[1] = blocks[1] @ np.diag([1.0, 1.0, 1.0 + 1e-9])
    with pytest.raises(ValueError, match="not unitary"):
        evolution(flip_flop_partition(g), CoinSet(blocks), kind)


def test_evolution_rejects_bad_kind():
    g = c4_graph()
    with pytest.raises(ValueError):
        evolution(flip_flop_partition(g), grover_coins(g), "X")


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_permuted_coins_gather_equals_the_permutation_product():
    # every ordered pair on C4, whose per-vertex maps are all involutions, and
    # random pairs on graphs with higher degrees, where a map and its inverse differ
    rng = np.random.default_rng(38)
    parts = list(enumerate_partitions(c4_graph()))
    pairs = [(base, target) for base in parts for target in parts]
    pairs += [(random_partition(g, rng), random_partition(g, rng))
              for g in arc_order_graphs() for _ in range(4)]
    for base, target in pairs:
        g = base.graph
        coins = random_unitary_coins(g, rng)
        k = _permuted_coins(base, target, coins)
        for j in g.vertices:
            p_j = partition_permutation(base, target, j).matrix(g.neighbors(j))
            assert np.array_equal(k.block(j), coins.block(j) @ p_j)


def test_type_duality_through_shift_conjugation():
    rng = np.random.default_rng(31)
    for _ in range(10):
        _, _, p, coins = random_instance(rng)
        for n in range(6):
            assert shift_duality_residual(evolution(p, coins, "G"), n) <= 1e-10


def test_flip_flop_inversion_swaps_type_and_daggers():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g, space, _, coins = random_instance(rng)
        assert inverse_walk_residual(space, coins) <= 1e-10


def test_inversion_special_case_self_adjoint_coins():
    # with H = H^dag the inverse of the G-type walk is the A-type walk itself
    g = c4_graph()
    ff = flip_flop_partition(g)
    coins = grover_coins(g)
    ug = evolution(ff, coins, "G").matrix
    ua = evolution(ff, coins, "A").matrix
    assert operator_norm(np.linalg.inv(ug) - ua) <= 1e-12


def test_partition_change_rebuilds_any_partition():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g, _, p, coins = random_instance(rng)
        p2 = random_partition(g, rng)
        assert partition_change_residual(p, p2, coins) <= 1e-10
        assert partition_change_residual(p, p, coins) <= 1e-14


def test_g_type_reduces_to_flip_flop_a_type():
    rng = np.random.default_rng(34)
    for _ in range(10):
        _, _, p, coins = random_instance(rng)
        assert g_type_reduction_residual(evolution(p, coins, "G")) <= 1e-10


def test_a_type_reduces_to_flip_flop_a_type():
    rng = np.random.default_rng(35)
    for _ in range(10):
        _, _, p, coins = random_instance(rng)
        assert a_type_reduction_residual(evolution(p, coins, "G")) <= 1e-10


# ---------------------------------------------------------------------------
# line digraph support patterns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [*arc_order_graphs(), c4_graph(), star_graph(3),
                               Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4)])])
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
        g, _, _, coins = random_instance(rng)
        report = adjacency_support_report(evolution(flip_flop_partition(g), coins, "G"))
        assert report.g_on_adjacency
        assert report.conjugated_a_on_adjacency
        assert report.flip_flop_a_on_transpose is True
        assert report.ok
        assert report.max_leak <= 1e-12


def test_support_report_generic_partition_skips_transpose_claim():
    g = c4_graph()
    p1 = Partition.from_successors(g, C4_P1)
    coins = random_unitary_coins(g, np.random.default_rng(42))
    report = adjacency_support_report(evolution(p1, coins, "G"))
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
    ua = evolution(p1, coins, "A").matrix
    off_mask = line_digraph_adjacency(space).T == 0.0
    assert np.abs(ua[off_mask]).max() > 0.1


def test_generic_haar_coins_fill_the_allowed_support():
    g = c4_graph()
    space = build_arc_space(g)
    coins = random_unitary_coins(g, np.random.default_rng(44))
    u = evolution(flip_flop_partition(g), coins, "G").matrix
    m = line_digraph_adjacency(space)
    assert np.abs(u[m == 1.0]).min() > 1e-6
