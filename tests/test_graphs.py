"""Graphs, arc spaces, line digraphs, and cycle partitions."""

import numpy as np
import pytest

from helpers import C4_P1, C4_P2, C4_P3, arc_order_graphs, c4_graph
from qgwalk import (
    Graph,
    GraphValidationError,
    Partition,
    PartitionCapError,
    build_arc_space,
    complete_graph,
    cycle_graph,
    enumerate_partitions,
    flip_flop_partition,
    line_digraph,
    partition_count,
    partition_permutation,
    path_graph,
    random_connected_graph,
    random_partition,
    QuantumGraphParams,
    reverse_partition,
    shift_permutation,
    star_graph,
)


def k2():
    return Graph.from_edges(2, [(1, 2)])


def p3():
    return path_graph(3)


def s3():
    return star_graph(3)


# ---------------------------------------------------------------------------
# graph validation
# ---------------------------------------------------------------------------


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError):
        Graph.from_edges(3, [(1, 2), (2, 3), (2, 1)])


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError):
        Graph.from_edges(2, [(1, 1), (1, 2)])


def test_out_of_range_vertex_rejected():
    with pytest.raises(GraphValidationError):
        Graph.from_edges(2, [(1, 3)])


def test_disconnected_rejected():
    with pytest.raises(GraphValidationError):
        Graph.from_edges(4, [(1, 2), (3, 4)])


def test_isolated_vertex_rejected():
    with pytest.raises(GraphValidationError):
        Graph.from_edges(3, [(1, 2)])


def test_neighbors_sorted_and_degree():
    g = s3()
    assert g.neighbors(1) == (2, 3, 4)
    assert g.degree(1) == 3
    assert g.degree(2) == 1
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(2, 3)


def test_builders_shapes():
    assert cycle_graph(4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert path_graph(3).edges == ((1, 2), (2, 3))
    assert star_graph(3).edges == ((1, 2), (1, 3), (1, 4))
    assert len(complete_graph(4).edges) == 6


def test_random_connected_graph_is_valid_and_seeded():
    rng = np.random.default_rng(7)
    gs = [random_connected_graph(rng) for _ in range(20)]
    for g in gs:
        assert 2 <= g.vertex_count <= 8
        # construction re-runs the full validator, so reaching here suffices
        assert len(g.edges) >= g.vertex_count - 1
    again = [random_connected_graph(np.random.default_rng(7)) for _ in range(1)]
    assert again[0] == gs[0]


# ---------------------------------------------------------------------------
# arc spaces
# ---------------------------------------------------------------------------


def test_k2_arcs():
    assert build_arc_space(k2()).arcs == ((1, 2), (2, 1))


def test_c4_arcs_lexicographic():
    space = build_arc_space(c4_graph())
    assert space.size == 8
    assert space.arcs == tuple(sorted(space.arcs))


def test_s3_arcs_and_neighbor_order():
    space = build_arc_space(s3())
    assert space.size == 6
    assert space.graph.neighbors(1) == (2, 3, 4)


def test_arc_index_roundtrip_and_blocks():
    space = build_arc_space(s3())
    for idx, (u, v) in enumerate(space.arcs):
        assert space.index_of((u, v)) == idx
    sl = space.origin_slice(1)
    assert [space.arcs[i] for i in range(sl.start, sl.stop)] == [(1, 2), (1, 3), (1, 4)]
    assert space.local_index(1, 3) == 1


@pytest.mark.parametrize("g", arc_order_graphs())
def test_arc_space_arrays_match_the_arc_list(g):
    space = build_arc_space(g)
    assert space.origin.tolist() == [u for u, _ in space.arcs]
    assert space.terminus.tolist() == [v for _, v in space.arcs]
    # the flip-flop shift, and the lexsort the reduced determinant once kept
    flip_flop = shift_permutation(space, flip_flop_partition(g))
    assert np.array_equal(space.reverse, flip_flop)
    assert np.array_equal(space.reverse, np.lexsort((space.origin, space.terminus)))
    assert all(space.arcs[r] == (v, u) for r, (u, v) in zip(space.reverse, space.arcs))
    assert space.starts.tolist() == [space.origin_slice(v).start for v in g.vertices]
    for v in g.vertices:
        sl = space.origin_slice(v)
        assert [space.arcs[i] for i in range(sl.start, sl.stop)] == [(v, w) for w in g.neighbors(v)]
        assert [space.local_index(v, w) for w in g.neighbors(v)] == list(range(g.degree(v)))
        with pytest.raises(ValueError, match="is not a neighbour of"):
            space.local_index(v, v)
    for arr in (space.origin, space.terminus, space.reverse, space.starts):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("g", arc_order_graphs())
def test_parameters_hold_the_graphs_arc_space(g):
    q = QuantumGraphParams.build(g)
    assert q.arc_space.graph == g
    assert q.arc_space.arcs == build_arc_space(g).arcs
    assert q == QuantumGraphParams.build(g)  # the derived space takes no part in equality


def test_origin_slice_rejects_a_vertex_outside_the_graph():
    space = build_arc_space(s3())
    for v in (0, 5):
        with pytest.raises(GraphValidationError):
            space.origin_slice(v)


# ---------------------------------------------------------------------------
# line digraphs
# ---------------------------------------------------------------------------


def test_line_digraph_k2():
    ld = line_digraph(k2())
    assert set(ld.vertices) == {(1, 2), (2, 1)}
    assert set(ld.arcs) == {((1, 2), (2, 1)), ((2, 1), (1, 2))}


def test_line_digraph_c4_out_degrees():
    g = c4_graph()
    ld = line_digraph(g)
    assert len(ld.arcs) == 16
    for (u, v) in ld.vertices:
        # composable continuations of (u, v) are exactly the arcs out of v
        assert len(ld.out_neighbors((u, v))) == g.degree(v)


def test_line_digraph_p3_successors():
    ld = line_digraph(p3())
    assert set(ld.out_neighbors((1, 2))) == {(2, 1), (2, 3)}


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_flip_flop_k2_single_two_cycle():
    p = flip_flop_partition(k2())
    assert p.cycles == (((1, 2), (2, 1)),)


def test_flip_flop_c4_four_two_cycles():
    p = flip_flop_partition(c4_graph())
    assert len(p.cycles) == 4
    assert all(len(c) == 2 for c in p.cycles)
    assert p.is_flip_flop


def test_flip_flop_defining_property_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_connected_graph(rng)
        p = flip_flop_partition(g)
        assert all(m == i for (i, _j), m in p.successors.items())


@pytest.mark.parametrize("graph,expected", [
    (k2(), 1), (p3(), 2), (c4_graph(), 16), (s3(), 6)])
def test_partition_counts(graph, expected):
    parts = enumerate_partitions(graph)
    assert partition_count(graph) == expected
    assert len(parts) == expected
    keys = {frozenset(p.successors.items()) for p in parts}
    assert len(keys) == expected
    assert sum(p.is_flip_flop for p in parts) == 1


def test_enumeration_cap_carries_count():
    g = complete_graph(5)
    with pytest.raises(PartitionCapError) as err:
        enumerate_partitions(g)
    assert err.value.count == 24 ** 5


def test_quoted_successor_values():
    g = c4_graph()
    p1 = Partition.from_successors(g, C4_P1)
    p2 = Partition.from_successors(g, C4_P2)
    p3_ = Partition.from_successors(g, C4_P3)
    assert p1.successor(1, 2) == 3 and p1.successor(3, 4) == 1
    assert p2.successor(1, 2) == 1 and p2.successor(3, 4) == 3
    assert p3_.successor(1, 2) == 3 and p3_.successor(3, 4) == 3


def test_successor_unknown_arc():
    p = flip_flop_partition(c4_graph())
    with pytest.raises(ValueError):
        p.successor(1, 3)


def test_explicit_patterns_cycle_structures():
    g = c4_graph()
    p1 = Partition.from_successors(g, C4_P1)
    p3_ = Partition.from_successors(g, C4_P3)
    assert sorted(len(c) for c in p1.cycles) == [4, 4]
    assert [len(c) for c in p3_.cycles] == [8]
    # canonical listing: every cycle starts at its smallest arc
    for p in (p1, p3_):
        for cyc in p.cycles:
            assert cyc[0] == min(cyc)


def test_explicit_patterns_in_enumeration():
    g = c4_graph()
    parts = enumerate_partitions(g)
    for succ in (C4_P1, C4_P2, C4_P3):
        assert Partition.from_successors(g, succ) in parts


def test_from_cycles_roundtrip():
    g = c4_graph()
    p = Partition.from_successors(g, C4_P3)
    assert Partition.from_cycles(g, p.cycles) == p


def test_from_cycles_rejects_arcs_that_do_not_compose():
    # every arc of K4 exactly once, but (3, 2) does not lead back to (1, 3):
    # the listing is not a partition, and no other one may come back for it
    listing = [[(1, 3), (3, 2)], [(4, 2), (3, 1), (1, 4)],
               [(3, 4), (4, 3), (2, 1), (1, 2)], [(4, 1), (2, 3), (2, 4)]]
    with pytest.raises(ValueError, match=r"cycle arcs \(3, 2\) -> \(1, 3\) do not compose"):
        Partition.from_cycles(complete_graph(4), listing)


def test_invalid_partitions_rejected():
    g = c4_graph()
    bad = dict(C4_P1)
    bad[(1, 2)] = 1  # duplicates the image {1} at vertex 2
    with pytest.raises(ValueError):
        Partition.from_successors(g, bad)
    with pytest.raises(ValueError):
        Partition.from_successors(g, {(1, 2): 3})  # incomplete cover
    for off in (5, 0, 2):  # not a vertex, or not a neighbour of 2 (2 itself)
        message = r"^successor of \(1, 2\) is \d, not a neighbour of 2$"
        with pytest.raises(ValueError, match=message):
            Partition.from_successors(g, {**C4_P1, (1, 2): off})
    with pytest.raises(ValueError):
        # overlapping cycles: (1,2) appears twice
        Partition.from_cycles(g, [((1, 2), (2, 1)), ((1, 2), (2, 3), (3, 4), (4, 1))])


def test_random_partition_seeded_and_valid():
    g = c4_graph()
    p = random_partition(g, np.random.default_rng(11))
    q = random_partition(g, np.random.default_rng(11))
    assert p == q
    assert p in enumerate_partitions(g)


# ---------------------------------------------------------------------------
# reverse partitions
# ---------------------------------------------------------------------------


def test_reverse_is_involution_everywhere():
    for g in (c4_graph(), p3(), s3()):
        for p in enumerate_partitions(g):
            assert reverse_partition(reverse_partition(p)) == p


def test_reverse_inverts_the_successor_map():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_connected_graph(rng)
        p = random_partition(g, rng)
        r = reverse_partition(p)
        for (u, y), f in p.successors.items():
            assert r.successors[(f, y)] == u


def test_flip_flop_characterization_both_directions():
    # the reverse map returns every arc to its origin exactly when the
    # partition is the flip-flop, checked over every partition of C4 and P3
    for g in (c4_graph(), p3()):
        ff = flip_flop_partition(g)
        for p in enumerate_partitions(g):
            reversed_is_ff = reverse_partition(p) == ff
            assert reversed_is_ff == (p == ff)


def test_self_reverse_without_flip_flop():
    # all-straight on C4 inverts itself at every vertex yet is not flip-flop
    p1 = Partition.from_successors(c4_graph(), C4_P1)
    assert reverse_partition(p1) == p1
    assert not p1.is_flip_flop


# ---------------------------------------------------------------------------
# partition permutations
# ---------------------------------------------------------------------------


def test_permutation_identity_when_equal():
    g = c4_graph()
    p = Partition.from_successors(g, C4_P1)
    for j in g.vertices:
        table = partition_permutation(g, p, p, j)
        assert np.array_equal(table.matrix(g.neighbors(j)), np.eye(g.degree(j)))


def test_permutation_from_flip_flop_is_target_map():
    g = c4_graph()
    ff = flip_flop_partition(g)
    p2 = Partition.from_successors(g, C4_P2)
    for j in g.vertices:
        table = partition_permutation(g, ff, p2, j)
        for i in g.neighbors(j):
            assert table.mapping[i] == p2.successor(i, j)


def test_permutation_c4_p2_to_p1_at_vertex_2():
    g = c4_graph()
    p1 = Partition.from_successors(g, C4_P1)
    p2 = Partition.from_successors(g, C4_P2)
    table = partition_permutation(g, p2, p1, 2)
    assert table.mapping == {1: 3, 3: 1}
    m = table.matrix(g.neighbors(2))
    assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_permutation_matrices_are_permutations():
    rng = np.random.default_rng(9)
    g = s3()
    pa = random_partition(g, rng)
    pb = random_partition(g, rng)
    for j in g.vertices:
        m = partition_permutation(g, pa, pb, j).matrix(g.neighbors(j))
        assert np.array_equal(m @ m.T, np.eye(g.degree(j)))
        assert np.all((m == 0.0) | (m == 1.0))
