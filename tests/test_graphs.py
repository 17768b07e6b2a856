"""Graphs, arc spaces, line digraphs, and cycle partitions."""

import inspect
import tracemalloc

import numpy as np
import pytest

from helpers import (
    C4_P1,
    C4_P2,
    C4_P3,
    arc_order_graphs,
    c4_graph,
    mixed_degree_graph,
    partition_order_graph,
    reference_cycles,
    reference_enumerated_successors,
    reference_random_successors,
    reference_reverse_successors,
)
import qgwalk
from qgwalk import (
    Graph,
    GraphValidationError,
    Partition,
    build_arc_space,
    complete_graph,
    cycle_graph,
    enumerate_partitions,
    flip_flop_partition,
    line_digraph_adjacency,
    partition_count,
    partition_permutation,
    path_graph,
    random_connected_graph,
    random_partition,
    QuantumGraphParams,
    reverse_partition,
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
    flip_flop = flip_flop_partition(g).perm
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


@pytest.mark.parametrize("g", arc_order_graphs())
def test_the_graph_owns_one_arc_space(g):
    space = build_arc_space(g)
    assert build_arc_space(g) is space
    assert QuantumGraphParams.build(g).arc_space is space
    assert flip_flop_partition(g).arc_space is space
    assert random_partition(g, np.random.default_rng(5)).arc_space is space


def test_origin_slice_rejects_a_vertex_outside_the_graph():
    space = build_arc_space(s3())
    for v in (0, 5):
        with pytest.raises(GraphValidationError):
            space.origin_slice(v)


# ---------------------------------------------------------------------------
# line digraphs
# ---------------------------------------------------------------------------


def line_digraph_arcs(g):
    """The composable pairs (source arc, target arc) that ``line_digraph_adjacency`` marks."""
    space = build_arc_space(g)
    targets, sources = np.nonzero(line_digraph_adjacency(space))
    return {(space.arcs[s], space.arcs[t]) for t, s in zip(targets.tolist(), sources.tolist())}


def test_line_digraph_k2():
    assert build_arc_space(k2()).arcs == ((1, 2), (2, 1))
    assert line_digraph_arcs(k2()) == {((1, 2), (2, 1)), ((2, 1), (1, 2))}


def test_line_digraph_c4_out_degrees():
    g = c4_graph()
    pairs = line_digraph_arcs(g)
    assert len(pairs) == 16
    for (u, v) in build_arc_space(g).arcs:
        # composable continuations of (u, v) are exactly the arcs out of v
        assert sorted(b for a, b in pairs if a == (u, v)) == [(v, w) for w in g.neighbors(v)]


def test_line_digraph_p3_successors():
    assert {b for a, b in line_digraph_arcs(p3()) if a == (1, 2)} == {(2, 1), (2, 3)}


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
    parts = list(enumerate_partitions(graph))
    assert partition_count(graph) == expected
    assert len(parts) == expected
    keys = {frozenset(p.successors.items()) for p in parts}
    assert len(keys) == expected
    assert sum(p.is_flip_flop for p in parts) == 1


def test_enumeration_yields_the_first_partition_at_once():
    # K6 has 120^6, about 3e12, partitions; the first takes every bijection as the identity
    g = complete_graph(6)
    assert next(iter(enumerate_partitions(g))) == flip_flop_partition(g)


def test_enumeration_lists_no_vertex_bijections_ahead():
    # the centre of a 9-leaf star has 9! = 362880 bijections, tens of MiB as a list of tuples
    g = star_graph(9)
    tracemalloc.start()
    try:
        first = next(iter(enumerate_partitions(g)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == flip_flop_partition(g)
    assert peak < 2**20


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
    parts = list(enumerate_partitions(g))
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


def test_partition_errors_name_the_first_offender():
    g = c4_graph()
    cases = [
        ({a: m for a, m in C4_P1.items() if a not in ((4, 3), (2, 1))},
         r"^successor map missing arcs, e.g. \(2, 1\)$"),
        ({**C4_P1, (1, 3): 2}, "^successor map must cover exactly the arc set$"),
        ({**C4_P1, (3, 2): 2, (1, 4): 9}, r"^successor of \(1, 4\) is 9, not a neighbour of 4$"),
        ({**C4_P1, (3, 4): 3, (1, 2): 1}, "^successor map is not a bijection at vertex 2$"),
    ]
    for successors, message in cases:
        with pytest.raises(ValueError, match=message):
            Partition.from_successors(g, successors)


def _partition_sample() -> list:
    """Every partition of C4, P3, S3 and K4, and seeded random ones on the arc-order graphs."""
    rng = np.random.default_rng(1010)
    every = [p for g in (c4_graph(), p3(), s3(), complete_graph(4))
             for p in enumerate_partitions(g)]
    return every + [random_partition(g, rng) for g in arc_order_graphs() for _ in range(5)]


def test_partition_perm_is_the_successor_lookup():
    for p in _partition_sample():
        space = build_arc_space(p.graph)
        expected = [space.index_of((j, p.successor(i, j))) for i, j in space.arcs]
        assert p.perm.tolist() == expected
        assert p.arc_space is space and not p.perm.flags.writeable
        assert p.is_flip_flop == all(m == i for (i, _), m in p.successors.items())


def test_random_partition_seeded_and_valid():
    g = c4_graph()
    p = random_partition(g, np.random.default_rng(11))
    q = random_partition(g, np.random.default_rng(11))
    assert p == q
    assert p in enumerate_partitions(g)


# ---------------------------------------------------------------------------
# the builders against the successor-map references
# ---------------------------------------------------------------------------


def test_random_partition_draws_as_the_successor_map_reference():
    for g in (*arc_order_graphs(), mixed_degree_graph()):
        rng, ref_rng = np.random.default_rng(4242), np.random.default_rng(4242)
        for _ in range(4):
            p, succ = random_partition(g, rng), reference_random_successors(g, ref_rng)
            assert dict(p.successors) == succ
            assert p == Partition.from_successors(g, succ)
        assert rng.random() == ref_rng.random()  # the same draws were taken


@pytest.mark.parametrize("graph", [c4_graph(), p3(), s3(), complete_graph(4),
                                   partition_order_graph()])
def test_enumeration_order_is_the_successor_map_reference(graph):
    expected = reference_enumerated_successors(graph)
    assert [dict(p.successors) for p in enumerate_partitions(graph)] == expected
    assert len(expected) == partition_count(graph)


def test_reverse_cycles_and_successors_match_the_references():
    rng = np.random.default_rng(31)
    sample = _partition_sample() + [random_partition(g, rng)
                                    for g in (mixed_degree_graph(), partition_order_graph())]
    for p in sample:
        space, succ = build_arc_space(p.graph), dict(p.successors)
        assert succ == {a: space.arcs[c][1] for a, c in zip(space.arcs, p.perm.tolist())}
        assert dict(reverse_partition(p).successors) == reference_reverse_successors(p.graph, succ)
        assert p.cycles == reference_cycles(succ)


# ---------------------------------------------------------------------------
# a partition is its arc permutation
# ---------------------------------------------------------------------------


def test_partition_rejects_a_perm_that_is_no_partition():
    g = c4_graph()
    ff = build_arc_space(g).reverse.tolist()  # arcs (1,2) (1,4) (2,1) (2,3) (3,2) (3,4) (4,1) (4,3)

    def changed(at: dict) -> list:
        return [at.get(c, value) for c, value in enumerate(ff)]

    cases = [
        (ff[:-1], r"^perm has shape \(7,\), expected \(8,\)$"),
        (ff + [0], r"^perm has shape \(9,\), expected \(8,\)$"),
        (changed({3: 8, 5: 9}), r"^perm sends \(2, 3\) to 8, not in 0\.\.7$"),
        (changed({3: -1}), r"^perm sends \(2, 3\) to -1, not in 0\.\.7$"),
        (changed({0: 4, 5: 0}), r"^perm sends \(1, 2\) to \(3, 2\), which does not leave 2$"),
        (changed({4: 2}), "^successor map is not a bijection at vertex 2$"),
        (changed({1: 7}), "^successor map is not a bijection at vertex 4$"),
    ]
    for perm, message in cases:
        with pytest.raises(ValueError, match=message):
            Partition(g, perm)
    with pytest.raises(TypeError):
        Partition(g, np.array(ff, dtype=float))  # not truncated to integers
    assert Partition(g, ff) == flip_flop_partition(g)


def test_partition_owns_a_read_only_perm_and_read_only_views():
    g = c4_graph()
    raw = build_arc_space(g).reverse.copy()
    p = Partition(g, raw)
    raw[:] = 0  # the partition holds its own copy
    assert p == flip_flop_partition(g) and p.is_flip_flop
    with pytest.raises(ValueError, match="read-only"):
        p.perm[0] = 1
    with pytest.raises(TypeError):
        p.successors[(1, 2)] = 3
    with pytest.raises(ValueError, match="read-only"):
        p.inverse[0] = 1
    with pytest.raises(TypeError):
        hash(p)
    assert p != Partition.from_successors(g, C4_P1) and p != g


def test_partition_views_follow_arc_order():
    for p in _partition_sample():
        arange = np.arange(p.perm.size)
        assert list(p.successors) == list(p.arc_space.arcs)
        assert np.array_equal(p.inverse[p.perm], arange)
        assert np.array_equal(p.perm[p.inverse], arange)


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
        table = partition_permutation(p, p, j)
        assert np.array_equal(table.matrix(g.neighbors(j)), np.eye(g.degree(j)))


def test_permutation_from_flip_flop_is_target_map():
    g = c4_graph()
    ff = flip_flop_partition(g)
    p2 = Partition.from_successors(g, C4_P2)
    for j in g.vertices:
        table = partition_permutation(ff, p2, j)
        for i in g.neighbors(j):
            assert table.mapping[i] == p2.successor(i, j)


def test_permutation_c4_p2_to_p1_at_vertex_2():
    g = c4_graph()
    p1 = Partition.from_successors(g, C4_P1)
    p2 = Partition.from_successors(g, C4_P2)
    table = partition_permutation(p2, p1, 2)
    assert table.mapping == {1: 3, 3: 1}
    m = table.matrix(g.neighbors(2))
    assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_permutation_matrices_are_permutations():
    rng = np.random.default_rng(9)
    g = s3()
    pa = random_partition(g, rng)
    pb = random_partition(g, rng)
    for j in g.vertices:
        m = partition_permutation(pa, pb, j).matrix(g.neighbors(j))
        assert np.array_equal(m @ m.T, np.eye(g.degree(j)))
        assert np.all((m == 0.0) | (m == 1.0))


def test_permutation_rejects_partitions_of_two_graphs():
    # the 4-leaf star has C4's arc count
    with pytest.raises(ValueError, match="different graphs"):
        partition_permutation(flip_flop_partition(c4_graph()), flip_flop_partition(star_graph(4)), 1)


# ---------------------------------------------------------------------------
# arguments carry their graph
# ---------------------------------------------------------------------------

# the types that hold a graph and its arc space (annotations are strings here)
GRAPH_CARRIERS = {"Partition", "QuantumGraphParams", "TransitionMatrix", "EvolutionOperator",
                  "StationaryVector", "EigenfunctionSample"}


def test_no_function_takes_a_graph_that_another_argument_holds():
    carrying, offenders = [], []
    for name in dir(qgwalk):
        fn = getattr(qgwalk, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        annotations = {p.annotation for p in inspect.signature(fn).parameters.values()}
        if annotations & GRAPH_CARRIERS:
            carrying.append(name)
            if annotations & {"Graph", "ArcSpace"}:
                offenders.append(name)
    assert offenders == []
    assert {"evolution", "scan_roots", "szegedy_spectrum", "sample_eigenfunction"} <= set(carrying)
