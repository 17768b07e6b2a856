"""Coin families: reflection coins, metric-graph coins, projector coins."""

import math

import numpy as np
import pytest

from helpers import c4_graph, generic_params, metric_cases, random_weights
from qgwalk import (
    DIRICHLET,
    Graph,
    QuantumGraphParams,
    TransitionMatrix,
    VertexWeights,
    boundary_phase,
    build_arc_space,
    grover_coin,
    grover_coins,
    path_graph,
    projector_coins,
    quantum_graph_coins,
    random_connected_graph,
    random_reversible_transition,
    star_graph,
    szegedy_coins,
    unitarity_defect,
)
from qgwalk.coins import _metric_coin_sets, _vertex_cores


# ---------------------------------------------------------------------------
# Grover coins
# ---------------------------------------------------------------------------


def test_grover_small_dimensions():
    assert np.array_equal(grover_coin(1), np.array([[1.0]]))
    assert np.array_equal(grover_coin(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    g3 = grover_coin(3)
    assert np.allclose(np.diag(g3), -1.0 / 3.0, atol=1e-15, rtol=0.0)
    assert abs(g3[0, 1] - 2.0 / 3.0) <= 1e-15


def test_grover_rejects_zero_dimension():
    with pytest.raises(ValueError):
        grover_coin(0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_grover_is_a_real_symmetric_reflection(d):
    h = grover_coin(d)
    assert np.array_equal(h, h.T)
    assert np.abs(h @ h - np.eye(d)).max() <= 1e-14


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def test_uniform_transition_rows():
    g = star_graph(3)
    t = TransitionMatrix.uniform(g)
    assert t.entry(1, 2) == pytest.approx(1.0 / 3.0)
    assert t.entry(2, 1) == 1.0
    assert t.entry(2, 3) == 0.0


def test_transition_validation():
    g = path_graph(3)
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    m[1, 0], m[1, 2] = 0.6, 0.3  # row sums to 0.9
    m[2, 1] = 1.0
    with pytest.raises(ValueError):
        TransitionMatrix(g, m)
    m[1, 2] = 0.4
    TransitionMatrix(g, m)  # now valid
    bad = m.copy()
    bad[0, 2] = 0.1  # support off the edge set
    bad[0, 1] = 0.9
    with pytest.raises(ValueError):
        TransitionMatrix(g, bad)
    zero = m.copy()
    zero[1, 0], zero[1, 2] = 0.0, 1.0  # vanishing on a real arc
    with pytest.raises(ValueError):
        TransitionMatrix(g, zero)


def _first_support_offender(g, m):
    """Reference for TransitionMatrix's support check: the plain n^2 loop."""
    for u in g.vertices:
        for v in g.vertices:
            on_arc = g.has_edge(u, v)
            val = m[u - 1, v - 1]
            if on_arc and val <= 0.0:
                return f"transition {u}->{v} must be positive on an edge"
            if not on_arc and val != 0.0:
                return f"transition {u}->{v} must be zero off the edge set"
    return None


def test_transition_support_errors_name_the_first_offender():
    g = c4_graph()  # edges 1-2, 2-3, 3-4, 1-4
    m = TransitionMatrix.uniform(g).matrix.copy()
    off = m.copy()
    off[0] = [0.0, 0.5, 0.25, 0.25]  # 1->3 is not an edge
    with pytest.raises(ValueError, match=r"^transition 1->3 must be zero off the edge set$"):
        TransitionMatrix(g, off)
    zero = m.copy()
    zero[2] = [0.0, 1.0, 0.0, 0.0]  # 3->4 is an edge
    with pytest.raises(ValueError, match=r"^transition 3->4 must be positive on an edge$"):
        TransitionMatrix(g, zero)
    both = m.copy()
    both[1] = [0.0, 0.0, 0.5, 0.5]  # 2->1 vanishes on an edge before 2->4 leaves it
    both[2] = [0.5, 0.5, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"^transition 2->1 must be positive on an edge$"):
        TransitionMatrix(g, both)


def test_transition_rejects_nan():
    g = path_graph(3)
    m = np.array([[0.0, 1.0, 0.0], [np.nan, 0.0, 0.5], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        TransitionMatrix(g, m)


def test_transition_support_check_matches_the_loop_reference():
    rng = np.random.default_rng(21)
    for _ in range(40):
        g = random_connected_graph(rng)
        n = g.vertex_count
        m = random_reversible_transition(g, rng).matrix.copy()
        # move mass within one row onto or off the support, keeping rows stochastic
        for _ in range(rng.integers(1, 3)):
            u, a, b = rng.integers(n), rng.integers(n), rng.integers(n)
            moved = m[u, a]
            m[u, a] -= moved
            m[u, b] += moved
        expected = _first_support_offender(g, m)
        if expected is None:
            TransitionMatrix(g, m)
        else:
            with pytest.raises(ValueError) as err:
                TransitionMatrix(g, m)
            assert str(err.value) == expected


def test_random_reversible_transition_valid_and_seeded():
    g = c4_graph()
    t1 = random_reversible_transition(g, np.random.default_rng(3))
    t2 = random_reversible_transition(g, np.random.default_rng(3))
    assert np.array_equal(t1.matrix, t2.matrix)
    assert np.allclose(t1.matrix.sum(axis=1), 1.0, atol=1e-12, rtol=0.0)


# ---------------------------------------------------------------------------
# Szegedy coins
# ---------------------------------------------------------------------------


def test_szegedy_uniform_equals_grover():
    g = c4_graph()
    coins = szegedy_coins(TransitionMatrix.uniform(g))
    for v in g.vertices:
        assert np.array_equal(coins.block(v), grover_coin(2).astype(complex))


def test_szegedy_quarter_three_quarter_block():
    # center of a path with transition (1/4, 3/4): entries 2 sqrt(p_l p_m) - delta
    g = path_graph(3)
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    m[1, 0], m[1, 2] = 0.25, 0.75
    m[2, 1] = 1.0
    coins = szegedy_coins(TransitionMatrix(g, m))
    expected = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.abs(coins.block(2) - expected).max() <= 1e-15
    assert np.array_equal(coins.block(1), np.array([[1.0 + 0.0j]]))


def test_szegedy_blocks_are_reflections():
    g = star_graph(4)
    coins = szegedy_coins(random_reversible_transition(g, np.random.default_rng(5)))
    for v in g.vertices:
        h = coins.block(v)
        assert np.abs(h @ h - np.eye(h.shape[0])).max() <= 1e-12
        assert np.abs(h - h.conj().T).max() <= 1e-12


# ---------------------------------------------------------------------------
# metric-graph parameters
# ---------------------------------------------------------------------------


def test_params_broadcast_and_lookup():
    g = c4_graph()
    q = QuantumGraphParams.build(g, lengths=2.0, lambdas=0.5, potentials=0.25)
    assert q.length(3, 2) == 2.0
    assert q.lam(4) == 0.5
    assert q.arc_potential(1, 2) == 0.25
    assert q.arc_potential(2, 1) == -0.25


def test_params_reversed_edge_keys():
    g = path_graph(3)
    q = QuantumGraphParams.build(
        g, lengths={(2, 1): 1.5, (2, 3): 0.5},
        potentials={(2, 1): 0.3, (2, 3): 0.1})
    assert q.length(1, 2) == 1.5
    # a potential stated for (2, 1) means -0.3 along the canonical (1, 2)
    assert q.arc_potential(2, 1) == 0.3
    assert q.arc_potential(1, 2) == -0.3
    assert q.arc_potential(2, 3) == 0.1


def test_params_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        QuantumGraphParams.build(g, lengths=-1.0)
    with pytest.raises(ValueError):
        QuantumGraphParams.build(g, lengths=math.inf)
    with pytest.raises(ValueError):
        QuantumGraphParams.build(g, lambdas=-0.5)
    with pytest.raises(ValueError):
        QuantumGraphParams.build(g, potentials=math.nan)
    with pytest.raises(ValueError):
        QuantumGraphParams.build(g, lengths={(1, 2): 1.0})  # missing edge
    QuantumGraphParams.build(g, lengths=0.0)  # allowed for limiting checks
    QuantumGraphParams.build(g, lambdas=DIRICHLET)


@pytest.mark.parametrize("field", ["lengths", "potentials"])
def test_an_edge_keyed_in_both_orientations_is_rejected(field):
    g = path_graph(3)
    with pytest.raises(ValueError, match=r"edge \(1, 2\) is given twice"):
        QuantumGraphParams.build(g, **{field: {(1, 2): 1.0, (2, 1): 2.0, (2, 3): 1.0}})


def _param_cases():
    star, k4 = (g for g, _ in metric_cases())
    return [
        *metric_cases(),
        # potentials keyed against the canonical direction, one of them zero
        (star, QuantumGraphParams.build(
            star, lengths={(2, 1): 0.7, (1, 3): 1.1, (4, 1): 2.0},
            potentials={(2, 1): 0.4, (3, 1): 0.0, (4, 1): -1.25})),
        (k4, QuantumGraphParams.build(k4, lengths=0.0, potentials=0.3)),
    ]


@pytest.mark.parametrize("g,q", _param_cases())
def test_per_arc_arrays_equal_the_accessors_exactly(g, q):
    arcs = build_arc_space(g).arcs
    lengths = np.array([q.length(u, v) for u, v in arcs])
    potentials = np.array([q.arc_potential(u, v) for u, v in arcs])
    # bytes, so that a -0.0 against a 0.0 would count as a difference
    assert q.arc_lengths.tobytes() == lengths.tobytes()
    assert q.arc_potentials.tobytes() == potentials.tobytes()
    assert not q.arc_lengths.flags.writeable and not q.arc_potentials.flags.writeable
    for k in (0.3, 1.7, 9.25):
        scalar = np.array([np.exp(1j * q.length(u, v) * (k - q.arc_potential(u, v)))
                           for u, v in arcs])
        assert q.propagation_phases(k).tobytes() == scalar.tobytes()


def test_dirichlet_sentinel_is_infinity():
    assert DIRICHLET == math.inf


# ---------------------------------------------------------------------------
# metric-graph coins
# ---------------------------------------------------------------------------


def test_metric_coins_zero_length_zero_coupling_is_grover_exactly():
    g = star_graph(3)
    q = QuantumGraphParams.build(g, lengths=0.0)
    coins = quantum_graph_coins(q, 2.2)
    for v in g.vertices:
        assert np.abs(coins.block(v) - grover_coin(g.degree(v))).max() == 0.0


def test_metric_coin_degree_one_is_a_pure_phase():
    g = Graph.from_edges(2, [(1, 2)])
    q = QuantumGraphParams.build(g, lengths=0.7)
    coins = quantum_graph_coins(q, 3.0)
    assert abs(coins.block(1)[0, 0] - np.exp(1j * 0.7 * 3.0)) <= 1e-15


def test_dirichlet_coin_is_negated_phase_diagonal():
    g = star_graph(3)
    q = QuantumGraphParams.build(g, lengths={(1, 2): 1.0, (1, 3): 0.4, (1, 4): 2.0},
                                 lambdas=DIRICHLET)
    k = 1.9
    coins = quantum_graph_coins(q, k)
    phases = np.exp(1j * k * np.array([1.0, 0.4, 2.0]))
    assert np.abs(coins.block(1) + np.diag(phases)).max() <= 1e-15


def test_metric_coin_phase_sits_on_the_row_index():
    # row m of the center block carries the phase of edge {center, m},
    # whatever the column
    g = star_graph(3)
    lengths = {(1, 2): 1.0, (1, 3): 0.4, (1, 4): 2.0}
    potentials = {(1, 2): 0.2, (1, 3): -0.5, (1, 4): 0.0}
    q = QuantumGraphParams.build(g, lengths, 0.8, potentials)
    k = 1.1
    h = quantum_graph_coins(q, k).block(1)
    core = 2.0 / (3.0 + 1j * 0.8 / k) * np.ones((3, 3)) - np.eye(3)
    for row, m in enumerate((2, 3, 4)):
        phase = np.exp(1j * q.length(1, m) * (k - q.arc_potential(1, m)))
        assert np.abs(h[row] - phase * core[row]).max() <= 1e-14


def test_metric_coin_is_the_phased_scattering_block_exactly():
    # block j = diag(arc phases) sigma_j(k), sigma_j = (2 / (d + i lam/k)) J - I
    # and -I at a Dirichlet vertex, entry for entry
    for g, q in metric_cases():
        for k in (0.9, 2.7):
            coins = quantum_graph_coins(q, k)
            for j in g.vertices:
                d, lam = g.degree(j), q.lam(j)
                phases = np.array([np.exp(1j * q.length(j, m) * (k - q.arc_potential(j, m)))
                                   for m in g.neighbors(j)])
                if lam == DIRICHLET:
                    sigma = -np.eye(d)
                else:
                    sigma = 2.0 / (d + 1j * lam / k) * np.ones((d, d)) - np.eye(d)
                assert np.array_equal(coins.block(j), phases[:, None] * sigma)


def _per_vertex_blocks(q, w, k, j):
    """The metric and projector blocks at j by the scalar per-vertex formulas,
    and their phase-free cores."""
    d, lam, a = q.graph.degree(j), q.lam(j), w.vector(j)
    phases = q.propagation_phases(k)[q.arc_space.origin_slice(j)][:, None]
    if lam == DIRICHLET:
        sigma = core = -np.eye(d, dtype=complex)
    else:
        coeff = 2.0 / d if lam == 0.0 else 2.0 / (d + 1j * lam / k)
        sigma = coeff * np.ones((d, d)) - np.eye(d)
        core = ((1.0 + np.exp(-1j * boundary_phase(lam, d, k)))
                * np.outer(a, a.conj()) - np.eye(d))
    return phases * sigma, phases * core, sigma, core


def test_coin_stacks_keep_the_bits_of_the_per_vertex_blocks():
    # each degree stack is built at once from per-vertex scalar coefficients;
    # every block keeps the per-vertex formula's bits, a Dirichlet -I's signed zeros too
    rng = np.random.default_rng(16)
    for g, q in metric_cases():
        w = random_weights(g, rng)
        for k in (0.9, np.float64(2.7)):
            metric, projector = quantum_graph_coins(q, k), projector_coins(q, w, k)
            for j in g.vertices:
                sigma, core, _, _ = _per_vertex_blocks(q, w, k, j)
                assert metric.block(j).tobytes() == sigma.tobytes()
                assert projector.block(j).tobytes() == core.tobytes()


def _batched_coin_cases():
    star = star_graph(4)
    kirchhoff = QuantumGraphParams.build(
        star, lengths={(1, 2): 1.3, (1, 3): 0.6, (1, 4): 2.1, (1, 5): 0.9},
        potentials={(1, 2): 0.25, (1, 3): -0.4, (1, 4): 0.0, (1, 5): 1.1})
    return [*metric_cases(), (star, kirchhoff)]


@pytest.mark.parametrize("case", range(3), ids=["star", "k4", "kirchhoff_star"])
def test_batched_coin_stacks_keep_the_bits_at_every_k(case):
    # one _metric_coin_sets call over many k: every block at every k is the
    # per-vertex formula's, with the k-free cores taken by the call, held by the
    # parameters from an earlier call, and, weighted, never read from them
    g, q = _batched_coin_cases()[case]
    w = random_weights(g, np.random.default_rng(19 + case))
    ks = np.array([0.37, 0.9, 2.7, 11.5, 0.9])
    blocks = q.arc_space.degree_blocks
    assert "k_free_cores" not in vars(q)
    for weights in (None, None, w):  # the weighted call comes after the cores are held
        sets = _metric_coin_sets(q, ks, weights)
        assert len(sets) == ks.size
        for k, coins in zip(ks.tolist(), sets):
            for (vs, arcs), (coin_vs, hs) in zip(blocks, coins.stacks, strict=True):
                assert np.array_equal(coin_vs, vs) and not hs.flags.owndata  # a batch view
                assert hs.shape == (vs.size, arcs.shape[1], arcs.shape[1])
                for j, h in zip(vs.tolist(), hs):
                    sigma, core, _, _ = _per_vertex_blocks(q, w, k, j)
                    assert h.tobytes() == (sigma if weights is None else core).tobytes()
        held = q.k_free_cores
        assert [c is None for c in held] == [
            any(q.lam(j) not in (0.0, DIRICHLET) for j in vs.tolist()) for vs, _ in blocks]
        assert not any(c.flags.writeable for c in held if c is not None)
    if case == 2:  # Neumann: every stack's unweighted cores are held
        assert all(c is not None for c in q.k_free_cores)
    for weights in (None, w):
        for vs, arcs in blocks:
            cores = _vertex_cores(q, ks, vs, arcs, weights)
            for k, stack in zip(ks.tolist(), cores):
                for j, h in zip(vs.tolist(), stack):
                    *_, sigma, core = _per_vertex_blocks(q, w, k, j)
                    assert h.tobytes() == np.asarray(sigma if weights is None else core,
                                                     dtype=complex).tobytes()


def test_a_dirichlet_core_beside_a_coupled_vertex_keeps_its_signed_zeros():
    # the star's degree-1 stack holds leaves with couplings 0, 2.5 and DIRICHLET
    g, q = metric_cases()[0]
    vs, arcs = q.arc_space.degree_blocks[0]
    assert sorted(q.lam(j) for j in vs.tolist()) == [0.0, 2.5, DIRICHLET]
    ks = np.array([0.5, 1.5, 4.0])
    dirichlet = vs.tolist().index(4)
    for weights in (None, random_weights(g, np.random.default_rng(23))):
        cores = _vertex_cores(q, ks, vs, arcs, weights)[:, dirichlet]
        assert cores.tobytes() == np.stack([-np.eye(1, dtype=complex)] * ks.size).tobytes()
        assert np.signbit(cores.imag).all()


def test_metric_coins_unitary_across_parameter_sweep():
    rng = np.random.default_rng(8)
    g = star_graph(3)
    for k in (0.1, 1.0, 10.0):
        for lam in (0.0, 1.0, 10.0, DIRICHLET):
            lengths = {e: float(rng.uniform(0.05, 5.0)) for e in g.edges}
            potentials = {e: float(rng.uniform(-2.0, 2.0)) for e in g.edges}
            q = QuantumGraphParams.build(g, lengths, lam, potentials)
            coins = quantum_graph_coins(q, k)
            for v in g.vertices:
                assert unitarity_defect(coins.block(v)) <= 1e-12


def test_metric_coins_reject_bad_wavenumber():
    g = path_graph(3)
    q = QuantumGraphParams.build(g)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            quantum_graph_coins(q, bad)


# ---------------------------------------------------------------------------
# boundary phase
# ---------------------------------------------------------------------------


def test_boundary_phase_limits():
    assert boundary_phase(0.0, 3, 2.0) == 0.0
    assert boundary_phase(DIRICHLET, 3, 2.0) == math.pi
    assert abs(boundary_phase(2.0 * 3.0, 3, 2.0) - math.pi / 2.0) <= 1e-15


def test_boundary_phase_matches_its_defining_quotient():
    for lam in (0.0, 0.3, 2.0, 50.0):
        for d in (1, 2, 5):
            for k in (0.2, 1.0, 7.0):
                rho = boundary_phase(lam, d, k)
                assert -math.pi < rho <= math.pi
                ratio = lam / (k * d)
                quotient = (1.0 + 1j * ratio) / (1.0 - 1j * ratio)
                assert abs(np.exp(1j * rho) - quotient) <= 1e-12
                # same chain ties the phase to the scattering coefficient
                lhs = (1.0 + np.exp(-1j * rho)) / d
                rhs = 2.0 / (d + 1j * lam / k)
                assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# projector coins
# ---------------------------------------------------------------------------


def test_projector_uniform_weights_reproduce_metric_coins():
    rng = np.random.default_rng(12)
    g = star_graph(3)
    q = generic_params(g, rng, dirichlet=True)
    k = 1.7
    uniform = VertexWeights.uniform(g)
    a = projector_coins(q, uniform, k)
    b = quantum_graph_coins(q, k)
    for v in g.vertices:
        assert np.abs(a.block(v) - b.block(v)).max() <= 1e-12


def test_projector_real_weights_zero_length_reproduce_szegedy():
    g = c4_graph()
    t = random_reversible_transition(g, np.random.default_rng(14))
    vectors = {v: np.sqrt(t.matrix[v - 1][[w - 1 for w in g.neighbors(v)]])
               for v in g.vertices}
    weights = VertexWeights(g, vectors)
    q = QuantumGraphParams.build(g, lengths=0.0)
    a = projector_coins(q, weights, 2.3)
    b = szegedy_coins(t)
    for v in g.vertices:
        assert np.abs(a.block(v) - b.block(v)).max() <= 1e-12


def test_projector_degree_one_is_a_pure_phase():
    g = Graph.from_edges(2, [(1, 2)])
    q = QuantumGraphParams.build(g, lengths=1.2)
    weights = VertexWeights(g, {1: np.array([1.0]), 2: np.array([1.0])})
    coins = projector_coins(q, weights, 0.9)
    assert abs(coins.block(1)[0, 0] - np.exp(1j * 1.2 * 0.9)) <= 1e-14


def test_projector_blocks_unitary_with_random_weights():
    rng = np.random.default_rng(15)
    g = star_graph(4)
    q = generic_params(g, rng, dirichlet=True)
    coins = projector_coins(q, random_weights(g, rng), 0.6)
    for v in g.vertices:
        assert unitarity_defect(coins.block(v)) <= 1e-12


def test_vertex_weights_must_be_unit():
    g = path_graph(3)
    with pytest.raises(ValueError):
        VertexWeights(g, {1: np.array([1.0]), 2: np.array([1.0, 1.0]),
                          3: np.array([1.0])})
