"""Spectral mapping from classical transition data to the reflection walk."""

import math

import numpy as np
import pytest

from helpers import arc_order_graphs, c4_graph
from qgwalk import (
    Graph,
    QuantumGraphParams,
    TransitionMatrix,
    VertexWeights,
    build_arc_space,
    compare_spectra,
    complete_graph,
    cycle_graph,
    direct_spectrum,
    discriminant_matrix,
    evolution,
    flip_flop_partition,
    identity_coins,
    lift_map,
    path_graph,
    random_connected_graph,
    random_reversible_transition,
    random_unitary_coins,
    reduced_secular_determinant,
    shift_operator,
    star_graph,
    szegedy_spectrum,
    szegedy_walk,
)
from qgwalk.szegedy import _lift


# ---------------------------------------------------------------------------
# discriminant matrix
# ---------------------------------------------------------------------------


def test_uniform_c4_discriminant_is_the_transition_matrix():
    g = c4_graph()
    t = TransitionMatrix.uniform(g)
    d = discriminant_matrix(t)
    assert np.array_equal(d, t.matrix)
    eig = np.sort(np.linalg.eigvalsh(d))
    assert np.allclose(eig, [-1.0, 0.0, 0.0, 1.0], atol=1e-12, rtol=0.0)


def test_k2_discriminant():
    g = Graph.from_edges(2, [(1, 2)])
    d = discriminant_matrix(TransitionMatrix.uniform(g))
    assert np.array_equal(d, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_symmetric_transition_keeps_its_entries():
    g = path_graph(3)
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    m[1, 0] = m[1, 2] = 0.5
    m[2, 1] = 1.0
    d = discriminant_matrix(TransitionMatrix(g, m))
    assert np.abs(d - np.sqrt(m * m.T)).max() == 0.0
    assert np.array_equal(d, d.T)


def test_discriminant_symmetric_for_random_reversible():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = random_connected_graph(rng)
        d = discriminant_matrix(random_reversible_transition(g, rng))
        assert np.abs(d - d.T).max() <= 1e-15


# ---------------------------------------------------------------------------
# lift map and walk assembly
# ---------------------------------------------------------------------------


def test_lift_map_is_an_isometry():
    rng = np.random.default_rng(4)
    g = star_graph(3)
    t = random_reversible_transition(g, rng)
    a = lift_map(t)
    assert np.abs(a.conj().T @ a - np.eye(g.vertex_count)).max() <= 1e-14


@pytest.mark.parametrize("g", arc_order_graphs())
def test_lift_map_equals_the_per_arc_loop(g):
    t = random_reversible_transition(g, np.random.default_rng(g.vertex_count))
    space = build_arc_space(g)
    reference = np.zeros((space.size, g.vertex_count))
    for j in g.vertices:
        for l in g.neighbors(j):
            reference[space.index_of((j, l)), j - 1] = np.sqrt(t.entry(j, l))
    a = lift_map(t)
    assert a.dtype == reference.dtype and np.array_equal(a, reference)


@pytest.mark.parametrize("g", [complete_graph(30), cycle_graph(500), *arc_order_graphs()])
def test_the_gathered_lift_equals_the_dense_product(g):
    t = random_reversible_transition(g, np.random.default_rng(g.vertex_count))
    vecs = np.linalg.eigh(discriminant_matrix(t))[1]
    lifted = _lift(t, vecs)
    # one nonzero per row of lift_map: the product adds only zeros, whose signs may differ
    assert lifted.dtype == vecs.dtype and np.array_equal(lifted, lift_map(t) @ vecs)


def test_lift_map_conjugation_recovers_the_discriminant():
    rng = np.random.default_rng(5)
    g = c4_graph()
    t = random_reversible_transition(g, rng)
    a = lift_map(t)
    s = shift_operator(flip_flop_partition(g))
    d = a.conj().T @ s @ a
    assert np.abs(d - discriminant_matrix(t)).max() <= 1e-14


def test_walk_is_shift_times_reflection_about_the_lift():
    # U = S (2 A A^dag - I), assembled here from raw pieces
    rng = np.random.default_rng(6)
    for g in (c4_graph(), star_graph(3), complete_graph(4)):
        t = random_reversible_transition(g, rng)
        space = build_arc_space(g)
        a = lift_map(t)
        s = shift_operator(flip_flop_partition(g))
        direct = s @ (2.0 * a @ a.conj().T - np.eye(space.size))
        op = szegedy_walk(t)
        assert op.kind == "A"
        assert np.abs(op.matrix - direct).max() <= 1e-13


# ---------------------------------------------------------------------------
# predicted spectra
# ---------------------------------------------------------------------------


def test_c4_uniform_spectrum_is_the_eighth_roots_pattern():
    g = c4_graph()
    t = TransitionMatrix.uniform(g)
    result = szegedy_spectrum(t)
    assert result.case == "unicyclic"
    expected = np.sort_complex(np.array([1, 1, -1, -1, 1j, 1j, -1j, -1j], dtype=complex))
    assert np.abs(np.sort_complex(np.round(result.eigenvalues, 9)) - expected).max() <= 1e-8
    match = compare_spectra(result.eigenvalues, direct_spectrum(szegedy_walk(t)))
    assert match.ok and match.max_angle_error <= 1e-8


def test_tree_case_star():
    g = star_graph(3)
    t = TransitionMatrix.uniform(g)
    result = szegedy_spectrum(t)
    assert result.case == "tree"
    assert len(result.eigenvalues) == 6
    match = compare_spectra(result.eigenvalues, direct_spectrum(szegedy_walk(t)))
    assert match.ok


def test_general_case_k4_adds_leftover_reflection_pairs():
    g = complete_graph(4)
    t = TransitionMatrix.uniform(g)
    result = szegedy_spectrum(t)
    assert result.case == "general"
    assert len(result.eigenvalues) == 12
    ones = np.sum(np.abs(result.eigenvalues - 1.0) <= 1e-9)
    minus = np.sum(np.abs(result.eigenvalues + 1.0) <= 1e-9)
    # two leftover +1 and two leftover -1 beyond the mapped nu = +/-1 images
    assert ones >= 2 and minus >= 2
    match = compare_spectra(result.eigenvalues, direct_spectrum(szegedy_walk(t)))
    assert match.ok


@pytest.mark.parametrize("make_graph", [
    lambda: path_graph(3), lambda: star_graph(3), lambda: cycle_graph(3),
    lambda: cycle_graph(5), lambda: cycle_graph(6), lambda: complete_graph(4)])
@pytest.mark.parametrize("uniform", [True, False])
def test_prediction_matches_direct_diagonalization(make_graph, uniform):
    g = make_graph()
    space = build_arc_space(g)
    t = (TransitionMatrix.uniform(g) if uniform
         else random_reversible_transition(g, np.random.default_rng(11)))
    result = szegedy_spectrum(t)
    assert len(result.eigenvalues) == space.size
    assert np.abs(np.abs(result.eigenvalues) - 1.0).max() <= 1e-10
    match = compare_spectra(result.eigenvalues, direct_spectrum(szegedy_walk(t)))
    assert match.ok and match.max_angle_error <= 1e-8


def test_random_graph_sweep():
    rng = np.random.default_rng(13)
    for _ in range(6):
        g = random_connected_graph(rng)
        t = random_reversible_transition(g, rng)
        result = szegedy_spectrum(t)
        match = compare_spectra(result.eigenvalues, direct_spectrum(szegedy_walk(t)))
        assert match.ok and match.max_angle_error <= 1e-8


def test_konno_sato_ties_the_walk_to_its_discriminant_and_the_reduced_determinant():
    """det(I - z U) three ways: directly; as (1 - z^2)^extra det((1 + z^2) I - 2 z T),
    extra = |E| - |V| and T the discriminant (Konno & Sato); and as the metric
    graph's reduced determinant at lengths 2 pi, k = 1, lambda = 0 and weights
    sqrt(p(j, .)), whose coins are then the walk's reflections."""
    rng = np.random.default_rng(19)
    graphs = [complete_graph(4), cycle_graph(5), star_graph(3), path_graph(4), complete_graph(6),
              *(random_connected_graph(rng, 3, 7) for _ in range(3))]
    for seed, g in enumerate(graphs):
        t = random_reversible_transition(g, np.random.default_rng(seed))
        u = szegedy_walk(t).matrix
        n, extra = g.vertex_count, len(g.edges) - g.vertex_count
        q = QuantumGraphParams.build(g, lengths=2.0 * math.pi)
        w = VertexWeights(g, {j: np.sqrt([t.entry(j, l) for l in g.neighbors(j)])
                              for j in g.vertices})
        for z in (0.3 + 0.2j, -0.5 + 0.4j, 0.7 - 0.6j, 1.1 + 0.9j):
            direct = np.linalg.det(np.eye(u.shape[0]) - z * u)
            vertex_form = (1.0 - z * z) ** extra * np.linalg.det(
                (1.0 + z * z) * np.eye(n) - 2.0 * z * discriminant_matrix(t))
            reduced = reduced_secular_determinant(q, 1.0, z, w)
            assert abs(vertex_form - direct) <= 1e-13 * abs(direct)
            assert abs(reduced - direct) <= 1e-13 * abs(direct)


def test_genuine_lifts_satisfy_the_eigenvalue_equation():
    rng = np.random.default_rng(17)
    g = complete_graph(4)
    t = random_reversible_transition(g, rng)
    u = szegedy_walk(t).matrix
    result = szegedy_spectrum(t)
    genuine = [lift for lift in result.lifts if lift.genuine]
    assert genuine
    for lift in genuine:
        assert abs(np.linalg.norm(lift.vector) - 1.0) <= 1e-12
        assert np.linalg.norm(u @ lift.vector - lift.eigenvalue * lift.vector) <= 1e-8
        assert lift.residual <= 1e-8


FAST_PATH_GRAPHS = {
    "tree": lambda: star_graph(4),
    "unicyclic": lambda: cycle_graph(7),
    "general": lambda: complete_graph(5),
}


@pytest.mark.parametrize("case", sorted(FAST_PATH_GRAPHS))
def test_lift_residuals_from_apply_match_the_dense_walk(case):
    rng = np.random.default_rng(19)
    g = FAST_PATH_GRAPHS[case]()
    t = random_reversible_transition(g, rng)
    u = szegedy_walk(t).matrix
    result = szegedy_spectrum(t)
    assert result.case == case
    genuine = [lift for lift in result.lifts if lift.genuine]
    assert genuine
    for lift in genuine:
        dense = np.linalg.norm(u @ lift.vector - lift.eigenvalue * lift.vector)
        assert abs(lift.residual - dense) <= 1e-13


def _spy_on_eigvals(monkeypatch) -> list:
    dtypes = []
    eigvals = np.linalg.eigvals

    def spy(a):
        dtypes.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    return dtypes


@pytest.mark.parametrize("case", sorted(FAST_PATH_GRAPHS))
def test_real_walk_oracle_runs_real_and_matches_the_complex_solve(monkeypatch, case):
    g = FAST_PATH_GRAPHS[case]()
    op = szegedy_walk(random_reversible_transition(g, np.random.default_rng(23)))
    complex_vals = np.linalg.eigvals(op.matrix)
    dtypes = _spy_on_eigvals(monkeypatch)
    real_vals = direct_spectrum(op)
    assert dtypes == [np.dtype(float)]
    assert real_vals.dtype == np.dtype(complex)
    match = compare_spectra(real_vals, complex_vals, tol=1e-12)
    assert match.ok


def test_complex_walk_oracle_keeps_the_complex_solve(monkeypatch):
    g = complete_graph(5)
    op = evolution(flip_flop_partition(g),
                   random_unitary_coins(g, np.random.default_rng(29)), "A")
    reference = np.linalg.eigvals(op.matrix)
    dtypes = _spy_on_eigvals(monkeypatch)
    vals = direct_spectrum(op)
    assert dtypes == [np.dtype(complex)]
    assert np.array_equal(vals, reference[np.lexsort((reference.real, np.angle(reference)))])


def test_degenerate_lifts_are_flagged_not_dropped():
    # at nu = +1 the uniform stationary profile is shift-invariant, so the
    # lifted direction collapses; it must still be reported
    g = c4_graph()
    result = szegedy_spectrum(TransitionMatrix.uniform(g))
    collapsed = [lift for lift in result.lifts
                 if abs(lift.nu - 1.0) <= 1e-12 and not lift.genuine]
    assert collapsed


# ---------------------------------------------------------------------------
# direct spectra and matching
# ---------------------------------------------------------------------------


def test_direct_spectrum_of_the_swap_walk():
    g = Graph.from_edges(2, [(1, 2)])
    op = evolution(flip_flop_partition(g), identity_coins(g), "A")
    eig = direct_spectrum(op)
    assert np.allclose(sorted(eig.real), [-1.0, 1.0], atol=1e-12, rtol=0.0)


def test_compare_identical_multisets():
    vals = np.exp(1j * np.array([0.3, 1.1, 2.9, -2.0]))
    match = compare_spectra(vals, vals.copy())
    assert match.ok and match.max_angle_error == 0.0


def test_compare_tolerates_tiny_jitter():
    vals = np.exp(1j * np.array([0.3, 1.1, 2.9, -2.0]))
    jig = np.exp(1j * (np.array([0.3, 1.1, 2.9, -2.0]) + 1e-9))
    match = compare_spectra(vals, jig, tol=1e-8)
    assert match.ok and match.max_angle_error <= 2e-9


def test_compare_rejects_size_mismatch():
    with pytest.raises(ValueError):
        compare_spectra(np.array([1.0 + 0j]), np.array([1.0 + 0j, -1.0 + 0j]))


def test_compare_detects_a_genuine_mismatch():
    vals = np.exp(1j * np.array([0.0, 1.0, 2.0, 3.0]))
    rot = np.exp(1j * (np.array([0.0, 1.0, 2.0, 3.0]) + 0.05))
    match = compare_spectra(vals, rot, tol=1e-8)
    assert not match.ok
