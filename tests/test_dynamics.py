"""State evolution, finding probabilities, path sums, and the ring walk."""

import math

import numpy as np
import pytest

from helpers import (
    bowtie_graph,
    c4_graph,
    ring_engine_histories,
    ring_recurrence_oracle,
)
from qgwalk import (
    CoinSet,
    EvolutionOperator,
    Graph,
    build_arc_space,
    cycle_graph,
    evolution,
    evolve,
    finding_probability,
    flip_flop_partition,
    from_arc_amplitudes,
    grover_coins,
    identity_coins,
    local_state,
    one_dim_walk,
    path_graph,
    path_sum_amplitudes,
    path_sum_probability,
    point_mass,
    probability_history,
    random_connected_graph,
    random_partition,
    random_unitary_coins,
    star_graph,
)
from qgwalk import dynamics


def k2():
    return Graph.from_edges(2, [(1, 2)])


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_point_mass_and_amplitude_lookup():
    space = build_arc_space(c4_graph())
    s = point_mass(space, (2, 3))
    assert s.amplitude((2, 3)) == 1.0 + 0.0j
    assert s.time == 0
    assert np.sum(np.abs(s.amplitudes) ** 2) == 1.0


def test_from_arc_amplitudes_normalization_guard():
    space = build_arc_space(k2())
    from_arc_amplitudes(space, {(1, 2): 1 / math.sqrt(2), (2, 1): 1j / math.sqrt(2)})
    with pytest.raises(ValueError):
        from_arc_amplitudes(space, {(1, 2): 0.5})


def test_local_state_lives_on_one_origin_block():
    g = star_graph(3)
    space = build_arc_space(g)
    s = local_state(space, 1, np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
    probs = finding_probability(s)
    assert probs[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        local_state(space, 1, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_zero_steps_returns_input_state():
    g = c4_graph()
    space = build_arc_space(g)
    op = evolution(space, flip_flop_partition(g), grover_coins(g), "G")
    s0 = point_mass(space, (1, 2))
    s1 = evolve(op, s0, 0)
    assert np.array_equal(s1.amplitudes, s0.amplitudes)
    assert s1.time == 0


def test_k2_identity_walk_is_a_swap():
    g = k2()
    space = build_arc_space(g)
    op = evolution(space, flip_flop_partition(g), identity_coins(g), "G")
    s = point_mass(space, (1, 2))
    one = evolve(op, s, 1)
    assert one.amplitude((2, 1)) == 1.0 + 0.0j
    assert finding_probability(one)[1] == pytest.approx(1.0)
    two = evolve(op, one, 1)
    assert np.array_equal(two.amplitudes, s.amplitudes)
    assert two.time == 2


def test_one_step_spread_with_half_reflection_coin():
    # from (2,1) the A-type step spreads over the arcs into the neighbours
    # of 2; with the degree-2 reflection coin all weight turns the corner
    g = bowtie_graph()
    space = build_arc_space(g)
    op = evolution(space, flip_flop_partition(g), grover_coins(g), "A")
    s = evolve(op, point_mass(space, (2, 1)), 1)
    assert s.amplitude((4, 2)) == 1.0 + 0.0j
    assert s.amplitude((1, 2)) == 0.0 + 0.0j
    assert np.sum(np.abs(s.amplitudes) > 0.0) == 1


def test_c4_g_type_one_step_keeps_mass_at_the_turned_vertex():
    g = c4_graph()
    space = build_arc_space(g)
    op = evolution(space, flip_flop_partition(g), grover_coins(g), "G")
    s = evolve(op, point_mass(space, (2, 1)), 1)
    assert s.amplitude((1, 4)) == 1.0 + 0.0j
    assert finding_probability(s)[0] == pytest.approx(1.0)


def test_norm_conserved_over_long_runs():
    rng = np.random.default_rng(17)
    g = c4_graph()
    space = build_arc_space(g)
    op = evolution(space, random_partition(g, rng), random_unitary_coins(g, rng), "A")
    s = evolve(op, point_mass(space, (3, 4)), 100)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-10
    assert s.time == 100


# ---------------------------------------------------------------------------
# finding probabilities
# ---------------------------------------------------------------------------


def test_point_mass_probability_sits_at_the_origin_vertex():
    space = build_arc_space(c4_graph())
    probs = finding_probability(point_mass(space, (1, 2)))
    assert np.array_equal(probs, np.array([1.0, 0.0, 0.0, 0.0]))


def test_uniform_amplitudes_give_uniform_distribution():
    space = build_arc_space(c4_graph())
    s = from_arc_amplitudes(space, {arc: 1.0 / math.sqrt(8) for arc in space.arcs})
    assert np.allclose(finding_probability(s), 0.25, atol=1e-15, rtol=0.0)


def test_distributions_are_normalized():
    rng = np.random.default_rng(19)
    g = star_graph(4)
    space = build_arc_space(g)
    op = evolution(space, flip_flop_partition(g), random_unitary_coins(g, rng), "G")
    s = evolve(op, point_mass(space, (1, 3)), 13)
    probs = finding_probability(s)
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-10


def test_finding_probability_is_the_origin_block_mass():
    rng = np.random.default_rng(23)
    for g in [star_graph(5), bowtie_graph()] + [random_connected_graph(rng, 4, 9, 0.3)
                                                for _ in range(4)]:
        space = build_arc_space(g)
        x = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
        s = from_arc_amplitudes(space, dict(zip(space.arcs, x / np.linalg.norm(x))))
        per_slice = [np.sum(np.abs(s.amplitudes[space.origin_slice(v)]) ** 2)
                     for v in g.vertices]
        assert np.abs(finding_probability(s) - per_slice).max() <= 1e-15


@pytest.mark.parametrize("kind", ["G", "A"])
def test_probability_history_matches_stepwise_evolution(kind):
    rng = np.random.default_rng(29)
    g = bowtie_graph()
    space = build_arc_space(g)
    op = evolution(space, random_partition(g, rng), random_unitary_coins(g, rng), kind)
    s = point_mass(space, (2, 4))
    history = np.array(list(probability_history(op, s, 12)))
    assert history.shape == (13, 4)
    for t in range(13):
        assert np.array_equal(history[t], finding_probability(evolve(op, s, t)))


def test_probability_history_guards_the_norm():
    # bypass evolution()'s unitarity check to feed the guard a lossy coin
    g = c4_graph()
    space = build_arc_space(g)
    p = flip_flop_partition(g)
    lossy = CoinSet({v: 0.999 * grover_coins(g).block(v) for v in g.vertices})
    op = EvolutionOperator("G", p, lossy)
    with pytest.raises(ArithmeticError):
        list(probability_history(op, point_mass(space, (1, 2)), 3))
    with pytest.raises(ArithmeticError):
        evolve(op, point_mass(space, (1, 2)), 3)
    # rows are stepped as they are taken: the first comes out before any step
    rows = probability_history(op, point_mass(space, (1, 2)), 3)
    assert np.array_equal(next(rows), finding_probability(point_mass(space, (1, 2))))
    with pytest.raises(ArithmeticError):
        next(rows)


def test_probability_history_stops_mid_chunk_at_the_drifting_step():
    # swap coins carry a point mass one vertex per step: after t steps it sits
    # on arc (t + 1, t + 2), so the halving coin at vertex bad + 1 acts at step bad
    g = cycle_graph(200)
    space = build_arc_space(g)
    per_chunk = dynamics._CHUNK_AMPLITUDES // space.size
    bad = per_chunk + per_chunk // 4
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    coins = CoinSet({v: (0.5 if v == bad + 1 else 1.0) * swap for v in g.vertices})
    op = EvolutionOperator("G", flip_flop_partition(g), coins)
    rows = []
    with pytest.raises(ArithmeticError, match=f"^norm drifted by 5.000e-01 over {bad} steps$"):
        for row in probability_history(op, point_mass(space, (1, 2)), 3 * per_chunk):
            rows.append(row)
    assert np.array_equal(rows, np.eye(bad, g.vertex_count))


# ---------------------------------------------------------------------------
# path-sum cross-check
# ---------------------------------------------------------------------------


def test_zero_step_path_sum_is_the_origin_indicator():
    g = c4_graph()
    space = build_arc_space(g)
    p = flip_flop_partition(g)
    coins = grover_coins(g)
    phi = np.array([1.0, 0.0])
    assert path_sum_probability(space, p, coins, "G", 1, phi, 0, 1) == 1.0
    assert path_sum_probability(space, p, coins, "G", 1, phi, 0, 3) == 0.0


def test_k2_one_step_path_lands_on_the_other_vertex():
    g = k2()
    space = build_arc_space(g)
    p = flip_flop_partition(g)
    coins = identity_coins(g)
    assert path_sum_probability(space, p, coins, "G", 1, np.array([1.0]), 1, 2) == 1.0


@pytest.mark.parametrize("kind", ["G", "A"])
@pytest.mark.parametrize("make_graph", [lambda: cycle_graph(3), c4_graph,
                                        lambda: path_graph(3), lambda: star_graph(3)])
def test_path_sum_matches_matrix_evolution(kind, make_graph):
    rng = np.random.default_rng(23)
    g = make_graph()
    space = build_arc_space(g)
    for coins in (grover_coins(g), random_unitary_coins(g, rng)):
        p = random_partition(g, rng)
        op = evolution(space, p, coins, kind)
        origin = 1
        phi = rng.normal(size=g.degree(origin)) + 1j * rng.normal(size=g.degree(origin))
        phi = phi / np.linalg.norm(phi)
        state = local_state(space, origin, phi)
        for steps in range(5):
            evolved = evolve(op, state, steps)
            dist = finding_probability(evolved)
            for event in g.vertices:
                direct = path_sum_probability(space, p, coins, kind, origin, phi,
                                              steps, event)
                assert abs(direct - dist[event - 1]) <= 1e-10


def test_path_sum_buckets_carry_the_full_state():
    g = bowtie_graph()
    space = build_arc_space(g)
    p = flip_flop_partition(g)
    coins = grover_coins(g)
    phi = np.array([1.0, 0.0, 0.0])
    buckets = path_sum_amplitudes(space, p, coins, "A", 1, phi, 3)
    total = sum(float(np.linalg.norm(v) ** 2) for v in buckets.values())
    assert abs(total - 1.0) <= 1e-12


def test_path_sum_step_cap():
    g = k2()
    space = build_arc_space(g)
    p = flip_flop_partition(g)
    with pytest.raises(ValueError):
        path_sum_probability(space, p, identity_coins(g), "G", 1,
                             np.array([1.0]), 7, 1, cap=6)


# ---------------------------------------------------------------------------
# the two-component ring walk
# ---------------------------------------------------------------------------


def delta(n, j):
    v = np.zeros(n)
    v[j] = 1.0
    return v


def test_free_case_translates_the_right_mover():
    n = 12
    res = one_dim_walk(1.0, 0.0, n, 5, delta(n, 3), np.zeros(n))
    assert res.right[5][(3 + 5) % n] == 1.0 + 0.0j
    assert np.sum(np.abs(res.right[5])) == 1.0
    assert np.abs(res.left).max() == 0.0


def test_pure_reflection_swaps_components_with_phase_i():
    n = 9
    res = one_dim_walk(0.0, 1.0, n, 2, delta(n, 4), np.zeros(n))
    assert res.left[1][5] == 1j
    assert np.abs(res.right[1]).max() == 0.0
    assert res.right[2][4] == -1.0 + 0.0j


def test_recurrences_match_a_plain_loop_replay():
    n = 16
    rng = np.random.default_rng(29)
    init_r = rng.normal(size=n) + 1j * rng.normal(size=n)
    init_l = rng.normal(size=n) + 1j * rng.normal(size=n)
    nrm = math.sqrt(float(np.sum(np.abs(init_r) ** 2 + np.abs(init_l) ** 2)))
    init_r, init_l = init_r / nrm, init_l / nrm
    for a, b in ((1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8)):
        res = one_dim_walk(a, b, n, 10, init_r, init_l)
        oracle_r, oracle_l = ring_recurrence_oracle(a, b, n, 10, init_r, init_l)
        assert np.abs(res.right - oracle_r).max() <= 1e-12
        assert np.abs(res.left - oracle_l).max() <= 1e-12


@pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, 1.0),
                                 (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8)])
def test_ring_walk_equals_the_general_engine(a, b):
    n = 14
    init_r, init_l = delta(n, 6), np.zeros(n)
    res = one_dim_walk(a, b, n, 6, init_r, init_l)
    eng_r, eng_l = ring_engine_histories(a, b, n, 6, init_r, init_l)
    assert np.abs(res.right - eng_r).max() <= 1e-12
    assert np.abs(res.left - eng_l).max() <= 1e-12


def test_ring_walk_engine_equivalence_for_mixed_input():
    n = 11
    rng = np.random.default_rng(37)
    init_r = rng.normal(size=n) + 1j * rng.normal(size=n)
    init_l = rng.normal(size=n) + 1j * rng.normal(size=n)
    nrm = math.sqrt(float(np.sum(np.abs(init_r) ** 2 + np.abs(init_l) ** 2)))
    init_r, init_l = init_r / nrm, init_l / nrm
    res = one_dim_walk(0.8, 0.6, n, 5, init_r, init_l)
    eng_r, eng_l = ring_engine_histories(0.8, 0.6, n, 5, init_r, init_l)
    assert np.abs(res.right - eng_r).max() <= 1e-12
    assert np.abs(res.left - eng_l).max() <= 1e-12


def test_ring_walk_probability_is_normalized_at_all_times():
    n = 10
    res = one_dim_walk(0.6, 0.8, n, 10, delta(n, 2), np.zeros(n))
    for t in range(11):
        assert abs(res.probability(t).sum() - 1.0) <= 1e-12


def test_ring_walk_input_validation():
    with pytest.raises(ValueError):
        one_dim_walk(0.9, 0.9, 8, 3, delta(8, 0), np.zeros(8))
    with pytest.raises(ValueError):
        one_dim_walk(1.0, 0.0, 2, 3, delta(2, 0), np.zeros(2))
    with pytest.raises(ValueError):
        one_dim_walk(1.0, 0.0, 8, 3, 0.5 * delta(8, 0), np.zeros(8))
