"""Metric-graph walks: secular scans, eigenfunctions, determinants."""

import math

import numpy as np
import pytest

from helpers import (
    equilateral_star_roots,
    generic_params,
    interval_roots,
    metric_cases,
    random_weights,
    star_neumann_shooting_roots,
)
from qgwalk import (
    DIRICHLET,
    Graph,
    PoleProximityError,
    QuantumGraphParams,
    VertexWeights,
    b_coefficients,
    boundary_condition_report,
    build_arc_space,
    characteristic_determinant,
    complete_graph,
    cycle_graph,
    enumerate_partitions,
    evolution,
    flip_flop_partition,
    grover_coins,
    outgoing_amplitudes,
    path_graph,
    quantum_graph_coins,
    quantum_graph_walk,
    reduced_secular_determinant,
    sample_eigenfunction,
    scan_roots,
    scattering_factorization,
    shift_operator,
    star_graph,
    stationarity_equivalences,
    stationarity_indicator,
    stationary_vector,
)
from qgwalk import coins as coin_module
from qgwalk import quantum_graph
from qgwalk.quantum_graph import _gaps

K2 = Graph.from_edges(2, [(1, 2)])
UNIT_INTERVAL = QuantumGraphParams.build(K2)

HARD_STAR = star_graph(3)
HARD_PARAMS = QuantumGraphParams.build(
    HARD_STAR,
    lengths={(1, 2): 1.0, (1, 3): 0.8, (1, 4): 1.3},
    potentials={(1, 2): 0.4, (1, 3): 0.0, (1, 4): -0.2},
    lambdas={1: 0.7, 2: 0.0, 3: 2.5, 4: DIRICHLET})


def _roots(scan):
    return [r.k for r in scan.roots]


# ---------------------------------------------------------------------------
# walk assembly
# ---------------------------------------------------------------------------


def test_interval_walk_is_a_phased_swap():
    s = shift_operator(flip_flop_partition(K2))
    for k in (0.7, math.pi, 2.25):
        u = quantum_graph_walk(UNIT_INTERVAL, k).matrix
        assert np.abs(u - np.exp(1j * k) * s).max() <= 1e-15


def test_zero_length_limit_is_the_grover_walk():
    for g in (star_graph(3), cycle_graph(4), complete_graph(4)):
        q = QuantumGraphParams.build(g, lengths=0.0)
        coins = quantum_graph_coins(q, 1.3)
        reference = grover_coins(g)
        for j in g.vertices:
            assert np.array_equal(coins.block(j), reference.block(j).astype(complex))
        walk = quantum_graph_walk(q, 1.3).matrix
        grover = evolution(flip_flop_partition(g), reference).matrix
        assert np.abs(walk - grover).max() == 0.0


def test_solver_walk_equals_the_evolution_operator_exactly():
    # the scan's I - U(k), a column gather of the coin operator, against the
    # matrix scattered from the permutation and the coin blocks, at every k of
    # one batch and of one-k batches
    ks = np.array([0.9, 2.7, 5.3])
    for _, q in metric_cases():
        eye = np.eye(q.arc_space.size)
        expected = [eye - quantum_graph_walk(q, k).matrix for k in ks.tolist()]
        assert _gaps(q, ks).tobytes() == np.stack(expected).tobytes()
        for k, gap in zip(ks, expected):
            assert _gaps(q, np.array([k])).tobytes() == gap.tobytes()


def test_walk_is_unitary_with_generic_parameters():
    rng = np.random.default_rng(23)
    for g in (HARD_STAR, cycle_graph(5), complete_graph(4)):
        q = generic_params(g, rng, dirichlet=True)
        for k in (0.9, 2.7):
            u = quantum_graph_walk(q, k).matrix
            assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-12


# ---------------------------------------------------------------------------
# indicator and scans
# ---------------------------------------------------------------------------


def test_indicator_vanishes_exactly_at_interval_roots():
    for m in (1, 2, 3):
        assert stationarity_indicator(UNIT_INTERVAL, m * math.pi) <= 1e-10


def test_indicator_at_the_antiroot_is_sqrt_two():
    # U(pi/2) = i S, so I - U has singular values |1 -+ i| = sqrt(2)
    value = stationarity_indicator(UNIT_INTERVAL, math.pi / 2)
    assert abs(value - math.sqrt(2.0)) <= 1e-12


def test_scan_grid_indicators_equal_the_indicator_exactly():
    for _, q in metric_cases():
        scan = scan_roots(q, 0.5, 3.0, grid_points=25)
        assert [stationarity_indicator(q, k) for k in scan.ks] == scan.indicators.tolist()


def _per_k_reference(q, ks):
    """Indicators, direct and reduced determinants one k at a time, NaN at poles."""
    indicators, dets, reduced = [], [], []
    for k in ks:
        gap = _gaps(q, np.array([k]))[0]
        svals = np.linalg.svd(gap, compute_uv=False)
        indicators.append(svals[-1])
        dets.append(np.linalg.det(gap))
        try:
            reduced.append(reduced_secular_determinant(q, float(k), 1.0))
        except PoleProximityError:
            reduced.append(complex(math.nan, math.nan))
    return np.array(indicators), np.array(dets), np.array(reduced)


@pytest.mark.parametrize("case", ["star", "k4", "cycle30", "poles"])
def test_chunked_scan_equals_the_per_k_evaluation_bit_for_bit(case, monkeypatch):
    cases = dict(zip(["star", "k4"], ((q, 0.5, 3.0, 60) for _, q in metric_cases())))
    cases["cycle30"] = (QuantumGraphParams.build(cycle_graph(30), lengths=0.1), 0.5, 1.0, 123)
    # a pole of the reduced determinant at every integer k
    cases["poles"] = (QuantumGraphParams.build(K2, lengths=math.pi), 1.0, 4.0, 7)
    q, k_min, k_max, points = cases[case]
    if case == "cycle30":  # several chunks, the last one short
        chunk = quantum_graph.SCAN_CHUNK_ENTRIES // q.arc_space.size ** 2
        assert 1 < chunk < points and points % chunk
    scan = scan_roots(q, k_min, k_max, grid_points=points)
    indicators, dets, reduced = _per_k_reference(q, scan.ks)
    assert scan.indicators.tobytes() == indicators.tobytes()
    assert scan.determinants.tobytes() == dets.tobytes()
    poles = np.isnan(reduced)
    assert np.array_equal(np.isnan(scan.reduced_determinants), poles)
    assert scan.reduced_determinants[~poles].tobytes() == reduced[~poles].tobytes()
    assert poles.any() == (case == "poles")
    monkeypatch.setattr(quantum_graph, "SCAN_CHUNK_ENTRIES", 1)  # one k per chunk
    assert scan_roots(q, k_min, k_max, grid_points=points).roots == scan.roots


@pytest.mark.parametrize("coupled,held,per_batch", [
    ((), [tuple(range(1, 31))], []),
    ((1,), [(2, 3, 4, 5)], [(1,)]),
    ((2, 3, 4, 5), [(1,)], [(2, 3, 4, 5)]),
], ids=["neumann_cycle", "coupled_centre", "coupled_leaves"])
def test_the_k_free_cores_are_taken_once_per_parameters(coupled, held, per_batch, monkeypatch):
    # a stack whose couplings are all 0 takes its cores once for every chunk,
    # refinement probe and multiplicity count of a scan; a coupled stack takes
    # them once per batch of k
    g = star_graph(4) if coupled else cycle_graph(30)
    q = QuantumGraphParams.build(g, lengths=0.7 if coupled else 0.1,
                                 lambdas={v: 0.5 if v in coupled else 0.0 for v in g.vertices})
    stacks, batches = [], []
    vertex_cores, coin_sets = coin_module._vertex_cores, quantum_graph._metric_coin_sets

    def spy_cores(q, ks, vertices, *args):
        stacks.append(tuple(vertices.tolist()))
        return vertex_cores(q, ks, vertices, *args)

    def spy_sets(q, ks):
        batches.append(ks.size)
        return coin_sets(q, ks)

    monkeypatch.setattr(coin_module, "_vertex_cores", spy_cores)
    monkeypatch.setattr(quantum_graph, "_metric_coin_sets", spy_sets)
    scan = scan_roots(q, 1.5, 4.5, grid_points=200)
    assert scan.roots and batches.count(1) > len(scan.roots)  # probes ran, one k each
    assert max(batches) > 1  # and chunks of several k
    assert [tuple(vs.tolist()) for (vs, _), core in
            zip(q.arc_space.degree_blocks, q.k_free_cores) if core is not None] == held
    assert sorted(stacks) == sorted(held + per_batch * len(batches))


def test_a_root_on_a_grid_point_is_reported_at_that_point():
    # an interval of length pi has its roots at the integers, every one a grid
    # point here; golden section alone stops about 1e-11 off each of them
    q = QuantumGraphParams.build(K2, lengths=math.pi)
    scan = scan_roots(q, 1.0, 4.0, grid_points=7)
    assert [(r.k, r.multiplicity) for r in scan.roots] == [(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1)]
    assert [r.indicator for r in scan.roots] == scan.indicators[::2].tolist()
    assert max(r.indicator for r in scan.roots) < 1e-15


def test_interval_neumann_scan():
    scan = scan_roots(UNIT_INTERVAL, 0.1, 10.0)
    expected = interval_roots(1.0, 10.0)
    assert len(scan.roots) == len(expected) == 3
    for root, want in zip(scan.roots, expected):
        assert abs(root.k - want) <= 1e-8
        assert root.multiplicity == 1
        assert root.indicator <= 1e-9


def test_interval_dirichlet_scan():
    q = QuantumGraphParams.build(K2, lambdas={1: DIRICHLET, 2: DIRICHLET})
    scan = scan_roots(q, 0.1, 10.0)
    ks = _roots(scan)
    assert len(ks) == 3
    for got, want in zip(ks, (math.pi, 2 * math.pi, 3 * math.pi)):
        assert abs(got - want) <= 1e-8


def test_equilateral_star_closed_form_and_multiplicities():
    q = QuantumGraphParams.build(HARD_STAR)
    scan = scan_roots(q, 0.5, 7.0)
    expected = equilateral_star_roots(3, 1.0, 7.0)
    expected = [(k, m) for (k, m) in expected if k > 0.5]
    assert [r.multiplicity for r in scan.roots] == [m for _, m in expected] == [2, 1, 2, 1]
    for root, (want, _) in zip(scan.roots, expected):
        assert abs(root.k - want) <= 1e-8


def test_equilateral_star_matches_the_shooting_oracle():
    q = QuantumGraphParams.build(HARD_STAR)
    scan = scan_roots(q, 0.5, 7.0)
    oracle = star_neumann_shooting_roots([1.0, 1.0, 1.0], 0.5, 7.0)
    assert len(scan.roots) == len(oracle)
    for root, (want, mult) in zip(scan.roots, oracle):
        assert abs(root.k - want) <= 1e-7
        assert root.multiplicity == mult


def test_lopsided_star_matches_frozen_oracle_values():
    # computed by the RK4 shooting oracle before this test was written
    frozen = [1.335515465961138, 1.7645414561090758, 3.022217736284298,
              4.08008243914695, 5.172559513280518, 5.984799393060299]
    q = QuantumGraphParams.build(
        HARD_STAR, lengths={(1, 2): 1.0, (1, 3): 0.8, (1, 4): 1.3})
    scan = scan_roots(q, 0.5, 6.0)
    assert len(scan.roots) == len(frozen)
    for root, want in zip(scan.roots, frozen):
        assert abs(root.k - want) <= 1e-7
        assert root.multiplicity == 1


def test_edge_potentials_gauge_away_on_trees():
    flat = scan_roots(UNIT_INTERVAL, 0.5, 7.0)
    gauged = scan_roots(QuantumGraphParams.build(K2, potentials=0.7), 0.5, 7.0)
    assert len(flat.roots) == len(gauged.roots)
    for a, b in zip(flat.roots, gauged.roots):
        assert abs(a.k - b.k) <= 1e-8

    q0 = QuantumGraphParams.build(
        HARD_STAR, lengths={(1, 2): 1.0, (1, 3): 0.8, (1, 4): 1.3})
    qa = QuantumGraphParams.build(
        HARD_STAR, lengths=q0.lengths,
        potentials={(1, 2): 0.9, (1, 3): -0.4, (1, 4): 1.7})
    flat, gauged = scan_roots(q0, 0.5, 6.0), scan_roots(qa, 0.5, 6.0)
    assert len(flat.roots) == len(gauged.roots)
    for a, b in zip(flat.roots, gauged.roots):
        assert abs(a.k - b.k) <= 1e-8


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        scan_roots(UNIT_INTERVAL, 2.0, 1.0)
    with pytest.raises(ValueError):
        scan_roots(UNIT_INTERVAL, 0.0, 1.0)
    with pytest.raises(ValueError):
        scan_roots(UNIT_INTERVAL, 0.5, 3.0, grid_points=2)
    with pytest.raises(ValueError):
        scan_roots(QuantumGraphParams.build(K2, lengths=0.0), 0.5, 3.0)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="refine_tol must be positive"):
            scan_roots(UNIT_INTERVAL, 3.0, 3.3, grid_points=50, refine_tol=tol)
    for tol in (-1.0, math.nan):
        with pytest.raises(ValueError, match="root_tol must be nonnegative"):
            scan_roots(UNIT_INTERVAL, 3.0, 3.3, grid_points=50, root_tol=tol)


# ---------------------------------------------------------------------------
# stationary vectors and eigenfunctions
# ---------------------------------------------------------------------------


def test_interval_stationary_vector_at_pi():
    sv = stationary_vector(UNIT_INTERVAL, math.pi)
    assert sv.defect <= 1e-12
    # the two entries tie in magnitude, so only the ray is pinned down
    ray = sv.amplitudes * np.sign(sv.amplitudes[0].real)
    assert np.abs(ray - np.array([1.0, -1.0]) / math.sqrt(2)).max() <= 1e-9


def test_stationary_vector_off_root_raises():
    with pytest.raises(ValueError):
        stationary_vector(UNIT_INTERVAL, 2.5)


def test_amplitude_round_trips():
    rng = np.random.default_rng(31)
    scan = scan_roots(HARD_PARAMS, 0.5, 6.0)
    assert scan.roots
    space = build_arc_space(HARD_STAR)
    shift = shift_operator(flip_flop_partition(HARD_STAR))
    for root in scan.roots[:3]:
        sv = stationary_vector(HARD_PARAMS, root.k)
        a = outgoing_amplitudes(HARD_PARAMS, root.k, sv.amplitudes)
        b = b_coefficients(HARD_PARAMS, root.k, a)
        # the two exponential factors cancel arcwise, so b is the shifted
        # walk vector up to roundoff in |e^{i theta}|^2
        assert np.abs(b - shift @ sv.amplitudes).max() <= 1e-14
        for idx, (i, j) in enumerate(space.arcs):
            phase = np.exp(-1j * HARD_PARAMS.length(i, j)
                           * (root.k - HARD_PARAMS.arc_potential(i, j)))
            rev = space.index_of((j, i))
            assert abs(a[idx] - b[rev] * phase) <= 1e-13
    del rng


@pytest.mark.parametrize("case", range(len(metric_cases())))
def test_amplitudes_match_per_arc_scalar_references(case):
    g, q = metric_cases()[case]
    space = build_arc_space(g)
    rng = np.random.default_rng(47 + case)
    for k in (0.9, 2.35, 5.1):
        x = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
        x /= np.linalg.norm(x)
        a = outgoing_amplitudes(q, k, x)
        b = b_coefficients(q, k, a)
        for idx, (i, j) in enumerate(space.arcs):
            a_ref = x[idx] * np.exp(-1j * q.length(i, j) * (k - q.arc_potential(i, j)))
            b_ref = (a[space.index_of((j, i))]
                     * np.exp(1j * q.length(i, j) * (k + q.arc_potential(i, j))))
            assert abs(a[idx] - a_ref) <= 1e-15
            assert abs(b[idx] - b_ref) <= 1e-15


def test_a_space_from_a_foreign_graph_raises():
    # the triangle has as many arcs as the 3-leaf star, so only the graph tells
    foreign = VertexWeights.uniform(cycle_graph(3))
    for determinant in (characteristic_determinant, reduced_secular_determinant):
        with pytest.raises(ValueError, match="different graph"):
            determinant(HARD_PARAMS, 1.3, 0.5, foreign)


def test_interval_reflection_relation():
    sv = stationary_vector(UNIT_INTERVAL, math.pi)
    space = sv.params.arc_space
    a = outgoing_amplitudes(UNIT_INTERVAL, math.pi, sv.amplitudes)
    b = b_coefficients(UNIT_INTERVAL, math.pi, a)
    i12, i21 = space.index_of((1, 2)), space.index_of((2, 1))
    assert abs(b[i12] + a[i21]) <= 1e-15
    assert abs(b[i21] + a[i12]) <= 1e-15


def test_interval_eigenfunction_is_a_cosine():
    sv = stationary_vector(UNIT_INTERVAL, math.pi)
    sample = sample_eigenfunction(sv, samples_per_edge=41)
    xs = sample.edge_xs[(1, 2)]
    values = sample.edge_values[(1, 2)]
    assert np.abs(np.abs(values) - math.sqrt(2) * np.abs(np.cos(math.pi * xs))).max() <= 1e-8
    i12 = sv.params.arc_space.index_of((1, 2))
    a = outgoing_amplitudes(UNIT_INTERVAL, math.pi, sv.amplitudes)
    b = b_coefficients(UNIT_INTERVAL, math.pi, a)
    assert abs(sample.vertex_values[1] - (a[i12] + b[i12])) <= 1e-12
    assert sample.symmetry_residual <= 1e-8
    assert sample.pp_wq_max_diff <= 1e-8


def test_boundary_report_passes_at_hard_star_roots():
    scan = scan_roots(HARD_PARAMS, 0.5, 6.0)
    assert len(scan.roots) >= 2
    for root in scan.roots:
        sv = stationary_vector(HARD_PARAMS, root.k)
        report = boundary_condition_report(sample_eigenfunction(sv))
        assert report.ok
        assert all(row.ok for row in report.rows)
        assert max(row.residual for row in report.rows) <= 1e-8
        conditions = {row.condition for row in report.rows}
        assert conditions == {"I", "II", "III"}


def test_boundary_report_fails_off_root():
    root = scan_roots(HARD_PARAMS, 0.5, 6.0).roots[0]
    off = stationary_vector(HARD_PARAMS, root.k + 1e-2, root_tol=10.0)
    report = boundary_condition_report(sample_eigenfunction(off))
    assert not report.ok
    assert max(row.residual for row in report.rows) > 1e-4


def test_multiplicity_two_root_still_yields_one_unit_vector():
    q = QuantumGraphParams.build(HARD_STAR)
    sv = stationary_vector(q, math.pi / 2)
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) <= 1e-12
    assert sv.defect <= 1e-10


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_interval_determinant_frozen_value():
    # I - U(pi/2) = I - iS has determinant (1 - i)(1 + i) = 2
    direct = characteristic_determinant(UNIT_INTERVAL, math.pi / 2, 1.0 + 0.0j)
    assert abs(direct - 2.0) <= 1e-12
    reduced = reduced_secular_determinant(UNIT_INTERVAL, math.pi / 2, 1.0 + 0.0j)
    assert abs(reduced - 2.0) <= 1e-10
    u = quantum_graph_walk(UNIT_INTERVAL, math.pi / 2).matrix
    assert abs(np.linalg.det(np.eye(2) - u) - direct) <= 1e-12


def test_determinant_at_t_zero_is_one():
    assert characteristic_determinant(UNIT_INTERVAL, 1.1, 0.0 + 0.0j) == 1.0 + 0.0j
    assert abs(reduced_secular_determinant(HARD_PARAMS, 1.1, 0.0 + 0.0j)
               - 1.0) <= 1e-12


def test_reduced_determinant_matches_direct_on_random_samples():
    rng = np.random.default_rng(37)
    graphs = [K2, path_graph(3), star_graph(3), cycle_graph(3), complete_graph(4)]
    checked = 0
    while checked < 40:
        g = graphs[rng.integers(len(graphs))]
        q = generic_params(g, rng, dirichlet=bool(rng.integers(2)))
        w = random_weights(g, rng) if rng.integers(2) else None
        k = float(rng.uniform(0.5, 6.0))
        t = float(rng.uniform(0.2, 0.97)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        try:
            reduced = reduced_secular_determinant(q, k, t, weights=w)
        except PoleProximityError:
            continue
        direct = characteristic_determinant(q, k, t, weights=w)
        assert abs(reduced - direct) <= 1e-8 * max(1.0, abs(direct))
        checked += 1


def test_pole_guard_trips_on_the_unit_circle():
    with pytest.raises(PoleProximityError):
        reduced_secular_determinant(UNIT_INTERVAL, math.pi, 1.0 + 0.0j)


@pytest.mark.parametrize("near_pole,named", [
    ({(1, 3): math.pi, (2, 3): math.pi}, "(1, 3)"),
    ({(1, 2): math.pi, (2, 3): math.pi}, "(1, 2)"),
    ({(2, 3): math.pi}, "(2, 3)"),
])
def test_pole_guard_names_the_first_offending_edge(near_pole, named):
    # at k = 1 an edge of length pi has e^(2ikL) = 1 up to rounding
    g = cycle_graph(3)
    q = QuantumGraphParams.build(g, lengths={e: near_pole.get(e, 1.0) for e in g.edges})
    with pytest.raises(PoleProximityError) as err:
        reduced_secular_determinant(q, 1.0, 1.0)
    assert str(err.value).startswith(f"edge {named} factor")


@pytest.mark.parametrize("k,potential,message", [
    # 2 k L = 2e308 overflows
    (1.0, 0.0, "2 k L on edge (2, 3) is not finite at k=1.0"),
    # 2 k L = 1e308 does not, but L (k + A) = 2e308 does, on the arc 2 -> 3
    (0.5, 1.5, "L (k + A) on edge (2, 3) is not finite at k=0.5"),
])
def test_reduced_determinant_names_an_overflowed_phase(k, potential, message):
    g = cycle_graph(3)
    q = QuantumGraphParams.build(g, lengths={(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1e308},
                                 potentials={(1, 2): 0.0, (1, 3): 0.0, (2, 3): potential})
    with pytest.raises(ValueError) as err:  # and no numpy warning ahead of it
        reduced_secular_determinant(q, k, 0.5)
    assert str(err.value) == message


def test_scan_reads_each_edge_parameter_once_per_arc(monkeypatch):
    counts = {"length": 0, "arc_potential": 0}

    def counted(name):
        original = getattr(QuantumGraphParams, name)

        def wrapper(self, u, v):
            counts[name] += 1
            return original(self, u, v)
        return wrapper

    for name in counts:
        monkeypatch.setattr(QuantumGraphParams, name, counted(name))
    seen = []
    for points in (100, 1000):
        for name in counts:
            counts[name] = 0
        q = QuantumGraphParams.build(HARD_STAR, lengths=HARD_PARAMS.lengths,
                                     lambdas=HARD_PARAMS.lambdas,
                                     potentials=HARD_PARAMS.potentials)
        scan_roots(q, 0.5, 2.0, grid_points=points)
        seen.append(dict(counts))
    arcs = 2 * len(HARD_STAR.edges)
    assert seen == [{"length": arcs, "arc_potential": arcs}] * 2


def test_reduced_determinant_vanishes_at_roots():
    scan = scan_roots(HARD_PARAMS, 0.5, 6.0)
    for root in scan.roots:
        assert abs(reduced_secular_determinant(HARD_PARAMS, root.k,
                                               1.0 + 0.0j)) <= 1e-6


# ---------------------------------------------------------------------------
# stationarity reformulations and scattering split
# ---------------------------------------------------------------------------


def test_equivalences_vanish_at_roots_and_agree_off_root():
    space = build_arc_space(HARD_STAR)
    shift = shift_operator(flip_flop_partition(HARD_STAR))
    root = scan_roots(HARD_PARAMS, 0.5, 6.0).roots[0]
    sv = stationary_vector(HARD_PARAMS, root.k)
    defects = stationarity_equivalences(sv.walk, shift @ sv.amplitudes)
    assert max(defects) <= 1e-8
    assert max(defects) <= 10.0 * max(min(defects), 1e-300)

    rng = np.random.default_rng(41)
    vec = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
    vec /= np.linalg.norm(vec)
    off = stationarity_equivalences(quantum_graph_walk(HARD_PARAMS, root.k + 0.3), vec)
    assert min(off) > 1e-3
    assert max(off) - min(off) <= 1e-10 * max(off)


def test_equivalences_take_a_flip_flop_walk_of_either_type():
    walk = quantum_graph_walk(HARD_PARAMS, 1.3)
    rng = np.random.default_rng(45)
    vec = rng.normal(size=walk.size) + 1j * rng.normal(size=walk.size)
    assert stationarity_equivalences(walk.with_kind("A"), vec) == stationarity_equivalences(walk, vec)
    other = evolution(list(enumerate_partitions(HARD_STAR))[-1], walk.coins)
    assert not other.partition.is_flip_flop
    with pytest.raises(ValueError, match="flip-flop"):
        stationarity_equivalences(other, vec)


def test_scattering_factorization_residual_is_tiny():
    rng = np.random.default_rng(43)
    for g in (K2, HARD_STAR, cycle_graph(5)):
        q = generic_params(g, rng, dirichlet=True)
        for k in (0.8, 2.6):
            fact = scattering_factorization(q, k)
            assert fact.residual <= 1e-12
            space = build_arc_space(g)
            expected = np.array(
                [np.exp(1j * q.length(i, j) * (k - q.arc_potential(i, j)))
                 for (i, j) in space.arcs])
            assert np.abs(fact.edge_phases - expected).max() == 0.0


def test_scattering_vertex_step_without_coupling_is_grover():
    q = QuantumGraphParams.build(HARD_STAR)
    fact = scattering_factorization(q, 1.7)
    grover = evolution(flip_flop_partition(HARD_STAR),
                       grover_coins(HARD_STAR))
    assert np.abs(fact.vertex_step.matrix - grover.matrix).max() <= 1e-15
