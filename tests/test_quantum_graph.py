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
    b_coefficients,
    boundary_condition_report,
    build_arc_space,
    characteristic_determinant,
    complete_graph,
    cycle_graph,
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
from qgwalk.quantum_graph import _dense_walk

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
    space = build_arc_space(K2)
    s = shift_operator(space, flip_flop_partition(K2))
    for k in (0.7, math.pi, 2.25):
        u = quantum_graph_walk(K2, UNIT_INTERVAL, k).matrix
        assert np.abs(u - np.exp(1j * k) * s).max() <= 1e-15


def test_zero_length_limit_is_the_grover_walk():
    for g in (star_graph(3), cycle_graph(4), complete_graph(4)):
        q = QuantumGraphParams.build(g, lengths=0.0)
        coins = quantum_graph_coins(g, q, 1.3)
        reference = grover_coins(g)
        for j in g.vertices:
            assert np.array_equal(coins.block(j), reference.block(j).astype(complex))
        walk = quantum_graph_walk(g, q, 1.3).matrix
        grover = evolution(build_arc_space(g), flip_flop_partition(g), reference).matrix
        assert np.abs(walk - grover).max() == 0.0


def test_solver_walk_equals_the_evolution_operator_exactly():
    # the scan's U(k), a column gather of the coin operator, against the
    # matrix scattered from the permutation and the coin blocks
    for g, q in metric_cases():
        for k in (0.9, 2.7, 5.3):
            assert np.array_equal(_dense_walk(g, q, k),
                                  quantum_graph_walk(g, q, k).matrix)


def test_walk_is_unitary_with_generic_parameters():
    rng = np.random.default_rng(23)
    for g in (HARD_STAR, cycle_graph(5), complete_graph(4)):
        q = generic_params(g, rng, dirichlet=True)
        for k in (0.9, 2.7):
            u = quantum_graph_walk(g, q, k).matrix
            assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-12


# ---------------------------------------------------------------------------
# indicator and scans
# ---------------------------------------------------------------------------


def test_indicator_vanishes_exactly_at_interval_roots():
    for m in (1, 2, 3):
        assert stationarity_indicator(K2, UNIT_INTERVAL, m * math.pi) <= 1e-10


def test_indicator_at_the_antiroot_is_sqrt_two():
    # U(pi/2) = i S, so I - U has singular values |1 -+ i| = sqrt(2)
    value = stationarity_indicator(K2, UNIT_INTERVAL, math.pi / 2)
    assert abs(value - math.sqrt(2.0)) <= 1e-12


def test_scan_grid_indicators_equal_the_indicator_exactly():
    for g, q in metric_cases():
        scan = scan_roots(g, q, 0.5, 3.0, grid_points=25)
        assert [stationarity_indicator(g, q, k) for k in scan.ks] == scan.indicators.tolist()


def test_interval_neumann_scan():
    scan = scan_roots(K2, UNIT_INTERVAL, 0.1, 10.0)
    expected = interval_roots(1.0, 10.0)
    assert len(scan.roots) == len(expected) == 3
    for root, want in zip(scan.roots, expected):
        assert abs(root.k - want) <= 1e-8
        assert root.multiplicity == 1
        assert root.indicator <= 1e-9


def test_interval_dirichlet_scan():
    q = QuantumGraphParams.build(K2, lambdas={1: DIRICHLET, 2: DIRICHLET})
    scan = scan_roots(K2, q, 0.1, 10.0)
    ks = _roots(scan)
    assert len(ks) == 3
    for got, want in zip(ks, (math.pi, 2 * math.pi, 3 * math.pi)):
        assert abs(got - want) <= 1e-8


def test_equilateral_star_closed_form_and_multiplicities():
    q = QuantumGraphParams.build(HARD_STAR)
    scan = scan_roots(HARD_STAR, q, 0.5, 7.0)
    expected = equilateral_star_roots(3, 1.0, 7.0)
    expected = [(k, m) for (k, m) in expected if k > 0.5]
    assert [r.multiplicity for r in scan.roots] == [m for _, m in expected] == [2, 1, 2, 1]
    for root, (want, _) in zip(scan.roots, expected):
        assert abs(root.k - want) <= 1e-8


def test_equilateral_star_matches_the_shooting_oracle():
    q = QuantumGraphParams.build(HARD_STAR)
    scan = scan_roots(HARD_STAR, q, 0.5, 7.0)
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
    scan = scan_roots(HARD_STAR, q, 0.5, 6.0)
    assert len(scan.roots) == len(frozen)
    for root, want in zip(scan.roots, frozen):
        assert abs(root.k - want) <= 1e-7
        assert root.multiplicity == 1


def test_edge_potentials_gauge_away_on_trees():
    flat = scan_roots(K2, UNIT_INTERVAL, 0.5, 7.0)
    gauged = scan_roots(K2, QuantumGraphParams.build(K2, potentials=0.7), 0.5, 7.0)
    assert len(flat.roots) == len(gauged.roots)
    for a, b in zip(flat.roots, gauged.roots):
        assert abs(a.k - b.k) <= 1e-8

    q0 = QuantumGraphParams.build(
        HARD_STAR, lengths={(1, 2): 1.0, (1, 3): 0.8, (1, 4): 1.3})
    qa = QuantumGraphParams.build(
        HARD_STAR, lengths=q0.lengths,
        potentials={(1, 2): 0.9, (1, 3): -0.4, (1, 4): 1.7})
    flat, gauged = scan_roots(HARD_STAR, q0, 0.5, 6.0), scan_roots(HARD_STAR, qa, 0.5, 6.0)
    assert len(flat.roots) == len(gauged.roots)
    for a, b in zip(flat.roots, gauged.roots):
        assert abs(a.k - b.k) <= 1e-8


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        scan_roots(K2, UNIT_INTERVAL, 2.0, 1.0)
    with pytest.raises(ValueError):
        scan_roots(K2, UNIT_INTERVAL, 0.0, 1.0)
    with pytest.raises(ValueError):
        scan_roots(K2, UNIT_INTERVAL, 0.5, 3.0, grid_points=2)
    with pytest.raises(ValueError):
        scan_roots(K2, QuantumGraphParams.build(K2, lengths=0.0), 0.5, 3.0)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="refine_tol must be positive"):
            scan_roots(K2, UNIT_INTERVAL, 3.0, 3.3, grid_points=50, refine_tol=tol)
    for tol in (-1.0, math.nan):
        with pytest.raises(ValueError, match="root_tol must be nonnegative"):
            scan_roots(K2, UNIT_INTERVAL, 3.0, 3.3, grid_points=50, root_tol=tol)


# ---------------------------------------------------------------------------
# stationary vectors and eigenfunctions
# ---------------------------------------------------------------------------


def test_interval_stationary_vector_at_pi():
    sv = stationary_vector(K2, UNIT_INTERVAL, math.pi)
    assert sv.defect <= 1e-12
    # the two entries tie in magnitude, so only the ray is pinned down
    ray = sv.amplitudes * np.sign(sv.amplitudes[0].real)
    assert np.abs(ray - np.array([1.0, -1.0]) / math.sqrt(2)).max() <= 1e-9


def test_stationary_vector_off_root_raises():
    with pytest.raises(ValueError):
        stationary_vector(K2, UNIT_INTERVAL, 2.5)


def test_amplitude_round_trips():
    rng = np.random.default_rng(31)
    scan = scan_roots(HARD_STAR, HARD_PARAMS, 0.5, 6.0)
    assert scan.roots
    space = build_arc_space(HARD_STAR)
    shift = shift_operator(space, flip_flop_partition(HARD_STAR))
    for root in scan.roots[:3]:
        sv = stationary_vector(HARD_STAR, HARD_PARAMS, root.k)
        a = outgoing_amplitudes(space, HARD_PARAMS, root.k, sv.amplitudes)
        b = b_coefficients(space, HARD_PARAMS, root.k, a)
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
        a = outgoing_amplitudes(space, q, k, x)
        b = b_coefficients(space, q, k, a)
        for idx, (i, j) in enumerate(space.arcs):
            a_ref = x[idx] * np.exp(-1j * q.length(i, j) * (k - q.arc_potential(i, j)))
            b_ref = (a[space.index_of((j, i))]
                     * np.exp(1j * q.length(i, j) * (k + q.arc_potential(i, j))))
            assert abs(a[idx] - a_ref) <= 1e-15
            assert abs(b[idx] - b_ref) <= 1e-15


def test_a_space_from_a_foreign_graph_raises():
    # the triangle has as many arcs as the 3-leaf star, so only the graph tells
    foreign = build_arc_space(cycle_graph(3))
    x = np.ones(foreign.size, dtype=complex)
    with pytest.raises(ValueError, match="different graph"):
        outgoing_amplitudes(foreign, HARD_PARAMS, 1.3, x)
    with pytest.raises(ValueError, match="different graph"):
        b_coefficients(foreign, HARD_PARAMS, 1.3, x)
    with pytest.raises(ValueError, match="different graph"):
        reduced_secular_determinant(cycle_graph(3), HARD_PARAMS, 1.3, 0.5)


def test_interval_reflection_relation():
    sv = stationary_vector(K2, UNIT_INTERVAL, math.pi)
    space = sv.space
    a = outgoing_amplitudes(space, UNIT_INTERVAL, math.pi, sv.amplitudes)
    b = b_coefficients(space, UNIT_INTERVAL, math.pi, a)
    i12, i21 = space.index_of((1, 2)), space.index_of((2, 1))
    assert abs(b[i12] + a[i21]) <= 1e-15
    assert abs(b[i21] + a[i12]) <= 1e-15


def test_interval_eigenfunction_is_a_cosine():
    sv = stationary_vector(K2, UNIT_INTERVAL, math.pi)
    sample = sample_eigenfunction(sv, UNIT_INTERVAL, samples_per_edge=41)
    xs = sample.edge_xs[(1, 2)]
    values = sample.edge_values[(1, 2)]
    assert np.abs(np.abs(values) - math.sqrt(2) * np.abs(np.cos(math.pi * xs))).max() <= 1e-8
    i12 = sv.space.index_of((1, 2))
    a = outgoing_amplitudes(sv.space, UNIT_INTERVAL, math.pi, sv.amplitudes)
    b = b_coefficients(sv.space, UNIT_INTERVAL, math.pi, a)
    assert abs(sample.vertex_values[1] - (a[i12] + b[i12])) <= 1e-12
    assert sample.symmetry_residual <= 1e-8
    assert sample.pp_wq_max_diff <= 1e-8


def test_boundary_report_passes_at_hard_star_roots():
    scan = scan_roots(HARD_STAR, HARD_PARAMS, 0.5, 6.0)
    assert len(scan.roots) >= 2
    for root in scan.roots:
        sv = stationary_vector(HARD_STAR, HARD_PARAMS, root.k)
        report = boundary_condition_report(sample_eigenfunction(sv, HARD_PARAMS),
                                           HARD_PARAMS)
        assert report.ok
        assert all(row.ok for row in report.rows)
        assert max(row.residual for row in report.rows) <= 1e-8
        conditions = {row.condition for row in report.rows}
        assert conditions == {"I", "II", "III"}


def test_boundary_report_fails_off_root():
    root = scan_roots(HARD_STAR, HARD_PARAMS, 0.5, 6.0).roots[0]
    off = stationary_vector(HARD_STAR, HARD_PARAMS, root.k + 1e-2, root_tol=10.0)
    report = boundary_condition_report(sample_eigenfunction(off, HARD_PARAMS),
                                       HARD_PARAMS)
    assert not report.ok
    assert max(row.residual for row in report.rows) > 1e-4


def test_multiplicity_two_root_still_yields_one_unit_vector():
    q = QuantumGraphParams.build(HARD_STAR)
    sv = stationary_vector(HARD_STAR, q, math.pi / 2)
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) <= 1e-12
    assert sv.defect <= 1e-10


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_interval_determinant_frozen_value():
    # I - U(pi/2) = I - iS has determinant (1 - i)(1 + i) = 2
    direct = characteristic_determinant(K2, UNIT_INTERVAL, math.pi / 2, 1.0 + 0.0j)
    assert abs(direct - 2.0) <= 1e-12
    reduced = reduced_secular_determinant(K2, UNIT_INTERVAL, math.pi / 2, 1.0 + 0.0j)
    assert abs(reduced - 2.0) <= 1e-10
    u = quantum_graph_walk(K2, UNIT_INTERVAL, math.pi / 2).matrix
    assert abs(np.linalg.det(np.eye(2) - u) - direct) <= 1e-12


def test_determinant_at_t_zero_is_one():
    assert characteristic_determinant(K2, UNIT_INTERVAL, 1.1, 0.0 + 0.0j) == 1.0 + 0.0j
    assert abs(reduced_secular_determinant(HARD_STAR, HARD_PARAMS, 1.1, 0.0 + 0.0j)
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
            reduced = reduced_secular_determinant(g, q, k, t, weights=w)
        except PoleProximityError:
            continue
        direct = characteristic_determinant(g, q, k, t, weights=w)
        assert abs(reduced - direct) <= 1e-8 * max(1.0, abs(direct))
        checked += 1


def test_pole_guard_trips_on_the_unit_circle():
    with pytest.raises(PoleProximityError):
        reduced_secular_determinant(K2, UNIT_INTERVAL, math.pi, 1.0 + 0.0j)


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
        reduced_secular_determinant(g, q, 1.0, 1.0)
    assert str(err.value).startswith(f"edge {named} factor")


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
        scan_roots(HARD_STAR, q, 0.5, 2.0, grid_points=points)
        seen.append(dict(counts))
    arcs = 2 * len(HARD_STAR.edges)
    assert seen == [{"length": arcs, "arc_potential": arcs}] * 2


def test_reduced_determinant_vanishes_at_roots():
    scan = scan_roots(HARD_STAR, HARD_PARAMS, 0.5, 6.0)
    for root in scan.roots:
        assert abs(reduced_secular_determinant(HARD_STAR, HARD_PARAMS, root.k,
                                               1.0 + 0.0j)) <= 1e-6


# ---------------------------------------------------------------------------
# stationarity reformulations and scattering split
# ---------------------------------------------------------------------------


def test_equivalences_vanish_at_roots_and_agree_off_root():
    space = build_arc_space(HARD_STAR)
    shift = shift_operator(space, flip_flop_partition(HARD_STAR))
    root = scan_roots(HARD_STAR, HARD_PARAMS, 0.5, 6.0).roots[0]
    sv = stationary_vector(HARD_STAR, HARD_PARAMS, root.k)
    defects = stationarity_equivalences(HARD_STAR, HARD_PARAMS, root.k,
                                        shift @ sv.amplitudes)
    assert max(defects) <= 1e-8
    assert max(defects) <= 10.0 * max(min(defects), 1e-300)

    rng = np.random.default_rng(41)
    vec = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
    vec /= np.linalg.norm(vec)
    off = stationarity_equivalences(HARD_STAR, HARD_PARAMS, root.k + 0.3, vec)
    assert min(off) > 1e-3
    assert max(off) - min(off) <= 1e-10 * max(off)


def test_scattering_factorization_residual_is_tiny():
    rng = np.random.default_rng(43)
    for g in (K2, HARD_STAR, cycle_graph(5)):
        q = generic_params(g, rng, dirichlet=True)
        for k in (0.8, 2.6):
            fact = scattering_factorization(g, q, k)
            assert fact.residual <= 1e-12
            space = build_arc_space(g)
            expected = np.array(
                [np.exp(1j * q.length(i, j) * (k - q.arc_potential(i, j)))
                 for (i, j) in space.arcs])
            assert np.abs(fact.edge_phases - expected).max() == 0.0


def test_scattering_vertex_step_without_coupling_is_grover():
    q = QuantumGraphParams.build(HARD_STAR)
    fact = scattering_factorization(HARD_STAR, q, 1.7)
    grover = evolution(build_arc_space(HARD_STAR), flip_flop_partition(HARD_STAR),
                       grover_coins(HARD_STAR))
    assert np.abs(fact.vertex_step.matrix - grover.matrix).max() <= 1e-15
