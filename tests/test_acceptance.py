"""Acceptance gate: twelve end-to-end criteria, one verdict line each.

Every test prints exactly one ``ACCEPTANCE NN (name): PASS|FAIL`` line on
the real stdout, then fails or passes as usual.  Tolerances are fixed here
and must not be loosened; oracle values were computed before the library
code they exercise was written.
"""

import functools
import json
import math
import pathlib

import numpy as np

from helpers import (
    C4_P1,
    C4_P2,
    C4_P3,
    c4_graph,
    coin_families,
    equilateral_star_roots,
    generic_params,
    interval_roots,
    random_weights,
    ring_engine_histories,
    ring_recurrence_oracle,
    star_neumann_shooting_roots,
)
from qgwalk import (
    DIRICHLET,
    Graph,
    Partition,
    PoleProximityError,
    QuantumGraphParams,
    TransitionMatrix,
    VertexWeights,
    a_type_reduction_residual,
    adjacency_support_report,
    boundary_condition_report,
    build_arc_space,
    characteristic_determinant,
    compare_spectra,
    complete_graph,
    cycle_graph,
    direct_spectrum,
    enumerate_partitions,
    evolution,
    evolve,
    finding_probability,
    flip_flop_partition,
    g_type_reduction_residual,
    grover_coins,
    inverse_walk_residual,
    local_state,
    one_dim_walk,
    partition_change_residual,
    partition_count,
    path_graph,
    path_sum_probability,
    projector_coins,
    quantum_graph_coins,
    quantum_graph_walk,
    random_connected_graph,
    random_partition,
    random_reversible_transition,
    random_unitary_coins,
    reduced_secular_determinant,
    reverse_partition,
    sample_eigenfunction,
    scan_roots,
    scattering_factorization,
    shift_duality_residual,
    shift_operator,
    star_graph,
    stationarity_equivalences,
    stationary_vector,
    szegedy_coins,
    szegedy_spectrum,
    szegedy_walk,
    unitarity_defect,
)
from qgwalk.cli import main as cli_main

K2 = Graph.from_edges(2, [(1, 2)])
UNIT_INTERVAL = QuantumGraphParams.build(K2)
STAR = star_graph(3)
STAR_PARAMS = QuantumGraphParams.build(
    STAR,
    lengths={(1, 2): 1.0, (1, 3): 0.8, (1, 4): 1.3},
    potentials={(1, 2): 0.4, (1, 3): 0.0, (1, 4): -0.2},
    lambdas={1: 0.7, 2: 0.0, 3: 2.5, 4: DIRICHLET})


def _verdict(capsys, number, name, check):
    ok = False
    try:
        check()
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} ({name}): {'PASS' if ok else 'FAIL'}")


def _random_instance(rng):
    g = random_connected_graph(rng)
    return g, build_arc_space(g), random_partition(g, rng), random_unitary_coins(g, rng)


@functools.cache
def _star_scan():
    return scan_roots(STAR_PARAMS, 0.5, 6.0)


def test_01_unitarity(capsys):
    def check():
        g = c4_graph()
        rng = np.random.default_rng(101)
        for p in enumerate_partitions(g):
            for coins in coin_families(g, rng).values():
                for kind in ("G", "A"):
                    assert unitarity_defect(evolution(p, coins, kind).matrix) <= 1e-12
        for _ in range(20):
            _, _, rp, rcoins = _random_instance(rng)
            for kind in ("G", "A"):
                assert unitarity_defect(evolution(rp, rcoins, kind).matrix) <= 1e-12

    _verdict(capsys, 1, "unitarity", check)


def test_02_structural_identities(capsys):
    def check():
        rng = np.random.default_rng(102)
        for _ in range(50):
            g, space, p, coins = _random_instance(rng)
            for n in range(6):
                assert shift_duality_residual(evolution(p, coins, "G"), n) <= 1e-10
            assert inverse_walk_residual(space, coins) <= 1e-10
            assert partition_change_residual(p, random_partition(g, rng),
                                             coins) <= 1e-10
            assert g_type_reduction_residual(evolution(p, coins, "G")) <= 1e-10
            assert a_type_reduction_residual(evolution(p, coins, "G")) <= 1e-10
            assert adjacency_support_report(evolution(p, coins, "G")).ok
            assert adjacency_support_report(evolution(flip_flop_partition(g), coins, "G")).ok
        for g in (c4_graph(), path_graph(3)):
            ff = flip_flop_partition(g)
            for p in enumerate_partitions(g):
                assert (reverse_partition(p) == ff) == (p == ff)

    _verdict(capsys, 2, "structural-identities", check)


def test_03_partition_census(capsys):
    def check():
        for g in (K2, path_graph(3), c4_graph(), star_graph(3)):
            count = 1
            for v in g.vertices:
                count *= math.factorial(g.degree(v))
            assert partition_count(g) == count
            assert len(list(enumerate_partitions(g))) == count
        assert partition_count(c4_graph()) == 16
        g = c4_graph()
        quoted = [(C4_P1, 3, 1), (C4_P2, 1, 3), (C4_P3, 3, 3)]
        for successors, at_12, at_34 in quoted:
            p = Partition.from_successors(g, successors)
            assert p.successors[(1, 2)] == at_12
            assert p.successors[(3, 4)] == at_34
            assert p in enumerate_partitions(g)

    _verdict(capsys, 3, "partition-census", check)


def test_04_path_sum_oracle(capsys):
    def check():
        rng = np.random.default_rng(104)
        graphs = [cycle_graph(3), c4_graph(), path_graph(3), star_graph(3)]
        for g in graphs:
            space = build_arc_space(g)
            for coins in (grover_coins(g), random_unitary_coins(g, rng)):
                p = random_partition(g, rng)
                for kind in ("G", "A"):
                    op = evolution(p, coins, kind)
                    phi = rng.normal(size=g.degree(1)) + 1j * rng.normal(size=g.degree(1))
                    phi /= np.linalg.norm(phi)
                    for steps in range(5):
                        dist = finding_probability(evolve(op, local_state(space, 1, phi),
                                                          steps))
                        for event in g.vertices:
                            direct = path_sum_probability(p, coins, kind, 1,
                                                          phi, steps, event)
                            assert abs(direct - dist[event - 1]) <= 1e-10

    _verdict(capsys, 4, "path-sum-oracle", check)


def test_05_chiral_line_walk(capsys):
    def check():
        n, steps = 16, 10
        rng = np.random.default_rng(105)
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2)),
                     (0.6, 0.8)):
            init_r = np.zeros(n)
            init_r[4] = 1.0
            init_l = np.zeros(n)
            res = one_dim_walk(a, b, n, steps, init_r, init_l)
            want_r, want_l = ring_recurrence_oracle(a, b, n, steps, init_r, init_l)
            assert np.abs(res.right - want_r).max() <= 1e-12
            assert np.abs(res.left - want_l).max() <= 1e-12
            for hist in (res.right, res.left):
                for t in range(1, steps):
                    neighbor_sum = np.roll(hist[t], 1) + np.roll(hist[t], -1)
                    assert np.abs(hist[t + 1] - (a * neighbor_sum - hist[t - 1])).max() <= 1e-12
            mixed_r = rng.normal(size=n) + 1j * rng.normal(size=n)
            mixed_l = rng.normal(size=n) + 1j * rng.normal(size=n)
            scale = math.sqrt(np.sum(np.abs(mixed_r) ** 2 + np.abs(mixed_l) ** 2))
            mixed_r, mixed_l = mixed_r / scale, mixed_l / scale
            res = one_dim_walk(a, b, n, steps, mixed_r, mixed_l)
            eng_r, eng_l = ring_engine_histories(a, b, n, steps, mixed_r, mixed_l)
            assert np.abs(res.right - eng_r).max() <= 1e-12
            assert np.abs(res.left - eng_l).max() <= 1e-12

    _verdict(capsys, 5, "chiral-line-walk", check)


def test_06_szegedy_spectra(capsys):
    def check():
        rng = np.random.default_rng(106)
        graphs = [path_graph(3), star_graph(3),
                  random_connected_graph(rng, extra_edge_prob=0.0),
                  cycle_graph(3), cycle_graph(4), cycle_graph(5), cycle_graph(6),
                  complete_graph(4),
                  random_connected_graph(rng), random_connected_graph(rng)]
        for g in graphs:
            for t in (TransitionMatrix.uniform(g),
                      random_reversible_transition(g, rng)):
                result = szegedy_spectrum(t)
                match = compare_spectra(result.eigenvalues,
                                        direct_spectrum(szegedy_walk(t)))
                assert match.ok and match.max_angle_error <= 1e-8
                for lift in result.lifts:
                    if lift.genuine:
                        assert lift.residual <= 1e-8
                extra = len(g.edges) - g.vertex_count
                if extra > 0:
                    assert result.case == "general"
                    plus = np.sum(np.abs(result.eigenvalues - 1.0) <= 1e-9)
                    minus = np.sum(np.abs(result.eigenvalues + 1.0) <= 1e-9)
                    assert plus >= extra and minus >= extra

    _verdict(capsys, 6, "szegedy-spectra", check)


def test_07_metric_spectra(capsys):
    def check():
        neumann = scan_roots(UNIT_INTERVAL, 0.1, 10.0)
        closed = interval_roots(1.0, 10.0)
        assert len(neumann.roots) == len(closed) == 3
        for root, want in zip(neumann.roots, closed):
            assert abs(root.k - want) <= 1e-8
        dirichlet = scan_roots(
            QuantumGraphParams.build(K2, lambdas={1: DIRICHLET, 2: DIRICHLET}),
            0.1, 10.0)
        for root, want in zip(dirichlet.roots, closed):
            assert abs(root.k - want) <= 1e-8
        assert len(dirichlet.roots) == 3

        equilateral = QuantumGraphParams.build(STAR)
        scan = scan_roots(equilateral, 0.5, 7.0)
        oracle = star_neumann_shooting_roots([1.0, 1.0, 1.0], 0.5, 7.0)
        closed_star = [(k, m) for k, m in equilateral_star_roots(3, 1.0, 7.0) if k > 0.5]
        assert len(scan.roots) == len(oracle) == len(closed_star)
        for root, (want, mult) in zip(scan.roots, oracle):
            assert abs(root.k - want) <= 1e-7
            assert root.multiplicity == mult

    _verdict(capsys, 7, "metric-spectra", check)


def test_08_boundary_and_secular(capsys):
    def check():
        scan = _star_scan()
        assert scan.roots
        for root in scan.roots:
            sv = stationary_vector(STAR_PARAMS, root.k)
            report = boundary_condition_report(sample_eigenfunction(sv))
            assert report.ok
            assert max(row.residual for row in report.rows) <= 1e-8
            assert abs(reduced_secular_determinant(STAR_PARAMS, root.k,
                                                   1.0 + 0.0j)) <= 1e-6
        off_k = scan.roots[0].k + 1e-2
        off = stationary_vector(STAR_PARAMS, off_k, root_tol=10.0)
        off_report = boundary_condition_report(sample_eigenfunction(off))
        assert not off_report.ok
        assert abs(reduced_secular_determinant(STAR_PARAMS, off_k,
                                               1.0 + 0.0j)) > 1e-4
        try:
            stationary_vector(STAR_PARAMS, off_k)
        except ValueError:
            pass
        else:
            raise AssertionError("off-root stationary vector should be rejected")

    _verdict(capsys, 8, "boundary-and-secular", check)


def test_09_determinant_reduction(capsys):
    def check():
        rng = np.random.default_rng(109)
        graphs = [K2, path_graph(3), star_graph(3), cycle_graph(3), cycle_graph(4),
                  complete_graph(4)]
        checked = 0
        while checked < 200:
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
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        assert "det(I - t U(k))" in readme.read_text()

    _verdict(capsys, 9, "determinant-reduction", check)


def test_10_coin_limits(capsys):
    def check():
        for g in (c4_graph(), star_graph(3), complete_graph(4)):
            q0 = QuantumGraphParams.build(g, lengths=0.0)
            coins = quantum_graph_coins(q0, 1.3)
            reference = grover_coins(g)
            for v in g.vertices:
                assert np.array_equal(coins.block(v), reference.block(v).astype(complex))
            walk = quantum_graph_walk(q0, 1.3).matrix
            grover = evolution(flip_flop_partition(g),
                               reference).matrix
            assert np.abs(walk - grover).max() == 0.0

        rng = np.random.default_rng(110)
        for g in (c4_graph(), star_graph(3)):
            q0 = QuantumGraphParams.build(g, lengths=0.0)
            for t in (TransitionMatrix.uniform(g),
                      random_reversible_transition(g, rng)):
                w = VertexWeights(g, {
                    v: np.sqrt(np.array([t.entry(v, l) for l in g.neighbors(v)]))
                    for v in g.vertices})
                projected = projector_coins(q0, w, 2.2)
                reference = szegedy_coins(t)
                for v in g.vertices:
                    assert np.abs(projected.block(v) - reference.block(v)).max() <= 1e-12

    _verdict(capsys, 10, "coin-limits", check)


def test_11_stationarity_forms(capsys):
    def check():
        space = build_arc_space(STAR)
        shift = shift_operator(flip_flop_partition(STAR))
        scan = _star_scan()
        for root in scan.roots:
            sv = stationary_vector(STAR_PARAMS, root.k)
            defects = stationarity_equivalences(sv.walk, shift @ sv.amplitudes)
            assert max(defects) <= 1e-8
            assert max(defects) <= 10.0 * max(min(defects), 1e-300)
        rng = np.random.default_rng(111)
        vec = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
        vec /= np.linalg.norm(vec)
        off = stationarity_equivalences(quantum_graph_walk(STAR_PARAMS, scan.roots[0].k + 0.3),
                                        vec)
        assert min(off) > 1e-3

        for q in (STAR_PARAMS, generic_params(cycle_graph(5), rng)):
            for k in (0.8, 1.9, 3.4):
                assert scattering_factorization(q, k).residual <= 1e-12

    _verdict(capsys, 11, "stationarity-forms", check)


def test_12_cli_determinism(capsys, tmp_path):
    configs = {
        "evolve": {
            "graph": {"family": "cycle", "n": 4},
            "walk": {"kind": "G", "partition": "flip-flop",
                     "coins": {"family": "grover"}},
            "evolve": {"steps": 4, "initial": {"arc": [2, 1]}},
        },
        "verify": {
            "graph": {"family": "cycle", "n": 4},
            "walk": {"coins": {"family": "random"}},
            "verify": {"steps": 4, "other_partition": "flip-flop"},
        },
        "szegedy": {
            "graph": {"family": "cycle", "n": 4},
            "szegedy": {"transition": "uniform"},
        },
        "qg-scan": {
            "graph": {"vertices": 2, "edges": [[1, 2]]},
            "quantum_graph": {"lengths": 1.0, "lambdas": 0.0, "potentials": 0.0},
            "scan": {"k_min": 0.5, "k_max": 4.0},
        },
        "qg-eigenfunction": {
            "graph": {"vertices": 2, "edges": [[1, 2]]},
            "quantum_graph": {"lengths": 1.0, "lambdas": 0.0, "potentials": 0.0},
            "eigenfunction": {"k": math.pi, "samples_per_edge": 21,
                              "root_tol": 1e-6},
        },
        "partitions": {
            "graph": {"family": "cycle", "n": 4},
            "partitions": {"cap": 1000},
        },
    }

    def check():
        for command, config in configs.items():
            runs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{command}-{attempt}"
                out.mkdir()
                cfg = out / "config.json"
                cfg.write_text(json.dumps(config))
                assert cli_main([command, "--config", str(cfg), "--out", str(out),
                                 "--seed", "7"]) == 0
                runs.append(sorted(f for f in out.iterdir() if f.suffix == ".csv"))
            names_a = [f.name for f in runs[0]]
            names_b = [f.name for f in runs[1]]
            assert names_a == names_b and names_a
            for fa, fb in zip(runs[0], runs[1]):
                assert fa.read_bytes() == fb.read_bytes()

    _verdict(capsys, 12, "cli-determinism", check)
