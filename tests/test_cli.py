"""Command-line driver: subcommands, exit codes, deterministic output."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from helpers import CONFIG_DIR, config_command
from qgwalk import (
    CoinSet,
    Graph,
    build_arc_space,
    cycle_graph,
    evolution,
    evolve,
    finding_probability,
    flip_flop_partition,
    point_mass,
    random_partition,
    random_unitary_coins,
)
from qgwalk import cli, dynamics
from qgwalk.cli import main


def run(tmp_path, config, command, *args, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), "--out", str(tmp_path), *args])


def csv_lines(tmp_path, filename):
    return (tmp_path / filename).read_text().splitlines()


EVOLVE_CONFIG = {
    "graph": {"family": "cycle", "n": 4},
    "walk": {"kind": "G", "partition": "flip-flop", "coins": {"family": "grover"}},
    "evolve": {"steps": 3, "initial": {"arc": [2, 1]}},
}

VERIFY_CONFIG = {
    "graph": {"family": "cycle", "n": 4},
    "walk": {"coins": {"family": "random", "seed": 5}},
    "verify": {"steps": 4, "other_partition": "flip-flop"},
}

SZEGEDY_CONFIG = {
    "graph": {"family": "cycle", "n": 4},
    "szegedy": {"transition": "uniform"},
}

SCAN_CONFIG = {
    "graph": {"vertices": 2, "edges": [[1, 2]]},
    "quantum_graph": {"lengths": 1.0, "lambdas": 0.0, "potentials": 0.0},
    "scan": {"k_min": 0.5, "k_max": 7.0},
}

EIGEN_CONFIG = {
    "graph": {"vertices": 2, "edges": [[1, 2]]},
    "quantum_graph": {"lengths": 1.0, "lambdas": 0.0, "potentials": 0.0},
    "eigenfunction": {"k": math.pi, "samples_per_edge": 21, "root_tol": 1e-6},
}

PARTITIONS_CONFIG = {
    "graph": {"family": "cycle", "n": 4},
    "partitions": {"cap": 1000},
}


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_evolve_writes_the_distribution(tmp_path):
    assert run(tmp_path, EVOLVE_CONFIG, "evolve") == 0
    lines = csv_lines(tmp_path, "distribution.csv")
    assert lines[0] == "step,vertex,probability"
    assert len(lines) == 1 + 4 * 4  # steps 0..3, four vertices each


def test_evolve_one_step_moves_the_grover_mass(tmp_path):
    config = dict(EVOLVE_CONFIG, evolve={"steps": 1, "initial": {"arc": [2, 1]}})
    assert run(tmp_path, config, "evolve") == 0
    rows = [line.split(",") for line in csv_lines(tmp_path, "distribution.csv")[1:]]
    probs = {(int(s), int(v)): float(p) for s, v, p in rows}
    assert probs[(0, 2)] == 1.0
    assert probs[(1, 1)] == 1.0
    assert probs[(1, 2)] == probs[(1, 3)] == probs[(1, 4)] == 0.0


def test_verify_reports_every_identity(tmp_path):
    assert run(tmp_path, VERIFY_CONFIG, "verify") == 0
    lines = csv_lines(tmp_path, "identities.csv")
    assert lines[0] == "identity,residual,tolerance,pass"
    assert len(lines) == 9
    assert all(line.endswith(",True") for line in lines[1:])


def test_verify_fails_under_an_impossible_tolerance(tmp_path):
    assert run(tmp_path, VERIFY_CONFIG, "verify", "--tol", "1e-18") == 1
    lines = csv_lines(tmp_path, "identities.csv")
    assert any(line.endswith(",False") for line in lines[1:])


def test_verify_names_each_failing_identity(tmp_path, capsys):
    assert run(tmp_path, VERIFY_CONFIG, "verify", "--tol", "0") == 1
    rows = [line.split(",") for line in csv_lines(tmp_path, "identities.csv")[1:]]
    failing = [(name, float(residual)) for name, residual, _, ok in rows if ok == "False"]
    assert failing
    assert capsys.readouterr().err.splitlines() == [
        f"verification failure: {name} residual {residual:.3e} exceeds --tol 0"
        for name, residual in failing]


def test_szegedy_writes_spectrum_and_matching(tmp_path):
    assert run(tmp_path, SZEGEDY_CONFIG, "szegedy") == 0
    spectrum = csv_lines(tmp_path, "spectrum.csv")
    assert spectrum[0] == "index,predicted_re,predicted_im,computed_re,computed_im"
    assert len(spectrum) == 9
    matching = csv_lines(tmp_path, "matching.csv")
    assert matching[0] == "case,size,max_angle_error,shift,max_lift_residual,ok"
    assert matching[1].startswith("unicyclic,8,") and matching[1].endswith(",True")


def test_scan_writes_grid_and_roots(tmp_path):
    assert run(tmp_path, SCAN_CONFIG, "qg-scan") == 0
    scan = csv_lines(tmp_path, "scan.csv")
    assert scan[0] == "k,indicator,det_re,det_im,reduced_re,reduced_im"
    roots = csv_lines(tmp_path, "roots.csv")
    assert roots[0] == "k,indicator,multiplicity"
    ks = [float(line.split(",")[0]) for line in roots[1:]]
    assert len(ks) == 2
    assert abs(ks[0] - math.pi) <= 1e-8 and abs(ks[1] - 2 * math.pi) <= 1e-8


def test_scan_with_no_roots_leaves_only_the_header(tmp_path):
    config = dict(SCAN_CONFIG, scan={"k_min": 0.1, "k_max": 1.0})
    assert run(tmp_path, config, "qg-scan") == 0
    assert csv_lines(tmp_path, "roots.csv") == ["k,indicator,multiplicity"]


def test_scan_exits_1_when_the_determinants_disagree(tmp_path, capsys, monkeypatch):
    honest = cli.scan_roots

    def planted(*args, **kwargs):
        scan = honest(*args, **kwargs)
        reduced = scan.reduced_determinants.copy()
        reduced[7] += 2e-8 * max(1.0, abs(scan.determinants[7]))
        return dataclasses.replace(scan, reduced_determinants=reduced)

    monkeypatch.setattr(cli, "scan_roots", planted)
    assert run(tmp_path, dict(SCAN_CONFIG, scan={"k_min": 3.0, "k_max": 3.3, "grid_points": 50}),
               "qg-scan") == 1
    k = float(np.linspace(3.0, 3.3, 50)[7])
    assert capsys.readouterr().err == ("verification failure: reduced determinant off the "
                                       f"direct one by 2.000e-08 at k={k!r}\n")
    assert len(csv_lines(tmp_path, "scan.csv")) == 51
    assert len(csv_lines(tmp_path, "roots.csv")) == 2


def test_szegedy_exits_1_when_a_lift_residual_exceeds_tol(tmp_path, capsys, monkeypatch):
    honest = cli.szegedy_spectrum

    def planted(t):
        result = honest(t)
        lifts = list(result.lifts)
        i = next(i for i, lift in enumerate(lifts) if lift.genuine)
        lifts[i] = dataclasses.replace(lifts[i], residual=2e-8)
        return dataclasses.replace(result, lifts=tuple(lifts))

    monkeypatch.setattr(cli, "szegedy_spectrum", planted)
    assert run(tmp_path, SZEGEDY_CONFIG, "szegedy") == 1
    assert capsys.readouterr().err == ("verification failure: max_lift_residual 2.000e-08 "
                                       "exceeds --tol 1e-08\n")
    assert len(csv_lines(tmp_path, "spectrum.csv")) == 9
    matching = csv_lines(tmp_path, "matching.csv")[1].split(",")
    assert matching[4] == "2e-08" and matching[5] == "True"  # the spectra still agree


def plant_a_rotated_spectrum(monkeypatch, angle):
    """Turn every eigenvalue that ``direct_spectrum`` returns by ``angle``."""
    honest = cli.direct_spectrum
    monkeypatch.setattr(cli, "direct_spectrum", lambda walk: honest(walk) * np.exp(1j * angle))


def test_szegedy_exits_1_when_the_spectra_disagree(tmp_path, capsys, monkeypatch):
    plant_a_rotated_spectrum(monkeypatch, 2e-8)
    assert run(tmp_path, SZEGEDY_CONFIG, "szegedy") == 1
    assert capsys.readouterr().err == ("verification failure: max_angle_error 2.000e-08 "
                                       "exceeds --tol 1e-08\n")
    assert csv_lines(tmp_path, "matching.csv")[1].endswith(",False")


def test_szegedy_names_both_failed_checks(tmp_path, capsys, monkeypatch):
    plant_a_rotated_spectrum(monkeypatch, 2e-8)
    honest = cli.szegedy_spectrum

    def planted(t):
        result = honest(t)
        return dataclasses.replace(result, lifts=tuple(
            dataclasses.replace(lift, residual=3e-8) for lift in result.lifts))

    monkeypatch.setattr(cli, "szegedy_spectrum", planted)
    assert run(tmp_path, SZEGEDY_CONFIG, "szegedy") == 1
    assert capsys.readouterr().err.splitlines() == [
        "verification failure: max_angle_error 2.000e-08 exceeds --tol 1e-08",
        "verification failure: max_lift_residual 3.000e-08 exceeds --tol 1e-08"]


def test_a_library_arithmetic_error_is_a_named_verification_failure(tmp_path, capsys,
                                                                    monkeypatch):
    def off_circle(walk):
        raise ArithmeticError("eigenvalue modulus off the unit circle by 1.000e-03")

    monkeypatch.setattr(cli, "direct_spectrum", off_circle)
    assert run(tmp_path, SZEGEDY_CONFIG, "szegedy") == 1
    assert capsys.readouterr() == ("", "verification failure: eigenvalue modulus off the unit "
                                       "circle by 1.000e-03\n")


EIGEN_GATES = ["symmetry_residual", "pp_wq_max_diff", "max_spread"]


@pytest.mark.parametrize("gate", EIGEN_GATES)
def test_eigenfunction_exits_1_when_an_agreement_exceeds_tol(tmp_path, capsys, monkeypatch, gate):
    if gate == "max_spread":
        honest = cli.stationarity_equivalences
        monkeypatch.setattr(cli, "stationarity_equivalences",
                            lambda op, a: (honest(op, a)[0] + 2e-8, *honest(op, a)[1:]))
    else:
        honest = cli.sample_eigenfunction
        monkeypatch.setattr(cli, "sample_eigenfunction", lambda sv, samples: dataclasses.replace(
            honest(sv, samples), **{gate: 2e-8}))
    assert run(tmp_path, EIGEN_CONFIG, "qg-eigenfunction") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"verification failure: {gate} 2.0") and err.endswith(
        " exceeds --tol 1e-08\n"), err
    assert [name for name in EIGEN_GATES if name in err] == [gate]
    assert all(line.endswith(",True") for line in csv_lines(tmp_path, "boundary.csv")[1:])
    assert len(csv_lines(tmp_path, "equivalences.csv")) == 6


def test_scan_skips_the_reduced_determinant_poles_in_its_gate(tmp_path):
    # an interval of length pi puts a pole of the reduced determinant at every integer k
    config = {"graph": {"family": "path", "n": 2}, "quantum_graph": {"lengths": math.pi},
              "scan": {"k_min": 1.0, "k_max": 4.0, "grid_points": 7}}
    assert run(tmp_path, config, "qg-scan") == 0
    rows = [line.split(",") for line in csv_lines(tmp_path, "scan.csv")[1:]]
    assert [float(k) for k, *_, re, im in rows if re == im == "nan"] == [1.0, 2.0, 3.0, 4.0]
    assert len(csv_lines(tmp_path, "roots.csv")) == 5


def test_eigenfunction_outputs(tmp_path):
    assert run(tmp_path, EIGEN_CONFIG, "qg-eigenfunction") == 0
    values = csv_lines(tmp_path, "eigenfunction.csv")
    assert values[0] == "edge_u,edge_v,x,value_re,value_im"
    assert len(values) == 1 + 21
    boundary = csv_lines(tmp_path, "boundary.csv")
    assert boundary[0] == "vertex,condition,residual,ok"
    assert all(line.endswith(",True") for line in boundary[1:])
    equiv = csv_lines(tmp_path, "equivalences.csv")
    assert equiv[0] == "form,defect"
    assert [line.split(",")[0] for line in equiv[1:]] == [
        "a_type", "g_type_dagger", "a_type_dagger_shifted", "g_type_shifted",
        "max_spread"]


def test_eigenfunction_off_root_exits_one_but_still_reports(tmp_path, capsys):
    config = dict(EIGEN_CONFIG,
                  eigenfunction={"k": 2.5, "samples_per_edge": 21, "root_tol": 1e-6})
    assert run(tmp_path, config, "qg-eigenfunction") == 1
    failing = [line.split(",") for line in csv_lines(tmp_path, "boundary.csv")[1:]
               if line.endswith(",False")]
    assert failing[0][:2] == ["0", "I"]  # the stationarity defect is over --tol too
    defect = float(failing[0][2])
    # the off-root line and one summary of the failing boundary rows, on stderr only
    vertex, condition, residual, _ = max(failing, key=lambda row: float(row[2]))
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"verification failure: k=2.5 is not a root: stationarity defect {defect:.3e} "
        "exceeds 1e-06",
        f"verification failure: boundary residual {float(residual):.3e} exceeds --tol 1e-08 "
        f"(condition {condition} at vertex {vertex}, worst of {len(failing)} failing rows)"]


def test_partitions_enumeration(tmp_path):
    assert run(tmp_path, PARTITIONS_CONFIG, "partitions") == 0
    lines = csv_lines(tmp_path, "partitions.csv")
    assert lines[0] == "index,cycle_count,cycle_lengths,is_flip_flop"
    assert len(lines) == 17
    assert sum(1 for line in lines[1:] if line.endswith(",True")) == 1


def test_partitions_streams_its_rows(tmp_path):
    # K4 with a pendant vertex on 1 and one on 2: 4! 4! 3! 3! = 20736 partitions,
    # about 18 MiB at the peak when the partitions and their rows are all held
    config = {"graph": {"vertices": 6, "edges": [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3],
                                                 [2, 4], [2, 6], [3, 4]]},
              "partitions": {}}
    tracemalloc.start()
    try:
        assert run(tmp_path, config, "partitions") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    lines = csv_lines(tmp_path, "partitions.csv")
    assert len(lines) == 1 + 20736
    assert lines[1] == "0,8,2;2;2;2;2;2;2;2,True"


COMMAND_OUTPUTS = {
    "evolve": ["distribution.csv"],
    "verify": ["identities.csv"],
    "szegedy": ["spectrum.csv", "matching.csv"],
    "qg-scan": ["scan.csv", "roots.csv"],
    "qg-eigenfunction": ["eigenfunction.csv", "boundary.csv", "equivalences.csv"],
    "partitions": ["partitions.csv"],
}


@pytest.mark.parametrize("name", sorted(path.name for path in CONFIG_DIR.glob("*.json")))
def test_every_shipped_config_runs_unmodified(tmp_path, name):
    config = CONFIG_DIR / name
    command = config_command(json.loads(config.read_text()))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qgwalk", command, "--config", str(config), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for output in COMMAND_OUTPUTS[command]:
        lines = csv_lines(tmp_path, output)
        assert len(lines) >= 2 and all(lines), (output, lines[:3])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config,command,outputs", [
    (EVOLVE_CONFIG, "evolve", ["distribution.csv"]),
    (VERIFY_CONFIG, "verify", ["identities.csv"]),
    (SZEGEDY_CONFIG, "szegedy", ["spectrum.csv", "matching.csv"]),
    (SCAN_CONFIG, "qg-scan", ["scan.csv", "roots.csv"]),
    (EIGEN_CONFIG, "qg-eigenfunction",
     ["eigenfunction.csv", "boundary.csv", "equivalences.csv"]),
    (PARTITIONS_CONFIG, "partitions", ["partitions.csv"]),
])
def test_reruns_are_byte_identical(tmp_path, config, command, outputs):
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out in (first, second):
        out.mkdir()
        path = out / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_seed_changes_random_coins_but_stays_reproducible(tmp_path):
    # no seed in the coins spec, so the --seed flag feeds the generator
    config = dict(VERIFY_CONFIG, walk={"coins": {"family": "random"}})
    outs = []
    for seed, sub in (("3", "a"), ("3", "b"), ("4", "c")):
        out = tmp_path / sub
        out.mkdir()
        path = out / "config.json"
        path.write_text(json.dumps(config))
        assert main(["verify", "--config", str(path), "--out", str(out),
                     "--seed", seed]) == 0
        outs.append((out / "identities.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


# ---------------------------------------------------------------------------
# validation failures (exit code 2)
# ---------------------------------------------------------------------------


def test_unknown_config_key_is_rejected(tmp_path):
    config = dict(EVOLVE_CONFIG, typo={"steps": 1})
    assert run(tmp_path, config, "evolve") == 2


def test_unknown_coin_family_is_rejected(tmp_path):
    config = dict(VERIFY_CONFIG, walk={"coins": {"family": "bogus"}})
    assert run(tmp_path, config, "verify") == 2


def test_duplicate_edges_are_rejected(tmp_path):
    config = dict(SCAN_CONFIG, graph={"vertices": 2, "edges": [[1, 2], [2, 1]]})
    assert run(tmp_path, config, "qg-scan") == 2


def test_oversize_graph_is_rejected(tmp_path):
    config = dict(SZEGEDY_CONFIG, graph={"family": "complete", "n": 50})
    assert run(tmp_path, config, "szegedy") == 2


def test_missing_section_for_subcommand(tmp_path):
    assert run(tmp_path, SZEGEDY_CONFIG, "evolve") == 2


def test_missing_config_file(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("edge", [[2], [1, 2, 3], "12", {"u": 1}])
def test_malformed_edge_is_a_config_error(tmp_path, capsys, edge):
    config = dict(EVOLVE_CONFIG, graph={"vertices": 3, "edges": [[1, 2], edge]})
    assert run(tmp_path, config, "evolve") == 2
    assert "is not a [u, v] pair of integers" in capsys.readouterr().err


@pytest.mark.parametrize("where,config", [
    ("walk.coins", dict(EVOLVE_CONFIG, walk={"coins": "grover"})),
    ("evolve.initial", dict(EVOLVE_CONFIG, evolve={"steps": 1, "initial": "edge"})),
    ("evolve.initial.local",
     dict(EVOLVE_CONFIG, evolve={"steps": 1, "initial": {"local": [1, [1, 0]]}})),
])
def test_non_object_subsection_is_a_config_error(tmp_path, capsys, where, config):
    assert run(tmp_path, config, "evolve") == 2
    assert capsys.readouterr().err == f"error: '{where}' must be a JSON object\n"


@pytest.mark.parametrize("where,config", [
    ("graph.n", dict(EVOLVE_CONFIG, graph={"family": "cycle", "n": [4]})),
    ("graph.vertices", dict(EVOLVE_CONFIG, graph={"vertices": None, "edges": [[1, 2]]})),
    ("evolve.initial.arc", dict(EVOLVE_CONFIG, evolve={"steps": 1, "initial": {"arc": 5}})),
])
def test_wrong_typed_value_is_a_config_error(tmp_path, capsys, where, config):
    assert run(tmp_path, config, "evolve") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{where}' must be ") and err.count("\n") == 1


C4_UNIFORM = [[0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0]]


@pytest.mark.parametrize("where,command,config", [
    ("graph.n", "evolve", dict(EVOLVE_CONFIG, graph={"family": "cycle", "n": 4.9})),
    ("evolve.steps", "evolve", dict(EVOLVE_CONFIG, evolve={"steps": 2.7})),
    ("evolve.steps", "evolve", dict(EVOLVE_CONFIG, evolve={"steps": True})),
    ("evolve.steps", "evolve", dict(EVOLVE_CONFIG, evolve={"steps": "3"})),
    ("evolve.initial.amplitudes.1,2[0]", "evolve", dict(EVOLVE_CONFIG, evolve={
        "steps": 1, "initial": {"amplitudes": {"1,2": [True, 0]}}})),
    ("evolve.initial.amplitudes.1,2", "evolve", dict(EVOLVE_CONFIG, evolve={
        "steps": 1, "initial": {"amplitudes": {"1,2": 10**400}}})),
    ("evolve.initial.local.amplitudes", "evolve", dict(EVOLVE_CONFIG, evolve={
        "steps": 1, "initial": {"local": {"vertex": 1, "amplitudes": ["1", 0]}}})),
    ("quantum_graph.lengths", "qg-scan", dict(SCAN_CONFIG, quantum_graph={"lengths": True})),
    ("quantum_graph.lambdas", "qg-scan", dict(SCAN_CONFIG, quantum_graph={"lambdas": False})),
    ("scan.grid_points", "qg-scan",
     dict(SCAN_CONFIG, scan={"k_min": 0.5, "k_max": 7.0, "grid_points": 50.9})),
    ("transition", "szegedy",
     dict(SZEGEDY_CONFIG, szegedy={"transition": [C4_UNIFORM[0], [0.5, 0, "0.5", 0],
                                                  *C4_UNIFORM[2:]]})),
])
def test_numeric_values_must_be_json_numbers(tmp_path, capsys, where, command, config):
    assert run(tmp_path, config, command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{where}' must be ") and err.count("\n") == 1


def test_an_integral_float_is_an_integer(tmp_path):
    for sub, steps in (("int", 3), ("float", 3.0)):
        (tmp_path / sub).mkdir()
        assert run(tmp_path / sub, dict(EVOLVE_CONFIG, evolve={"steps": steps}), "evolve") == 0
    assert csv_lines(tmp_path / "int", "distribution.csv") == csv_lines(tmp_path / "float",
                                                                         "distribution.csv")


@pytest.mark.parametrize("kind", ["G", "A"])
def test_verify_rejects_a_walk_kind(tmp_path, capsys, kind):
    config = dict(VERIFY_CONFIG, walk=dict(VERIFY_CONFIG["walk"], kind=kind))
    assert run(tmp_path, config, "verify") == 2
    assert "'walk.kind'" in capsys.readouterr().err
    assert not (tmp_path / "identities.csv").exists()


@pytest.mark.parametrize("graph,message", [
    ({"family": "cycle", "n": 10**5}, "a graph on 100000 vertices has over 2000 arcs"),
    ({"vertices": 10**5, "edges": [[1, 2]]}, "a graph on 100000 vertices has over 2000 arcs"),
    ({"vertices": 3, "edges": [[1, 2]] * 1001}, "graph has 2002 arcs, over the 2000 limit"),
])
def test_oversize_graph_is_rejected_before_it_is_built(tmp_path, capsys, graph, message):
    assert run(tmp_path, dict(EVOLVE_CONFIG, graph=graph), "evolve") == 2
    assert message in capsys.readouterr().err


def test_a_family_is_counted_before_it_is_built(tmp_path, capsys):
    # K1001 passes the vertex-count check: only its 1001000 arcs are over the limit
    with mock.patch.object(cli, "complete_graph") as build:
        config = {"graph": {"family": "complete", "n": 1001}, "partitions": {}}
        assert run(tmp_path, config, "partitions") == 2
    build.assert_not_called()
    assert capsys.readouterr().err == "error: graph has 1001000 arcs, over the 2000 limit\n"


def test_a_family_with_too_few_vertices_is_not_counted_as_oversize(tmp_path, capsys):
    config = {"graph": {"family": "complete", "n": -100000}, "partitions": {}}
    assert run(tmp_path, config, "partitions") == 2
    assert capsys.readouterr().err == "error: graph needs at least two vertices\n"


def test_an_out_path_naming_a_file_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(EVOLVE_CONFIG))
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot use --out {str(out)!r}: ")
    assert out.read_text() == ""


def test_a_config_error_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "newdir"
    missing = tmp_path / "missing.json"
    assert main(["evolve", "--config", str(missing), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config: ")
    assert not out.exists()


def test_a_scan_into_a_file_is_a_config_error_after_the_scan(tmp_path, capsys):
    # the directory is made at the first write, so the scan runs and then fails
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SCAN_CONFIG, scan={"k_min": 3.0, "k_max": 3.3})))
    out = tmp_path / "taken"
    out.write_text("kept")
    assert main(["qg-scan", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot use --out {str(out)!r}: ")
    assert out.read_text() == "kept"


def test_an_unwritable_output_file_is_a_config_error(tmp_path, capsys):
    (tmp_path / "partitions.csv").mkdir()
    assert run(tmp_path, PARTITIONS_CONFIG, "partitions") == 2
    out = str(tmp_path / "partitions.csv")
    assert capsys.readouterr().err.startswith(f"error: cannot write {out!r}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "partitions.csv"]
    assert not any((tmp_path / "partitions.csv").iterdir())


def test_a_config_nested_too_deeply_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: config nests too deeply to parse\n"


def test_successor_off_the_neighbourhood_is_a_config_error(tmp_path, capsys):
    walk = {"partition": {"successors": {"1,2": 5, "3,2": 1, "2,1": 4, "4,1": 2,
                                         "2,3": 4, "4,3": 2, "3,4": 1, "1,4": 3}}}
    assert run(tmp_path, dict(VERIFY_CONFIG, walk=walk), "verify") == 2
    assert "error: successor of (1, 2) is 5, not a neighbour of 2" in capsys.readouterr().err


@pytest.mark.parametrize("command,config,message", [
    ("qg-scan", dict(SCAN_CONFIG, quantum_graph={"lengths": {"1,2": 1.0, "2,1": 2.0}}),
     "edge (1, 2) is given twice"),
    ("qg-scan", dict(SCAN_CONFIG, quantum_graph={"potentials": {"1,2": 0.5, "01,2": 0.5}}),
     "'quantum_graph.potentials' gives (1, 2) twice"),
    ("qg-scan", dict(SCAN_CONFIG, quantum_graph={"lambdas": {"1": 0.0, "01": 1.0, "2": 0.0}}),
     "'quantum_graph.lambdas' gives 1 twice"),
    ("evolve", dict(EVOLVE_CONFIG, evolve={"steps": 1, "initial": {
        "amplitudes": {"1,2": 1.0, " 1,2": 0.0}}}),
     "'evolve.initial.amplitudes' gives (1, 2) twice"),
    ("verify", dict(VERIFY_CONFIG, walk={"partition": {"successors": {
        "1,2": 3, "3,2": 1, "2,1": 4, "4,1": 2, "2,3": 4, "4,3": 2, "3,4": 1, "1,4": 3,
        "01,2": 1}}}),
     "'partition.successors' gives (1, 2) twice"),
    ("evolve", dict(EVOLVE_CONFIG, walk={"coins": {"family": "explicit", "blocks": {
        "1": [[1, 0], [0, 1]], "2": [[1, 0], [0, 1]], "3": [[1, 0], [0, 1]],
        "4": [[1, 0], [0, 1]], "+4": [[0, 1], [1, 0]]}}}),
     "'walk.coins.blocks' gives 4 twice"),
    ("evolve", dict(EVOLVE_CONFIG, quantum_graph={}, walk={"coins": {
        "family": "projector", "k": 1.0, "weights": {"1": [1, 0], "01": [0, 1]}}}),
     "'walk.coins.weights' gives 1 twice"),
])
def test_two_keys_naming_one_arc_or_vertex_are_a_config_error(tmp_path, capsys, command,
                                                               config, message):
    assert run(tmp_path, config, command) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text,key", [
    # one key written twice, which a plain json.load settles by keeping the last
    ('{"graph": {"vertices": 2, "edges": [[1, 2]]}, "quantum_graph": {"lengths": '
     '{"1,2": 1.0, "1,2": 2.0}}, "scan": {"k_min": 1.0, "k_max": 2.0}}', "1,2"),
    ('{"graph": {"vertices": 2, "edges": [[1, 2]]}, "scan": {"k_min": 1.0, "k_max": 2.0}, '
     '"scan": {"k_min": 3.0, "k_max": 3.3}}', "scan"),
])
def test_a_key_repeated_in_one_object_is_a_config_error(tmp_path, capsys, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["qg-scan", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: config gives the key {key!r} twice in one object\n"
    assert not (tmp_path / "roots.csv").exists()


def test_infinite_scan_window_is_a_config_error(tmp_path, capsys):
    config = dict(SCAN_CONFIG, scan={"k_min": 0.5, "k_max": math.inf})
    assert run(tmp_path, config, "qg-scan") == 2
    assert capsys.readouterr().err == "error: need 0 < k_min < k_max < inf\n"


@pytest.mark.parametrize("scan,points", [
    ({"k_min": 0.5, "k_max": 1e6}, 1999999000),
    ({"k_min": 0.5, "k_max": 7.0, "grid_points": 10**9}, 10**9),
])
def test_oversize_scan_grid_is_a_config_error(tmp_path, capsys, scan, points):
    assert run(tmp_path, dict(SCAN_CONFIG, scan=scan), "qg-scan") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scan grid of {points} points is over the 1000000 limit")


REFINE_CONFIG = dict(SCAN_CONFIG, scan={"k_min": 3.0, "k_max": 3.3, "grid_points": 50})


@pytest.mark.parametrize("tol", [0, -1, math.nan])
def test_nonpositive_refine_tol_is_a_config_error(tmp_path, capsys, tol):
    config = dict(REFINE_CONFIG, scan=dict(REFINE_CONFIG["scan"], refine_tol=tol))
    assert run(tmp_path, config, "qg-scan") == 2
    assert capsys.readouterr().err.startswith("error: refine_tol must be positive, got ")


def test_refine_tol_under_the_float_spacing_still_ends(tmp_path):
    def roots(config, sub):
        out = tmp_path / sub
        out.mkdir()
        assert run(out, config, "qg-scan") == 0
        return [[float(x) for x in line.split(",")] for line in csv_lines(out, "roots.csv")[1:]]

    default = roots(REFINE_CONFIG, "default")
    tiny = roots(dict(REFINE_CONFIG, scan=dict(REFINE_CONFIG["scan"], refine_tol=1e-300)),
                 "tiny")
    assert len(default) == len(tiny) == 1
    assert abs(tiny[0][0] - default[0][0]) <= 1e-9 and abs(tiny[0][0] - math.pi) <= 1e-9
    assert tiny[0][2] == default[0][2] == 1


@pytest.mark.parametrize("tol", [-1, math.nan])
def test_negative_or_nan_root_tol_is_a_config_error(tmp_path, capsys, tol):
    config = dict(REFINE_CONFIG, scan=dict(REFINE_CONFIG["scan"], root_tol=tol))
    assert run(tmp_path, config, "qg-scan") == 2
    assert capsys.readouterr().err.startswith("error: root_tol must be nonnegative, got ")
    assert not (tmp_path / "roots.csv").exists()


@pytest.mark.parametrize("tol", [-1, math.nan])
def test_negative_or_nan_eigenfunction_root_tol_is_a_config_error(tmp_path, capsys, tol):
    config = dict(EIGEN_CONFIG, eigenfunction=dict(EIGEN_CONFIG["eigenfunction"], root_tol=tol))
    assert run(tmp_path, config, "qg-eigenfunction") == 2
    assert capsys.readouterr().err.startswith("error: root_tol must be nonnegative, got ")
    assert not (tmp_path / "boundary.csv").exists()


def test_nan_amplitude_is_a_config_error(tmp_path, capsys):
    # json reads a bare NaN token, and a NaN norm is not within any tolerance of 1
    config = dict(EVOLVE_CONFIG, evolve={"steps": 3, "initial": {"amplitudes": {"1,2": math.nan}}})
    assert run(tmp_path, config, "evolve") == 2
    assert capsys.readouterr().err == "error: arc amplitude map must have unit norm, got nan\n"
    assert not (tmp_path / "distribution.csv").exists()


def test_nan_projector_weight_names_its_vertex(tmp_path, capsys):
    weights = {str(v): [math.nan if v == 3 else 1.0, 0.0] for v in range(1, 5)}
    config = {"graph": {"family": "cycle", "n": 4}, "quantum_graph": {"lengths": 1.0},
              "walk": {"coins": {"family": "projector", "k": 1.0, "weights": weights}},
              "evolve": {"steps": 3}}
    assert run(tmp_path, config, "evolve") == 2
    assert capsys.readouterr().err == "error: weight vector at 3 is not unit (norm nan)\n"
    assert not (tmp_path / "distribution.csv").exists()


def test_nan_coin_block_names_its_vertex(tmp_path, capsys):
    # checked before any SVD, which would fail to converge and name no vertex
    blocks = {str(v): [[math.nan if v == 3 else 1.0, 0.0], [0.0, 1.0]] for v in range(1, 5)}
    config = dict(EVOLVE_CONFIG, walk={"coins": {"family": "explicit", "blocks": blocks}})
    assert run(tmp_path, config, "evolve") == 2
    assert capsys.readouterr().err == "error: coin at vertex 3 has a non-finite entry\n"
    assert not (tmp_path / "distribution.csv").exists()


def test_coin_block_whose_square_overflows_is_not_unitary(tmp_path, capsys):
    # finite, but its singular values square to inf
    blocks = {str(v): [[1e200 if v == 1 else 1.0, 0.0], [0.0, 1.0]] for v in range(1, 5)}
    config = dict(EVOLVE_CONFIG, walk={"coins": {"family": "explicit", "blocks": blocks}})
    assert run(tmp_path, config, "evolve") == 2
    assert capsys.readouterr().err == "error: coin at vertex 1 is not unitary (defect inf)\n"
    assert not (tmp_path / "distribution.csv").exists()


def test_large_coin_block_whose_gram_overflows_is_not_unitary(tmp_path, capsys):
    # the 64x64 centre block's Gram product overflows to a NaN defect, which
    # fails, and stderr holds the error line alone
    blocks = {str(v): [[1.0]] for v in range(2, 66)}
    blocks["1"] = np.eye(64).tolist()
    blocks["1"][0][0] = 1e200
    config = dict(EVOLVE_CONFIG, graph={"family": "star", "n": 65},
                  walk={"coins": {"family": "explicit", "blocks": blocks}})
    assert run(tmp_path, config, "evolve") == 2
    assert capsys.readouterr().err == "error: coin at vertex 1 is not unitary (defect nan)\n"
    assert not (tmp_path / "distribution.csv").exists()


def test_scan_bracket_threshold_is_an_unknown_key(tmp_path, capsys):
    config = dict(REFINE_CONFIG, scan=dict(REFINE_CONFIG["scan"], bracket_threshold=0.1))
    assert run(tmp_path, config, "qg-scan") == 2
    assert "'bracket_threshold'" in capsys.readouterr().err
    assert not (tmp_path / "roots.csv").exists()


@pytest.mark.parametrize("command,config", [
    ("verify", VERIFY_CONFIG), ("szegedy", SZEGEDY_CONFIG), ("qg-eigenfunction", EIGEN_CONFIG),
])
@pytest.mark.parametrize("tol", ["nan", "-1", "x"])
def test_negative_or_nan_tol_is_rejected_at_parsing(tmp_path, capsys, command, config, tol):
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, config, command, "--tol", tol)
    assert exit_info.value.code == 2
    assert "error: argument --tol: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command,config", [
    ("evolve", EVOLVE_CONFIG), ("qg-scan", SCAN_CONFIG), ("partitions", PARTITIONS_CONFIG),
])
def test_tol_is_rejected_by_commands_that_check_nothing(tmp_path, capsys, command, config):
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, config, command, "--tol", "5")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tol 5" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command,default", [
    ("verify", 1e-10), ("szegedy", 1e-8), ("qg-eigenfunction", 1e-8),
])
def test_tol_defaults_per_command(command, default):
    assert cli._build_parser().parse_args([command, "--config", "c.json"]).tol == default


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # verify's --tol, then a command without --tol, then szegedy's own default
    assert run(tmp_path, VERIFY_CONFIG, "verify", "--tol", "1e-3") == 0
    assert {row[2] for row in csv.reader(io.StringIO(
        (tmp_path / "identities.csv").read_text()))} == {"tolerance", "0.001"}
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, EVOLVE_CONFIG, "evolve", "--tol", "1")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err
    with mock.patch.object(cli, "compare_spectra", wraps=cli.compare_spectra) as compare:
        assert run(tmp_path, SZEGEDY_CONFIG, "szegedy") == 0
    assert compare.call_args.args[2] == 1e-8
    assert cli._build_parser.cache_info().misses == 1


def test_negative_verify_steps_is_a_config_error(tmp_path, capsys):
    # matrix_power would silently invert the walk and report a passing row
    config = dict(VERIFY_CONFIG, verify=dict(VERIFY_CONFIG["verify"], steps=-3))
    assert run(tmp_path, config, "verify") == 2
    assert capsys.readouterr().err == "error: steps must be nonnegative\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def shipped(name, *edits):
    """The shipped config ``name`` with each (key path, value) of ``edits`` set."""
    config = json.loads((CONFIG_DIR / name).read_text())
    for path, value in edits:
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return config


@pytest.mark.parametrize("command,config,code,stderr", [
    # L (k - A) overflows in the coins' phases
    ("qg-scan", shipped("k2_neumann_scan.json", (("quantum_graph", "lengths"), 1e308)), 2,
     "error: L (k - A) on edge (1, 2) is not finite at k=1.7980998538349104\n"),
    ("qg-eigenfunction", shipped("k2_eigenfunction.json", (("quantum_graph", "lengths"), 1e308)),
     2, "error: L (k - A) on edge (1, 2) is not finite at k=3.141592653589793\n"),
    # 2 k L overflows in the reduced determinant first
    *(("qg-scan", shipped("star_dirichlet_scan.json", (("quantum_graph", "lengths", e), 1e308)), 2,
       f"error: 2 k L on edge (1, {e[-1]}) is not finite at k=0.8990443382598066\n")
      for e in ("1,2", "1,3", "1,4")),
    # the walk's powers overflow: the residual is inf, a failed check
    *(("verify", shipped("c4_verify.json", (("verify", "steps"), steps)), 1,
       f"verification failure: shift_duality_{int(steps)}_steps residual inf exceeds --tol 1e-10\n")
      for steps in (1e308, 1e200, 2**63)),
    # the amplitudes' norm overflows
    ("evolve", dict(EVOLVE_CONFIG, evolve={"steps": 1, "initial": {
        "amplitudes": {"1,2": [1e200, 0]}}}),
     2, "error: arc amplitude map must have unit norm, got inf\n"),
], ids=["scan-length", "eigenfunction-length", "star-length-1,2", "star-length-1,3",
        "star-length-1,4", "verify-steps-1e308", "verify-steps-1e200", "verify-steps-2**63",
        "evolve-amplitude"])
def test_an_extreme_magnitude_gives_one_verdict_and_no_warning(tmp_path, capsys, command, config,
                                                               code, stderr):
    assert run(tmp_path, config, command) == code
    assert capsys.readouterr().err == stderr


@pytest.mark.parametrize("command,config,args,message", [
    ("evolve", shipped("c4_grover_evolve.json", (("walk", "partition"), {"random_seed": -1})), [],
     "'walk.partition.random_seed' must be a non-negative integer, got -1"),
    ("verify", shipped("c4_verify.json", (("walk", "coins", "seed"), -5)), [],
     "'walk.coins.seed' must be a non-negative integer, got -5"),
    ("verify", shipped("c4_verify.json", (("verify", "other_partition"), {"random_seed": -2})), [],
     "'verify.other_partition.random_seed' must be a non-negative integer, got -2"),
    ("szegedy", shipped("c4_szegedy.json", (("szegedy", "transition"), {"random_seed": -3})), [],
     "'szegedy.transition.random_seed' must be a non-negative integer, got -3"),
    ("evolve", dict(EVOLVE_CONFIG, walk={"coins": {"family": "szegedy",
                                                   "transition": {"random_seed": -4}}}), [],
     "'walk.coins.transition.random_seed' must be a non-negative integer, got -4"),
    # the seeds that come from --seed: the coins' own, and the other partition's, --seed + 1
    ("verify", dict(VERIFY_CONFIG, walk={"coins": {"family": "random"}}), ["--seed", "-1"],
     "'--seed' must be a non-negative integer, got -1"),
    ("verify", dict(VERIFY_CONFIG, walk={"coins": {"family": "grover"}}, verify={"steps": 1}),
     ["--seed", "-2"],
     "'--seed + 1' must be a non-negative integer, got -1"),
    ("qg-scan", dict(SCAN_CONFIG, quantum_graph={"lengths": {"a,b": 1}}), [],
     "'quantum_graph.lengths key' must be a 'u,v' pair of integers, got 'a,b'"),
    ("qg-scan", dict(SCAN_CONFIG, quantum_graph={"potentials": {"1,2,3": 0}}), [],
     "'quantum_graph.potentials key' must be a 'u,v' pair of integers, got '1,2,3'"),
])
def test_a_config_error_names_its_key(tmp_path, capsys, command, config, args, message):
    assert run(tmp_path, config, command, *args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command,config,validations", [
    ("evolve", EVOLVE_CONFIG, 1), ("verify", VERIFY_CONFIG, 6),
    ("szegedy", SZEGEDY_CONFIG, 1), ("qg-eigenfunction", EIGEN_CONFIG, 1),
])
def test_each_command_validates_each_walk_once(tmp_path, command, config, validations):
    """A walk's other type shares its validated coins, so it is never validated again.

    verify: its walk, the flip-flop inversion walk with H, whose blocks the
    walk with H^dag shares daggered, two partition-change walks and one
    flip-flop reduction per type; szegedy: the walk it lifts
    and diagonalizes; qg-eigenfunction: U(k), which gives the stationary
    vector and whose blocks the four-way check shares, daggered or not.
    """
    with mock.patch.object(CoinSet, "validate", autospec=True,
                           side_effect=CoinSet.validate) as validate:
        assert run(tmp_path, config, command) == 0
    assert validate.call_count == validations


@pytest.mark.parametrize("command,config,message", [
    ("evolve", dict(EVOLVE_CONFIG, evolve={"steps": 10**12}),
     "error: 'evolve.steps' asks for 4000000000004 CSV rows, over the 10000000 limit"),
    ("qg-eigenfunction",
     dict(EIGEN_CONFIG, eigenfunction={"k": math.pi, "samples_per_edge": 10**12}),
     "error: 'eigenfunction.samples_per_edge' asks for 1000000000000 CSV rows, "
     "over the 10000000 limit"),
    ("partitions", {"graph": {"family": "complete", "n": 6}, "partitions": {"cap": 10**13}},
     "error: 'partitions.cap' asks for 2985984000000 CSV rows, over the 10000000 limit"),
    ("partitions", {"graph": {"family": "complete", "n": 6}, "partitions": {"cap": 100}},
     "error: partition count 2985984000000 exceeds enumeration cap 100"),
])
def test_oversize_output_is_a_config_error(tmp_path, capsys, command, config, message):
    assert run(tmp_path, config, command) == 2
    assert capsys.readouterr().err == message + "\n"


# ---------------------------------------------------------------------------
# the CSV writer against csv.writer
# ---------------------------------------------------------------------------

# every fixed string cell the commands write
FIXED_CELLS = ["unitarity_g", "unitarity_a", "shift_duality_5_steps", "inverse_flip_flop",
               "partition_change", "g_type_reduction", "a_type_reduction", "adjacency_support",
               "tree", "unicyclic", "general", "I", "II", "III", "a_type", "g_type_dagger",
               "a_type_dagger_shifted", "g_type_shifted", "max_spread", "4;4", "2;2;2;2"]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
TEMPLATES = {"int": "%d", "float": "%.17g", "str": "%s", "bool": "%s"}


def reference_csv(header, rows) -> bytes:
    """The bytes csv.writer gave with floats formatted as format(x, ".17g")."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(x, ".17g") if isinstance(x, float) else x for x in row])
    return buf.getvalue().encode()


def test_writer_bytes_match_csv_writer(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    cells = {"int": st.integers(),
             "float": st.floats() | st.sampled_from(SPECIAL_FLOATS),
             "str": st.sampled_from(FIXED_CELLS),
             "bool": st.booleans()}

    @st.composite
    def tables(draw):
        kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=6))
        rows = draw(st.lists(st.tuples(*(cells[k] for k in kinds)), max_size=12))
        return kinds, rows

    @settings(max_examples=300, deadline=None, database=None)
    @given(tables(), st.integers(1, 5))
    def check(table, chunk):
        kinds, rows = table
        header = [f"c{i}" for i in range(len(kinds))]
        path = tmp_path / "out.csv"
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
            cli._atomic_write_csv(str(path), header,
                                  cli._lines(",".join(TEMPLATES[k] for k in kinds), rows))
        assert path.read_bytes() == reference_csv(header, rows)

    check()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]  # no temporary left behind


def distribution_reference(op, state, steps) -> bytes:
    """distribution.csv formatted row by row, from states stepped one ``evolve`` at a time."""
    lines = ["step,vertex,probability\r\n"]
    for step in range(steps + 1):
        lines += ["%d,%d,%.17g\r\n" % (step, v, p)
                  for v, p in zip(state.space.graph.vertices, finding_probability(state).tolist())]
        state = evolve(op, state, 1)
    return "".join(lines).encode()


def test_evolve_over_several_chunks_matches_the_reference_bytes(tmp_path):
    n, steps, seed = 200, 400, 11
    g = cycle_graph(n)
    space = build_arc_space(g)
    per_chunk = dynamics._CHUNK_AMPLITUDES // space.size
    assert steps >= 3 * per_chunk and steps % per_chunk  # three or more, the last ragged
    config = {"graph": {"family": "cycle", "n": n},
              "walk": {"coins": {"family": "random", "seed": seed}},
              "evolve": {"steps": steps, "initial": {"arc": [2, 1]}}}
    assert run(tmp_path, config, "evolve") == 0

    op = evolution(flip_flop_partition(g),
                   random_unitary_coins(g, np.random.default_rng(seed)), "G")
    assert (tmp_path / "distribution.csv").read_bytes() == distribution_reference(
        op, point_mass(space, (2, 1)), steps)


# vertex degrees 4, 2, 2, 2, 1, 1
MIXED_EDGES = [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [4, 6]]


@pytest.mark.parametrize("kind", ["G", "A"])
@pytest.mark.parametrize("steps", [0, 1, 7])
def test_evolve_bytes_on_a_mixed_degree_graph(tmp_path, kind, steps):
    config = {"graph": {"vertices": 6, "edges": MIXED_EDGES},
              "walk": {"kind": kind, "partition": {"random_seed": 3},
                       "coins": {"family": "random", "seed": 4}},
              "evolve": {"steps": steps, "initial": {"arc": [4, 1]}}}
    assert run(tmp_path, config, "evolve") == 0

    g = Graph.from_edges(6, MIXED_EDGES)
    space = build_arc_space(g)
    op = evolution(random_partition(g, np.random.default_rng(3)),
                   random_unitary_coins(g, np.random.default_rng(4)), kind)
    assert (tmp_path / "distribution.csv").read_bytes() == distribution_reference(
        op, point_mass(space, (4, 1)), steps)


def test_a_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(1, 2.0), (2, 3.0), (3, "not a float")]
    with mock.patch.object(cli, "_CHUNK_ROWS", 1), pytest.raises(TypeError):
        cli._atomic_write_csv(str(path), ["a", "b"], cli._lines("%d,%.17g", rows))
    assert list(tmp_path.iterdir()) == []
