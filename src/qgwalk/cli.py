"""Command-line reports over the walk library, written as CSV files.

Subcommands (each reads a JSON config and writes into --out):

* evolve            distribution.csv     per-step vertex probabilities
* verify            identities.csv       operator-identity residuals
* szegedy           spectrum.csv, matching.csv
* qg-scan           scan.csv, roots.csv
* qg-eigenfunction  eigenfunction.csv, boundary.csv, equivalences.csv
* partitions        partitions.csv

Each command returns the checks it failed, one text each, and ``main`` alone
turns them into the exit code: 0 when there are none; 1 with one
``verification failure:`` line on stderr per failed check; 2 with one
``error:`` line for an invalid config or input, or an output file that
cannot be written.  The checks, made once every CSV is written: verify, each
identity's residual over --tol; szegedy, ``max_angle_error`` or
``max_lift_residual`` over --tol; qg-scan, a grid point whose finite reduced
determinant is off the direct one by more than ``DET_TOL``;
qg-eigenfunction, an off-root k, the boundary rows over --tol (one line, for
the worst), and the eigenfunction's ``symmetry_residual`` or
``pp_wq_max_diff``, or the equivalences' ``max_spread``, over --tol.  A
library self-check that stops a run (an ``ArithmeticError``) is one failed
check too.  The --out directory is made at the first CSV write, so a config
error leaves none behind.

Every CSV goes through one writer of preformatted
text blocks.  Rows are formatted with %-templates (floats as %.17g,
repr-faithful) and end in CRLF: ``evolve`` fills one template per step, which
holds that step's row for every vertex, and the other commands format their
rows in fixed-size chunks with a per-row template.  So no file's text is all
held in memory, though ``qg-eigenfunction`` holds every sample it writes.
Each file is written to a temporary name and moved into place, so a failed
run leaves no partial file.  Repeated runs with the same config and seed
produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .coins import (
    DIRICHLET,
    QuantumGraphParams,
    TransitionMatrix,
    VertexWeights,
    grover_coins,
    identity_coins,
    projector_coins,
    quantum_graph_coins,
    szegedy_coins,
)
from .dynamics import from_arc_amplitudes, local_state, point_mass, probability_history
from .graphs import (
    Graph,
    Partition,
    complete_graph,
    cycle_graph,
    enumerate_partitions,
    flip_flop_partition,
    partition_count,
    path_graph,
    random_partition,
    star_graph,
)
from .operators import (
    CoinSet,
    adjacency_support_report,
    a_type_reduction_residual,
    evolution,
    g_type_reduction_residual,
    inverse_walk_residual,
    partition_change_residual,
    random_unitary_coins,
    shift_duality_residual,
    unitarity_defect,
)
from .quantum_graph import (
    boundary_condition_report,
    sample_eigenfunction,
    scan_roots,
    stationarity_equivalences,
    stationary_vector,
)
from .szegedy import (
    compare_spectra,
    direct_spectrum,
    random_reversible_transition,
    szegedy_spectrum,
)

MAX_ARCS = 2000
# Longest CSV output, about 0.3 GB of distribution.csv: a longer run is a typo.
# evolve and partitions stream their rows; qg-eigenfunction holds every sample,
# about 170 bytes a row, so this bounds its memory too.
MAX_CSV_ROWS = 10**7
# Rows per text block that ``_lines`` formats from a per-row template.
_CHUNK_ROWS = 65536
# Largest gap qg-scan allows between the reduced and the direct determinant,
# relative to max(1, |det|), at a grid point off the reduced one's poles.
DET_TOL = 1e-8


class ConfigError(ValueError):
    """The JSON config is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _atomic_write_csv(path: str, header: list, blocks) -> None:
    """Write the ``header`` line and then each preformatted text block of ``blocks``.

    A block is whole CSV lines ending in CRLF, as ``_lines`` formats them.
    They go into a temporary file that replaces ``path`` only once it is
    complete.  The directory, ``--out``, is made here if it is missing, so a
    run that fails before its first file leaves no directory behind.  A file
    that cannot be written is a ConfigError, and the temporary file goes
    whatever fails.
    """
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)  # an empty --out fails here, as it should
    except OSError as exc:
        raise ConfigError(f"cannot use --out {directory!r}: {exc}") from None
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(blocks)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _lines(fmt: str, rows):
    """``fmt % row`` and CRLF for each tuple in ``rows``, ``_CHUNK_ROWS`` lines per block.

    ``fmt`` is one row's %-template, such as ``"%d,%d,%.17g"``.  For Python
    floats ``"%.17g" % x`` equals ``format(x, ".17g")``, and lines end in
    CRLF, so on cells that need no quoting the bytes are csv.writer's.
    """
    line = fmt + "\r\n"
    rows = iter(rows)
    # range first, so zip stops without taking the next chunk's first row
    while chunk := [line % row for _, row in zip(range(_CHUNK_ROWS), rows)]:
        yield "".join(chunk)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(_dict(section, where)) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for json: a key given twice in one object is an error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config gives the key {key!r} twice in one object")
        out[key] = value
    return out


def _load_config(path: str, sections: set) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("config nests too deeply to parse") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, sections, "config")
    return cfg


def _convert(kind, raw, where: str, what: str):
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{where}' must be {what}, got {raw!r}") from None


def _is_number(raw) -> bool:
    """A JSON number: not a string, and not ``true``/``false`` (Python bools are ints)."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _int(raw, where: str) -> int:
    """A JSON integer (``4`` or ``4.0``), or a ConfigError naming ``where``."""
    if _is_number(raw) and (isinstance(raw, int) or raw.is_integer()):
        return int(raw)
    raise ConfigError(f"'{where}' must be an integer, got {raw!r}")


def _float(raw, where: str) -> float:
    """A JSON number as a float, or a ConfigError naming ``where``."""
    if not _is_number(raw):
        raise ConfigError(f"'{where}' must be a number, got {raw!r}")
    return _convert(float, raw, where, "a number")


def _list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"'{where}' must be a JSON list, got {raw!r}")
    return raw


def _dict(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}' must be a JSON object")
    return raw


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    if name not in cfg:
        if required:
            raise ConfigError(f"config is missing the '{name}' section")
        return {}
    if not isinstance(cfg[name], dict):
        raise ConfigError(f"'{name}' section must be a JSON object")
    return cfg[name]


def _arc_key(raw: str, where: str) -> tuple[int, int]:
    try:
        u, v = map(int, str(raw).split(","))
    except ValueError:  # not two parts, or a part that is not an integer
        raise ConfigError(f"'{where} key' must be a 'u,v' pair of integers, got {raw!r}") from None
    return u, v


def _keyed(raw, where: str, value, arc_keys: bool) -> dict:
    """A JSON map keyed by arcs or vertices; "1,2" next to "01,2" is a ConfigError."""
    out = {}
    for text, val in _dict(raw, where).items():
        if arc_keys:
            key = _arc_key(text, where)
        else:
            key = _convert(int, text, f"{where} key", "an integer")
        if key in out:
            raise ConfigError(f"'{where}' gives {key} twice")
        out[key] = value(text, val)
    return out


def _as_complex(raw, where: str) -> complex:
    """A JSON number or [re, im] pair as a complex, or a ConfigError naming ``where``."""
    if _is_number(raw):
        return complex(_float(raw, where))
    if isinstance(raw, list) and len(raw) == 2:
        return complex(_float(raw[0], f"{where}[0]"), _float(raw[1], f"{where}[1]"))
    raise ConfigError(f"'{where}' must be a number or an [re, im] pair, got {raw!r}")


def _rng(raw, where: str) -> np.random.Generator:
    """A generator seeded by ``raw``, a JSON integer >= 0, or a ConfigError naming ``where``."""
    seed = _int(raw, where)
    if seed < 0:
        raise ConfigError(f"'{where}' must be a non-negative integer, got {raw!r}")
    return np.random.default_rng(seed)


def _check_rows(rows: int, where: str) -> None:
    if rows > MAX_CSV_ROWS:
        raise ConfigError(f"'{where}' asks for {rows} CSV rows, over the {MAX_CSV_ROWS} limit")


def _check_vertex_count(n: int) -> None:
    # a connected graph on n vertices has at least 2 (n - 1) arcs; checked
    # before building, which costs time and memory linear in n
    if 2 * (n - 1) > MAX_ARCS:
        raise ConfigError(f"a graph on {n} vertices has over {MAX_ARCS} arcs, the limit")


def _check_arc_count(arcs: int) -> None:
    if arcs > MAX_ARCS:
        raise ConfigError(f"graph has {arcs} arcs, over the {MAX_ARCS} limit")


def _build_graph(cfg: dict) -> Graph:
    section = _section(cfg, "graph")
    _check_keys(section, {"vertices", "edges", "family", "n"}, "graph")
    if "family" in section:
        _check_keys(section, {"family", "n"}, "graph")
        family, n = section["family"], _int(section.get("n", 0), "graph.n")
        _check_vertex_count(n)
        # each family's builder and the arc count of its graph on n vertices
        builders = {"cycle": (cycle_graph, 2 * n), "path": (path_graph, 2 * (n - 1)),
                    "complete": (complete_graph, n * (n - 1) if n > 1 else 0),
                    "star": (lambda m: star_graph(m - 1), 2 * (n - 1))}
        if not isinstance(family, str) or family not in builders:
            raise ConfigError(f"unknown graph family {family!r}; "
                              f"choose from {sorted(builders)}")
        build, arcs = builders[family]
        _check_arc_count(arcs)
        g = build(n)
    else:
        if "vertices" not in section or "edges" not in section:
            raise ConfigError("graph section needs 'vertices' and 'edges' (or 'family')")
        edges = section["edges"]
        if not isinstance(edges, list):
            raise ConfigError("graph 'edges' must be a list of [u, v] pairs")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2
                    and all(isinstance(x, int) and not isinstance(x, bool) for x in e)):
                raise ConfigError(f"edge {e!r} is not a [u, v] pair of integers")
        _check_arc_count(2 * len(edges))  # exact: Graph.from_edges rejects a duplicate
        n = _int(section["vertices"], "graph.vertices")
        _check_vertex_count(n)
        g = Graph.from_edges(n, edges)
    return g


def _build_partition(g: Graph, spec, where: str) -> Partition:
    """The partition ``spec`` gives; ``where`` is its key, which a seed's errors name."""
    if spec == "flip-flop":
        return flip_flop_partition(g)
    if isinstance(spec, dict) and "successors" in spec:
        _check_keys(spec, {"successors"}, "partition")
        succ = _keyed(spec["successors"], "partition.successors",
                      lambda key, val: _int(val, f"partition.successors.{key}"), arc_keys=True)
        return Partition.from_successors(g, succ)
    if isinstance(spec, dict) and "random_seed" in spec:
        _check_keys(spec, {"random_seed"}, where)
        return random_partition(g, _rng(spec["random_seed"], f"{where}.random_seed"))
    raise ConfigError("partition must be 'flip-flop', {'successors': ...}, "
                      "or {'random_seed': ...}")


def _build_transition(g: Graph, spec, where: str) -> TransitionMatrix:
    """The transition matrix ``spec`` gives; ``where`` is its key, which a seed's errors name."""
    if spec == "uniform":
        return TransitionMatrix.uniform(g)
    if isinstance(spec, list):
        rows = [[_float(x, "transition") for x in _list(row, "transition")] for row in spec]
        return TransitionMatrix(g, _convert(lambda x: np.array(x, dtype=float), rows,
                                            "transition", "a matrix of numbers"))
    if isinstance(spec, dict) and "random_seed" in spec:
        _check_keys(spec, {"random_seed"}, where)
        return random_reversible_transition(g, _rng(spec["random_seed"], f"{where}.random_seed"))
    raise ConfigError("transition must be 'uniform', a row matrix, or {'random_seed': ...}")


def _lam_value(raw) -> float:
    if isinstance(raw, str):
        if raw.lower() in ("dirichlet", "inf", "infinity"):
            return DIRICHLET
        raise ConfigError(f"unknown coupling value {raw!r}")
    return _float(raw, "quantum_graph.lambdas")


def _build_qg(g: Graph, cfg: dict) -> QuantumGraphParams:
    section = _section(cfg, "quantum_graph")
    _check_keys(section, {"lengths", "lambdas", "potentials"}, "quantum_graph")

    def edge_values(name: str, default: float):
        raw, where = section.get(name, default), f"quantum_graph.{name}"
        if isinstance(raw, dict):
            return _keyed(raw, where, lambda key, x: _float(x, f"{where}.{key}"), arc_keys=True)
        return _float(raw, where)

    raw_lam = section.get("lambdas", 0.0)
    if isinstance(raw_lam, dict):
        lam = _keyed(raw_lam, "quantum_graph.lambdas", lambda _v, x: _lam_value(x), arc_keys=False)
    else:
        lam = _lam_value(raw_lam)
    return QuantumGraphParams.build(g, edge_values("lengths", 1.0), lam,
                                    edge_values("potentials", 0.0))


def _build_weights(g: Graph, spec) -> VertexWeights:
    if spec is None or spec == "uniform":
        return VertexWeights.uniform(g)
    if isinstance(spec, dict):
        where = "walk.coins.weights"
        return VertexWeights(g, _keyed(spec, where, lambda v, vec: np.array(
            [_as_complex(x, f"{where}.{v}") for x in _list(vec, f"{where}.{v}")]), arc_keys=False))
    raise ConfigError("weights must be 'uniform' or a per-vertex map")


def _build_coins(g: Graph, cfg: dict, spec: dict, seed: int):
    _check_keys(spec, {"family", "transition", "k", "weights", "seed", "blocks"}, "walk.coins")
    family = spec.get("family", "grover")
    if family == "identity":
        return identity_coins(g)
    if family == "grover":
        return grover_coins(g)
    if family == "random":
        where = "walk.coins.seed" if "seed" in spec else "--seed"
        return random_unitary_coins(g, _rng(spec.get("seed", seed), where))
    if family == "szegedy":
        if "transition" not in spec:
            raise ConfigError("szegedy coins need a 'transition' entry")
        return szegedy_coins(_build_transition(g, spec["transition"], "walk.coins.transition"))
    if family in ("quantum-graph", "projector"):
        if "k" not in spec:
            raise ConfigError(f"{family} coins need a wavenumber 'k'")
        q = _build_qg(g, cfg)
        k = _float(spec["k"], "walk.coins.k")
        if family == "quantum-graph":
            return quantum_graph_coins(q, k)
        return projector_coins(q, _build_weights(g, spec.get("weights")), k)
    if family == "explicit":
        if "blocks" not in spec:
            raise ConfigError("explicit coins need a 'blocks' entry")
        where = "walk.coins.blocks"
        return CoinSet(_keyed(spec["blocks"], where, lambda v, rows: np.array(
            [[_as_complex(x, f"{where}.{v}") for x in _list(row, f"{where}.{v}")]
             for row in _list(rows, f"{where}.{v}")]), arc_keys=False))
    raise ConfigError(f"unknown coin family {family!r}")


def _build_walk(g: Graph, cfg: dict, seed: int, default_coins: str = "grover"):
    section = _section(cfg, "walk", required=False)
    _check_keys(section, {"kind", "partition", "coins"}, "walk")
    kind = section.get("kind", "G")
    if kind not in ("G", "A"):
        raise ConfigError(f"walk kind must be 'G' or 'A', got {kind!r}")
    p = _build_partition(g, section.get("partition", "flip-flop"), "walk.partition")
    coins = _build_coins(g, cfg, section.get("coins", {"family": default_coins}), seed)
    return p, coins, kind


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_evolve(args) -> list[str]:
    cfg = _load_config(args.config, {"graph", "walk", "evolve", "quantum_graph"})
    g = _build_graph(cfg)
    p, coins, kind = _build_walk(g, cfg, args.seed)
    op = evolution(p, coins, kind)
    space = op.space

    section = _section(cfg, "evolve")
    _check_keys(section, {"steps", "initial"}, "evolve")
    steps = _int(section.get("steps", 10), "evolve.steps")
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    _check_rows((steps + 1) * g.vertex_count, "evolve.steps")
    initial = section.get("initial", {"arc": list(space.arcs[0])})
    _check_keys(initial, {"arc", "local", "amplitudes"}, "evolve.initial")
    if "arc" in initial:
        arc = _list(initial["arc"], "evolve.initial.arc")
        state = point_mass(space, tuple(_int(x, "evolve.initial.arc") for x in arc))
    elif "local" in initial:
        loc = initial["local"]
        _check_keys(loc, {"vertex", "amplitudes"}, "evolve.initial.local")
        amps = _list(loc["amplitudes"], "evolve.initial.local.amplitudes")
        state = local_state(space, _int(loc["vertex"], "evolve.initial.local.vertex"),
                            np.array([_as_complex(x, "evolve.initial.local.amplitudes")
                                      for x in amps]))
    elif "amplitudes" in initial:
        state = from_arc_amplitudes(
            space, _keyed(initial["amplitudes"], "evolve.initial.amplitudes",
                          lambda key, val: _as_complex(val, f"evolve.initial.amplitudes.{key}"),
                          arc_keys=True))
    else:
        raise ConfigError("evolve.initial needs 'arc', 'local', or 'amplitudes'")

    # one step's rows as one template: str(step).join(parts) is
    # "step,v1,%.17g\r\nstep,v2,%.17g\r\n...", filled by one %
    parts = ["", *(f",{v},%.17g\r\n" for v in g.vertices)]
    history = probability_history(op, state, steps)
    _atomic_write_csv(os.path.join(args.out, "distribution.csv"),
                      ["step", "vertex", "probability"],
                      (str(step).join(parts) % tuple(probs.tolist())
                       for step, probs in enumerate(history)))
    return []


def _cmd_verify(args) -> list[str]:
    cfg = _load_config(args.config, {"graph", "walk", "verify", "quantum_graph"})
    g = _build_graph(cfg)
    section = _section(cfg, "verify", required=False)
    _check_keys(section, {"steps", "other_partition"}, "verify")
    steps = _int(section.get("steps", 3), "verify.steps")
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    if "kind" in _section(cfg, "walk", required=False):
        raise ConfigError("'walk.kind' is not read by verify, which checks both walk types")
    p, coins, _ = _build_walk(g, cfg, args.seed, default_coins="random")
    if "other_partition" in section:
        p2 = _build_partition(g, section["other_partition"], "verify.other_partition")
    else:
        p2 = random_partition(g, _rng(args.seed + 1, "--seed + 1"))

    # first, so that its dense matrices are freed before ug.matrix is built and kept
    inverse = inverse_walk_residual(p.arc_space, coins)
    ug = evolution(p, coins, "G")
    checks = [
        ("unitarity_g", unitarity_defect(ug.matrix)),
        ("unitarity_a", unitarity_defect(ug.with_kind("A").matrix)),
        (f"shift_duality_{steps}_steps", shift_duality_residual(ug, steps)),
        ("inverse_flip_flop", inverse),
        ("partition_change", partition_change_residual(p, p2, coins)),
        ("g_type_reduction", g_type_reduction_residual(ug)),
        ("a_type_reduction", a_type_reduction_residual(ug)),
        ("adjacency_support", adjacency_support_report(ug).max_leak),
    ]
    rows = [(name, residual, args.tol, residual <= args.tol) for name, residual in checks]
    _atomic_write_csv(os.path.join(args.out, "identities.csv"),
                      ["identity", "residual", "tolerance", "pass"],
                      _lines("%s,%.17g,%.17g,%s", rows))
    return [f"{name} residual {residual:.3e} exceeds --tol {args.tol:g}"
            for name, residual, _, ok in rows if not ok]


def _cmd_szegedy(args) -> list[str]:
    cfg = _load_config(args.config, {"graph", "szegedy"})
    g = _build_graph(cfg)
    section = _section(cfg, "szegedy", required=False)
    _check_keys(section, {"transition"}, "szegedy")
    t = _build_transition(g, section.get("transition", "uniform"), "szegedy.transition")

    predicted = szegedy_spectrum(t)
    eigenvalues, case, walk = predicted.eigenvalues, predicted.case, predicted.walk
    lift_residual = max((l.residual for l in predicted.lifts if l.genuine), default=0.0)
    del predicted  # the lifted vectors are not needed during the dense solve
    computed = direct_spectrum(walk)
    match = compare_spectra(eigenvalues, computed, args.tol)

    _atomic_write_csv(os.path.join(args.out, "spectrum.csv"),
                      ["index", "predicted_re", "predicted_im",
                       "computed_re", "computed_im"],
                      _lines("%d,%.17g,%.17g,%.17g,%.17g",
                             [(i, pv.real, pv.imag, cv.real, cv.imag)
                              for i, (pv, cv) in enumerate(zip(eigenvalues, computed))]))
    _atomic_write_csv(os.path.join(args.out, "matching.csv"),
                      ["case", "size", "max_angle_error", "shift",
                       "max_lift_residual", "ok"],
                      _lines("%s,%d,%.17g,%d,%.17g,%s",
                             [(case, walk.size, match.max_angle_error, match.shift,
                               lift_residual, match.ok)]))
    return [f"{name} {value:.3e} exceeds --tol {args.tol:g}" for name, value, ok in (
        ("max_angle_error", match.max_angle_error, match.ok),
        ("max_lift_residual", lift_residual, lift_residual <= args.tol)) if not ok]


def _cmd_qg_scan(args) -> list[str]:
    cfg = _load_config(args.config, {"graph", "quantum_graph", "scan"})
    g = _build_graph(cfg)
    q = _build_qg(g, cfg)
    section = _section(cfg, "scan")
    _check_keys(section, {"k_min", "k_max", "grid_points", "refine_tol", "root_tol"}, "scan")
    if "k_min" not in section or "k_max" not in section:
        raise ConfigError("scan section needs 'k_min' and 'k_max'")

    scan = scan_roots(
        q, _float(section["k_min"], "scan.k_min"), _float(section["k_max"], "scan.k_max"),
        grid_points=(_int(section["grid_points"], "scan.grid_points")
                     if "grid_points" in section else None),
        refine_tol=_float(section.get("refine_tol", 1e-10), "scan.refine_tol"),
        root_tol=_float(section.get("root_tol", 1e-9), "scan.root_tol"))

    dets, reduced = scan.determinants, scan.reduced_determinants
    _atomic_write_csv(os.path.join(args.out, "scan.csv"),
                      ["k", "indicator", "det_re", "det_im",
                       "reduced_re", "reduced_im"],
                      _lines("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
                             zip(scan.ks.tolist(), scan.indicators.tolist(),
                                 dets.real.tolist(), dets.imag.tolist(),
                                 reduced.real.tolist(), reduced.imag.tolist())))
    _atomic_write_csv(os.path.join(args.out, "roots.csv"),
                      ["k", "indicator", "multiplicity"],
                      _lines("%.17g,%.17g,%d",
                             [(r.k, r.indicator, r.multiplicity) for r in scan.roots]))
    finite = np.isfinite(reduced)  # NaN at the reduced determinant's poles
    gaps = np.abs(dets - reduced)[finite] / np.maximum(1.0, np.abs(dets[finite]))
    if gaps.size and not gaps.max() <= DET_TOL:
        worst = int(np.argmax(gaps))  # the first NaN, if any
        return [f"reduced determinant off the direct one by {gaps[worst]:.3e} "
                f"at k={float(scan.ks[finite][worst])!r}"]
    return []


def _cmd_qg_eigenfunction(args) -> list[str]:
    cfg = _load_config(args.config, {"graph", "quantum_graph", "eigenfunction"})
    g = _build_graph(cfg)
    q = _build_qg(g, cfg)
    section = _section(cfg, "eigenfunction")
    _check_keys(section, {"k", "samples_per_edge", "root_tol"}, "eigenfunction")
    if "k" not in section:
        raise ConfigError("eigenfunction section needs 'k'")

    # always build the report from the least-defect vector; an off-root k is
    # a verification failure (exit 1 below), not a config error
    root_tol = _float(section.get("root_tol", 1e-9), "eigenfunction.root_tol")
    if not root_tol >= 0.0:
        raise ConfigError(f"root_tol must be nonnegative, got {root_tol!r}")
    samples = _int(section.get("samples_per_edge", 33), "eigenfunction.samples_per_edge")
    _check_rows(samples * len(g.edges), "eigenfunction.samples_per_edge")
    sv = stationary_vector(q, _float(section["k"], "eigenfunction.k"), root_tol=math.inf)
    sample = sample_eigenfunction(sv, samples)
    report = boundary_condition_report(sample, args.tol)
    # the four-way check expects the A-type stationary vector: the flip-flop
    # shift (arc reversal) of the G-type one that stationary_vector returns
    equiv = stationarity_equivalences(sv.walk, sv.amplitudes[sv.walk.space.reverse])

    xs, values = sample.edge_xs, sample.edge_values
    _atomic_write_csv(os.path.join(args.out, "eigenfunction.csv"),
                      ["edge_u", "edge_v", "x", "value_re", "value_im"],
                      _lines("%d,%d,%.17g,%.17g,%.17g",
                             ((u, v, x, re, im) for (u, v) in g.edges
                              for x, re, im in zip(xs[(u, v)].tolist(),
                                                   values[(u, v)].real.tolist(),
                                                   values[(u, v)].imag.tolist()))))
    _atomic_write_csv(os.path.join(args.out, "boundary.csv"),
                      ["vertex", "condition", "residual", "ok"],
                      _lines("%d,%s,%.17g,%s",
                             [(r.vertex, r.condition, r.residual, r.ok) for r in report.rows]))
    names = ["a_type", "g_type_dagger", "a_type_dagger_shifted", "g_type_shifted"]
    spread = max(equiv) - min(equiv)
    _atomic_write_csv(os.path.join(args.out, "equivalences.csv"),
                      ["form", "defect"],
                      _lines("%s,%.17g", [*zip(names, equiv), ("max_spread", spread)]))
    failures = [] if sv.defect <= root_tol else [
        f"k={sv.k!r} is not a root: stationarity defect {sv.defect:.3e} exceeds {root_tol:g}"]
    bad = [r for r in report.rows if not r.ok]
    if bad:
        worst = max(bad, key=lambda r: r.residual)
        failures.append(f"boundary residual {worst.residual:.3e} exceeds --tol {args.tol:g} "
                        f"(condition {worst.condition} at vertex {worst.vertex}, "
                        f"worst of {len(bad)} failing rows)")
    # two routes to one eigenfunction, and four forms of one defect, must agree at any k
    return failures + [f"{name} {value:.3e} exceeds --tol {args.tol:g}" for name, value in (
        ("symmetry_residual", sample.symmetry_residual),
        ("pp_wq_max_diff", sample.pp_wq_max_diff), ("max_spread", spread))
        if not value <= args.tol]


def _partition_row(i: int, p: Partition) -> tuple:
    """Row ``i`` of partitions.csv: index, cycle count, cycle lengths longest first, flip-flop.

    The lengths are those of ``p.cycles``, the orbits of ``p.perm``, counted
    without building the cycles' arc tuples.
    """
    perm = p.perm.tolist()
    seen, lengths = [False] * len(perm), []
    for first in range(len(perm)):
        n, c = 0, first
        while not seen[c]:
            seen[c] = True
            n += 1
            c = perm[c]
        if n:
            lengths.append(n)
    lengths.sort(reverse=True)
    return i, len(lengths), ";".join(map(str, lengths)), p.is_flip_flop


def _cmd_partitions(args) -> list[str]:
    cfg = _load_config(args.config, {"graph", "partitions"})
    g = _build_graph(cfg)
    section = _section(cfg, "partitions", required=False)
    _check_keys(section, {"cap"}, "partitions")
    cap = _int(section.get("cap", 1_000_000), "partitions.cap")
    count = partition_count(g)  # one row per partition, so bounded before any is enumerated
    if count > cap:
        raise ConfigError(f"partition count {count} exceeds enumeration cap {cap}")
    _check_rows(count, "partitions.cap")
    rows = (_partition_row(i, p) for i, p in enumerate(enumerate_partitions(g)))
    _atomic_write_csv(os.path.join(args.out, "partitions.csv"),
                      ["index", "cycle_count", "cycle_lengths", "is_flip_flop"],
                      _lines("%d,%d,%s,%s", rows))
    return []


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
    "szegedy": _cmd_szegedy,
    "qg-scan": _cmd_qg_scan,
    "qg-eigenfunction": _cmd_qg_eigenfunction,
    "partitions": _cmd_partitions,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="qgwalk",
        description="Coined walks on graphs: evolution, identity checks, "
                    "spectra, and metric-graph eigenproblems.")
    sub = parser.add_subparsers(dest="command", required=True)
    tolerances = {"verify": 1e-10, "szegedy": 1e-8, "qg-eigenfunction": 1e-8}
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="directory for CSV output")
        p.add_argument("--seed", type=int, default=0, help="seed for random pieces")
        if name in tolerances:
            p.add_argument("--tol", type=float, default=tolerances[name],
                           help=f"pass/fail tolerance (default {tolerances[name]:g})")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: 0, or 1 with one line per failed check, or 2 with one error line."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "tol", 0.0) >= 0.0:  # NaN or negative fails every check
        parser.error(f"argument --tol: must be nonnegative, got {args.tol!r}")
    try:
        failures = _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a library self-check that stopped the run
        failures = [str(exc)]
    for failure in failures:
        print(f"verification failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
