"""Output checks for the benchmark's jobs, sharing no code with qgwalk.

Each ``check_*`` function reads the CSV files one CLI job wrote and returns a
``Verdict``: the list of problems found (empty when the output is correct),
the number of data rows written, and counts the benchmark reports.

Independent oracles, used wherever one exists:

* scans: every root and its multiplicity against the spectrum that
  ``oracles.py`` computed when the inputs were generated (``meta``);
* eigenfunctions: each sampled edge is fitted to the two plane waves the
  metric-graph equation allows, and continuity, the coupling condition and
  Dirichlet ends are checked from the fit;
* Szegedy walks with an explicit chain: the spectrum predicted here from the
  discriminant sqrt(p_ij p_ji), against the computed one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from oracles import coupling, edge_param

EVOLVE_TOL = 1e-10       # per-step probability sum
ROOT_K_TOL = 1e-8        # root position against the oracle, relative to max(1, k)
SPECTRUM_TOL = 1e-8      # phase error, as the CLI's szegedy default
DET_TOL = 1e-8           # reduced vs direct determinant, relative to max(1, |det|)
EIGEN_TOL = 1e-7         # eigenfunction conditions, relative to max(1, k) max|psi|

IDENTITIES = {"unitarity_g", "unitarity_a", "inverse_flip_flop", "partition_change",
              "g_type_reduction", "a_type_reduction", "adjacency_support"}


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    rows: int = 0
    counts: dict = field(default_factory=dict)
    roots: list = field(default_factory=list)


def read_csv(path: str) -> tuple[list, list]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _load(out: str, name: str, header: list, verdict: Verdict) -> list | None:
    path = os.path.join(out, name)
    if not os.path.exists(path):
        verdict.problems.append(f"{name} missing")
        return None
    got, rows = read_csv(path)
    if got != header:
        verdict.problems.append(f"{name} header {got} != {header}")
        return None
    verdict.rows += len(rows)
    return rows


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def check_evolve(meta: dict, out: str, config: dict) -> Verdict:
    v = Verdict()
    rows = _load(out, "distribution.csv", ["step", "vertex", "probability"], v)
    if rows is None:
        return v
    n, steps = meta["vertices"], meta["steps"]
    if len(rows) != (steps + 1) * n:
        v.problems.append(f"{len(rows)} rows, expected {(steps + 1) * n}")
        return v
    try:
        table = np.array(rows, dtype=float).reshape(steps + 1, n, 3)
    except ValueError as exc:
        v.problems.append(f"unparsable distribution: {exc}")
        return v
    if np.any(table[:, :, 0] != np.arange(steps + 1)[:, None]):
        v.problems.append("step column out of order")
    if np.any(table[:, :, 1] != np.arange(1, n + 1)[None, :]):
        v.problems.append("vertex column out of order")
    probs = table[:, :, 2]
    if not np.all(probs >= 0.0):
        v.problems.append("negative or NaN probability")
    drift = np.abs(probs.sum(axis=1) - 1.0)
    if not np.all(drift <= EVOLVE_TOL):
        bad = int(np.argmax(drift))
        v.problems.append(f"step {bad} sums to 1 + {drift[bad]:.3e}")
    if abs(probs[0, meta["initial_vertex"] - 1] - 1.0) > EVOLVE_TOL:
        v.problems.append("step 0 is not concentrated on the initial vertex")
    return v


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def check_verify(meta: dict, out: str, config: dict) -> Verdict:
    v = Verdict()
    rows = _load(out, "identities.csv", ["identity", "residual", "tolerance", "pass"], v)
    if rows is None:
        return v
    names = {r[0] for r in rows}
    duality = {nm for nm in names if nm.startswith("shift_duality_")}
    if names - duality != IDENTITIES or len(duality) != 1 or len(rows) != 8:
        v.problems.append(f"identity set {sorted(names)}")
    for name, residual, tol, ok in rows:
        if ok != "True" or not float(residual) <= float(tol):
            v.problems.append(f"{name}: residual {residual} over {tol} ({ok})")
    return v


def _phases(z: np.ndarray) -> np.ndarray:
    """Sorted phases in [-1e-6, 2 pi - 1e-6), so that +1 never wraps."""
    a = np.mod(np.angle(z), 2.0 * math.pi)
    a[a >= 2.0 * math.pi - 1e-6] -= 2.0 * math.pi
    return np.sort(a)


def _phase_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(_phases(a) - _phases(b)).max())


def szegedy_prediction(chain: np.ndarray, edges: list) -> np.ndarray:
    """Walk spectrum of S (2 A A' - I) from the discriminant's eigenvalues."""
    n, m = chain.shape[0], len(edges)
    nus = np.linalg.eigvalsh(np.sqrt(chain * chain.T))
    out = []
    for nu in nus:
        # acos has infinite slope at +/-1: round-off there would cost ~1e-8 in phase
        at_pm1 = abs(abs(nu) - 1.0) <= 1e-8
        theta = math.acos(math.copysign(1.0, nu) if at_pm1 else nu)
        out.append(complex(math.cos(theta), math.sin(theta)))
        if not (m == n - 1 and at_pm1):
            out.append(complex(math.cos(theta), -math.sin(theta)))
    out += [1.0 + 0j, -1.0 + 0j] * max(0, m - n)
    return np.array(out)


def check_szegedy(meta: dict, out: str, config: dict) -> Verdict:
    v = Verdict()
    size = 2 * len(meta["edges"])
    rows = _load(out, "spectrum.csv", ["index", "predicted_re", "predicted_im",
                                       "computed_re", "computed_im"], v)
    match = _load(out, "matching.csv", ["case", "size", "max_angle_error", "shift",
                                        "max_lift_residual", "ok"], v)
    if rows is None or match is None:
        return v
    if len(match) != 1 or match[0][5] != "True" or int(match[0][1]) != size:
        v.problems.append(f"matching.csv says {match}")
    if len(rows) != size:
        v.problems.append(f"{len(rows)} phases, expected {size}")
        return v
    table = np.array(rows, dtype=float)
    predicted = table[:, 1] + 1j * table[:, 2]
    computed = table[:, 3] + 1j * table[:, 4]
    off = float(np.abs(np.abs(computed) - 1.0).max())
    if not off <= 1e-9:
        v.problems.append(f"computed spectrum off the unit circle by {off:.3e}")
    err = _phase_error(predicted, computed)
    if not err <= SPECTRUM_TOL:
        v.problems.append(f"predicted vs computed phases differ by {err:.3e}")
    if meta["explicit_chain"]:
        chain = np.array(config["szegedy"]["transition"], dtype=float)
        err = _phase_error(szegedy_prediction(chain, meta["edges"]), computed)
        if not err <= SPECTRUM_TOL:
            v.problems.append(f"independent prediction differs by {err:.3e}")
    return v


# ---------------------------------------------------------------------------
# metric graphs
# ---------------------------------------------------------------------------


def check_scan(meta: dict, out: str, config: dict) -> Verdict:
    v = Verdict()
    section = config["scan"]
    scan = _load(out, "scan.csv", ["k", "indicator", "det_re", "det_im",
                                   "reduced_re", "reduced_im"], v)
    roots = _load(out, "roots.csv", ["k", "indicator", "multiplicity"], v)
    if scan is None or roots is None:
        return v
    points = section["grid_points"]
    v.counts["grid_points"] = len(scan)
    if len(scan) != points:
        v.problems.append(f"{len(scan)} grid rows, expected {points}")
        return v
    table = np.array(scan, dtype=float)
    ks = table[:, 0]
    if ks[0] != section["k_min"] or ks[-1] != section["k_max"] or np.any(np.diff(ks) <= 0):
        v.problems.append("grid is not an ascending sweep of [k_min, k_max]")
    if not np.all(table[:, 1] >= 0.0):
        v.problems.append("negative or NaN indicator")
    det = table[:, 2] + 1j * table[:, 3]
    red = table[:, 4] + 1j * table[:, 5]
    pole = np.isnan(red)
    v.counts["pole_nan"] = int(pole.sum())
    gap = np.abs(red - det)[~pole] / np.maximum(1.0, np.abs(det[~pole]))
    if gap.size and not gap.max() <= DET_TOL:
        v.problems.append(f"reduced determinant off the direct one by {gap.max():.3e}")

    for k, ind, mult in roots:
        k, ind, mult = float(k), float(ind), int(mult)
        if not (section["k_min"] <= k <= section["k_max"] and 0.0 <= ind <= 1e-9 and mult >= 1):
            v.problems.append(f"root row {k!r}, {ind!r}, {mult}")
        v.roots.append((k, mult))
    expected = meta["expected_roots"]
    v.counts["roots"] = sum(m for _, m in v.roots)
    v.counts["roots_expected"] = sum(m for _, m in expected)
    if len(expected) != len(v.roots):
        v.problems.append(f"{len(v.roots)} roots, expected {len(expected)}")
    else:
        for (k, mult), (ke, me) in zip(v.roots, expected):
            if abs(k - ke) > ROOT_K_TOL * max(1.0, ke) or mult != me:
                v.problems.append(f"root {k!r} x{mult}, expected {ke!r} x{me}")
    return v


def _eigenfunction_fit(meta: dict, qg: dict, k: float, rows: list, v: Verdict) -> None:
    """Fit psi = c1 e^{i(k-A)x} + c2 e^{-i(k+A)x} on every edge (x from u < v),
    then check continuity and sum_e D psi = lambda psi, D = d/dx + i A outward."""
    samples = {}
    for u, w, x, re, im in rows:
        samples.setdefault((int(u), int(w)), []).append((float(x), complex(float(re), float(im))))
    if set(samples) != {tuple(e) for e in meta["edges"]}:
        v.problems.append("eigenfunction.csv does not cover every edge")
        return
    scale = max(abs(val) for pts in samples.values() for _, val in pts)
    tol = EIGEN_TOL * max(1.0, k) * scale
    ends = {}  # vertex -> [(value, outward covariant derivative)]
    for (u, w), pts in samples.items():
        xs = np.array([p[0] for p in pts])
        vals = np.array([p[1] for p in pts])
        a = edge_param(qg, "potentials", u, w)
        length = edge_param(qg, "lengths", u, w)
        basis = np.stack([np.exp(1j * (k - a) * xs), np.exp(-1j * (k + a) * xs)], axis=1)
        c, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        misfit = float(np.abs(basis @ c - vals).max())
        if not misfit <= tol or abs(xs[0]) > 0 or abs(xs[-1] - length) > 1e-12 * length:
            v.problems.append(f"edge {(u, w)} is not a wave of wavenumber {k!r} ({misfit:.2e})")
        e_end = np.array([np.exp(1j * (k - a) * length), np.exp(-1j * (k + a) * length)])
        slope = np.array([1j * k, -1j * k])
        ends.setdefault(u, []).append((c.sum(), (slope * c).sum()))
        ends.setdefault(w, []).append(((c * e_end).sum(), -(slope * c * e_end).sum()))
    for vertex, pairs in ends.items():
        values = [p[0] for p in pairs]
        spread = max(abs(x - values[0]) for x in values)
        lam = coupling(qg, vertex)
        value = sum(values) / len(values)
        if lam == math.inf:
            resid, limit = abs(value), tol
        else:
            resid, limit = abs(sum(p[1] for p in pairs) - lam * value), tol * max(1.0, lam)
        if not (spread <= tol and resid <= limit):
            v.problems.append(f"vertex {vertex}: spread {spread:.2e}, condition {resid:.2e}")


def check_eigenfunction(meta: dict, out: str, config: dict) -> Verdict:
    v = Verdict()
    eig = _load(out, "eigenfunction.csv", ["edge_u", "edge_v", "x", "value_re", "value_im"], v)
    bnd = _load(out, "boundary.csv", ["vertex", "condition", "residual", "ok"], v)
    equiv = _load(out, "equivalences.csv", ["form", "defect"], v)
    if eig is None or bnd is None or equiv is None:
        return v
    bad = [r for r in bnd if r[3] != "True"]
    if bad or not bnd or bnd[0][:2] != ["0", "I"]:
        v.problems.append(f"boundary rows not ok: {bad[:3]}")
    defects = [float(r[1]) for r in equiv]
    if len(defects) != 5 or not max(defects) <= 1e-8:
        v.problems.append(f"stationarity equivalences {defects}")
    _eigenfunction_fit(meta, config["quantum_graph"], float(config["eigenfunction"]["k"]),
                       eig, v)
    return v


CHECKS = {"evolve": check_evolve, "verify": check_verify, "szegedy": check_szegedy,
          "qg-scan": check_scan, "qg-eigenfunction": check_eigenfunction}


def check(job: dict, out: str, returncode) -> Verdict:
    """Judge one job: it must exit 0 and its files must pass the checks."""
    verdict = CHECKS[job["command"]](job["meta"], out, job["config"])
    if returncode != 0:
        verdict.problems.insert(0, f"exit code {returncode}")
    return verdict
