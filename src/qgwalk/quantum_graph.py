"""Metric-graph eigenproblems driven by the arc walk at wavenumber k.

The walk U(k) = Phi(k) Sigma(k) S is the G-type flip-flop evolution with the
metric-graph coins.  A wavenumber k is an eigenvalue of the underlying
differential problem exactly when U(k) has eigenvalue 1; the smallest singular
value of I - U(k) is the root indicator scanned and refined here.  One builder,
``_gaps``, forms the stack of I - U(k) over a batch of k for the scan's grid,
its refinement probes and multiplicity counts, and ``stationarity_indicator``:
each k's coin operator C(k) on ``q.arc_space`` with its columns gathered
through arc reversal (the flip-flop shift), the entries of C S with no shift
matrix.  ``stationary_vector`` and ``scattering_factorization`` take the same
entries from ``quantum_graph_walk(q, k)``.  ``q`` carries the graph and its
arc space, and each result carries its ``q``.

Edge parameters are read per arc, in arc order, from ``q.arc_lengths`` and
``q.arc_potentials``; ``q.propagation_phases(k)`` is Phi(k), exp(i L (k - A))
on every arc.  A stationary vector x of U(k) carries, on arc (i, j), the wave
outgoing from i after crossing the edge; dividing out that phase gives the
outgoing amplitude a(i,j) at the near end, and the eigenfunction on the edge
{i, j}, with x the distance from i, is

    Psi(x) = a(i,j) exp(+i (k - A(i,j)) x) + a(j,i) exp(+i (k - A(j,i)) (L - x)).

The incoming weight b(i,j) = a(j,i) exp(i L (k + A(i,j))) is a(j,i) times the
phase of the reverse arc; vertex values are a + b per incident edge, and the
covariant outgoing flux at a vertex is +i k sum_j (a - b).

``reduced_secular_determinant`` evaluates det(I - t U(k)) through a
vertex-sized determinant times explicit per-edge factors, computing its own
phases and never assembling U; agreement with the direct determinant is an
end-to-end check of the whole construction.  It is the one-point call of
``_reduced_determinants``, which takes a batch of k.

``scan_roots`` evaluates its grid in chunks of at most
``SCAN_CHUNK_ENTRIES`` complex entries (one k if a single I - U(k) is
larger), so its memory is flat in the grid size.  Each chunk is one ``_gaps``
call, whose coins come from one ``_metric_coin_sets`` call, with stacks that
hold no more entries than the chunk's I - U(k).  Each k still gets its own
coin set, views of those stacks, validated by ``coin_operator``; each chunk
then takes one batched SVD, one batched det and one batched reduced
determinant, bit for bit the per-k values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coins import (
    DIRICHLET,
    QuantumGraphParams,
    VertexWeights,
    _check_phases,
    _check_wavenumber,
    _check_weights,
    _metric_coin_sets,
    _vertex_cores,
    boundary_phase,
    projector_coins,
    quantum_graph_coins,
)
from .graphs import flip_flop_partition
from .operators import CoinSet, EvolutionOperator, coin_operator, evolution

__all__ = [
    "PoleProximityError",
    "quantum_graph_walk",
    "stationarity_indicator",
    "Root",
    "SecularScan",
    "scan_roots",
    "StationaryVector",
    "stationary_vector",
    "outgoing_amplitudes",
    "b_coefficients",
    "EigenfunctionSample",
    "sample_eigenfunction",
    "BoundaryRow",
    "BoundaryReport",
    "boundary_condition_report",
    "reduced_secular_determinant",
    "characteristic_determinant",
    "stationarity_equivalences",
    "ScatteringFactorization",
    "scattering_factorization",
]


class PoleProximityError(ValueError):
    """A per-edge factor is too close to zero to divide by."""


def quantum_graph_walk(q: QuantumGraphParams, k: float) -> EvolutionOperator:
    """G-type flip-flop walk with the metric-graph coins at wavenumber k."""
    return evolution(flip_flop_partition(q.graph), quantum_graph_coins(q, k), "G")


def _gaps(q: QuantumGraphParams, ks: np.ndarray) -> np.ndarray:
    """The (len(ks), N, N) stack of I - U(k), one k of ``ks`` per slot.

    U(k) = C(k) S is the coin operator's columns gathered through arc reversal.
    The coins of all of ``ks`` come from one ``_metric_coin_sets`` call; each
    k's coin set is validated on its own by ``coin_operator``.
    """
    space = q.arc_space
    eye = np.eye(space.size)
    gaps = np.empty((len(ks), space.size, space.size), dtype=complex)
    for gap, coins in zip(gaps, _metric_coin_sets(q, ks)):
        np.subtract(eye, coin_operator(space, coins)[:, space.reverse], out=gap)
    return gaps


def _gap_singular_values(q: QuantumGraphParams, k: float) -> np.ndarray:
    """Singular values of I - U(k), largest first: the one-k call of ``_gaps``."""
    return np.linalg.svd(_gaps(q, np.array([k], dtype=float))[0], compute_uv=False)


def stationarity_indicator(q: QuantumGraphParams, k: float) -> float:
    """Smallest singular value of I - U(k); zero exactly at eigenvalues."""
    return float(_gap_singular_values(q, k)[-1])


# ---------------------------------------------------------------------------
# root scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Root:
    k: float
    indicator: float
    multiplicity: int


@dataclass(frozen=True, eq=False)
class SecularScan:
    """Grid sweep of the root indicator plus the refined roots.

    ``reduced_determinants`` holds NaN wherever a per-edge factor sat inside
    the pole guard; the direct determinant has no such blow-ups.
    """

    ks: np.ndarray
    indicators: np.ndarray
    determinants: np.ndarray
    reduced_determinants: np.ndarray
    roots: tuple


def _golden_minimize(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Golden-section minimum with best-evaluated tracking."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    evaluations: list[tuple[float, float]] = []

    def probe(x: float) -> float:
        y = f(x)
        evaluations.append((y, x))
        return y

    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = probe(c), probe(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            if not a < c < d:
                break  # no float left strictly inside: the bracket cannot shrink
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            if not c < d < b:
                break  # as above
            fd = probe(d)
    best_y, best_x = min(evaluations)
    return best_x, best_y


# Largest scan grid: every point is a dense SVD and determinant, so a grid
# past this is a mistyped window or density, not a scan that could finish.
MAX_GRID_POINTS = 10**6
# Complex entries in one chunk's stack of I - U(k) (at least one k per chunk):
# the scan takes one SVD, one det and one reduced determinant per chunk, and
# its memory stays flat in the grid size.
SCAN_CHUNK_ENTRIES = 2**14
BRACKET_THRESHOLD = 0.1  # a grid minimum of the indicator under this is refined


def scan_roots(q: QuantumGraphParams, k_min: float, k_max: float,
               grid_points: int | None = None, refine_tol: float = 1e-10,
               root_tol: float = 1e-9) -> SecularScan:
    """Locate wavenumbers where U(k) has a unit eigenvalue.

    Sweeps the indicator on a uniform grid (default 2000 points per unit of
    k), with the direct and the reduced determinant (NaN at its poles) at
    every point.  The grid goes in chunks of at most ``SCAN_CHUNK_ENTRIES``
    entries of stacked I - U(k), one batch of coins and one batched SVD, det
    and reduced determinant per chunk, with values bit for bit those of one
    k at a time.  It then refines every local minimum under
    ``BRACKET_THRESHOLD`` by golden section to ``refine_tol``, keeps the grid
    point instead when its indicator is lower (a root on the grid), and
    accepts a root when the indicator is at most ``root_tol``.  Multiplicity
    counts singular values of I - U(k) below 1e-8.  A grid over
    ``MAX_GRID_POINTS`` points, given or defaulted, is rejected before
    anything is allocated, and so are a ``refine_tol`` that is not positive
    and a ``root_tol`` that is negative or NaN, which would reject every
    candidate.
    """
    if not (0.0 < k_min < k_max < math.inf):
        raise ValueError("need 0 < k_min < k_max < inf")
    if not refine_tol > 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol!r}")
    if not root_tol >= 0.0:
        raise ValueError(f"root_tol must be nonnegative, got {root_tol!r}")
    zero = [e for e, length in q.lengths.items() if length == 0.0]
    if zero:
        raise ValueError(f"cannot scan with zero-length edges: {zero}")
    if grid_points is None:
        grid_points = max(50, int(math.ceil(2000.0 * (k_max - k_min))))
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"scan grid of {grid_points} points is over the "
                         f"{MAX_GRID_POINTS} limit; narrow [k_min, k_max] or set grid_points")
    weights = VertexWeights.uniform(q.graph)
    ks = np.linspace(k_min, k_max, grid_points)
    indicators = np.empty(grid_points)
    dets = np.empty(grid_points, dtype=complex)
    reduced = np.empty(grid_points, dtype=complex)
    chunk = max(1, SCAN_CHUNK_ENTRIES // q.arc_space.size ** 2)
    for start in range(0, grid_points, chunk):
        part = ks[start:start + chunk]
        rows = slice(start, start + part.size)
        stack = _gaps(q, part)
        indicators[rows] = np.linalg.svd(stack, compute_uv=False)[:, -1]
        dets[rows] = np.linalg.det(stack)
        reduced[rows] = _reduced_determinants(q, part, 1.0, weights)[0]

    # local minima under the threshold, bracketed by their grid neighbours
    left_ok = np.r_[True, indicators[1:] <= indicators[:-1]]
    right_ok = np.r_[indicators[:-1] <= indicators[1:], True]
    minima = np.flatnonzero(~(indicators >= BRACKET_THRESHOLD) & left_ok & right_ok)

    found = []
    for i in minima.tolist():
        lo, hi = float(ks[max(i - 1, 0)]), float(ks[min(i + 1, grid_points - 1)])
        k_star, val = _golden_minimize(lambda k: float(_gap_singular_values(q, k)[-1]),
                                       lo, hi, refine_tol)
        if indicators[i] < val:  # golden section never probes the grid point itself
            k_star, val = float(ks[i]), float(indicators[i])
        if val <= root_tol:
            svals = _gap_singular_values(q, k_star)
            found.append(Root(k_star, val, int(np.sum(svals <= 1e-8))))

    found.sort(key=lambda r: r.k)
    roots: list[Root] = []
    for r in found:
        if roots and abs(r.k - roots[-1].k) <= max(10.0 * refine_tol, 1e-9):
            if r.indicator < roots[-1].indicator:
                roots[-1] = r
            continue
        roots.append(r)
    return SecularScan(ks, indicators, dets, reduced, tuple(roots))


# ---------------------------------------------------------------------------
# stationary vectors and eigenfunctions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StationaryVector:
    """Unit arc vector with U(k) a = a, phase-fixed for reproducibility, with
    the parameters it solves for and the walk ``U(k)`` it was taken from."""

    params: QuantumGraphParams
    k: float
    amplitudes: np.ndarray
    defect: float
    walk: EvolutionOperator


def stationary_vector(q: QuantumGraphParams, k: float,
                      root_tol: float = 1e-9) -> StationaryVector:
    """Nullspace direction of I - U(k); requires k to be a scanned-in root.

    The global phase is fixed by making the largest-magnitude component real
    and positive (first such index on ties).
    """
    walk = quantum_graph_walk(q, k)
    _, svals, vh = np.linalg.svd(np.eye(walk.size) - walk.matrix)
    defect = float(svals[-1])
    if defect > root_tol:
        raise ValueError(f"indicator {defect:.3e} at k={k!r}; not a root within {root_tol:g}")
    vec = vh[-1].conj()
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (vec[pivot].conjugate() / abs(vec[pivot]))
    return StationaryVector(q, k, vec, defect, walk)


def outgoing_amplitudes(q: QuantumGraphParams, k: float, x: np.ndarray) -> np.ndarray:
    """Per-arc outgoing amplitudes a from a stationary walk vector x.

    The walk vector holds each outgoing wave after it has crossed its edge;
    a(i,j) = x(i,j) exp(-i L (k - A(i,j))) undoes that propagation.
    """
    return x * q.propagation_phases(k).conj()


def b_coefficients(q: QuantumGraphParams, k: float, a: np.ndarray) -> np.ndarray:
    """Incoming weights b(i,j) = a(j,i) exp(i L (k + A(i,j))): a times the propagation
    phases, read through the arc reversal permutation."""
    return (a * q.propagation_phases(k))[q.arc_space.reverse]


@dataclass(frozen=True, eq=False)
class EigenfunctionSample:
    """Edge-sampled eigenfunction with its reconstruction diagnostics.

    ``a_star``/``b_star`` are the per-arc outgoing/incoming amplitudes (the
    walk vector with propagation phases divided out).  ``edge_xs`` and
    ``edge_values`` are keyed by canonical edge and sampled along the arc
    (u, v) with u < v.  ``symmetry_residual`` compares the two directed
    parameterizations of each edge; ``pp_wq_max_diff`` compares the per-arc
    scalar formula against the vectorized diagonal-matrix route.
    """

    params: QuantumGraphParams
    k: float
    stationarity_defect: float
    a_star: np.ndarray
    b_star: np.ndarray
    edge_xs: dict
    edge_values: dict
    vertex_values: dict
    symmetry_residual: float
    pp_wq_max_diff: float


def _pointwise_value(k: float, length: float, pot_fwd: float, pot_rev: float,
                     a_fwd: complex, a_rev: complex, x: float) -> complex:
    """The eigenfunction at ``x`` along an arc: its wave plus the reverse arc's, one scalar."""
    fwd = a_fwd * np.exp(1j * (k - pot_fwd) * x)
    rev = a_rev * np.exp(1j * (k - pot_rev) * (length - x))
    return fwd + rev


def sample_eigenfunction(sv: StationaryVector, samples_per_edge: int = 33) -> EigenfunctionSample:
    """Evaluate the eigenfunction on every edge and run its self-checks."""
    if samples_per_edge < 2:
        raise ValueError("need at least 2 samples per edge")
    q = sv.params
    space, g = q.arc_space, q.graph
    a = outgoing_amplitudes(q, sv.k, sv.amplitudes)
    b = b_coefficients(q, sv.k, a)

    edge_xs, edge_values = {}, {}
    symmetry = wq_diff = 0.0
    for (u, v) in g.edges:
        fwd, rev = space.index_of((u, v)), space.index_of((v, u))
        length = float(q.arc_lengths[fwd])
        xs = np.linspace(0.0, length, samples_per_edge)
        a_fwd, a_rev = complex(a[fwd]), complex(a[rev])
        pot_fwd, pot_rev = float(q.arc_potentials[fwd]), float(q.arc_potentials[rev])
        vals = np.array([_pointwise_value(sv.k, length, pot_fwd, pot_rev, a_fwd, a_rev, float(x))
                         for x in xs])
        # vectorized route: Psi = D1(x) a + D2(x) (reversal a)
        d1 = np.exp(1j * (sv.k - pot_fwd) * xs)
        d2 = np.exp(1j * (sv.k - pot_rev) * (length - xs))
        vec_vals = a_fwd * d1 + a_rev * d2
        wq_diff = max(wq_diff, float(np.abs(vals - vec_vals).max()))
        # the reverse arc parameterized from v must retrace the same values
        rev_vals = np.array([_pointwise_value(sv.k, length, pot_rev, pot_fwd, a_rev, a_fwd,
                                              float(length - x)) for x in xs])
        symmetry = max(symmetry, float(np.abs(vals - rev_vals).max()))
        edge_xs[(u, v)] = xs
        edge_values[(u, v)] = vals

    traces = a + b
    vertex_values = {i: complex(traces[space.origin_slice(i)].mean()) for i in g.vertices}

    return EigenfunctionSample(q, sv.k, sv.defect, a, b, edge_xs, edge_values,
                               vertex_values, symmetry, wq_diff)


@dataclass(frozen=True)
class BoundaryRow:
    vertex: int
    condition: str
    residual: float
    ok: bool


@dataclass(frozen=True, eq=False)
class BoundaryReport:
    rows: tuple
    ok: bool


def boundary_condition_report(sample: EigenfunctionSample, tol: float = 1e-8) -> BoundaryReport:
    """Check the three defining conditions of the edge-wise eigenfunction.

    I  (reported once, as vertex 0): the arc vector is stationary under U(k).
    II (per vertex): all incident edge traces agree at the vertex.
    III (per vertex): covariant outgoing flux +i k sum(a - b) equals the
        coupling term lambda * value; at DIRICHLET vertices the value itself
        must vanish.
    """
    q, a, b = sample.params, sample.a_star, sample.b_star
    space = q.arc_space
    rows = [BoundaryRow(0, "I", sample.stationarity_defect,
                        sample.stationarity_defect <= tol)]
    for i in q.graph.vertices:
        sl = space.origin_slice(i)
        traces = a[sl] + b[sl]
        spread = float(np.abs(traces[:, None] - traces).max())
        rows.append(BoundaryRow(i, "II", spread, spread <= tol))

        flux = 1j * sample.k * (a[sl] - b[sl]).sum()
        value, lam = sample.vertex_values[i], q.lam(i)
        resid = abs(value) if lam == DIRICHLET else abs(flux - lam * value)
        rows.append(BoundaryRow(i, "III", float(resid), resid <= tol))
    return BoundaryReport(tuple(rows), all(r.ok for r in rows))


# ---------------------------------------------------------------------------
# determinant reduction and operator-level structure
# ---------------------------------------------------------------------------


def characteristic_determinant(q: QuantumGraphParams, k: float, t: complex,
                               weights: VertexWeights | None = None) -> complex:
    """det(I - t U(k)) from the assembled walk (projector-steered coins)."""
    if weights is None:
        weights = VertexWeights.uniform(q.graph)
    u = evolution(flip_flop_partition(q.graph), projector_coins(q, weights, k), "G").matrix
    return complex(np.linalg.det(np.eye(q.arc_space.size) - t * u))


POLE_GUARD = 1e-10  # a per-edge factor of the reduced determinant this near 0 is a pole


def _reduced_determinants(q: QuantumGraphParams, ks: np.ndarray, t: complex,
                          weights: VertexWeights) -> tuple[np.ndarray, np.ndarray]:
    """det(I - t U(k)) at every k of ``ks`` by the reduced formula, and its per-edge factors.

    The factors 1 - t^2 e^{2 i k L_e} come one row per k, edges in
    ``q.graph.edges`` order.  A k with a factor within ``POLE_GUARD`` of zero
    gets NaN and is left out of the rest of the formula.  All else is batched
    except the boundary phases of coupled vertices (a scalar ``math.atan``
    each per k; 0.0 at lam = 0, as ``boundary_phase`` gives it, once per call)
    and each row's edge product times its core determinant, a 1-D ``np.prod``
    and a Python complex product: batched, those move in their last bits.
    """
    _check_weights(q, weights)
    g, space = q.graph, q.arc_space
    n = g.vertex_count
    origin, terminus = space.origin - 1, space.terminus - 1

    with np.errstate(over="ignore", invalid="ignore"):
        round_trip = np.exp(2j * ks[:, None] * q.arc_lengths)
    _check_phases(q, ks, round_trip, "2 k L")
    delta = 1.0 - t * t * round_trip
    edge_delta = delta[:, origin < terminus]  # the arcs u -> v with u < v are g.edges in order
    live = np.flatnonzero(~(np.abs(edge_delta) < POLE_GUARD).any(axis=1))
    ks, round_trip, delta = ks[live], round_trip[live], delta[live]

    lams, degrees = [q.lam(j) for j in g.vertices], space.degrees.tolist()
    dirichlet = [lam == DIRICHLET for lam in lams]
    coupled = [i for i, lam in enumerate(lams) if lam not in (0.0, DIRICHLET)]
    rho = np.zeros((live.size, n))  # boundary_phase at lam = 0; mu is 0 at DIRICHLET
    for row, k in zip(rho, ks.tolist()):
        row[coupled] = [boundary_phase(lams[i], degrees[i], k) for i in coupled]
    mu = 1.0 + np.exp(-1j * rho)
    mu[:, dirichlet] = 0.0
    alpha = weights.arc_vector
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(1j * q.arc_lengths * (ks[:, None] + q.arc_potentials))
    _check_phases(q, ks, phase, "L (k + A)")
    big_t = np.zeros((live.size, n, n), dtype=complex)
    alpha_rev = alpha[space.reverse]  # the weight of arc l -> i at the place of i -> l
    big_t[:, origin, terminus] = mu[:, origin] * np.conj(alpha) * alpha_rev * phase / delta
    big_d = np.zeros((live.size, n), dtype=complex)
    np.add.at(big_d, (slice(None), origin), np.abs(alpha) ** 2 * round_trip / delta)  # arc order
    diag = np.zeros((live.size, n, n), dtype=complex)
    diag[:, np.arange(n), np.arange(n)] = mu * big_d

    cores = np.linalg.det(np.eye(n) - t * big_t + t * t * diag)
    out = np.full(len(edge_delta), complex(math.nan, math.nan))
    for row, core in zip(live.tolist(), cores.tolist()):
        out[row] = complex(np.prod(edge_delta[row])) * core
    return out, edge_delta


def reduced_secular_determinant(q: QuantumGraphParams, k: float, t: complex,
                                weights: VertexWeights | None = None) -> complex:
    """det(I - t U(k)) via a vertex-sized determinant and per-edge factors.

    det(I - t U) = prod_e (1 - t^2 e^{2 i k L_e})
                   * det(I_V - t T(t) + t^2 D(t))

    with, writing mu_i = 1 + e^{-i rho_i} and alpha_i the weight vector,

        T(t)[i, j] = mu_i conj(alpha_i[j]) alpha_j[i]
                     e^{i L (k + A(i,j))} / (1 - t^2 e^{2 i k L_ij})
        D(t)[i, i] = mu_i sum_l |alpha_i[l]|^2
                     e^{2 i k L_il} / (1 - t^2 e^{2 i k L_il})

    The one-point call of the batched formula the scan uses.  Raises
    PoleProximityError, naming the first such edge of ``q.graph.edges``, when
    a per-edge factor is within ``POLE_GUARD`` of zero: T and D divide by them.
    """
    if weights is None:
        weights = VertexWeights.uniform(q.graph)
    _check_wavenumber(k)
    value, edge_delta = _reduced_determinants(q, np.array([k], dtype=float), t, weights)
    near = np.flatnonzero(np.abs(edge_delta[0]) < POLE_GUARD)
    if near.size:
        raise PoleProximityError(f"edge {q.graph.edges[near[0]]} factor |1 - t^2 e^(2ikL)| = "
                                 f"{abs(edge_delta[0, near[0]]):.3e} under guard")
    return complex(value[0])


def stationarity_equivalences(op: EvolutionOperator,
                              a: np.ndarray) -> tuple[float, float, float, float]:
    """Four reformulations of || U a - a || that must agree exactly.

    For the flip-flop shift S (an involution) and the coins C of ``op``, a
    flip-flop walk of either type: with b = S a, the A-type walk with C, the
    G-type walk with C^dag, the A-type walk with C^dag on b, and the G-type
    walk with C on b all have the same defect.  The defects agree for any arc
    vector; they additionally vanish when a is A-type stationary, i.e. the
    shift of a G-type stationary vector.  A walk on another partition raises.
    """
    if not op.partition.is_flip_flop:
        raise ValueError("stationarity equivalences need a flip-flop walk")
    # the flip-flop shift is an involution, so a gather through it is S a
    b = a[op.space.reverse]
    ua = op.with_kind("A")
    # C^dag is unitary exactly when the C validated with op is
    ua_d = replace(ua, coins=ua.coins.dagger())
    return (
        float(np.linalg.norm(ua.matrix @ a - a)),
        float(np.linalg.norm(ua_d.with_kind("G").matrix @ a - a)),
        float(np.linalg.norm(ua_d.matrix @ b - b)),
        float(np.linalg.norm(op.with_kind("G").matrix @ b - b)),
    )


@dataclass(frozen=True, eq=False)
class ScatteringFactorization:
    """U(k) split into a bare vertex-scattering step and edge phases."""

    vertex_step: EvolutionOperator
    edge_phases: np.ndarray
    residual: float


def scattering_factorization(q: QuantumGraphParams, k: float) -> ScatteringFactorization:
    """Write U(k) = diag(edge phases) (C[sigma] S) with phase-free sigma.

    sigma_j is the metric-graph coin with all propagation phases removed:
    (2 / (d_j + i lam_j / k)) J - I, or -I at a DIRICHLET vertex.  The
    returned residual is the spectral-norm defect of the factorization.
    """
    u = quantum_graph_walk(q, k).matrix
    sigma = CoinSet.from_stacks((vs, _vertex_cores(q, np.array([k], dtype=float), vs, arcs)[0])
                                for vs, arcs in q.arc_space.degree_blocks)
    vertex_step = evolution(flip_flop_partition(q.graph), sigma, "G")
    phases = q.propagation_phases(k)
    residual = float(np.linalg.norm(u - phases[:, None] * vertex_step.matrix, 2))
    return ScatteringFactorization(vertex_step, phases, residual)
