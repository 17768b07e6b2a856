"""Spectrum of the transition-matrix walk from a vertex-sized eigenproblem.

The walk is the A-type flip-flop evolution whose coins reflect about the
square-root transition profile.  Writing A for the isometry lifting vertex
j to its profile over outgoing arcs and S for the flip-flop shift, the walk
is S (2 A A^dag - I), and its full 2|E|-point spectrum is determined by the
symmetric n x n matrix T with entries sqrt(p(i,j) p(j,i)):

* each eigenvalue nu = cos(theta) contributes phases exp(+/- i theta), and
  extra = |E| - |V| copies each of +1 and -1 are added: extra is the exponent
  of (1 - t^2) in det(I - t U) = (1 - t^2)^extra det((1 + t^2) I - 2 t T)
  (Konno & Sato);
* extra < 0 only on a tree, whose one nu = +1 and one nu = -1 then lose
  their second copy, with its lift; ``case`` is the sign of extra.

Eigenvectors lift as (I - exp(i theta) S) A p; at nu = +/-1 the lift can
vanish, in which case that direction carries no genuine eigenvector.  The
lifts are taken and checked matrix-free: one gather lifts every discriminant
eigenvector (``lift_map`` is the dense A, kept as the reference), the shift
is a gather through arc reversal (``space.reverse``), and each residual
applies the walk with ``EvolutionOperator.apply``.

The oracle, ``direct_spectrum``, diagonalizes the dense walk.  When the walk
is exactly real (real chains, Grover, identity or real explicit coins) it
runs in real arithmetic on the same entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import TransitionMatrix, szegedy_coins
from .graphs import Graph, build_arc_space, flip_flop_partition
from .operators import EvolutionOperator, evolution

__all__ = [
    "discriminant_matrix",
    "lift_map",
    "szegedy_walk",
    "LiftedEigenvector",
    "SpectralResult",
    "szegedy_spectrum",
    "direct_spectrum",
    "SpectrumMatch",
    "compare_spectra",
    "random_reversible_transition",
]

PM1_TOL = 1e-8  # a discriminant eigenvalue this close to +/-1 is taken as exactly +/-1


def discriminant_matrix(t: TransitionMatrix) -> np.ndarray:
    """Entrywise sqrt(p(i,j) p(j,i)); symmetric with spectrum in [-1, 1]."""
    return np.sqrt(t.matrix * t.matrix.T)


def lift_map(t: TransitionMatrix) -> np.ndarray:
    """Isometry (2|E| x n) sending vertex j to its sqrt-profile over arcs."""
    space = build_arc_space(t.graph)
    origin, terminus = space.origin - 1, space.terminus - 1
    a = np.zeros((space.size, space.graph.vertex_count))
    a[np.arange(space.size), origin] = np.sqrt(t.matrix[origin, terminus])
    return a


def _lift(t: TransitionMatrix, vecs: np.ndarray) -> np.ndarray:
    """``lift_map(t) @ vecs`` as a gather: arc (o, e) takes row o of ``vecs``
    times sqrt(p(o, e)), with no 2|E| x n matrix."""
    space = build_arc_space(t.graph)
    origin, terminus = space.origin - 1, space.terminus - 1
    lifted = vecs[origin]
    lifted *= np.sqrt(t.matrix[origin, terminus])[:, None]
    return lifted


def szegedy_walk(t: TransitionMatrix) -> EvolutionOperator:
    """A-type flip-flop walk with the square-root reflection coins."""
    return evolution(flip_flop_partition(t.graph), szegedy_coins(t), "A")


@dataclass(frozen=True, eq=False)
class LiftedEigenvector:
    """One lifted direction: genuine when the lift has nonzero norm."""

    eigenvalue: complex
    nu: float
    vector: np.ndarray | None
    genuine: bool
    residual: float | None


@dataclass(frozen=True, eq=False)
class SpectralResult:
    case: str
    nus: np.ndarray
    thetas: np.ndarray
    eigenvalues: np.ndarray
    lifts: tuple
    walk: EvolutionOperator


def szegedy_spectrum(t: TransitionMatrix) -> SpectralResult:
    """Predict the walk spectrum from the vertex-sized discriminant.

    Builds the phase multiset by the rule of extra = |E| - |V| and lifts one
    (would-be) eigenvector per phase a discriminant eigenvalue contributes.
    The result always has exactly 2|E| phases; that count is asserted, not
    assumed.
    """
    n, extra = t.graph.vertex_count, len(t.graph.edges) - t.graph.vertex_count
    disc = discriminant_matrix(t)
    nus, vecs = np.linalg.eigh(disc)
    # arccos has infinite slope at +/-1, so an eigensolver error of ~1e-16
    # in nu would otherwise blow up to ~1e-8 in theta
    snap = np.abs(np.abs(nus) - 1.0) <= PM1_TOL
    nus = np.where(snap, np.copysign(1.0, nus), nus)
    thetas = np.arccos(np.clip(nus, -1.0, 1.0))

    case = "tree" if extra < 0 else "unicyclic" if extra == 0 else "general"

    op = szegedy_walk(t)
    lifted = _lift(t, vecs)
    shifted = lifted[op.space.reverse]

    eigenvalues: list[complex] = []
    lifts: list[LiftedEigenvector] = []
    for idx in range(n):
        nu, theta = float(nus[idx]), float(thetas[idx])
        for sign in (1.0,) if extra < 0 and snap[idx] else (1.0, -1.0):
            mu = complex(np.exp(1j * sign * theta))
            eigenvalues.append(mu)
            lifts.append(_lift_direction(op, lifted[:, idx], shifted[:, idx], nu, mu))
    eigenvalues += [1.0 + 0.0j, -1.0 + 0.0j] * max(extra, 0)

    out = np.array(eigenvalues)
    if out.shape != (op.size,):
        raise AssertionError(f"predicted {out.shape[0]} phases, expected {op.size}")
    order = np.lexsort((out.real, np.angle(out)))
    return SpectralResult(case, nus, thetas, out[order], tuple(lifts), op)


def _lift_direction(op, ap, sap, nu, mu) -> LiftedEigenvector:
    """(I - mu S) A p from A p and S A p, with its residual under the walk."""
    w = ap - mu * sap
    nrm = np.linalg.norm(w)
    if nrm <= 1e-10:
        return LiftedEigenvector(mu, nu, None, False, None)
    w = w / nrm
    residual = float(np.linalg.norm(op.apply(w) - mu * w))
    return LiftedEigenvector(mu, nu, w, True, residual)


def direct_spectrum(op: EvolutionOperator) -> np.ndarray:
    """Dense eigensolve of the assembled walk, sorted by phase.

    An exactly real walk is diagonalized in real arithmetic: the matrix is
    the same, only the solver is the cheaper real one.
    """
    u = op.matrix
    if u.imag.any():
        vals = np.linalg.eigvals(u)
    else:
        vals = np.linalg.eigvals(u.real).astype(complex)
    off = np.abs(np.abs(vals) - 1.0).max()
    if off > 1e-10:
        raise ArithmeticError(f"eigenvalue modulus off the unit circle by {off:.3e}")
    order = np.lexsort((vals.real, np.angle(vals)))
    return vals[order]


@dataclass(frozen=True)
class SpectrumMatch:
    max_angle_error: float
    shift: int
    ok: bool


def compare_spectra(predicted: np.ndarray, computed: np.ndarray,
                    tol: float = 1e-8) -> SpectrumMatch:
    """Best cyclic alignment of two phase multisets on the unit circle.

    Sorting by angle fixes each multiset only up to a cyclic shift (phases
    wrap at pi), so all shifts are tried and the smallest worst-case angular
    distance wins.
    """
    if predicted.shape != computed.shape:
        raise ValueError("spectra have different sizes")
    m = predicted.shape[0]
    pa = np.sort(np.angle(predicted))
    ca = np.sort(np.angle(computed))
    best, best_shift = np.inf, 0
    for shift in range(m):
        d = np.abs(pa - np.roll(ca, shift))
        err = float(np.minimum(d, 2.0 * np.pi - d).max())
        if err < best:
            best, best_shift = err, shift
    return SpectrumMatch(best, best_shift, best <= tol)


def random_reversible_transition(g: Graph, rng: np.random.Generator) -> TransitionMatrix:
    """Transition matrix from positive symmetric edge weights (reversible)."""
    n = g.vertex_count
    w = np.zeros((n, n))
    for u, v in g.edges:
        w[u - 1, v - 1] = w[v - 1, u - 1] = rng.uniform(0.2, 1.0)
    return TransitionMatrix(g, w / w.sum(axis=1, keepdims=True))
