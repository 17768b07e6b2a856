"""Metric-graph spectra computed without qgwalk.

* ``von_below_roots``: equilateral Kirchhoff graphs (von Below, Linear
  Algebra Appl. 71, 1985).  With P the simple random walk matrix, k is a root
  exactly when cos kL is an eigenvalue of P (same multiplicity) for
  sin kL != 0; at kL = 2 pi m the multiplicity is |E| - |V| + 2, and at
  kL = (2m + 1) pi it is |E| - |V| + 2 on a bipartite graph and |E| - |V|
  otherwise.  This gives the interval (m pi / L), the star ((m + 1/2) pi / L
  with multiplicity d - 1, and m pi / L), the n-cycle (2 pi m / (n L),
  double) and K_n.
* ``secular_roots``: any lengths, delta or Dirichlet couplings and magnetic
  potentials, for roots away from the poles sin kL_e = 0.  On edge u -> v
  with length L and potential A, psi = e^{-iAx} phi with phi a free wave, so
  the outgoing covariant derivative (d/dx + iA) psi at u is
  k (e^{iAL} psi(v) - cos kL psi(u)) / sin kL.  The vertex conditions
  sum (d/dx + iA) psi = lambda psi become M(k) psi = 0 with the Hermitian

      M_uu = -k sum_e cot kL_e - lambda_u,   M_uv = k sum_e e^{i A L_e} / sin kL_e,

  Dirichlet vertices removed.  Roots are the sign changes of the real
  det M(k) between poles, refined by bisection; generic graphs have simple
  roots, which all change sign.

Parameters use the config's ``quantum_graph`` form: a number for every
edge or vertex, or a dict keyed "u,v" (u < v) or by vertex, and
"dirichlet" for an infinite coupling.
"""

from __future__ import annotations

import math

import numpy as np


def edge_param(qg: dict, key: str, u: int, v: int) -> float:
    val = qg[key]
    return float(val[f"{u},{v}"]) if isinstance(val, dict) else float(val)


def coupling(qg: dict, vertex: int) -> float:
    val = qg["lambdas"]
    val = val[str(vertex)] if isinstance(val, dict) else val
    return math.inf if val == "dirichlet" else float(val)


def _is_bipartite(n: int, edges: list) -> bool:
    adj = {i: [] for i in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    colour = {1: 0}
    stack = [1]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b not in colour:
                colour[b] = 1 - colour[a]
                stack.append(b)
            elif colour[b] == colour[a]:
                return False
    return True


def von_below_roots(edges: list, length: float, k_min: float, k_max: float) -> list:
    """[(k, multiplicity)] in (k_min, k_max) for an equilateral Kirchhoff graph."""
    n = max(max(e) for e in edges)
    adj = np.zeros((n, n))
    for a, b in edges:
        adj[a - 1, b - 1] = adj[b - 1, a - 1] = 1.0
    inv_sqrt_deg = 1.0 / np.sqrt(adj.sum(axis=1))
    # P = D^-1 A is similar to the symmetric D^-1/2 A D^-1/2
    spec = np.linalg.eigvalsh(inv_sqrt_deg[:, None] * adj * inv_sqrt_deg[None, :])
    phases = {}  # kL in (0, 2 pi] -> multiplicity
    for mu in spec:
        if abs(abs(mu) - 1.0) > 1e-9:
            theta = math.acos(mu)
            for ph in (theta, 2.0 * math.pi - theta):
                key = next((p for p in phases if abs(p - ph) < 1e-9), ph)
                phases[key] = phases.get(key, 0) + 1
    cyclomatic = len(edges) - n
    phases[math.pi] = cyclomatic + (2 if _is_bipartite(n, edges) else 0)
    phases[2.0 * math.pi] = cyclomatic + 2
    roots = []
    period = 2.0 * math.pi / length
    for ph, mult in phases.items():
        if mult == 0:
            continue
        k = ph / length
        k += period * math.ceil((k_min - k) / period)
        while k < k_max:
            roots.append((k, mult))
            k += period
    return sorted(roots)


def secular_det(edges: list, qg: dict, ks: np.ndarray) -> np.ndarray:
    """det M(k) at every k in ``ks``; real because M(k) is Hermitian."""
    n = max(max(e) for e in edges)
    m = np.zeros((ks.size, n, n), dtype=complex)
    for u, v in edges:
        length = edge_param(qg, "lengths", u, v)
        phase = np.exp(1j * edge_param(qg, "potentials", u, v) * length)
        sin, cot = np.sin(ks * length), 1.0 / np.tan(ks * length)
        m[:, u - 1, u - 1] -= ks * cot
        m[:, v - 1, v - 1] -= ks * cot
        m[:, u - 1, v - 1] += ks * phase / sin
        m[:, v - 1, u - 1] += ks * np.conj(phase) / sin
    keep = [i for i in range(n) if coupling(qg, i + 1) != math.inf]
    for i in keep:
        m[:, i, i] -= coupling(qg, i + 1)
    return np.linalg.det(m[:, keep][:, :, keep]).real


def secular_roots(edges: list, qg: dict, k_min: float, k_max: float,
                  step: float = 1e-3) -> list:
    """Sorted simple roots in (k_min, k_max), found on a grid of ``step``."""
    lengths = [edge_param(qg, "lengths", u, v) for u, v in edges]
    poles = {m * math.pi / length for length in lengths
             for m in range(math.ceil(k_min * length / math.pi),
                            math.floor(k_max * length / math.pi) + 1)}
    cuts = [k_min, *sorted(p for p in poles if k_min < p < k_max), k_max]
    roots = []
    for a, b in zip(cuts, cuts[1:]):
        eps = 1e-9 * max(1.0, b)
        ks = np.linspace(a + eps, b - eps, max(3, int((b - a) / step) + 2))
        f = secular_det(edges, qg, ks)
        for i in np.nonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))[0]:
            lo, hi, neg = ks[i], ks[i + 1], np.signbit(f[i])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.signbit(secular_det(edges, qg, np.array([mid]))[0]) == neg:
                    lo = mid
                else:
                    hi = mid
            roots.append(float(0.5 * (lo + hi)))
    return roots
