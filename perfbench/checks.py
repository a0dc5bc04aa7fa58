"""Correctness checks for every benchmark operation.

Each check takes the operation's output plus reference data that the
benchmark computed itself (dense adjacency from the edge list, scipy
``expm``, networkx VF2, recorded panel verdicts) and raises ``CheckError``
when the output is wrong. No check calls qwalk.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm


class CheckError(Exception):
    """An operation returned a result its check rejects."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def dense_adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v, w in edges:
        a[u, v] = a[v, u] = w
    return a


# -- search ---------------------------------------------------------------


def search(adj: np.ndarray, marked, res, tol: float = 1e-8) -> None:
    """The reported success must be the marked-set probability at
    (gamma, t_opt), recomputed with a dense matrix exponential."""
    n = len(adj)
    require(math.isfinite(res.gamma) and res.gamma > 0, f"gamma {res.gamma}")
    h = res.gamma * adj.astype(complex)
    h[marked, marked] += 1.0
    psi = expm(-1j * res.t_opt * h) @ np.full(n, 1.0 / math.sqrt(n))
    p = float((np.abs(psi[marked]) ** 2).sum())
    require(abs(p - res.success) <= tol,
            f"search success {res.success!r} but expm gives {p!r} at t={res.t_opt}")


# -- pair walks -----------------------------------------------------------


def boson_extension(base_n: int, base_edges: int, ext) -> None:
    """Boson extension of a simple graph: C(n+1, 2) states and one extended
    edge per (base edge, spectator) pair, the 2|E| touching a doubly
    occupied state weighted sqrt(2), the rest 1."""
    basis, g = ext
    require(len(basis) == g.n == base_n * (base_n + 1) // 2, f"dim {g.n}")
    w = np.array([e[2] for e in g.edges])
    require(len(w) == base_edges * base_n, f"{len(w)} extended edges")
    root2 = np.isclose(w, math.sqrt(2), rtol=0, atol=1e-12)
    require(int(root2.sum()) == 2 * base_edges, "sqrt(2) edge count")
    require(np.all(np.isclose(w[~root2], 1.0, rtol=0, atol=1e-12)), "unit edge weights")


def spectrum(ext_edges, eig) -> None:
    """Eigenvalues of a zero-diagonal adjacency sum to 0 and their squares to
    twice the summed squared edge weights."""
    w, v = eig
    wsq = sum(e[2] ** 2 for e in ext_edges)
    require(np.all(np.diff(w) >= -1e-12), "eigenvalues not ascending")
    require(abs(w.sum()) <= 1e-8 * len(w), f"trace {w.sum()}")
    require(abs((w ** 2).sum() - 2 * wsq) <= 1e-8 * max(wsq, 1.0), "Frobenius norm")


def boson_probs(u: np.ndarray, inputs, outputs) -> np.ndarray:
    """Two-boson output probabilities from 2x2 permanents of U.

    ``outputs`` is an (m, 2) array of mode pairs; each probability is
    |perm U[out, in]|^2 over the product of occupation factorials.
    """
    a, b = inputs
    i, j = outputs[:, 0], outputs[:, 1]
    amp = u[i, a] * u[j, b] + u[i, b] * u[j, a]
    mult = (2.0 if a == b else 1.0) * np.where(i == j, 2.0, 1.0)
    return np.abs(amp) ** 2 / mult


def quantum_hitting(adj: np.ndarray, start: int, target: int, res, t_max: float,
                    tol: float = 1e-10) -> None:
    """Hitting efficiency of the pair (start, start) -> (target, target)
    must equal the permanent-formula probability at t_opt."""
    require(0.0 <= res.t_opt <= t_max, f"t_opt {res.t_opt}")
    u = expm(-1j * res.t_opt * adj)
    p = float(boson_probs(u, (start, start), np.array([[target, target]]))[0])
    require(abs(p - res.efficiency) <= tol,
            f"hitting efficiency {res.efficiency!r} but permanent gives {p!r}")
    require(res.efficiency >= res.profile.max() - 1e-12, "refined peak below grid peak")


def classical_hitting(res, t_max: float) -> None:
    require(0.0 <= res.t_opt <= t_max, f"t_opt {res.t_opt}")
    require(0.0 < res.efficiency <= 1.0, f"efficiency {res.efficiency}")
    require(res.efficiency >= res.profile.max() - 1e-12, "refined peak below grid peak")


def mixing(res, eps: float, horizon: float, uniform: bool = False) -> None:
    """Mixing converged; a symmetric CTRW must mix toward the uniform law."""
    require(0.0 < res.t_mix <= horizon, f"t_mix {res.t_mix}")
    require(res.trace[-1] <= eps, "trace ends above epsilon")
    ref = res.reference
    require(abs(ref.sum() - 1.0) <= 1e-9 and ref.min() >= -1e-12, "reference not a distribution")
    if uniform:
        require(np.abs(ref - 1.0 / len(ref)).max() <= 1e-9, "stationary law not uniform")


def correlation(adj: np.ndarray, inputs, t: float, out, tol: float = 1e-10) -> None:
    """Output correlations must match the permanent formula for exp(-iAt)."""
    basis, probs = out
    ref = boson_probs(expm(-1j * t * adj), inputs, np.array(basis.states))
    require(np.abs(probs - ref).max() <= tol, "correlations differ from permanents")


def same_distribution(p, q, tol: float = 1e-10) -> None:
    require(p.shape == q.shape and np.abs(p - q).max() <= tol,
            "extended-walk route differs from permanent route")


def chiral(model) -> None:
    h = model.hamiltonian.entries
    g = model.chiral
    require(np.abs(g[:, None] * h * g[None, :] + h).max() <= 1e-9, "chiral symmetry broken")


def band(value: float, centre: float, half_width: float = 0.05) -> None:
    """Topological probes must land in acceptance criterion 7's bands."""
    require(abs(value - centre) <= half_width, f"probe {value} outside {centre}+-{half_width}")


# -- graph isomorphism ----------------------------------------------------


def iso_verdict(verdict: bool, expected: bool) -> None:
    require(verdict == expected, f"oracle says {verdict}, VF2 says {expected}")


def gi_verdict(out, isomorphic: bool, relabelled: bool) -> None:
    """gi_test is one-sided: it may never flag an isomorphic pair, and a
    relabelled pair must give identical certificates."""
    verdict, trace = out
    if verdict == "non-isomorphic":
        require(not isomorphic, "isomorphic pair flagged non-isomorphic")
    if relabelled:
        require(verdict == "consistent-with-isomorphic", f"relabelled pair: {verdict}")
        require(float(np.max(trace)) < 1e-9, f"certificate distance {np.max(trace)}")


# -- reproduce ------------------------------------------------------------


def panel(out, expected: dict[str, bool]) -> None:
    """Exit code 0 and every summary.json verdict as recorded."""
    code, fig_dir = out
    require(code == 0, f"exit code {code}")
    summary = json.loads((Path(fig_dir) / "summary.json").read_text())
    got = {c["check"]: bool(c["pass"]) for c in summary["checks"]}
    require(got == expected, f"verdicts {got} differ from recorded {expected}")
