"""Walk-based graph algorithms: centrality, spatial search, isomorphism testing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _refined_peak
from .evolution import (
    HermitianOperator,
    _check_series_size,
    _series,
    limiting_distribution,
    time_average_distribution,
    uniform_state,
)
from .graphs import Graph
from .particles import BOSON, ParticleKind, build_extended_hamiltonian

__all__ = [
    "CentralityReport",
    "SearchResult",
    "GraphCertificate",
    "eigenvector_centrality",
    "qw_centrality",
    "spatial_search",
    "graph_certificate",
    "gi_test",
]


# -- centrality ----------------------------------------------------------


@dataclass
class CentralityReport:
    qw_scores: np.ndarray
    ev_scores: np.ndarray
    similarity: float
    qw_ranking: list[int]
    ev_ranking: list[int]


def eigenvector_centrality(g: Graph) -> np.ndarray:
    """Perron eigenvector of the adjacency matrix, nonnegative, unit L2."""
    if not g.is_connected():
        raise ValueError("eigenvector centrality requires a connected graph")
    return _perron(HermitianOperator.from_graph(g))


def _perron(h: HermitianOperator) -> np.ndarray:
    """The top eigenvector of h, signed nonnegative, clipped, unit L2."""
    vec = h.spectral_decompose()[1][:, -1]
    if vec.sum() < 0:
        vec = -vec
    if vec.min() < -1e-9:
        raise ArithmeticError("Perron vector has negative entries")
    vec = np.clip(vec, 0.0, None)
    return vec / np.linalg.norm(vec)


def qw_centrality(base: Graph, kind: ParticleKind = BOSON, t_final: float = 1000.0,
                  steps: int = 1000, use_limiting: bool = True) -> CentralityReport:
    """Rank extended-graph vertices by long-time averaged walk occupation.

    The walk starts from the uniform superposition over extended vertices;
    similarity is the cosine between the averaged occupation and the
    eigenvector centrality of the extended graph. ``use_limiting`` replaces
    the finite-horizon average with the exact spectral limit. Only boson and
    distinguishable pairs are accepted: the fermion extended graph carries
    negative exchange signs and a phased pair has none that is real, so
    neither has a Perron vector. Two particles on ``base`` reach every
    extended vertex exactly when ``base`` is connected, so connectivity is
    checked on the base graph.
    """
    if kind.tag not in ("boson", "distinguishable"):
        raise ValueError(f"centrality takes boson or distinguishable pairs; a {kind.tag} "
                         "extended graph has no nonnegative real weights, so no Perron vector")
    if not base.is_connected():
        raise ValueError("eigenvector centrality requires a connected graph")
    _, h_ext = build_extended_hamiltonian(base, kind)
    psi0 = uniform_state(h_ext.dim)
    if use_limiting:
        qw_scores = limiting_distribution(h_ext, psi0)
    else:
        qw_scores = time_average_distribution(h_ext, psi0, t_final, steps)
    ev_scores = _perron(h_ext)
    cos = float(qw_scores @ ev_scores / (np.linalg.norm(qw_scores) * np.linalg.norm(ev_scores)))
    return CentralityReport(
        qw_scores=qw_scores,
        ev_scores=ev_scores,
        similarity=cos,
        qw_ranking=_ranking(qw_scores),
        ev_ranking=_ranking(ev_scores),
    )


def _ranking(scores: np.ndarray) -> list[int]:
    """Vertices by descending score; scores within 1e-12 of their neighbour in
    that order tie, and tied vertices rank by ascending index, so symmetric
    vertices are not ordered by roundoff."""
    order = np.argsort(-scores, kind="stable")
    tie_group = np.concatenate(([0], np.cumsum(np.diff(scores[order]) < -1e-12)))
    return order[np.lexsort((order, tie_group))].tolist()


# -- spatial search ------------------------------------------------------


@dataclass
class SearchResult:
    t_opt: float
    success: float
    gamma: float
    peak_at_boundary: bool  # t_opt is 0 or the horizon: the window may cut the peak


# Pure bisection shrinks a bracket of two grid steps (at most horizon / 15.5,
# since a grid has at least 32 points) below _PEAK_XTOL * max(1, horizon) in
# 40 halvings, so the cap ends only a readout with no usable curvature.
_PEAK_XTOL = 1e-13
_NEWTON_CAP = 48


def _search_peak(h: HermitianOperator, psi0: np.ndarray, marked: list[int], horizon: float):
    """Peak marked-set probability within the horizon and its time.

    The probability is a trigonometric sum whose frequencies are eigenvalue
    differences, so its bandwidth is W = lambda_max - lambda_min and its
    shortest period 2 pi / W. The uniform grid on [0, horizon] takes 8 points
    per such period, and at least 32; ``_series_peak`` refines its best point.
    """
    w, v = h.spectral_decompose()
    rows = v[marked, :] * (v.conj().T @ psi0)
    periods = 8 * float(w[-1] - w[0]) * horizon / (2 * math.pi)  # floats: overflow is a silent inf
    _check_series_size(len(w), max(32, periods + 1))
    points = max(32, math.ceil(periods) + 1)
    return _series_peak(w, rows, np.linspace(0.0, horizon, points))


def _series_peak(w: np.ndarray, rows: np.ndarray, times: np.ndarray) -> tuple[float, float]:
    """Peak of S(t) = sum_m |a_m(t)|^2, a = rows @ exp(-i w t), over ``times``.

    The grid argmax is refined between its two grid neighbours by a
    safeguarded Newton iteration on the exact derivatives: one product gives
    a, a' and a'', so S' = 2 Re sum conj(a) a' and
    S'' = 2 Re sum (|a'|^2 + conj(a) a''). Each step shrinks the bracket
    toward the sign of S', then takes the Newton step -S'/S'' where S'' < 0
    and the step lands inside the bracket, and bisects it otherwise. It stops
    when the step or the bracket is below _PEAK_XTOL * max(1, horizon), when
    S' is at roundoff, or after _NEWTON_CAP steps. Returns the point reached
    and its value, or the grid maximum where that reads higher.

    The point reached, not the best point seen, is returned: near the peak S
    is flat to roundoff, so an earlier iterate can read a few ulps higher
    while lying sqrt(eps / |S''|) away from it.
    """
    values = (np.abs(_series(w, rows, None, times, -1j)) ** 2).sum(axis=0)
    k = int(np.argmax(values))
    t = float(times[k])
    lo, hi = float(times[max(k - 1, 0)]), float(times[min(k + 1, len(times) - 1)])
    tol = _PEAK_XTOL * max(1.0, float(times[-1]))
    rate = -1j * w
    derivs = np.stack([rows, rate * rows, -(w * w) * rows])
    # S' cannot be resolved closer to 0 than the roundoff of its products
    mags = np.abs(rows)
    floor = 16 * np.finfo(float).eps * float(mags.sum() * (mags * np.abs(w)).sum())
    for _ in range(_NEWTON_CAP):
        phase = rate * t
        a, a1, a2 = derivs @ np.exp(phase, out=phase)
        d1 = 2 * np.vdot(a, a1).real
        if abs(d1) <= floor:
            break
        if d1 > 0:
            lo = t
        else:
            hi = t
        d2 = 2 * (np.vdot(a1, a1).real + np.vdot(a, a2).real)
        t_next = t - d1 / d2 if d2 < 0 else t
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        if hi - lo <= tol or abs(t_next - t) <= tol:
            break
        t = float(t_next)
    else:  # the cap ended the loop after a step: read the point it reached
        a = rows @ np.exp(rate * t)
    s = float(np.vdot(a, a).real)
    if s >= values[k]:
        return t, s
    return float(times[k]), float(values[k])


def _vertex_set(vertices, n: int, name: str) -> list[int]:
    """Sorted distinct vertices, each checked to lie in 0..n-1."""
    vertices = sorted(set(int(x) for x in vertices))
    if not vertices:
        raise ValueError(f"{name} set must be nonempty")
    if vertices[0] < 0 or vertices[-1] >= n:
        raise ValueError(f"{name} vertices must lie in 0..{n - 1}, got {vertices}")
    return vertices


def spatial_search(g: Graph, marked, start=None, gamma_strategy="auto",
                   horizon: float | None = None) -> SearchResult:
    """Walk search with oracle Hamiltonian H = gamma * A + sum_w |w><w|.

    The walker starts in the uniform superposition over ``start`` (all
    vertices when None). Each gamma's peak is read from a time grid sized to
    the bandwidth of its spectrum (8 points per shortest period, at least
    32) and refined by safeguarded Newton on the exact time derivatives of
    the marked-set probability. For gamma_strategy="auto", gamma is tuned to
    maximize the peak success probability over (0, 2 / lambda_max] by
    ``_refined_peak``: a 25-point scan, refined by bounded Brent between the
    grid neighbours of its best point, which locates gamma to about
    1.5e-8 * gamma, not to Brent's xatol (see ``_refined_peak``). The default
    horizon sqrt(n) keeps the tuner on the fast resonance, which is what
    makes t_opt scale as sqrt(n).
    ``peak_at_boundary`` flags a t_opt at 0 or at the horizon.
    Auto mode needs lambda_max > 0, i.e. an edge; a fixed gamma and the
    horizon must be finite, and a grid over 2**26 state-time values is
    refused before it is allocated.
    """
    n = g.n
    marked = _vertex_set(marked, n, "marked")
    horizon = math.sqrt(n) if horizon is None else float(horizon)
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    a = g.adjacency()
    oracle = np.zeros((n, n))
    oracle[marked, marked] = 1.0
    start = range(n) if start is None else _vertex_set(start, n, "start")
    psi0 = np.zeros(n, dtype=complex)
    psi0[start] = 1.0 / np.sqrt(len(start))
    peaks = {}  # gamma -> (t_opt, success), so the tuned gamma is not evaluated twice

    def peak_for(gamma: float):
        if gamma not in peaks:
            peaks[gamma] = _search_peak(HermitianOperator(gamma * a + oracle), psi0, marked, horizon)
        return peaks[gamma]

    if gamma_strategy == "auto":
        lam_max = float(np.linalg.eigvalsh(a).max())
        if not lam_max > 0:
            raise ValueError(f"auto gamma needs an edge (lambda_max > 0), got lambda_max {lam_max}")
        grid = np.linspace(0.01 / lam_max, 2.0 / lam_max, 25)
        gamma = _refined_peak(lambda gs: np.array([peak_for(gv)[1] for gv in gs]), grid)[0]
    else:
        gamma = float(gamma_strategy)
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
    t_opt, success = peak_for(gamma)
    return SearchResult(t_opt=t_opt, success=success, gamma=gamma,
                        peak_at_boundary=t_opt in (0.0, horizon))


# -- graph isomorphism ---------------------------------------------------


@dataclass
class GraphCertificate:
    times: np.ndarray
    sorted_profiles: np.ndarray = field(repr=False)  # one row per time point


def graph_certificate(g: Graph, kind: ParticleKind = BOSON, times=None) -> GraphCertificate:
    """Relabeling-invariant certificate: sorted walk distributions over time.

    The boson-pair walk starts in the uniform superposition over extended
    basis states; sorting the measured probabilities removes all vertex
    labeling information, so isomorphic graphs produce identical
    certificates.
    """
    if times is None:
        times = np.linspace(0.5, 5.0, 10)
    times = np.asarray(times, dtype=float)
    if len(times) == 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonempty and ascending")
    basis, h_ext = build_extended_hamiltonian(g, kind)
    psi0 = uniform_state(len(basis))
    states = h_ext.evolve_many(psi0, times)
    probs = np.abs(states) ** 2
    profiles = np.sort(probs, axis=0)[::-1].T  # descending per time point
    return GraphCertificate(times=times, sorted_profiles=profiles)


def gi_test(g1: Graph, g2: Graph, times=None, threshold: float = 0.05,
            kind: ParticleKind = BOSON):
    """Compare walk certificates; a one-sided (necessary-condition) test.

    Returns (verdict, per-time L1 distance trace). Verdict is
    "non-isomorphic" when the mean certificate distance exceeds the
    threshold, else "consistent-with-isomorphic". The threshold must be
    finite and non-negative.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and non-negative, got {threshold}")
    if g1.n != g2.n:
        return "non-isomorphic", np.array([])
    c1 = graph_certificate(g1, kind, times)
    c2 = graph_certificate(g2, kind, times)
    trace = np.abs(c1.sorted_profiles - c2.sorted_profiles).sum(axis=1)
    verdict = "non-isomorphic" if trace.mean() > threshold else "consistent-with-isomorphic"
    return verdict, trace
