"""Walk-based graph algorithms: centrality, spatial search, isomorphism testing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .evolution import (
    _BLOCK_VALUES,
    HermitianOperator,
    _as_times,
    _check_series_size,
    _series_peak,
    limiting_distribution,
    time_average_distribution,
    uniform_state,
)
from .graphs import Graph
from .particles import BOSON, ExtendedBasis, ParticleKind, _pair_walk, build_extended_hamiltonian

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
    return _series_peak(w, rows, np.linspace(0.0, horizon, points), -1j)[:2]


def _refined_peak(f, grid: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The gamma tuner's finder (each readout is a search, with no derivatives
    to follow): the peak point, peak value and ``f(grid)`` of the vectorized
    readout ``f``, its grid argmax refined by bounded Brent between the grid
    neighbours, never below the grid maximum. Brent steps and stops on the
    scale sqrt(eps) * |x| + xatol / 3, so it places gamma to about
    1.5e-8 * gamma, not to ``xatol``, and less closely on a flat readout."""
    values = f(grid)
    k = int(np.argmax(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(lambda x: -f(np.array([x]))[0], bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    if values[k] > -res.fun:
        return float(grid[k]), float(values[k]), values
    return float(res.x), float(-res.fun), values


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
    32) and refined to about 1e-13 * max(1, horizon) by the safeguarded
    Newton iteration that also refines hitting peaks (``_series_peak``).
    For gamma_strategy="auto", gamma is tuned to
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
    """Certificate of sorted pair-walk distributions over time.

    The pair walk (boson by default; any kind, phased included) starts in
    the uniform superposition over extended basis states, and sorting each
    time's probabilities removes the vertex labels. Boson and distinguishable
    starts are relabeling-invariant, so isomorphic graphs give identical
    certificates; fermion and phased starts put the exchange phase on the
    later vertex of each pair, so theirs can differ. The pair evolves as an
    n x n mode matrix (``particles._pair_walk``) from one eigh of ``g``, in
    blocks of about _BLOCK_VALUES mode-matrix entries. A base of fewer than
    2 vertices, non-finite or descending times and a grid of more than 2**26
    state-time values are refused before the eigh.
    """
    if times is None:
        times = np.linspace(0.5, 5.0, 10)
    times = _as_times(times)
    if len(times) == 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonempty and ascending")
    basis = ExtendedBasis(g.n, kind)
    _check_series_size(len(basis), len(times))
    w, v = HermitianOperator.from_graph(g).spectral_decompose()
    step = max(1, _BLOCK_VALUES // g.n**2)
    lefts = (v * np.exp(-1j * np.multiply.outer(times[lo:lo + step], w))[:, None, :]
             for lo in range(0, len(times), step))
    profiles = np.sort(_pair_walk(basis, basis._modes, uniform_state(len(basis)), lefts, v))
    return GraphCertificate(times=times, sorted_profiles=profiles[:, ::-1])  # descending


def gi_test(g1: Graph, g2: Graph, times=None, threshold: float = 0.05,
            kind: ParticleKind = BOSON):
    """Compare walk certificates; a one-sided (necessary-condition) test.

    Returns (verdict, per-time L1 distance trace). Verdict is
    "non-isomorphic" when the mean certificate distance exceeds the
    threshold, else "consistent-with-isomorphic". The threshold must be
    finite and non-negative. Only boson and distinguishable pairs are
    accepted, before any eigh: fermion and phased certificates depend on the
    vertex order (``graph_certificate``), so they could flag true isomorphs.
    """
    if kind.tag not in ("boson", "distinguishable"):
        raise ValueError(f"gi_test takes boson or distinguishable pairs; a {kind.tag} "
                         "certificate depends on the vertex order")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and non-negative, got {threshold}")
    if g1.n != g2.n:
        return "non-isomorphic", np.array([])
    c1 = graph_certificate(g1, kind, times)
    c2 = graph_certificate(g2, kind, times)
    trace = np.abs(c1.sorted_profiles - c2.sorted_profiles).sum(axis=1)
    verdict = "non-isomorphic" if trace.mean() > threshold else "consistent-with-isomorphic"
    return verdict, trace
