"""Spectral evolution machinery.

Quantum walks evolve as psi(t) = V exp(-i Lambda t) V^dag psi0 from a single
Hermitian eigendecomposition, so sweeping many time points costs O(dim^2)
each after the one-off O(dim^3) factorization. Classical continuous-time
random walks use the generator Q = A - D (unit rate per edge), which is
symmetric for undirected graphs and handled by the same machinery.
"""

from __future__ import annotations

import numpy as np

from .graphs import _MAX_DENSE_VALUES, Graph

__all__ = [
    "HermitianOperator",
    "as_state",
    "as_distribution",
    "measure",
    "basis_state",
    "uniform_state",
    "evolve_quantum",
    "evolve_classical",
    "classical_generator",
    "classical_stationary",
    "limiting_distribution",
    "time_average_distribution",
    "tv_distance",
    "l1_distance",
    "classical_fidelity",
    "sample_counts",
]

_HERMITICITY_TOL = 1e-10


class HermitianOperator:
    """Dense Hermitian matrix with a cached spectral decomposition.

    A matrix with no imaginary part is kept real, so it is factorized by a
    real symmetric ``eigh`` and its eigenvectors come back real.
    """

    def __init__(self, entries):
        M = np.asarray(entries)
        if np.iscomplexobj(M) and not np.any(M.imag):
            M = M.real
        M = M.astype(complex if np.iscomplexobj(M) else float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("operator must be a square matrix")
        if not np.isfinite(M).all():
            raise ValueError("operator entries must be finite")
        if np.abs(M - M.conj().T).max() > _HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
        self.entries = M
        self.dim = M.shape[0]
        self._eigenvalues = None
        self._eigenvectors = None

    @classmethod
    def from_graph(cls, g: Graph) -> "HermitianOperator":
        return cls(g.adjacency())

    def spectral_decompose(self):
        """Ascending eigenvalues and orthonormal eigenvector columns (cached)."""
        if self._eigenvalues is None:
            self._set_spectrum(*np.linalg.eigh(self.entries))
        return self._eigenvalues, self._eigenvectors

    def _set_spectrum(self, w, v) -> None:
        """Cache ascending eigenvalues ``w`` and eigenvector columns ``v``
        once they reconstruct the matrix."""
        recon = (v * w) @ v.conj().T
        if np.abs(recon - self.entries).max() > 1e-8 * max(self.dim, 1):
            raise ArithmeticError("spectral decomposition failed to reconstruct")
        self._eigenvalues = w
        self._eigenvectors = v

    def propagator(self, t: float) -> np.ndarray:
        """Unitary exp(-i H t)."""
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        w, v = self.spectral_decompose()
        return (v * np.exp(-1j * w * t)) @ v.conj().T

    def evolve_many(self, psi0: np.ndarray, times) -> np.ndarray:
        """States at several times, one column per time point."""
        w, v = self.spectral_decompose()
        return _series(w, v, v.conj().T @ np.asarray(psi0, dtype=complex), times, -1j)


def _series(w, rows, coeffs, times, rate) -> np.ndarray:
    """The spectral series rows @ exp(rate * Lambda * t) coeffs, one column per
    time point: rate -1j evolves a quantum state, rate 1 a classical distribution."""
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    phases = np.exp(rate * w[:, None] * times)
    return rows @ (phases * coeffs[:, None])


def _check_series_size(dim: int, points: float) -> None:
    """Refuse a time grid whose spectral series would exceed _MAX_DENSE_VALUES
    complex values; called before the grid or the series is allocated."""
    values = dim * points
    if values > _MAX_DENSE_VALUES:
        raise ValueError(
            f"time grid of {points:.3g} points on {dim} states needs {values:.3g} complex "
            f"values ({values * 16 / 2**30:.3g} GiB), over the limit of 2**26 (1 GiB); "
            "use a larger step or a shorter window")


def as_state(amplitudes) -> np.ndarray:
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state norm {norm} is not 1")
    return psi


def as_distribution(probs, tol: float = 1e-9) -> np.ndarray:
    """Validate, clamp tiny negative roundoff, and renormalize."""
    p = np.asarray(probs, dtype=float).ravel()
    if p.min() < -1e-12:
        raise ValueError(f"negative probability {p.min()}")
    s = p.sum()
    if abs(s - 1.0) > tol:
        raise ValueError(f"probabilities sum to {s}, not 1")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def basis_state(dim: int, index: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def uniform_state(dim: int) -> np.ndarray:
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)


def measure(psi: np.ndarray) -> np.ndarray:
    return as_distribution(np.abs(psi) ** 2)


def evolve_quantum(h: HermitianOperator, psi0, t: float) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.dim,):
        raise ValueError("state dimension mismatch")
    psi = h.evolve_many(psi0, [t])[:, 0]
    if abs(np.linalg.norm(psi) - np.linalg.norm(psi0)) > 1e-9:
        raise ArithmeticError("evolution failed to preserve norm")
    return psi


def classical_generator(g: Graph) -> np.ndarray:
    """CTRW generator Q = A - D; symmetric, columns sum to zero."""
    A = g.adjacency()
    return A - np.diag(A.sum(axis=1))


def _classical_spectrum(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The one factorization of Q = A - D: ascending rates, real eigenvectors."""
    return HermitianOperator(classical_generator(g)).spectral_decompose()


def _stationary(spectrum) -> np.ndarray:
    """Stationary distribution from the null vector of Q."""
    w, v = spectrum
    kernel = np.abs(w) < 1e-9
    if kernel.sum() != 1:
        raise ValueError("stationary distribution not unique (graph disconnected?)")
    pi = v[:, kernel][:, 0]
    if pi.sum() < 0:
        pi = -pi
    return as_distribution(pi / pi.sum(), tol=1e-6)


def _evolve_classical_many(g: Graph, p0, times) -> np.ndarray:
    """Validated distributions exp(Q t) p0, one column per time point."""
    p0 = as_distribution(p0)
    if p0.shape != (g.n,):
        raise ValueError("distribution dimension mismatch")
    w, v = _classical_spectrum(g)
    series = _series(w, v, v.T @ p0, times, 1)
    return np.stack([as_distribution(p, tol=1e-7) for p in series.T], axis=1)


def classical_stationary(g: Graph) -> np.ndarray:
    """Stationary distribution of Q = A - D from its null vector."""
    return _stationary(_classical_spectrum(g))


def evolve_classical(g: Graph, p0, t: float) -> np.ndarray:
    """p(t) = exp(Q t) p0 via the symmetric decomposition of Q."""
    return _evolve_classical_many(g, p0, [t])[:, 0]


def limiting_distribution(h: HermitianOperator, psi0) -> np.ndarray:
    """Long-time average over eigenspace projectors.

    Pbar(v) = sum over distinct eigenvalues of |<v| Pi_lambda |psi0>|^2;
    eigenvalues within 1e-8 * max(|lambda|, 1) are grouped into one eigenspace.
    """
    psi0 = as_state(psi0)
    w, v = h.spectral_decompose()
    degeneracy_tol = 1e-8 * max(np.abs(w).max(), 1.0)
    coeffs = v.conj().T @ psi0
    pbar = np.zeros(h.dim)
    start = 0
    for k in range(1, h.dim + 1):
        if k == h.dim or w[k] - w[k - 1] > degeneracy_tol:
            block = v[:, start:k] @ coeffs[start:k]
            pbar += np.abs(block) ** 2
            start = k
    return as_distribution(pbar, tol=1e-7)


def _average_times(t_final: float, steps: int, dim: int) -> np.ndarray:
    """The uniform grid of ``steps`` points in (0, T] that time averages of
    ``dim`` states use."""
    if t_final <= 0:
        raise ValueError(f"T must be positive, got {t_final}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_series_size(dim, steps)
    return np.linspace(t_final / steps, t_final, steps)


def time_average_distribution(h: HermitianOperator, psi0, t_final: float, steps: int) -> np.ndarray:
    """Riemann average of measured distributions over a uniform grid in (0, T]."""
    times = _average_times(t_final, steps, h.dim)
    states = h.evolve_many(as_state(psi0), times)
    avg = (np.abs(states) ** 2).mean(axis=1)
    return as_distribution(avg, tol=1e-7)


def tv_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    return 0.5 * float(np.abs(p - q).sum())


def l1_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    return float(np.abs(p - q).sum())


def classical_fidelity(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    return float(np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None)).sum() ** 2)


def sample_counts(p, shots: int, seed: int) -> np.ndarray:
    """Multinomial shot counts, deterministic under seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = as_distribution(p)
    rng = np.random.default_rng(np.uint64(seed))
    return rng.multinomial(shots, p)
