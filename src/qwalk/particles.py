"""Two-particle walks: exchange symmetry, extended graphs, and correlations.

A two-particle walk on an n-vertex graph is equivalent to a single-particle
walk on an extended graph whose size depends on the exchange symmetry:
n^2 states for distinguishable particles, C(n+1, 2) for bosons and
C(n, 2) for fermions. The extended operator of non-interacting particles
takes its spectrum from the base graph's: eigenvalues w_a + w_b and
eigenvectors from the pair rule. ``two_particle_correlation`` computes
output correlations directly from the single-particle unitary (permanent /
determinant forms) and serves as the independent oracle for the
extended-walk route. The dense factorization of the extended matrix
survives only in ``correlation_via_extended_walk``, which only the tests
and the benchmark call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import HermitianOperator, as_distribution, basis_state, evolve_quantum, measure
from .graphs import Graph, _check_dense_size, cartesian_power

__all__ = [
    "ParticleKind",
    "DISTINGUISHABLE",
    "BOSON",
    "FERMION",
    "phased",
    "ExtendedBasis",
    "build_extended_hamiltonian",
    "extended_graph",
    "two_particle_correlation",
    "correlation_via_extended_walk",
]


@dataclass(frozen=True)
class ParticleKind:
    """Exchange symmetry of a particle pair.

    ``phase`` interpolates between bosonic (0) and fermionic (pi) exchange;
    it is only meaningful for tag "phased".
    """

    tag: str  # "distinguishable" | "boson" | "fermion" | "phased"
    phase: float = 0.0

    def __post_init__(self):
        if self.tag not in ("distinguishable", "boson", "fermion", "phased"):
            raise ValueError(f"unknown particle kind {self.tag!r}")
        if not (0.0 <= self.phase < 2 * math.pi):
            raise ValueError("phase must lie in [0, 2*pi)")

    @classmethod
    def parse(cls, text: str) -> "ParticleKind":
        """Parse CLI syntax: distinguishable | boson | fermion | phase:<radians>."""
        if text.startswith("phase:"):
            return phased(float(text.split(":", 1)[1]))
        return cls(text)

    @property
    def exchange_phase(self) -> complex:
        if self.tag == "boson":
            return 1.0 + 0j
        if self.tag == "fermion":
            return -1.0 + 0j
        if self.tag == "phased":
            return complex(np.exp(1j * self.phase))
        raise ValueError("distinguishable particles carry no exchange phase")


DISTINGUISHABLE = ParticleKind("distinguishable")
BOSON = ParticleKind("boson")
FERMION = ParticleKind("fermion")


def phased(phi: float) -> ParticleKind:
    return ParticleKind("phased", phase=float(phi) % (2 * math.pi))


class ExtendedBasis:
    """Ordered two-particle mode-pair basis for one exchange symmetry.

    States are lexicographic: ordered pairs (i, j) for distinguishable
    particles, unordered with repetition i <= j for bosons, strictly
    ordered i < j for fermions.
    """

    def __init__(self, base_n: int, kind: ParticleKind):
        if base_n < 2:
            raise ValueError("base graph needs at least 2 vertices")
        # 1 when a state's second mode must exceed its first (fermions)
        self._strict = int(kind.tag == "fermion")
        if kind.tag == "distinguishable":
            first, second = divmod(np.arange(base_n * base_n), base_n)
        else:
            first, second = np.triu_indices(base_n, k=self._strict)
        self.base_n = base_n
        self.kind = kind
        self._modes = (first, second)  # mode-index arrays, one entry per state

    def __len__(self):
        return len(self._modes[0])

    @property
    def states(self) -> list[tuple[int, int]]:
        """The (i, j) mode pair of every state, in basis order."""
        return list(zip(self._modes[0].tolist(), self._modes[1].tolist()))

    def index(self, i: int, j: int) -> int:
        """Index of the basis state containing modes (i, j)."""
        if not (0 <= i < self.base_n and 0 <= j < self.base_n):
            raise KeyError(f"modes ({i}, {j}) outside 0..{self.base_n - 1}")
        if i == j and self._strict:
            raise KeyError(f"state ({i}, {j}) not in basis ({self.kind.tag})")
        return int(self._locate(i, j))

    def _locate(self, i, j):
        """State indices of the mode pairs (i, j), elementwise, unchecked."""
        n = self.base_n
        if self.kind.tag == "distinguishable":
            return i * n + j
        i, j = np.minimum(i, j), np.maximum(i, j)
        # rows i' < i of the upper triangle hold n - i' - strict states each
        return i * n - i * (i + 1) // 2 + j - self._strict * (i + 1)

    def to_json_list(self) -> list[list[int]]:
        return [list(s) for s in self.states]


def extended_graph(g: Graph, kind: ParticleKind) -> tuple[ExtendedBasis, Graph]:
    """Extended graph S (A(x)I + I(x)A) S^dag, built from the base edges.

    Each (base edge (u, v, w), spectator k) pair gives one extended edge
    between the states {u, k} and {v, k}. Bosons weight it w * sqrt(2)
    when an end is doubly occupied (k in {u, v}); fermions skip k in
    {u, v} and carry the exchange sign, -1 when k lies between u and v.
    Distinguishable pairs give the Cartesian square of g.
    """
    if kind.tag == "phased":
        raise ValueError("phased exchange has no real extended graph; use correlations")
    basis = ExtendedBasis(g.n, kind)
    _check_dense_size(len(basis))  # before any extended edge is built
    if kind.tag == "distinguishable":
        return basis, cartesian_power(g)
    # one row per base edge, one column per spectator k
    e = np.array(g.edges, dtype=float).reshape(-1, 3)
    u, v, w = e[:, :1].astype(int), e[:, 1:2].astype(int), e[:, 2:]
    k = np.arange(g.n)
    ends = (k == u) | (k == v)
    if kind.tag == "fermion":
        keep = ~ends
        weight = np.where((u < k) == (v < k), w, -w)
    else:
        keep = np.ones_like(ends)
        weight = np.where(ends, w * math.sqrt(2), w)
    edges = zip(basis._locate(u, k)[keep].tolist(), basis._locate(v, k)[keep].tolist(),
                weight[keep].tolist())
    return basis, Graph.from_edges(len(basis), edges)


def build_extended_hamiltonian(g: Graph, kind: ParticleKind) -> tuple[ExtendedBasis, HermitianOperator]:
    """Adjacency of the extended graph: S (A(x)I + I(x)A) S^dag.

    Real symmetric; for an unweighted base graph the bosonic off-diagonal
    entries are 0, 1 or sqrt(2). Its spectrum comes from one eigh of the
    base graph, not of the extended matrix.
    """
    basis, ext = extended_graph(g, kind)
    return basis, _pair_operator(g, basis, ext)


def _pair_operator(g: Graph, basis: ExtendedBasis, ext: Graph) -> HermitianOperator:
    """The extended graph ``ext`` of ``g`` as an operator factorized from g.

    With base eigenpairs (w, V), each basis pair (a, b) gives the eigenvalue
    w_a + w_b and the eigenvector whose state (i, j) entry is the pair rule
    V_ia V_jb + xi V_ib V_ja, over sqrt(2) for each doubly occupied mode of
    a boson pair. The factorization must reconstruct the extended adjacency.
    """
    entries = ext.adjacency()  # refuses an oversized extension before the dim^2 arrays
    w, v = HermitianOperator.from_graph(g).spectral_decompose()
    first, second = basis._modes
    order = np.argsort(w[first] + w[second], kind="stable")
    a, b = first[order], second[order]  # eigenvector pairs, ascending in w_a + w_b
    xi = {"distinguishable": 0.0, "boson": 1.0, "fermion": -1.0}[basis.kind.tag]
    vi, vj = v[first], v[second]  # one row per state (i, j)
    vecs = vi[:, a] * vj[:, b]
    vecs += xi * (vi[:, b] * vj[:, a])
    if basis.kind.tag == "boson":
        vecs[first == second] /= math.sqrt(2)  # doubly occupied states
        vecs[:, a == b] /= math.sqrt(2)  # doubly occupied pairs
    h = HermitianOperator(entries)
    h._set_spectrum(w[a] + w[b], vecs)
    return h


def _check_unitary(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("U must be square")
    if np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() > tol:
        raise ValueError("U is not unitary")
    return u


def two_particle_correlation(u, inputs: tuple[int, int], kind: ParticleKind) -> tuple[ExtendedBasis, np.ndarray]:
    """Output correlation of a particle pair injected at ``inputs`` through U.

    One rule covers every kind: the amplitude of modes (i, j) is
    A(i, j) = U_ia U_jb + xi U_ib U_ja with exchange phase xi = 0
    (distinguishable), 1 (boson), -1 (fermion) or e^{i phi} (phased), and
    P(i, j) = |A(i, j)|^2 / N^2 with N^2 the input state's squared norm.
    Unordered kinds fold P(j, i) into the state i < j.
    """
    u = _check_unitary(u)
    n = u.shape[0]
    a, b = inputs
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError("input modes out of range")
    xi = 0.0 if kind.tag == "distinguishable" else kind.exchange_phase
    # the input state's squared norm; for a doubly occupied mode it vanishes
    # as the phase approaches the fermionic point
    norm2 = abs(1 + xi) ** 2 if a == b else 1 + abs(xi) ** 2
    if norm2 < 2e-12:
        raise ValueError("no two-particle state with this exchange phase "
                         "occupies a single mode")
    p = np.abs(np.outer(u[:, a], u[:, b]) + xi * np.outer(u[:, b], u[:, a])) ** 2 / norm2
    basis = ExtendedBasis(n, kind)
    if kind.tag != "distinguishable":
        p += np.triu(p.T, 1)
    return basis, as_distribution(p[basis._modes])


def correlation_via_extended_walk(g: Graph, kind: ParticleKind, inputs: tuple[int, int], t: float) -> tuple[ExtendedBasis, np.ndarray]:
    """Cross-check route: single-particle walk on the extended graph, factorized
    as a dense matrix.

    Must match ``two_particle_correlation(exp(-iAt), inputs, kind)``
    elementwise.
    """
    if kind.tag == "phased":
        raise ValueError("phased exchange is only available via correlations")
    basis, ext = extended_graph(g, kind)
    h_ext = HermitianOperator.from_graph(ext)  # the dense eigh of the extended matrix
    start = basis.index(*inputs)
    psi = evolve_quantum(h_ext, basis_state(len(basis), start), t)
    return basis, measure(psi)
