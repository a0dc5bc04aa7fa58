"""Two-particle walks: exchange symmetry, extended graphs, and correlations.

A two-particle walk on an n-vertex graph is equivalent to a single-particle
walk on an extended graph whose size depends on the exchange symmetry:
n^2 states for distinguishable particles, C(n+1, 2) for bosons and
C(n, 2) for fermions. The extended operator of non-interacting particles
takes its spectrum from the base graph's: eigenvalues w_a + w_b and
eigenvectors from the pair rule, and ``build_extended_hamiltonian`` holds
the operator as that factorization alone. Pair probabilities of all four
kinds, phased pairs included, come from one walk of the n x n mode matrix,
Psi = U Psi0 U^T (``_pair_walk``), which needs no extended graph:
``two_particle_correlation`` runs it on a given unitary, graph certificates
on the one n x n factorization of the base graph. The dense factorization
of the extended matrix survives only in ``correlation_via_extended_walk``,
the cross-check route that only the tests and the benchmark call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .evolution import (
    HermitianOperator,
    as_distribution,
    basis_state,
    evolve_quantum,
    measure,
)
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
        """xi, the factor a swap of the two modes gives; real for bosons and fermions."""
        if self.tag == "boson":
            return 1.0
        if self.tag == "fermion":
            return -1.0
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
    ordered i < j for fermions. Its length is counted, and its mode arrays
    are built on first use, so a caller can refuse an oversized basis first.
    """

    def __init__(self, base_n: int, kind: ParticleKind):
        if base_n < 2:
            raise ValueError("base graph needs at least 2 vertices")
        # 1 when a state's second mode must exceed its first (fermions)
        self._strict = int(kind.tag == "fermion")
        self.base_n = base_n
        self.kind = kind

    @cached_property
    def _modes(self):  # mode-index arrays (first, second), one entry per state
        if self.kind.tag == "distinguishable":
            return divmod(np.arange(self.base_n**2), self.base_n)
        return np.triu_indices(self.base_n, k=self._strict)

    def __len__(self):
        n = self.base_n
        return n * n if self.kind.tag == "distinguishable" else n * (n + 1 - 2 * self._strict) // 2

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


_PHASED_HAS_NO_GRAPH = "phased exchange has no real extended graph; use correlations"


def extended_graph(g: Graph, kind: ParticleKind) -> tuple[ExtendedBasis, Graph]:
    """Extended graph S (A(x)I + I(x)A) S^dag, built from the base edges.

    Each (base edge (u, v, w), spectator k) pair gives one extended edge
    between the states {u, k} and {v, k}. Bosons weight it w * sqrt(2)
    when an end is doubly occupied (k in {u, v}); fermions skip k in
    {u, v} and carry the exchange sign, -1 when k lies between u and v.
    Distinguishable pairs give the Cartesian square of g.
    """
    if kind.tag == "phased":
        raise ValueError(_PHASED_HAS_NO_GRAPH)
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
    """The extended graph S (A(x)I + I(x)A) S^dag as an operator held only as
    its factorization, from one checked eigendecomposition of ``g``.

    With base eigenpairs (w, V), each basis pair (a, b) gives the eigenvalue
    w_a + w_b and the eigenvector whose state (i, j) entry is the pair rule
    V_ia V_jb + xi V_ib V_ja, over sqrt(2) for each doubly occupied mode of
    a boson pair. The extended matrix is never built (``extended_graph``
    builds its graph).
    """
    if kind.tag == "phased":
        raise ValueError(_PHASED_HAS_NO_GRAPH)
    basis = ExtendedBasis(g.n, kind)
    _check_dense_size(len(basis))  # the dim^2 eigenvectors, before the base eigh
    w, v = HermitianOperator.from_graph(g).spectral_decompose()
    first, second = basis._modes
    order = np.argsort(w[first] + w[second], kind="stable")
    a, b = first[order], second[order]  # eigenvector pairs, ascending in w_a + w_b
    vi, vj = v[first], v[second]  # one row per state (i, j)
    vecs = vi[:, a] * vj[:, b]
    if kind.tag != "distinguishable":
        vecs += kind.exchange_phase * (vi[:, b] * vj[:, a])
    if kind.tag == "boson":
        vecs[first == second] /= math.sqrt(2)  # doubly occupied states
        vecs[:, a == b] /= math.sqrt(2)  # doubly occupied pairs
    return basis, HermitianOperator._factorized(w[a] + w[b], vecs)


def _pair_walk(basis: ExtendedBasis, modes, amps, lefts, v=None) -> np.ndarray:
    """Probabilities over ``basis`` of the pair Psi = L M L^T, one row per L
    of the (times, n, n) stacks in ``lefts``.

    The mode matrix Psi0 is written from the amplitudes ``amps`` of the mode
    pairs ``modes`` = (i, j): Psi0_ij = a for distinguishable pairs, and for
    the other kinds Psi0_ij = a / sqrt(2) and Psi0_ji = xi a / sqrt(2) off
    the diagonal and Psi0_ii = a on it, with xi the kind's exchange phase.
    M is Psi0, or V^T Psi0 V when ``v`` is given, so that
    L = V diag(exp(-i w t)) evolves it by U(t) = V diag(exp(-i w t)) V^T.
    A state (i, j), i <= j, of an unordered kind folds both orders:
    |Psi_ij|^2 + |Psi_ji|^2, and |Psi_ii|^2 on the diagonal. Only phased
    pairs read Psi_ji, since |Psi_ji| = |Psi_ij| when xi = 1 or -1.
    """
    n, kind = basis.base_n, basis.kind
    i, j = modes
    m = np.zeros((n, n), dtype=complex)
    if kind.tag != "distinguishable":
        amps = np.where(i == j, 1.0, math.sqrt(0.5)) * amps
        m[j, i] = kind.exchange_phase * amps
    m[i, j] = amps  # on the diagonal this overwrites the exchanged entry
    if v is not None:
        m = v.T @ m @ v
    si, sj = basis._modes
    phased = kind.tag == "phased"
    blocks = []
    for left in lefts:
        psi = left @ m @ left.transpose(0, 2, 1)
        p = np.abs(psi[:, si, sj]) ** 2
        if phased:
            p += np.abs(psi[:, sj, si]) ** 2
        blocks.append(p)
    p = np.concatenate(blocks)
    if kind.tag == "distinguishable":
        return p
    # xi = 1 or -1 reads |Psi_ij|^2 once for both orders; phased pairs read
    # both, which counts the diagonal twice
    return p * (np.where(si == sj, 0.5, 1.0) if phased else np.where(si == sj, 1.0, 2.0))


def _check_unitary(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("U must be square")
    if not np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() <= tol:  # NaN fails too
        raise ValueError("U is not unitary")
    return u


def two_particle_correlation(u, inputs: tuple[int, int], kind: ParticleKind) -> tuple[ExtendedBasis, np.ndarray]:
    """Output correlation of a particle pair injected at ``inputs`` through U.

    The pair walk ``_pair_walk`` with L = U covers every kind: the amplitude
    of modes (i, j) is A(i, j) = U_ia U_jb + xi U_ib U_ja with exchange phase
    xi = 0 (distinguishable), 1 (boson), -1 (fermion) or e^{i phi} (phased),
    over the input state's norm, and unordered kinds fold (j, i) into the
    state i < j. A doubly occupied input mode is refused where its state
    vanishes: for fermions, and for phased pairs near the fermionic point.
    """
    u = _check_unitary(u)
    n = u.shape[0]
    a, b = inputs
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError("input modes out of range")
    if a == b and kind.tag != "distinguishable" and abs(1 + kind.exchange_phase) ** 2 < 2e-12:
        raise ValueError("no two-particle state with this exchange phase "
                         "occupies a single mode")
    basis = ExtendedBasis(n, kind)
    return basis, as_distribution(_pair_walk(basis, (a, b), 1.0, [u[None]])[0])


def correlation_via_extended_walk(g: Graph, kind: ParticleKind, inputs: tuple[int, int], t: float) -> tuple[ExtendedBasis, np.ndarray]:
    """Cross-check route: single-particle walk on the extended graph, factorized
    as a dense matrix.

    Must match ``two_particle_correlation(exp(-iAt), inputs, kind)``
    elementwise.
    """
    basis, ext = extended_graph(g, kind)
    h_ext = HermitianOperator.from_graph(ext)  # the dense eigh of the extended matrix
    start = basis.index(*inputs)
    psi = evolve_quantum(h_ext, basis_state(len(basis), start), t)
    return basis, measure(psi)
