"""Spectral evolution machinery.

Quantum walks evolve as psi(t) = V exp(-i Lambda t) V^dag psi0 from a single
Hermitian eigendecomposition, so each time point costs O(dim^2) after the
one-off O(dim^3) factorization. Classical continuous-time random walks use
the generator Q = A - D (unit rate per edge), which is symmetric for
undirected graphs and handled by the same machinery, at the size of its
equitable quotient: colour refinement from the start distribution's values
splits the vertices into cells whose members have equally many neighbours
in each cell, so exp(Q t) p0 stays constant on each cell, and Q acts on such
vectors as a k x k matrix summed from the edge list (Godsil, Algebraic
Combinatorics, 1993, ch. 5). On the boson pair of the 9-layer glued tree 125
cells stand for 1,953 states; a graph without symmetry keeps one cell per
vertex, and its quotient is Q itself.

A bipartite matrix, whose nonzero entries all join two sides of its states
(glued trees, hypercubes, even cycles and their boson pairs, the chiral
lattices), is [[0, B], [B^H, 0]] up to labelling. Once it has at least
_BIPARTITE_FLOOR states it is factorized from the SVD of its block B
between the sides: each singular triple (s, u, v) gives eigenvalues -s and
+s with eigenvectors (u, -v) / sqrt(2) and (u, v) / sqrt(2), and the larger
side's extra columns of V are the null space. That is about half the cost
of eigh at 465 and 820 states. Every route ends in one snap and one check:
each run of ascending eigenvalues within 64 eps max|w| (LAPACK's error
bound, Anderson et al., LAPACK Users' Guide, 3rd ed., 1999, sec. 4.7) is
set to its mean, so a degenerate eigenvalue holds one value whatever the
labelling, and the eigenpairs must reconstruct the matrix.

Every readout evaluates one spectral series, rows @ exp(rate Lambda t) coeffs,
over its time points, in blocks of points whose phases and output each hold
about 2**16 values. An eigenspace is a run of eigenvalues the snap made
equal, for folds, limits and mixing references alike. Its terms share one
phase, so a readout folds it into one term, its sum of rows * coeffs, where
that saves more than it costs; limits and mixing always fold. On cycles,
glued trees, hypercubes and lattices that removes most terms; a non-degenerate
spectrum is left as it is. Rows repeat too: two states whose folded rows are
equal have equal amplitudes at every time (lumpability; Kemeny & Snell, Finite
Markov Chains, 1960, ch. 6). So the quantum readouts that read every state
over many points, time averages and mixing traces, evaluate one representative
row per class of equal rows, where that pays, and weight or copy it over its
class; on the boson pair of the 7-layer glued tree 42 rows stand for 465
states. Classical readouts evaluate one row per cell.
Readouts that keep every column (``evolve_many``, hitting profiles) get the
blocks written into one array; readouts that reduce over time (time
averages, mixing traces) consume the blocks one at a time and never hold a
states x points array. Complex phases meet several real columns in one
real matrix product on the block's float view, and real (classical) phases
that underflow below 2**-900 are flushed to zero, since subnormal operands
stall the product.

On a uniform grid exp(rate w t) factors exactly into exp(rate w t_c) times
exp(rate w (t - t_c)), t_c the point that starts t's segment of about
sqrt(points) points. So a block of 2**14 or more phase values whose grid
checks out as uniform builds its phases as the outer product of two small
tables, the exps at every segment start and at the first segment's
offsets: about 2 sqrt(points) exps per term and one multiply per value
instead of one exp per value (at 820 terms x 79 points, 0.5 ms against
2.1 ms on one core). Complex phases carry the coefficients in the start
table. Non-uniform times, single points and smaller blocks, such as
search's bandwidth grids, keep one exp per value.
"""

from __future__ import annotations

import numpy as np

from .graphs import _MAX_DENSE_VALUES, Graph, _check_dense_size, _edge_arrays, _equitable

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
    "limiting_distribution",
    "time_average_distribution",
    "tv_distance",
]

_HERMITICITY_TOL = 1e-10
# Bipartite matrices of at least this many states are factorized from the
# SVD of their off-diagonal block (``_bipartite_eigh``); smaller ones keep
# eigh. On the boson pairs of cycles, glued trees and hypercubes (one BLAS
# thread, best of 15, search and assembly included) the SVD route took 1.7x
# eigh's time at 36 states, drew level at 78, and was 1.1-1.3x faster at
# 105, 1.7-1.9x at 136-210 and 2.3x at 465-528; below the crossover the
# breadth-first search's per-level overhead dominates.
_BIPARTITE_FLOOR = 100
# Ascending eigenvalues within this many eps * max|w| of each other are one
# cluster (``_snap``): LAPACK's eigenvalue error is about eps * max|w|
# (Anderson et al., LAPACK Users' Guide, 3rd ed., 1999, sec. 4.7), and
# degenerate clusters of the boson pairs of cycles, glued trees and Q_4
# spread by up to 15 eps * max|w| under relabelling.
_SNAP_EPS = 64
_EPS = np.finfo(float).eps


class HermitianOperator:
    """Dense Hermitian matrix with a cached spectral decomposition.

    A matrix with no imaginary part is kept real, so it is factorized in
    real arithmetic and its eigenvectors come back real. A matrix of at
    least _BIPARTITE_FLOOR states whose nonzero pattern is bipartite
    (``_bipartition``) is factorized from the SVD of its block between the
    two sides (``_bipartite_eigh``); any other goes to ``eigh``. Either way
    eigenvalue clusters within 64 eps max|w| are snapped to their mean
    (``_snap``) before the reconstruction check. An operator may also be
    held only as its factorization, with ``entries`` None, as the pair
    operators of ``build_extended_hamiltonian`` are.
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
        self._eigenvalues = self._eigenvectors = None

    @classmethod
    def from_graph(cls, g: Graph) -> "HermitianOperator":
        return cls(g.adjacency())

    @classmethod
    def _factorized(cls, w, v) -> "HermitianOperator":
        """The operator held only as ascending eigenvalues ``w`` and eigenvectors ``v``."""
        h = cls.__new__(cls)
        h.entries, h.dim = None, len(w)
        h._set_spectrum(w, v)
        return h

    def spectral_decompose(self):
        """Ascending eigenvalues and orthonormal eigenvector columns (cached)."""
        if self._eigenvalues is None:
            sides = _bipartition(self.entries) if self.dim >= _BIPARTITE_FLOOR else None
            if sides is None:
                self._set_spectrum(*np.linalg.eigh(self.entries))
            else:
                self._set_spectrum(*_bipartite_eigh(self.entries, *sides))
        return self._eigenvalues, self._eigenvectors

    def _set_spectrum(self, w, v) -> None:
        """Cache ascending eigenvalues ``w``, each cluster snapped to its mean
        (``_snap``), and eigenvector columns ``v`` once they reconstruct the
        matrix; an operator held only as its factorization has none to check."""
        w = _snap(w)
        if self.entries is not None:
            recon = (v * w) @ v.conj().T
            recon -= self.entries
            error = np.abs(recon, out=recon).max() if recon.dtype.kind == "f" else np.abs(recon).max()
            if error > 1e-8 * max(self.dim, 1):
                raise ArithmeticError("spectral decomposition failed to reconstruct")
        self._eigenvalues, self._eigenvectors = w, v

    def propagator(self, t: float) -> np.ndarray:
        """Unitary exp(-i H t)."""
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        w, v = self.spectral_decompose()
        return (v * np.exp(-1j * w * t)) @ v.conj().T

    def evolve_many(self, psi0: np.ndarray, times) -> np.ndarray:
        """States at several times, one column per time point."""
        times = _as_times(times)
        return _series(*self._folded(psi0, times.size), times, -1j)

    def _folded(self, psi0, points: int):
        """The terms of the series that evolves ``psi0`` over ``points`` time points."""
        w, v = self.spectral_decompose()
        return _fold(w, v, v.conj().T @ np.asarray(psi0, dtype=complex), points)

    def _eigenspaces(self, psi0):
        """Eigenvalues and columns of the series of ``psi0`` with one term per
        eigenspace (``_merge``), and its long-time average, sum |column|^2."""
        w, v = self.spectral_decompose()
        w, columns, _ = _merge(w, v, v.conj().T @ psi0, _runs(w, 0.0))
        return w, columns, as_distribution((np.abs(columns) ** 2).sum(axis=1), tol=1e-7)


# Output values per block of time points; each block is one matrix product.
# Sizing blocks by the larger of the term and row counts keeps a folded
# series from widening blocks, and so its memory, beyond the unfolded one's.
# 2**16 to 2**18 were fastest at dim 820, 2**12 was 1.6x slower and 2**20
# slower again.
_BLOCK_VALUES = 2**16
# Real phases below this are set to zero before the product: subnormal
# operands make it several times slower, and no dropped term exceeds 1e-270.
_FLUSH_BELOW = 2.0**-900
# Blocks of at least this many phase values on a uniform grid take their
# phases from two exp tables (``_phases``); smaller ones keep one exp per
# value. Below it the tables save at most about 0.4 ms, and it keeps search's
# bandwidth grids (32-70 points at dim <= 210) as they were: there the
# tables sped nothing up measurably but moved the tuned gamma, which rounding
# decides, by up to 5e-9.
_TABLE_VALUES = 2**14
# A grid point may lie this many times max|t| off the tables' sum of its
# coarse point and offset: a few ulp, the rounding of an arange or linspace.
_TABLE_DRIFT = 2.0**-50  # 4 eps
# The fold's fixed cost counted in multiply-adds of the series: its dozen
# numpy calls take about 20 us, as long as a product of 2**16. Grouping rows
# (``_lump``) makes about as many calls and is charged the same.
_FOLD_OVERHEAD = 2**16
# Two states fall in one class when their rows of the folded series, each
# with the state's reference value as one more entry, lie within this L1
# distance. Every |phase| is at most 1 (quantum phases are unit, classical
# rates are <= 0 and readout times >= 0), so each member's amplitude lies
# within _LUMP_L1 of its representative's at every t >= 0, its probability
# within 2 _LUMP_L1, and its reference value within _LUMP_L1. Rows that
# symmetry makes equal differed by at most 3.3e-13 on the boson pairs of
# glued trees, cycles and Q_4 (the classical generator on the 7-layer tree);
# distinct rows by at least 3.7e-4.
_LUMP_L1 = 1e-11
# Pure bisection shrinks a bracket of two grid steps (at most max|t| / 5, since
# a readout grid has at least 11 points) below _PEAK_XTOL * max(1, max|t|) in
# 41 halvings, so the cap ends only a readout with no usable curvature.
_PEAK_XTOL = 1e-13
_NEWTON_CAP = 48


def _bipartition(M: np.ndarray):
    """The two sides of a matrix with zero diagonal whose nonzero pattern is a
    bipartite graph with edges, as index arrays, smaller side first; None for
    any other matrix. A breadth-first search over the pattern, one component
    at a time, puts each state on the side of its level's parity; the
    pattern is bipartite when no nonzero entry joins two states of one level.
    """
    if M.diagonal().any():
        return None
    linked = M != 0
    odd = np.zeros(len(M), dtype=bool)
    seen = np.zeros(len(M), dtype=bool)
    while not seen.all():
        frontier, level = np.array([np.argmin(seen)]), False
        while frontier.size:
            seen[frontier] = True
            odd[frontier] = level
            rows = linked[frontier]
            if rows[:, frontier].any():
                return None
            frontier = np.flatnonzero(rows.any(axis=0) & ~seen)
            level = not level
    if not odd.any():  # no edges
        return None
    one, other = np.flatnonzero(odd), np.flatnonzero(~odd)
    return (one, other) if len(one) <= len(other) else (other, one)


def _bipartite_eigh(M: np.ndarray, small: np.ndarray, large: np.ndarray):
    """Ascending eigenvalues and eigenvectors of a matrix whose nonzero
    entries all join the states ``small`` to the states ``large``, from the
    SVD B = U S V^H of its block B = M[small, large].

    Each singular triple (s, u, v) gives the eigenvalues -s and +s with
    eigenvectors (u, -v) / sqrt(2) and (u, v) / sqrt(2), and the last
    len(large) - len(small) columns of V are null vectors on ``large``. They
    are written in ascending order: -s for descending s, the null space,
    then +s for ascending s.
    """
    p, q = len(small), len(large)
    u, s, vh = np.linalg.svd(M[np.ix_(small, large)])
    v = vh.conj().T
    w = np.concatenate((-s, np.zeros(q - p), s[::-1]))
    vecs = np.zeros((p + q, p + q), dtype=M.dtype)
    half = np.sqrt(0.5)
    vecs[small, :p] = u * half
    vecs[large, :p] = v[:, :p] * -half
    vecs[large, p:q] = v[:, p:]
    vecs[small, q:] = u[:, ::-1] * half
    vecs[large, q:] = v[:, p - 1::-1] * half
    return w, vecs


def _snap(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``w`` with each run that ``_runs`` groups at
    _SNAP_EPS * eps * max|w| set to the run's mean, so a degenerate
    eigenvalue holds one value whatever the rounding of its factorization."""
    if w.size < 2:
        return w
    tol = _SNAP_EPS * _EPS * max(-w[0], w[-1])
    if not (w[1:] - w[:-1] <= tol).any():
        return w
    starts = _runs(w, tol)
    counts = np.diff(np.append(starts, len(w)))
    return np.repeat(np.add.reduceat(w, starts) / counts, counts)


def _as_times(times) -> np.ndarray:
    """Caller-supplied time points as a float array, refused unless finite;
    the grids the readouts build from validated parameters skip this."""
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    return times


def _runs(w: np.ndarray, tol: float) -> np.ndarray:
    """Start index of each run of ascending eigenvalues ``w`` that spans at
    most ``tol``. Neighbours more than ``tol`` apart start a new run, and a
    chain of close neighbours whose ends lie further apart stays split into
    single eigenvalues."""
    split = np.concatenate(([True], np.diff(w) > tol))
    starts = np.flatnonzero(split)
    if len(starts) == len(w):
        return starts
    counts = np.diff(np.append(starts, len(w)))
    split |= np.repeat(w[starts + counts - 1] - w[starts] > tol, counts)
    return np.flatnonzero(split)


def _fold(w, rows, coeffs, points: int):
    """The series ``rows @ exp(rate Lambda t) coeffs`` over ``points`` time
    points with one term per eigenspace (``_merge``) where that pays.

    Each merged eigenvalue saves a pass over its column per time point;
    folding costs two passes over ``rows`` and _FOLD_OVERHEAD. Where that
    saves nothing, as for one time point or a small series, the inputs come
    back as they are.
    """

    def pays(terms):
        return len(rows) * (len(w) - terms) * points > 2 * len(rows) * len(w) + _FOLD_OVERHEAD

    if pays(1):  # else not even one term for the whole spectrum would pay
        starts = _runs(w, 0.0)
        if pays(len(starts)):
            return _merge(w, rows, coeffs, starts)
    return w, rows, coeffs


def _merge(w, rows, coeffs, starts):
    """The series with each eigenspace, the run of equal eigenvalues at each of
    ``starts``, as one term: its eigenvalue, its sum of rows * coeffs (real
    when they are; ``coeffs`` is None when ``rows`` carry them) and None. Only
    ``_snap`` makes eigenvalues equal: its runs are the eigenspaces of every
    fold, limit and mixing reference."""
    if coeffs is not None:
        if np.iscomplexobj(coeffs) and not coeffs.imag.any():
            coeffs = coeffs.real
        rows = rows * coeffs
    return w[starts], np.add.reduceat(rows, starts, axis=1), None


def _lump(rows, coeffs, reference, points: int):
    """Classes of states whose series agree at every time: the index of one
    representative state per class, the class sizes, and each state's class.

    A state's entries are its folded row, rows * coeffs (``rows`` when
    ``coeffs`` is None), and its ``reference`` value unless that is None.
    Its key projects them on a fixed vector of entries in [-1, 1], so states
    within _LUMP_L1 of each other have keys within _LUMP_L1. The states,
    sorted by key, fall into the runs that ``_runs`` groups at _LUMP_L1. A run
    is one class, represented by its first state, when the entries of every
    state in it lie within L1 distance _LUMP_L1 of that first state's;
    otherwise each of its states is a class of its own. Grouping costs about four passes over ``rows`` and
    _FOLD_OVERHEAD, and each state merged saves a pass over its row per time
    point; where even a single class would not pay, as on a short grid,
    every state is its own class.
    """
    n, terms = rows.shape
    if (n - 1) * terms * points <= 4 * n * terms + _FOLD_OVERHEAD:
        every = np.arange(n)
        return every, np.ones(n, dtype=int), every
    folded = rows if coeffs is None else rows * coeffs
    parts = [folded.real, folded.imag] if np.iscomplexobj(folded) else [folded]
    if reference is not None:
        parts.append(reference[:, None])
    entries = np.concatenate(parts, axis=1)
    keys = entries @ np.cos(np.arange(entries.shape[1]))
    order = np.argsort(keys, kind="stable")
    starts = _runs(keys[order], _LUMP_L1)
    counts = np.diff(np.append(starts, n))
    gaps = np.abs(entries[order] - entries[order[np.repeat(starts, counts)]]).sum(axis=1)
    split = np.repeat(np.logical_or.reduceat(gaps > _LUMP_L1, starts), counts)
    split[starts] = True
    starts = np.flatnonzero(split)
    sizes = np.diff(np.append(starts, n))
    inverse = np.empty(n, dtype=int)
    inverse[order] = np.repeat(np.arange(len(starts)), sizes)
    return order[starts], sizes, inverse


def _series(w, rows, coeffs, times: np.ndarray, rate) -> np.ndarray:
    """The spectral series rows @ exp(rate * Lambda * t) coeffs, one column per
    time point: rate -1j evolves a quantum state, rate 1 a classical
    distribution. ``coeffs`` is None for a folded series, whose ``rows``
    already carry them. A call that fits in one block is one product; longer
    ones are written block by block into the result."""
    width = _BLOCK_VALUES // max(len(w), len(rows)) or 1
    if times.size <= width:
        return _series_block(w, rows, coeffs, times, rate)
    out = np.empty((len(rows), times.size), np.result_type(w, rows, coeffs, rate))
    for lo in range(0, times.size, width):
        out[:, lo:lo + width] = _series_block(w, rows, coeffs, times[lo:lo + width], rate)
    return out


def _series_peak(w, rows, times: np.ndarray, rate) -> tuple[float, float, np.ndarray]:
    """Peak over ``times`` of S(t) = sum_m |a_m|^2 (rate -1j, quantum) or
    sum_m a_m (rate 1, classical), a = rows @ exp(rate w t), its value and S
    over ``times``.

    The grid argmax is refined between its grid neighbours by safeguarded
    Newton on exact derivatives: with r = rate w, one product of the rows
    scaled by 1, r and r^2 gives a, a' and a'', so S' = 2 Re sum conj(a) a'
    and S'' = 2 Re sum (|a'|^2 + conj(a) a'') (quantum) or S' = sum a' and
    S'' = sum a''. Each step shrinks the bracket toward the sign of S', then
    steps -S'/S'' where S'' < 0 and that lands inside the bracket, and
    bisects otherwise. It stops when the step or the bracket is below
    _PEAK_XTOL * max(1, max|t|), when S' is at roundoff, or after
    _NEWTON_CAP steps, and returns the point reached, or the grid maximum
    where that reads higher, as on a plateau flat to roundoff (a classical
    walk's approach to its limit). Not the best point seen: near the peak S
    is flat to roundoff, so an earlier iterate can read a few ulps higher
    while lying sqrt(eps / |S''|) away from it.
    """
    quantum = rate == -1j
    series = _series(w, rows, None, times, rate)
    values = (np.abs(series) ** 2 if quantum else series).sum(axis=0)
    k = int(np.argmax(values))
    t = float(times[k])
    lo, hi = float(times[max(k - 1, 0)]), float(times[min(k + 1, len(times) - 1)])
    tol = _PEAK_XTOL * max(1.0, float(times[-1]))
    r = rate * w
    derivs = np.stack([rows, r * rows, r * r * rows])
    # S' cannot be resolved closer to 0 than the roundoff of its products
    mags = np.abs(rows)
    floor = 16 * _EPS * float((mags * np.abs(w)).sum() * (mags.sum() if quantum else 1.0))
    for _ in range(_NEWTON_CAP):
        phase = r * t
        a, a1, a2 = derivs @ np.exp(phase, out=phase)
        d1 = 2 * np.vdot(a, a1).real if quantum else a1.sum()
        if abs(d1) <= floor:
            break
        if d1 > 0:
            lo = t
        else:
            hi = t
        d2 = 2 * (np.vdot(a1, a1).real + np.vdot(a, a2).real) if quantum else a2.sum()
        t_next = t - d1 / d2 if d2 < 0 else t
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        if hi - lo <= tol or abs(t_next - t) <= tol:
            break
        t = float(t_next)
    else:  # the cap ended the loop after a step: read the point it reached
        a = rows @ np.exp(r * t)
    s = float(np.vdot(a, a).real if quantum else a.sum())
    if s >= values[k]:
        return t, s, values
    return float(times[k]), float(values[k]), values


def _series_blocks(w, rows, coeffs, times: np.ndarray, rate):
    """The columns of ``_series`` as consecutive blocks, one at a time."""
    width = _BLOCK_VALUES // max(len(w), len(rows)) or 1
    for lo in range(0, times.size, width):
        yield _series_block(w, rows, coeffs, times[lo:lo + width], rate)


def _series_block(w, rows, coeffs, times, rate) -> np.ndarray:
    """``_series`` on one block of time points."""
    terms = _phases(w, times, rate, coeffs)
    if len(rows) > 1 and terms.dtype.kind == "c" and rows.dtype.kind != "c":
        # one real product on the (re, im) pairs: half the flops of promoting
        # rows; a single row is a vector product, where promoting costs no more
        return (rows @ terms.view(float)).view(complex)
    return rows @ terms


def _phases(w, times: np.ndarray, rate, coeffs) -> np.ndarray:
    """The terms exp(rate * w * t) * coeffs of a series block, one row per
    eigenvalue and one column per time point, with real phases below
    _FLUSH_BELOW set to zero.

    Time point j = q * step + r, step = floor(sqrt(points)), lies r offsets
    past its coarse point t_{q step}. When every point's offset matches the
    first segment's, t_r - t_0, within _TABLE_DRIFT * max|t|, the phases are
    the outer product of a coarse table exp(rate w t_{q step}) and a fine
    table exp(rate w (t_r - t_0)): about 2 sqrt(points) exps per eigenvalue
    and one multiply per value. Complex phases carry the coefficients in the
    coarse table; real ones are flushed as factors and as products, and
    take them after. Other grids and small blocks get one exp per value.
    """
    points = times.size
    step = int(points**0.5)
    if step < 2 or len(w) * points < _TABLE_VALUES or not _on_tables(times, step):
        phases = np.exp(rate * w[:, None] * times)
    else:
        coarse = np.exp(rate * w[:, None] * times[::step])
        fine = np.exp(rate * w[:, None] * (times[:step] - times[0]))
        if coarse.dtype.kind == "c":
            if coeffs is not None:
                coarse *= coeffs[:, None]
                coeffs = None
        else:  # no subnormal factor enters the product
            coarse[coarse < _FLUSH_BELOW] = 0.0
            fine[fine < _FLUSH_BELOW] = 0.0
        phases = (coarse[:, :, None] * fine[:, None, :]).reshape(len(w), -1)[:, :points]
    if phases.dtype.kind != "c":
        phases[phases < _FLUSH_BELOW] = 0.0
    return phases if coeffs is None else phases * coeffs[:, None]


def _on_tables(times: np.ndarray, step: int) -> bool:
    """Whether each of ``times`` lies, within _TABLE_DRIFT * max|t|, as far
    past its coarse point ``times[q * step]`` as the point ``step`` places
    before it lies past ``times[0]``."""
    offsets = times - np.repeat(times[::step], step)[:times.size]
    drift = np.abs(offsets - np.resize(offsets[:step], times.size)).max()
    return drift <= _TABLE_DRIFT * np.abs(times).max()


def _check_series_size(dim: int, points: float) -> None:
    """Refuse a time grid of more than _MAX_DENSE_VALUES state-time values;
    called before the grid is allocated."""
    values = dim * points
    if values > _MAX_DENSE_VALUES:
        raise ValueError(
            f"time grid of {points:.3g} points on {dim} states has {values:.3g} state-time "
            "values, over the limit of 2**26; use a larger step or a shorter window")


def as_state(amplitudes) -> np.ndarray:
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
        raise ValueError(f"state norm {norm} is not 1")
    return psi


def as_distribution(probs, tol: float = 1e-9) -> np.ndarray:
    """Validate (NaN fails), clamp tiny negative roundoff, and renormalize."""
    p = np.asarray(probs, dtype=float).ravel()
    if not p.min() >= -1e-12:
        raise ValueError(f"negative or NaN probability {p.min()}")
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


def _sized(state: np.ndarray, dim: int) -> np.ndarray:
    """``state``, refused unless it has ``dim`` entries."""
    if state.shape != (dim,):
        raise ValueError("state dimension mismatch")
    return state


def evolve_quantum(h: HermitianOperator, psi0, t: float) -> np.ndarray:
    psi0 = _sized(np.asarray(psi0, dtype=complex), h.dim)
    psi = h.evolve_many(psi0, [t])[:, 0]
    if abs(np.linalg.norm(psi) - np.linalg.norm(psi0)) > 1e-9:
        raise ArithmeticError("evolution failed to preserve norm")
    return psi


def classical_generator(g: Graph) -> np.ndarray:
    """CTRW generator Q = A - D; symmetric, columns sum to zero."""
    A = g.adjacency()
    return A - np.diag(A.sum(axis=1))


def _classical_spectrum(g: Graph, p0: np.ndarray):
    """The one factorization of Q = A - D that the walk exp(Q t) p0 needs:
    the ascending rates, one row of series terms per cell, and each vertex's
    cell. A cell's row holds each eigenvector's value at the cell's vertices
    times its coefficient in p0, so p(t) at those vertices is the row @
    exp(rates t).

    The cells are those of ``_equitable(g, p0)``. Q maps the vectors that are
    constant on each cell to such vectors, so exp(Q t) p0 stays among them,
    and Q restricted to them is the k x k quotient
    B_ij = w(C_i, C_j) / sqrt(s_i s_j) - d_i [i = j], with w(C_i, C_j) the
    edge weight between the cells (twice the weight inside a cell on the
    diagonal), s_i the cell sizes and d_i their degree. B's eigenvectors,
    scaled by 1 / sqrt(s_i), are the eigenvectors of Q on the cells. B is
    summed exactly from the edge list, and with one vertex per cell it is Q
    itself in vertex order.
    """
    cells = _equitable(g, p0)
    k = int(cells.max()) + 1
    _check_dense_size(k)
    u, v, w = _edge_arrays(g)
    sizes = np.bincount(cells)
    a, b = cells[u], cells[v]
    quotient = np.zeros((k, k))
    np.add.at(quotient, (np.minimum(a, b), np.maximum(a, b)), w)
    quotient += quotient.T
    quotient /= np.sqrt(np.outer(sizes, sizes))
    degree = np.bincount(np.concatenate((u, v)), np.tile(w, 2), minlength=g.n)
    first = np.unique(cells, return_index=True)[1]
    quotient[np.diag_indices(k)] -= degree[first]
    rates, vectors = HermitianOperator(quotient).spectral_decompose()
    rows = vectors / np.sqrt(sizes)[:, None]
    return rates, rows * (rows.T @ (sizes * p0[first])), cells


def _stationary(g: Graph, null: np.ndarray, terms: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Stationary distribution of the walk on ``g``: the series term whose
    rate ``null`` marks (``_classical_spectrum``), refused unless ``g`` is connected.

    With a cell of one vertex, the vertices it reaches form whole cells, so
    any other component is a union of cells whose indicator is one more
    null vector. Without one, the cells of two components can merge, and
    the graph's edges are searched instead.
    """
    if null.sum() != 1 or (np.bincount(cells).min() > 1 and not g.is_connected()):
        raise ValueError("stationary distribution not unique (graph disconnected?)")
    pi = terms[cells, np.flatnonzero(null)[0]]
    return as_distribution(pi / pi.sum(), tol=1e-6)


def _evolve_classical_many(g: Graph, p0, times) -> np.ndarray:
    """Validated distributions exp(Q t) p0, one column per time point."""
    p0 = as_distribution(p0)
    if p0.shape != (g.n,):
        raise ValueError("distribution dimension mismatch")
    times = _as_times(times)
    if times.size and times.min() < 0:
        raise ValueError(f"a classical walk runs forward only: times must be >= 0, got {times.min()}")
    w, terms, cells = _classical_spectrum(g, p0)
    series = _series(*_fold(w, terms, None, times.size), times, 1)[cells]
    return np.stack([as_distribution(p, tol=1e-7) for p in series.T], axis=1)


def evolve_classical(g: Graph, p0, t: float) -> np.ndarray:
    """p(t) = exp(Q t) p0 via the symmetric decomposition of Q."""
    return _evolve_classical_many(g, p0, [t])[:, 0]


def limiting_distribution(h: HermitianOperator, psi0) -> np.ndarray:
    """Long-time average over eigenspace projectors.

    Pbar(v) = sum over distinct eigenvalues of |<v| Pi_lambda |psi0>|^2
    (Aharonov, Ambainis, Kempe & Vazirani, STOC 2001); each eigenspace is a
    run of the eigenvalues ``_snap`` made equal, as in every fold.
    """
    return h._eigenspaces(_sized(as_state(psi0), h.dim))[2]


def _average_times(t_final: float, steps: int, dim: int) -> np.ndarray:
    """The uniform grid of ``steps`` points in (0, T] that time averages of
    ``dim`` states use."""
    if t_final <= 0:
        raise ValueError(f"T must be positive, got {t_final}")
    if not np.isfinite(t_final):
        raise ValueError(f"T must be finite, got {t_final}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_series_size(dim, steps)
    return np.linspace(t_final / steps, t_final, steps)


def time_average_distribution(h: HermitianOperator, psi0, t_final: float, steps: int) -> np.ndarray:
    """Riemann average of measured distributions over a uniform grid in (0, T],
    accumulated block by block on one state per class of ``_lump`` and
    spread over each class after."""
    psi0 = _sized(as_state(psi0), h.dim)
    times = _average_times(t_final, steps, h.dim)
    w, rows, coeffs = h._folded(psi0, times.size)
    reps, _, inverse = _lump(rows, coeffs, None, times.size)
    total = np.zeros(len(reps))
    for states in _series_blocks(w, rows[reps], coeffs, times, -1j):
        total += (np.abs(states) ** 2).sum(axis=1)
    return as_distribution(total[inverse] / steps, tol=1e-7)


def tv_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    return 0.5 * float(np.abs(p - q).sum())
