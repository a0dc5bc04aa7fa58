"""Hitting and mixing analyzers for quantum vs classical walks.

Hitting efficiency is the maximum probability of finding the walker at a
target vertex over an evolution window; mixing time is the earliest time
after which the (time-averaged, for quantum) distribution stays within
total-variation epsilon of its limit through the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolution import (
    HermitianOperator,
    _check_series_size,
    _classical_spectrum,
    _fold,
    _lump,
    _series_blocks,
    _series_peak,
    _sized,
    _stationary,
    as_distribution,
    as_state,
    basis_state,
    limiting_distribution,
)
from .graphs import Graph

__all__ = [
    "ConvergenceError",
    "HittingResult",
    "MixingResult",
    "quantum_hitting",
    "classical_hitting",
    "hitting_scaling",
    "quantum_mixing_time",
    "classical_mixing_time",
]


class ConvergenceError(RuntimeError):
    """A trace failed to settle within the requested horizon."""


@dataclass
class HittingResult:
    """Peak of a hitting profile: ``t_opt`` is its grid argmax refined by Newton
    (``_series_peak``) to about 1e-13 * max(1, t_max), or the argmax itself
    where the profile is flat to roundoff, as on a classical plateau."""

    t_opt: float
    efficiency: float
    peak_at_boundary: bool  # t_opt is the first or last grid point: the window may cut the peak
    times: np.ndarray = field(repr=False)
    profile: np.ndarray = field(repr=False)


@dataclass
class MixingResult:
    t_mix: float
    epsilon: float
    reference: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    trace: np.ndarray = field(repr=False)


def _check_grid(t_max: float, dt: float, dim: int, name: str = "t_max"):
    """Refuse the grid of step ``dt`` up to ``t_max``, which the caller calls
    ``name``, unless both are finite and positive, the grid is fine enough and
    its series fits the size limit."""
    for label, value in ((name, t_max), ("dt", dt)):
        if not np.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value}")
        if value <= 0:
            raise ValueError(f"{label} must be positive, got {value}")
    if dt > t_max / 10:
        raise ValueError("grid too coarse: need dt <= t_max / 10")
    _check_series_size(dim, t_max / dt + 1)


def _check_hitting(dim: int, start: int, target: int, t_max: float, dt: float) -> None:
    """Refuse a start or target outside the ``dim`` states, equal ones, or
    the grid."""
    if not (0 <= start < dim and 0 <= target < dim):
        raise ValueError(f"start {start} and target {target} must lie in 0..{dim - 1}")
    if start == target:
        raise ValueError("start and target must differ")
    _check_grid(t_max, dt, dim)


def _hitting(w, row, t_max: float, dt: float, rate) -> HittingResult:
    """Refined peak (``_series_peak``) of the readout of row @ exp(rate Lambda t)
    over the grid, ``row`` the target's series terms: its eigenvector entries
    times the start's expansion (quantum), or its cell's row (classical)."""
    times = np.arange(0.0, t_max + dt / 2, dt)
    # the refinement stays between grid points, so the grid bounds every |t| the fold must cover
    w, rows, _ = _fold(w, row[None, :], None, times)
    t_opt, eff, profile = _series_peak(w, rows, times, rate)
    return HittingResult(t_opt=t_opt, efficiency=eff, peak_at_boundary=t_opt in (times[0], times[-1]),
                         times=times, profile=profile)


def quantum_hitting(h: HermitianOperator, start: int, target: int, t_max: float, dt: float) -> HittingResult:
    """Probability profile |<target| exp(-iHt) |start>|^2 with refined peak."""
    _check_hitting(h.dim, start, target, t_max, dt)
    w, v = h.spectral_decompose()
    return _hitting(w, v[target] * v[start].conj(), t_max, dt, -1j)


def classical_hitting(g_ext: Graph, start: int, target: int, t_max: float, dt: float) -> HittingResult:
    """Classical analogue: p_target(t) under the CTRW generator on g_ext,
    factorized on the cells of the walk from ``start``."""
    _check_hitting(g_ext.n, start, target, t_max, dt)
    w, terms, cells = _classical_spectrum(g_ext, basis_state(g_ext.n, start).real)
    return _hitting(w, terms[cells[target]], t_max, dt, 1)


def _fit_residuals(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares residuals of linear and exponential models of y(x)."""
    lin = np.polyfit(x, y, 1)
    r_lin = float(np.sum((np.polyval(lin, x) - y) ** 2))
    if np.any(y <= 0):
        return r_lin, float("inf")
    ex = np.polyfit(x, np.log(y), 1)
    r_exp = float(np.sum((np.exp(np.polyval(ex, x)) - y) ** 2))
    return r_lin, r_exp


def hitting_scaling(results: dict[int, HittingResult]) -> dict:
    """Fit efficiency vs size both linearly and exponentially.

    ``results`` maps a size parameter (e.g. edge-layer count) to a
    HittingResult; reports which model has the lower residual.
    """
    if len(results) < 2:
        raise ValueError("need at least two sizes for a scaling fit")
    sizes = np.array(sorted(results))
    eff = np.array([results[int(s)].efficiency for s in sizes])
    r_lin, r_exp = _fit_residuals(sizes.astype(float), eff)
    return {
        "sizes": sizes.tolist(),
        "t_opt": [results[int(s)].t_opt for s in sizes],
        "efficiency": eff.tolist(),
        "linear_residual": r_lin,
        "exponential_residual": r_exp,
        "better_model": "linear" if r_lin <= r_exp else "exponential",
    }


def _mixing(eps: float, horizon: float, dt: float, dim: int, walk) -> MixingResult:
    """Earliest grid time after which the TV distance of ``walk`` to its
    reference stays <= eps through the horizon.

    ``walk(times)`` returns the reference over the ``dim`` states, classes
    of states with equal series (``_lump``'s, or a classical walk's cells)
    and the distributions over one representative state per class at those
    times as consecutive column blocks. Each block is reduced to its stretch
    of the trace as it arrives, each class weighted by its size, so no
    states x points array is held.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    _check_grid(horizon, dt, dim, "horizon")
    times = np.arange(dt, horizon + dt / 2, dt)
    reference, (reps, sizes, _), blocks = walk(times)
    ref = reference[reps, None]
    trace = np.concatenate([0.5 * (sizes @ np.abs(dists - ref)) for dists in blocks])
    above = trace > eps
    if above[-1]:
        raise ConvergenceError("trace does not stay below epsilon; increase the horizon")
    last_above = np.flatnonzero(above)
    k = 0 if len(last_above) == 0 else int(last_above[-1]) + 1
    return MixingResult(t_mix=float(times[k]), epsilon=eps, reference=reference,
                        times=times, trace=trace)


def _running_average(blocks):
    """Running (Cesaro) means of |psi|^2 over the columns of consecutive state
    blocks. Each block's first column carries the previous block's last
    cumulative sum, so the sums associate as one cumsum over all columns."""
    total, count = 0.0, 0
    for states in blocks:
        probs = np.abs(states) ** 2
        probs[:, 0] += total
        sums = np.cumsum(probs, axis=1)
        total = sums[:, -1]
        yield sums / np.arange(count + 1, count + sums.shape[1] + 1)
        count += sums.shape[1]


def quantum_mixing_time(h: HermitianOperator, psi0, eps: float, horizon: float, dt: float) -> MixingResult:
    """Mixing of the running time-averaged distribution toward the limit.

    This is the Cesaro mixing of Aharonov, Ambainis, Kempe & Vazirani (STOC
    2001): the reference is the exact long-time average and the trace the TV
    distance of the average over (0, t]. The running average is carried
    across the series blocks, so memory does not grow with the horizon.
    """
    psi0 = _sized(as_state(psi0), h.dim)

    def walk(times):
        reference = limiting_distribution(h, psi0)
        w, rows, coeffs = h._folded(psi0, times)
        classes = _lump(rows, coeffs, reference, times.size)
        return reference, classes, _running_average(
            _series_blocks(w, rows[classes[0]], coeffs, times, -1j))

    return _mixing(eps, horizon, dt, h.dim, walk)


def classical_mixing_time(g: Graph, p0, eps: float, horizon: float, dt: float) -> MixingResult:
    """Classical mixing: p(t) converges pointwise, no time averaging. p(t)
    is constant on each cell of ``_classical_spectrum``, so the trace reads
    one vertex per cell. The reference is the series' null-rate term, which
    eigh leaves a few eps off zero; held at zero, it stays the reference
    instead of drifting the trace by about eps ||Q|| t / 2."""
    p0 = _sized(as_distribution(p0), g.n)

    def walk(times):
        w, terms, cells = _classical_spectrum(g, p0)
        reference = _stationary(g, w, terms, cells)
        w = np.where(np.abs(w) < 1e-9, 0.0, w)
        classes = np.unique(cells, return_index=True)[1], np.bincount(cells), cells
        return reference, classes, _series_blocks(*_fold(w, terms, None, times), times, 1)

    return _mixing(eps, horizon, dt, g.n, walk)
