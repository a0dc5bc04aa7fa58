"""Hitting and mixing analyzers for quantum vs classical walks.

Hitting efficiency is the maximum probability of finding the walker at a
target vertex over an evolution window; mixing time is the earliest time
after which the (time-averaged, for quantum) distribution stays within
total-variation epsilon of its limit through the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .evolution import (
    HermitianOperator,
    _check_series_size,
    _classical_spectrum,
    _series,
    _stationary,
    as_distribution,
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
    t_opt: float
    efficiency: float
    times: np.ndarray = field(repr=False)
    profile: np.ndarray = field(repr=False)


@dataclass
class MixingResult:
    t_mix: float
    epsilon: float
    reference: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    trace: np.ndarray = field(repr=False)


def _check_grid(t_max: float, dt: float, dim: int):
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > t_max / 10:
        raise ValueError("grid too coarse: need dt <= t_max / 10")
    _check_series_size(dim, t_max / dt + 1)


def _refined_peak(f, times: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Grid argmax of the vectorized readout ``f``, refined by bounded Brent.

    Returns the peak point, the peak value and ``f(times)``. The refinement
    searches between the two grid neighbours of the argmax and never
    returns less than the grid maximum.
    """
    values = f(times)
    k = int(np.argmax(values))
    lo = times[max(k - 1, 0)]
    hi = times[min(k + 1, len(times) - 1)]
    res = minimize_scalar(lambda t: -f(np.array([t]))[0], bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    if values[k] > -res.fun:
        return float(times[k]), float(values[k]), values
    return float(res.x), float(-res.fun), values


def _hitting(spectrum, start: int, target: int, t_max: float, dt: float, rate, readout) -> HittingResult:
    """Peak of readout(<target| V exp(rate Lambda t) V^dag |start>) over the grid."""
    w, v = spectrum
    if not (0 <= start < len(w) and 0 <= target < len(w)):
        raise ValueError(f"start {start} and target {target} must lie in 0..{len(w) - 1}")
    if start == target:
        raise ValueError("start and target must differ")
    _check_grid(t_max, dt, len(w))
    rows, coeffs = v[[target], :], v[start, :].conj()
    times = np.arange(0.0, t_max + dt / 2, dt)
    t_opt, eff, profile = _refined_peak(
        lambda t: readout(_series(w, rows, coeffs, t, rate)[0]), times)
    return HittingResult(t_opt=t_opt, efficiency=eff, times=times, profile=profile)


def quantum_hitting(h: HermitianOperator, start: int, target: int, t_max: float, dt: float) -> HittingResult:
    """Probability profile |<target| exp(-iHt) |start>|^2 with refined peak."""
    return _hitting(h.spectral_decompose(), start, target, t_max, dt, -1j,
                    lambda amp: np.abs(amp) ** 2)


def classical_hitting(g_ext: Graph, start: int, target: int, t_max: float, dt: float) -> HittingResult:
    """Classical analogue: p_target(t) under the CTRW generator on g_ext."""
    return _hitting(_classical_spectrum(g_ext), start, target, t_max, dt, 1, np.real)


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
    reference stays <= eps through the horizon; ``walk(times)`` returns the
    reference and one distribution column over the ``dim`` states per time
    point."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    _check_grid(horizon, dt, dim)
    times = np.arange(dt, horizon + dt / 2, dt)
    reference, dists = walk(times)
    trace = 0.5 * np.abs(dists - reference[:, None]).sum(axis=0)
    above = trace > eps
    if above[-1]:
        raise ConvergenceError("trace does not stay below epsilon; increase the horizon")
    last_above = np.flatnonzero(above)
    k = 0 if len(last_above) == 0 else int(last_above[-1]) + 1
    return MixingResult(t_mix=float(times[k]), epsilon=eps, reference=reference,
                        times=times, trace=trace)


def quantum_mixing_time(h: HermitianOperator, psi0, eps: float, horizon: float, dt: float) -> MixingResult:
    """Mixing of the running time-averaged distribution toward the limit."""

    def walk(times):
        reference = limiting_distribution(h, psi0)
        probs = np.abs(h.evolve_many(psi0, times)) ** 2
        return reference, np.cumsum(probs, axis=1) / np.arange(1, len(times) + 1)

    return _mixing(eps, horizon, dt, h.dim, walk)


def classical_mixing_time(g: Graph, p0, eps: float, horizon: float, dt: float) -> MixingResult:
    """Classical mixing: p(t) converges pointwise, no time averaging."""

    def walk(times):
        p = as_distribution(p0)
        w, v = spectrum = _classical_spectrum(g)
        return _stationary(spectrum), _series(w, v, v.T @ p, times, 1)

    return _mixing(eps, horizon, dt, g.n, walk)
