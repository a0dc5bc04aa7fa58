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
    _classical_series,
    _classical_spectrum,
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


def _check_grid(t_max: float, dt: float):
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if dt > t_max / 10:
        raise ValueError("grid too coarse: need dt <= t_max / 10")


def _refined_peak(f, times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Grid argmax of ``values = f(times)``, refined by bounded Brent.

    The refinement searches between the two grid neighbours of the argmax
    and never returns less than the grid maximum.
    """
    k = int(np.argmax(values))
    lo = times[max(k - 1, 0)]
    hi = times[min(k + 1, len(times) - 1)]
    res = minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    if values[k] > -res.fun:
        return float(times[k]), float(values[k])
    return float(res.x), float(-res.fun)


def quantum_hitting(h: HermitianOperator, start: int, target: int, t_max: float, dt: float) -> HittingResult:
    """Probability profile |<target| exp(-iHt) |start>|^2 with refined peak."""
    if start == target:
        raise ValueError("start and target must differ")
    _check_grid(t_max, dt)
    w, v = h.spectral_decompose()
    overlap = v[target, :].conj() * v[start, :]
    times = np.arange(0.0, t_max + dt / 2, dt)

    def prob(t):
        return float(np.abs(overlap @ np.exp(-1j * w * t)) ** 2)

    profile = np.abs(np.exp(-1j * np.outer(times, w)) @ overlap) ** 2
    t_opt, eff = _refined_peak(prob, times, profile)
    return HittingResult(t_opt=t_opt, efficiency=eff, times=times, profile=profile)


def classical_hitting(g_ext: Graph, start: int, target: int, t_max: float, dt: float) -> HittingResult:
    """Classical analogue: p_target(t) under the CTRW generator on g_ext."""
    if start == target:
        raise ValueError("start and target must differ")
    _check_grid(t_max, dt)
    w, v = _classical_spectrum(g_ext)
    weights = v[target, :] * v[start, :]
    times = np.arange(0.0, t_max + dt / 2, dt)

    def prob(t):
        return float(weights @ np.exp(w * t))

    profile = np.exp(np.outer(times, w)) @ weights
    t_opt, eff = _refined_peak(prob, times, profile)
    return HittingResult(t_opt=t_opt, efficiency=eff, times=times, profile=profile)


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


def _settle_time(times: np.ndarray, trace: np.ndarray, eps: float) -> float:
    """Earliest grid time after which the trace stays <= eps to the horizon."""
    above = trace > eps
    if above[-1]:
        raise ConvergenceError("trace does not stay below epsilon; increase the horizon")
    last_above = np.flatnonzero(above)
    k = 0 if len(last_above) == 0 else int(last_above[-1]) + 1
    return float(times[k])


def quantum_mixing_time(h: HermitianOperator, psi0, eps: float, horizon: float, dt: float) -> MixingResult:
    """Mixing of the running time-averaged distribution toward the limit."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    _check_grid(horizon, dt)
    reference = limiting_distribution(h, psi0)
    times = np.arange(dt, horizon + dt / 2, dt)
    states = h.evolve_many(psi0, times)
    probs = np.abs(states) ** 2
    running = np.cumsum(probs, axis=1) / np.arange(1, len(times) + 1)
    trace = 0.5 * np.abs(running - reference[:, None]).sum(axis=0)
    t_mix = _settle_time(times, trace, eps)
    return MixingResult(t_mix=t_mix, epsilon=eps, reference=reference, times=times, trace=trace)


def classical_mixing_time(g: Graph, p0, eps: float, horizon: float, dt: float) -> MixingResult:
    """Classical mixing: p(t) converges pointwise, no time averaging."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    _check_grid(horizon, dt)
    p0 = as_distribution(p0)
    spectrum = _classical_spectrum(g)
    reference = _stationary(spectrum)
    times = np.arange(dt, horizon + dt / 2, dt)
    pt = _classical_series(spectrum, p0, times)
    trace = 0.5 * np.abs(pt - reference[:, None]).sum(axis=0)
    t_mix = _settle_time(times, trace, eps)
    return MixingResult(t_mix=t_mix, epsilon=eps, reference=reference, times=times, trace=trace)
