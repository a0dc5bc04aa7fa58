"""Hitting and mixing analyzers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qwalk import (
    BOSON,
    ConvergenceError,
    Graph,
    HermitianOperator,
    basis_state,
    classical_generator,
    classical_hitting,
    classical_mixing_time,
    evolve_classical,
    extended_graph,
    generate_cycle,
    generate_erdos_renyi,
    generate_glued_tree,
    generate_hypercube,
    generate_path,
    hitting_scaling,
    limiting_distribution,
    permute_graph,
    quantum_hitting,
    quantum_mixing_time,
    time_average_distribution,
)
from qwalk import evolution
from qwalk.applications import _refined_peak


def _k2():
    return HermitianOperator([[0, 1], [1, 0]])


# -- hitting -------------------------------------------------------------


def test_k2_quantum_hitting():
    res = quantum_hitting(_k2(), 0, 1, 3.0, 0.01)
    assert math.isclose(res.efficiency, 1.0, abs_tol=1e-9)
    assert math.isclose(res.t_opt, math.pi / 2, abs_tol=1e-12)


def test_hitting_peak_refinement_takes_newton_steps(monkeypatch):
    # one exp for the grid, then one per step: Newton reaches pi / 2 from the
    # grid's 1.57 in a few steps, where bisecting the 0.02 bracket takes about 35
    exp_calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda *args, **kwargs: exp_calls.append(1) or exp(*args, **kwargs))
    res = quantum_hitting(_k2(), 0, 1, 3.0, 0.01)
    assert math.isclose(res.t_opt, math.pi / 2, abs_tol=1e-12)
    assert len(exp_calls) <= 6


def test_k2_classical_hitting_half():
    res = classical_hitting(generate_path(2), 0, 1, 50.0, 0.5)
    assert math.isclose(res.efficiency, 0.5, abs_tol=1e-6)


def test_hitting_flags_a_peak_on_the_window_edge():
    # on K2 the transfer |sin t|^2 peaks at pi / 2
    assert quantum_hitting(_k2(), 0, 1, 1.0, 0.01).peak_at_boundary
    assert not quantum_hitting(_k2(), 0, 1, 3.0, 0.01).peak_at_boundary
    # the classical transfer (1 - exp(-2t)) / 2 rises through the window
    res = classical_hitting(generate_path(2), 0, 1, 1.0, 0.05)
    assert res.peak_at_boundary and res.t_opt == 1.0


def test_hitting_validation():
    with pytest.raises(ValueError):
        quantum_hitting(_k2(), 0, 0, 3.0, 0.01)
    with pytest.raises(ValueError):
        quantum_hitting(_k2(), 0, 1, 3.0, 1.0)  # dt > t_max / 10


def test_quantum_hitting_reads_forward_amplitude_of_complex_hamiltonian():
    # chiral hopping on a triangle breaks time reversal, so the transfer
    # 0 -> 1 differs from the transfer 1 -> 0 at the same time
    h = np.array([[0, 1j, -1j], [-1j, 0, 1j], [1j, -1j, 0]])
    res = quantum_hitting(HermitianOperator(h), 0, 1, 3.0, 0.01)
    expected = [abs(expm(-1j * h * t)[1, 0]) ** 2 for t in res.times]
    assert np.abs(res.profile - expected).max() < 1e-12


@pytest.mark.parametrize("start, target", [(0, -6), (-1, 0), (0, 6), (6, 0)])
def test_hitting_rejects_vertices_outside_graph(start, target):
    g = generate_cycle(6)
    with pytest.raises(ValueError, match="0..5"):
        classical_hitting(g, start, target, 10.0, 0.1)
    with pytest.raises(ValueError, match="0..5"):
        quantum_hitting(HermitianOperator.from_graph(g), start, target, 10.0, 0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_grid_refused(value):
    g = generate_path(2)
    readouts = {
        "t_max": [lambda t, dt: quantum_hitting(_k2(), 0, 1, t, dt),
                  lambda t, dt: classical_hitting(g, 0, 1, t, dt)],
        "horizon": [lambda t, dt: quantum_mixing_time(_k2(), basis_state(2, 0), 0.25, t, dt),
                    lambda t, dt: classical_mixing_time(g, [1.0, 0.0], 0.25, t, dt)],
    }
    for name, calls in readouts.items():
        for call in calls:
            with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
                call(value, 0.1)
            with pytest.raises(ValueError, match=f"dt must be finite, got {value}"):
                call(10.0, value)


@pytest.mark.parametrize("dt", [0.0, -1.0])
def test_nonpositive_time_step_rejected(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        quantum_hitting(_k2(), 0, 1, 3.0, dt)
    with pytest.raises(ValueError, match="dt must be positive"):
        classical_mixing_time(generate_path(2), [1.0, 0.0], 0.25, 10.0, dt)


def test_classical_mixing_refuses_a_nan_start():
    with pytest.raises(ValueError, match="NaN probability"):
        classical_mixing_time(generate_cycle(4), [math.nan, 1, 0, 0], 0.25, 50, 0.5)


def test_hitting_relabeling_invariance():
    g = generate_erdos_renyi(7, 0.5, seed=3)
    h = HermitianOperator.from_graph(g)
    res = quantum_hitting(h, 0, 6, 20.0, 0.02)
    perm = list(np.random.default_rng(0).permutation(7))
    gp = permute_graph(g, perm)
    resp = quantum_hitting(HermitianOperator.from_graph(gp),
                           perm[0], perm[6], 20.0, 0.02)
    assert abs(res.efficiency - resp.efficiency) < 1e-9
    assert abs(res.t_opt - resp.t_opt) < 1e-6


def test_glued_tree_mirror_symmetry():
    g = generate_glued_tree(5)
    h = HermitianOperator.from_graph(g)
    fwd = quantum_hitting(h, 0, g.n - 1, 20.0, 0.05)
    bwd = quantum_hitting(h, g.n - 1, 0, 20.0, 0.05)
    assert np.abs(fwd.profile - bwd.profile).max() < 1e-9


def test_hitting_scaling_needs_two_sizes():
    res = quantum_hitting(_k2(), 0, 1, 3.0, 0.01)
    with pytest.raises(ValueError):
        hitting_scaling({2: res})


def test_ecube_sweep_classical_drops_quantum_does_not():
    q_eff, c_eff = [], []
    for dim in (1, 2, 3, 4):
        base = generate_hypercube(dim)
        basis, ext = extended_graph(base, BOSON)
        s, t = basis.index(0, 0), basis.index(base.n - 1, base.n - 1)
        q = quantum_hitting(HermitianOperator.from_graph(ext), s, t, 20.0, 0.01)
        c = classical_hitting(ext, s, t, 1000.0, 1.0)
        q_eff.append(q.efficiency)
        c_eff.append(c.efficiency)
    assert all(b < a for a, b in zip(c_eff, c_eff[1:]))  # strictly decreasing
    assert min(q_eff) > 0.9  # mirror-symmetric transfer stays near-perfect
    assert q_eff[-1] / c_eff[-1] > 100


def test_hypercube_pair_transfer_is_perfect():
    # sin^16 t: Newton places its first peak at pi / 2, also on the grid of
    # criterion 3, which holds later peaks as well
    base = generate_hypercube(4)
    basis, ext = extended_graph(base, BOSON)
    h = HermitianOperator.from_graph(ext)
    for t_max in (3.0, 20.0):
        res = quantum_hitting(h, basis.index(0, 0), basis.index(15, 15), t_max, 0.01)
        assert math.isclose(res.efficiency, 1.0, abs_tol=1e-12)
        assert math.isclose(res.t_opt, math.pi / 2, abs_tol=1e-12)


def _hitting_reference(w, v, start, target, rate):
    """The target's readout from the dense eigenpairs ``(w, v)`` of H (rate
    -1j) or Q (rate 1), its slope, and the roundoff floor of that slope."""
    terms = v[target] * v[start]
    mags = np.abs(terms)
    floor = 64 * np.finfo(float).eps * (mags * np.abs(w)).sum()

    def amplitude(t, scale=1):
        return (scale * terms) @ np.exp(rate * np.multiply.outer(w, t))

    if rate == 1:
        return amplitude, lambda t: amplitude(t, w), floor
    return (lambda t: np.abs(amplitude(t)) ** 2,
            lambda t: 2 * (amplitude(t).conjugate() * amplitude(t, rate * w)).real,
            floor * mags.sum())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7), p=st.floats(0.2, 0.8),
       pair=st.booleans(), quantum=st.booleans())
def test_hitting_newton_peak_matches_brent_reference(seed, n, p, pair, quantum):
    # hitting on G(n, p) or its boson pair against bounded Brent
    # (_refined_peak) on the same readout from a dense eigh
    g = generate_erdos_renyi(n, p, seed=seed)
    if pair:
        _, g = extended_graph(g, BOSON)
    rng = np.random.default_rng(seed)
    start, target = (int(x) for x in rng.choice(g.n, size=2, replace=False))
    if quantum:
        w, v = np.linalg.eigh(g.adjacency())
        res = quantum_hitting(HermitianOperator.from_graph(g), start, target, 20.0, 0.05)
    else:
        w, v = np.linalg.eigh(classical_generator(g))
        res = classical_hitting(g, start, target, 200.0, 0.5)
    readout, slope, floor = _hitting_reference(w, v, start, target, -1j if quantum else 1)
    ref_t, ref_eff, _ = _refined_peak(readout, res.times)
    assert abs(res.efficiency - ref_eff) <= 1e-12
    # Brent places t to about 1.5e-8 t; on a readout flat to roundoff (a
    # classical plateau, a target never reached) Newton keeps the grid argmax
    if abs(res.t_opt - ref_t) > 1e-6 * ref_t:
        assert res.t_opt in res.times
        assert abs(slope(res.t_opt)) <= floor


# -- mixing --------------------------------------------------------------


def test_quantum_mixing_h0_immediate():
    h = HermitianOperator(np.zeros((3, 3)))
    res = quantum_mixing_time(h, basis_state(3, 0), 0.25, 10.0, 0.1)
    assert math.isclose(res.t_mix, 0.1)


def test_classical_mixing_k2_closed_form():
    # TV(t) = exp(-2 t) / 2 for start (1, 0), so the settle time is
    # ln(1 / (2 eps)) / 2 up to grid resolution
    eps, dt = 0.1, 0.001
    res = classical_mixing_time(generate_path(2), [1.0, 0.0], eps, 10.0, dt)
    assert abs(res.t_mix - math.log(1 / (2 * eps)) / 2) <= dt + 1e-9


def test_classical_mixing_from_stationary_immediate():
    g = generate_cycle(6)
    pi = classical_mixing_time(g, basis_state(6, 0).real, 0.5, 10.0, 0.1).reference
    res = classical_mixing_time(g, pi, 0.5, 10.0, 0.1)
    assert math.isclose(res.t_mix, 0.1)


def test_mixing_eps_monotone():
    g = generate_erdos_renyi(8, 0.4, seed=5)
    p0 = np.zeros(8)
    p0[0] = 1.0
    t_small = classical_mixing_time(g, p0, 0.05, 100.0, 0.01).t_mix
    t_large = classical_mixing_time(g, p0, 0.3, 100.0, 0.01).t_mix
    assert t_small >= t_large


@pytest.mark.parametrize("p0", [[1.0, 0, 0, 0], [0.25] * 4, [0.4, 0.1, 0.4, 0.1]],
                         ids=["vertex", "uniform", "mirrored"])
def test_classical_mixing_refuses_a_disconnected_graph(p0):
    # two disjoint edges: from a vertex the other edge is a cell of its own,
    # while the even starts put both edges in the same cells
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="stationary distribution not unique"):
        classical_mixing_time(g, p0, 0.25, 10.0, 0.1)


def test_mixing_nonconvergence_raises():
    g = generate_cycle(12)
    p0 = np.zeros(12)
    p0[0] = 1.0
    with pytest.raises(ConvergenceError):
        classical_mixing_time(g, p0, 0.01, 1.0, 0.05)


def test_mixing_validation():
    h = HermitianOperator(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        quantum_mixing_time(h, basis_state(2, 0), 1.5, 10.0, 0.1)
    with pytest.raises(ValueError):
        quantum_mixing_time(h, basis_state(2, 0), 0.25, 1.0, 0.5)


def test_mixing_refuses_a_start_of_the_wrong_length():
    g = generate_cycle(6)
    with pytest.raises(ValueError, match="state dimension mismatch"):
        quantum_mixing_time(HermitianOperator.from_graph(g), basis_state(5, 0), 0.25, 10.0, 0.1)
    with pytest.raises(ValueError, match="state dimension mismatch"):
        classical_mixing_time(g, basis_state(5, 0).real, 0.25, 10.0, 0.1)


def test_quantum_mixing_stays_below_rule():
    h = HermitianOperator.from_graph(generate_cycle(5))
    res = quantum_mixing_time(h, basis_state(5, 0), 0.25, 100.0, 0.05)
    after = res.trace[res.times >= res.t_mix - 1e-12]
    assert np.all(after <= res.epsilon + 1e-12)
    # the point just before t_mix (if any) was above epsilon
    before = res.trace[res.times < res.t_mix - 1e-12]
    if len(before):
        assert before[-1] > res.epsilon


def test_enet_quantum_halves_classical():
    base = generate_cycle(20)
    basis, ext = extended_graph(base, BOSON)
    start = basis.index(0, 0)
    h = HermitianOperator.from_graph(ext)
    qt = quantum_mixing_time(h, basis_state(ext.n, start), 0.25, 200.0, 0.05).t_mix
    p0 = np.zeros(ext.n)
    p0[start] = 1.0
    ct = classical_mixing_time(ext, p0, 0.25, 400.0, 0.05).t_mix
    assert qt <= 0.6 * ct


def test_classical_mixing_factorizes_generator_once(eigh_calls):
    classical_mixing_time(generate_cycle(7), np.eye(7)[0], 0.25, 100.0, 0.1)
    # the quotient on the cells {0}, {1, 6}, {2, 5}, {3, 4} of the walk from vertex 0
    assert eigh_calls == [(4, 4)]


# -- streamed mixing readouts ---------------------------------------------


def _boson_glued_tree(layers):
    basis, ext = extended_graph(generate_glued_tree(layers), BOSON)
    return ext, basis.index(0, 0)


def _one_shot_t_mix(times, trace, eps):
    above = np.flatnonzero(trace > eps)
    return float(times[0 if len(above) == 0 else above[-1] + 1])


def test_streamed_mixing_matches_one_shot():
    # 105 states take 624 points per block: 4,000 quantum and 8,000 classical points
    ext, start = _boson_glued_tree(5)
    h = HermitianOperator.from_graph(ext)
    psi0 = basis_state(ext.n, start)
    w, v = h.spectral_decompose()

    res = quantum_mixing_time(h, psi0, 0.25, 200.0, 0.05)
    probs = np.abs(v @ (np.exp(-1j * w[:, None] * res.times) * (v.T @ psi0)[:, None])) ** 2
    running = np.cumsum(probs, axis=1) / np.arange(1, len(res.times) + 1)
    ref = limiting_distribution(h, psi0)
    trace = 0.5 * np.abs(running - ref[:, None]).sum(axis=0)
    assert np.abs(res.trace - trace).max() <= 1e-12
    assert res.t_mix == _one_shot_t_mix(res.times, trace, 0.25)

    p0 = np.abs(psi0)
    res = classical_mixing_time(ext, p0, 0.25, 400.0, 0.05)
    wc, vc = HermitianOperator(classical_generator(ext)).spectral_decompose()
    dists = vc @ (np.exp(wc[:, None] * res.times) * (vc.T @ p0)[:, None])
    trace = 0.5 * np.abs(dists - res.reference[:, None]).sum(axis=0)
    assert np.abs(res.trace - trace).max() <= 1e-12
    assert res.t_mix == _one_shot_t_mix(res.times, trace, 0.25)


def test_quantum_mixing_memory_does_not_grow_with_the_grid():
    # dim 465 x 4,000 points: one complex series alone would be 28 MiB
    ext, start = _boson_glued_tree(7)
    h = HermitianOperator.from_graph(ext)
    h.spectral_decompose()
    tracemalloc.start()
    try:
        quantum_mixing_time(h, basis_state(ext.n, start), 0.25, 200.0, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_subnormal_flush_leaves_classical_mixing_unchanged(monkeypatch):
    ext, start = _boson_glued_tree(7)
    p0 = basis_state(ext.n, start).real
    w, v = HermitianOperator(classical_generator(ext)).spectral_decompose()
    assert math.exp(w[0] * 400.0) < evolution._FLUSH_BELOW  # the flush does act on this grid
    times = np.arange(0.05, 400.0 + 0.025, 0.05)
    flushed_series = evolution._series(w, v, v.T @ p0, times, 1)
    flushed = classical_mixing_time(ext, p0, 0.25, 400.0, 0.05)
    monkeypatch.setattr(evolution, "_FLUSH_BELOW", 0.0)
    assert np.array_equal(flushed_series, evolution._series(w, v, v.T @ p0, times, 1))
    unflushed = classical_mixing_time(ext, p0, 0.25, 400.0, 0.05)
    assert np.array_equal(flushed.trace, unflushed.trace)
    assert flushed.t_mix == unflushed.t_mix


def test_folded_mixing_on_the_boson_cycle_matches_the_unfolded_series(monkeypatch):
    # the boson pair on cycle(40) has 820 states but 221 distinct eigenvalues
    basis, ext = extended_graph(generate_cycle(40), BOSON)
    h = HermitianOperator.from_graph(ext)
    psi0 = basis_state(ext.n, basis.index(0, 0))
    times = np.arange(0.05, 200.0 + 0.025, 0.05)
    assert len(h._folded(psi0, times)[0]) == 221
    folded = quantum_mixing_time(h, psi0, 0.25, 200.0, 0.05)
    monkeypatch.setattr(evolution, "_fold", lambda w, rows, coeffs, times: (w, rows, coeffs))
    unfolded = quantum_mixing_time(h, psi0, 0.25, 200.0, 0.05)
    assert np.abs(folded.trace - unfolded.trace).max() <= 1e-12
    assert folded.t_mix == unfolded.t_mix


# -- readouts on one state per class of equal rows -----------------------


def _matches_trace(readout, times, trace, eps):
    """The mixing ``readout()`` has the one-shot ``trace`` within 1e-12 and
    its t_mix, or raises ConvergenceError where that trace ends above eps."""
    if trace[-1] > eps:
        with pytest.raises(ConvergenceError):
            readout()
        return
    res = readout()
    assert np.array_equal(res.times, times)
    assert np.abs(res.trace - trace).max() <= 1e-12
    assert res.t_mix == _one_shot_t_mix(times, trace, eps)


@settings(max_examples=20, deadline=None)
@given(base=st.one_of(st.tuples(st.just(generate_glued_tree), st.sampled_from([3, 5])),
                      st.tuples(st.just(generate_cycle), st.integers(3, 16)),
                      st.tuples(st.just(generate_hypercube), st.integers(3, 4))),
       seed=st.integers(0, 2**16))
def test_grouped_readouts_match_the_ungrouped_series(base, seed):
    # a basis start keeps the symmetries of the relabelled graph that fix it,
    # so its states fall into classes of equal rows
    generate, size = base
    rng = np.random.default_rng(seed)
    g = generate(size)
    _, ext = extended_graph(permute_graph(g, rng.permutation(g.n)), BOSON)
    psi0 = basis_state(ext.n, int(rng.integers(ext.n)))
    h = HermitianOperator.from_graph(ext)
    w, v = h.spectral_decompose()

    def probs(times):
        return np.abs(v @ (np.exp(-1j * w[:, None] * times) * (v.T @ psi0)[:, None])) ** 2

    times = np.arange(0.05, 200.0 + 0.025, 0.05)
    running = np.cumsum(probs(times), axis=1) / np.arange(1, times.size + 1)
    trace = 0.5 * np.abs(running - limiting_distribution(h, psi0)[:, None]).sum(axis=0)
    _matches_trace(lambda: quantum_mixing_time(h, psi0, 0.25, 200.0, 0.05), times, trace, 0.25)

    average = probs(np.linspace(0.1, 50.0, 500)).mean(axis=1)
    assert np.abs(time_average_distribution(h, psi0, 50.0, 500) - average / average.sum()).max() <= 1e-12

    p0 = psi0.real
    wc, vc = HermitianOperator(classical_generator(ext)).spectral_decompose()
    # the null rate held at zero, as the readout holds it: eigh's few eps
    # would drift the trace's tail by up to 1.4e-12 at t = 400
    wc = np.where(np.abs(wc) < 1e-9, 0.0, wc)
    times = np.arange(0.05, 400.0 + 0.025, 0.05)
    dists = vc @ (np.exp(wc[:, None] * times) * (vc.T @ p0)[:, None])
    trace = 0.5 * np.abs(dists - 1.0 / ext.n).sum(axis=0)
    _matches_trace(lambda: classical_mixing_time(ext, p0, 0.25, 400.0, 0.05), times, trace, 0.25)


# -- classical walks on the cells of an equitable partition --------------


def _er(n):
    return generate_erdos_renyi(n, 0.3, seed=n)


@settings(max_examples=30, deadline=None)
@given(base=st.one_of(st.tuples(st.just(generate_glued_tree), st.sampled_from([3, 5])),
                      st.tuples(st.just(generate_cycle), st.integers(3, 16)),
                      st.tuples(st.just(generate_hypercube), st.integers(3, 4)),
                      st.tuples(st.just(generate_path), st.integers(2, 10)),
                      st.tuples(st.just(_er), st.integers(8, 14))),
       start_kind=st.sampled_from(["vertex", "uniform", "random"]),
       seed=st.integers(0, 2**16))
def test_classical_readouts_match_the_dense_generator(base, start_kind, seed):
    # boson pairs of the relabelled symmetric families keep the symmetries
    # that fix the start; a plain G(n, 0.3) refines to one cell per vertex
    generate, size = base
    rng = np.random.default_rng(seed)
    g = generate(size)
    g = permute_graph(g, rng.permutation(g.n))
    if generate is not _er:
        _, g = extended_graph(g, BOSON)
    n = g.n
    start, target = (int(x) for x in rng.choice(n, size=2, replace=False))
    w, v = np.linalg.eigh(classical_generator(g))

    def dists(p0, times):
        return v @ (np.exp(w[:, None] * times) * (v.T @ p0)[:, None])

    def profile(times):
        return dists(np.eye(n)[start], times)[target]

    res = classical_hitting(g, start, target, 40.0, 0.5)
    assert np.abs(res.profile - profile(res.times)).max() <= 1e-12
    assert abs(res.efficiency - _refined_peak(profile, res.times)[1]) <= 1e-12

    p0 = {"vertex": np.eye(n)[start], "uniform": np.full(n, 1.0 / n),
          "random": rng.random(n)}[start_kind]
    p0 /= p0.sum()
    # the readout holds the null rate at zero; so does the reference trace
    w_held = np.where(np.abs(w) < 1e-9, 0.0, w)
    times = np.arange(0.05, 200.0 + 0.025, 0.05)
    held = v @ (np.exp(w_held[:, None] * times) * (v.T @ p0)[:, None])
    trace = 0.5 * np.abs(held - 1.0 / n).sum(axis=0)
    _matches_trace(lambda: classical_mixing_time(g, p0, 0.25, 200.0, 0.05), times, trace, 0.25)
    for t in (0.0, 0.7, 25.0):
        assert np.abs(evolve_classical(g, p0, t) - dists(p0, np.array([t]))[:, 0]).max() <= 1e-12


def test_classical_walks_on_the_9_layer_boson_pair_factorize_125_cells(eigh_calls):
    # 1,953 states: the full generator's eigh takes about a second
    basis, ext = extended_graph(generate_glued_tree(9), BOSON)
    start = basis.index(0, 0)
    res = classical_hitting(ext, start, basis.index(61, 61), 2000.0, 2.0)
    assert eigh_calls == [(125, 125)]
    assert res.efficiency >= 1.0 / ext.n - 1e-12
    eigh_calls.clear()
    res = classical_mixing_time(ext, basis_state(ext.n, start).real, 0.25, 400.0, 0.05)
    assert eigh_calls == [(125, 125)]
    assert np.abs(res.reference - 1.0 / ext.n).max() <= 1e-12
