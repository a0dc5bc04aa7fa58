"""Spectral evolution, distances, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    HermitianOperator,
    basis_state,
    classical_fidelity,
    classical_generator,
    classical_stationary,
    evolve_classical,
    evolve_quantum,
    generate_complete,
    generate_cycle,
    generate_erdos_renyi,
    generate_path,
    generate_star,
    l1_distance,
    limiting_distribution,
    measure,
    sample_counts,
    time_average_distribution,
    tv_distance,
)


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((m + m.conj().T) / 2)


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


# -- spectral decomposition ---------------------------------------------


def test_zero_matrix_spectrum():
    w, v = HermitianOperator(np.zeros((4, 4))).spectral_decompose()
    assert np.allclose(w, 0)
    assert np.allclose(v @ v.conj().T, np.eye(4))


def test_k2_spectrum():
    w, _ = HermitianOperator([[0, 1], [1, 0]]).spectral_decompose()
    assert np.allclose(w, [-1, 1])


def test_cycle4_spectrum():
    h = HermitianOperator.from_graph(generate_cycle(4))
    w, _ = h.spectral_decompose()
    assert np.allclose(w, [-2, 0, 0, 2], atol=1e-9)  # 2 cos(2 pi k / 4)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianOperator([[0, 1], [0, 0]])


# -- quantum evolution ---------------------------------------------------


def test_evolve_t0_identity():
    h = _random_hermitian(5, 0)
    psi0 = _random_state(5, 1)
    assert np.allclose(evolve_quantum(h, psi0, 0.0), psi0)


def test_k2_full_transfer():
    h = HermitianOperator([[0, 1], [1, 0]])
    psi = evolve_quantum(h, basis_state(2, 0), math.pi / 2)
    assert np.allclose(np.abs(psi), [0, 1], atol=1e-12)


def test_forward_backward_round_trip():
    h = _random_hermitian(6, 2)
    psi0 = _random_state(6, 3)
    back = evolve_quantum(h, evolve_quantum(h, psi0, 2.7), -2.7)
    assert np.abs(back - psi0).max() < 1e-9


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        evolve_quantum(_random_hermitian(3, 0), basis_state(4, 0), 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_unitarity_random(seed, t):
    dim = 2 + seed % 9
    h = _random_hermitian(dim, seed)
    psi = evolve_quantum(h, _random_state(dim, seed + 1), t)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_composition(seed, t1, t2):
    dim = 2 + seed % 7
    h = _random_hermitian(dim, seed)
    psi0 = _random_state(dim, seed + 1)
    once = evolve_quantum(h, psi0, t1 + t2)
    twice = evolve_quantum(h, evolve_quantum(h, psi0, t1), t2)
    assert np.abs(once - twice).max() < 1e-8


def test_evolve_many_matches_single_calls():
    h = _random_hermitian(5, 9)
    psi0 = _random_state(5, 10)
    times = [0.3, 1.1, 4.2]
    block = h.evolve_many(psi0, times)
    for k, t in enumerate(times):
        assert np.allclose(block[:, k], evolve_quantum(h, psi0, t))


# -- classical evolution -------------------------------------------------


def test_classical_t0_identity():
    g = generate_cycle(5)
    p0 = np.array([1.0, 0, 0, 0, 0])
    assert np.allclose(evolve_classical(g, p0, 0.0), p0)


def test_classical_k2_long_time_uniform():
    g = generate_path(2)
    p = evolve_classical(g, [1.0, 0.0], 50.0)
    assert np.allclose(p, [0.5, 0.5], atol=1e-10)


def test_classical_matches_series_oracle():
    # independent oracle: 50-term truncated series of exp(Q t)
    g = generate_cycle(3)
    q = classical_generator(g)
    t = 0.5
    series = np.zeros((3, 3))
    term = np.eye(3)
    for k in range(50):
        series += term
        term = term @ q * (t / (k + 1))
    p0 = np.array([1.0, 0, 0])
    assert np.abs(evolve_classical(g, p0, t) - series @ p0).max() < 1e-9


def test_classical_stochasticity():
    g = generate_erdos_renyi(8, 0.4, seed=2)
    rng = np.random.default_rng(0)
    p0 = rng.random(8)
    p0 /= p0.sum()
    for t in (0.1, 1.0, 10.0):
        p = evolve_classical(g, p0, t)
        assert p.min() >= 0
        assert abs(p.sum() - 1.0) < 1e-9


def test_classical_generator_columns_sum_to_zero():
    g = generate_star(6)
    q = classical_generator(g)
    assert np.allclose(q.sum(axis=0), 0)
    assert np.allclose(q, q.T)


def test_classical_stationary_is_uniform_kernel_vector():
    # Q = A - D is symmetric, so its kernel is the all-ones vector and the
    # stationary distribution is uniform even on irregular graphs.
    g = generate_star(6)
    pi = classical_stationary(g)
    assert np.allclose(pi, np.full(6, 1 / 6), atol=1e-10)
    p_long = evolve_classical(g, basis_state(6, 1).real, 200.0)
    assert tv_distance(p_long, pi) < 1e-8


# -- limiting and time-averaged distributions ----------------------------


def test_limiting_h0_keeps_initial():
    h = HermitianOperator(np.zeros((4, 4)))
    psi0 = _random_state(4, 5)
    assert np.allclose(limiting_distribution(h, psi0), np.abs(psi0) ** 2)


def test_limiting_k2():
    h = HermitianOperator([[0, 1], [1, 0]])
    assert np.allclose(limiting_distribution(h, basis_state(2, 0)), [0.5, 0.5])


def test_limiting_matches_long_time_average():
    h = HermitianOperator.from_graph(generate_cycle(5))
    psi0 = basis_state(5, 0)
    avg = time_average_distribution(h, psi0, 2000.0, 4000)
    assert tv_distance(avg, limiting_distribution(h, psi0)) < 5e-3


def test_time_average_single_step_h0():
    h = HermitianOperator(np.zeros((3, 3)))
    psi0 = _random_state(3, 6)
    assert np.allclose(time_average_distribution(h, psi0, 1.0, 1), np.abs(psi0) ** 2)


def test_time_average_is_distribution():
    h = _random_hermitian(6, 7)
    avg = time_average_distribution(h, _random_state(6, 8), 10.0, 50)
    assert avg.min() >= 0 and abs(avg.sum() - 1) < 1e-12


def test_time_average_converges_on_path4():
    h = HermitianOperator.from_graph(generate_path(4))
    psi0 = basis_state(4, 0)
    avg = time_average_distribution(h, psi0, 5000.0, 5000)
    assert tv_distance(avg, limiting_distribution(h, psi0)) < 1e-2


# -- distances and sampling ----------------------------------------------


def test_distances_trivial_cases():
    p, q = [1.0, 0.0], [0.0, 1.0]
    assert tv_distance(p, p) == 0
    assert l1_distance(p, p) == 0
    assert classical_fidelity(p, p) == 1
    assert tv_distance(p, q) == 1
    assert l1_distance(p, q) == 2
    assert classical_fidelity(p, q) == 0


def test_distances_hand_values():
    p, q = [0.5, 0.5], [0.25, 0.75]
    assert math.isclose(tv_distance(p, q), 0.25)
    assert math.isclose(l1_distance(p, q), 0.5)


def test_distance_length_mismatch():
    with pytest.raises(ValueError):
        tv_distance([1.0], [0.5, 0.5])


def test_sample_counts_point_mass():
    counts = sample_counts([0.0, 1.0, 0.0], shots=100, seed=0)
    assert counts.tolist() == [0, 100, 0]


def test_sample_counts_three_sigma():
    shots = 10**6
    counts = sample_counts(np.full(4, 0.25), shots=shots, seed=42)
    sigma = math.sqrt(shots * 0.25 * 0.75)
    assert np.abs(counts - shots * 0.25).max() < 3 * sigma


def test_sample_counts_deterministic():
    p = np.full(5, 0.2)
    assert np.array_equal(sample_counts(p, 1000, seed=3),
                          sample_counts(p, 1000, seed=3))


def test_measure_of_uniform_complete_graph_walk():
    g = generate_complete(4)
    h = HermitianOperator.from_graph(g)
    psi = evolve_quantum(h, basis_state(4, 0), 0.9)
    p = measure(psi)
    # walk from one vertex of K_n stays symmetric over the other vertices
    assert np.allclose(p[1:], p[1])


def test_real_matrix_factorized_in_real_arithmetic():
    w, v = HermitianOperator.from_graph(generate_cycle(5)).spectral_decompose()
    assert v.dtype == np.float64 and w.dtype == np.float64
    # a complex dtype with no imaginary part is real too
    h = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
    assert h.entries.dtype == np.float64
    assert h.spectral_decompose()[1].dtype == np.float64
    hc = _random_hermitian(4, seed=3)
    assert hc.entries.dtype == np.complex128
    wc, vc = hc.spectral_decompose()
    assert vc.dtype == np.complex128 and wc.dtype == np.float64
