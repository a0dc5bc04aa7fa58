"""Spectral evolution and distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    BOSON,
    HermitianOperator,
    basis_state,
    classical_generator,
    classical_mixing_time,
    evolve_classical,
    evolve_quantum,
    extended_graph,
    generate_complete,
    generate_cycle,
    generate_erdos_renyi,
    generate_glued_tree,
    generate_hypercube,
    generate_path,
    generate_star,
    limiting_distribution,
    measure,
    permute_graph,
    spatial_search,
    time_average_distribution,
    tv_distance,
)
from qwalk import evolution
from qwalk.evolution import _check_series_size, _series, _series_blocks


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((m + m.conj().T) / 2)


def _one_shot(w, rows, coeffs, times, rate):
    """The spectral series in one complex product over every time point."""
    return rows @ (np.exp(rate * w[:, None] * np.asarray(times)) * coeffs[:, None])


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_input_refused(value):
    with pytest.raises(ValueError, match="entries must be finite"):
        HermitianOperator([[0, value], [value, 0]])
    h = HermitianOperator([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=f"time must be finite, got {value}"):
        h.propagator(value)
    with pytest.raises(ValueError, match="times must be finite"):
        h.evolve_many(basis_state(2, 0), [0.0, value])
    with pytest.raises(ValueError, match="times must be finite"):
        evolve_classical(generate_path(2), [1.0, 0.0], value)
    with pytest.raises(ValueError, match=f"T must be finite, got {value}"):
        time_average_distribution(h, basis_state(2, 0), value, 10)


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


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 6), n_rows=st.integers(1, 4), width=st.integers(1, 4),
       count=st.sampled_from(["one", "block-1", "block", "block+1", "several"]),
       complex_rows=st.booleans(), rate=st.sampled_from([-1j, 1]), seed=st.integers(0, 2**16))
def test_blocked_series_matches_one_shot(dim, n_rows, width, count, complex_rows, rate, seed):
    points = {"one": 1, "block-1": max(width - 1, 1), "block": width, "block+1": width + 1,
              "several": 3 * width + 2}[count]
    rng = np.random.default_rng(seed)
    # classical rates are <= 0; quantum eigenvalues take either sign
    w = np.sort(rng.uniform(-3.0, 0.0 if rate == 1 else 3.0, dim))
    rows = rng.normal(size=(n_rows, dim))
    coeffs = rng.normal(size=dim)
    if complex_rows:
        rows = rows + 1j * rng.normal(size=(n_rows, dim))
    if rate == -1j:
        coeffs = coeffs + 1j * rng.normal(size=dim)
    times = np.sort(rng.uniform(0.0, 5.0, points))
    expected = _one_shot(w, rows, coeffs, times, rate)
    with pytest.MonkeyPatch.context() as mp:
        # blocks hold about _BLOCK_VALUES phase or output values, whichever are more
        mp.setattr(evolution, "_BLOCK_VALUES", max(dim, n_rows) * width)
        full = _series(w, rows, coeffs, times, rate)
        blocks = list(_series_blocks(w, rows, coeffs, times, rate))
    assert full.shape == expected.shape and full.dtype == expected.dtype
    assert np.abs(full - expected).max() <= 1e-12
    sizes = [width] * (points // width) + [points % width] * (points % width > 0)
    assert [b.shape[1] for b in blocks] == sizes
    assert np.array_equal(np.concatenate(blocks, axis=1), full)


def _planted_spectrum(groups, rate, tol, rng):
    """Ascending eigenvalues with one planted group per (size, kind): exact
    repeats, repeats one ulp apart, neighbours 1.5 ``tol`` apart, or a chain
    of neighbours 0.7 ``tol`` apart. Returns them with the number of terms the
    fold must leave: only exact repeats are one eigenspace, so every other
    group keeps a term per member."""
    # centres 0.25 apart; classical rates are <= 0
    centres = -0.25 * (1 + rng.permutation(24)[:len(groups)]) + (0.0 if rate == 1 else 3.0)
    w, terms = [], 0
    for centre, (size, kind) in zip(centres, groups):
        group = [centre]
        for _ in range(size - 1):
            step = {"exact": 0.0, "ulps": np.spacing(abs(group[-1])), "apart": 1.5 * tol,
                    "chain": 0.7 * tol}[kind]
            group.append(group[-1] + step)
        w += group
        terms += 1 if kind == "exact" else size
    return np.sort(w), terms


@settings(max_examples=80, deadline=None)
@given(groups=st.lists(st.tuples(st.integers(1, 4),
                                 st.sampled_from(["exact", "ulps", "apart", "chain"])),
                       min_size=1, max_size=6),
       n_rows=st.integers(1, 3), complex_coeffs=st.booleans(), rate=st.sampled_from([-1j, 1]),
       t_max=st.floats(0.5, 400.0), seed=st.integers(0, 2**16))
def test_fold_matches_the_unfolded_series(groups, n_rows, complex_coeffs, rate, t_max, seed):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, t_max, 50)
    # neighbours a phase of 2e-12 apart over the window, which the fold keeps apart
    w, terms = _planted_spectrum(groups, rate, 2e-12 / t_max, rng)
    rows = rng.normal(size=(n_rows, len(w)))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    coeffs = rng.normal(size=len(w)) + (1j * rng.normal(size=len(w)) if complex_coeffs else 0.0)
    coeffs /= np.linalg.norm(coeffs)
    expected = _one_shot(w, rows, coeffs, times, rate)
    with pytest.MonkeyPatch.context() as mp:
        # with no fixed cost, 50 points make every merge pay
        mp.setattr(evolution, "_FOLD_OVERHEAD", 0)
        folded = evolution._fold(w, rows, coeffs, times.size)
        mp.setattr(evolution, "_BLOCK_VALUES", 2 * max(terms, n_rows))  # 2 points per block
        full = _series(*folded, times, rate)
        blocks = np.concatenate(list(_series_blocks(*folded, times, rate)), axis=1)
    assert len(folded[0]) == terms
    if terms == len(w):
        assert all(a is b for a, b in zip(folded, (w, rows, coeffs)))
    else:
        assert folded[2] is None and np.iscomplexobj(folded[1]) == complex_coeffs
    assert full.dtype == expected.dtype
    assert np.abs(full - expected).max() <= 1e-12
    assert np.array_equal(blocks, full)


def _direct_block(w, rows, coeffs, times, rate):
    """One series block with one exp per phase value: the kernel without
    its phase tables."""
    phases = np.exp(rate * w[:, None] * times)
    if phases.dtype.kind != "c":
        phases[phases < evolution._FLUSH_BELOW] = 0.0
    terms = phases if coeffs is None else phases * coeffs[:, None]
    if len(rows) > 1 and terms.dtype.kind == "c" and rows.dtype.kind != "c":
        return (rows @ terms.view(float)).view(complex)
    return rows @ terms


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 6), n_rows=st.integers(1, 3), width=st.integers(9, 40),
       length=st.sampled_from(["width-1", "width", "width+1", "square-1", "square", "square+1",
                               "several"]),
       grid=st.sampled_from(["arange", "linspace"]), start=st.floats(-1000.0, 1000.0),
       step=st.floats(1e-3, 10.0), rate=st.sampled_from([-1j, 1]),
       coeffs_kind=st.sampled_from(["none", "real", "complex"]), seed=st.integers(0, 2**16))
def test_phase_tables_match_the_direct_exp(dim, n_rows, width, length, grid, start, step, rate,
                                           coeffs_kind, seed):
    side = math.isqrt(width)
    points = {"width-1": width - 1, "width": width, "width+1": width + 1,
              "square-1": side * side - 1, "square": side * side, "square+1": side * side + 1,
              "several": 3 * width + 2}[length]
    if rate == 1:
        start = abs(start)  # classical readouts run forward from t >= 0
    step = min(step, (2000.0 - abs(start)) / points)  # every |t| within 2000
    if grid == "arange":
        times = np.arange(points) * step + start
    else:
        times = np.linspace(start, start + step * (points - 1), points)
    rng = np.random.default_rng(seed)
    w = np.sort(rng.uniform(-10.0, 0.0 if rate == 1 else 10.0, dim))
    rows = rng.normal(size=(n_rows, dim))
    coeffs = {"none": None, "real": rng.normal(size=dim),
              "complex": rng.normal(size=dim) + 1j * rng.normal(size=dim)}[coeffs_kind]
    if rate == 1 and coeffs is not None:
        coeffs = coeffs.real
    expected = _direct_block(w, rows, coeffs, times, rate)
    # the direct exp rounds its argument w t by up to half an ulp (1.8e-12 at
    # |w t| = 2e4), the tables round two arguments and add the grid's drift,
    # at most _TABLE_DRIFT * max|t|; so 1e-12 alone holds only for small |w t|
    slack = (1.5 * np.finfo(float).eps + evolution._TABLE_DRIFT) * np.abs(w).max() * np.abs(times).max()
    bound = (1e-12 + slack) * (np.abs(rows) @ (np.ones(dim) if coeffs is None else np.abs(coeffs)))
    tabled = []
    with pytest.MonkeyPatch.context() as mp:
        # every block of 4 or more points takes the tables, at every size
        mp.setattr(evolution, "_TABLE_VALUES", 0)
        mp.setattr(evolution, "_BLOCK_VALUES", max(dim, n_rows) * width)
        on_tables = evolution._on_tables
        mp.setattr(evolution, "_on_tables", lambda *a: tabled.append(on_tables(*a)) or tabled[-1])
        full = _series(w, rows, coeffs, times, rate)
        blocks = np.concatenate(list(_series_blocks(w, rows, coeffs, times, rate)), axis=1)
    assert tabled and all(tabled)
    assert full.dtype == expected.dtype
    assert (np.abs(full - expected) <= bound[:, None]).all()
    assert np.array_equal(blocks, full)


@pytest.mark.parametrize("case", ["sorted-random", "one-point", "under-the-gate"])
def test_grids_off_the_tables_keep_the_direct_exp(case):
    rng = np.random.default_rng(7)
    dim, points = {"sorted-random": (64, 400), "one-point": (2**14, 1),
                   "under-the-gate": (40, 400)}[case]
    times = (np.sort(rng.uniform(0.0, 60.0, points)) if case == "sorted-random"
             else np.arange(points) * 0.05)
    assert (dim * points >= evolution._TABLE_VALUES) == (case != "under-the-gate")
    w = np.sort(rng.uniform(-4.0, 0.0, dim))
    rows = rng.normal(size=(3, dim))
    for rate, coeffs in ((-1j, rng.normal(size=dim) + 1j * rng.normal(size=dim)),
                         (1, rng.normal(size=dim)), (-1j, None)):
        assert np.array_equal(_series(w, rows, coeffs, times, rate),
                              _direct_block(w, rows, coeffs, times, rate))


def test_fold_returns_a_series_it_cannot_shorten_unchanged(monkeypatch):
    h = _random_hermitian(6, 12)
    w, v = h.spectral_decompose()
    coeffs = v.conj().T @ _random_state(6, 13)
    times = np.linspace(0.0, 50.0, 20)
    pair = np.array([-1.0, -1.0, 0.0, 1.0, 2.0, 3.0])

    def unchanged(*args):
        return all(a is b for a, b in zip(evolution._fold(*args), args[:3]))

    assert unchanged(np.zeros(6), v, coeffs, times.size)  # too small to pay for the fixed cost
    monkeypatch.setattr(evolution, "_FOLD_OVERHEAD", 0)
    assert unchanged(w, v, coeffs, times.size)  # non-degenerate
    assert unchanged(np.zeros(6), v, coeffs, times[:1].size)  # one point
    assert unchanged(pair, v, coeffs, times[:12].size)  # one merge saves 12 passes of the 12 it costs
    assert len(evolution._fold(pair, v, coeffs, times[:13].size)[0]) == 5


# -- classical evolution -------------------------------------------------


def test_classical_t0_identity():
    g = generate_cycle(5)
    p0 = np.array([1.0, 0, 0, 0, 0])
    assert np.allclose(evolve_classical(g, p0, 0.0), p0)


def test_classical_evolution_refuses_negative_times():
    g = generate_cycle(5)
    p0 = np.array([1.0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"times must be >= 0, got -1\.0"):
        evolve_classical(g, p0, -1.0)
    with pytest.raises(ValueError, match=r"times must be >= 0, got -0\.5"):
        evolution._evolve_classical_many(g, p0, [0.0, 1.0, -0.5])


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
    pi = classical_mixing_time(g, basis_state(6, 1).real, 0.5, 10.0, 0.1).reference
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


@pytest.mark.parametrize("graph", [generate_cycle(12), generate_hypercube(4), generate_path(5)],
                         ids=["boson-cycle12", "boson-Q4", "boson-path5"])
def test_limiting_matches_the_per_eigenspace_loop(graph):
    # degenerate spectra; the loop sums each eigenspace's projection in turn
    _, ext = extended_graph(graph, BOSON)
    h = HermitianOperator.from_graph(ext)
    psi0 = _random_state(ext.n, 14)
    w, v = h.spectral_decompose()
    coeffs = v.conj().T @ psi0
    pbar, start = np.zeros(h.dim), 0
    for k in range(1, h.dim + 1):
        if k == h.dim or w[k] - w[k - 1] > 1e-8 * max(np.abs(w).max(), 1.0):
            pbar += np.abs(v[:, start:k] @ coeffs[start:k]) ** 2
            start = k
    assert np.abs(limiting_distribution(h, psi0) - pbar / pbar.sum()).max() <= 1e-15


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


def test_time_grid_size_bound():
    # 4 states x 2**24 points is exactly the 2**26-value limit; one more point is over
    _check_series_size(4, 2**24)
    with pytest.raises(ValueError, match="over the limit of 2"):
        _check_series_size(4, 2**24 + 1)
    h = HermitianOperator.from_graph(generate_path(4))
    with pytest.raises(ValueError, match="over the limit of 2"):
        time_average_distribution(h, basis_state(4, 0), 1.0, 2**24 + 1)


def test_time_average_streams_to_the_one_shot_average():
    # 21 states take 3,120 points per block, so 10,000 steps span four blocks
    h = HermitianOperator.from_graph(generate_cycle(21))
    psi0 = _random_state(21, 11)
    times = np.linspace(5.0 / 10_000, 5.0, 10_000)
    w, v = h.spectral_decompose()
    one_shot = (np.abs(_one_shot(w, v, v.T @ psi0, times, -1j)) ** 2).mean(axis=1)
    avg = time_average_distribution(h, psi0, 5.0, 10_000)
    assert np.abs(avg - one_shot / one_shot.sum()).max() <= 1e-13


def test_limiting_and_time_average_refuse_a_start_of_the_wrong_length():
    h = HermitianOperator.from_graph(generate_cycle(6))
    with pytest.raises(ValueError, match="state dimension mismatch"):
        limiting_distribution(h, basis_state(5, 0))
    with pytest.raises(ValueError, match="state dimension mismatch"):
        time_average_distribution(h, basis_state(5, 0), 10.0, 100)


def test_time_average_converges_on_path4():
    h = HermitianOperator.from_graph(generate_path(4))
    psi0 = basis_state(4, 0)
    avg = time_average_distribution(h, psi0, 5000.0, 5000)
    assert tv_distance(avg, limiting_distribution(h, psi0)) < 1e-2


# -- distances -----------------------------------------------------------


def test_distances_trivial_cases():
    p, q = [1.0, 0.0], [0.0, 1.0]
    assert tv_distance(p, p) == 0
    assert tv_distance(p, q) == 1


def test_distances_hand_values():
    p, q = [0.5, 0.5], [0.25, 0.75]
    assert math.isclose(tv_distance(p, q), 0.25)


def test_distance_length_mismatch():
    with pytest.raises(ValueError):
        tv_distance([1.0], [0.5, 0.5])


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


# -- the bipartite route ------------------------------------------------


@st.composite
def _bipartite_matrices(draw):
    """A relabelled weighted bipartite matrix [[0, B], [B^H, 0]] and its block B."""
    kind = draw(st.sampled_from(
        ["random", "star", "isolated", "components", "rank-deficient", "edgeless"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_block = draw(st.booleans())
    p, q = (1 if kind == "star" else draw(st.integers(1, 12))), draw(st.integers(1, 12))

    def block(rows, cols, density=1.0):
        b = rng.normal(size=(rows, cols)) + (1j * rng.normal(size=(rows, cols)) if complex_block else 0)
        return b * (rng.random((rows, cols)) < density)

    if kind == "components":
        b = np.zeros((p + 1, q + 2), dtype=complex if complex_block else float)
        b[:p // 2 + 1, :q // 2 + 1] = block(p // 2 + 1, q // 2 + 1)
        b[p // 2 + 1:, q // 2 + 1:] = block(p - p // 2, q - q // 2 + 1)
    elif kind == "rank-deficient":
        b = block(p, 1) @ block(1, q) + (block(p, 1) @ block(1, q) if min(p, q) > 2 else 0)
    elif kind == "edgeless":
        b = np.zeros((p, q))
    else:
        b = block(p, q, draw(st.floats(0.2, 1.0)))
        if kind == "isolated":
            b[rng.random(p) < 0.3] = 0
            b[:, rng.random(q) < 0.3] = 0
    rows, cols = b.shape
    m = np.zeros((rows + cols, rows + cols), dtype=b.dtype)
    m[:rows, rows:] = b
    m[rows:, :rows] = b.conj().T
    perm = rng.permutation(len(m))
    return m[np.ix_(perm, perm)], b


@settings(max_examples=150, deadline=None)
@given(case=_bipartite_matrices(), seed=st.integers(0, 10**6))
def test_bipartite_route_matches_eigh(case, seed):
    m, b = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_BIPARTITE_FLOOR", 1)
        assert (evolution._bipartition(m) is None) == (not b.any())
        h = HermitianOperator(m)
        w, v = h.spectral_decompose()
    w_ref, v_ref = np.linalg.eigh(h.entries)
    assert v.dtype == h.entries.dtype
    assert np.abs(w - w_ref).max() <= 1e-10
    assert np.abs(v.conj().T @ v - np.eye(len(m))).max() <= 1e-10
    # eigenvalue clusters at least 1e-3 apart have equal projectors
    scale = max(1.0, np.abs(w_ref).max())
    starts = np.flatnonzero(np.concatenate(([True], np.diff(w_ref) > 1e-3 * scale)))
    for lo, hi in zip(starts, np.append(starts[1:], len(m))):
        projector = v[:, lo:hi] @ v[:, lo:hi].conj().T
        assert np.abs(projector - v_ref[:, lo:hi] @ v_ref[:, lo:hi].conj().T).max() <= 1e-10
    psi0 = _random_state(len(m), seed)
    times = np.array([0.0, 0.7, 3.1])
    expected = v_ref @ (np.exp(-1j * w_ref[:, None] * times) * (v_ref.conj().T @ psi0)[:, None])
    assert np.abs(h.evolve_many(psi0, times) - expected).max() <= 1e-10


def test_bipartition_rejects_what_is_not_bipartite(monkeypatch):
    odd = generate_cycle(101).adjacency()
    assert evolution._bipartition(odd) is None
    even = generate_cycle(100).adjacency()
    sides = evolution._bipartition(even)
    assert sorted(side.tolist() for side in sides) == [list(range(0, 100, 2)), list(range(1, 100, 2))]
    even[7, 7] = 0.5
    assert evolution._bipartition(even) is None
    # the search Hamiltonian on the 105-state boson pair of cycle(14) carries its oracle
    # on the diagonal, so every factorization of a search keeps eigh
    _, ext = extended_graph(generate_cycle(14), BOSON)
    seen = []
    bipartition = evolution._bipartition
    monkeypatch.setattr(evolution, "_bipartition", lambda m: seen.append(bipartition(m)) or seen[-1])
    spatial_search(ext, [3, 50, 90], gamma_strategy=0.3)
    assert ext.n >= evolution._BIPARTITE_FLOOR and seen == [None]


def test_below_the_floor_eigh_is_kept_bit_for_bit():
    rng = np.random.default_rng(11)
    m = np.zeros((60, 60))
    m[:30, 30:] = rng.normal(size=(30, 30))
    m[30:, :30] = m[:30, 30:].T
    assert len(m) < evolution._BIPARTITE_FLOOR and evolution._bipartition(m) is not None
    w, v = HermitianOperator(m).spectral_decompose()
    w_ref, v_ref = np.linalg.eigh(m)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def _relabelled_fold(base, seed, horizon):
    """Folded terms and ``_lump`` classes of the mixing readout (dt 0.05) of
    the boson pair on ``base`` relabelled by a permutation drawn from
    ``seed``, from its corner (0, 0)."""
    perm = np.random.default_rng(seed).permutation(base.n)
    basis, ext = extended_graph(permute_graph(base, perm), BOSON)
    h = HermitianOperator.from_graph(ext)
    psi0 = basis_state(ext.n, basis.index(int(perm[0]), int(perm[0])))
    times = np.arange(0.05, horizon + 0.025, 0.05)
    w, rows, coeffs = h._folded(psi0, times.size)
    reps = evolution._lump(rows, coeffs, limiting_distribution(h, psi0), times.size)[0]
    return len(w), len(reps)


@pytest.mark.parametrize("floor", [1, 10**9], ids=["svd", "eigh"])
@pytest.mark.parametrize("base, horizon, terms, classes", [
    (generate_cycle(40), 200.0, 221, 250), (generate_glued_tree(5), 200.0, 45, 25),
    (generate_hypercube(4), 2000.0, 9, 12)], ids=["cycle40", "glued5", "Q4"])
def test_fold_holds_on_every_labelling(monkeypatch, floor, base, horizon, terms, classes):
    # rounding spreads degenerate clusters by up to 15 eps max|w| depending on the
    # labelling; unsnapped, the fold left them split (45-50 terms on the glued tree,
    # 125-133 of 9 on Q_4 at horizon 2000)
    monkeypatch.setattr(evolution, "_BIPARTITE_FLOOR", floor)
    for seed in range(1, 7):
        assert _relabelled_fold(base, seed, horizon) == (terms, classes), seed


def test_snap_merges_clusters_within_64_eps():
    eps = np.finfo(float).eps
    w = np.array([-2.0, -1.0, -1.0 + 30 * eps, 0.5, 0.5 + 200 * eps, 2.0 - 10 * eps, 2.0])
    snapped = evolution._snap(w)
    assert snapped[1] == snapped[2] == (w[1] + w[2]) / 2
    assert snapped[3] != snapped[4] and snapped[5] == snapped[6]
    assert snapped[0] == -2.0 and np.all(np.diff(snapped) >= 0)
    assert np.array_equal(evolution._snap(w[[0, 1, 3, 6]]), w[[0, 1, 3, 6]])


# -- classes of states with equal rows -----------------------------------


def _corner_classes(base, rate):
    """``_lump``'s classes for the mixing readout of the boson pair on
    ``base`` from its corner (0, 0): quantum (rate -1j, horizon 200) or
    classical (rate 1, horizon 400), dt 0.05."""
    basis, ext = extended_graph(base, BOSON)
    psi0 = basis_state(ext.n, basis.index(0, 0))
    if rate == -1j:
        h = HermitianOperator.from_graph(ext)
        times = np.arange(0.05, 200.0 + 0.025, 0.05)
        _, rows, coeffs = h._folded(psi0, times.size)
        return evolution._lump(rows, coeffs, limiting_distribution(h, psi0), times.size)
    w, v = HermitianOperator(classical_generator(ext)).spectral_decompose()
    times = np.arange(0.05, 400.0 + 0.025, 0.05)
    _, rows, coeffs = evolution._fold(w, v, v.T @ psi0.real, times.size)
    return evolution._lump(rows, coeffs, np.full(ext.n, 1.0 / ext.n), times.size)


@pytest.mark.parametrize("base, rate, classes", [
    (generate_cycle(40), -1j, 250), (generate_path(19), -1j, 190), (generate_path(19), 1, 190)])
def test_lump_finds_the_classes_of_the_boson_pair(base, rate, classes):
    reps, sizes, inverse = _corner_classes(base, rate)
    n = base.n * (base.n + 1) // 2
    assert len(reps) == len(sizes) == classes and len(inverse) == n
    assert np.array_equal(inverse[reps], np.arange(classes))
    assert np.array_equal(np.bincount(inverse), sizes)


def test_lump_splits_a_run_whose_keys_collide_but_rows_differ():
    rng = np.random.default_rng(5)
    row, other = rng.normal(size=(2, 4))
    # a step orthogonal to the fixed projection: equal keys, rows 1e-6 apart in L1
    projection = np.cos(np.arange(4))
    step = rng.normal(size=4)
    step -= (step @ projection) / (projection @ projection) * projection
    step *= 1e-6 / np.abs(step).sum()
    rows = np.array([row, row + step, row, other, other + 1e-14])
    reps, sizes, inverse = evolution._lump(rows, None, None, 10**6)
    # the colliding run falls apart into single states; the next run stays one class
    assert sorted(sizes.tolist()) == [1, 1, 1, 2]
    assert len(set(inverse[:3].tolist())) == 3 and inverse[3] == inverse[4]
    # on a short grid grouping does not pay, and every state is its own class
    reps, sizes, inverse = evolution._lump(rows, None, None, 1)
    assert np.array_equal(reps, np.arange(5)) and np.array_equal(inverse, np.arange(5))
    assert np.array_equal(sizes, np.ones(5))


def test_as_distribution_refuses_nan():
    # NaN compares False with every bound, so each check is written to fail on it
    with pytest.raises(ValueError, match="NaN probability"):
        evolution.as_distribution([math.nan, 1.0])


def test_as_state_refuses_nan():
    with pytest.raises(ValueError, match="state norm nan is not 1"):
        evolution.as_state([math.nan, 1.0])
    with pytest.raises(ValueError, match="state norm nan is not 1"):
        limiting_distribution(HermitianOperator.from_graph(generate_path(2)), [math.nan, 1.0])

