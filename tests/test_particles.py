"""Exchange symmetry, extended graphs, and two-particle correlations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    BOSON,
    DISTINGUISHABLE,
    FERMION,
    ExtendedBasis,
    Graph,
    HermitianOperator,
    ParticleKind,
    build_extended_hamiltonian,
    correlation_via_extended_walk,
    extended_graph,
    generate_cycle,
    generate_erdos_renyi,
    generate_glued_tree,
    generate_path,
    phased,
    two_particle_correlation,
)
from qwalk.evolution import as_distribution


def _coupler():
    """50:50 two-mode balanced coupler."""
    return np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)


# -- ParticleKind --------------------------------------------------------


def test_parse_kinds():
    assert ParticleKind.parse("boson") == BOSON
    assert ParticleKind.parse("fermion") == FERMION
    assert ParticleKind.parse("distinguishable") == DISTINGUISHABLE
    k = ParticleKind.parse("phase:1.5")
    assert k.tag == "phased" and math.isclose(k.phase, 1.5)
    with pytest.raises(ValueError):
        ParticleKind.parse("anyon")


def test_phase_range_enforced():
    with pytest.raises(ValueError):
        ParticleKind("phased", phase=7.0)
    assert math.isclose(phased(2 * math.pi + 0.5).phase, 0.5)


def test_exchange_phase_values():
    assert BOSON.exchange_phase == 1
    assert FERMION.exchange_phase == -1
    assert np.isclose(phased(math.pi).exchange_phase, -1)
    with pytest.raises(ValueError):
        _ = DISTINGUISHABLE.exchange_phase


# -- basis dimensions ----------------------------------------------------


@pytest.mark.parametrize("n", range(2, 21))
def test_basis_dimensions(n):
    assert len(ExtendedBasis(n, DISTINGUISHABLE)) == n * n
    assert len(ExtendedBasis(n, BOSON)) == math.comb(n + 1, 2)
    assert len(ExtendedBasis(n, FERMION)) == math.comb(n, 2)


def test_basis_index_bijection():
    basis = ExtendedBasis(5, BOSON)
    for k, (i, j) in enumerate(basis.states):
        assert basis.index(i, j) == k
        assert basis.index(j, i) == k
    with pytest.raises(KeyError):
        ExtendedBasis(5, FERMION).index(2, 2)


# -- extended Hamiltonians ----------------------------------------------


def test_k2_boson_extension():
    basis, h = build_extended_hamiltonian(generate_path(2), BOSON)
    a = np.real(h.entries)
    i00, i01, i11 = basis.index(0, 0), basis.index(0, 1), basis.index(1, 1)
    assert math.isclose(a[i00, i01], math.sqrt(2))
    assert math.isclose(a[i11, i01], math.sqrt(2))
    assert a[i00, i11] == 0
    assert np.allclose(np.diag(a), 0)


def test_k2_fermion_extension_is_zero():
    _, h = build_extended_hamiltonian(generate_path(2), FERMION)
    assert h.dim == 1
    assert np.allclose(h.entries, 0)


def test_glued_tree_boson_dimension():
    basis, _ = build_extended_hamiltonian(generate_glued_tree(5), BOSON)
    assert len(basis) == 105


def test_boson_weights_limited_set():
    _, h = build_extended_hamiltonian(generate_cycle(5), BOSON)
    vals = np.unique(np.round(np.abs(np.real(h.entries)), 9))
    assert set(vals.tolist()) <= {0.0, 1.0, round(math.sqrt(2), 9)}


def test_phased_extension_rejected():
    with pytest.raises(ValueError):
        build_extended_hamiltonian(generate_path(3), phased(0.4))


def test_distinguishable_extension_is_cartesian_square():
    g = generate_cycle(4)
    _, h = build_extended_hamiltonian(g, DISTINGUISHABLE)
    a = g.adjacency()
    assert np.allclose(np.real(h.entries),
                       np.kron(a, np.eye(4)) + np.kron(np.eye(4), a))


def test_extended_graph_helper_matches_operator():
    g = generate_path(3)
    basis, eg = extended_graph(g, BOSON)
    _, h = build_extended_hamiltonian(g, BOSON)
    assert np.allclose(eg.adjacency(), np.real(h.entries))
    assert eg.n == len(basis)


def _dense_extended(g, kind):
    """Oracle: S (A(x)I + I(x)A) S^T with the (anti)symmetrizing isometry S."""
    n = g.n
    basis = ExtendedBasis(n, kind)
    s = np.zeros((len(basis), n * n))
    for row, (i, j) in enumerate(basis.states):
        if kind.tag == "distinguishable" or i == j:
            s[row, i * n + j] = 1.0
        else:
            s[row, i * n + j] = 1.0 / math.sqrt(2)
            s[row, j * n + i] = (-1.0 if kind.tag == "fermion" else 1.0) / math.sqrt(2)
    a = g.adjacency()
    return s @ (np.kron(a, np.eye(n)) + np.kron(np.eye(n), a)) @ s.T


@st.composite
def _weighted_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(chosen),
                            max_size=len(chosen)))
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


@given(g=_weighted_graphs(), tag=st.sampled_from(["distinguishable", "boson", "fermion"]))
@settings(max_examples=60, deadline=None)
def test_edge_built_extension_matches_dense_oracle(g, tag):
    kind = ParticleKind(tag)
    basis, h = build_extended_hamiltonian(g, kind)
    assert h.entries.dtype == np.float64
    assert h.dim == len(basis)
    assert np.abs(h.entries - _dense_extended(g, kind)).max() <= 1e-12


# -- correlations --------------------------------------------------------


def test_identity_unitary_keeps_inputs():
    basis, p = two_particle_correlation(np.eye(4), (0, 1), BOSON)
    assert np.isclose(p[basis.index(0, 1)], 1.0)


def test_hong_ou_mandel_suppression():
    basis, p = two_particle_correlation(_coupler(), (0, 1), BOSON)
    assert np.isclose(p[basis.index(0, 0)], 0.5)
    assert np.isclose(p[basis.index(1, 1)], 0.5)
    assert np.isclose(p[basis.index(0, 1)], 0.0)


def test_fermion_antibunching():
    basis, p = two_particle_correlation(_coupler(), (0, 1), FERMION)
    assert np.isclose(p[basis.index(0, 1)], 1.0)


def test_phased_interpolates_boson_fermion():
    u = HermitianOperator.from_graph(generate_cycle(5)).propagator(1.1)
    _, pb = two_particle_correlation(u, (0, 2), BOSON)
    _, pb2 = two_particle_correlation(u, (0, 2), phased(0.0))
    assert np.abs(pb - pb2).max() < 1e-12
    _, pf = two_particle_correlation(u, (0, 2), FERMION)
    _, pf2 = two_particle_correlation(u, (0, 2), phased(math.pi))
    # phased keeps the bosonic basis; compare on the off-diagonal states
    basis_b = ExtendedBasis(5, BOSON)
    basis_f = ExtendedBasis(5, FERMION)
    for i, j in basis_f.states:
        assert math.isclose(pf[basis_f.index(i, j)], pf2[basis_b.index(i, j)],
                            abs_tol=1e-12)


def test_boson_input_swap_invariance():
    u = HermitianOperator.from_graph(generate_erdos_renyi(6, 0.5, seed=1)).propagator(0.8)
    _, p1 = two_particle_correlation(u, (1, 4), BOSON)
    _, p2 = two_particle_correlation(u, (4, 1), BOSON)
    assert np.abs(p1 - p2).max() < 1e-12


def test_correlation_validation():
    with pytest.raises(ValueError):
        two_particle_correlation(np.ones((2, 2)), (0, 1), BOSON)  # not unitary
    with pytest.raises(ValueError):
        two_particle_correlation(np.eye(3), (1, 1), FERMION)  # double occupation
    with pytest.raises(ValueError):
        two_particle_correlation(np.eye(3), (0, 5), BOSON)  # out of range


def test_correlations_sum_to_one():
    u = HermitianOperator.from_graph(generate_cycle(6)).propagator(2.3)
    for kind in (DISTINGUISHABLE, BOSON, FERMION, phased(1.2)):
        for inputs in ((0, 3), (2, 2)):
            if kind.tag == "fermion" and inputs[0] == inputs[1]:
                continue
            _, p = two_particle_correlation(u, inputs, kind)
            assert abs(p.sum() - 1.0) < 1e-9


def _loop_correlation(u, inputs, kind):
    """Oracle: the per-state loop with one branch per kind that the
    vectorized pair rule replaced, over an itertools-built basis.
    Returns the basis states and their probabilities."""
    n = u.shape[0]
    a, b = inputs
    if kind.tag == "distinguishable":
        states = list(itertools.product(range(n), repeat=2))
        p = np.abs(u[:, a][:, None] * u[:, b][None, :]) ** 2
        return states, as_distribution(p.ravel())
    if kind.tag == "fermion":
        states = list(itertools.combinations(range(n), 2))
    else:
        states = list(itertools.combinations_with_replacement(range(n), 2))
    if kind.tag == "fermion" and a == b:
        raise ValueError("fermions cannot doubly occupy an input mode")
    xp = kind.exchange_phase
    input_norm = abs(1 + xp) ** 2 / 2.0 if a == b else 1.0
    if a == b and input_norm < 1e-12:
        raise ValueError("no two-particle state with this exchange phase "
                         "occupies a single mode")
    probs = np.empty(len(states))
    for row, (i, j) in enumerate(states):
        amp_ij = u[i, a] * u[j, b] + xp * u[i, b] * u[j, a]
        if i == j:
            probs[row] = abs(amp_ij) ** 2 / 2.0
        else:
            amp_ji = u[j, a] * u[i, b] + xp * u[j, b] * u[i, a]
            probs[row] = (abs(amp_ij) ** 2 + abs(amp_ji) ** 2) / 2.0
        probs[row] /= input_norm
    return states, as_distribution(probs)


@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       tag=st.sampled_from(["distinguishable", "boson", "fermion", "phased"]),
       phase=st.floats(0.0, 2 * math.pi, exclude_max=True),
       a=st.integers(0, 6), shift=st.integers(0, 6), same=st.booleans())
@settings(max_examples=200, deadline=None)
def test_pair_rule_matches_per_state_loop(n, seed, tag, phase, a, shift, same):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = HermitianOperator((x + x.conj().T) / 2).propagator(1.0)
    kind = phased(phase) if tag == "phased" else ParticleKind(tag)
    a %= n
    b = a if same else (a + 1 + shift % (n - 1)) % n
    try:
        states, expected = _loop_correlation(u, (a, b), kind)
    except ValueError:
        with pytest.raises(ValueError):
            two_particle_correlation(u, (a, b), kind)
        return
    basis, p = two_particle_correlation(u, (a, b), kind)
    assert basis.states == states
    # both divide by the input norm N^2, which amplifies roundoff by 1 / N^2
    # for a doubly occupied mode near the fermionic phase
    norm2 = 1.0 if tag == "distinguishable" else abs(1 + kind.exchange_phase) ** 2
    tol = 1e-12 / min(norm2, 1.0) if a == b else 1e-12
    assert np.abs(p - expected).max() <= tol


# -- extended-walk equivalence ------------------------------------------


def test_extended_walk_t0_point_mass():
    basis, p = correlation_via_extended_walk(generate_path(4), BOSON, (1, 2), 0.0)
    assert np.isclose(p[basis.index(1, 2)], 1.0)


def test_equivalence_cycle4_boson():
    g = generate_cycle(4)
    u = HermitianOperator.from_graph(g).propagator(1.3)
    _, p_direct = two_particle_correlation(u, (0, 2), BOSON)
    _, p_walk = correlation_via_extended_walk(g, BOSON, (0, 2), 1.3)
    assert np.abs(p_direct - p_walk).max() < 1e-10


def test_equivalence_path3_fermion():
    g = generate_path(3)
    u = HermitianOperator.from_graph(g).propagator(0.7)
    _, p_direct = two_particle_correlation(u, (0, 1), FERMION)
    _, p_walk = correlation_via_extended_walk(g, FERMION, (0, 1), 0.7)
    assert np.abs(p_direct - p_walk).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
       st.sampled_from(["distinguishable", "boson", "fermion"]))
def test_equivalence_random(seed, t, tag):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    g = generate_erdos_renyi(n, 0.5, seed=seed % 10_000)
    kind = ParticleKind(tag)
    a, b = (int(x) for x in rng.choice(n, size=2, replace=tag != "fermion"))
    if tag == "fermion" and a == b:
        b = (a + 1) % n
    u = HermitianOperator.from_graph(g).propagator(t)
    _, p_direct = two_particle_correlation(u, (a, b), kind)
    _, p_walk = correlation_via_extended_walk(g, kind, (a, b), t)
    assert np.abs(p_direct - p_walk).max() < 1e-10
