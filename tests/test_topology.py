"""SSH2D / BBH lattices and the chiral displacement probes."""

import math

import numpy as np
import pytest

from qwalk import amcd, amcqm, build_topo_model


def test_build_validation():
    with pytest.raises(ValueError):
        build_topo_model("kagome", 4, 4, 0.1, 1.0)
    with pytest.raises(ValueError):
        build_topo_model("ssh2d", 1, 4, 0.1, 1.0)


def _refuse_large_zeros(monkeypatch):
    """Make np.zeros fail on more than 2**26 values instead of allocating them."""
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 2**26:
            raise AssertionError(f"np.zeros asked for {shape}")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded)


def test_build_refuses_an_oversized_lattice_before_allocating(monkeypatch):
    # 1025 x 2 cells have 8,200 sites: 6.7e7 dense values, over 2**26
    _refuse_large_zeros(monkeypatch)
    with pytest.raises(ValueError, match="dense adjacency of 8200 vertices"):
        build_topo_model("ssh2d", 1025, 2, 1.0, 1.0)


def test_chiral_anticommutation_both_flavors():
    for flavor in ("ssh2d", "bbh"):
        model = build_topo_model(flavor, 4, 4, 0.3, 0.9)
        h = np.real(model.hamiltonian.entries)
        gamma = np.diag(model.chiral)
        assert np.abs(gamma @ h @ gamma + h).max() < 1e-9


def test_decoupled_cells_block_spectrum():
    # w = 0 leaves nx * ny identical isolated cells
    model = build_topo_model("ssh2d", 3, 3, 0.7, 0.0)
    w_full = np.linalg.eigvalsh(np.real(model.hamiltonian.entries))
    cell = np.real(model.hamiltonian.entries)[:4, :4]
    w_cell = np.linalg.eigvalsh(cell)
    assert np.allclose(w_full, np.sort(np.tile(w_cell, 9)), atol=1e-9)


def test_bbh_corner_modes():
    model = build_topo_model("bbh", 5, 5, 0.1, 1.0)
    w, v = model.hamiltonian.spectral_decompose()
    in_gap = np.abs(w) < 0.2
    assert in_gap.sum() == 4
    # each in-gap mode concentrates on the lattice corners
    n = model.n_sites
    corners = {model.site_index(0, 0, 0), model.site_index(model.nx - 1, 0, 1),
               model.site_index(0, model.ny - 1, 2),
               model.site_index(model.nx - 1, model.ny - 1, 3)}
    corner_mass = sum(
        float(np.abs(v[sorted(corners), k]) ** 2 @ np.ones(4))
        for k in np.flatnonzero(in_gap)
    )
    assert corner_mass > 3.0  # out of a maximum of 4


def test_amcd_short_time_zero():
    model = build_topo_model("ssh2d", 6, 6, 0.1, 1.0)
    assert abs(amcd(model, "y", t_final=1e-6, steps=1)) < 1e-6


def test_amcd_phases():
    topo = build_topo_model("ssh2d", 6, 6, 0.1, 1.0)
    triv = build_topo_model("ssh2d", 6, 6, 1.0, 0.1)
    assert abs(amcd(topo, "y") - 0.5) < 0.05
    assert abs(amcd(triv, "y")) < 0.05
    # both lattice directions wind in the topological phase
    assert abs(amcd(topo, "x") - 0.5) < 0.05
    with pytest.raises(ValueError):
        amcd(topo, "z")


def test_amcqm_requires_bbh():
    model = build_topo_model("ssh2d", 4, 4, 0.1, 1.0)
    with pytest.raises(ValueError):
        amcqm(model)


def test_amcqm_rejects_shared_site():
    model = build_topo_model("bbh", 4, 4, 0.1, 1.0)
    with pytest.raises(ValueError):
        amcqm(model, initial_sites=(3, 3))


@pytest.mark.parametrize("sites", [(-1, 143), (0, 144)], ids=["negative", "past-the-end"])
def test_amcqm_refuses_sites_outside_the_lattice(sites):
    # 6 x 6 cells have 144 sites; -1 would count from the end and land on 143
    model = build_topo_model("bbh", 6, 6, 0.1, 1.0)
    with pytest.raises(ValueError, match=r"must lie in 0\.\.143"):
        amcqm(model, initial_sites=sites)


def test_amcqm_dimerized_limit():
    # v = 0 decouples the intercell plaquettes; the time average of the
    # resulting two-site oscillations is exactly 1/2
    model = build_topo_model("bbh", 4, 4, 0.0, 1.0)
    assert abs(amcqm(model, t_final=200.0, steps=4000) - 0.5) < 0.01


def test_amcqm_phases():
    topo = build_topo_model("bbh", 6, 6, 0.1, 1.0)
    triv = build_topo_model("bbh", 6, 6, 1.0, 0.1)
    assert abs(amcqm(topo) - 0.5) < 0.05
    assert abs(amcqm(triv)) < 0.05


def test_amcqm_matches_fermion_pair_walk():
    # cross-check the Slater-determinant reduction against an explicit
    # two-fermion walk on the antisymmetric extended space
    from itertools import combinations

    model = build_topo_model("bbh", 2, 2, 0.4, 1.0)
    n = model.n_sites
    h1 = np.real(model.hamiltonian.entries)
    pairs = list(combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    h2 = np.zeros((len(pairs), len(pairs)))
    for (i, j), row in index.items():
        for (k, l), col in index.items():
            amp = 0.0
            if i == k:
                amp += h1[j, l]
            if j == l:
                amp += h1[i, k]
            if i == l:
                amp -= h1[j, k]
            if j == k:
                amp -= h1[i, l]
            h2[row, col] = amp
    cx, cy = model.central_cell()
    s1 = model.site_index(cx, cy, 3)
    s2 = model.site_index(cx + 1, cy + 1, 0)
    lo, hi = min(s1, s2), max(s1, s2)
    psi0 = np.zeros(len(pairs), dtype=complex)
    psi0[index[(lo, hi)]] = 1.0
    a = model.chiral_x * model.m_x
    b = model.chiral_y * model.m_y
    op = np.zeros(len(pairs))
    for (i, j), row in index.items():
        op[row] = a[i] * b[j] + a[j] * b[i]
    from qwalk import HermitianOperator

    hop = HermitianOperator(h2)
    times = np.linspace(10.0 / 50, 10.0, 50)
    states = hop.evolve_many(psi0, times)
    # op already sums both orderings (i, j) and (j, i), so no extra factor
    vals_ext = (op[:, None] * np.abs(states) ** 2).sum(axis=0)
    direct = amcqm(model, t_final=10.0, steps=50)
    assert abs(direct - float(vals_ext.mean())) < 1e-9
