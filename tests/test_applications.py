"""Centrality, spatial search, and isomorphism certificates."""

import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwalk import (
    BOSON,
    DISTINGUISHABLE,
    FERMION,
    ExtendedBasis,
    HermitianOperator,
    brute_force_isomorphic,
    cartesian_power,
    eigenvector_centrality,
    extended_graph,
    generate_complete,
    generate_cycle,
    generate_erdos_renyi,
    generate_path,
    generate_scale_free,
    generate_star,
    gi_test,
    graph_certificate,
    limiting_distribution,
    permute_graph,
    phased,
    qw_centrality,
    spatial_search,
    time_average_distribution,
    uniform_state,
)
from qwalk import applications
from qwalk.applications import _refined_peak, _search_peak
from qwalk.evolution import _series, _series_peak
from qwalk.graphs import Graph


# -- centrality ----------------------------------------------------------


def test_eigenvector_centrality_complete_uniform():
    scores = eigenvector_centrality(generate_complete(5))
    assert np.allclose(scores, scores[0])


def test_eigenvector_centrality_star_hub():
    scores = eigenvector_centrality(generate_star(5))
    assert scores[0] > scores[1:].max()


def test_eigenvector_centrality_path3():
    scores = eigenvector_centrality(generate_path(3))
    assert np.allclose(scores, [0.5, 1 / math.sqrt(2), 0.5])


def test_eigenvector_centrality_rejects_disconnected():
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError):
        eigenvector_centrality(g)


def test_qw_centrality_rejects_disconnected_base():
    with pytest.raises(ValueError, match="connected"):
        qw_centrality(Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]))


def test_qw_centrality_scale_free():
    rep = qw_centrality(generate_scale_free(10, 2, seed=7))
    assert 0.9 < rep.similarity <= 1.0
    assert len(set(rep.qw_ranking[:3]) & set(rep.ev_ranking[:3])) >= 2
    assert len(rep.qw_scores) == 55


@pytest.mark.parametrize("base", [generate_cycle(6), generate_path(5)], ids=["cycle6", "path5"])
def test_qw_centrality_ties_rank_by_index(base):
    # symmetric extended vertices score equal up to roundoff; their order
    # must come from the vertex index, not from the roundoff
    rep = qw_centrality(base)
    for scores, ranking in ((rep.qw_scores, rep.qw_ranking), (rep.ev_scores, rep.ev_ranking)):
        assert sorted(ranking) == list(range(len(scores)))
        tied = 0
        for a, b in zip(ranking, ranking[1:]):
            if abs(scores[a] - scores[b]) <= 1e-12:
                assert a < b
                tied += 1
            else:
                assert scores[a] > scores[b]
        assert tied > 0


def test_qw_centrality_horizon_convergence():
    base = generate_scale_free(8, 2, seed=3)
    r500 = qw_centrality(base, use_limiting=False, t_final=500.0, steps=2000)
    r1000 = qw_centrality(base, use_limiting=False, t_final=1000.0, steps=4000)
    assert 0.5 * np.abs(r500.qw_scores - r1000.qw_scores).sum() < 1e-2


def test_qw_centrality_cycle30_matches_dense_route():
    # 465 extended states
    base = generate_cycle(30)
    _, ext = extended_graph(base, BOSON)
    dense = HermitianOperator.from_graph(ext)
    psi0 = uniform_state(ext.n)
    ev_scores = eigenvector_centrality(ext)
    for limiting, qw_scores in ((True, limiting_distribution(dense, psi0)),
                                (False, time_average_distribution(dense, psi0, 1000.0, 1000))):
        rep = qw_centrality(base, use_limiting=limiting)
        assert np.abs(rep.qw_scores - qw_scores).max() <= 1e-10
        assert np.abs(rep.ev_scores - ev_scores).max() <= 1e-10


@pytest.mark.parametrize("kind", [FERMION, phased(0.4)], ids=["fermion", "phased"])
def test_qw_centrality_refuses_kinds_without_perron_vector(kind, monkeypatch):
    monkeypatch.setattr("qwalk.applications.build_extended_hamiltonian", None)  # nothing built
    with pytest.raises(ValueError, match=f"boson or distinguishable pairs; a {kind.tag} "):
        qw_centrality(generate_cycle(5), kind)


def test_qw_centrality_distinguishable_perron_is_cartesian_square():
    base = generate_cycle(5)
    rep = qw_centrality(base, DISTINGUISHABLE)
    assert np.abs(rep.ev_scores - eigenvector_centrality(cartesian_power(base))).max() <= 1e-10


def test_extended_readouts_factor_only_the_base_graph(eigh_calls):
    base = generate_erdos_renyi(9, 0.4, seed=8)
    qw_centrality(base)
    graph_certificate(base)
    assert eigh_calls == [(9, 9), (9, 9)]


# -- spatial search ------------------------------------------------------


def test_search_two_level():
    g = generate_path(2)
    res = spatial_search(g, marked=[1], start=[0], horizon=5.0)
    assert res.success > 0.9


@pytest.mark.parametrize("horizon", [0.0, -1.0])
def test_search_rejects_nonpositive_horizon(horizon):
    with pytest.raises(ValueError, match=f"horizon must be positive, got {horizon}"):
        spatial_search(generate_cycle(5), marked=[1], horizon=horizon)


def test_search_empty_marked_rejected():
    with pytest.raises(ValueError):
        spatial_search(generate_cycle(5), marked=[])


def test_search_rejects_infinite_horizon():
    with pytest.raises(ValueError, match="horizon must be finite, got inf"):
        spatial_search(generate_cycle(5), marked=[1], horizon=math.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.5, 1e300])
def test_search_refuses_oversized_time_grid_before_allocating(scale, monkeypatch):
    # horizons whose bandwidth grid holds 1.5 times the 2**26-value limit, and
    # one whose point count overflows to inf
    def no_grid(*args, **kwargs):
        raise AssertionError("the oversized grid reached the peak finder")

    monkeypatch.setattr(applications, "_series_peak", no_grid)
    h = generate_cycle(5).adjacency().copy()
    h[1, 1] += 1.0
    w = np.linalg.eigvalsh(h)
    horizon = scale * 2**26 / 5 * 2 * math.pi / (8 * (w[-1] - w[0]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"on 5 states .* over the limit of 2\*\*26"):
            spatial_search(generate_cycle(5), marked=[1], gamma_strategy=1.0, horizon=horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_search_auto_gamma_refuses_edgeless_graph():
    with pytest.raises(ValueError, match=r"auto gamma needs an edge \(lambda_max > 0\)"):
        spatial_search(Graph.from_edges(3, []), [1])


def test_search_fixed_gamma_skips_lambda_max(monkeypatch):
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("a fixed gamma needs no lambda_max")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    res = spatial_search(Graph.from_edges(3, []), [1], gamma_strategy=0.5)
    assert res.gamma == 0.5
    assert math.isclose(res.success, 1 / 3, abs_tol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
def test_search_refuses_non_finite_gamma_without_warning(gamma):
    with pytest.raises(ValueError, match=f"gamma must be finite, got {gamma}"):
        spatial_search(generate_cycle(5), marked=[1], gamma_strategy=gamma)


@pytest.mark.parametrize("marked, start", [([-1], None), ([5], None), ([1], [-1]), ([1], [0, 5])])
def test_search_rejects_vertices_outside_graph(marked, start):
    with pytest.raises(ValueError, match="0..4"):
        spatial_search(generate_cycle(5), marked, start=start, gamma_strategy=0.3)


def test_search_relabeling_invariance():
    base = generate_erdos_renyi(8, 0.4, seed=2)
    res = spatial_search(base, marked=[1, 5], gamma_strategy=0.3)
    perm = list(np.random.default_rng(0).permutation(8))
    resp = spatial_search(permute_graph(base, perm),
                          marked=[perm[1], perm[5]], gamma_strategy=0.3)
    assert abs(res.success - resp.success) < 1e-9
    assert abs(res.t_opt - resp.t_opt) < 1e-6


def test_search_extended_er_instance():
    base = generate_erdos_renyi(10, 0.25, seed=11)
    _, ext = extended_graph(base, BOSON)
    rng = np.random.default_rng(11)
    marked = sorted(int(x) for x in rng.choice(ext.n, size=3, replace=False))
    res = spatial_search(ext, marked)
    assert 0 <= res.success <= 1
    assert res.t_opt <= math.sqrt(ext.n) + 1e-9
    assert res.success > res.t_opt * 0  # sanity: well-defined numbers


def _golden_section_search(g, marked):
    """The gamma tuner spatial_search had before it shared _refined_peak with
    the t_opt refinement, kept as the reference: the same 25-point scan, then
    golden-section refinement between the best point's grid neighbours to a
    1e-3 relative width, falling back to the best grid point when the refined
    gamma does worse. Returns the tuned gamma, its peak success and the grid
    maximum."""
    n = g.n
    a = g.adjacency()
    oracle = np.zeros((n, n))
    for m in marked:
        oracle[m, m] = 1.0
    psi0 = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    lam_max = float(np.linalg.eigvalsh(a).max())

    def peak_for(gamma):
        return _search_peak(HermitianOperator(gamma * a + oracle), psi0, marked, math.sqrt(n))

    grid = np.linspace(0.01 / lam_max, 2.0 / lam_max, 25)
    heights = [peak_for(gv)[1] for gv in grid]
    k = int(np.argmax(heights))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc = peak_for(c)[1]
    fd = peak_for(d)[1]
    while (hi - lo) / max(hi, 1e-12) > 1e-3:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = peak_for(c)[1]
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = peak_for(d)[1]
    gamma = (lo + hi) / 2.0
    if peak_for(gamma)[1] < heights[k]:
        gamma = float(grid[k])
    return gamma, peak_for(gamma)[1], max(heights)


@pytest.mark.parametrize("seed", range(20))
def test_search_tuner_matches_golden_section_reference(seed):
    # boson-extended G(n, 0.25), n = 5..8, three marked extended vertices
    _, ext = extended_graph(generate_erdos_renyi(5 + seed % 4, 0.25, seed=seed), BOSON)
    rng = np.random.default_rng(seed)
    marked = sorted(int(x) for x in rng.choice(ext.n, size=3, replace=False))
    ref_gamma, ref_success, grid_max = _golden_section_search(ext, marked)
    res = spatial_search(ext, marked)
    assert res.success >= ref_success - 1e-12
    assert abs(res.gamma - ref_gamma) <= 1e-3 * ref_gamma
    assert res.success >= grid_max


def _search_peak_600(h, psi0, marked, horizon):
    """The search peak finder spatial_search had before its time grid was sized
    to the spectrum's bandwidth, kept as the reference: the same readout and
    Brent refinement on a fixed 600-point grid over [0, horizon]."""
    w, v = h.spectral_decompose()
    vm, coeff = v[marked, :], v.conj().T @ psi0

    def success(t):
        return (np.abs(_series(w, vm, coeff, t, -1j)) ** 2).sum(axis=0)

    return _refined_peak(success, np.linspace(0.0, horizon, 600))[:2]


def _er_search_instance(seed):
    """Boson-extended G(n, 0.25), n = 5..10, and three marked extended vertices."""
    _, ext = extended_graph(generate_erdos_renyi(5 + seed % 6, 0.25, seed=seed), BOSON)
    rng = np.random.default_rng(seed)
    return ext, sorted(int(x) for x in rng.choice(ext.n, size=3, replace=False))


@pytest.mark.parametrize("seed", range(20))
def test_search_bandwidth_grid_matches_600_point_reference(seed, monkeypatch):
    ext, marked = _er_search_instance(seed)
    n = ext.n
    a = ext.adjacency()
    oracle = np.zeros((n, n))
    oracle[marked, marked] = 1.0
    psi0 = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    gamma = 1.0 / float(np.linalg.eigvalsh(a)[-1])
    h = HermitianOperator(gamma * a + oracle)
    # at sqrt(n) most peaks sit on the horizon; 8 sqrt(n) spans several
    # shortest periods and puts 19 of the 20 peaks inside, where the grid
    # must find them
    for horizon in (math.sqrt(n), 8 * math.sqrt(n)):
        t_opt, success = _search_peak(h, psi0, marked, horizon)
        ref_t, ref_success = _search_peak_600(h, psi0, marked, horizon)
        assert success >= ref_success - 1e-12
        assert abs(t_opt - ref_t) <= 1e-6

    res = spatial_search(ext, marked)
    monkeypatch.setattr(applications, "_search_peak", _search_peak_600)
    ref = spatial_search(ext, marked)
    assert abs(res.gamma - ref.gamma) <= 1e-6 * ref.gamma
    assert res.success >= ref.success - 1e-12


def _search_grid(monkeypatch, g, marked, gamma, horizon):
    """The search result at a fixed gamma and the time grid it was read from."""
    grids = []

    def spy(w, rows, times, rate):
        grids.append(times)
        return _series_peak(w, rows, times, rate)

    monkeypatch.setattr(applications, "_series_peak", spy)
    res = spatial_search(g, marked, gamma_strategy=gamma, horizon=horizon)
    (times,) = grids
    return res, times


def test_search_grid_resolves_the_bandwidth(monkeypatch):
    g, horizon = generate_complete(12), 40.0
    _, times = _search_grid(monkeypatch, g, [3], 1.0, horizon)
    h = g.adjacency().copy()
    h[3, 3] += 1.0
    w = np.linalg.eigvalsh(h)
    assert times[0] == 0.0 and times[-1] == horizon
    assert np.allclose(np.diff(times), times[1])
    assert len(times) > 32
    assert times[1] <= 2 * math.pi / (w[-1] - w[0]) / 8


def test_search_grid_floor_and_flat_spectrum(monkeypatch):
    # H = I on two isolated marked vertices: bandwidth 0, success 1 throughout
    res, times = _search_grid(monkeypatch, Graph.from_edges(2, []), [0, 1], 0.3, math.sqrt(2))
    assert len(times) == 32
    assert times[-1] == math.sqrt(2)
    assert math.isclose(res.success, 1.0, abs_tol=1e-12)


def _brent_series_peak(w, rows, times, rate):
    """The time refinement _search_peak had before Newton, kept as the
    reference: bounded Brent through _refined_peak between the grid
    neighbours of the argmax."""
    return _refined_peak(lambda t: (np.abs(_series(w, rows, None, t, rate)) ** 2).sum(axis=0),
                         times)[:2]


def _readout_slope_and_curvature(w, rows, t):
    """S'(t) and S''(t) of S = sum |rows @ exp(-i w t)|^2, each amplitude
    derivative read as its own series."""
    a, a1, a2 = (_series(w, r, None, np.array([t]), -1j)[:, 0]
                 for r in (rows, -1j * w * rows, -(w * w) * rows))
    return 2 * np.vdot(a, a1).real, 2 * (np.vdot(a1, a1).real + np.vdot(a, a2).real)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 9),
       fraction=st.floats(0.0, 1.0, exclude_min=True))
def test_search_newton_peak_matches_brent_reference(seed, n, fraction):
    # boson-extended G(n, 0.25), three marked vertices, gamma in (0, 2 / lambda_max]
    _, ext = extended_graph(generate_erdos_renyi(n, 0.25, seed=seed), BOSON)
    a = ext.adjacency()
    lam_max = float(np.linalg.eigvalsh(a)[-1])
    assume(lam_max > 0)
    marked = sorted(int(x) for x in np.random.default_rng(seed).choice(ext.n, 3, replace=False))
    oracle = np.zeros((ext.n, ext.n))
    oracle[marked, marked] = 1.0
    h = HermitianOperator(2 * fraction / lam_max * a + oracle)
    psi0 = np.full(ext.n, 1.0 / np.sqrt(ext.n), dtype=complex)
    for horizon in (math.sqrt(ext.n), 8 * math.sqrt(ext.n)):
        grids = []
        with patch.object(applications, "_series_peak",
                          lambda *args: grids.append(args) or _series_peak(*args)):
            t_opt, success = _search_peak(h, psi0, marked, horizon)
        ref_t, ref_success = _brent_series_peak(*grids[0])
        assert success >= ref_success - 1e-12
        slope, curvature = _readout_slope_and_curvature(*grids[0][:2], t_opt)
        # an interior peak; a readout flat to roundoff (gamma near 0) has none to place
        if 0 < ref_t < horizon and curvature < 0:
            # Newton's t is within 1e-8 of the stationary point, or S' is at
            # roundoff there. Brent stops within 2 sqrt(eps) t of it, and
            # compares values, which are flat to roundoff within
            # sqrt(eps S / |S''|) of it, so it places t no closer than those
            assert abs(slope) <= 1e-8 * -curvature + 1e-13
            eps = np.finfo(float).eps
            brent_resolution = 2 * math.sqrt(eps) * ref_t + 4 * math.sqrt(eps * success / -curvature)
            assert abs(t_opt - ref_t) <= 1e-8 + brent_resolution


@pytest.mark.parametrize("start, horizon, t_opt, on_edge", [
    ([1], 3.0, 0.0, True), ([0], 1.0, 1.0, True), ([0], 5.0, math.pi / math.sqrt(2), False),
], ids=["start", "horizon", "interior"])
def test_search_flags_a_peak_on_the_window_edge(start, horizon, t_opt, on_edge):
    # H = [[0, 1/2], [1/2, 1]]: from |1> the marked probability falls from 1;
    # from |0> it is sin^2(t / sqrt 2) / 2, rising until t = pi / sqrt 2
    res = spatial_search(generate_path(2), marked=[1], start=start, gamma_strategy=0.5,
                         horizon=horizon)
    assert math.isclose(res.t_opt, t_opt, abs_tol=1e-9)
    assert res.peak_at_boundary is on_edge
    expected = 1.0 if t_opt == 0 else 0.5 * math.sin(t_opt / math.sqrt(2)) ** 2
    assert math.isclose(res.success, expected, abs_tol=1e-12)


@pytest.mark.filterwarnings("error")
def test_search_flat_readout_returns_the_grid_value(monkeypatch):
    # an edgeless graph at a fixed gamma: the marked probability is 1/3 throughout
    exp_calls = []
    exp = np.exp

    def counting(*args, **kwargs):
        exp_calls.append(1)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    res, times = _search_grid(monkeypatch, Graph.from_edges(3, []), [1], 0.5, 4.0)
    assert res.t_opt in times
    assert math.isclose(res.success, 1 / 3, abs_tol=1e-15)
    # one exp for the grid and one for the first Newton step, where S' is at roundoff
    assert len(exp_calls) == 2


def test_search_factors_once_per_tuner_evaluation(eigh_calls, monkeypatch):
    gammas = []

    def spy(f, grid):
        return _refined_peak(lambda gs: gammas.extend(gs) or f(gs), grid)

    monkeypatch.setattr(applications, "_refined_peak", spy)
    ext, marked = _er_search_instance(3)
    res = spatial_search(ext, marked)
    assert len(eigh_calls) == len(gammas) > 25
    assert set(eigh_calls) == {(ext.n, ext.n)}
    # the tuned gamma's own evaluation is returned; a fresh one gives the same bits
    eigh_calls.clear()
    fixed = spatial_search(ext, marked, gamma_strategy=res.gamma)
    assert eigh_calls == [(ext.n, ext.n)]
    assert (fixed.t_opt, fixed.success) == (res.t_opt, res.success)


# -- graph certificates --------------------------------------------------


def test_certificate_t0_sorted_initial():
    cert = graph_certificate(generate_path(3), times=[0.0])
    profile = cert.sorted_profiles[0]
    assert np.all(np.diff(profile) <= 0)
    assert math.isclose(profile.sum(), 1.0, abs_tol=1e-12)


def test_certificate_permutation_invariance():
    g = generate_erdos_renyi(9, 0.4, seed=8)
    perm = list(np.random.default_rng(1).permutation(9))
    c1 = graph_certificate(g)
    c2 = graph_certificate(permute_graph(g, perm))
    assert np.abs(c1.sorted_profiles - c2.sorted_profiles).max() < 1e-10


def test_certificate_distinguishes_path_star():
    c1 = graph_certificate(generate_path(4), times=[1.0])
    c2 = graph_certificate(generate_star(4), times=[1.0])
    assert np.abs(c1.sorted_profiles - c2.sorted_profiles).sum() > 0.05


def test_certificate_times_validation():
    with pytest.raises(ValueError):
        graph_certificate(generate_path(3), times=[])
    with pytest.raises(ValueError):
        graph_certificate(generate_path(3), times=[2.0, 1.0])
    with pytest.raises(ValueError, match="times must be finite"):
        graph_certificate(generate_path(3), times=[0.0, float("nan")])


def test_certificate_refuses_a_one_vertex_base_as_extended_basis_does():
    with pytest.raises(ValueError) as basis:
        ExtendedBasis(1, BOSON)
    with pytest.raises(ValueError, match="at least 2 vertices") as refused:
        graph_certificate(Graph.from_edges(1, []))
    assert str(refused.value) == str(basis.value)


def test_certificate_refuses_an_oversized_grid_before_the_eigh(eigh_calls):
    # 210 boson states x 400,000 times is 8.4e7 state-time values, over 2**26
    g = generate_erdos_renyi(20, 0.3, seed=4)
    with pytest.raises(ValueError, match=re.escape("4e+05 points on 210 states has 8.4e+07 "
                                                   "state-time values, over the limit of 2**26")):
        graph_certificate(g, times=np.linspace(0.0, 1.0, 400_000))
    assert eigh_calls == []


def test_certificate_refuses_an_oversized_basis_before_building_it():
    # 5,000 vertices have 12.5 million boson states: 1.25e8 state-time values
    # on the default 10 points; the basis's mode arrays alone would take 200 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("on 12502500 states")):
            graph_certificate(Graph(n=5000, edges=()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_certificate_at_3240_pair_states():
    # 3,240 boson states on G(80, 0.1); the certificate builds no extended matrix
    g = generate_erdos_renyi(80, 0.1, seed=12)
    perm = list(np.random.default_rng(3).permutation(80))
    c1 = graph_certificate(g)
    c2 = graph_certificate(permute_graph(g, perm))
    assert c1.sorted_profiles.shape == (10, 3240)
    assert np.abs(c1.sorted_profiles - c2.sorted_profiles).max() < 1e-10
    assert np.abs(c1.sorted_profiles.sum(axis=1) - 1.0).max() <= 1e-12


# -- gi test -------------------------------------------------------------


def test_gi_unequal_sizes():
    verdict, trace = gi_test(generate_path(3), generate_path(4))
    assert verdict == "non-isomorphic"
    assert len(trace) == 0


def test_gi_isomorphic_pair_consistent():
    g = generate_erdos_renyi(10, 0.4, seed=9)
    perm = list(np.random.default_rng(2).permutation(10))
    verdict, trace = gi_test(g, permute_graph(g, perm))
    assert verdict == "consistent-with-isomorphic"
    assert trace.mean() < 1e-9


def test_gi_flags_path_vs_star():
    verdict, _ = gi_test(generate_path(4), generate_star(4))
    assert verdict == "non-isomorphic"


def test_gi_phased_pair_walk(eigh_calls):
    # fermion and phased starts put the exchange phase on the later vertex of
    # each pair, so a relabelled G(10, 0.4) read "non-isomorphic" (mean trace
    # 0.227 for fermions, 0.192 for phased(3.0)); gi_test refuses them before
    # any eigh, and graph_certificate still takes them
    g = generate_erdos_renyi(10, 0.4, seed=9)
    gp = permute_graph(g, list(np.random.default_rng(2).permutation(10)))
    for kind in (FERMION, phased(0.4), phased(3.0)):
        with pytest.raises(ValueError, match=f"boson or distinguishable pairs; a {kind.tag} "):
            gi_test(g, gp, kind=kind)
    assert eigh_calls == []
    assert graph_certificate(g, phased(0.4)).sorted_profiles.shape == (10, 55)


def test_gi_never_flags_true_isomorphs():
    # cross-validated against the exhaustive oracle on small graphs
    rng = np.random.default_rng(5)
    for k in range(20):
        g = generate_erdos_renyi(7, 0.45, seed=100 + k)
        gp = permute_graph(g, list(rng.permutation(7)))
        assert brute_force_isomorphic(g, gp)
        verdict, _ = gi_test(g, gp)
        assert verdict == "consistent-with-isomorphic"
