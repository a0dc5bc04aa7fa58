"""Centrality, spatial search, and isomorphism certificates."""

import math

import numpy as np
import pytest

from qwalk import (
    BOSON,
    brute_force_isomorphic,
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
    permute_graph,
    qw_centrality,
    spatial_search,
)
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


def test_qw_centrality_dimension_budget():
    with pytest.raises(ValueError):
        qw_centrality(generate_cycle(30))  # extended dim 465 > 300


# -- spatial search ------------------------------------------------------


def test_search_two_level():
    g = generate_path(2)
    res = spatial_search(g, marked=[1], start=[0], horizon=5.0)
    assert res.success > 0.9


def test_search_empty_marked_rejected():
    with pytest.raises(ValueError):
        spatial_search(generate_cycle(5), marked=[])


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


def test_gi_never_flags_true_isomorphs():
    # cross-validated against the exhaustive oracle on small graphs
    rng = np.random.default_rng(5)
    for k in range(20):
        g = generate_erdos_renyi(7, 0.45, seed=100 + k)
        gp = permute_graph(g, list(rng.permutation(7)))
        assert brute_force_isomorphic(g, gp)
        verdict, _ = gi_test(g, gp)
        assert verdict == "consistent-with-isomorphic"
