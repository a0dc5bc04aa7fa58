"""Graph construction, generators, and relabeling machinery."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    Graph,
    brute_force_isomorphic,
    cartesian_power,
    generate_complete,
    generate_cycle,
    generate_erdos_renyi,
    generate_glued_tree,
    generate_hypercube,
    generate_path,
    generate_scale_free,
    generate_star,
    permute_graph,
)


# -- Graph type ----------------------------------------------------------


def test_rejects_self_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0, 1.0)])


def test_rejects_duplicate_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])


def test_rejects_out_of_range_and_nonfinite():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5, 1.0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1, float("inf"))])


def test_adjacency_symmetric_zero_diagonal():
    g = generate_erdos_renyi(12, 0.4, seed=3)
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)


def test_json_round_trip(tmp_path):
    g = generate_glued_tree(5)
    path = tmp_path / "g.json"
    g.save(path)
    g2 = Graph.load(path)
    assert g2.n == g.n
    assert g2.edge_set() == g.edge_set()
    assert g2.layer_of == g.layer_of
    obj = json.loads(path.read_text())
    assert set(obj) == {"n", "edges", "layers"}


# -- glued tree ----------------------------------------------------------


def test_glued_tree_sizes():
    assert generate_glued_tree(5).n == 14  # columns 1,2,4,4,2,1
    assert generate_glued_tree(3).n == 6  # columns 1,2,2,1
    assert math.comb(14 + 1, 2) == 105
    assert math.comb(6 + 1, 2) == 21


def test_glued_tree_degrees():
    g3 = generate_glued_tree(3)  # two depth-1 trees glued: a 6-cycle
    assert np.all(g3.degrees() == 2)
    g5 = generate_glued_tree(5)
    deg = g5.degrees()
    assert deg[0] == 2 and deg[-1] == 2
    # internal branching vertices have degree 3, glued leaves degree 2
    assert sorted(deg[1:-1].tolist()) == [2] * 8 + [3] * 4


def test_glued_tree_rejects_bad_layers():
    for bad in (2, 4, 1, -3, 0):
        with pytest.raises(ValueError):
            generate_glued_tree(bad)


def test_glued_tree_edges_connect_consecutive_layers():
    g = generate_glued_tree(7)
    for u, v, _ in g.edges:
        assert abs(g.layer_of[u] - g.layer_of[v]) == 1


def test_glued_tree_gluing_permutation():
    g_id = generate_glued_tree(5)
    g_rev = generate_glued_tree(5, gluing=[3, 2, 1, 0])
    assert g_id.edge_set() != g_rev.edge_set()
    assert brute_force_isomorphic(generate_glued_tree(3),
                                  generate_glued_tree(3, gluing=[1, 0]))
    with pytest.raises(ValueError):
        generate_glued_tree(5, gluing=[0, 0, 1, 2])


# -- hypercube -----------------------------------------------------------


def test_hypercube_dim4():
    g = generate_hypercube(4)
    assert g.n == 16
    assert np.all(g.degrees() == 4)
    assert math.comb(16 + 1, 2) == 136
    assert g.layer_of == tuple(bin(u).count("1") for u in range(16))


def test_hypercube_dim1_is_k2():
    g = generate_hypercube(1)
    assert g.n == 2 and len(g.edges) == 1


def test_hypercube_bounds():
    for bad in (0, 17, -1):
        with pytest.raises(ValueError):
            generate_hypercube(bad)


def test_hypercube_edges_connect_consecutive_layers():
    g = generate_hypercube(5)
    for u, v, _ in g.edges:
        assert abs(g.layer_of[u] - g.layer_of[v]) == 1


# -- simple families -----------------------------------------------------


def test_cycle_and_path():
    c = generate_cycle(20)
    assert math.comb(c.n + 1, 2) == 210
    p = generate_path(19)
    assert math.comb(p.n + 1, 2) == 190
    c3 = generate_cycle(3)
    assert len(c3.edges) == 3 and np.all(c3.degrees() == 2)
    with pytest.raises(ValueError):
        generate_cycle(2)
    with pytest.raises(ValueError):
        generate_path(1)


def test_star_and_complete():
    s = generate_star(5)
    assert s.degrees()[0] == 4
    k = generate_complete(4)
    assert len(k.edges) == 6


# -- random families -----------------------------------------------------


def test_er_p1_is_complete():
    g = generate_erdos_renyi(6, 1.0, seed=1)
    assert g.edge_set() == generate_complete(6).edge_set()


def test_er_p0_fails_connectivity():
    with pytest.raises(ValueError):
        generate_erdos_renyi(4, 0.0, seed=1)


def test_er_deterministic():
    g1 = generate_erdos_renyi(20, 0.3, seed=7)
    g2 = generate_erdos_renyi(20, 0.3, seed=7)
    assert g1.edge_set() == g2.edge_set()
    assert g1.edge_set() != generate_erdos_renyi(20, 0.3, seed=8).edge_set()


def test_scale_free_edge_count():
    g = generate_scale_free(10, 2, seed=5)
    assert len(g.edges) == math.comb(3, 2) + 2 * 7  # clique + attachments
    assert g.is_connected()


def test_scale_free_clique_limit():
    g = generate_scale_free(4, 3, seed=1)
    assert g.edge_set() == generate_complete(4).edge_set()


def test_scale_free_deterministic():
    assert (generate_scale_free(12, 2, seed=9).edge_set()
            == generate_scale_free(12, 2, seed=9).edge_set())


# -- constructions -------------------------------------------------------


def test_cartesian_power_k2_is_4cycle():
    sq = cartesian_power(generate_path(2))
    assert sq.n == 4
    assert brute_force_isomorphic(sq, generate_cycle(4))


def test_cartesian_power_degrees():
    sq = cartesian_power(generate_cycle(3))
    assert sq.n == 9
    assert np.all(sq.degrees() == 4)


def test_cartesian_power_matches_kronecker():
    g = generate_erdos_renyi(4, 0.6, seed=2)
    a = g.adjacency()
    expected = np.kron(a, np.eye(4)) + np.kron(np.eye(4), a)
    assert np.allclose(cartesian_power(g).adjacency(), expected)


def test_cartesian_power_degree_identity():
    g = generate_erdos_renyi(5, 0.5, seed=11)
    deg = g.degrees()
    sq = cartesian_power(g)
    for i in range(g.n):
        for j in range(g.n):
            assert sq.degrees()[i * g.n + j] == deg[i] + deg[j]


# -- relabeling ----------------------------------------------------------


def test_permute_identity_and_inverse():
    g = generate_erdos_renyi(8, 0.4, seed=4)
    ident = list(range(8))
    assert permute_graph(g, ident).edge_set() == g.edge_set()
    rng = np.random.default_rng(0)
    perm = list(rng.permutation(8))
    inv = np.argsort(perm)
    assert permute_graph(permute_graph(g, perm), inv).edge_set() == g.edge_set()


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_graph(generate_path(3), [0, 0, 1])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_permute_preserves_degree_multiset(seed):
    g = generate_erdos_renyi(12, 0.4, seed=seed % 1000)
    perm = np.random.default_rng(seed).permutation(12)
    gp = permute_graph(g, perm)
    assert sorted(g.degrees().tolist()) == sorted(gp.degrees().tolist())


# -- brute-force isomorphism --------------------------------------------


def test_brute_force_accepts_relabeling():
    g = generate_erdos_renyi(7, 0.4, seed=6)
    perm = np.random.default_rng(1).permutation(7)
    assert brute_force_isomorphic(g, permute_graph(g, perm))


def test_brute_force_rejects_different_graphs():
    assert not brute_force_isomorphic(generate_path(4), generate_star(4))
    two_triangles = Graph.from_edges(
        6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
    assert not brute_force_isomorphic(generate_cycle(6), two_triangles)


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_isomorphic(generate_path(10), generate_path(10))
