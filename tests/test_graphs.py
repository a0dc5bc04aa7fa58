"""Graph construction, generators, and relabeling machinery."""

import itertools
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


def test_adjacency_refuses_oversized_graph_before_allocating():
    g = Graph.from_edges(9000, [])
    with pytest.raises(ValueError, match=r"9000 vertices needs 8.1e\+07 values .*over the limit of 2\*\*26"):
        g.adjacency()
    assert g._adj is None


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


# -- isomorphism oracle --------------------------------------------------


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


def _reweighted(g, seed):
    """g relabelled, with one edge weight changed (1 <-> 2)."""
    rng = np.random.default_rng(seed)
    edges = list(permute_graph(g, rng.permutation(g.n)).edges)
    k = int(rng.integers(len(edges)))
    u, v, w = edges[k]
    edges[k] = (u, v, 3.0 - w)
    return Graph.from_edges(g.n, edges)


def test_brute_force_beyond_former_size_cap():
    shrikhande = Graph.from_edges(16, [
        (4 * i + j, 4 * ((i + di) % 4) + (j + dj) % 4, 1.0)
        for i in range(4) for j in range(4) for di, dj in ((0, 1), (1, 0), (1, 1))])
    rook = Graph.from_edges(16, [(u, v, 1.0) for u in range(16) for v in range(u + 1, 16)
                                 if u // 4 == v // 4 or u % 4 == v % 4])
    # both are SRG(16, 6, 2, 2), so colour refinement alone leaves one class
    # in each and only the individualization search can tell them apart
    assert not brute_force_isomorphic(shrikhande, rook)
    # Frucht graph: 3-regular with no automorphism but the identity, so
    # refinement leaves one class and only the image of vertex 0 works; the
    # reversal puts that image last among the candidates
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    frucht = Graph.from_edges(12, sorted({(min(i, k), max(i, k), 1.0) for i, d in enumerate(lcf)
                                          for k in ((i + 1) % 12, (i + d) % 12)}))
    assert brute_force_isomorphic(frucht, permute_graph(frucht, range(11, -1, -1)))
    rng = np.random.default_rng(0)
    for g in (generate_hypercube(6), generate_glued_tree(7)):
        assert brute_force_isomorphic(g, permute_graph(g, rng.permutation(g.n)))
        assert not brute_force_isomorphic(g, _reweighted(g, seed=g.n))


def _permutation_scan(g1: Graph, g2: Graph) -> bool:
    """Reference: try all n! relabellings of g1 against g2's weighted edges."""
    if g1.n != g2.n:
        return False
    target = g2.edge_set()
    return any(
        frozenset((min(p[u], p[v]), max(p[u], p[v]), w) for u, v, w in g1.edges) == target
        for p in itertools.permutations(range(g1.n)))


def _partner(g: Graph, mode: str, independent, seed: int) -> Graph:
    """Second graph of a pair: ``independent()``, g with one weight changed,
    or (also for an edgeless g) g relabelled."""
    if mode == "independent":
        return independent()
    if mode == "reweighted" and g.edges:
        return _reweighted(g, seed)
    return permute_graph(g, np.random.default_rng(seed).permutation(g.n))


@st.composite
def _weighted_graph(draw, n):
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return Graph.from_edges(n, [])
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from([1.0, 2.0])))
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()])


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 7), st.sampled_from(["relabelled", "independent", "reweighted"]),
       st.integers(0, 2**32 - 1))
def test_oracle_matches_permutation_scan(data, n, mode, seed):
    g1 = data.draw(_weighted_graph(n))
    g2 = _partner(g1, mode, lambda: data.draw(_weighted_graph(n)), seed)
    assert brute_force_isomorphic(g1, g2) == _permutation_scan(g1, g2)


@settings(max_examples=60, deadline=None)
@given(st.integers(10, 20), st.sampled_from(["gnp", "regular"]),
       st.sampled_from(["relabelled", "independent", "reweighted"]), st.integers(0, 2**32 - 1))
def test_oracle_matches_networkx_vf2(n, family, mode, seed):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)

    def draw():
        if family == "regular":  # unweighted: refinement leaves one class to search
            h = nx.random_regular_graph(3 if n % 2 == 0 else 4, n, seed=int(rng.integers(2**31)))
            return Graph.from_edges(n, [(u, v, 1.0) for u, v in h.edges])
        h = nx.gnp_random_graph(n, 0.3, seed=int(rng.integers(2**31)))
        return Graph.from_edges(n, [(u, v, float(rng.choice([1.0, 2.0]))) for u, v in h.edges])

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_weighted_edges_from(g.edges)
        return h

    g1 = draw()
    g2 = _partner(g1, mode, draw, seed)
    expected = nx.is_isomorphic(to_nx(g1), to_nx(g2),
                                edge_match=lambda a, b: a["weight"] == b["weight"])
    assert brute_force_isomorphic(g1, g2) == expected
