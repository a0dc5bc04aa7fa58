"""Weighted undirected graphs, the generators used throughout the package,
and an exact isomorphism oracle (colour refinement with individualization).

Vertex ordering is fixed per family (BFS order for layered graphs, binary
order for hypercubes) so that serialized outputs are bit-exact reproducible.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "generate_glued_tree",
    "generate_hypercube",
    "generate_cycle",
    "generate_path",
    "generate_star",
    "generate_complete",
    "generate_erdos_renyi",
    "generate_scale_free",
    "cartesian_power",
    "permute_graph",
    "brute_force_isomorphic",
]

_CONNECTIVITY_RETRY_CAP = 100

# Largest dense array the package builds, in values: an n x n adjacency
# (2**26 reals take 512 MiB) or a time grid's spectral series (2**26
# complex values take 1 GiB).
_MAX_DENSE_VALUES = 2**26


def _check_dense_size(n: int) -> None:
    """Refuse an n-vertex dense adjacency over _MAX_DENSE_VALUES values, before
    it or the edges of a graph built to fill it are allocated."""
    values = n**2
    if values > _MAX_DENSE_VALUES:
        raise ValueError(
            f"dense adjacency of {n} vertices needs {values:.3g} values "
            f"({values * 8 / 2**20:.3g} MiB), over the limit of 2**26 (512 MiB)")


@dataclass(frozen=True)
class Graph:
    """Simple weighted undirected graph.

    Edges are stored once per unordered pair; the adjacency matrix is
    symmetric with zero diagonal. Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...] | None = None
    layer_of: tuple[int, ...] | None = None
    _adj: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight on edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length mismatch")
        if self.layer_of is not None and len(self.layer_of) != self.n:
            raise ValueError("layer_of length mismatch")

    @classmethod
    def from_edges(cls, n, edges, labels=None, layer_of=None) -> "Graph":
        edges = tuple(
            (int(min(u, v)), int(max(u, v)), float(w)) for u, v, *rest in edges
            for w in [rest[0] if rest else 1.0]
        )
        labels = tuple(labels) if labels is not None else None
        layer_of = tuple(int(x) for x in layer_of) if layer_of is not None else None
        return cls(n=int(n), edges=edges, labels=labels, layer_of=layer_of)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix (cached); refused before it is
        allocated when n^2 exceeds _MAX_DENSE_VALUES."""
        if self._adj is None:
            _check_dense_size(self.n)
            A = np.zeros((self.n, self.n))
            for u, v, w in self.edges:
                A[u, v] = w
                A[v, u] = w
            object.__setattr__(self, "_adj", A)
        return self._adj

    def degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1)

    def edge_set(self) -> frozenset:
        return frozenset((min(u, v), max(u, v), w) for u, v, w in self.edges)

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = _neighbours(self)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    # -- JSON interchange ------------------------------------------------

    def to_json(self) -> str:
        obj = {"n": self.n, "edges": [[u, v, w] for u, v, w in self.edges]}
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        if self.layer_of is not None:
            obj["layers"] = list(self.layer_of)
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        obj = json.loads(text)
        return cls.from_edges(
            obj["n"], obj["edges"],
            labels=obj.get("labels"), layer_of=obj.get("layers"),
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "Graph":
        return cls.from_json(Path(path).read_text())


# -- deterministic families ---------------------------------------------


def generate_glued_tree(edge_layers: int, gluing: list[int] | None = None) -> Graph:
    """Two depth-d binary trees glued leaf-to-leaf.

    ``edge_layers`` must be odd and >= 3; the result has columns of sizes
    1, 2, ..., 2^d, 2^d, ..., 2, 1 with d = (edge_layers - 1) // 2.
    ``gluing`` is the permutation matching left leaves to right leaves
    (identity by default). Entrance is vertex 0, exit is vertex n - 1;
    ``layer_of`` holds the column index.
    """
    if edge_layers < 3 or edge_layers % 2 == 0:
        raise ValueError("edge_layers must be odd and >= 3")
    d = (edge_layers - 1) // 2
    cols = [2 ** l for l in range(d + 1)] + [2 ** l for l in range(d, -1, -1)]
    starts = np.concatenate([[0], np.cumsum(cols)])
    n = int(starts[-1])
    m = 2 ** d
    if gluing is None:
        gluing = list(range(m))
    if sorted(gluing) != list(range(m)):
        raise ValueError("gluing must be a permutation of the leaves")
    edges = []
    layer_of = []
    for c, size in enumerate(cols):
        layer_of.extend([c] * size)
    # left tree, parents in column c feed children in column c+1
    for c in range(d):
        for k in range(cols[c]):
            p = starts[c] + k
            edges.append((p, starts[c + 1] + 2 * k, 1.0))
            edges.append((p, starts[c + 1] + 2 * k + 1, 1.0))
    # right tree mirrored: parents in column 2d+1-c feed children in 2d-c
    for c in range(d):
        hi = 2 * d + 1 - c
        lo = 2 * d - c
        for k in range(cols[hi]):
            p = starts[hi] + k
            edges.append((p, starts[lo] + 2 * k, 1.0))
            edges.append((p, starts[lo] + 2 * k + 1, 1.0))
    # glue the two middle leaf columns
    for k in range(m):
        edges.append((starts[d] + k, starts[d + 1] + gluing[k], 1.0))
    return Graph.from_edges(n, edges, layer_of=layer_of)


def generate_hypercube(dim: int) -> Graph:
    """Binary hypercube; vertices adjacent iff labels differ in one bit."""
    if not (1 <= dim <= 16):
        raise ValueError("dim must be in 1..16")
    n = 2 ** dim
    edges = []
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if v > u:
                edges.append((u, v, 1.0))
    layer_of = [bin(u).count("1") for u in range(n)]
    labels = [format(u, f"0{dim}b") for u in range(n)]
    return Graph.from_edges(n, edges, labels=labels, layer_of=layer_of)


def generate_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def generate_path(n: int) -> Graph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    return Graph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def generate_star(n: int) -> Graph:
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph.from_edges(n, [(0, i, 1.0) for i in range(1, n)])


def generate_complete(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return Graph.from_edges(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def generate_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a connectivity guarantee.

    Disconnected draws are resampled with incremented seed up to a retry
    cap; deterministic for fixed (n, p, seed).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be a probability")
    for attempt in range(_CONNECTIVITY_RETRY_CAP):
        rng = np.random.default_rng(np.uint64(seed) + np.uint64(attempt))
        edges = [
            (i, j, 1.0)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g
    raise ValueError(
        f"could not draw a connected G({n},{p}) in {_CONNECTIVITY_RETRY_CAP} attempts"
    )


def generate_scale_free(n: int, m: int, seed: int) -> Graph:
    """Preferential-attachment growth from an (m+1)-clique.

    Each new vertex attaches m edges to distinct existing vertices chosen
    with probability proportional to current degree.
    """
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng(np.uint64(seed))
    edges = [(i, j, 1.0) for i in range(m + 1) for j in range(i + 1, m + 1)]
    deg = np.zeros(n)
    deg[: m + 1] = m
    for v in range(m + 1, n):
        weights = deg[:v] / deg[:v].sum()
        targets = rng.choice(v, size=m, replace=False, p=weights)
        for t in sorted(int(x) for x in targets):
            edges.append((t, v, 1.0))
            deg[t] += 1
        deg[v] = m
    return Graph.from_edges(n, edges)


# -- constructions -------------------------------------------------------


def cartesian_power(g: Graph) -> Graph:
    """Cartesian square of g: n^2 vertices (i, j), adjacency A(x)I + I(x)A."""
    n = g.n
    edges = []
    for u, v, w in g.edges:
        for k in range(n):
            edges.append((u * n + k, v * n + k, w))  # move first coordinate
            edges.append((k * n + u, k * n + v, w))  # move second coordinate
    return Graph.from_edges(n * n, edges)


def permute_graph(g: Graph, perm) -> Graph:
    """Relabel vertices: edge (u, v, w) maps to (perm[u], perm[v], w)."""
    perm = [int(x) for x in perm]
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a bijection on 0..n-1")
    edges = [(perm[u], perm[v], w) for u, v, w in g.edges]
    labels = None
    layer_of = None
    if g.labels is not None:
        lab = [""] * g.n
        for i, s in enumerate(g.labels):
            lab[perm[i]] = s
        labels = lab
    if g.layer_of is not None:
        lay = [0] * g.n
        for i, c in enumerate(g.layer_of):
            lay[perm[i]] = c
        layer_of = lay
    return Graph.from_edges(g.n, edges, labels=labels, layer_of=layer_of)


def _neighbours(g: Graph) -> list[list[tuple[int, float]]]:
    """(neighbour, edge weight) pairs of every vertex."""
    nbrs = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    return nbrs


def _refine(nbrs1, nbrs2, c1: list[int], c2: list[int]):
    """Jointly refine two colourings until stable (1-WL); None once their
    colour histograms differ.

    A vertex's new colour is its old colour plus the sorted multiset of
    (neighbour colour, edge weight). One palette, the sorted signatures,
    numbers the colours of both graphs, so ids compare across them.
    """
    count = None
    while True:
        s1 = [(c1[v], tuple(sorted((c1[u], w) for u, w in nb))) for v, nb in enumerate(nbrs1)]
        s2 = [(c2[v], tuple(sorted((c2[u], w) for u, w in nb))) for v, nb in enumerate(nbrs2)]
        if Counter(s1) != Counter(s2):
            return None
        palette = {s: k for k, s in enumerate(sorted(set(s1)))}
        if len(palette) == count:
            return c1, c2
        count = len(palette)
        c1 = [palette[s] for s in s1]
        c2 = [palette[s] for s in s2]


def _individualized(c1: list[int], c2: list[int], colour: int, fresh: int):
    """The branches of one search node: g1's colouring ``c1`` against ``c2``
    with each vertex of g2's class ``colour`` in turn given colour ``fresh``."""
    for w, c in enumerate(c2):
        if c == colour:
            yield c1, c2[:w] + [fresh] + c2[w + 1:]


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact weighted-graph isomorphism test, for any n.

    Both graphs are refined jointly by colour (``_refine``); differing
    colour histograms prove them non-isomorphic. While a colour class still
    holds several vertices, one vertex of the smallest such class in g1 is
    given a fresh colour, tried against each vertex of that class in g2,
    and both colourings are refined again (individualization-refinement,
    McKay & Piperno, "Practical graph isomorphism II", J. Symb. Comput. 60,
    2014). A discrete colouring defines one bijection, accepted only if it
    maps g1's weighted edge set exactly onto g2's. Refinement keeps every
    isomorphism that respects the colours it starts from, and some branch
    maps the individualized vertex where an isomorphism does, so the search
    finds one whenever one exists.

    The name is kept from the n! permutation scan this replaced, because
    ``qwalk reproduce 3C`` and the benchmark's ``gi`` workload call it by it.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    nbrs1, nbrs2 = _neighbours(g1), _neighbours(g2)
    target = g2.edge_set()
    # depth-first over lazy branch iterators, so deep searches need no recursion
    branches = [iter([([0] * g1.n, [0] * g2.n)])]
    while branches:
        node = next(branches[-1], None)
        if node is None:
            branches.pop()
            continue
        refined = _refine(nbrs1, nbrs2, *node)
        if refined is None:
            continue
        c1, c2 = refined
        sizes = Counter(c1)
        cells = [(size, colour) for colour, size in sizes.items() if size > 1]
        if not cells:
            image = {colour: v for v, colour in enumerate(c2)}
            perm = [image[colour] for colour in c1]
            mapped = frozenset(
                (min(perm[u], perm[v]), max(perm[u], perm[v]), w) for u, v, w in g1.edges
            )
            if mapped == target:
                return True
            continue
        _, colour = min(cells)
        fresh = len(sizes)  # _refine numbers the colours 0..fresh-1, in new lists
        c1[c1.index(colour)] = fresh
        branches.append(_individualized(c1, c2, colour, fresh))
    return False
