"""Weighted undirected graphs, the generators used throughout the package,
and one vectorized colour refinement (``_rounds``) with its two uses: an
exact isomorphism oracle, which refines the disjoint union of two graphs
with individualization, and the equitable partitions that classical walks
are factorized on.

Vertex ordering is fixed per family (BFS order for layered graphs, binary
order for hypercubes) so that serialized outputs are bit-exact reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
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


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The endpoints and weights of ``g``'s edges as three arrays."""
    flat = np.fromiter(itertools.chain.from_iterable(g.edges), float, count=3 * len(g.edges))
    u, v, w = flat.reshape(-1, 3).T
    return u.astype(np.intp), v.astype(np.intp), w


# Seed of the table that ``_rounds`` hashes with. Any fixed value makes the
# cells deterministic; neither ``_equitable`` (by its exact check) nor the
# oracle (by its search) is wrong whatever the draw.
_SIGNATURE_SEED = 20220829
# The draws ``_signature_table`` hands out; empty until a call needs them.
_signature_draws = np.empty(0, np.uint64)


def _signature_table(size: int) -> np.ndarray:
    """The first ``size`` uint64 draws from _SIGNATURE_SEED, as a read-only
    view of one module-level table. The table is drawn on first use and
    redrawn from the seed, at least twice as long, when a call needs more;
    the generator's raw output equals its full-range uint64 integers, so
    every table is a prefix of the next."""
    global _signature_draws
    if size > len(_signature_draws):
        bits = np.random.default_rng(_SIGNATURE_SEED).bit_generator
        _signature_draws = bits.random_raw(max(size, 2 * len(_signature_draws)))
        _signature_draws.flags.writeable = False
    return _signature_draws[:size]


def _directed(n: int, u, v, w):
    """The edges ``u``-``v`` of weight ``w`` on ``n`` vertices in both directions,
    as ``_rounds`` takes them: ends, far ends, weight classes, a uint64 table
    indexed by cell, and each edge's odd table entry for its weight class."""
    kind = np.unique(w, return_inverse=True)[1]
    ends, far, kind = np.concatenate((u, v)), np.concatenate((v, u)), np.concatenate((kind, kind))
    table = _signature_table(n + len(w))
    return ends, far, kind, table, table[n + kind] | np.uint64(1)


def _rounds(ends, far, table, factors, cells) -> tuple[np.ndarray, int]:
    """Colour refinement of ``cells``, numbered 0..k-1, over the directed edges
    ``ends`` -> ``far``, one vectorized round at a time; returns each vertex's
    cell and the cell count.

    A vertex's signature sums, in uint64 arithmetic, the ``table`` entry of
    each neighbour's cell times the edge's odd weight ``factors`` entry. Each
    round ranks the vertices by their cell and then their signature, and the
    rounds stop once the cell count stops changing. Equal neighbourhoods
    always give equal sums, so the cells are isomorphism-invariant; only a
    hash collision can leave a cell coarser than the equitable one.
    """
    count = 0
    while cells.max() + 1 != count:
        count = cells.max() + 1
        sums = np.zeros(len(cells), np.uint64)
        np.add.at(sums, ends, table[cells[far]] * factors)
        order = np.lexsort((sums, cells))
        ranked, sums = cells[order], sums[order]
        split = (ranked[1:] != ranked[:-1]) | (sums[1:] != sums[:-1])
        cells = np.empty(len(cells), np.intp)
        cells[order] = np.concatenate(([0], np.cumsum(split)))
    return cells, int(count)


def _equitable(g: Graph, colours) -> np.ndarray:
    """Each vertex's cell in the coarsest equitable partition of ``g`` that
    refines ``colours``, with cells numbered in the order of their first
    vertex. In an equitable partition, the members of a cell have equally
    many neighbours in each cell across edges of each weight (Godsil,
    *Algebraic Combinatorics*, 1993, ch. 5).

    The cells are those of ``_rounds``. A final exact check of the neighbour
    counts catches a cell that a hash collision left unsplit, and the
    partition then falls back to one cell per vertex.
    """
    ends, far, kind, table, factors = _directed(g.n, *_edge_arrays(g))
    cells = _rounds(ends, far, table, factors, np.unique(colours, return_inverse=True)[1])[0]
    _, first, cells = np.unique(cells, return_index=True, return_inverse=True)
    cells = np.argsort(np.argsort(first))[cells]
    return cells if _is_equitable(cells, ends, far, kind) else np.arange(g.n)


def _is_equitable(cells, ends, far, kind) -> bool:
    """Whether every vertex has, across its directed edges ``ends`` ->
    ``far`` of weight class ``kind``, the same neighbour counts per (cell,
    weight class) as the first vertex of its cell."""
    order = np.lexsort((kind, cells[far], ends))
    ends, near, kind = ends[order], cells[far][order], kind[order]
    degree = np.bincount(ends, minlength=len(cells))
    start = np.cumsum(degree) - degree
    first = np.unique(cells, return_index=True)[1][cells]
    if not np.array_equal(degree, degree[first]):
        return False
    # the same position in the first vertex's run of sorted edges
    mirror = np.arange(len(ends)) - start[ends] + start[first[ends]]
    return np.array_equal(near, near[mirror]) and np.array_equal(kind, kind[mirror])


def _individualized(cells: np.ndarray, candidates: np.ndarray, fresh: int):
    """The branches of one search node: ``cells`` with each vertex of
    ``candidates`` in turn given colour ``fresh``."""
    for w in candidates:
        branch = cells.copy()
        branch[w] = fresh
        yield branch


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact weighted-graph isomorphism test, for any n.

    Colour refinement (``_rounds``) runs on the disjoint union of g1 and g2,
    g2's vertices numbered after g1's, so one cell numbering serves both
    graphs. A cell holding unequally many vertices of g1 and of g2 proves that
    no isomorphism respects the colours. While a cell still holds several
    vertices, one g1 vertex of the smallest such cell is given a fresh colour,
    tried against each g2 vertex of that cell, and the union is refined again
    (individualization-refinement, McKay & Piperno, "Practical graph
    isomorphism II", J. Symb. Comput. 60, 2014). A discrete partition pairs
    each g1 vertex with one g2 vertex, and that bijection is accepted only if
    it maps g1's weighted edge set exactly onto g2's. Refinement keeps every
    isomorphism that respects the colours it starts from, and some branch maps
    the individualized vertex where an isomorphism does, so the search finds
    one whenever one exists. A hash collision only leaves cells coarser and
    the search longer, so there is no fallback to one cell per vertex here.

    The name is kept from the n! permutation scan this replaced, because
    ``qwalk reproduce 3C`` and the benchmark's ``gi`` workload call it by it.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    n = g1.n
    union = (np.concatenate((a, b + shift))
             for a, b, shift in zip(_edge_arrays(g1), _edge_arrays(g2), (n, n, 0)))
    ends, far, _, table, factors = _directed(2 * n, *union)
    target = g2.edge_set()
    # depth-first over lazy branch iterators, so deep searches need no recursion
    branches = [iter([np.zeros(2 * n, np.intp)])]
    while branches:
        colours = next(branches[-1], None)
        if colours is None:
            branches.pop()
            continue
        cells, count = _rounds(ends, far, table, factors, colours)
        sizes = np.bincount(cells[:n], minlength=count)
        if not np.array_equal(sizes, np.bincount(cells[n:], minlength=count)):
            continue
        if count == n:  # discrete: each cell holds one vertex of g1 and one of g2
            perm = np.argsort(cells[n:])[cells[:n]].tolist()
            mapped = frozenset((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                               for u, v, w in g1.edges)
            if mapped == target:
                return True
            continue
        multi = np.flatnonzero(sizes > 1)
        members = np.flatnonzero(cells == multi[np.argmin(sizes[multi])])
        cells[members[0]] = count  # the cell's first g1 vertex
        branches.append(_individualized(cells, members[members >= n], count))
    return False
