"""The benchmark's four closed-loop workloads.

Each workload has a ``setup(seed)`` that generates every input from the seed
(the library sees only generated graphs) and a ``round(inputs, ctx)`` that
issues one fixed set of operations, one after another. ``ctx.op`` times a
call and runs its check; ``ctx.span`` and ``ctx.count`` feed the trace.

Sizes were chosen on a 2-core x86-64 box with one BLAS thread so that
several rounds (2-7 s each) fit in one 30 s run, which gives every
operation several samples. ``smoke=True`` shrinks every workload to a
sub-second round for the self-test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import checks
import qwalk as qw
from qwalk import cli

HERE = Path(__file__).resolve().parent
VERDICTS = HERE / "verdicts.json"


class Skip(Exception):
    """An operation failed, so the operations that need its result are skipped."""


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, *tag.encode()])


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def _fresh(g: qw.Graph) -> qw.Graph:
    """A copy of ``g`` without its cached adjacency, so that a timed call
    pays for building it, as it would on a graph it has not seen."""
    return qw.Graph(g.n, g.edges, g.labels, g.layer_of)


def _warm_blas() -> None:
    """First LAPACK / expm calls load code paths lazily; pay that in set-up."""
    m = np.arange(16.0).reshape(4, 4)
    np.linalg.eigh(m + m.T + 0j)
    expm(-1j * (m + m.T))


# -- search ---------------------------------------------------------------


@dataclass
class SearchInstance:
    ext: qw.Graph
    adj: np.ndarray
    marked: list[int]


class Search:
    """Auto-gamma spatial search for 3 marked vertices on boson-extended
    G(n, 0.25): many factorizations per call, few time points."""

    def __init__(self, smoke: bool):
        self.sizes = (5, 6) if smoke else (8, 11, 14, 17, 20)

    def setup(self, seed: int):
        _warm_blas()
        rng = _rng(seed, "search")
        out = []
        for n in self.sizes:
            base = qw.generate_erdos_renyi(n, 0.25, _draw_seed(rng))
            _, ext = qw.extended_graph(base, qw.BOSON)
            marked = sorted(int(x) for x in rng.choice(ext.n, size=3, replace=False))
            out.append(SearchInstance(ext, checks.dense_adjacency(ext.n, ext.edges), marked))
        return out

    def round(self, inputs, ctx) -> None:
        for inst in inputs:
            ext = _fresh(inst.ext)
            with contextlib.suppress(Skip):
                ctx.op("spatial_search", lambda: qw.spatial_search(ext, inst.marked),
                       lambda r: checks.search(inst.adj, inst.marked, r))


# -- pair walks -----------------------------------------------------------


@dataclass
class Study:
    g: qw.Graph
    adj: np.ndarray
    source: int
    sink: int
    inputs: tuple[int, int]
    t: float
    full: bool


class PairWalk:
    """Boson-pair hitting, mixing and correlations on relabelled glued trees
    and cycles, plus the SSH2D / BBH probes: one factorization, many time
    points."""

    def __init__(self, smoke: bool):
        # (family, size, classical and correlation ops too): extended dims
        # 21, 105, 465 and 210, 820; at 820 only the quantum side runs, which
        # keeps a round near 6 s
        self.families = ((("glued_tree", 3, True), ("cycle", 6, True)) if smoke else
                         (("glued_tree", 3, True), ("glued_tree", 5, True),
                          ("glued_tree", 7, True), ("cycle", 20, True), ("cycle", 40, False)))

    def setup(self, seed: int):
        _warm_blas()
        rng = _rng(seed, "pair_walk")
        studies = []
        for family, size, full in self.families:
            if family == "glued_tree":
                base = qw.generate_glued_tree(size)
                source, sink = 0, base.n - 1
            else:
                base = qw.generate_cycle(size)
                source, sink = 0, size // 2
            perm = rng.permutation(base.n)
            g = qw.permute_graph(base, perm)
            a, b = (int(x) for x in rng.choice(g.n, size=2, replace=False))
            studies.append(Study(g, checks.dense_adjacency(g.n, g.edges), int(perm[source]),
                                 int(perm[sink]), (a, b), float(rng.uniform(0.5, 3.0)), full))
        return studies

    def round(self, inputs, ctx) -> None:
        for st in inputs:
            with contextlib.suppress(Skip):
                self._study(st, ctx)
        for v, w, phase in ((0.1, 1.0, 0.5), (1.0, 0.1, 0.0)):
            with contextlib.suppress(Skip):
                ssh = ctx.op("topo_build", lambda: qw.build_topo_model("ssh2d", 6, 6, v, w), checks.chiral)
                bbh = ctx.op("topo_build", lambda: qw.build_topo_model("bbh", 6, 6, v, w), checks.chiral)
                ctx.op("amcd", lambda: qw.amcd(ssh, "y"), lambda r: checks.band(r, phase))
                ctx.op("amcqm", lambda: qw.amcqm(bbh), lambda r: checks.band(r, phase))

    @staticmethod
    def _study(st: Study, ctx) -> None:
        boson = qw.BOSON
        g = _fresh(st.g)
        basis, ext = ctx.op("extend", lambda: qw.extended_graph(g, boson),
                            lambda r: checks.boson_extension(g.n, len(g.edges), r))
        start, target = basis.index(st.source, st.source), basis.index(st.sink, st.sink)

        def factor():
            h = qw.HermitianOperator.from_graph(ext)
            return h, h.spectral_decompose()

        h, _ = ctx.op("factor", factor, lambda r: checks.spectrum(ext.edges, r[1]))
        ctx.op("quantum_hitting", lambda: qw.quantum_hitting(h, start, target, 60.0, 0.05),
               lambda r: checks.quantum_hitting(st.adj, st.source, st.sink, r, 60.0))
        psi0 = np.zeros(ext.n, dtype=complex)
        psi0[start] = 1.0
        ctx.op("quantum_mixing", lambda: qw.quantum_mixing_time(h, psi0, 0.25, 200.0, 0.05),
               lambda r: checks.mixing(r, 0.25, 200.0))
        if not st.full:
            return
        ctx.op("classical_hitting", lambda: qw.classical_hitting(ext, start, target, 2000.0, 2.0),
               lambda r: checks.classical_hitting(r, 2000.0))
        ctx.op("classical_mixing",
               lambda: qw.classical_mixing_time(ext, np.abs(psi0), 0.25, 400.0, 0.05),
               lambda r: checks.mixing(r, 0.25, 400.0, uniform=True))
        _, perm_probs = ctx.op(
            "correlate_permanent",
            lambda: qw.two_particle_correlation(
                qw.HermitianOperator.from_graph(g).propagator(st.t), st.inputs, boson),
            lambda r: checks.correlation(st.adj, st.inputs, st.t, r))
        ctx.op("correlate_extended",
               lambda: qw.correlation_via_extended_walk(g, boson, st.inputs, st.t),
               lambda r: checks.same_distribution(perm_probs, r[1]))


# -- graph isomorphism ----------------------------------------------------


def _unrank(rank: int, n: int) -> list[int]:
    """Permutation of range(n) with the given lexicographic rank."""
    items = list(range(n))
    out = []
    for k in range(n - 1, -1, -1):
        q, rank = divmod(rank, math.factorial(k))
        out.append(items.pop(q))
    return out


@dataclass
class Pair:
    g1: qw.Graph
    g2: qw.Graph
    isomorphic: bool  # networkx VF2
    relabelled: bool
    oracle: bool  # small enough for brute_force_isomorphic


class GraphIso:
    """Same-degree-sequence pairs through the brute-force oracle and the walk
    certificate, plus larger relabelled pairs through the certificate only."""

    def __init__(self, smoke: bool):
        self.small_n, self.small_m = (6, 6) if smoke else (8, 11)
        self.non_iso = 2 if smoke else 6
        self.relabelled = 1 if smoke else 4
        self.large_sizes = (7, 8) if smoke else tuple(range(10, 21))

    def setup(self, seed: int):
        import networkx as nx

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from((u, v) for u, v, _ in g.edges)
            return h

        def rigid(h):
            automorphisms = nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter()
            return len(list(itertools.islice(automorphisms, 2))) == 1

        _warm_blas()
        rng = _rng(seed, "gi")
        n, m = self.small_n, self.small_m
        pairs, bucket = [], {}
        # candidates share edge count and degree sequence, so the oracle's
        # cheap rejections never fire and every non-isomorphic pair is a full scan
        while len(pairs) < self.non_iso:
            g = qw.generate_erdos_renyi(n, 0.4, _draw_seed(rng))
            if len(g.edges) != m:
                continue
            key = tuple(sorted(np.bincount(np.array([e[:2] for e in g.edges]).ravel(),
                                           minlength=n)))
            other = bucket.get(key)
            if other is None or nx.is_isomorphic(to_nx(other), to_nx(g)):
                bucket[key] = g
                continue
            del bucket[key]
            pairs.append(Pair(other, g, False, False, True))
        # accept path: the oracle stops at the first matching permutation, so
        # the relabellings sit at the middles of equal strata of the
        # lexicographic ranks, on graphs whose only automorphism is the
        # identity (so no earlier permutation matches); the path's cost is
        # then the same for every seed
        count = 0
        while count < self.relabelled:
            g = qw.generate_erdos_renyi(n, 0.4, _draw_seed(rng))
            if len(g.edges) != m or not rigid(to_nx(g)):
                continue
            span = math.factorial(n) / self.relabelled
            perm = _unrank(int((count + 0.5) * span), n)
            g2 = qw.permute_graph(g, perm)
            pairs.append(Pair(g, g2, nx.is_isomorphic(to_nx(g), to_nx(g2)), True, True))
            count += 1
        for size in self.large_sizes:
            g = qw.generate_erdos_renyi(size, 0.3, _draw_seed(rng))
            pairs.append(Pair(g, qw.permute_graph(g, rng.permutation(size)), True, True, False))
        return pairs

    def round(self, inputs, ctx) -> None:
        for p in inputs:
            g1, g2 = _fresh(p.g1), _fresh(p.g2)
            if p.oracle:
                with contextlib.suppress(Skip):
                    ctx.op("brute_force_isomorphic", lambda: qw.brute_force_isomorphic(g1, g2),
                           lambda r: checks.iso_verdict(r, p.isomorphic))
            with contextlib.suppress(Skip):
                ctx.op("gi_test", lambda: qw.gi_test(g1, g2),
                       lambda r: checks.gi_verdict(r, p.isomorphic, p.relabelled))


# -- reproduce ------------------------------------------------------------


def run_panel(figure: str, seed: int, out_dir: Path) -> tuple[int, Path]:
    """``qwalk --seed S --out-dir D reproduce FIG`` in-process; (exit code, bundle dir)."""
    args = ["--seed", str(seed), "--out-dir", str(out_dir), "reproduce", figure]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="qwalk", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out_dir / f"fig{figure}"


def expected_verdicts(table: dict, figure: str, panel_seed: int) -> dict[str, bool]:
    if figure in table["seed_independent"]:
        return table["seed_independent"][figure]
    return table["by_seed"][str(panel_seed)][figure]


class Reproduce:
    """The eight ``qwalk reproduce`` panels through the click entry point."""

    def __init__(self, smoke: bool, scratch: Path):
        self.figures = ("2B", "3A", "3C", "3D") if smoke else cli.FIGURE_IDS
        self.scratch = scratch

    def setup(self, seed: int):
        _warm_blas()
        table = json.loads(VERDICTS.read_text())
        # verdicts.json holds the reference verdicts for these panel seeds only
        panel_seed = table["panel_seeds"][seed % len(table["panel_seeds"])]
        return panel_seed, {f: expected_verdicts(table, f, panel_seed) for f in self.figures}

    def round(self, inputs, ctx) -> None:
        panel_seed, expected = inputs
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            for fig in self.figures:
                def call():
                    with ctx.span(f"cli.panel.{fig}"):
                        return run_panel(fig, panel_seed, out)

                with contextlib.suppress(Skip):
                    ctx.op(f"panel_{fig}", call, lambda r: checks.panel(r, expected[fig]), split=cli)
            ctx.count("cli.bundle_bytes", sum(f.stat().st_size for f in out.rglob("*") if f.is_file()))
        finally:
            shutil.rmtree(out)


def make(name: str, smoke: bool, scratch: Path):
    if name == "search":
        return Search(smoke)
    if name == "pair_walk":
        return PairWalk(smoke)
    if name == "gi":
        return GraphIso(smoke)
    if name == "reproduce":
        return Reproduce(smoke, scratch)
    raise ValueError(f"unknown workload {name!r}")
