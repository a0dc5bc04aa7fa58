"""Span recorder that wraps the public functions and methods of qwalk.

The program itself carries no timers, so spans are recorded from here, at
each layer boundary: every name in a module's ``__all__`` is wrapped, in
every qwalk module that binds it (``cli.spatial_search`` is the same
function as ``applications.spatial_search`` but a separate binding). Public
methods of public classes are wrapped on the class, which every importer
shares. Spans stay in memory until the run ends; then ``Tracer.metrics``
folds them into the per-layer metrics and ``Tracer.dump`` writes them out.

A span's self time is its duration minus the durations of its direct
child spans. The layer of a span is the module that defines the code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("graphs", "particles", "evolution", "dynamics", "applications", "topology", "cli")
# cli has no __all__: its layer is the reproduce panels, spanned by the caller
WRAPPED_LAYERS = LAYERS[:-1]

# span name -> metric group; a group's inclusive time counts only its
# outermost spans, so extended_graph -> build_extended_hamiltonian is one build
GROUPS = {
    "bench.setup": "setup",
    "graphs.brute_force_isomorphic": "iso",
    "particles.build_extended_hamiltonian": "extend",
    "particles.extended_graph": "extend",
    "particles.two_particle_correlation": "correlate",
    "particles.correlation_via_extended_walk": "correlate",
    "evolution.factor": "factor",
    "evolution.HermitianOperator.evolve_many": "evolve",
    "evolution.HermitianOperator.propagator": "evolve",
    "evolution.evolve_quantum": "evolve",
    "evolution.evolve_classical": "evolve",
    "evolution.limiting_distribution": "evolve",
    "dynamics.quantum_hitting": "hitting",
    "dynamics.classical_hitting": "hitting",
    "dynamics.quantum_mixing_time": "mixing",
    "dynamics.classical_mixing_time": "mixing",
    "applications.spatial_search": "search",
    "applications.graph_certificate": "certificate",
    "applications.gi_test": "certificate",
    "applications.qw_centrality": "centrality",
    "applications.eigenvector_centrality": "centrality",
    "topology.build_topo_model": "topo_build",
    "topology.amcd": "probe",
    "topology.amcqm": "probe",
}
PANELS = ("2A", "2B", "2C", "2D", "3A", "3B", "3C", "3D")
# extended dimensions the workloads reach: 210 = C(21,2), 465 = C(31,2), 820 = C(41,2)
TRACKED_DIMS = (210, 465, 820)


def _group(name: str) -> str | None:
    if name.startswith("graphs.generate_"):
        return "generate"
    return GROUPS.get(name)


def _spectral_hook(fn):
    """Rename a cache-filling spectral_decompose call to ``evolution.factor``.

    A call factorizes when it changes the operator's state (fills its cache);
    the check compares attribute identities, so it does not depend on how the
    cache is named.
    """

    def call(args, kwargs):
        op = args[0]
        before = {k: id(v) for k, v in vars(op).items()}
        out = fn(*args, **kwargs)
        if {k: id(v) for k, v in vars(op).items()} == before:
            return out, None, None
        w, v = out
        return out, "evolution.factor", {"dim": len(w), "complex": bool(np.iscomplexobj(v))}

    return call


def _extend_hook(fn):
    def call(args, kwargs):
        out = fn(*args, **kwargs)
        return out, None, {"dim": len(out[0])}

    return call


HOOKS = {
    "evolution.HermitianOperator.spectral_decompose": _spectral_hook,
    "particles.build_extended_hamiltonian": _extend_hook,
    "particles.extended_graph": _extend_hook,
}


class NullTracer:
    """Stands in for a Tracer where nothing is recorded."""

    def installed(self):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """In-memory span recorder; single-threaded, as is every workload."""

    def __init__(self):
        # (name, duration, self time, groups of ancestor spans, meta)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [t0, child time, ancestor groups, own group]
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        anc = frozenset()
        if self._stack:
            top = self._stack[-1]
            anc = top[2] | {top[3]} if top[3] else top[2]
        frame = [time.perf_counter(), 0.0, anc, _group(name)]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, meta=None):
        dur = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((name, dur, dur - frame[1], frame[2], meta))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, name)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, name):
        hook = HOOKS[name](fn) if name in HOOKS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            final, meta = name, None
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                out, renamed, meta = hook(args, kwargs)
                if renamed:
                    final = renamed
                    frame[3] = _group(renamed)
                return out
            finally:
                tracer._close(frame, final, meta)

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr) if inspect.ismodule(owner)
                              else vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [importlib.import_module("qwalk")] + [
            importlib.import_module(f"qwalk.{layer}") for layer in LAYERS]
        for layer in WRAPPED_LAYERS:
            mod = importlib.import_module(f"qwalk.{layer}")
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{obj.__qualname__}")
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is obj:
                                self._set(m, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(val):
                self._set(cls, attr, self._wrap(val, name))
            elif isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, type(val)(self._wrap(val.__func__, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        """Write every span as one JSON line, in the order they closed."""
        with open(path, "w") as fh:
            for name, dur, self_s, anc, meta in self.spans:
                fh.write(json.dumps({"name": name, "dur_s": dur, "self_s": self_s,
                                     "within": sorted(anc), "meta": meta}) + "\n")

    # -- folding ---------------------------------------------------------

    def metrics(self, rounds: int, setups: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: per traced round, except ``graphs.generate_s``
        (per set-up) and ``particles.extend_dim_max`` (over the run).

        Spans opened inside a ``bench.setup`` span stay out of the per-round
        figures.
        """
        incl = defaultdict(float)
        self_by_group = defaultdict(float)
        self_by_layer = defaultdict(float)
        calls = defaultdict(int)
        extend_dim = defaultdict(float)
        factor_dim = defaultdict(float)
        factor_complex = 0
        factor_work = 0
        factor_in_search = 0
        panel = defaultdict(float)
        generate_setup = 0.0
        dim_max = 0
        round_wall = 0.0
        for name, dur, self_s, anc, meta in self.spans:
            group = _group(name)
            if "setup" in anc:
                if group == "generate" and "generate" not in anc:
                    generate_setup += dur
                continue
            if group == "setup":
                continue
            if name == "bench.round":
                round_wall += dur
            if name.startswith("cli.panel."):
                panel[name[len("cli.panel."):]] += dur
            self_by_layer[name.split(".", 1)[0]] += self_s
            if group is None:
                continue
            self_by_group[group] += self_s
            if group not in anc:
                incl[group] += dur
                calls[group] += 1
            if group == "extend" and group not in anc:
                dim_max = max(dim_max, meta["dim"])
                extend_dim[meta["dim"]] += dur
            if group == "factor":
                factor_dim[meta["dim"]] += dur
                factor_complex += meta["complex"]
                factor_work += meta["dim"] ** 3
                factor_in_search += "search" in anc
        r = max(rounds, 1)
        out = {
            "graphs.iso_s": (incl["iso"] / r, "s"),
            "graphs.iso_calls": (calls["iso"] / r, "count"),
            "graphs.generate_s": (generate_setup / max(setups, 1), "s"),
            "particles.extend_s": (incl["extend"] / r, "s"),
            "particles.extend_calls": (calls["extend"] / r, "count"),
            "particles.extend_dim_max": (dim_max, "states"),
        }
        for d in TRACKED_DIMS:
            out[f"particles.extend_s.d{d}"] = (extend_dim[d] / r, "s")
        out.update({
            "particles.correlate_s": (incl["correlate"] / r, "s"),
            "evolution.factor_s": (incl["factor"] / r, "s"),
            "evolution.factor_calls": (calls["factor"] / r, "count"),
            "evolution.factor_complex_calls": (factor_complex / r, "count"),
            "evolution.factor_work": (factor_work / r, "dim3"),
        })
        for d in TRACKED_DIMS:
            out[f"evolution.factor_s.d{d}"] = (factor_dim[d] / r, "s")
        out.update({
            "evolution.evolve_s": (self_by_group["evolve"] / r, "s"),
            "dynamics.hitting_self_s": (self_by_group["hitting"] / r, "s"),
            "dynamics.mixing_self_s": (self_by_group["mixing"] / r, "s"),
            "applications.search_self_s": (self_by_group["search"] / r, "s"),
            "applications.search_factor_per_call": (
                factor_in_search / calls["search"] if calls["search"] else 0.0, "count"),
            "applications.certificate_self_s": (self_by_group["certificate"] / r, "s"),
            "applications.centrality_self_s": (self_by_group["centrality"] / r, "s"),
            "topology.build_s": (incl["topo_build"] / r, "s"),
            "topology.probe_s": (incl["probe"] / r, "s"),
        })
        for p in PANELS:
            out[f"cli.panel.{p}_s"] = (panel[p] / r, "s")
        out["cli.bundle_bytes"] = (self.counts["cli.bundle_bytes"] / r, "bytes")
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = (self_by_layer[layer] / r, "s")
        out["trace.wall_s"] = (round_wall / r, "s")
        return out
