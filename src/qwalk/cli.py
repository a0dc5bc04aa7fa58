"""Command-line harness exposing every experiment as a subcommand.

Reports are JSON (self-describing: resolved config, package version, seed);
time series go to CSV. Output files are written atomically (temp file in
the target directory, then rename), and nothing here mutates input files.
Exit codes: 0 success, 2 validation error, 3 numerical non-convergence.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import __version__
from .applications import gi_test, qw_centrality, spatial_search
from .dynamics import (
    ConvergenceError,
    classical_hitting,
    classical_mixing_time,
    hitting_scaling,
    quantum_hitting,
    quantum_mixing_time,
)
from .evolution import (
    HermitianOperator,
    _check_series_size,
    _evolve_classical_many,
    basis_state,
)
from .graphs import (
    Graph,
    brute_force_isomorphic,
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
from .particles import (
    BOSON,
    ExtendedBasis,
    ParticleKind,
    build_extended_hamiltonian,
    extended_graph,
    two_particle_correlation,
)
from .topology import amcd, amcqm, build_topo_model

GENERATORS = {
    # family -> generator of the base graph from --size (and --p, --m, --seed)
    "glued-tree": lambda size, **_: generate_glued_tree(size),
    "hypercube": lambda size, **_: generate_hypercube(size),
    "cycle": lambda size, **_: generate_cycle(size),
    "path": lambda size, **_: generate_path(size),
    "star": lambda size, **_: generate_star(size),
    "complete": lambda size, **_: generate_complete(size),
    "er": lambda size, p, seed, **_: generate_erdos_renyi(size, p, seed),
    "scale-free": lambda size, m, seed, **_: generate_scale_free(size, m, seed),
}
FAMILIES = tuple(GENERATORS)
DYN_FAMILIES = {
    # family -> (base family, default size)
    "ergt": ("glued-tree", 5),
    "ecube": ("hypercube", 4),
    "enet": ("cycle", 20),
    "egrid": ("path", 19),
}
WALKER_DEFAULTS = {
    # walker -> experiment -> values for the options a run leaves unset
    "quantum": {"hitting": {"t_max": 60.0, "dt": 0.05}, "mixing": {"horizon": 200.0}},
    "classical": {"hitting": {"t_max": 2000.0, "dt": 2.0}, "mixing": {"horizon": 400.0}},
}


# -- plumbing ------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    # numpy scalars and arrays that json cannot write itself become Python values
    text = json.dumps(obj, indent=2, sort_keys=True, default=lambda o: o.tolist())
    _write_atomic(path, text + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _report(ctx, name: str, payload: dict, **resolved) -> Path:
    """Write <out-dir>/<name>.json. Its config is the command's parameters,
    under their own names so that ``--config`` replays it, with the values
    the command resolved itself in place of the unset ones."""
    out = Path(ctx.obj["out_dir"]) / f"{name}.json"
    _write_json(out, {
        "command": name,
        "version": __version__,
        "seed": ctx.obj["seed"],
        "config": {**ctx.params, **resolved},
        **payload,
    })
    click.echo(f"wrote {out}")
    return out


def _guarded(f):
    """Map validation errors to exit 2, non-convergence to exit 3."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ConvergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _base_graph(family, size, p, m, seed, graph_file):
    if graph_file is not None:
        return Graph.load(graph_file)
    if family is None:
        raise ValueError("give either --graph or --family")
    if family not in GENERATORS:
        raise ValueError(f"unknown family {family!r}")
    return GENERATORS[family](size, p=p, m=m, seed=seed)


def _dyn_setup(family: str, size: int | None):
    """Size, base graph, its boson pair basis and corner start/target for
    hitting/mixing; each walker builds the pair operator it reads."""
    if family not in DYN_FAMILIES:
        raise ValueError(f"family must be one of {', '.join(DYN_FAMILIES)}")
    base_family, default_size = DYN_FAMILIES[family]
    size = default_size if size is None else size
    base = GENERATORS[base_family](size)
    basis = ExtendedBasis(base.n, BOSON)
    return size, base, basis, basis.index(0, 0), basis.index(base.n - 1, base.n - 1)


def _unset_to_default(walker: str, experiment: str, **options) -> dict:
    """The options, each unset (None) one taken from WALKER_DEFAULTS."""
    defaults = WALKER_DEFAULTS[walker][experiment]
    return {k: defaults[k] if v is None else v for k, v in options.items()}


def _hitting(setup, walker: str, t_max=None, dt=None):
    """Corner-to-corner hitting of one walker; returns the result and its grid."""
    _, base, _, start, target = setup
    grid = _unset_to_default(walker, "hitting", t_max=t_max, dt=dt)
    if walker == "quantum":
        res = quantum_hitting(build_extended_hamiltonian(base, BOSON)[1], start, target, **grid)
    else:
        res = classical_hitting(extended_graph(base, BOSON)[1], start, target, **grid)
    return res, grid


def _mixing(setup, walker: str, eps: float, dt: float, horizon=None):
    """Epsilon-mixing of one walker from the start corner; returns the result
    and its horizon."""
    _, base, basis, start, _ = setup
    horizon = _unset_to_default(walker, "mixing", horizon=horizon)["horizon"]
    psi0 = basis_state(len(basis), start)
    if walker == "quantum":
        res = quantum_mixing_time(build_extended_hamiltonian(base, BOSON)[1], psi0, eps, horizon, dt)
    else:
        res = classical_mixing_time(extended_graph(base, BOSON)[1], psi0.real, eps, horizon, dt)
    return res, horizon


def _search_instance(n: int, p: float, marked_count: int, seed: int):
    """Boson-extended G(n, p) and sorted marked extended vertices, both from seed."""
    base = generate_erdos_renyi(n, p, seed)
    _, ext = extended_graph(base, BOSON)
    rng = np.random.default_rng(np.uint64(seed))
    marked = sorted(int(x) for x in rng.choice(ext.n, size=marked_count, replace=False))
    return ext, marked


_GRAPH_OPTIONS = [
    click.option("--graph", "graph_file", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="Graph JSON file (overrides --family)."),
    click.option("--family", type=click.Choice(FAMILIES), default=None),
    click.option("--size", type=int, default=10, show_default=True),
    click.option("--p", type=float, default=0.3, show_default=True,
                 help="Edge probability for --family er."),
    click.option("--m", type=int, default=2, show_default=True,
                 help="Attachment count for --family scale-free."),
]


def _graph_options(f):
    for opt in reversed(_GRAPH_OPTIONS):
        f = opt(f)
    return f


# -- entry point ---------------------------------------------------------


@click.group()
@click.version_option(__version__)
@click.option("--seed", type=click.IntRange(0, 2**63 - 1), default=7, show_default=True,
              help="Master seed in 0..2**63-1; all randomness derives from it.")
@click.option("--out-dir", type=click.Path(file_okay=False), default="qwalk-out",
              show_default=True)
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file of option defaults; unknown fields rejected.")
@click.pass_context
def main(ctx, seed, out_dir, config_path):
    """Continuous-time quantum walk experiments."""
    ctx.ensure_object(dict)
    ctx.obj["seed"] = seed
    ctx.obj["out_dir"] = out_dir
    if config_path is not None:
        try:
            cfg = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            click.echo(f"error: malformed config: {exc}", err=True)
            sys.exit(2)
        if not isinstance(cfg, dict):
            click.echo("error: config must be a JSON object", err=True)
            sys.exit(2)
        known = set()
        for cmd in main.commands.values():
            known.update(p.name for p in cmd.params)
        unknown = sorted(set(cfg) - known)
        if unknown:
            click.echo(f"error: unknown config fields: {', '.join(unknown)}", err=True)
            sys.exit(2)
        ctx.default_map = {
            name: {k: v for k, v in cfg.items() if k in {p.name for p in cmd.params}}
            for name, cmd in main.commands.items()
        }


# -- subcommands ---------------------------------------------------------


@main.command("graph")
@_graph_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output path [default: <out-dir>/graph.json].")
@click.pass_context
@_guarded
def graph_cmd(ctx, graph_file, family, size, p, m, out):
    """Generate a graph and write it as JSON."""
    g = _base_graph(family, size, p, m, ctx.obj["seed"], graph_file)
    out = Path(out) if out else Path(ctx.obj["out_dir"]) / "graph.json"
    _write_atomic(out, g.to_json() + "\n")
    click.echo(f"wrote {out} (n={g.n}, edges={len(g.edges)})")


@main.command("evolve")
@_graph_options
@click.option("--walker", type=click.Choice(["quantum", "classical"]),
              default="quantum", show_default=True)
@click.option("--start", type=int, default=0, show_default=True)
@click.option("--t-final", type=float, default=10.0, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True)
@click.pass_context
@_guarded
def evolve_cmd(ctx, graph_file, family, size, p, m, walker, start, t_final, steps):
    """Evolve a single walker and emit the probability time series."""
    g = _base_graph(family, size, p, m, ctx.obj["seed"], graph_file)
    if not (0 <= start < g.n):
        raise ValueError("start vertex out of range")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    _check_series_size(g.n, steps + 1)
    times = np.linspace(0.0, t_final, steps + 1)
    if walker == "quantum":
        h = HermitianOperator.from_graph(g)
        states = h.evolve_many(basis_state(g.n, start), times)
        probs = np.abs(states) ** 2
    else:
        probs = _evolve_classical_many(g, basis_state(g.n, start).real, times)
    csv_path = Path(ctx.obj["out_dir"]) / "evolve.csv"
    _write_csv(csv_path, ["t"] + [f"v{i}" for i in range(g.n)],
               [[t, *probs[:, k]] for k, t in enumerate(times)])
    _report(ctx, "evolve", {
        "final_distribution": probs[:, -1],
        "trace_csv": str(csv_path),
    })


@main.command("correlate")
@_graph_options
@click.option("--particles", default="boson", show_default=True,
              help="distinguishable | boson | fermion | phase:<radians>")
@click.option("--inputs", default="0,1", show_default=True,
              help="Comma-separated input modes a,b.")
@click.option("--time", "t", type=float, default=1.0, show_default=True)
@click.pass_context
@_guarded
def correlate_cmd(ctx, graph_file, family, size, p, m, particles, inputs, t):
    """Two-particle output correlations through U = exp(-iAt)."""
    g = _base_graph(family, size, p, m, ctx.obj["seed"], graph_file)
    kind = ParticleKind.parse(particles)
    try:
        a, b = (int(x) for x in inputs.split(","))
    except ValueError:
        raise ValueError(f"--inputs a,b takes two comma-separated integers, got {inputs!r}") from None
    u = HermitianOperator.from_graph(g).propagator(t)
    basis, probs = two_particle_correlation(u, (a, b), kind)
    _report(ctx, "correlate", {"basis": basis.to_json_list(), "probabilities": probs})


@main.command("hitting")
@click.option("--family", type=click.Choice(sorted(DYN_FAMILIES)), required=True)
@click.option("--size", type=int, default=None,
              help="Base-graph size parameter (family default if omitted).")
@click.option("--walker", type=click.Choice(["quantum", "classical"]),
              default="quantum", show_default=True)
@click.option("--t-max", type=float, default=None,
              help="[default: 60 quantum, 2000 classical]")
@click.option("--dt", type=float, default=None,
              help="[default: 0.05 quantum, 2.0 classical]")
@click.pass_context
@_guarded
def hitting_cmd(ctx, family, size, walker, t_max, dt):
    """Corner-to-corner hitting on a boson-extended graph."""
    setup = _dyn_setup(family, size)
    size, _, basis, start, target = setup
    res, grid = _hitting(setup, walker, t_max, dt)
    csv_path = Path(ctx.obj["out_dir"]) / f"hitting_{family}_{walker}.csv"
    _write_csv(csv_path, ["t", "p_target"], zip(res.times, res.profile))
    _report(ctx, "hitting", {
        "extended_dim": len(basis),
        "start": start,
        "target": target,
        "t_opt": res.t_opt,
        "efficiency": res.efficiency,
        "peak_at_boundary": res.peak_at_boundary,
        "profile_csv": str(csv_path),
    }, size=size, **grid)


@main.command("mixing")
@click.option("--family", type=click.Choice(sorted(DYN_FAMILIES)), required=True)
@click.option("--size", type=int, default=None)
@click.option("--walker", type=click.Choice(["quantum", "classical"]),
              default="quantum", show_default=True)
@click.option("--eps", type=float, default=0.25, show_default=True)
@click.option("--horizon", type=float, default=None,
              help="[default: 200 quantum, 400 classical]")
@click.option("--dt", type=float, default=0.05, show_default=True)
@click.pass_context
@_guarded
def mixing_cmd(ctx, family, size, walker, eps, horizon, dt):
    """Epsilon-mixing time on a boson-extended graph."""
    setup = _dyn_setup(family, size)
    size, _, basis, *_ = setup
    res, horizon = _mixing(setup, walker, eps, dt, horizon)
    csv_path = Path(ctx.obj["out_dir"]) / f"mixing_{family}_{walker}.csv"
    _write_csv(csv_path, ["t", "tv_distance"], zip(res.times, res.trace))
    _report(ctx, "mixing", {
        "extended_dim": len(basis),
        "t_mix": res.t_mix,
        "trace_csv": str(csv_path),
    }, size=size, horizon=horizon)


@main.command("centrality")
@click.option("--n", type=int, default=10, show_default=True,
              help="Base scale-free graph size.")
@click.option("--m", type=int, default=2, show_default=True)
@click.option("--t-final", type=float, default=1000.0, show_default=True)
@click.option("--steps", type=int, default=1000, show_default=True)
@click.option("--limiting/--finite-horizon", default=True, show_default=True,
              help="Exact spectral limit vs finite-horizon average.")
@click.pass_context
@_guarded
def centrality_cmd(ctx, n, m, t_final, steps, limiting):
    """Walk centrality vs eigenvector centrality on an extended graph."""
    base = generate_scale_free(n, m, ctx.obj["seed"])
    rep = qw_centrality(base, BOSON, t_final=t_final, steps=steps,
                        use_limiting=limiting)
    _report(ctx, "centrality", {
        "similarity": rep.similarity,
        "qw_scores": rep.qw_scores,
        "ev_scores": rep.ev_scores,
        "qw_ranking": rep.qw_ranking,
        "ev_ranking": rep.ev_ranking,
    })


@main.command("search")
@click.option("--n", type=int, default=10, show_default=True,
              help="Base Erdos-Renyi graph size.")
@click.option("--p", type=float, default=0.25, show_default=True)
@click.option("--marked-count", type=int, default=3, show_default=True)
@click.option("--gamma", default="auto", show_default=True,
              help="'auto' or a fixed hopping rate.")
@click.option("--horizon", type=float, default=None,
              help="[default: sqrt(extended dim)]")
@click.pass_context
@_guarded
def search_cmd(ctx, n, p, marked_count, gamma, horizon):
    """Spatial search for random marked vertices on a boson-extended graph."""
    ext, marked = _search_instance(n, p, marked_count, ctx.obj["seed"])
    res = spatial_search(ext, marked, gamma_strategy=gamma, horizon=horizon)
    _report(ctx, "search", {
        "extended_dim": ext.n,
        "marked": marked,
        "t_opt": res.t_opt,
        "success": res.success,
        "gamma_used": res.gamma,
        "peak_at_boundary": res.peak_at_boundary,
    })


@main.command("gi")
@click.option("--graph1", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--graph2", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--threshold", type=float, default=0.05, show_default=True)
@click.pass_context
@_guarded
def gi_cmd(ctx, graph1, graph2, threshold):
    """Walk-certificate isomorphism test of two graph JSON files."""
    g1 = Graph.load(graph1)
    g2 = Graph.load(graph2)
    verdict, trace = gi_test(g1, g2, threshold=threshold)
    _report(ctx, "gi", {
        "verdict": verdict,
        "mean_distance": float(trace.mean()) if len(trace) else None,
        "distance_trace": trace,
    })


@main.command("topo")
@click.option("--flavor", type=click.Choice(["ssh2d", "bbh"]), default="ssh2d",
              show_default=True)
@click.option("--nx", type=int, default=6, show_default=True)
@click.option("--ny", type=int, default=6, show_default=True)
@click.option("--v", type=float, default=0.1, show_default=True)
@click.option("--w", type=float, default=1.0, show_default=True)
@click.option("--probe", type=click.Choice(["amcd", "amcqm"]), default="amcd",
              show_default=True)
@click.option("--dimension", type=click.Choice(["x", "y"]), default="y",
              show_default=True, help="Displacement axis for the amcd probe.")
@click.option("--t-final", type=float, default=50.0, show_default=True)
@click.option("--steps", type=int, default=200, show_default=True)
@click.pass_context
@_guarded
def topo_cmd(ctx, flavor, nx, ny, v, w, probe, dimension, t_final, steps):
    """Chiral displacement / quadrupole probes of lattice topology."""
    model = build_topo_model(flavor, nx, ny, v, w)
    if probe == "amcd":
        value = amcd(model, dimension, t_final=t_final, steps=steps)
    else:
        value = amcqm(model, t_final=t_final, steps=steps)
    _report(ctx, "topo", {"n_sites": model.n_sites, "value": value})


# -- figure reproduction -------------------------------------------------


def _verdict(name, value, passed, **bounds):
    """One check of a panel's summary.json: name, value, bounds and verdict."""
    return {"check": name, "value": value, **bounds, "pass": bool(passed)}


def _check(name, value, expected, tol):
    return _verdict(name, float(value), abs(value - expected) <= tol,
                    expected=float(expected), tolerance=float(tol))


def _check_range(name, value, lo, hi):
    return _verdict(name, float(value), lo <= value <= hi, range=[float(lo), float(hi)])


def _fig_hitting(fig_dir, family):
    setup = _dyn_setup(family, None)
    qr, _ = _hitting(setup, "quantum")
    cr, _ = _hitting(setup, "classical")
    _write_csv(fig_dir / f"{family}_quantum_profile.csv", ["t", "p_target"],
               zip(qr.times, qr.profile))
    _write_csv(fig_dir / f"{family}_classical_profile.csv", ["t", "p_target"],
               zip(cr.times, cr.profile))
    q_ref, c_ref = (0.7059, 0.0095) if family == "ergt" else (0.9582, 0.0073)
    checks = [
        _check(f"{family} quantum efficiency", qr.efficiency, q_ref, 0.02),
        _check(f"{family} classical efficiency", cr.efficiency, c_ref, 0.002),
        _check_range(f"{family} quantum/classical ratio",
                     qr.efficiency / cr.efficiency, 50.0, float("inf")),
    ]
    extra = {"quantum": {"t_opt": qr.t_opt, "efficiency": qr.efficiency},
             "classical": {"t_opt": cr.t_opt, "efficiency": cr.efficiency}}
    if family == "ergt":
        # decay-shape comparison across tree depths; the default depth's
        # results are the headline ones above
        q_res, c_res = {setup[0]: qr}, {setup[0]: cr}
        for layers in (3, 7):
            setup = _dyn_setup(family, layers)
            q_res[layers], _ = _hitting(setup, "quantum")
            c_res[layers], _ = _hitting(setup, "classical")
        q_fit = hitting_scaling(q_res)
        c_fit = hitting_scaling(c_res)
        checks.append(_verdict("classical decay exponential", c_fit["better_model"],
                               c_fit["better_model"] == "exponential"))
        checks.append(_verdict("quantum decay sub-exponential", q_fit["better_model"],
                               q_fit["better_model"] == "linear"))
        extra["quantum_scaling"] = q_fit
        extra["classical_scaling"] = c_fit
    return checks, extra


def _loglog_exponent(sizes, tmix):
    slope, _ = np.polyfit(np.log(np.asarray(sizes, float)),
                          np.log(np.asarray(tmix, float)), 1)
    return float(slope)


def _fig_mixing(fig_dir, family):
    if family == "enet":
        sizes = list(range(8, 21, 2))
    else:
        sizes = [8, 11, 14, 17, 19]
    rows = []
    for size in sizes:
        setup = _dyn_setup(family, size)
        qt, ct = (_mixing(setup, w, 0.25, 0.05)[0].t_mix for w in ("quantum", "classical"))
        rows.append((size, len(setup[2]), qt, ct))
    _write_csv(fig_dir / f"{family}_mixing.csv",
               ["size", "extended_dim", "t_mix_quantum", "t_mix_classical"], rows)
    qt = [r[2] for r in rows]
    ct = [r[3] for r in rows]
    checks = [
        _check_range(f"{family} quantum/classical t_mix at largest size",
                     qt[-1] / ct[-1], 0.0, 0.6),
    ]
    extra = {"sizes": sizes, "t_mix_quantum": qt, "t_mix_classical": ct}
    if family == "enet":
        qe = _loglog_exponent(sizes, qt)
        ce = _loglog_exponent(sizes, ct)
        checks.insert(0, _check_range("quantum mixing exponent", qe, 0.7, 1.3))
        checks.insert(1, _check_range("classical mixing exponent", ce, 1.7, 2.3))
        extra["quantum_exponent"] = qe
        extra["classical_exponent"] = ce
    return checks, extra


def _fig_centrality(fig_dir, seed):
    base = generate_scale_free(10, 2, seed)
    rep = qw_centrality(base, BOSON)
    _write_csv(fig_dir / "centrality_scores.csv", ["vertex", "qw_score", "ev_score"],
               [(i, rep.qw_scores[i], rep.ev_scores[i]) for i in range(len(rep.qw_scores))])
    top3_overlap = len(set(rep.qw_ranking[:3]) & set(rep.ev_ranking[:3]))
    checks = [
        _check_range("centrality cosine similarity", rep.similarity, 0.9, 1.0),
        _check_range("top-3 ranking overlap", top3_overlap, 2, 3),
    ]
    return checks, {"similarity": rep.similarity,
                    "qw_ranking": rep.qw_ranking,
                    "ev_ranking": rep.ev_ranking}


def _fig_search(fig_dir, seed):
    sizes = [5, 6, 8, 10, 12, 14]
    n_seeds = 8
    rows = []
    boundary_peaks = 0
    for base_n in sizes:
        for k in range(n_seeds):
            ext, marked = _search_instance(base_n, 0.25, 3, seed + 1000 * base_n + k)
            res = spatial_search(ext, marked)
            rows.append((base_n, ext.n, res.t_opt, res.success, res.gamma))
            boundary_peaks += res.peak_at_boundary
    _write_csv(fig_dir / "search_sweep.csv",
               ["base_n", "extended_dim", "t_opt", "success", "gamma"], rows)
    dims = np.array([r[1] for r in rows], float)
    topts = np.array([r[2] for r in rows], float)
    succ = np.array([r[3] for r in rows], float)
    a, b = np.polyfit(np.sqrt(dims), topts, 1)
    checks = [
        _check_range("search sqrt(N) slope", a, 0.5, 1.1),
        _check_range("mean search success", succ.mean(), 0.35, 0.65),
    ]
    return checks, {"slope": float(a), "intercept": float(b),
                    "mean_success": float(succ.mean()), "boundary_peaks": boundary_peaks}


def _fig_gi(fig_dir, seed):
    rng = np.random.default_rng(np.uint64(seed))
    base = generate_erdos_renyi(8, 0.35, seed)
    perm = rng.permutation(base.n)
    iso_verdict, iso_trace = gi_test(base, permute_graph(base, perm))
    other = generate_erdos_renyi(8, 0.35, seed + 1)
    attempts = 1
    while brute_force_isomorphic(base, other):
        attempts += 1
        other = generate_erdos_renyi(8, 0.35, seed + attempts)
    noniso_verdict, noniso_trace = gi_test(base, other)
    star_verdict, _ = gi_test(generate_path(4), generate_star(4))
    _write_csv(fig_dir / "gi_traces.csv", ["time_index", "iso_l1", "noniso_l1"],
               zip(range(len(iso_trace)), iso_trace, noniso_trace))
    checks = [
        _verdict("isomorphic pair consistent", iso_verdict,
                 iso_verdict == "consistent-with-isomorphic"),
        _check_range("isomorphic pair mean L1", float(iso_trace.mean()), 0.0, 1e-9),
        _verdict("non-isomorphic ER pair flagged", noniso_verdict,
                 noniso_verdict == "non-isomorphic"),
        _verdict("path(4) vs star(4) flagged", star_verdict, star_verdict == "non-isomorphic"),
    ]
    return checks, {"iso_mean": float(iso_trace.mean()),
                    "noniso_mean": float(noniso_trace.mean())}


def _fig_topology(fig_dir):
    results = {}
    for label, v, w in (("topological", 0.1, 1.0), ("trivial", 1.0, 0.1)):
        ssh = build_topo_model("ssh2d", 6, 6, v, w)
        bbh = build_topo_model("bbh", 6, 6, v, w)
        results[label] = {"amcd_y": amcd(ssh, "y"), "amcqm": amcqm(bbh)}
    _write_csv(fig_dir / "topology_values.csv",
               ["amcd_topo", "amcd_trivial", "amcqm_topo", "amcqm_trivial"],
               [(results["topological"]["amcd_y"], results["trivial"]["amcd_y"],
                 results["topological"]["amcqm"], results["trivial"]["amcqm"])])
    checks = [
        _check("SSH2D AMCD_y topological", results["topological"]["amcd_y"], 0.5, 0.05),
        _check("SSH2D AMCD_y trivial", results["trivial"]["amcd_y"], 0.0, 0.05),
        _check("BBH AMCQM topological", results["topological"]["amcqm"], 0.5, 0.05),
        _check("BBH AMCQM trivial", results["trivial"]["amcqm"], 0.0, 0.05),
    ]
    return checks, results


FIGURES = {
    # figure id -> panel(fig_dir, seed) -> (checks, results)
    "2A": lambda fig_dir, seed: _fig_hitting(fig_dir, "ergt"),
    "2B": lambda fig_dir, seed: _fig_hitting(fig_dir, "ecube"),
    "2C": lambda fig_dir, seed: _fig_mixing(fig_dir, "enet"),
    "2D": lambda fig_dir, seed: _fig_mixing(fig_dir, "egrid"),
    "3A": _fig_centrality,
    "3B": _fig_search,
    "3C": _fig_gi,
    "3D": lambda fig_dir, seed: _fig_topology(fig_dir),
}
FIGURE_IDS = tuple(FIGURES)


@main.command("reproduce")
@click.argument("figure_id")
@click.pass_context
@_guarded
def reproduce_cmd(ctx, figure_id):
    """Run the preconfigured desk-scale sweep for one figure panel."""
    figure_id = figure_id.upper()
    if figure_id not in FIGURE_IDS:
        click.echo(f"error: unknown figure id {figure_id!r}; "
                   f"valid ids: {', '.join(FIGURE_IDS)}", err=True)
        sys.exit(2)
    seed = ctx.obj["seed"]
    fig_dir = Path(ctx.obj["out_dir"]) / f"fig{figure_id}"
    checks, extra = FIGURES[figure_id](fig_dir, seed)
    summary = {
        "figure": figure_id,
        "version": __version__,
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "results": extra,
    }
    _write_json(fig_dir / "summary.json", summary)
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        click.echo(f"[{status}] {c['check']}: {c['value']}")
    click.echo(f"wrote {fig_dir / 'summary.json'}")


if __name__ == "__main__":
    main()
