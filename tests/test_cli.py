"""End-to-end CLI behavior: reports, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qwalk import (
    BOSON,
    Graph,
    HermitianOperator,
    basis_state,
    correlation_via_extended_walk,
    extended_graph,
    generate_cycle,
    generate_path,
    generate_star,
    permute_graph,
    quantum_hitting,
    quantum_mixing_time,
    qw_centrality,
)
from qwalk import cli
from qwalk.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args, expect=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


def test_graph_roundtrip_and_determinism(runner, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["--seed", "5", "--out-dir", str(tmp_path)]
    _run(runner, base + ["graph", "--family", "er", "--size", "12",
                         "--p", "0.4", "--out", str(out1)])
    _run(runner, base + ["graph", "--family", "er", "--size", "12",
                         "--p", "0.4", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert obj["n"] == 12


def test_evolve_writes_csv_and_report(runner, tmp_path):
    _run(runner, ["--out-dir", str(tmp_path), "evolve", "--family", "cycle",
                  "--size", "5", "--t-final", "2", "--steps", "10"])
    report = json.loads((tmp_path / "evolve.json").read_text())
    assert len(report["final_distribution"]) == 5
    csv_lines = (tmp_path / "evolve.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "t,v0,v1,v2,v3,v4"
    assert len(csv_lines) == 12  # header + 11 grid points


def test_correlate_cross_check(runner, tmp_path):
    _run(runner, ["--out-dir", str(tmp_path), "correlate", "--family", "cycle",
                  "--size", "4", "--particles", "boson",
                  "--inputs", "0,2", "--time", "1.3"])
    report = json.loads((tmp_path / "correlate.json").read_text())
    _, p_walk = correlation_via_extended_walk(generate_cycle(4), BOSON, (0, 2), 1.3)
    assert np.abs(np.array(report["probabilities"]) - p_walk).max() < 1e-10
    assert "extended_walk_max_error" not in report
    assert abs(sum(report["probabilities"]) - 1.0) < 1e-9


def test_correlate_factorizes_only_the_base_graph(runner, tmp_path, eigh_calls):
    _run(runner, ["--out-dir", str(tmp_path), "correlate", "--family", "er", "--size", "12"])
    assert eigh_calls == [(12, 12)]


@pytest.mark.parametrize("inputs", ["0", "0,1,2", "0,x", ""])
def test_correlate_malformed_inputs_exit_2(runner, tmp_path, inputs):
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "correlate", "--family", "cycle",
                                  "--size", "4", "--inputs", inputs])
    assert result.exit_code == 2, result.output
    assert f"--inputs a,b takes two comma-separated integers, got {inputs!r}" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_search_nonpositive_horizon_exit_2(runner, tmp_path, horizon):
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "search", "--n", "5",
                                  "--horizon", horizon])
    assert result.exit_code == 2, result.output
    assert f"horizon must be positive, got {float(horizon)}" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("horizon, on_edge", [("0.5", True), ("20", False)])
def test_search_report_flags_a_peak_on_the_window_edge(runner, tmp_path, horizon, on_edge):
    _run(runner, ["--out-dir", str(tmp_path), "search", "--n", "5", "--horizon", horizon])
    report = json.loads((tmp_path / "search.json").read_text())
    assert report["peak_at_boundary"] is on_edge
    assert (report["t_opt"] == float(horizon)) is on_edge


def test_oversized_extended_graph_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "centrality", "--n", "130"])
    assert result.exit_code == 2, result.output
    assert "dense adjacency of 8515 vertices" in result.output
    assert "over the limit of 2**26" in result.output


def test_gi_takes_a_base_past_the_extended_size_limit(runner, tmp_path):
    # 130 vertices have the 8,515 boson states that centrality refuses above;
    # a certificate builds no extended graph, so gi runs
    g = generate_cycle(130)
    (tmp_path / "a.json").write_text(g.to_json())
    (tmp_path / "b.json").write_text(
        permute_graph(g, list(np.random.default_rng(0).permutation(130))).to_json())
    _run(runner, ["--out-dir", str(tmp_path), "gi", "--graph1", str(tmp_path / "a.json"),
                  "--graph2", str(tmp_path / "b.json")])
    report = json.loads((tmp_path / "gi.json").read_text())
    assert report["verdict"] == "consistent-with-isomorphic"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["search", "--gamma", "nan"],
    ["search", "--gamma", "inf"],
    ["search", "--gamma", "-inf"],
    ["search", "--horizon", "inf"],
    ["topo", "--v", "nan"],
    ["topo", "--t-final", "nan"],
    ["correlate", "--family", "cycle", "--size", "4", "--time", "nan"],
    ["centrality", "--finite-horizon", "--t-final", "nan"],
    ["evolve", "--family", "cycle", "--size", "4", "--t-final", "nan"],
], ids=["search-gamma-nan", "search-gamma-inf", "search-gamma-minus-inf", "search-horizon",
        "topo-v", "topo-t", "correlate-time", "centrality-t", "evolve-t"])
def test_non_finite_option_exit_2(runner, tmp_path, args):
    result = runner.invoke(main, ["--out-dir", str(tmp_path)] + args)
    assert result.exit_code == 2, result.output
    # the refusal is the only thing on stderr: no numpy warning before it
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "must be finite" in result.stderr
    assert not any(tmp_path.iterdir())


def test_hitting_report(runner, tmp_path):
    _run(runner, ["--out-dir", str(tmp_path), "hitting", "--family", "ecube",
                  "--walker", "quantum", "--t-max", "5", "--dt", "0.01"])
    report = json.loads((tmp_path / "hitting.json").read_text())
    assert report["extended_dim"] == 136
    assert abs(report["efficiency"] - 1.0) < 1e-6


def test_mixing_nonconvergence_exit_3(runner, tmp_path):
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "mixing",
                                  "--family", "enet", "--size", "8",
                                  "--eps", "0.01", "--horizon", "2",
                                  "--dt", "0.1"])
    assert result.exit_code == 3


def test_gi_cli(runner, tmp_path):
    base = ["--out-dir", str(tmp_path)]
    _run(runner, base + ["graph", "--family", "path", "--size", "4",
                         "--out", str(tmp_path / "p.json")])
    _run(runner, base + ["graph", "--family", "star", "--size", "4",
                         "--out", str(tmp_path / "s.json")])
    _run(runner, base + ["gi", "--graph1", str(tmp_path / "p.json"),
                         "--graph2", str(tmp_path / "s.json")])
    report = json.loads((tmp_path / "gi.json").read_text())
    assert report["verdict"] == "non-isomorphic"


def test_topo_cli(runner, tmp_path):
    _run(runner, ["--out-dir", str(tmp_path), "topo", "--flavor", "ssh2d",
                  "--probe", "amcd", "--dimension", "y",
                  "--v", "0.1", "--w", "1.0"])
    report = json.loads((tmp_path / "topo.json").read_text())
    assert abs(report["value"] - 0.5) < 0.05


def test_config_file_defaults(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "ecube", "t_max": 5.0, "dt": 0.01}))
    _run(runner, ["--out-dir", str(tmp_path), "--config", str(cfg), "hitting"])
    report = json.loads((tmp_path / "hitting.json").read_text())
    assert report["config"]["t_max"] == 5.0


def test_config_unknown_field_exit_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    result = runner.invoke(main, ["--config", str(cfg), "hitting",
                                  "--family", "ecube"])
    assert result.exit_code == 2
    assert "bogus" in result.output


def test_malformed_config_exit_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    result = runner.invoke(main, ["--config", str(cfg), "hitting",
                                  "--family", "ecube"])
    assert result.exit_code == 2
    # no partial outputs
    assert not (Path("qwalk-out") / "hitting.json").exists()


def test_reproduce_invalid_id_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "reproduce", "9Z"])
    assert result.exit_code == 2
    assert "valid ids" in result.output


def test_reproduce_bundle_deterministic(runner, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    _run(runner, ["--seed", "11", "--out-dir", str(d1), "reproduce", "3D"])
    _run(runner, ["--seed", "11", "--out-dir", str(d2), "reproduce", "3D"])
    f1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
    f2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
    assert f1 == f2
    for rel in f1:
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()
    summary = json.loads((d1 / "fig3D" / "summary.json").read_text())
    assert summary["all_pass"]


def test_evolve_classical_factorizes_generator_once(runner, tmp_path, eigh_calls):
    _run(runner, ["--out-dir", str(tmp_path), "evolve", "--family", "cycle",
                  "--size", "5", "--walker", "classical", "--t-final", "2"])
    # the walk from vertex 0 of cycle(5) stays on its cells {0}, {1, 4}, {2, 3}
    assert eigh_calls == [(3, 3)]
    report = json.loads((tmp_path / "evolve.json").read_text())
    assert abs(sum(report["final_distribution"]) - 1.0) < 1e-9


def test_reproduce_summary_writes_json_booleans(runner, tmp_path):
    _run(runner, ["--out-dir", str(tmp_path), "reproduce", "2B"])
    text = (tmp_path / "fig2B" / "summary.json").read_text()
    summary = json.loads(text)
    checks = {c["check"]: c for c in summary["checks"]}
    # the measured on-chip band 0.9582 +/- 0.02 cannot hold for the ideal walk
    assert checks["ecube quantum efficiency"]["pass"] is False
    assert checks["ecube classical efficiency"]["pass"] is True
    assert summary["all_pass"] is False
    assert '"pass": 0' not in text and '"pass": 1' not in text


def test_threads_option_is_gone_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["--threads", "1", "--out-dir", str(tmp_path), "graph",
                                  "--family", "path", "--size", "3"])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output and "--threads" in result.output
    assert "--threads" not in runner.invoke(main, ["--help"]).output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["evolve", "--family", "cycle", "--size", "5", "--t-final", "2", "--steps", "10"],
    ["correlate", "--family", "cycle", "--size", "4", "--inputs", "0,2", "--time", "1.3"],
    ["hitting", "--family", "ecube", "--t-max", "5", "--dt", "0.01"],
    ["mixing", "--family", "enet", "--size", "8", "--walker", "classical"],
], ids=lambda args: args[0])
def test_report_config_replays(runner, tmp_path, args):
    first, again = tmp_path / "first", tmp_path / "again"
    _run(runner, ["--out-dir", str(first)] + args)
    report = json.loads((first / f"{args[0]}.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(report["config"]))
    _run(runner, ["--out-dir", str(again), "--config", str(cfg), args[0]])
    replayed = json.loads((again / f"{args[0]}.json").read_text())
    assert replayed["config"] == report["config"]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_out_of_range_exit_2(runner, tmp_path, seed):
    result = runner.invoke(main, ["--seed", seed, "--out-dir", str(tmp_path), "graph",
                                  "--family", "er"])
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output and seed in result.output
    assert not (tmp_path / "graph.json").exists()


@pytest.mark.parametrize("family, size, walker, t_opt", [
    ("ecube", None, "classical", 2000.0), ("ergt", "3", "classical", 2.0),
    ("ergt", None, "quantum", None)])
def test_hitting_report_flags_a_peak_on_the_window_edge(runner, tmp_path, family, size, walker,
                                                        t_opt):
    # the 3-layer classical profile still rises at t = 2; by the default
    # t_max of 2000 it sits on its 1/N plateau, where rounding picks t_opt
    grid = ["--t-max", "2", "--dt", "0.05"] if t_opt == 2.0 else []
    _run(runner, ["--out-dir", str(tmp_path), "hitting", "--family", family, "--walker", walker]
         + (["--size", size] if size else []) + grid)
    report = json.loads((tmp_path / "hitting.json").read_text())
    assert report["peak_at_boundary"] is (t_opt is not None)
    if t_opt is not None:
        assert report["t_opt"] == t_opt


def test_classical_evolve_refuses_a_negative_time_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "evolve", "--family", "cycle",
                                  "--size", "6", "--walker", "classical", "--t-final", "-1"])
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: a classical walk runs forward only: times must be >= 0, got -1.0\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (["mixing", "--family", "enet", "--dt", "0"], "dt must be positive, got 0.0"),
    (["hitting", "--family", "enet", "--dt", "-1"], "dt must be positive, got -1.0"),
    (["topo", "--steps", "0"], "steps must be >= 1, got 0"),
    (["topo", "--probe", "amcqm", "--flavor", "bbh", "--steps", "0"], "steps must be >= 1, got 0"),
    (["topo", "--probe", "amcqm", "--flavor", "bbh", "--t-final", "-2"], "T must be positive, got -2.0"),
    (["hitting", "--family", "enet", "--t-max", "nan"], "t_max must be finite, got nan"),
    (["mixing", "--family", "enet", "--horizon", "inf"], "horizon must be finite, got inf"),
    (["gi", "--graph1", "{path}", "--graph2", "{star}", "--threshold", "nan"],
     "threshold must be finite and non-negative, got nan"),
    (["gi", "--graph1", "{path}", "--graph2", "{star}", "--threshold", "inf"],
     "threshold must be finite and non-negative, got inf"),
    (["gi", "--graph1", "{cycle}", "--graph2", "{cycle}", "--threshold", "-1"],
     "threshold must be finite and non-negative, got -1.0"),
], ids=["mixing-dt", "hitting-dt", "amcd-steps", "amcqm-steps", "amcqm-t", "hitting-nan",
        "mixing-inf", "gi-threshold-nan", "gi-threshold-inf", "gi-threshold-negative"])
def test_nonpositive_grid_exit_2(runner, tmp_path, args, message):
    files = {}  # the graph files gi's cases name
    for name, g in (("path", generate_path(4)), ("star", generate_star(4)),
                    ("cycle", generate_cycle(4))):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(g.to_json())
    result = runner.invoke(main, ["--out-dir", str(tmp_path)] + [a.format(**files) for a in args])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "gi.json").exists()


@pytest.mark.parametrize("args, message", [
    (["hitting", "--family", "enet", "--dt", "1e-6"], "1.26e+10 state-time values"),
    (["mixing", "--family", "enet", "--dt", "1e-7"], "on 210 states"),
    (["evolve", "--family", "cycle", "--size", "10", "--steps", "100000000"], "1e+08 points"),
    (["topo", "--steps", "1000000000"], "1e+09 points"),
    (["topo", "--probe", "amcqm", "--flavor", "bbh", "--steps", "1000000000"], "1e+09 points"),
    (["search", "--n", "5", "--horizon", "1e9"], "on 15 states"),
    (["search", "--n", "5", "--gamma", "1", "--horizon", "1e308"], "inf points"),
], ids=["hitting", "mixing", "evolve", "amcd", "amcqm", "search", "search-overflow"])
def test_oversized_time_grid_exit_2(runner, tmp_path, args, message):
    result = runner.invoke(main, ["--out-dir", str(tmp_path)] + args)
    assert result.exit_code == 2, result.output
    assert "over the limit of 2**26" in result.output and message in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("family, size", [("ergt", 3), ("ergt", 5), ("ecube", 3), ("ecube", 4),
                                          ("enet", 8), ("enet", 20), ("egrid", 8), ("egrid", 19)])
def test_pair_route_matches_the_dense_extended_operator(family, size):
    # the hitting and mixing commands' quantum walker, factorized from the
    # base graph, against the dense eigh of the extended graph it walks on
    setup = cli._dyn_setup(family, size)
    _, base, _, start, target = setup
    _, ext = extended_graph(base, BOSON)
    dense = HermitianOperator.from_graph(ext)
    hit, grid = cli._hitting(setup, "quantum")
    ref = quantum_hitting(dense, start, target, **grid)
    assert np.array_equal(hit.times, ref.times)
    assert np.abs(hit.profile - ref.profile).max() <= 1e-12
    assert abs(hit.efficiency - ref.efficiency) <= 1e-12
    assert abs(hit.t_opt - ref.t_opt) <= 1e-9 * ref.t_opt
    mix, horizon = cli._mixing(setup, "quantum", 0.25, 0.05)
    ref = quantum_mixing_time(dense, basis_state(ext.n, start), 0.25, horizon, 0.05)
    assert np.array_equal(mix.times, ref.times)
    assert np.abs(mix.trace - ref.trace).max() <= 1e-12
    assert mix.t_mix == ref.t_mix


@pytest.mark.parametrize("family", cli.DYN_FAMILIES)
def test_pair_route_factors_only_the_base_graph(family, monkeypatch, eigh_calls):
    # quantum hitting, mixing and centrality on the boson pair build no dense
    # matrix larger than the base, check no factorization larger than it and
    # build no extended graph
    base_family, size = cli.DYN_FAMILIES[family]
    n = cli.GENERATORS[base_family](size).n
    dense, checked, extended = [], [], []
    adjacency, set_spectrum, build = Graph.adjacency, HermitianOperator._set_spectrum, cli.extended_graph

    def recording_adjacency(g):
        dense.append(g.n)
        return adjacency(g)

    def recording_set_spectrum(h, w, v):
        if h.entries is not None:
            checked.append(h.dim)
        set_spectrum(h, w, v)

    monkeypatch.setattr(Graph, "adjacency", recording_adjacency)
    monkeypatch.setattr(HermitianOperator, "_set_spectrum", recording_set_spectrum)
    monkeypatch.setattr(cli, "extended_graph", lambda *args: extended.append(args) or build(*args))
    setup = cli._dyn_setup(family, None)
    cli._hitting(setup, "quantum")
    cli._mixing(setup, "quantum", 0.25, 0.05)
    qw_centrality(cli.GENERATORS[base_family](size))
    assert dense and max(dense) == n
    assert checked == [n] * 3
    assert eigh_calls == [(n, n)] * 3
    assert extended == []
