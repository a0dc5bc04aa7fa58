"""Self-test of the benchmark: tiny smoke runs and checker rejection.

    python3 -m pytest perfbench -q

Runs in-process on the workloads' smoke sizes, so it takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import qwalk as qw  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# counts that later changes may cite: they must repeat exactly
EXACT = ("evolution.factor_calls", "evolution.factor_complex_calls", "evolution.factor_work",
         "applications.search_factor_per_call", "graphs.iso_calls", "cli.bundle_bytes",
         "particles.extend_calls", "particles.extend_dim_max")


def _units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = run.measure(workload, seed=3, seconds=0.2, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0, result["failures"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_emits_every_layer_metric_and_repeats_counts(workload, tmp_path):
    first, second = (run.measure(workload, seed=5, seconds=0.2, trace=True, smoke=True)
                     for _ in range(2))
    assert first["correct"] and second["correct"], first["failures"] + second["failures"]
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    # the layer self times and the caller's own time make up the traced round
    m = {k: v["value"] for k, v in first["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
    assert layers == pytest.approx(m["trace.wall_s"], rel=1e-6)
    spans = tmp_path / "spans.jsonl"
    first["tracer"].dump(spans)
    lines = spans.read_text().splitlines()
    assert len(lines) == len(first["tracer"].spans)
    assert json.loads(lines[-1])["name"] == "bench.round"


def test_best_times_take_each_segment_from_its_fastest_round():
    rounds = [[[1.0, 5.0, 2.0], [0.5]],
              [[2.0, 3.0, 4.0], [0.4]]]
    assert run.best_times(rounds) == pytest.approx([6.0, 0.4])
    # segment counts that differ between rounds: the fastest whole op
    assert run.best_times([[[1.0, 5.0]], [[2.0]]]) == pytest.approx([2.0])


def test_split_op_times_the_module_bindings_and_restores_them():
    from qwalk import cli

    before = dict(vars(cli))
    ctx = run.Context(workloads.Skip, tracing.NullTracer())
    ctx.rounds.append([])
    ctx.op("cycles", lambda: [cli.generate_cycle(n) for n in (4, 5)], lambda r: None, split=cli)
    assert vars(cli) == before
    (segments,) = ctx.rounds[-1]
    assert len(segments) == 3 and min(segments) >= 0


def _reject(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


def test_search_check_rejects_a_perturbed_success():
    base = qw.generate_erdos_renyi(5, 0.4, 11)
    _, ext = qw.extended_graph(base, qw.BOSON)
    adj = checks.dense_adjacency(ext.n, ext.edges)
    res = qw.spatial_search(ext, [0, 4, 7])
    checks.search(adj, [0, 4, 7], res)
    _reject(checks.search, adj, [0, 4, 7], dataclasses.replace(res, success=res.success + 1e-6))
    _reject(checks.search, adj, [0, 4, 7], dataclasses.replace(res, t_opt=res.t_opt + 1e-3))


def test_pair_walk_checks_reject_perturbed_results():
    g = qw.generate_glued_tree(3)
    adj = checks.dense_adjacency(g.n, g.edges)
    basis, ext = qw.extended_graph(g, qw.BOSON)
    checks.boson_extension(g.n, len(g.edges), (basis, ext))
    _reject(checks.boson_extension, g.n, len(g.edges) + 1, (basis, ext))
    h = qw.HermitianOperator.from_graph(ext)
    w, v = h.spectral_decompose()
    checks.spectrum(ext.edges, (w, v))
    _reject(checks.spectrum, ext.edges, (w + 1e-6, v))
    s, t = basis.index(0, 0), basis.index(g.n - 1, g.n - 1)
    res = qw.quantum_hitting(h, s, t, 60.0, 0.05)
    checks.quantum_hitting(adj, 0, g.n - 1, res, 60.0)
    _reject(checks.quantum_hitting, adj, 0, g.n - 1,
            dataclasses.replace(res, efficiency=res.efficiency + 1e-9), 60.0)
    p0 = [1.0 if i == s else 0.0 for i in range(ext.n)]
    mix = qw.classical_mixing_time(ext, p0, 0.25, 400.0, 0.05)
    checks.mixing(mix, 0.25, 400.0, uniform=True)
    _reject(checks.mixing, dataclasses.replace(mix, trace=mix.trace + 0.3), 0.25, 400.0)
    u = qw.HermitianOperator.from_graph(g).propagator(0.7)
    out = qw.two_particle_correlation(u, (0, 2), qw.BOSON)
    checks.correlation(adj, (0, 2), 0.7, out)
    _reject(checks.correlation, adj, (0, 2), 0.7, (out[0], out[1][::-1]))
    checks.band(0.52, 0.5)
    _reject(checks.band, 0.56, 0.5)


def test_gi_checks_reject_wrong_verdicts():
    g = qw.generate_erdos_renyi(6, 0.5, 3)
    g2 = qw.permute_graph(g, [5, 4, 3, 2, 1, 0])
    out = qw.gi_test(g, g2)
    checks.gi_verdict(out, isomorphic=True, relabelled=True)
    _reject(checks.gi_verdict, ("non-isomorphic", out[1]), True, True)
    _reject(checks.gi_verdict, (out[0], out[1] + 1e-6), True, True)
    checks.iso_verdict(qw.brute_force_isomorphic(g, g2), True)
    _reject(checks.iso_verdict, False, True)


def test_panel_check_rejects_a_changed_verdict(tmp_path):
    table = json.loads(workloads.VERDICTS.read_text())
    expected = workloads.expected_verdicts(table, "3D", 0)
    out = workloads.run_panel("3D", 0, tmp_path)
    checks.panel(out, expected)
    first = next(iter(expected))
    _reject(checks.panel, out, {**expected, first: not expected[first]})
    _reject(checks.panel, (2, out[1]), expected)


def test_by_design_failures_are_recorded_as_failures():
    table = json.loads(workloads.VERDICTS.read_text())["seed_independent"]
    assert table["2A"]["ergt quantum efficiency"] is False
    assert table["2B"]["ecube quantum efficiency"] is False


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "search", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
