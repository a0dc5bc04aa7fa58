"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each test computes its criterion verdict first, prints a single summary
line, then asserts, so the verdict is visible in captured output either
way. Runtime budgets are asserted alongside the numerical checks.
"""

import json
import math
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qwalk import (
    BOSON,
    HermitianOperator,
    ParticleKind,
    amcd,
    amcqm,
    basis_state,
    brute_force_isomorphic,
    build_topo_model,
    classical_hitting,
    classical_mixing_time,
    correlation_via_extended_walk,
    evolve_classical,
    evolve_quantum,
    extended_graph,
    generate_erdos_renyi,
    generate_cycle,
    generate_glued_tree,
    generate_hypercube,
    gi_test,
    graph_certificate,
    hitting_scaling,
    permute_graph,
    quantum_hitting,
    quantum_mixing_time,
    spatial_search,
    two_particle_correlation,
)
from qwalk.cli import main as cli_main

# the reproduce verdicts the benchmark's reproduce workload checks against
VERDICTS = Path(__file__).resolve().parents[1] / "perfbench" / "verdicts.json"


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _corner_hitting(base, t_max_q=60.0, dt_q=0.05, t_max_c=2000.0, dt_c=2.0):
    basis, ext = extended_graph(base, BOSON)
    s, t = basis.index(0, 0), basis.index(base.n - 1, base.n - 1)
    q = quantum_hitting(HermitianOperator.from_graph(ext), s, t, t_max_q, dt_q)
    c = classical_hitting(ext, s, t, t_max_c, dt_c)
    return q, c


def test_criterion_1_mapping_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(3, 9))
        g = generate_erdos_renyi(n, 0.5, seed=int(rng.integers(0, 2**31)))
        tag = ["distinguishable", "boson", "fermion"][trial % 3]
        kind = ParticleKind(tag)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        if tag == "boson" and trial % 5 == 0:
            b = a  # exercise doubly-occupied inputs too
        t = float(rng.uniform(0.0, 20.0))
        u = HermitianOperator.from_graph(g).propagator(t)
        _, p_direct = two_particle_correlation(u, (a, b), kind)
        _, p_walk = correlation_via_extended_walk(g, kind, (a, b), t)
        worst = max(worst, float(np.abs(p_direct - p_walk).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10
    _verdict(1, "mapping equivalence", ok,
             f"200 trials, max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_glued_tree_hitting():
    t0 = time.monotonic()
    q, c = _corner_hitting(generate_glued_tree(5))
    # Column-space reduction (Childs et al., STOC 2003): the uniform states
    # on the columns 1, 2, 4, 4, 2, 1 of the depth-5 glued tree span an
    # invariant subspace on which A acts as the 6-site path L with couplings
    # sqrt2, sqrt2, 1, sqrt2, sqrt2 (each parent feeds two children; the
    # leaf gluing is a perfect matching). Both roots are single vertices, so
    # U_{13,0}(t) = <c5| exp(-iLt) |c0>, and two bosons that start together
    # on the entrance reach the exit together with amplitude U_{13,0}^2:
    # P(t) = |<c5| exp(-iLt) |c0>|^4. The paper's 0.7059 is the chip's
    # measured efficiency, noise included, so it is printed only as a
    # reference. The classical walker tends to the uniform 1/105.
    r2 = math.sqrt(2)
    lw, lv = np.linalg.eigh(np.diag([r2, r2, 1.0, r2, r2], 1)
                            + np.diag([r2, r2, 1.0, r2, r2], -1))

    def exact(t):
        amp = np.exp(-1j * np.outer(np.atleast_1d(t), lw)) @ (lv[5, :] * lv[0, :])
        return np.abs(amp) ** 4

    profile_err = float(np.abs(q.profile - exact(q.times)).max())
    peak_err = abs(q.efficiency - float(exact(q.t_opt)[0]))
    ratio = q.efficiency / c.efficiency
    # decay shapes across tree depths
    q_res, c_res = {5: q}, {5: c}
    for layers in (3, 7):
        q_res[layers], c_res[layers] = _corner_hitting(generate_glued_tree(layers))
    q_fit = hitting_scaling(q_res)
    c_fit = hitting_scaling(c_res)
    elapsed = time.monotonic() - t0
    ok = (profile_err <= 1e-10
          and peak_err <= 1e-10
          and abs(c.efficiency - 0.0095) <= 0.002
          and ratio > 50
          and c_fit["better_model"] == "exponential"
          and q_fit["better_model"] == "linear"
          and elapsed < 60)
    _verdict(2, "glued-tree hitting", ok,
             f"q={q.efficiency:.5f} (paper measured 0.7059) at t={q.t_opt:.5f}, "
             f"max |P - |<c5|exp(-iLt)|c0>|^4| {profile_err:.1e}, "
             f"peak error {peak_err:.1e}, "
             f"c={c.efficiency:.5f} (band 0.0095+/-0.002), ratio={ratio:.0f}, "
             f"classical decay {c_fit['better_model']}, "
             f"quantum decay {q_fit['better_model']}, {elapsed:.1f}s")


def test_criterion_3_hypercube_hitting():
    t0 = time.monotonic()
    q, c = _corner_hitting(generate_hypercube(4), t_max_q=20.0, dt_q=0.01)
    elapsed = time.monotonic() - t0
    # The walk on Q_d factorizes, exp(-iAt) = (cos t I - i sin t X)^(x)d, so
    # on the 4-cube U_{15,0}(t) = (-i sin t)^4. Two bosons that start together
    # on corner 0 reach corner 15 together with amplitude U_{15,0}^2, hence
    # the exact pair transfer P(t) = sin^16 t, which reaches 1 at every
    # t = pi/2 + k pi (Christandl et al., PRL 92, 187902, 2004). quantum_hitting
    # does not promise the earliest peak, so any of them counts. The paper's
    # 0.9582 is the chip's measured efficiency, noise included; the ideal
    # simulator cannot reproduce it, so it is printed only as a reference.
    # The classical walker tends to the uniform 1/136.
    profile_err = float(np.abs(q.profile - np.sin(q.times) ** 16).max())
    ratio = q.efficiency / c.efficiency
    ok = (abs(q.efficiency - 1.0) <= 1e-9
          and profile_err <= 1e-10
          and abs(math.cos(q.t_opt)) <= 1e-6
          and abs(c.efficiency - 0.0073) <= 0.002
          and ratio > 100
          and elapsed < 60)
    _verdict(3, "hypercube hitting", ok,
             f"q={q.efficiency:.10f} (exact 1; paper measured 0.9582) "
             f"at t={q.t_opt:.7f}, max |P - sin^16 t| {profile_err:.1e}, "
             f"c={c.efficiency:.5f} (band 0.0073+/-0.002), "
             f"ratio={ratio:.0f}, {elapsed:.1f}s")


def test_criterion_4_mixing_scaling():
    t0 = time.monotonic()
    sizes = list(range(8, 21, 2))
    qts, cts = [], []
    for n in sizes:
        base = generate_cycle(n)
        basis, ext = extended_graph(base, BOSON)
        start = basis.index(0, 0)
        h = HermitianOperator.from_graph(ext)
        qts.append(quantum_mixing_time(h, basis_state(ext.n, start),
                                       0.25, 200.0, 0.05).t_mix)
        p0 = np.zeros(ext.n)
        p0[start] = 1.0
        cts.append(classical_mixing_time(ext, p0, 0.25, 400.0, 0.05).t_mix)
    qe = float(np.polyfit(np.log(sizes), np.log(qts), 1)[0])
    ce = float(np.polyfit(np.log(sizes), np.log(cts), 1)[0])
    halved = qts[-1] <= 0.6 * cts[-1]
    elapsed = time.monotonic() - t0
    ok = 0.7 <= qe <= 1.3 and 1.7 <= ce <= 2.3 and halved and elapsed < 300
    _verdict(4, "mixing scaling", ok,
             f"quantum exponent {qe:.2f}, classical {ce:.2f}, "
             f"t_mix ratio {qts[-1] / cts[-1]:.2f}, {elapsed:.0f}s")


def test_criterion_5_search_scaling():
    t0 = time.monotonic()
    sizes = [5, 6, 8, 10, 12, 14, 16, 18, 20]
    dims, topts, succs = [], [], []
    boundary = 0
    for base_n in sizes:
        for k in range(20):
            seed = 31_000 + 1000 * base_n + k
            base = generate_erdos_renyi(base_n, 0.25, seed)
            _, ext = extended_graph(base, BOSON)
            rng = np.random.default_rng(np.uint64(seed))
            marked = sorted(int(x) for x in
                            rng.choice(ext.n, size=3, replace=False))
            res = spatial_search(ext, marked)
            dims.append(ext.n)
            topts.append(res.t_opt)
            succs.append(res.success)
            boundary += res.peak_at_boundary
    a, b = np.polyfit(np.sqrt(dims), topts, 1)
    mean_succ = float(np.mean(succs))
    elapsed = time.monotonic() - t0
    ok = 0.5 <= a <= 1.1 and 0.35 <= mean_succ <= 0.65 and elapsed < 900
    _verdict(5, "search scaling", ok,
             f"t_opt = {a:.3f} sqrt(N) + {b:.2f}, mean success "
             f"{mean_succ:.3f}, {len(dims)} instances ({boundary} peaks on the "
             f"window edge), {elapsed:.0f}s")


def test_criterion_6_gi_soundness_and_power():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    # soundness: 200 isomorphic pairs on graphs up to n = 20
    iso_dists = []
    for k in range(200):
        n = int(rng.integers(10, 21))
        g = generate_erdos_renyi(n, 0.3, seed=50_000 + k)
        gp = permute_graph(g, list(rng.permutation(n)))
        c1 = graph_certificate(g)
        c2 = graph_certificate(gp)
        iso_dists.append(float(np.abs(c1.sorted_profiles
                                      - c2.sorted_profiles).sum(axis=1).mean()))
    mean_iso = float(np.mean(iso_dists))
    # power: 200 non-isomorphic same-degree-sequence pairs (oracle-verified)
    buckets: dict = {}
    pairs = []
    seed = 0
    while len(pairs) < 200:
        g = generate_erdos_renyi(8, 0.4, seed=70_000 + seed)
        seed += 1
        key = tuple(sorted(int(d) for d in g.degrees()))
        for other in buckets.get(key, []):
            if len(pairs) >= 200:
                break
            if not brute_force_isomorphic(g, other):
                pairs.append((g, other))
        buckets.setdefault(key, []).append(g)
    flagged = sum(1 for g1, g2 in pairs
                  if gi_test(g1, g2, threshold=0.05)[0] == "non-isomorphic")
    elapsed = time.monotonic() - t0
    ok = mean_iso < 1e-9 and flagged >= 0.95 * len(pairs) and elapsed < 300
    _verdict(6, "gi soundness and power", ok,
             f"mean isomorphic distance {mean_iso:.2e}, flagged "
             f"{flagged}/{len(pairs)} non-isomorphic, {elapsed:.0f}s")


def test_criterion_7_topology():
    t0 = time.monotonic()
    vals = {}
    for label, v, w in (("topo", 0.1, 1.0), ("trivial", 1.0, 0.1)):
        ssh = build_topo_model("ssh2d", 6, 6, v, w)
        bbh = build_topo_model("bbh", 6, 6, v, w)
        h = np.real(ssh.hamiltonian.entries)
        gamma = np.diag(ssh.chiral)
        assert np.abs(gamma @ h @ gamma + h).max() < 1e-9
        vals[label] = (amcd(ssh, "y", t_final=50.0, steps=200),
                       amcqm(bbh, t_final=50.0, steps=200))
    elapsed = time.monotonic() - t0
    ok = (abs(vals["topo"][0] - 0.5) <= 0.05 and abs(vals["trivial"][0]) <= 0.05
          and abs(vals["topo"][1] - 0.5) <= 0.05
          and abs(vals["trivial"][1]) <= 0.05 and elapsed < 300)
    _verdict(7, "topology", ok,
             f"AMCD_y {vals['topo'][0]:.3f}/{vals['trivial'][0]:.3f}, "
             f"AMCQM {vals['topo'][1]:.3f}/{vals['trivial'][1]:.3f}, "
             f"{elapsed:.0f}s")


def test_criterion_8_invariant_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    # unitarity
    for _ in range(100):
        dim = int(rng.integers(2, 25))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = HermitianOperator((m + m.conj().T) / 2)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        psi = evolve_quantum(h, psi0, float(rng.uniform(-100, 100)))
        assert abs(np.linalg.norm(psi) - 1) < 1e-9
    # stochasticity
    for k in range(100):
        g = generate_erdos_renyi(int(rng.integers(3, 12)), 0.5,
                                 seed=80_000 + k)
        p0 = rng.random(g.n)
        p0 /= p0.sum()
        p = evolve_classical(g, p0, float(rng.uniform(0, 20)))
        assert p.min() >= 0 and abs(p.sum() - 1) < 1e-9
    # composition
    for _ in range(100):
        dim = int(rng.integers(2, 12))
        m = rng.normal(size=(dim, dim))
        h = HermitianOperator((m + m.T) / 2)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        t1, t2 = rng.uniform(-10, 10, size=2)
        once = evolve_quantum(h, psi0, t1 + t2)
        twice = evolve_quantum(h, evolve_quantum(h, psi0, t1), t2)
        assert np.abs(once - twice).max() < 1e-8
    # certificate permutation invariance
    for k in range(100):
        g = generate_erdos_renyi(7, 0.45, seed=90_000 + k)
        gp = permute_graph(g, list(rng.permutation(7)))
        d = np.abs(graph_certificate(g).sorted_profiles
                   - graph_certificate(gp).sorted_profiles).max()
        assert d < 1e-10
    # epsilon-monotonicity of mixing time
    for k in range(100):
        g = generate_erdos_renyi(8, 0.4, seed=95_000 + k)
        p0 = np.zeros(8)
        p0[0] = 1.0
        e1, e2 = sorted(rng.uniform(0.05, 0.45, size=2))
        if e1 == e2:
            continue
        t_small = classical_mixing_time(g, p0, e1, 100.0, 0.05).t_mix
        t_large = classical_mixing_time(g, p0, e2, 100.0, 0.05).t_mix
        assert t_small >= t_large
    elapsed = time.monotonic() - t0
    _verdict(8, "invariant suite", elapsed < 120,
             f"5 invariants x 100 instances, {elapsed:.0f}s")


def test_criterion_9_reproduce_determinism(tmp_path):
    t0 = time.monotonic()
    runner = CliRunner()
    figures = ["2A", "2B", "2C", "2D", "3A", "3B", "3C", "3D"]
    table = json.loads(VERDICTS.read_text())
    recorded = {**table["seed_independent"], **table["by_seed"]["13"]}
    for fig in figures:
        d1 = tmp_path / f"{fig}_r1"
        d2 = tmp_path / f"{fig}_r2"
        for d in (d1, d2):
            res = runner.invoke(cli_main, ["--seed", "13", "--out-dir", str(d),
                                           "reproduce", fig],
                                catch_exceptions=False)
            assert res.exit_code == 0, res.output
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2 and files1, fig
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), (fig, rel)
        # check names and verdicts are the contract the benchmark holds
        summary = json.loads((d1 / f"fig{fig}" / "summary.json").read_text())
        assert {c["check"]: c["pass"] for c in summary["checks"]} == recorded[fig], fig
    # thread-count invariance
    dthreads = {}
    for threads in ("1", "2"):
        d = tmp_path / f"threads_{threads}"
        res = runner.invoke(cli_main, ["--seed", "13", "--threads", threads,
                                       "--out-dir", str(d), "reproduce", "3D"],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
        dthreads[threads] = (d / "fig3D" / "summary.json").read_bytes()
    assert dthreads["1"] == dthreads["2"]
    elapsed = time.monotonic() - t0
    _verdict(9, "reproduce determinism", True,
             f"8 bundles byte-identical across reruns and thread counts, "
             f"{elapsed:.0f}s")
