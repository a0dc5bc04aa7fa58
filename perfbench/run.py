"""qwalk benchmark: one closed-loop workload per process, every output checked.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The process pins the BLAS thread count before numpy loads, times
the library import (here and in two fresh interpreters, to take a median),
sets the workload up from ``--seed`` (several times, for the same reason),
then repeats the workload's fixed set of operations in rounds for about
``--seconds``.
Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics from the traced
ones, plus ``trace.overhead_s`` (traced minus untraced round time). See
README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib.machinery  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("search", "pair_walk", "gi", "reproduce")
BLAS_THREADS = 1  # steadiest on a shared 2-core box; recorded with every result
SETUP_REPS = 3
IMPORT_REPS = 3  # the import is timed in this process and in fresh ones
TAIL_PCT = 90


class Context:
    """What a workload round sees: ``op`` times a call and checks its result."""

    def __init__(self, skip, tracer):
        self.skip = skip
        self.tracer = tracer
        self.rounds: list[list[list[float]]] = []  # each op's segment times, per round
        self.calls = 0
        self.failures: list[str] = []

    def op(self, name, call, check, split=None):
        """Time ``call`` and check its result.

        With ``split`` (a module), each call of a qwalk function bound in
        that module is also timed, as one segment of the op; the op's own
        time outside them is its first segment.
        """
        self.calls += 1
        segments: list[float] = []
        t0 = time.perf_counter()
        dt = None
        try:
            with _timed_calls(split, segments):
                out = call()
            dt = time.perf_counter() - t0
            check(out)
        except Exception as exc:  # the library raised or the check rejected
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise self.skip from exc
        finally:
            total = time.perf_counter() - t0 if dt is None else dt
            self.rounds[-1].append([total - sum(segments), *segments])
        return out

    def span(self, name):
        return self.tracer.span(name)

    def count(self, name, value):
        self.tracer.count(name, value)


@contextlib.contextmanager
def _timed_calls(module, sink: list[float]):
    """Time every call of the qwalk functions bound in ``module`` into ``sink``.

    Only the module's own bindings are wrapped, so calls the library makes
    inside those functions are not split further and segments never overlap.
    """
    if module is None:
        yield
        return
    saved = {name: fn for name, fn in vars(module).items()
             if inspect.isfunction(fn) and fn.__module__.startswith("qwalk.")
             and fn.__module__ != module.__name__}

    def timed(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - t0)
        return call

    for name, fn in saved.items():
        setattr(module, name, timed(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def best_times(rounds: list[list[list[float]]]) -> list[float]:
    """Each operation's least-disturbed time over the rounds.

    The k-th operation of every round is the same call on the same input, and
    so is its j-th segment; each segment keeps its fastest time, and the
    operation's time is their sum. A long operation is thereby assembled from
    the quiet stretches of different rounds. An operation whose segment count
    differs between rounds keeps its fastest total instead.
    """
    out = []
    for k in range(max(map(len, rounds))):
        runs = [r[k] for r in rounds if k < len(r)]
        if len({len(segs) for segs in runs}) == 1:
            out.append(sum(min(seg) for seg in zip(*runs)))
        else:
            out.append(min(sum(segs) for segs in runs))
    return out


class _SourceLoader(importlib.machinery.SourceFileLoader):
    """Compiles a module from its source, never from cached bytecode."""

    def get_code(self, fullname):
        return self.source_to_code(self.get_data(self.path), self.path)


def _compile_from_source(*roots: Path) -> None:
    """Load every module found under ``roots`` with ``_SourceLoader``."""

    def hook(entry):
        path = Path(entry or ".").resolve()
        if not any(path == r or r in path.parents for r in roots):
            raise ImportError(entry)
        return importlib.machinery.FileFinder(
            str(path), (_SourceLoader, importlib.machinery.SOURCE_SUFFIXES))

    sys.path_hooks.insert(0, hook)
    sys.path_importer_cache.clear()


def environment() -> dict:
    """What a result depends on besides the code: versions, BLAS, threads."""
    import numpy as np
    import scipy

    env = {"git_sha": _git_sha(), "src_sha256": _source_digest(),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "machine": platform.machine(),
           "nproc": len(os.sched_getaffinity(0)),
           "blas_threads_requested": BLAS_THREADS,
           "blas_threads_applied": _openblas_threads(np)}
    with contextlib.redirect_stdout(None):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return env


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qwalk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _openblas_threads(np) -> int | None:
    """Thread count OpenBLAS reports, read from numpy's bundled library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(times)
    k = max(math.ceil(pct / 100 * len(ordered)) - 1, 0)
    return ordered[k], len(ordered) - k - 1


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, import_s: float = 0.0) -> dict:
    """Set up, run rounds for about ``seconds``, and fold the metrics."""
    import tracing
    import workloads

    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        wl = workloads.make(workload, smoke, scratch)
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            with tracer.installed(), tracer.span("bench.setup"):
                inputs = wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)
        plain = Context(workloads.Skip, tracing.NullTracer())
        traced = Context(workloads.Skip, tracer)
        walls = {False: [], True: []}
        start = time.perf_counter()
        while True:
            ctx = traced if trace and len(walls[False]) > len(walls[True]) else plain
            # each CPU of a shared VM has slow spells of its own; moving to the
            # next CPU every round lets an operation's best time come from
            # whichever CPU was quiet
            os.sched_setaffinity(0, {cpus[len(ctx.rounds) % len(cpus)]})
            ctx.rounds.append([])
            with ctx.tracer.installed():
                t0 = time.perf_counter()
                with ctx.span("bench.round"):
                    wl.round(inputs, ctx)
                wall = time.perf_counter() - t0
            walls[ctx is traced].append(wall)
            done = len(walls[False]) + len(walls[True])
            if done >= (2 if trace else 1) and time.perf_counter() - start + wall > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    failures = plain.failures + traced.failures
    attempted = plain.calls + traced.calls
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "walls": walls, "failures": failures, "tracer": tracer}
    if trace:
        metrics = tracer.metrics(len(walls[True]), SETUP_REPS)
        metrics["trace.overhead_s"] = (min(walls[True]) - min(walls[False]), "s")
    else:
        best = best_times(plain.rounds)
        p_tail, beyond = tail(best, TAIL_PCT)
        result["tail"] = (len(best), beyond)
        metrics = {
            "wall_s": (sum(best), "s"),
            "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "op_tail_ms": (p_tail * 1e3, "ms"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def report(args, result: dict, env: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    walls = result["walls"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds}")
    for traced, label in ((False, "untraced"), (True, "traced")):
        if walls[traced]:
            print(f"rounds {label} {len(walls[traced])}: "
                  + " ".join(f"{w:.3f}" for w in walls[traced]) + " s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            ops, beyond = result["tail"]
            note = f"  (p{TAIL_PCT} of {ops} per-op best times, {beyond} beyond)"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"fail_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for line in result["failures"][:10]:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))


def load_library() -> float:
    """Pin the BLAS threads, then import qwalk and the benchmark's modules.

    Returns the seconds since this file started running. Raises ImportError
    when ``src/qwalk`` cannot be imported from the checkout.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # the libraries the program and the benchmark use load from their installed
    # caches; the repository's own code is compiled from source in every run,
    # whatever __pycache__ a test run or an earlier checkout left behind
    import click  # noqa: F401
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    _compile_from_source(SRC, HERE)
    import qwalk
    import qwalk.cli  # noqa: F401  (the reproduce panels; traced like the rest)

    if Path(qwalk.__file__).resolve().parent != SRC / "qwalk":
        raise ImportError(f"qwalk resolved to {qwalk.__file__}")
    import checks  # noqa: F401
    import tracing  # noqa: F401
    import workloads  # noqa: F401

    return time.perf_counter() - _PROCESS_T0


def _load_in_fresh_process() -> float:
    """``load_library`` in a new interpreter, which starts as cold as this one."""
    code = f"import runpy; print(runpy.run_path({str(HERE / 'run.py')!r})['load_library']())"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import_times = [load_library()]
    except ImportError as exc:
        print(f"error: cannot import qwalk from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_times += [_load_in_fresh_process() for _ in range(IMPORT_REPS - 1)]
    import_s = statistics.median(import_times)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s=import_s)
    if args.trace:
        spans = ROOT / ".bench_spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        result["tracer"].dump(spans)
        print(f"spans {spans.relative_to(ROOT)}")
    report(args, result, environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
