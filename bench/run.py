"""Benchmark of adaptest through its CLI entry point, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run fails if it is not there.  Inputs (config files,
the low-degree loading CSV) are written from ``--seed`` into a temporary
directory under ``.bench_tmp/`` and removed at the end.

``--trace 0`` times the workload and prints the end-to-end metrics.
``--trace 1`` runs each call twice, untraced and then traced, and prints
the per-layer metrics and the tracing overhead.  Both check every output.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 3
WARMUP_REPEATS = 3
# Mean SpeedProbe time, by probe threads, on the reference host (2 vCPUs,
# Python 3.11, numpy 2.4, one BLAS thread).  Timed sections are scaled by
# this over the probe's mean time in the run, so wall_s reads in seconds of
# that host.
PROBE_REFERENCE_S = {1: 0.048, 2: 0.093}
PROBE_SHARE = 0.15

# Metric name -> (unit, better).  BENCHMARK.json lists the same metrics.
END_TO_END = {
    "reps_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_frac": ("ratio", "higher"),
    "mean_radius": ("xi_beta", "lower"),
    "power": ("ratio", "higher"),
}
RUN_LEVEL_LAYERS = {
    "harness.cpu_util": ("ratio", "higher"),
    "cli.bytes_written": ("B", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def per_layer() -> dict[str, tuple[str, str]]:
    import tracing

    return {**tracing.per_layer_units(), **RUN_LEVEL_LAYERS}


def pin_blas_threads() -> None:
    """One BLAS thread per process; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import adaptest.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "adaptest" / "__init__.py").is_file():
        raise RuntimeError(f"no adaptest package under {SRC}")
    sys.path.insert(0, str(SRC))
    import adaptest.cli

    if Path(adaptest.__file__).resolve().parent != SRC / "adaptest":
        raise RuntimeError(f"adaptest imported from {adaptest.__file__}, not {SRC}")
    return adaptest.cli


def fresh_import_seconds() -> float:
    """Time to import adaptest.cli in a new interpreter."""
    code = "import time; t = time.perf_counter(); import adaptest.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class SpeedProbe:
    """A fixed computation owned by the benchmark, mixing the kinds of work
    adaptest does: Python coordinate sweeps with small numpy updates, dense
    inverses and log-determinants, tall Gram products and Gaussian draws.  Timed between
    operations, it tracks the host's speed, which on a shared machine
    drifts by tens of percent over minutes.  With ``threads`` > 1 that many
    copies run at once, contending for the interpreter lock and the cores
    as a multi-threaded workload does."""

    def __init__(self, threads: int):
        import numpy as np

        rng = np.random.default_rng(0)
        self.threads = threads
        self.rng = np.random.Generator(np.random.Philox(key=[0, 0]))
        self.gram = rng.standard_normal((600, 600))
        self.lin = rng.standard_normal(600)
        a = rng.standard_normal((200, 200))
        self.spd = a @ a.T / 200 + np.eye(200)
        self.tall = rng.standard_normal((4000, 50))

    def _work(self) -> None:
        import numpy as np

        g, v = np.zeros(600), np.zeros(600)
        for _ in range(8):
            for j in range(600):
                z = self.lin[j] - g[j] + v[j]
                new = z - 0.5 if z > 0.5 else (z + 0.5 if z < -0.5 else 0.0)
                d = new - v[j]
                if d != 0.0:
                    g += self.gram[:, j] * (d * 1e-3)
                    v[j] = new
        for _ in range(4):
            np.linalg.slogdet(np.linalg.inv(self.spd))
        for _ in range(20):
            self.tall.T @ self.tall
        for _ in range(2):
            self.rng.standard_normal(self.tall.shape)

    def __call__(self) -> float:
        start = time.perf_counter()
        if self.threads == 1:
            self._work()
        else:
            with ThreadPoolExecutor(self.threads) as pool:
                for future in [pool.submit(self._work) for _ in range(self.threads)]:
                    future.result()
        return time.perf_counter() - start


@dataclass
class Pass:
    results: list
    wall_s: float  # the operations alone
    cpu_s: float  # CPU seconds of this process and its children during the operations
    probe_s: list = field(default_factory=list)


class Runner:
    """Runs CLI operations with their inputs and outputs under one
    temporary directory, and counts them."""

    def __init__(self, cli, tmp: Path):
        self.cli = cli
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self._passes = 0
        self._probe = None

    def write_input(self, name: str, text: str) -> Path:
        path = self.tmp / "inputs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def run_pass(self, ops, label: str, probe_threads: int = 0) -> Pass:
        """Run ``ops`` in order.  With ``probe_threads``, the speed probe on
        that many threads also runs before the first op and after each one,
        for PROBE_SHARE of its time."""
        from workloads import OpResult

        probe = probe_threads > 0
        if probe and (self._probe is None or self._probe.threads != probe_threads):
            self._probe = SpeedProbe(probe_threads)
        self._passes += 1
        base = self.tmp / f"{self._passes:02d}_{label}"
        calls = []
        for i, op in enumerate(ops):
            config = self.write_input(f"{base.name}_{i:03d}.cfg", op.config)
            out = base / f"{i:03d}"
            calls.append((op, [op.command, "--config", str(config), "--seed", str(op.seed), "--out", str(out)], out))
        done = Pass([], 0.0, 0.0)
        if probe:
            self._sample_speed(done, 0.0)
        for op, argv, out in calls:
            cpu0, start = os.times(), time.perf_counter()
            ok = self._call(argv)
            seconds = time.perf_counter() - start
            done.cpu_s += sum(os.times()[:4]) - sum(cpu0[:4])
            done.wall_s += seconds
            done.results.append(OpResult(op, out, ok, seconds))
            if probe:
                self._sample_speed(done, PROBE_SHARE * seconds)
        self.attempted += len(calls)
        self.failed += sum(not r.ok for r in done.results)
        return done

    def _sample_speed(self, done: Pass, budget: float) -> None:
        """Run the probe at least once and until it has run ``budget`` s, so
        the host's speed is sampled in proportion to the time measured."""
        spent = 0.0
        while True:
            done.probe_s.append(self._probe())
            spent += done.probe_s[-1]
            if spent >= budget:
                return

    def _call(self, argv) -> bool:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:
            print(f"operation {argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return False
        if code != 0:
            print(f"operation {argv} exited {code}: {sink.getvalue()}", file=sys.stderr)
        return code == 0


def bytes_written(results) -> int:
    return sum(p.stat().st_size for r in results if r.out.is_dir() for p in r.out.iterdir())


def run(workload_name: str, seed: int, seconds: float, trace: bool, tmp: Path, cli) -> tuple[dict, dict]:
    import tracing
    from workloads import WORKLOADS, csv_bytes

    work = WORKLOADS[workload_name]
    runner = Runner(cli, tmp)

    imports = [fresh_import_seconds() for _ in range(IMPORT_REPEATS)]
    warmups, states = [], []
    for _ in range(WARMUP_REPEATS):
        start = time.perf_counter()
        states.append(work.warmup(runner, seed))
        warmups.append(time.perf_counter() - start)
    state = states[0]
    fails = []
    if any(s != state for s in states):
        fails.append(f"warm-up is not deterministic: {states}")

    ops = work.ops(seed, seconds, state)
    if trace:
        # Each call runs untraced, then traced, so host drift cancels in the overhead.
        tracer = tracing.Tracer()
        plain, traced = [], []
        for op in ops:
            plain.append(runner.run_pass([op], "timed"))
            with tracer:
                traced.append(runner.run_pass([op], "traced"))
        timed = Pass([r for p in plain for r in p.results], sum(p.wall_s for p in plain), sum(p.cpu_s for p in plain))
        traced_wall = sum(p.wall_s for p in traced)
        if csv_bytes([r for p in traced for r in p.results]) != csv_bytes(timed.results):
            fails.append("traced result CSVs differ from untraced ones")
    else:
        timed = runner.run_pass(ops, "timed", probe_threads=work.threads)
    results = timed.results
    info = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "threads": work.threads, "operations": len(ops), "state": state,
            "op_seconds": [round(r.seconds, 4) for r in results], "raw_wall_s": timed.wall_s}
    if trace:
        info["rebound"] = tracer.rebound

    check_fails, stats = work.check(runner, results, seed, seconds, state)
    fails.extend(check_fails)
    for message in fails:
        print(f"check failed: {message}", file=sys.stderr)
    failed = min(runner.failed + len(fails), runner.attempted)

    if trace:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["harness.cpu_util"] = timed.cpu_s / (timed.wall_s * work.threads)
        metrics["cli.bytes_written"] = bytes_written(results)
        metrics["trace_overhead_frac"] = (traced_wall - timed.wall_s) / timed.wall_s
        self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        info["top_self_s"] = sorted(self_times.items(), key=lambda kv: -kv[1])[:5]
    else:
        # Host speed relative to the reference: the probe's reference time
        # over its mean time in this run.
        speed = PROBE_REFERENCE_S[work.threads] / statistics.fmean(timed.probe_s)
        wall = timed.wall_s * speed
        info.update(probe_s=[round(t, 5) for t in timed.probe_s], host_speed=speed)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "reps_per_s": sum(op.reps for op in ops) / wall,
            "wall_s": wall,
            "setup_s": statistics.median(imports) + statistics.median(warmups),
            "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
            "ok_frac": 1.0 - failed / runner.attempted,
            **stats,
        }
    units = per_layer() if trace else END_TO_END
    metrics = {name: {"value": metrics[name], "unit": units[name][0]} for name in units}
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        cli = import_package()
    except (RuntimeError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp), cli)
    print(json.dumps({"env": environment(), "run": info}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
