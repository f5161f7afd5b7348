"""Self-tests of the benchmark.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracing
from workloads import SIZE_POWER, WORKLOADS, csv_bytes

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def cli():
    return run.import_package()


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_rebinding_reaches_every_reference(cli):
    modules = [m for k, m in sys.modules.items() if k == "adaptest" or k.startswith("adaptest.")]
    originals = {name: getattr(sys.modules[f"adaptest.{name.split('.')[0]}"], name.split(".")[1]) for name in tracing.LAYER_STATS}
    with tracing.Tracer() as tracer:
        for name, original in originals.items():
            assert tracer.rebound[name], name
            for mod in modules:
                assert all(value is not original for value in vars(mod).values()), (name, mod.__name__)
        assert {"adaptest.cli.chi2_mixture_mc", "adaptest.priors.chi2_mixture_mc"} <= set(tracer.rebound["priors.chi2_mixture_mc"])
        assert sys.modules["adaptest.cli"].chi2_mixture_mc.__wrapped__ is originals["priors.chi2_mixture_mc"]
    for name, original in originals.items():
        module, func = name.split(".")
        assert getattr(sys.modules[f"adaptest.{module}"], func) is original


def test_traced_and_untraced_csvs_are_identical(cli):
    tmp_root = run.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        runner = run.Runner(cli, Path(tmp))
        ops = SIZE_POWER.ops(seed=5, seconds=0.8, state={"tau": 10.0})
        plain = runner.run_pass(ops, "plain").results
        with tracing.Tracer() as tracer:
            traced = runner.run_pass(ops, "traced").results
        assert runner.failed == 0
        assert csv_bytes(traced) == csv_bytes(plain)
        assert all(csv_bytes(plain))
        layers = tracing.layer_metrics(tracer.spans)
        assert layers["estimators.scaled_lasso.calls"] == 2 * sum(op.reps for op in ops)
        assert layers["cli.main.self_s"] > 0.0


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in [*declared, *run.per_layer(), *WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reduced_size_smoke_run(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run():
    done = _bench("--workload", "size_power", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert set(result["metrics"]) == set(run.per_layer())


def test_fails_without_the_program():
    tmp_root = run.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _bench("--workload", "size_power", "--seed", "1", "--seconds", "1", cwd=tmp)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
