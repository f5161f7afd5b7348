"""Spans around the calls into adaptest's public functions, recorded from
the benchmark's own files without touching the package.

Each traced function is wrapped, and every reference to it in the loaded
``adaptest.*`` modules is rebound to the wrapper.  ``cli`` and ``harness``
import names with ``from ... import``, so patching only the defining
module would miss their calls.  Spans are kept on a per-thread stack in
memory and aggregated into per-layer metrics when the traced section ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# Traced function -> the statistics reported for it.  A function's name is
# "<module>.<function>" relative to the adaptest package.
LAYER_STATS = {
    "estimators.scaled_lasso": ("calls", "self_s", "p50_ms", "p90_ms", "outer_iters", "converged_frac"),
    "estimators.projection_direction": ("calls", "self_s", "p50_ms", "p90_ms", "feasible_frac"),
    "estimators.sample_cov": ("calls", "self_s"),
    "model.generate_dataset": ("calls", "self_s", "p50_ms"),
    "profiles.regime_and_cutoff": ("calls", "self_s"),
    "profiles.solve_zeta": ("calls",),
    "inference.mixed_test": ("calls", "self_s"),
    "inference.mixed_ci": ("calls", "self_s"),
    "harness.run_experiment": ("self_s",),
    "priors.chi2_pair_integral": ("calls", "self_s", "p50_ms", "p90_ms"),
    "priors.chi2_pair_closed_form": ("calls", "self_s"),
    "priors.chi2_mixture_mc": ("self_s",),
    "priors.sample_nu2_prior": ("calls", "self_s", "valid_frac"),
    "priors.sample_comp_prior": ("calls", "self_s", "valid_frac"),
    "lowdeg.ld_norm": ("calls", "self_s"),
    "scca.gen_scca": ("calls", "self_s"),
    "scca.scan_stat": ("calls", "self_s"),
    "scca.stat_report": ("self_s",),
    "cli.main": ("self_s",),
}

STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "outer_iters": ("count", "lower"),
    "converged_frac": ("ratio", "higher"),
    "feasible_frac": ("ratio", "higher"),
    "valid_frac": ("ratio", "higher"),
}


def _counters(name: str, result) -> dict:
    """Counts read from a traced function's return value."""
    if name == "estimators.scaled_lasso":
        return {"outer_iters": result.iterations, "converged": int(result.converged)}
    if name == "estimators.projection_direction":
        return {"feasible": int(result.feasible)}
    if name in ("priors.sample_nu2_prior", "priors.sample_comp_prior"):
        return {"valid": int(result.valid)}
    return {}


@dataclass
class Span:
    name: str
    thread: int
    parent: str | None
    start: float
    end: float
    child_s: float
    counters: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans land in ``tracer.spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rebound: dict[str, list[str]] = {}
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                counters = _counters(name, result) if result is not None else {}
                self.spans.append(Span(name, threading.get_ident(), parent, start, end, frame[1], counters))

        return traced

    def install(self) -> None:
        self.rebound = {}
        modules = [m for key, m in sorted(sys.modules.items()) if key == "adaptest" or key.startswith("adaptest.")]
        for name in LAYER_STATS:
            module, func = name.split(".")
            original = getattr(sys.modules[f"adaptest.{module}"], func)
            wrapper = self._wrap(name, original)
            sites = self.rebound.setdefault(name, [])
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        sites.append(f"{mod.__name__}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _percentile_ms(durations: list[float], q: int) -> float:
    """q-th percentile of call durations in ms, 0 without calls.  Below
    100 calls p90 has fewer than ten samples beyond it: indicative only."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<module>.<function>.<stat>`` -> value for every entry of LAYER_STATS."""
    by_name: dict[str, list[Span]] = {name: [] for name in LAYER_STATS}
    for span in spans:
        by_name[span.name].append(span)
    out = {}
    for name, stats in LAYER_STATS.items():
        group = by_name[name]
        calls = len(group)
        durations = [s.end - s.start for s in group]
        summed = {}
        for s in group:
            for key, val in s.counters.items():
                summed[key] = summed.get(key, 0) + val
        values = {
            "calls": calls,
            "self_s": math.fsum(s.self_s for s in group),
            "p50_ms": _percentile_ms(durations, 50),
            "p90_ms": _percentile_ms(durations, 90),
            "outer_iters": summed.get("outer_iters", 0),
            "converged_frac": summed.get("converged", 0) / calls if calls else 0.0,
            "feasible_frac": summed.get("feasible", 0) / calls if calls else 0.0,
            "valid_frac": summed.get("valid", 0) / calls if calls else 0.0,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    return out


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, better) for the span-derived metrics."""
    return {f"{name}.{stat}": STAT_UNITS[stat] for name, stats in LAYER_STATS.items() for stat in stats}
