"""Experiment orchestration: configuration parsing, Monte Carlo drivers
for size/power, interval-length sweeps and phase diagrams, and result
tables.  A dataset becomes a test decision in `inference.run_single_test`;
this module builds the problems and datasets and collects the rows.

Every command's configuration is a flat key = value text file, parsed
into that command's dataclass by `parse_config`.  Results are rows
(config digest, replicate, metric, value, se); per-replicate rows carry
no standard error, aggregate rows (replicate -1) carry a binomial or
delta-method one.  Replicates fan out over a thread pool but each owns
the stream (master_seed, replicate), and aggregation reduces in
replicate order, so tables are bit-identical for any thread count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .estimators import scaled_lasso
from .inference import TEST_MODES, _log_grid, mixed_ci, mixed_test, run_single_test
from .model import LoadingVector, ModelParams, TestProblem, generate_dataset, make_loading
from .priors import PriorDraw, sample_nu1_prior, sample_nu2_prior
from .profiles import example_profiles, nu1 as nu1_value, regular_phase


def setting(default=dataclasses.MISSING, choices=(), **when) -> dataclasses.Field:
    """A config field taking one of `choices`, read only while each tag key in `when` takes one of its values."""
    return dataclasses.field(default=default, metadata={"choices": choices, "when": when})


LOADINGS = ("regular", "multiscale", "subweibull")
_SIMULATED = ("size_power", "length_sweep")  # the kinds that build a loading


@dataclass(kw_only=True)
class RunConfig:
    """Keys every command accepts: the seed of its random streams and the
    output directory."""

    master_seed: int = 0
    out: str = "."


@dataclass(kw_only=True)
class LoadingConfig(RunConfig):
    """Problem size and the loading spec read by `build_loading`;
    `loading_k` defaults to min(k_u, p) once p is known."""

    p: int
    k_u: int
    loading: str = setting("regular", LOADINGS, loading_csv=("",))
    loading_k: int | None = setting(None, loading=("regular",))
    loading_a: float = setting(1.0, loading=("regular", "multiscale"))
    loading_l: int = setting(2, loading=("multiscale",))
    loading_q: float = setting(2.0, loading=("subweibull",))
    loading_csv: str = ""

    def __post_init__(self):
        if self.loading_k is None and self.p is not None:
            self.loading_k = min(self.k_u, self.p)


@dataclass(kw_only=True)
class ExperimentConfig(LoadingConfig):
    """The `simulate` schema."""

    kind: str = setting("size_power", ("size_power", "length_sweep", "phase_diagram"))
    n: int = setting(200, kind=_SIMULATED)
    p: int = 100
    k_u: int = setting(4, kind=_SIMULATED)
    k: int = 2
    alpha: float = 0.05
    eta: float = 0.05
    reps: int = 100
    threads: int = 1
    modes: str = setting("mixed", kind=("size_power",))
    loading: str = setting("regular", LOADINGS, kind=_SIMULATED, loading_csv=("",))
    loading_k: int = setting(4, loading=("regular",))
    loading_csv: str = setting("", kind=_SIMULATED)
    t0: float = 0.0
    tau_grid: str = setting("0.0", kind=("size_power",))
    null_source: str = setting("point", ("point", "nu1", "nu2"), kind=("size_power",))
    sigma_star: float = setting(5.0, null_source=("nu1", "nu2"))
    noise_sd: float = 1.0
    scan_all_m: bool = setting(False, kind=("size_power",))
    m_grid: int = setting(16, kind=("length_sweep",))
    gamma_xi_grid: str = setting("0.2,0.4,0.6", kind=("phase_diagram",))
    gamma_tau_grid: str = setting("0.2,0.4,0.6", kind=("phase_diagram",))
    gamma_u: float = setting(0.3, kind=("phase_diagram",))
    gamma_n: float = setting(0.8, kind=("phase_diagram",))

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "size_power":
            self.mode_list()  # so parse_config rejects a bad modes entry before any work

    def mode_list(self) -> list[str]:
        """The test modes; `scan_all_m` and a non-default `eta` need `mixed`."""
        out = [m.strip() for m in str(self.modes).split(",") if m.strip()]
        if not out or any(m not in TEST_MODES for m in out):
            raise ConfigError(f"modes = {self.modes!r} must list one or more of {', '.join(TEST_MODES)}")
        if "mixed" not in out and (self.scan_all_m or self.eta != ExperimentConfig.eta):
            raise ConfigError(f"scan_all_m and eta apply only when modes includes mixed, not modes = {self.modes!r}")
        return out


def float_list(text: str) -> list[float]:
    """Comma-separated floats; empty entries are skipped."""
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


def _coerce(f: dataclasses.Field, raw: str):
    kind = f.type.removesuffix(" | None")
    if kind == "bool":
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {f.name} = {raw!r}")
    try:
        return {"int": int, "float": float, "str": str}[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {f.name} = {raw!r}") from exc


def _blocker(cfg, name: str) -> tuple[str, object] | None:
    """The (tag key, value) under which key `name` of cfg is not read, or None if it is read."""
    for tag, allowed in {f.name: f for f in fields(cfg)}[name].metadata.get("when", {}).items():
        value = getattr(cfg, tag)
        found = _blocker(cfg, tag) or (None if value in allowed else (tag, value))
        if found:
            return found
    return None


def parse_config(text: str, schema: type = ExperimentConfig):
    """Parse key = value lines into the dataclass `schema`, coercing each
    value to its field's annotated type; '#' starts a comment, blank lines
    are skipped, and a field without a default is a required key.  Tag keys
    take one of their choices; a key that the tags leave unread is an error."""
    known = {f.name: f for f in fields(schema)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(known[key], raw.strip())
        choices = known[key].metadata.get("choices")
        if choices and values[key] not in choices:
            raise ConfigError(f"{key} = {values[key]!r} is not one of {', '.join(choices)}")
    for name, f in known.items():
        if name not in values and f.default is dataclasses.MISSING:
            raise ConfigError(f"missing required key {name!r}")
    cfg = schema(**values)
    for key in values:
        if found := _blocker(cfg, key):
            raise ConfigError(f"{key} does not apply when {found[0]} = {found[1]!r}")
    return cfg


def format_config(cfg) -> str:
    """key = value lines for the keys cfg's tags read."""
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg) if not _blocker(cfg, f.name)}
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in values.items())


def config_digest(cfg) -> str:
    """Stable hash of the semantic fields: thread budget and output path
    do not change what is computed, so they stay out of the digest."""
    payload = dataclasses.asdict(cfg)
    payload.pop("threads", None)
    payload.pop("out", None)
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_outputs(cfg, prefix: str, tables: dict[str, str]) -> Path:
    """Write each table to <cfg.out>/<prefix>_<digest><suffix>, and the
    resolved config to the .json sidecar beside them; return the path of
    the first table."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{prefix}_{config_digest(cfg)}"
    for suffix, text in tables.items():
        (out / f"{stem}{suffix}").write_text(text)
    (out / f"{stem}.json").write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")
    return out / f"{stem}{next(iter(tables))}"


@dataclass(frozen=True)
class ResultRow:
    digest: str
    replicate: int
    metric: str
    value: float
    se: float | None = None


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    buf.write("digest,replicate,metric,value,se\n")
    for r in rows:
        se = "" if r.se is None else repr(float(r.se))
        buf.write(f"{r.digest},{r.replicate},{r.metric},{repr(float(r.value))},{se}\n")
    return buf.getvalue()


def _binomial_se(mean: float, count: int) -> float:
    return math.sqrt(max(mean * (1.0 - mean), 0.0) / count)


def build_loading(cfg: LoadingConfig) -> LoadingVector:
    """The loading from cfg.loading_csv, else the named example profile;
    its dimension must equal cfg.p."""
    if cfg.loading_csv:
        try:
            xi = make_loading(np.loadtxt(cfg.loading_csv, delimiter=",", skiprows=1, ndmin=1))
        except OSError as exc:
            raise ConfigError(f"cannot read loading_csv {cfg.loading_csv}: {exc}") from exc
    else:
        params = {
            "K": cfg.loading_k,
            "a": cfg.loading_a,
            "k_u": cfg.k_u,
            "L": cfg.loading_l,
            "q": cfg.loading_q,
            "p": cfg.p,
        }
        xi = example_profiles(cfg.loading, params, cfg.master_seed)
    if xi.p != cfg.p:
        raise ConfigError(f"loading has dimension {xi.p} but p = {cfg.p}")
    return xi


def null_point(xi: LoadingVector, k: int, target: float, p: int, noise_sd: float) -> ModelParams:
    """Model point with support on the k largest loading coordinates and
    xi'beta equal to target exactly (beta = 0 when target = 0)."""
    beta = np.zeros(p)
    if target != 0.0:
        denom = float(np.sum(xi.coords[:k]))
        if denom == 0.0:
            raise ConfigError("loading has no mass on the first k coordinates")
        beta[xi.perm[:k]] = target / denom
    return ModelParams(beta=beta, sigma_cov=np.eye(p), noise_sd=noise_sd)


def null_draw_theta(cfg: ExperimentConfig, xi: LoadingVector, rep: int) -> ModelParams:
    """Null model point for one replicate, per cfg.null_source.

    Prior sources re-anchor a least-favorable draw to t0; degenerate or
    invalid draws fall back to the fixed null point for that replicate.
    """
    if cfg.null_source == "point":
        return null_point(xi, cfg.k, cfg.t0, cfg.p, cfg.noise_sd)
    seed = cfg.master_seed + 3_000_017 * (rep + 1)
    if cfg.null_source == "nu2":
        draw = sample_nu2_prior(xi, cfg.k_u, cfg.n, cfg.p, cfg.sigma_star, seed=seed)
    else:
        tau = 0.0125 * nu1_value(xi, cfg.k_u) / math.sqrt(cfg.n)
        draw = sample_nu1_prior(xi, cfg.k_u, cfg.n, tau, seed=seed, sigma_star=cfg.sigma_star)
    if not draw.valid:
        return null_point(xi, cfg.k, cfg.t0, cfg.p, cfg.noise_sd)
    return translate_draw(draw, xi, cfg.t0)


def translate_draw(draw: PriorDraw, xi: LoadingVector, t0: float) -> ModelParams:
    """Re-anchor a prior draw so that xi'beta = t0; adds at most one
    support coordinate (the first support coordinate of xi).

    Prior draws live in the magnitude-sorted coordinate system; the
    result is permuted back to original coordinates so it can feed the
    estimators directly.
    """
    j0 = int(np.flatnonzero(xi.coords)[0])
    beta_s = draw.beta.copy()
    beta_s[j0] += (t0 - draw.tau) / float(xi.coords[j0])
    sigma_s = draw.theta.sigma_cov
    beta = np.empty_like(beta_s)
    beta[xi.perm] = beta_s
    sigma = np.empty_like(sigma_s)
    sigma[np.ix_(xi.perm, xi.perm)] = sigma_s
    return ModelParams(beta=beta, sigma_cov=sigma, noise_sd=draw.theta.noise_sd)


def _map_replicates(worker, reps: int, threads: int) -> list:
    if threads <= 1:
        return [worker(i) for i in range(reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(reps)))


def run_size_power(cfg: ExperimentConfig) -> list[ResultRow]:
    """Empirical rejection rates under the null point and shifted
    alternatives, per test mode and per tau on the grid."""
    modes = cfg.mode_list()
    digest = config_digest(cfg)
    xi = build_loading(cfg)
    taus = float_list(cfg.tau_grid)
    theta_alts = [null_point(xi, cfg.k, cfg.t0 + tau, cfg.p, cfg.noise_sd) for tau in taus]
    theta_point = null_draw_theta(cfg, xi, 0) if cfg.null_source == "point" else None
    problem = TestProblem(xi=xi, t0=cfg.t0, k_u=cfg.k_u, alpha=cfg.alpha, eta=cfg.eta)

    def worker(rep: int):
        out = []
        base = cfg.master_seed
        theta_null = theta_point or null_draw_theta(cfg, xi, rep)
        data_null = generate_dataset(theta_null, cfg.n, seed=base + 1_000_003 * (rep + 1))
        for mode in modes:
            dec = run_single_test(mode, data_null, problem, seed=base + rep, scan_all_m=cfg.scan_all_m)
            out.append((f"reject/null/{mode}", rep, float(dec.reject)))
            out.append((f"radius/null/{mode}", rep, float(dec.interval.radius)))
        for tau, theta_alt in zip(taus, theta_alts):
            data_alt = generate_dataset(theta_alt, cfg.n, seed=base + 2_000_003 * (rep + 1))
            for mode in modes:
                dec = run_single_test(mode, data_alt, problem, seed=base + rep, scan_all_m=cfg.scan_all_m)
                out.append((f"reject/alt/{mode}/tau={repr(float(tau))}", rep, float(dec.reject)))
        return out

    per_rep = _map_replicates(worker, cfg.reps, cfg.threads)
    rows = [
        ResultRow(digest, rep, metric, value)
        for chunk in per_rep
        for metric, rep, value in chunk
    ]
    rows.extend(_aggregate(digest, rows))
    return rows


def _aggregate(digest: str, rows: list[ResultRow]) -> list[ResultRow]:
    grouped: dict[str, list[float]] = {}
    for r in rows:
        if r.replicate >= 0:
            grouped.setdefault(r.metric, []).append(r.value)
    out = []
    for metric in sorted(grouped):
        vals = grouped[metric]
        mean = math.fsum(vals) / len(vals)
        if metric.startswith("reject/"):
            se = _binomial_se(mean, len(vals))
        else:
            var = math.fsum((v - mean) ** 2 for v in vals) / max(len(vals) - 1, 1)
            se = math.sqrt(var / len(vals))
        out.append(ResultRow(digest, -1, "mean/" + metric, mean, se))
    return out


def m_cutoff_grid(p: int, size: int) -> list[int]:
    """At least `size` distinct cutoffs in 0..p (all of them if p is small),
    log-spaced with both endpoints."""
    want = min(size, p + 1)
    num = max(size - 2, 1)
    while True:
        grid = _log_grid(p, num + 2)
        if len(grid) >= want or num > 4 * (p + 1):
            return grid
        num *= 2


def run_length_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Realized mixed-interval radii over a grid of cutoffs m."""
    digest = config_digest(cfg)
    xi = build_loading(cfg)
    theta = null_point(xi, cfg.k, cfg.t0, cfg.p, cfg.noise_sd)
    grid = m_cutoff_grid(cfg.p, cfg.m_grid)

    def worker(rep: int):
        data = generate_dataset(theta, cfg.n, seed=cfg.master_seed + 1_000_003 * (rep + 1))
        fit = scaled_lasso(data)
        out = []
        for m in grid:
            ci = mixed_ci(data, fit, xi, m, cfg.k_u, cfg.alpha, cfg.eta)
            out.append((f"radius/m={m}", rep, ci.radius))
        return out

    per_rep = _map_replicates(worker, cfg.reps, cfg.threads)
    rows = [ResultRow(digest, rep, metric, value) for chunk in per_rep for metric, rep, value in chunk]
    rows.extend(_aggregate(digest, rows))
    return rows


def run_phase_diagram(cfg: ExperimentConfig) -> list[ResultRow]:
    """Power of the mixed test over a (gamma_xi, gamma_tau) grid.

    Sizes follow the exponent parametrization n = p^gamma_n and
    k_u = p^gamma_u; each cell's metric name carries its phase label.
    """
    digest = config_digest(cfg)
    p = cfg.p
    n = max(int(round(p**cfg.gamma_n)), 4)
    k_u = max(int(round(p**cfg.gamma_u)), 1)
    g_xi = float_list(cfg.gamma_xi_grid)
    g_tau = float_list(cfg.gamma_tau_grid)
    rows: list[ResultRow] = []
    for gxi in g_xi:
        k_xi = min(max(int(round(p**gxi)), 1), p)
        xi = make_loading(np.concatenate((np.ones(k_xi), np.zeros(p - k_xi))))
        for gtau in g_tau:
            tau = p**gtau / math.sqrt(n)
            label, _ = regular_phase(gxi, cfg.gamma_u, cfg.gamma_n, gtau)
            theta_alt = null_point(xi, min(cfg.k, k_u), cfg.t0 + tau, p, cfg.noise_sd)
            problem = TestProblem(xi=xi, t0=cfg.t0, k_u=k_u, alpha=cfg.alpha, eta=cfg.eta)

            def worker(rep: int):
                data = generate_dataset(theta_alt, n, seed=cfg.master_seed + 1_000_003 * (rep + 1))
                dec = mixed_test(data, problem)
                return float(dec.reject)

            vals = _map_replicates(worker, cfg.reps, cfg.threads)
            metric = f"reject/gxi={gxi}/gtau={gtau}/label={label}"
            rows.extend(ResultRow(digest, i, metric, v) for i, v in enumerate(vals))
    rows.extend(_aggregate(digest, rows))
    return rows


RUNNERS = {
    "size_power": run_size_power,
    "length_sweep": run_length_sweep,
    "phase_diagram": run_phase_diagram,
}


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    return RUNNERS[cfg.kind](cfg)


def plotdata_rows(rows: list[ResultRow]) -> list[tuple[str, float, float, float]]:
    """(series, x, y, se) triples from aggregate rows whose metric ends
    with a numeric key=value component."""
    out = []
    for r in rows:
        if r.replicate != -1:
            continue
        parts = r.metric.split("/")
        x = math.nan
        series_parts = []
        for part in parts:
            if "=" in part:
                key, val = part.split("=", 1)
                try:
                    x = float(val)
                    series_parts.append(key)
                    continue
                except ValueError:
                    pass
            series_parts.append(part)
        out.append(("/".join(series_parts), x, r.value, 0.0 if r.se is None else r.se))
    return out
