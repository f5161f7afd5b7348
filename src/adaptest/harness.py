"""Experiment orchestration: configuration parsing, Monte Carlo drivers
for size/power, interval-length sweeps and phase diagrams, and result
tables.  `inference` turns a dataset into a decision (`run_single_test`, or
`mixed_test` and `mixed_ci` directly), and a prior null's model point comes from `priors` (`prior_sampler`,
`valid_draws`, `PriorDraw.model_point`); this module builds the problems
and datasets and collects the rows.  Every dataset is drawn as its Gram
coordinates, from their exact law (`estimators.CoordinateDataset`); a nu2
null's design mixes only its block.

Every command's configuration is a flat key = value text file, parsed
into that command's dataclass by `parse_config`.  Results are rows
(config digest, replicate, metric, value, se); per-replicate rows carry
no standard error, aggregate rows (replicate -1) carry a binomial or
sample one.  A run's items (replicates, or phase_diagram's (cell, replicate)
pairs) run serially, or on one process pool when each worker gets at least
MIN_ITEMS_PER_WORKER; each draw has its own seed (`replicate_seed`) and rows
reduce in item order, so tables are byte-identical on either path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .estimators import CoordinateDataset, scaled_lasso
from .inference import TEST_MODES, mixed_ci, mixed_test, run_single_test
from .model import LoadingVector, ModelParams, TestProblem, _csv_body, csv_cell, csv_text, make_loading
from .priors import prior_sampler, valid_draws
from .profiles import example_profiles, log_grid, regular_phase, regular_profile


def setting(default=dataclasses.MISSING, choices=(), domain=None, nonempty=False, **when) -> dataclasses.Field:
    """A config field taking one of `choices`, read only while each tag key in `when` takes one of its values.
    A `domain` is a (rule, predicate) pair that the value, or each entry of a comma-list `str` value, must
    satisfy (an unset optional value is not checked); a `nonempty` list must have an entry whenever it is read."""
    return dataclasses.field(
        default=default, metadata={"choices": choices, "domain": domain, "nonempty": nonempty, "when": when}
    )


def at_least(least: int) -> tuple:
    return f"be at least {least}", lambda v: v >= least


UNIT = "lie in (0, 1)", lambda v: 0.0 < v < 1.0
# mixed_ci reads the normal quantile at 1 - v/32, which is infinite once that rounds to 1
LEVEL = "lie in (0, 1) and leave 1 - v/32 below 1", lambda v: 0.0 < v < 1.0 and 1.0 - v / 32.0 < 1.0
POSITIVE = "be positive and finite", lambda v: 0.0 < v < math.inf
NONZERO = "be finite and nonzero", lambda v: 0.0 < abs(v) < math.inf
FINITE = "be finite", math.isfinite
EXPONENT = "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0  # as the exponents profiles.regular_phase takes do
CORRELATION = "lie in (-1, 1)", lambda v: -1.0 < v < 1.0  # a planted SCCA pair's joint covariance is PD only here

LOADINGS = ("regular", "multiscale", "subweibull")
_SIMULATED = ("size_power", "length_sweep")  # the kinds that build a loading
MIN_ITEMS_PER_WORKER = 32  # a 2-process pool breaks even with the serial loop at about 16 items


@dataclass(kw_only=True)
class RunConfig:
    """Keys every command accepts: the seed of its random streams and the output directory.  Checks
    alpha + eta in (0, 1) where the schema has alpha, then each field's `setting` domain."""

    master_seed: int = 0
    out: str = "."

    def __post_init__(self):
        if hasattr(self, "alpha") and not 0.0 < self.alpha + self.eta < 1.0:
            raise ConfigError(f"alpha + eta = {self.alpha} + {self.eta} must lie in (0, 1)")
        for f in fields(self):
            value, domain = getattr(self, f.name), f.metadata.get("domain")
            if domain is None or value is None:
                continue
            rule, ok = domain
            values = float_list(value) if f.type == "str" else [value]
            if not all(map(ok, values)):
                raise ConfigError(f"{f.name} = {value} must {rule}")
            if not values and f.metadata["nonempty"] and not _blocker(self, f.name):
                raise ConfigError(f"{f.name} = {value!r} must list at least one value")


@dataclass(kw_only=True)
class LoadingConfig(RunConfig):
    """Problem size and the loading spec read by `build_loading`; `loading_k` defaults to
    min(k_u, p) once p is known, and must not exceed p where it is read."""

    p: int = setting(domain=at_least(2))  # every rate reads log p
    k_u: int = setting(domain=at_least(1))
    loading: str = setting("regular", LOADINGS, loading_csv=("",))
    loading_k: int | None = setting(None, domain=at_least(1), loading=("regular",))
    loading_a: float = setting(1.0, domain=NONZERO, loading=("regular", "multiscale"))
    loading_l: int = setting(2, domain=at_least(1), loading=("multiscale",))
    loading_q: float = setting(2.0, domain=POSITIVE, loading=("subweibull",))
    loading_csv: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.loading_k is None and self.p is not None:
            self.loading_k = min(self.k_u, self.p)
        if self.p is not None and self.loading_k > self.p and not _blocker(self, "loading_k"):
            raise ConfigError(f"loading_k = {self.loading_k} must be at most p = {self.p}")
        if not _blocker(self, "loading_l") and self.loading_l**3 > self.k_u:  # profiles.multiscale_profile
            raise ConfigError(f"loading_l = {self.loading_l} must be at most the cube root of k_u = {self.k_u}")
        nu2 = [tag for tag in ("kind", "null_source") if getattr(self, tag, "") == "nu2" and not _blocker(self, tag)]
        if nu2 and self.k_u < 4:  # priors.sample_nu2_prior
            raise ConfigError(f"k_u = {self.k_u} must be at least 4 when {nu2[0]} = 'nu2'")


@dataclass(kw_only=True)
class ExperimentConfig(LoadingConfig):
    """The `simulate` schema."""

    kind: str = setting("size_power", ("size_power", "length_sweep", "phase_diagram"))
    n: int = setting(200, domain=at_least(2), kind=_SIMULATED)
    p: int = setting(100, domain=at_least(2))
    k_u: int = setting(4, domain=at_least(1), kind=_SIMULATED)
    k: int = setting(2, domain=at_least(1))
    alpha: float = setting(0.05, domain=LEVEL)
    eta: float = setting(0.05, domain=LEVEL)
    reps: int = setting(100, domain=at_least(1))
    threads: int = setting(1, domain=at_least(1))
    modes: str = setting("mixed", kind=("size_power",))
    loading: str = setting("regular", LOADINGS, kind=_SIMULATED, loading_csv=("",))
    loading_k: int = setting(4, domain=at_least(1), loading=("regular",))
    loading_csv: str = setting("", kind=_SIMULATED)
    t0: float = setting(0.0, domain=FINITE)
    tau_grid: str = setting("0.0", domain=FINITE, kind=("size_power",))  # empty: a size-only run
    null_source: str = setting("point", ("point", "nu1", "nu2"), kind=("size_power",))
    sigma_star: float = setting(5.0, domain=POSITIVE, null_source=("nu1", "nu2"))
    noise_sd: float = setting(1.0, domain=POSITIVE)
    scan_all_m: bool = setting(False, kind=("size_power",))
    m_grid: int = setting(16, domain=at_least(3), kind=("length_sweep",))  # below 3 the cutoffs are {0, 1, p}, as at 3
    gamma_xi_grid: str = setting("0.2,0.4,0.6", domain=EXPONENT, nonempty=True, kind=("phase_diagram",))
    gamma_tau_grid: str = setting("0.2,0.4,0.6", domain=FINITE, nonempty=True, kind=("phase_diagram",))
    gamma_u: float = setting(0.3, domain=EXPONENT, kind=("phase_diagram",))
    gamma_n: float = setting(0.8, domain=EXPONENT, kind=("phase_diagram",))

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
    if raw == "" and kind != f.type:  # an optional key written unset by format_config
        return None
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
    for tag, allowed in type(cfg).__dataclass_fields__[name].metadata.get("when", {}).items():
        value = getattr(cfg, tag)
        found = _blocker(cfg, tag) or (None if value in allowed else (tag, value))
        if found:
            return found
    return None


def parse_config(text: str, schema: type = ExperimentConfig):
    """Parse key = value lines into the dataclass `schema`, coercing each
    value to its field's annotated type; '#' starts a comment, blank lines
    are skipped, and a field without a default is a required key.  Tag keys
    take one of their choices; a key written twice or one that the tags leave unread is an error."""
    known = {f.name: f for f in fields(schema)}
    values, seen = {}, {}
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
        if (first := seen.setdefault(key, lineno)) != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {first}")
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
    return "".join(f"{k} = {csv_cell(v)}\n" for k, v in config_values(cfg).items() if not _blocker(cfg, k))


def config_values(cfg) -> dict:
    """Each field of cfg by name; a config holds scalars and strings only, so nothing is copied."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def config_digest(cfg) -> str:
    """Stable hash of the semantic fields: thread budget and output path
    do not change what is computed, so they stay out of the digest."""
    payload = config_values(cfg)
    payload.pop("threads", None)
    payload.pop("out", None)
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_outputs(cfg, prefix: str, tables: dict[str, str]) -> Path:
    """Write each table to <cfg.out>/<prefix>_<digest><suffix>, and the
    resolved config to the .json sidecar beside them; return the path of
    the first table.  An OSError on the way is a ConfigError naming out."""
    out = Path(cfg.out)
    stem = f"{prefix}_{config_digest(cfg)}"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for suffix, text in tables.items():
            (out / f"{stem}{suffix}").write_text(text)
        (out / f"{stem}.json").write_text(json.dumps(config_values(cfg), indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write out = {cfg.out}: {exc}") from exc
    return out / f"{stem}{next(iter(tables))}"


@dataclass(frozen=True)
class ResultRow:
    digest: str
    replicate: int
    metric: str
    value: float
    se: float | None = None


def rows_to_csv(rows: list[ResultRow]) -> str:
    cells = ((r.digest, r.replicate, r.metric, r.value, r.se) for r in rows)
    return csv_text("digest,replicate,metric,value,se", cells)


def build_loading(cfg: LoadingConfig) -> LoadingVector:
    """The loading from cfg.loading_csv, else the named example profile;
    its dimension must equal cfg.p."""
    if cfg.loading_csv:
        try:
            with open(cfg.loading_csv) as fh:
                body = _csv_body(fh, "loading")
            if body.shape[1] != 1:
                raise ValueError(f"loading CSV has {body.shape[1]} columns, not 1")
            xi = make_loading(body[:, 0])
        except (OSError, ValueError) as exc:
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


def null_point(xi: LoadingVector, k: int, target: float, noise_sd: float) -> ModelParams:
    """Identity-design model point (sigma_cov None) in the loading's dimension with support on the k largest
    loading coordinates and xi'beta equal to target exactly (beta = 0 when target = 0)."""
    beta = np.zeros(xi.p)
    if target != 0.0:
        denom = float(np.sum(xi.coords[:k]))
        if denom == 0.0:
            raise ConfigError("loading has no mass on the first k coordinates")
        beta[xi.perm[:k]] = target / denom
    return ModelParams(beta=beta, sigma_cov=None, noise_sd=noise_sd)


def null_draw_theta(cfg: ExperimentConfig, xi: LoadingVector, rep: int) -> ModelParams:
    """Null model point for one replicate, per cfg.null_source.

    Prior sources re-anchor to t0 the first valid draw of the restricted
    prior from the replicate's seed (`valid_draws`); 50 invalid draws in a
    row raise RegimeViolation.
    """
    if cfg.null_source == "point":
        return null_point(xi, cfg.k, cfg.t0, cfg.noise_sd)
    sampler = prior_sampler(cfg.null_source, xi, cfg.k_u, cfg.n, cfg.sigma_star)
    return next(valid_draws(sampler, replicate_seed(cfg.master_seed, rep, "prior"))).model_point(xi, cfg.t0)


_SEED_ROLES = ("null", "alt", None, "prior")  # slot 2 is retired (a dataset splits by its own seed), so prior keeps 3


def replicate_seed(master_seed: int, rep: int, role: str) -> int:
    """Seed of replicate rep's null or alternative dataset or prior null draw:
    master_seed + ((4 rep + i + 1) << 32) with i the role's index, distinct
    for all master seeds in [0, 2^32)."""
    return master_seed + ((4 * rep + _SEED_ROLES.index(role) + 1) << 32)


def _run_chunk(cfg: ExperimentConfig, start: int, step: int) -> list:
    """One worker process's share of a run: items start, start + step, ... of the plan rebuilt from cfg."""
    items, worker = _PLANS[cfg.kind](cfg)
    return [worker(items[i]) for i in range(start, len(items), step)]


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Rows of the (metric, replicate, value) triples that the plan's worker gives per item, in item
    order, then one mean/ row per metric; the items run serially, or on one process pool of `workers`."""
    items, worker = _PLANS[cfg.kind](cfg)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cfg.threads, cpus, len(items) // MIN_ITEMS_PER_WORKER)
    if workers <= 1:
        chunks = [worker(item) for item in items]
    else:
        from concurrent.futures import ProcessPoolExecutor  # not at the top: it would slow every import
        chunks = [None] * len(items)
        with ProcessPoolExecutor(workers) as pool:
            for start, part in enumerate(pool.map(_run_chunk, [cfg] * workers, range(workers), [workers] * workers)):
                chunks[start::workers] = part
    digest = config_digest(cfg)
    rows = [ResultRow(digest, rep, metric, value) for chunk in chunks for metric, rep, value in chunk]
    grouped: dict[str, list[float]] = {}
    for r in rows:
        grouped.setdefault(r.metric, []).append(r.value)
    for metric, vals in sorted(grouped.items()):
        mean = math.fsum(vals) / len(vals)
        if metric.startswith("reject/"):
            var = max(mean * (1.0 - mean), 0.0)
        else:
            var = math.fsum((v - mean) ** 2 for v in vals) / max(len(vals) - 1, 1)
        rows.append(ResultRow(digest, -1, "mean/" + metric, mean, math.sqrt(var / len(vals))))
    return rows


def _size_power(cfg: ExperimentConfig):
    """Plan of empirical rejection rates under the null point and shifted
    alternatives, per test mode and per tau on the grid."""
    modes = cfg.mode_list()
    xi = build_loading(cfg)
    taus = float_list(cfg.tau_grid)
    theta_alts = [null_point(xi, cfg.k, cfg.t0 + tau, cfg.noise_sd) for tau in taus]
    theta_point = null_draw_theta(cfg, xi, 0) if cfg.null_source == "point" else None
    problem = TestProblem(xi=xi, t0=cfg.t0, k_u=cfg.k_u, alpha=cfg.alpha, eta=cfg.eta)

    def worker(rep: int):
        out = []
        theta_null = theta_point or null_draw_theta(cfg, xi, rep)
        data_null = CoordinateDataset(theta_null, cfg.n, seed=replicate_seed(cfg.master_seed, rep, "null"))
        for mode in modes:
            dec = run_single_test(mode, data_null, problem, scan_all_m=cfg.scan_all_m)
            out.append((f"reject/null/{mode}", rep, float(dec.reject)))
            out.append((f"radius/null/{mode}", rep, float(dec.interval.radius)))
        for tau, theta_alt in zip(taus, theta_alts):
            data_alt = CoordinateDataset(theta_alt, cfg.n, seed=replicate_seed(cfg.master_seed, rep, "alt"))
            for mode in modes:
                dec = run_single_test(mode, data_alt, problem, scan_all_m=cfg.scan_all_m)
                out.append((f"reject/alt/{mode}/tau={csv_cell(tau)}", rep, float(dec.reject)))
        return out

    return range(cfg.reps), worker


def m_cutoff_grid(p: int, size: int) -> list[int]:
    """At least `size` distinct cutoffs in 0..p (all of them if p is small),
    log-spaced with both endpoints."""
    want = min(size, p + 1)
    num = max(size - 2, 1)
    while True:
        grid = log_grid(p, num + 2)
        if len(grid) >= want or num > 4 * (p + 1):
            return grid
        num *= 2


def _length_sweep(cfg: ExperimentConfig):
    """Plan of realized mixed-interval radii over a grid of cutoffs m."""
    xi = build_loading(cfg)
    theta = null_point(xi, cfg.k, cfg.t0, cfg.noise_sd)
    grid = m_cutoff_grid(cfg.p, cfg.m_grid)

    def worker(rep: int):
        data = CoordinateDataset(theta, cfg.n, seed=replicate_seed(cfg.master_seed, rep, "null"))
        fit = scaled_lasso(data)
        return [
            (f"radius/m={m}", rep, mixed_ci(data, fit, xi, m, cfg.k_u, cfg.alpha, cfg.eta).radius) for m in grid
        ]

    return range(cfg.reps), worker


def _phase_diagram(cfg: ExperimentConfig):
    """Plan of the mixed test's power over a (gamma_xi, gamma_tau) grid.

    Sizes follow the exponent parametrization n = p^gamma_n and
    k_u = p^gamma_u; each cell's metric name carries its phase label.
    """
    p = cfg.p
    n = max(int(round(p**cfg.gamma_n)), 4)
    k_u = max(int(round(p**cfg.gamma_u)), 1)
    cells = []
    for gxi in float_list(cfg.gamma_xi_grid):
        k_xi = min(max(int(round(p**gxi)), 1), p)
        xi = regular_profile(k_xi, 1.0, p)
        problem = TestProblem(xi=xi, t0=cfg.t0, k_u=k_u, alpha=cfg.alpha, eta=cfg.eta)
        for gtau in float_list(cfg.gamma_tau_grid):
            tau = p**gtau / math.sqrt(n)
            label, _ = regular_phase(gxi, cfg.gamma_u, cfg.gamma_n, gtau)
            theta_alt = null_point(xi, min(cfg.k, k_u), cfg.t0 + tau, cfg.noise_sd)
            cells.append((f"reject/gxi={csv_cell(gxi)}/gtau={csv_cell(gtau)}/label={label}", problem, theta_alt))

    def worker(item):
        (metric, problem, theta_alt), rep = item
        data = CoordinateDataset(theta_alt, n, seed=replicate_seed(cfg.master_seed, rep, "alt"))
        return [(metric, rep, float(mixed_test(data, problem).reject))]

    return [(cell, rep) for cell in cells for rep in range(cfg.reps)], worker


_PLANS = {"size_power": _size_power, "length_sweep": _length_sweep, "phase_diagram": _phase_diagram}


def plotdata_rows(rows: list[ResultRow]) -> list[tuple[str, float, float, float]]:
    """(series, x, y, se) triples from aggregate rows whose metric ends
    with a numeric key=value component."""
    out = []
    for r in rows:
        if r.replicate != -1:
            continue
        x, series = math.nan, []
        for part in r.metric.split("/"):
            key, _, val = part.partition("=")
            try:
                x = float(val)
                series.append(key)
            except ValueError:
                series.append(part)
        out.append(("/".join(series), x, r.value, 0.0 if r.se is None else r.se))
    return out
