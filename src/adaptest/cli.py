"""Batch command-line interface.

    adaptest {profile|fit|test|prior|lowdeg|scca|simulate} --config FILE
             [--seed N] [--out DIR] [--emit-plotdata]

Exit codes: 0 success, 2 configuration error (a key written twice, an unwritable out, refused before
the command runs), 3 numerical failure.
Every command reads a flat key = value config file into its dataclass
below (`harness.parse_config`; schema in the README), writes CSV results
into the output directory, and drops a JSON sidecar of the resolved
configuration next to them (`harness.write_outputs`).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from itertools import count
from pathlib import Path

import numpy as np

from . import harness, profiles, scca
from .errors import AdaptestError, ConfigError
from .estimators import projection_direction, scaled_lasso, spiked_cov_estimate
from .harness import CORRELATION, FINITE, LEVEL, POSITIVE, UNIT, ExperimentConfig, LoadingConfig, RunConfig
from .harness import at_least, build_loading, float_list, setting
from .inference import C_XI, TEST_MODES, run_single_test
from .lowdeg import ld_norms, ld_uniform_bound
from .model import TestProblem, csv_text, dataset_from_csv, dataset_to_csv
from .priors import DEFAULT_C1, DEFAULT_C4, DEFAULT_C5, DEFAULT_C8, chi2_mixture_mc, closed_form, pair_overlaps
from .priors import prior_sampler


@dataclass(kw_only=True)
class ProfileConfig(LoadingConfig):
    n: int = setting(domain=at_least(2))  # at least 2 here only: prior, lowdeg and scca run with n = 1
    degree: int = setting(1, domain=at_least(1))
    hcurve_points: int = setting(64, domain=at_least(1))


@dataclass(kw_only=True)
class DataConfig(LoadingConfig):
    data_csv: str
    p: int | None = setting(None, domain=at_least(2))  # set from data_csv; a given p must agree with it


@dataclass(kw_only=True)
class FitConfig(DataConfig):
    gamma_star: float | None = setting(None, domain=POSITIVE)  # set: also run the spiked-covariance fit at it


@dataclass(kw_only=True)
class TestCmdConfig(DataConfig):
    t0: float = setting(0.0, domain=FINITE)
    alpha: float = setting(0.05, domain=LEVEL)
    eta: float = setting(0.05, domain=LEVEL, mode=("mixed",))
    mode: str = setting("mixed", TEST_MODES)
    scan_all_m: bool = setting(False, mode=("mixed",))


@dataclass(kw_only=True)
class PriorConfig(LoadingConfig):
    kind: str = setting(choices=("nu2", "nu1", "comp"))
    n: int = setting(domain=at_least(1))
    draws: int = setting(100, domain=at_least(1))
    degree: int = setting(1, domain=at_least(1), kind=("comp",))
    sigma_star: float = setting(5.0, domain=POSITIVE)
    tau: float | None = setting(None, domain=POSITIVE, kind=("nu1",))  # unset means (c4 c5 / 4) nu1(xi) / sqrt(n)
    c1: float = setting(DEFAULT_C1, domain=POSITIVE, kind=("nu2",))
    c2: float | None = setting(None, domain=POSITIVE, kind=("nu2",))
    c4: float = setting(DEFAULT_C4, domain=POSITIVE, kind=("nu1",))
    c5: float = setting(DEFAULT_C5, domain=POSITIVE, kind=("nu1",))
    c8: float = setting(DEFAULT_C8, domain=POSITIVE, kind=("comp",))
    c9: float | None = setting(None, domain=POSITIVE, kind=("comp",))
    # pair replicates of the chi-square estimate; 0 is off
    chi2_reps: int = setting(0, domain=("be 0 (off) or at least 100", lambda v: v == 0 or v >= 100))


@dataclass(kw_only=True)
class LowdegConfig(LoadingConfig):
    n: int = setting(domain=at_least(1))
    k_eff: int
    k_u: int = setting(1, domain=at_least(1))
    s1: int = 1
    degree_max: int = setting(2, domain=at_least(0))
    pairs: int = setting(20, domain=at_least(1))
    c8: float = setting(0.4, domain=POSITIVE)
    c9: float = setting(0.05, domain=POSITIVE)
    sigma_star: float = setting(1.0, domain=POSITIVE)

    def __post_init__(self):
        super().__post_init__()
        if not self.k_u < self.k_eff < self.p:  # the comp prior's lead band (k_u, k_eff] leaves a trail
            raise ConfigError(f"k_eff = {self.k_eff} must lie in k_u + 1..p - 1 = {self.k_u + 1}..{self.p - 1}")
        if not 1 <= self.s1 <= self.p - self.k_eff:  # the trail support lies past k_eff
            raise ConfigError(f"s1 = {self.s1} must lie in 1..p - k_eff = 1..{self.p - self.k_eff}")


@dataclass(kw_only=True)
class SccaConfig(RunConfig):
    mode: str = setting(choices=("generate", "reduce", "stats", "sweep"))
    n: int = setting(domain=at_least(1))
    s: int
    p1: int
    p2: int
    lam: float = setting(0.0, domain=CORRELATION, mode=("generate", "reduce", "stats"))
    hypothesis: str = setting("null", ("null", "alt"), mode=("generate", "reduce", "stats"))
    t0: float = setting(0.0, domain=FINITE, mode=("reduce",))
    sigma_star: float = setting(1.0, domain=POSITIVE, mode=("reduce",))
    c10: float = setting(0.1, domain=UNIT, mode=("reduce",))
    big_c: float = setting(1.0, domain=POSITIVE, mode=("stats",))
    calib_reps: int = setting(400, domain=at_least(1), mode=("sweep",))
    reps: int = setting(200, domain=at_least(1), mode=("sweep",))
    lam_grid: str = setting("0.05,0.1,0.2", domain=CORRELATION, nonempty=True, mode=("sweep",))
    level: float = setting(0.05, domain=UNIT, mode=("sweep",))
    alpha: float = setting(0.05, domain=LEVEL, mode=("reduce",))
    eta: float = setting(0.05, domain=LEVEL, mode=("reduce",))

    def __post_init__(self):
        super().__post_init__()
        if self.mode == "reduce" and self.n % 2:
            raise ConfigError(f"n = {self.n} must be even: the reduction consumes rows two at a time")


def _read_dataset(cfg: DataConfig):
    """The dataset at cfg.data_csv (two rows or more, no all-zero column and none whose mean square
    overflows), seeded by cfg.master_seed, and cfg with p set to its width."""
    try:
        with open(cfg.data_csv) as fh:
            data = dataset_from_csv(fh, cfg.master_seed)
        if data.n < 2 or not data.diag.all():
            raise ValueError("the scaled lasso needs two rows or more and no all-zero x column")
        if not np.isfinite(data.diag).all():
            raise ValueError("an x column's mean square overflows the float range")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read data_csv {cfg.data_csv}: {exc}") from exc
    if cfg.p is not None and cfg.p != data.p:
        raise ConfigError(f"p = {cfg.p} but {cfg.data_csv} has {data.p} columns")
    return data, replace(cfg, p=data.p)


def _check_out(out: str) -> None:
    """Refuse, creating nothing, an out that is not and cannot become a directory: its nearest existing
    path (out itself or an ancestor) must be a writable directory."""
    path = Path(out).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write out = {out}: {existing} is not a writable directory")


def cmd_profile(cfg: ProfileConfig):
    xi = build_loading(cfg)
    s = profiles.regime_and_cutoff(xi, cfg.k_u, cfg.n, cfg.degree)
    upper, lower = profiles.rate_bounds(xi, cfg.k_u, cfg.n)
    row = [s.zeta, s.lam, s.j1, s.nu1, s.nu2, s.k_eff, s.nu3, s.m_star, s.regime, upper, lower]
    tgrid = profiles.log_grid(xi.p, cfg.hcurve_points + 2)[1:]  # t = 0 dropped
    return cfg, "profile", {
        ".csv": csv_text("zeta,lambda,j1,nu1,nu2,k_eff,nu3,m_star,regime,upper,lower", [row]),
        "_hcurve.csv": csv_text("t,h", [(t, profiles.top_norm(xi, float(t))) for t in tgrid]),
    }


def cmd_fit(cfg: FitConfig):
    data, cfg = _read_dataset(cfg)
    xi = build_loading(cfg)
    fit = scaled_lasso(data)
    proj = projection_direction(data, xi.original(), C_XI)
    support = np.flatnonzero(fit.beta_hat)
    cols = {
        "sigma_hat": fit.sigma_hat,
        "nnz": support.size,
        "support": support,
        "u_l1": np.abs(proj.u_hat).sum(),
        "u_l2": np.linalg.norm(proj.u_hat),
        "u_objective": proj.objective,
        "u_feasible": proj.feasible,
    }
    if cfg.gamma_star is not None:
        spk = spiked_cov_estimate(data, cfg.k_u, cfg.gamma_star)
        cols["b_hat"] = spk.b_hat
        cols["fell_back_identity"] = spk.fell_back_identity
    return cfg, "fit", {".csv": csv_text(",".join(cols), [cols.values()])}


def cmd_test(cfg: TestCmdConfig):
    data, cfg = _read_dataset(cfg)
    problem = TestProblem(xi=build_loading(cfg), t0=cfg.t0, k_u=cfg.k_u, alpha=cfg.alpha, eta=cfg.eta)
    dec = run_single_test(cfg.mode, data, problem, cfg.scan_all_m)
    ci = dec.interval
    row = [cfg.mode, int(dec.reject), ci.center, ci.radius, dec.m_used, ci.level, ci.budget]
    return cfg, "test", {".csv": csv_text("mode,reject,center,radius,m_used,level,budget", [row])}


def cmd_prior(cfg: PriorConfig):
    xi = build_loading(cfg)
    # the keys read only under this kind are its sampler's keyword constants
    consts = {
        f.name: getattr(cfg, f.name) for f in fields(cfg) if cfg.kind in f.metadata.get("when", {}).get("kind", ())
    }
    sampler = prior_sampler(cfg.kind, xi, cfg.k_u, cfg.n, cfg.sigma_star, **consts)
    rows = []  # draw i is the one at seed master_seed + i, read off stacks
    while len(rows) < cfg.draws:
        s = sampler.stack(cfg.master_seed + len(rows), cfg.draws - len(rows))
        cols = (s.kappa, s.sparsity, s.eig_min, s.eig_max, s.residual, s.noise_sd, s.valid.astype(int), s.reason)
        rows += zip(count(len(rows)), *(col.tolist() for col in cols))
    tables = {".csv": csv_text("draw,kappa,sparsity,eig_min,eig_max,residual,sigma,valid,reason", rows)}
    if cfg.chi2_reps:
        est_se = chi2_mixture_mc(sampler, cfg.n, cfg.chi2_reps, cfg.master_seed + 10_000)
        tables["_chi2.csv"] = csv_text("estimate,se", [est_se])
    return cfg, "prior", tables


def cmd_lowdeg(cfg: LowdegConfig):
    xi = build_loading(cfg)
    n, p = cfg.n, cfg.p
    sampler = prior_sampler(
        "comp", xi, cfg.k_u, n, cfg.sigma_star, degree=1, c8=cfg.c8, c9=cfg.c9, k_eff_override=cfg.k_eff,
        s1_override=cfg.s1,
    )
    x = pair_overlaps(sampler, cfg.master_seed, cfg.pairs)  # each pair's overlap, once for every degree
    chi2_ref = float(np.mean([closed_form(v, n) for v in x])) - 1.0
    lds = ld_norms(x, cfg.degree_max, n)
    rows = [(deg, ld, chi2_ref, ld_uniform_bound(n, p, max(deg, 1))) for deg, ld in enumerate(lds)]
    return cfg, "lowdeg", {".csv": csv_text("degree,ld,chi2_ref,log_uniform_bound", rows)}


def cmd_scca(cfg: SccaConfig):
    try:
        params = scca.SccaParams(n=cfg.n, s=cfg.s, p1=cfg.p1, p2=cfg.p2, lam=cfg.lam)
    except ValueError as exc:
        raise ConfigError(f"scca sizes: {exc}") from exc
    seed = cfg.master_seed
    tables = {}
    if cfg.mode == "generate":
        inst = scca.gen_scca(params, cfg.hypothesis, seed)
        cols = [f"u1_{j + 1}" for j in range(params.p1)] + [f"u2_{j + 1}" for j in range(params.p2)]
        tables[".csv"] = csv_text(",".join(cols), np.hstack((inst.u1, inst.u2)).tolist())
    elif cfg.mode == "reduce":
        inst = scca.gen_scca(params, cfg.hypothesis, seed)
        ds, problem, tau_red = scca.reduce_to_lt(
            inst, cfg.sigma_star, cfg.c10, cfg.t0, seed + 1, alpha=cfg.alpha, eta=cfg.eta
        )
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        tables[".csv"] = buf.getvalue()
        row = [problem.t0, problem.k_u, problem.xi.k_xi, tau_red, problem.alpha, problem.eta]
        tables["_problem.csv"] = csv_text("t0,k_u,k_xi,tau_red,alpha,eta", [row])
    elif cfg.mode == "stats":
        r = scca.sample_cross_covariance(params, cfg.hypothesis, seed)
        thr = scca.thresholds(params.n, params.s, params.p1, params.p2, cfg.big_c)
        rep = scca.stat_report(r, params.s, thr)
        rows = [(k, rep.values[k], rep.thresholds[k], int(rep.decisions[k])) for k in scca.STATISTICS]
        tables[".csv"] = csv_text("statistic,value,threshold,decision", rows)
    else:
        thr = scca.calibrate_thresholds(params, cfg.calib_reps, seed, cfg.level)
        rows = []
        for lam in float_list(cfg.lam_grid):
            samples = scca.stat_samples(replace(params, lam=lam), "alt", seed, scca.ALT_STREAMS, cfg.reps)
            for k in scca.STATISTICS:
                pw = int(np.count_nonzero(samples[k] > thr[k])) / cfg.reps
                rows.append((lam, k, pw, math.sqrt(max(pw * (1 - pw), 0.0) / cfg.reps)))
        tables[".csv"] = csv_text("lam,statistic,power,se", rows)
    return cfg, f"scca_{cfg.mode}", tables


def cmd_simulate(cfg: ExperimentConfig, emit_plotdata: bool):
    rows = harness.run_experiment(cfg)
    tables = {".csv": harness.rows_to_csv(rows)}
    if emit_plotdata:
        tables["_plotdata.csv"] = csv_text("series,x,y,se", harness.plotdata_rows(rows))
    return cfg, f"simulate_{cfg.kind}", tables


# command -> (config schema, runner returning (resolved config, file prefix, {suffix: table}))
_DISPATCH = {
    "profile": (ProfileConfig, cmd_profile),
    "fit": (FitConfig, cmd_fit),
    "test": (TestCmdConfig, cmd_test),
    "prior": (PriorConfig, cmd_prior),
    "lowdeg": (LowdegConfig, cmd_lowdeg),
    "scca": (SccaConfig, cmd_scca),
    "simulate": (ExperimentConfig, cmd_simulate),
}
_PARSER = argparse.ArgumentParser(prog="adaptest", description="adaptive linear-functional testing toolbox")
_PARSER.add_argument("command", choices=sorted(_DISPATCH))
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--out", default=None)
_PARSER.add_argument("--emit-plotdata", action="store_true")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    schema, command = _DISPATCH[args.command]

    try:
        if args.emit_plotdata and command is not cmd_simulate:
            raise ConfigError("--emit-plotdata applies to simulate only")
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        cfg = harness.parse_config(text, schema)
        flags = {"master_seed": args.seed, "out": args.out}
        cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
        _check_out(cfg.out)
        result = cmd_simulate(cfg, args.emit_plotdata) if command is cmd_simulate else command(cfg)
        print(f"wrote {harness.write_outputs(*result)}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AdaptestError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
