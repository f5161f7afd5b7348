"""Batch command-line interface.

    adaptest {profile|fit|test|prior|lowdeg|scca|simulate} --config FILE
             [--seed N] [--out DIR] [--emit-plotdata]

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Every command reads a flat key = value config file into its dataclass
below (`harness.parse_config`; schema in the README), writes CSV results
into the output directory, and drops a JSON sidecar of the resolved
configuration next to them (`harness.write_outputs`).
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import harness, profiles, scca
from .errors import AdaptestError, ConfigError
from .estimators import projection_direction, scaled_lasso, spiked_cov_estimate
from .harness import ExperimentConfig, LoadingConfig, RunConfig, build_loading, float_list, setting
from .inference import TEST_MODES, run_single_test
from .lowdeg import ld_norm, ld_uniform_bound
from .model import JointCovariance, TestProblem, dataset_from_csv, dataset_to_csv
from .priors import (
    chi2_mixture_mc,
    chi2_pair_closed_form,
    sample_comp_prior,
    sample_nu1_prior,
    sample_nu2_prior,
)
from .profiles import nu1 as nu1_value


@dataclass(kw_only=True)
class ProfileConfig(LoadingConfig):
    n: int
    degree: int = 1
    hcurve_points: int = 64


@dataclass(kw_only=True)
class DataConfig(LoadingConfig):
    data_csv: str
    p: int | None = None  # set from data_csv; a given p must agree with it
    sigma_floor: float = 0.0


@dataclass(kw_only=True)
class FitConfig(DataConfig):
    c_xi: float = 2.0
    gamma_star: float | None = None  # set: also run the spiked-covariance fit at this gamma_star


@dataclass(kw_only=True)
class TestCmdConfig(DataConfig):
    t0: float = 0.0
    alpha: float = 0.05
    eta: float = setting(0.05, mode=("mixed",))
    mode: str = setting("mixed", TEST_MODES)
    scan_all_m: bool = setting(False, mode=("mixed",))


@dataclass(kw_only=True)
class PriorConfig(LoadingConfig):
    kind: str = setting(choices=("nu2", "nu1", "comp"))
    n: int
    draws: int = 100
    degree: int = setting(1, kind=("comp",))
    sigma_star: float = 5.0
    tau: float | None = setting(None, kind=("nu1",))  # unset means (c4 c5 / 4) nu1(xi) / sqrt(n)
    c1: float = setting(0.05, kind=("nu2",))
    c2: float | None = setting(None, kind=("nu2",))
    c4: float = setting(0.1, kind=("nu1",))
    c5: float = setting(0.5, kind=("nu1",))
    c8: float = setting(0.05, kind=("comp",))
    c9: float | None = setting(None, kind=("comp",))
    chi2_reps: int = 0  # pair replicates of the chi-square estimate; 0 is off

    def __post_init__(self):
        super().__post_init__()
        if self.chi2_reps != 0 and self.chi2_reps < 100:
            raise ConfigError(f"chi2_reps = {self.chi2_reps} must be 0 (off) or at least 100")


@dataclass(kw_only=True)
class LowdegConfig(LoadingConfig):
    n: int
    k_eff: int
    k_u: int = 1
    s1: int = 1
    degree_max: int = 2
    pairs: int = 20
    c8: float = 0.4
    c9: float = 0.05
    sigma_star: float = 1.0


@dataclass(kw_only=True)
class SccaConfig(RunConfig):
    mode: str = setting(choices=("generate", "reduce", "stats", "sweep"))
    n: int
    s: int
    p1: int
    p2: int
    lam: float = setting(0.0, mode=("generate", "reduce", "stats"))
    hypothesis: str = setting("null", ("null", "alt"), mode=("generate", "reduce", "stats"))
    t0: float = setting(0.0, mode=("reduce",))
    sigma_star: float = setting(1.0, mode=("reduce",))
    c10: float = setting(0.1, mode=("reduce",))
    big_c: float = setting(1.0, mode=("stats",))
    calib_reps: int = setting(400, mode=("sweep",))
    reps: int = setting(200, mode=("sweep",))
    lam_grid: str = setting("0.05,0.1,0.2", mode=("sweep",))
    level: float = setting(0.05, mode=("sweep",))
    alpha: float = setting(0.05, mode=("reduce",))
    eta: float = setting(0.05, mode=("reduce",))


def _read_dataset(cfg: DataConfig):
    """The dataset at cfg.data_csv, and cfg with p set to its width."""
    try:
        with open(cfg.data_csv) as fh:
            data = dataset_from_csv(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read data_csv {cfg.data_csv}: {exc}") from exc
    if cfg.p is not None and cfg.p != data.p:
        raise ConfigError(f"p = {cfg.p} but {cfg.data_csv} has {data.p} columns")
    return data, replace(cfg, p=data.p)


def cmd_profile(cfg: ProfileConfig):
    xi = build_loading(cfg)
    s = profiles.regime_and_cutoff(xi, cfg.k_u, cfg.n, cfg.p, cfg.degree)
    upper, lower = profiles.rate_bounds(xi, cfg.k_u, cfg.n, cfg.p)
    head = "zeta,lambda,j1,nu1,nu2,k_eff,nu3,m_star,regime,upper,lower\n"
    row = ",".join(
        [repr(s.zeta), repr(s.lam), str(s.j1), repr(s.nu1), repr(s.nu2), str(s.k_eff), repr(s.nu3), str(s.m_star), s.regime, repr(upper), repr(lower)]
    )
    tgrid = np.unique(np.geomspace(1, xi.p, num=cfg.hcurve_points).round().astype(int))
    hcurve = "".join(["t,h\n"] + [f"{t},{repr(profiles.top_norm(xi, float(t)))}\n" for t in tgrid])
    return cfg, "profile", {".csv": head + row + "\n", "_hcurve.csv": hcurve}


def cmd_fit(cfg: FitConfig):
    data, cfg = _read_dataset(cfg)
    xi = build_loading(cfg)
    fit = scaled_lasso(data, sigma_floor=cfg.sigma_floor)
    proj = projection_direction(data, xi.original(), cfg.c_xi, data.n)
    support = np.flatnonzero(fit.beta_hat)
    fields = {
        "sigma_hat": repr(fit.sigma_hat),
        "nnz": str(support.size),
        "support": ";".join(map(str, support)),
        "u_l1": repr(float(np.abs(proj.u_hat).sum())),
        "u_l2": repr(float(np.linalg.norm(proj.u_hat))),
        "u_objective": repr(proj.objective),
        "u_feasible": str(proj.feasible),
    }
    if cfg.gamma_star is not None:
        spk = spiked_cov_estimate(data, cfg.k_u, cfg.gamma_star)
        fields["b_hat"] = ";".join(map(str, spk.b_hat))
        fields["fell_back_identity"] = str(spk.fell_back_identity)
    return cfg, "fit", {".csv": ",".join(fields) + "\n" + ",".join(fields.values()) + "\n"}


def cmd_test(cfg: TestCmdConfig):
    data, cfg = _read_dataset(cfg)
    problem = TestProblem(xi=build_loading(cfg), t0=cfg.t0, k_u=cfg.k_u, alpha=cfg.alpha, eta=cfg.eta)
    dec = run_single_test(cfg.mode, data, problem, cfg.master_seed, cfg.scan_all_m, cfg.sigma_floor)
    budget = ";".join(f"{k}:{repr(v)}" for k, v in dec.interval.budget.items())
    table = (
        "mode,reject,center,radius,m_used,level,budget\n"
        f"{cfg.mode},{int(dec.reject)},{repr(dec.interval.center)},{repr(dec.interval.radius)},{dec.m_used},{repr(dec.interval.level)},{budget}\n"
    )
    return cfg, "test", {".csv": table}


def cmd_prior(cfg: PriorConfig):
    xi = build_loading(cfg)
    k_u, n, p, sigma_star = cfg.k_u, cfg.n, cfg.p, cfg.sigma_star
    if cfg.kind == "nu2":
        def sampler(s):
            return sample_nu2_prior(xi, k_u, n, p, sigma_star, c1=cfg.c1, c2=cfg.c2, seed=s)
    elif cfg.kind == "nu1":
        tau = cfg.tau
        if tau is None:
            tau = (cfg.c4 * cfg.c5 / 4.0) * nu1_value(xi, k_u) / math.sqrt(n)
        def sampler(s):
            return sample_nu1_prior(xi, k_u, n, tau, c4=cfg.c4, c5=cfg.c5, seed=s, sigma_star=sigma_star)
    else:
        def sampler(s):
            return sample_comp_prior(xi, k_u, n, p, cfg.degree, c8=cfg.c8, c9=cfg.c9, seed=s, sigma_star=sigma_star)

    lines = ["draw,kappa,sparsity,eig_min,eig_max,residual,sigma,valid,reason\n"]
    for i in range(cfg.draws):
        d = sampler(cfg.master_seed + i)
        lines.append(
            f"{i},{repr(d.kappa)},{d.sparsity},{repr(d.eig_min)},{repr(d.eig_max)},"
            f"{repr(d.constraint_residual(xi))},{repr(d.noise_sd)},{int(d.valid)},{d.reason}\n"
        )
    tables = {".csv": "".join(lines)}
    if cfg.chi2_reps:
        ref = JointCovariance(sigma_z=np.diag(np.concatenate(([sigma_star**2], np.ones(p)))))
        est, se = chi2_mixture_mc(sampler, ref, n, cfg.chi2_reps, cfg.master_seed + 10_000, valid_only=True)
        tables["_chi2.csv"] = f"estimate,se\n{repr(est)},{repr(se)}\n"
    return cfg, "prior", tables


def cmd_lowdeg(cfg: LowdegConfig):
    xi = build_loading(cfg)
    n, p, seed = cfg.n, cfg.p, cfg.master_seed
    draws = []
    s = seed
    while len(draws) < 2 * cfg.pairs:
        d = sample_comp_prior(
            xi, cfg.k_u, n, p, 1, c8=cfg.c8, c9=cfg.c9, seed=s, sigma_star=cfg.sigma_star,
            k_eff_override=cfg.k_eff, s1_override=cfg.s1, allow_tiny=True,
        )
        s += 1
        if d.valid:
            draws.append(d)
        if s - seed > 100 * cfg.pairs:
            raise AdaptestError("rejection sampling stalled; loosen the prior constants")
    pair_list = [(draws[i], draws[i + 1]) for i in range(0, len(draws) - 1, 2)]
    chi2_ref = float(np.mean([chi2_pair_closed_form(a, b, n) for a, b in pair_list])) - 1.0
    lines = ["degree,ld,chi2_ref,log_uniform_bound\n"]
    for deg in range(cfg.degree_max + 1):
        val = ld_norm(draws, deg, n)
        bound = ld_uniform_bound(n, p, max(deg, 1))
        lines.append(f"{deg},{repr(val)},{repr(chi2_ref)},{repr(bound)}\n")
    return cfg, "lowdeg", {".csv": "".join(lines)}


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
        lines = [",".join(cols) + "\n"]
        for i in range(inst.rows):
            lines.append(",".join(repr(v) for v in np.concatenate((inst.u1[i], inst.u2[i]))) + "\n")
        tables[".csv"] = "".join(lines)
    elif cfg.mode == "reduce":
        inst = scca.gen_scca(params, cfg.hypothesis, seed)
        ds, problem, tau_red = scca.reduce_to_lt(
            inst, cfg.sigma_star, cfg.c10, cfg.t0, seed + 1, alpha=cfg.alpha, eta=cfg.eta
        )
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        tables[".csv"] = buf.getvalue()
        tables["_problem.csv"] = (
            "t0,k_u,k_xi,tau_red,alpha,eta\n"
            f"{repr(problem.t0)},{problem.k_u},{problem.xi.k_xi},{repr(tau_red)},{repr(problem.alpha)},{repr(problem.eta)}\n"
        )
    elif cfg.mode == "stats":
        r = scca.sample_cross_covariance(params, cfg.hypothesis, seed)
        thr = scca.thresholds(params.n, params.s, params.p1, params.p2, cfg.big_c)
        rep = scca.stat_report(r, params.s, thr)
        lines = ["statistic,value,threshold,decision\n"]
        for k in scca.STATISTICS:
            lines.append(f"{k},{repr(rep.values[k])},{repr(rep.thresholds[k])},{int(rep.decisions[k])}\n")
        tables[".csv"] = "".join(lines)
    else:
        thr = scca.calibrate_thresholds(params, cfg.calib_reps, seed, cfg.level)
        lines = ["lam,statistic,power,se\n"]
        for lam in float_list(cfg.lam_grid):
            pa = replace(params, lam=lam)
            hits = {k: 0 for k in scca.STATISTICS}
            for i in range(cfg.reps):
                r = scca.sample_cross_covariance(pa, "alt", seed, scca.ALT_STREAMS + i)
                rep = scca.stat_report(r, params.s, thr)
                for k in scca.STATISTICS:
                    hits[k] += int(rep.decisions[k])
            for k in scca.STATISTICS:
                pw = hits[k] / cfg.reps
                lines.append(f"{repr(lam)},{k},{repr(pw)},{repr(math.sqrt(max(pw * (1 - pw), 0.0) / cfg.reps))}\n")
        tables[".csv"] = "".join(lines)
    return cfg, f"scca_{cfg.mode}", tables


def cmd_simulate(cfg: ExperimentConfig, emit_plotdata: bool):
    rows = harness.run_experiment(cfg)
    tables = {".csv": harness.rows_to_csv(rows)}
    if emit_plotdata:
        lines = ["series,x,y,se\n"]
        for series, x, y, se in harness.plotdata_rows(rows):
            lines.append(f"{series},{repr(x)},{repr(y)},{repr(se)}\n")
        tables["_plotdata.csv"] = "".join(lines)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="adaptest", description="adaptive linear-functional testing toolbox")
    parser.add_argument("command", choices=sorted(_DISPATCH))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--emit-plotdata", action="store_true")
    args = parser.parse_args(argv)
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
