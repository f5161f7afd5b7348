"""The benchmark's workloads: the inputs each one writes from the seed, the
CLI operations it runs, and the checks on what those operations output.

Every workload is a closed loop of ``adaptest.cli.main`` calls in one
process: the next operation starts when the previous one returns.  The
amount of work is fixed by ``--seconds`` (operations per second of the
seed commit on a 2-core machine), not by the clock, so two runs with the
same arguments do the same work and report the same counts.
"""

from __future__ import annotations

import csv
import math
import re
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

# Thresholds of the acceptance suite (tests/test_acceptance.py).
NULL_RATE_MAX = 0.08  # criterion 3
POWER_MIN = 0.9  # criterion 4
CHI2_REL_TOL = 1e-10  # criterion 6a
PRIOR_M1 = PRIOR_M2 = 10.0  # criterion 5 spectrum and noise bounds


@dataclass(frozen=True)
class Op:
    """One CLI call: ``adaptest <command> --config <file> --seed <seed>``."""

    command: str
    config: str
    seed: int
    reps: int  # Monte Carlo replicates the call runs


@dataclass(frozen=True)
class OpResult:
    op: Op
    out: Path
    ok: bool
    seconds: float


def kv_text(pairs: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` (0 is the warm-up) of a run."""
    return 1000 * seed + index


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def only_csv(out: Path, prefix: str, suffix: str = ".csv") -> Path:
    """The single result CSV named ``<prefix>_<digest><suffix>`` in ``out``."""
    pattern = re.compile(rf"{prefix}_[0-9a-f]{{16}}{re.escape(suffix)}")
    found = [p for p in out.iterdir() if pattern.fullmatch(p.name)]
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {prefix}_*{suffix} in {out}, found {len(found)}")
    return found[0]


def csv_bytes(results: list[OpResult]) -> list[dict[str, bytes]]:
    """Per operation, the bytes of each result CSV it wrote."""
    return [{p.name: p.read_bytes() for p in sorted(r.out.glob("*.csv"))} for r in results]


class Failures(list):
    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.append(message)


# --- Monte Carlo size and power through `simulate` ---------------------------

CRITERION3 = {
    "kind": "size_power",
    "n": 300,
    "p": 600,
    "k_u": 5,
    "k": 5,
    "alpha": 0.05,
    "eta": 0.05,
    "t0": 4.0,
    "modes": "mixed",
}


@dataclass(frozen=True)
class Simulate:
    """``simulate`` size/power runs of the mixed test: the null and one
    alternative at tau = 4 x the median null radius of an untimed pilot."""

    name: str
    problem: dict
    threads: int
    reps_per_op: int
    ops_per_s: float
    pilot_reps: int
    compare_threads: int | None = None  # replay at this worker count and compare CSVs

    def _config(self, reps: int, tau_grid: str, threads: int) -> str:
        return kv_text({**self.problem, "threads": threads, "reps": reps, "tau_grid": tau_grid})

    def warmup(self, runner, seed: int) -> dict:
        op = Op("simulate", self._config(self.pilot_reps, "", self.threads), op_seed(seed, 0), self.pilot_reps)
        (res,) = runner.run_pass([op], "warmup").results
        rows = read_csv(only_csv(res.out, "simulate_size_power"))
        radii = [float(r["value"]) for r in rows if r["metric"] == "radius/null/mixed" and int(r["replicate"]) >= 0]
        return {"tau": 4.0 * statistics.median(radii)}

    def ops(self, seed: int, seconds: float, state: dict, threads: int | None = None) -> list[Op]:
        count = max(1, round(seconds * self.ops_per_s))
        config = self._config(self.reps_per_op, repr(float(state["tau"])), threads or self.threads)
        return [Op("simulate", config, op_seed(seed, i + 1), self.reps_per_op) for i in range(count)]

    def check(self, runner, results: list[OpResult], seed: int, seconds: float, state: dict):
        fails = Failures()
        null, radii, alt = [], [], []
        for res in results:
            if not res.ok:
                continue
            for r in read_csv(only_csv(res.out, "simulate_size_power")):
                if int(r["replicate"]) < 0:
                    continue
                value = float(r["value"])
                if r["metric"] == "reject/null/mixed":
                    null.append(value)
                elif r["metric"] == "radius/null/mixed":
                    radii.append(value)
                elif r["metric"].startswith("reject/alt/mixed/"):
                    alt.append(value)
        expected = sum(res.op.reps for res in results)
        fails.expect(len(null) == len(radii) == len(alt) == expected, f"{self.name}: replicate rows missing")
        fails.expect(all(math.isfinite(v) and v >= 0.0 for v in radii), f"{self.name}: non-finite null radius")
        null_rate = statistics.fmean(null) if null else math.nan
        power = statistics.fmean(alt) if alt else math.nan
        fails.expect(null_rate <= NULL_RATE_MAX, f"{self.name}: null rate {null_rate} > {NULL_RATE_MAX}")
        fails.expect(power >= POWER_MIN, f"{self.name}: power {power} < {POWER_MIN}")
        if self.compare_threads is not None:
            # criterion 13: the same inputs at another worker count give the same bytes
            replay = runner.run_pass(self.ops(seed, seconds, state, self.compare_threads), "replay").results
            fails.expect(
                csv_bytes(replay) == csv_bytes(results),
                f"{self.name}: CSVs at threads={self.threads} differ from threads={self.compare_threads}",
            )
        stats = {"mean_radius": statistics.fmean(radii) if radii else math.nan, "power": power}
        return fails, stats


# --- lower-bound tools: priors, low-degree norm, SCCA --------------------------

PRIOR = {
    "kind": "nu2",
    "n": 1000,
    "p": 200,
    "k_u": 16,
    "loading": "regular",
    "loading_k": 100,
    "loading_a": 1.0,
    "sigma_star": 5.0,
    "c1": 0.05,
    "draws": 500,
    "chi2_reps": 200,
}
# criterion-9 instance
LOWDEG = {"n": 2, "p": 3, "k_u": 1, "k_eff": 2, "s1": 1, "c8": 0.4, "c9": 0.05, "sigma_star": 1.0, "degree_max": 4, "pairs": 40}
LOWDEG_LOADING = (1.0, 0.9, 0.8)
SCCA = {"mode": "sweep", "n": 4000, "s": 2, "p1": 10, "p2": 40, "calib_reps": 400, "reps": 200, "lam_grid": "0.1", "level": 0.05}

# Cut-down sizes for the untimed warm-up round.
PRIOR_WARMUP = {**PRIOR, "n": 100, "p": 20, "loading_k": 10, "draws": 20, "chi2_reps": 100}
LOWDEG_WARMUP = {**LOWDEG, "degree_max": 2, "pairs": 4}
SCCA_WARMUP = {**SCCA, "n": 400, "calib_reps": 20, "reps": 10}


def _prior_reps(cfg: dict) -> int:
    return cfg["draws"] + cfg["chi2_reps"]


def _scca_reps(cfg: dict) -> int:
    return cfg["calib_reps"] + cfg["reps"] * len(str(cfg["lam_grid"]).split(","))


class LowerBound:
    """Rounds of ``prior`` (nu2 draws and the chi-square mixture estimate),
    ``lowdeg`` (LD(D) on the criterion-9 instance) and ``scca`` (sweep)."""

    name = "lower_bound"
    threads = 1

    def __init__(self, rounds_per_s: float):
        self.rounds_per_s = rounds_per_s

    @staticmethod
    def _round(seed: int, prior: dict, lowdeg: dict, scca: dict) -> list[Op]:
        return [
            Op("prior", kv_text(prior), seed, _prior_reps(prior)),
            Op("lowdeg", kv_text(lowdeg), seed, lowdeg["pairs"]),
            Op("scca", kv_text(scca), seed, _scca_reps(scca)),
        ]

    def warmup(self, runner, seed: int) -> dict:
        loading = runner.write_input("lowdeg_loading.csv", "xi\n" + "".join(f"{v!r}\n" for v in LOWDEG_LOADING))
        state = {"loading_csv": str(loading)}
        ops = self._round(op_seed(seed, 0), PRIOR_WARMUP, {**LOWDEG_WARMUP, **state}, SCCA_WARMUP)
        runner.run_pass(ops, "warmup")
        return state

    def ops(self, seed: int, seconds: float, state: dict) -> list[Op]:
        rounds = max(1, round(seconds * self.rounds_per_s))
        lowdeg = {**LOWDEG, "loading_csv": state["loading_csv"]}
        return [op for r in range(rounds) for op in self._round(op_seed(seed, r + 1), PRIOR, lowdeg, SCCA)]

    def check(self, runner, results: list[OpResult], seed: int, seconds: float, state: dict):
        fails = Failures()
        powers, ses = [], []
        for res in results:
            if not res.ok:
                continue
            if res.op.command == "prior":
                ses.append(self._check_prior(res, fails))
            elif res.op.command == "lowdeg":
                self._check_lowdeg(res, fails)
            else:
                rows = read_csv(only_csv(res.out, "scca_sweep"))
                power = {(r["lam"], r["statistic"]): float(r["power"]) for r in rows}
                for lam in {r["lam"] for r in rows}:
                    fails.expect(
                        power[lam, "scan"] >= power[lam, "max_col"],
                        f"scca seed {res.op.seed}: scan power {power[lam, 'scan']} < max-col {power[lam, 'max_col']}",
                    )
                    powers.append(power[lam, "scan"])
                ses.extend(float(r["se"]) for r in rows)
        fails.expect(len(powers) * 3 == len(results), "lower_bound: operation outputs missing")
        stats = {
            "mean_radius": statistics.fmean(ses) if ses else math.nan,
            "power": statistics.fmean(powers) if powers else math.nan,
        }
        return fails, stats

    @staticmethod
    def _check_prior(res: OpResult, fails: Failures) -> float:
        """Criterion 5 on every valid draw and criterion 6a on the chi-square
        estimate; returns the estimate's standard error."""
        from adaptest import chi2_pair_closed_form, example_profiles, sample_nu2_prior

        cfg = PRIOR
        xi = example_profiles("regular", {"K": cfg["loading_k"], "a": cfg["loading_a"], "p": cfg["p"]})

        def draw(s):
            return sample_nu2_prior(xi, cfg["k_u"], cfg["n"], cfg["p"], cfg["sigma_star"], c1=cfg["c1"], seed=s)

        tau = draw(res.op.seed).tau
        rows = read_csv(only_csv(res.out, "prior"))
        fails.expect(len(rows) == cfg["draws"], f"prior seed {res.op.seed}: {len(rows)} draws")
        for r in rows:
            if r["valid"] != "1":
                continue
            kappa, eig_min, eig_max = float(r["kappa"]), float(r["eig_min"]), float(r["eig_max"])
            fails.expect(
                0.0 < kappa <= 1.0
                and int(r["sparsity"]) <= cfg["k_u"] // 2
                and abs(float(r["residual"])) <= 1e-10 * max(abs(tau), 1.0)
                and 1.0 / PRIOR_M1 <= eig_min <= eig_max <= PRIOR_M1
                and 0.0 < float(r["sigma"]) <= PRIOR_M2,
                f"prior seed {res.op.seed}: valid draw {r['draw']} breaks criterion 5",
            )

        # The CLI estimates over pairs of valid draws with seeds seed + 10_000 + k.
        (chi2,) = read_csv(only_csv(res.out, "prior", "_chi2.csv"))
        nxt = res.op.seed + 10_000

        def next_valid():
            nonlocal nxt
            while True:
                d = draw(nxt)
                nxt += 1
                if d.valid:
                    return d

        closed = [chi2_pair_closed_form(next_valid(), next_valid(), cfg["n"]) for _ in range(cfg["chi2_reps"])]
        mean_closed = statistics.fmean(closed)
        mean_dense = 1.0 + float(chi2["estimate"])
        fails.expect(
            abs(mean_dense - mean_closed) <= CHI2_REL_TOL * abs(mean_closed),
            f"prior seed {res.op.seed}: chi-square {mean_dense} vs closed form {mean_closed}",
        )
        return float(chi2["se"])

    @staticmethod
    def _check_lowdeg(res: OpResult, fails: Failures) -> None:
        """Criterion 9: LD(0) = 1 and LD(D) nondecreasing in D."""
        rows = read_csv(only_csv(res.out, "lowdeg"))
        ld = [float(r["ld"]) for r in sorted(rows, key=lambda r: int(r["degree"]))]
        fails.expect(len(ld) == LOWDEG["degree_max"] + 1 and ld[0] == 1.0, f"lowdeg seed {res.op.seed}: LD(0) != 1")
        fails.expect(
            all(a <= b + 1e-13 * (d + 1) for d, (a, b) in enumerate(zip(ld, ld[1:]))),
            f"lowdeg seed {res.op.seed}: LD decreases in degree: {ld}",
        )


# Work per second of --seconds, sized at the seed commit on a 2-core machine
# with one BLAS thread: --seconds 10 takes 10-11 s of calls there, except
# lower_bound, whose three whole rounds (about 21 s) average its statistics
# over enough draws.  scan_m's loading is drawn from each call's seed, so it
# runs many small calls.
SIZE_POWER = Simulate(
    "size_power", {**CRITERION3, "loading": "regular", "loading_k": 5}, threads=1,
    reps_per_op=4, ops_per_s=2.0, pilot_reps=8,
)
WORKLOADS = {
    "size_power": SIZE_POWER,
    "size_power_2w": replace(SIZE_POWER, name="size_power_2w", threads=2, compare_threads=1),
    "scan_m": Simulate(
        "scan_m", {**CRITERION3, "loading": "subweibull", "loading_q": 2.0, "scan_all_m": "true"}, threads=1,
        reps_per_op=2, ops_per_s=2.4, pilot_reps=8,
    ),
    "lower_bound": LowerBound(rounds_per_s=0.3),
}
