import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptest import cli, harness, inference, profiles
from adaptest.cli import ProfileConfig, main as cli_main
from adaptest.errors import ConfigError
from adaptest.estimators import Gram, spiked_cov_estimate
from adaptest.inference import mixed_test
from adaptest.model import ModelParams, TestProblem as Problem, generate_dataset, make_loading, stream
from adaptest.profiles import solve_zeta
from adaptest.harness import (
    ExperimentConfig,
    config_digest,
    format_config,
    m_cutoff_grid,
    parse_config,
    rows_to_csv,
    run_experiment,
)

SIZE_CFG = """
kind = size_power
n = 120
p = 60
k_u = 3
k = 2
reps = 10
loading = regular
loading_k = 3
tau_grid = 0.0
modes = mixed
master_seed = 4
"""

# The criterion-3 problem (n = 300, p = 600) with one alternative, at a size a unit test can afford.
CRITERION3_CFG = "kind = size_power\nn = 300\np = 600\nk_u = 5\nk = 5\nt0 = 4.0\ntau_grid = 10.0\nreps = 3\nmaster_seed = 1\n"
SUBWEIBULL = "loading = subweibull\nloading_q = 2.0\n"
ALL_MODES = "mixed,plugin,debiased,known_sigma,spiked"

BOOL_SPELLINGS = {True: ("1", "true", "yes", "on"), False: ("0", "false", "no", "off")}
BY_TYPE = {
    "int": st.integers(-(2**63), 2**63),
    "float": st.floats(allow_nan=False),  # nan != nan, so no equality round trip
    "bool": st.booleans(),
    "str": st.text(alphabet="abcxyzABCXYZ0123456789_.,/-", max_size=12),
}


MODE_LISTS = st.lists(st.sampled_from(inference.TEST_MODES), min_size=1, unique=True).map(",".join)


@st.composite
def experiment_configs(draw):
    """An ExperimentConfig whose tag keys take allowed values, whose modes
    name test modes (scan_all_m and eta at their defaults without mixed) and
    whose keys the tags do not read keep their defaults."""
    values = {
        f.name: draw(st.sampled_from(f.metadata["choices"]) if f.metadata.get("choices") else BY_TYPE[f.type])
        for f in dataclasses.fields(ExperimentConfig)
    }
    values["modes"] = draw(MODE_LISTS)
    if "mixed" not in values["modes"]:
        values.update(scan_all_m=False, eta=ExperimentConfig.eta)
    cfg = ExperimentConfig(**values)
    unread = [f.name for f in dataclasses.fields(cfg) if harness._blocker(cfg, f.name)]
    return dataclasses.replace(cfg, **{name: getattr(ExperimentConfig(), name) for name in unread})


EXPERIMENT_CONFIGS = experiment_configs()


# Base keys that make each command's config complete; the tag key comes from
# the case.  test's data_csv need not exist: key checks run before it is read.
BASE = {
    "prior": "n = 1000\np = 100\nk_u = 8\nloading_k = 30\ndraws = 2\n",
    "scca": "n = 400\ns = 2\np1 = 6\np2 = 12\n",
    "simulate": "p = 40\nreps = 1\n",
    "test": "data_csv = missing.csv\nk_u = 3\n",
    "profile": "n = 1000\np = 100\nk_u = 4\n",
}
# (command, tag key, tag value) -> the keys that variant does not read
UNREAD = {
    ("prior", "kind", "nu2"): "degree tau c4 c5 c8 c9",
    ("prior", "kind", "nu1"): "degree c1 c2 c8 c9",
    ("prior", "kind", "comp"): "tau c1 c2 c4 c5",
    ("scca", "mode", "generate"): "t0 sigma_star c10 big_c calib_reps reps lam_grid level alpha eta",
    ("scca", "mode", "reduce"): "big_c calib_reps reps lam_grid level",
    ("scca", "mode", "stats"): "t0 sigma_star c10 calib_reps reps lam_grid level alpha eta",
    ("scca", "mode", "sweep"): "lam hypothesis t0 sigma_star c10 big_c alpha eta",
    ("simulate", "kind", "size_power"): "m_grid gamma_xi_grid gamma_tau_grid gamma_u gamma_n",
    ("simulate", "kind", "length_sweep"): (
        "modes tau_grid null_source sigma_star scan_all_m gamma_xi_grid gamma_tau_grid gamma_u gamma_n"
    ),
    ("simulate", "kind", "phase_diagram"): (
        "n k_u loading loading_k loading_a loading_l loading_q loading_csv "
        "modes tau_grid null_source sigma_star scan_all_m m_grid"
    ),
    ("simulate", "null_source", "point"): "sigma_star",
    **{("test", "mode", mode): "eta scan_all_m" for mode in ("plugin", "debiased", "known_sigma", "spiked")},
    ("profile", "loading", "regular"): "loading_l loading_q",
    ("profile", "loading", "multiscale"): "loading_k loading_q",
    ("profile", "loading", "subweibull"): "loading_k loading_a loading_l",
    ("profile", "loading_csv", "xi.csv"): "loading loading_k loading_a loading_l loading_q",
    ("simulate", "loading", "subweibull"): "loading_k loading_a loading_l",
    ("simulate", "loading_csv", "xi.csv"): "loading loading_k loading_a loading_l loading_q",
}
UNREAD_CASES = [(cmd, tag, val, key) for (cmd, tag, val), keys in UNREAD.items() for key in keys.split()]
SAMPLE_VALUE = {"loading": "regular", "null_source": "nu1", "hypothesis": "null"}  # tag keys: a valid choice
BAD_TAGS = [
    ("prior", "kind"), ("scca", "mode"), ("simulate", "kind"), ("simulate", "null_source"),
    ("test", "mode"), ("profile", "loading"), ("simulate", "loading"), ("scca", "hypothesis"),
]
# Keys read per variant, loading conditions aside (README "Config keys by command").
KEYS_READ = [
    (cli.PriorConfig, {"kind": "nu2"}, 17),
    (cli.PriorConfig, {"kind": "nu1"}, 18),
    (cli.PriorConfig, {"kind": "comp"}, 18),
    (cli.SccaConfig, {"mode": "generate"}, 9),
    (cli.SccaConfig, {"mode": "reduce"}, 14),
    (cli.SccaConfig, {"mode": "stats"}, 10),
    (cli.SccaConfig, {"mode": "sweep"}, 11),
    (ExperimentConfig, {"kind": "size_power", "null_source": "nu1"}, 24),
    (ExperimentConfig, {"kind": "length_sweep"}, 20),
    (ExperimentConfig, {"kind": "phase_diagram"}, 15),
    (cli.TestCmdConfig, {"mode": "mixed"}, 17),
    (cli.TestCmdConfig, {"mode": "plugin"}, 15),
]


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config(SIZE_CFG)
        assert parse_config(format_config(cfg)) == cfg

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("bogus = 1")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("n = lots")

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nn = 50  # inline\n")
        assert cfg.n == 50

    def test_digest_semantics(self):
        cfg = parse_config(SIZE_CFG)
        base = config_digest(cfg)
        assert config_digest(dataclasses.replace(cfg, n=121)) != base
        assert config_digest(dataclasses.replace(cfg, master_seed=5)) != base
        assert config_digest(dataclasses.replace(cfg, threads=8)) == base
        assert config_digest(dataclasses.replace(cfg, out="/elsewhere")) == base

    @settings(deadline=None, max_examples=200)
    @given(cfg=EXPERIMENT_CONFIGS, data=st.data())
    def test_round_trip_property(self, cfg, data):
        text = format_config(cfg)
        assert parse_config(text) == cfg
        bools = {f.name for f in dataclasses.fields(cfg) if f.type == "bool"}
        lines = []
        for line in text.splitlines():
            key, value = line.split(" = ", 1)
            if key in bools:
                word = data.draw(st.sampled_from(BOOL_SPELLINGS[getattr(cfg, key)]))
                value = data.draw(st.sampled_from([word, word.upper(), word.title()]))
            lines.append(f"{key} = {value}")
        assert parse_config("\n".join(lines)) == cfg

    def test_command_schema_required_key(self):
        with pytest.raises(ConfigError, match="k_u"):
            parse_config("n = 10\np = 5\n", ProfileConfig)
        cfg = parse_config("n = 10\np = 5\nk_u = 9\n", ProfileConfig)
        assert (cfg.degree, cfg.loading_k) == (1, 5)

    @pytest.mark.parametrize("schema, tags, count", KEYS_READ, ids=lambda v: getattr(v, "__name__", str(v)))
    def test_keys_read_per_variant(self, schema, tags, count):
        required = {f.name: 1 for f in dataclasses.fields(schema) if f.default is dataclasses.MISSING}
        cfg = schema(**{**required, **tags})
        blockers = [harness._blocker(cfg, f.name) for f in dataclasses.fields(cfg)]
        assert sum(b is None or b[0] in ("loading", "loading_csv") for b in blockers) == count

    def test_mode_specific_keys_need_mixed(self):
        base = "modes = plugin,debiased\nreps = 0\n"
        assert run_experiment(parse_config(base + "eta = 0.05\n")) == []
        for extra in ("scan_all_m = 1\n", "eta = 0.1\n"):
            with pytest.raises(ConfigError, match="modes includes mixed"):
                run_experiment(parse_config(base + extra))

    @pytest.mark.parametrize(
        "extra, word",
        [("modes = mixed,bogus\n", "bogus"), ("modes = ,\n", "one or more of mixed"),
         ("modes = plugin\nscan_all_m = 1\n", "scan_all_m"), ("modes = plugin,debiased\neta = 0.1\n", "eta")],
        ids=["unknown", "empty", "scan_all_m", "eta"],
    )
    def test_modes_checked_when_parsed(self, tmp_path, extra, word, capsys):
        with pytest.raises(ConfigError, match=word):
            parse_config(BASE["simulate"] + extra)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE["simulate"] + extra)
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunners:
    def test_zero_replicates_empty_table(self):
        cfg = dataclasses.replace(parse_config(SIZE_CFG), reps=0)
        assert run_experiment(cfg) == []

    def test_thread_count_invariance(self):
        cfg = parse_config(SIZE_CFG)
        tables = {
            rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=t))) for t in (1, 2, 4)
        }
        assert len(tables) == 1

    def test_null_size_controlled(self):
        cfg = dataclasses.replace(parse_config(SIZE_CFG), reps=120, n=150, p=80)
        rows = run_experiment(cfg)
        rate = next(r for r in rows if r.metric == "mean/reject/null/mixed")
        assert rate.value <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 120)

    def test_power_at_four_radii(self):
        cfg = dataclasses.replace(parse_config(SIZE_CFG), reps=40)
        pilot = run_experiment(cfg)
        radius = next(r for r in pilot if r.metric == "mean/radius/null/mixed").value
        cfg2 = dataclasses.replace(cfg, tau_grid=repr(4 * radius))
        rows = run_experiment(cfg2)
        power = next(
            r for r in rows if r.metric.startswith("mean/reject/alt/mixed/tau=")
        ).value
        assert power >= 0.9

    def test_prior_null_sources_run(self):
        for src in ("nu1", "nu2"):
            cfg = dataclasses.replace(
                parse_config(SIZE_CFG), reps=5, null_source=src, k_u=8, loading_k=30, p=60, n=150
            )
            rows = run_experiment(cfg)
            assert any(r.metric == "mean/reject/null/mixed" for r in rows)

    def test_length_sweep_contract(self):
        cfg = parse_config(
            "kind = length_sweep\nn = 100\np = 50\nk_u = 3\nk = 2\nreps = 3\n"
            "loading = regular\nloading_k = 3\nm_grid = 16\n"
        )
        rows = run_experiment(cfg)
        radii = {r.metric: r.value for r in rows if r.replicate == -1}
        assert len(radii) >= 16
        argmin = min(radii.values())
        assert argmin <= radii["mean/radius/m=0"]
        assert argmin <= radii["mean/radius/m=50"]

    def test_length_sweep_flat_sparse_argmin_covers_support(self):
        # debiased side should absorb the whole support of a flat sparse loading
        cfg = parse_config(
            "kind = length_sweep\nn = 400\np = 80\nk_u = 6\nk = 3\nreps = 6\n"
            "loading = regular\nloading_k = 5\nm_grid = 20\n"
        )
        rows = run_experiment(cfg)
        radii = {}
        for r in rows:
            if r.replicate == -1:
                m = int(r.metric.split("=")[-1])
                radii[m] = r.value
        best_m = min(radii, key=radii.get)
        assert best_m >= 5

    @pytest.mark.parametrize("loading", ["loading_k = 5\n", SUBWEIBULL + "scan_all_m = 1\n"], ids=["regular", "scan"])
    def test_criterion3_run_never_forms_the_full_gram(self, loading, monkeypatch):
        def refuse(*args):
            raise AssertionError("the full X'X/n was formed")

        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "adaptest"]:
            if hasattr(mod, "sample_cov"):
                monkeypatch.setattr(mod, "sample_cov", refuse)
        formed = []

        def counted(data, *args, **kwargs):
            dec = mixed_test(data, *args, **kwargs)
            formed.append(len(Gram.of(data).columns))
            return dec

        monkeypatch.setattr(inference, "mixed_test", counted)
        rows = run_experiment(parse_config(CRITERION3_CFG + loading))
        assert any(r.metric == "mean/reject/null/mixed" for r in rows)
        assert len(formed) == 2 * 3
        assert max(formed) <= 32

    def test_debiased_mode_does_not_depend_on_the_modes_before_it(self):
        # a dense loading, so the mixed head's direction and the debiased one touch different columns
        cfg = parse_config(CRITERION3_CFG + SUBWEIBULL + "modes = mixed,debiased\n")
        table = {(r.replicate, r.metric): repr(float(r.value)) for r in run_experiment(cfg)}
        xi = harness.build_loading(cfg)
        problem = Problem(xi=xi, t0=cfg.t0, k_u=cfg.k_u, alpha=cfg.alpha, eta=cfg.eta)
        theta = harness.null_point(xi, cfg.k, cfg.t0, cfg.p, cfg.noise_sd)
        for rep in range(cfg.reps):
            fresh, shared, primed = (generate_dataset(theta, cfg.n, seed=cfg.master_seed + 1_000_003 * (rep + 1)) for _ in "abc")
            alone = inference.run_single_test("debiased", fresh, problem, seed=cfg.master_seed + rep)
            assert repr(float(alone.interval.radius)) == table[rep, "radius/null/debiased"]
            assert repr(float(alone.reject)) == table[rep, "reject/null/debiased"]
            inference.run_single_test("mixed", shared, problem, seed=cfg.master_seed + rep)
            after = inference.run_single_test("debiased", shared, problem, seed=cfg.master_seed + rep)
            assert after == alone
            Gram.of(primed).cols(range(cfg.p - 1, -1, -1))  # as if an earlier mode had read every column
            assert inference.run_single_test("debiased", primed, problem, seed=cfg.master_seed + rep) == alone

    def test_spiked_mode_splits_once(self, monkeypatch):
        p, k_u, seed = 8, 2, 9
        problem = Problem(xi=make_loading(np.ones(p)), t0=0.0, k_u=k_u, alpha=0.05, eta=0.05)
        theta = ModelParams(beta=np.zeros(p), sigma_cov=np.eye(p), noise_sd=1.0)
        data, fresh = (generate_dataset(theta, 200, 31) for _ in "ab")
        splits, spiked_on, lasso_on = [], [], []

        def counted_stream(master_seed, index=0):
            splits.append((master_seed, index))
            return stream(master_seed, index)

        def spy(fn, seen):
            return lambda d, *args, **kwargs: seen.append(d) or fn(d, *args, **kwargs)

        monkeypatch.setattr(inference, "stream", counted_stream)
        monkeypatch.setattr(inference, "spiked_cov_estimate", spy(spiked_cov_estimate, spiked_on))
        monkeypatch.setattr(inference, "scaled_lasso", spy(inference.scaled_lasso, lasso_on))
        dec = inference.run_single_test("spiked", data, problem, seed=seed)
        assert splits == [(seed, 1)]
        half1 = inference.split_half(data, seed)[0]
        assert len(spiked_on) == len(lasso_on) == 1
        assert spiked_on[0] is half1 and lasso_on[0] is half1
        # the shared halves are the halves a fresh split makes
        assert dec.interval == inference.spiked_ci(fresh, problem.xi, k_u, problem.alpha, seed)

    def test_spiked_rows_do_not_depend_on_known_sigma_before_them(self):
        # both split-half modes read half 2's memoised Gram; sharing it moves no spiked byte
        cfg = dataclasses.replace(parse_config(SIZE_CFG), p=8, k_u=2, reps=6, tau_grid="0.0,1.5")

        def spiked_rows(modes):
            rows = run_experiment(dataclasses.replace(cfg, modes=modes))
            return [(r.replicate, r.metric, repr(r.value), repr(r.se)) for r in rows if "spiked" in r.metric]

        alone = spiked_rows("spiked")
        assert len(alone) == 6 * 4 + 4  # reject and radius under the null, reject at two alternatives
        assert spiked_rows("known_sigma,spiked") == alone
        # the whole interval, center included, on datasets where known_sigma ran first
        xi = harness.build_loading(cfg)
        problem = Problem(xi=xi, t0=cfg.t0, k_u=cfg.k_u, alpha=cfg.alpha, eta=cfg.eta)
        theta = harness.null_point(xi, cfg.k, cfg.t0, cfg.p, cfg.noise_sd)
        for rep in range(cfg.reps):
            fresh, shared = (generate_dataset(theta, cfg.n, seed=cfg.master_seed + 1_000_003 * (rep + 1)) for _ in "ab")
            inference.run_single_test("known_sigma", shared, problem, seed=cfg.master_seed + rep)
            after = inference.run_single_test("spiked", shared, problem, seed=cfg.master_seed + rep)
            assert after == inference.run_single_test("spiked", fresh, problem, seed=cfg.master_seed + rep)

    def test_one_lasso_fit_per_dataset_across_modes(self, monkeypatch):
        # mixed, plugin and debiased share the fit on the dataset, known_sigma and spiked the fit on half 1
        cfg = dataclasses.replace(parse_config(SIZE_CFG), p=10, reps=4, modes=ALL_MODES, tau_grid="1.0")
        fits, lasso = [], inference.scaled_lasso
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "adaptest"]:
            if hasattr(mod, "scaled_lasso"):
                monkeypatch.setattr(mod, "scaled_lasso", lambda data, **kw: fits.append(lasso(data, **kw)) or fits[-1])
        run_experiment(cfg)
        assert len({id(fit) for fit in fits}) == 4 * 2 * 2
        assert not any(fit.beta_hat.flags.writeable for fit in fits)

    def test_mixed_rows_do_not_depend_on_the_modes_beside_them(self):
        cfg = dataclasses.replace(parse_config(SIZE_CFG), p=10, reps=4, tau_grid="0.0,1.0")

        def mixed_rows(modes):
            rows = run_experiment(dataclasses.replace(cfg, modes=modes))
            return [(r.replicate, r.metric, repr(r.value), repr(r.se)) for r in rows if "mixed" in r.metric.split("/")]

        alone = mixed_rows("mixed")
        assert len(alone) == 4 * 4 + 4  # reject and radius under the null, reject at two alternatives
        assert mixed_rows(ALL_MODES) == alone

    def test_m_cutoff_grid(self):
        grid = m_cutoff_grid(50, 16)
        assert len(grid) >= 16
        assert grid[0] == 0 and grid[-1] == 50
        assert grid == sorted(set(grid))

    def test_phase_diagram_labels_and_monotone_power(self):
        cfg = parse_config(
            "kind = phase_diagram\np = 64\nreps = 30\nk = 2\n"
            "gamma_u = 0.25\ngamma_n = 0.9\n"
            "gamma_xi_grid = 0.35\ngamma_tau_grid = 0.4,0.8,1.0\n"
        )
        rows = run_experiment(cfg)
        aggs = [r for r in rows if r.replicate == -1]
        assert all("label=" in r.metric for r in aggs)
        assert len([r for r in rows if r.replicate >= 0]) == 3 * 30
        by_tau = sorted(
            (float(r.metric.split("gtau=")[1].split("/")[0]), r.value, r.se) for r in aggs
        )
        for (t1, v1, s1), (t2, v2, s2) in zip(by_tau, by_tau[1:]):
            assert v2 >= v1 - 2 * (s1 + s2)


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_simulate_ok_and_plotdata(self, tmp_path):
        cfg = self._write(tmp_path, SIZE_CFG + "reps = 3\n")
        rc = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path), "--emit-plotdata"])
        assert rc == 0
        outs = list(tmp_path.glob("simulate_size_power_*.csv"))
        assert outs
        plot = list(tmp_path.glob("*_plotdata.csv"))
        assert plot and plot[0].read_text().startswith("series,x,y,se")

    def test_config_error_exit_code(self, tmp_path):
        cfg = self._write(tmp_path, "bogus = 1\n")
        assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_numerical_error_exit_code(self, tmp_path):
        # multiscale constraint violation surfaces as a numerical failure
        cfg = self._write(
            tmp_path,
            "n = 100\np = 500\nk_u = 9\nloading = multiscale\nloading_l = 5\n",
        )
        assert cli_main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_profile_and_seed_override(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "n = 1000\np = 100\nk_u = 4\nloading = subweibull\n")
        assert cli_main(["profile", "--config", cfg, "--seed", "7", "--out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("profile_*.csv"))
        assert files
        body = [f for f in files if "hcurve" not in f.name][0].read_text()
        assert body.startswith("zeta,lambda,j1,")

    def test_fit_test_round_trip(self, tmp_path):
        import io

        import numpy as np

        from adaptest.model import ModelParams, dataset_to_csv, generate_dataset

        beta = np.zeros(30)
        beta[:2] = 1.0
        theta = ModelParams(beta=beta, sigma_cov=np.eye(30), noise_sd=1.0)
        ds = generate_dataset(theta, 150, 5)
        with open(tmp_path / "data.csv", "w") as fh:
            dataset_to_csv(ds, fh)
        fit_cfg = self._write(
            tmp_path,
            f"data_csv = {tmp_path / 'data.csv'}\nk_u = 3\nloading = regular\nloading_k = 4\np = 30\n",
        )
        assert cli_main(["fit", "--config", fit_cfg, "--out", str(tmp_path)]) == 0
        (tmp_path / "cfg.txt").unlink()
        test_cfg = self._write(
            tmp_path,
            f"data_csv = {tmp_path / 'data.csv'}\nk_u = 3\nt0 = 2.0\nmode = mixed\n"
            f"loading = regular\nloading_k = 4\np = 30\n",
        )
        assert cli_main(["test", "--config", test_cfg, "--out", str(tmp_path)]) == 0
        body = list(tmp_path.glob("test_*.csv"))[0].read_text()
        assert body.splitlines()[0] == "mode,reject,center,radius,m_used,level,budget"

    def test_scca_sweep(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "mode = sweep\nn = 800\ns = 2\np1 = 6\np2 = 12\nlam_grid = 0.1,0.3\n"
            "calib_reps = 100\nreps = 50\n",
        )
        assert cli_main(["scca", "--config", cfg, "--out", str(tmp_path)]) == 0
        body = list(tmp_path.glob("scca_sweep_*.csv"))[0].read_text()
        assert body.startswith("lam,statistic,power,se")
        assert len(body.splitlines()) == 1 + 2 * 5

    def _dataset(self, tmp_path, p=30):
        from adaptest.model import ModelParams, dataset_to_csv, generate_dataset

        beta = np.zeros(p)
        beta[:2] = 1.0
        ds = generate_dataset(ModelParams(beta=beta, sigma_cov=np.eye(p), noise_sd=1.0), 150, 5)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            dataset_to_csv(ds, fh)
        return path

    def test_fit_gamma_star_runs_spiked_fit(self, tmp_path):
        data = self._dataset(tmp_path)
        tables = {}
        for name, extra in (("plain", ""), ("spiked", "gamma_star = 3.0\n")):
            cfg = self._write(tmp_path, f"data_csv = {data}\nk_u = 2\n{extra}")
            assert cli_main(["fit", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            (csv,) = (tmp_path / name).glob("fit_*.csv")
            tables[name] = [line.split(",") for line in csv.read_text().splitlines()]
        plain, spiked = tables["plain"], tables["spiked"]
        assert "b_hat" not in plain[0]
        assert spiked[0] == plain[0] + ["b_hat", "fell_back_identity"]
        assert spiked[1][: len(plain[1])] == plain[1]

    def test_fit_spiked_key_rejected(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        cfg = self._write(tmp_path, f"data_csv = {data}\nk_u = 2\nfit_spiked = 1\n")
        assert cli_main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "fit_spiked" in capsys.readouterr().err
        assert not list(tmp_path.glob("fit_*"))

    @pytest.mark.parametrize("reps", [0, 50, -1])
    def test_prior_chi2_reps_is_off_or_at_least_100(self, tmp_path, capsys, reps):
        cfg = self._write(tmp_path, f"kind = nu2\nn = 100\np = 20\nk_u = 4\ndraws = 3\nchi2_reps = {reps}\n")
        rc = cli_main(["prior", "--config", cfg, "--out", str(tmp_path)])
        if reps == 0:
            assert rc == 0
            assert not list(tmp_path.glob("prior_*_chi2.csv"))
        else:
            assert rc == 2
            assert "chi2_reps" in capsys.readouterr().err
            assert not list(tmp_path.glob("prior_*"))

    @pytest.mark.parametrize("command", ["fit", "test"])
    def test_wrong_length_loading_csv(self, tmp_path, command):
        data = self._dataset(tmp_path)
        (tmp_path / "xi.csv").write_text("xi\n1.0\n0.5\n0.2\n")
        cfg = self._write(tmp_path, f"data_csv = {data}\nk_u = 3\nloading_csv = {tmp_path / 'xi.csv'}\n")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["fit", "test"])
    def test_mismatched_p(self, tmp_path, command, capsys):
        data = self._dataset(tmp_path)
        cfg = self._write(tmp_path, f"data_csv = {data}\nk_u = 3\np = 999\n")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "p = 999" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{command}_*"))

    def test_emit_plotdata_outside_simulate(self, tmp_path):
        cfg = self._write(tmp_path, "n = 1000\np = 100\nk_u = 4\n")
        assert cli_main(["profile", "--config", cfg, "--out", str(tmp_path), "--emit-plotdata"]) == 2
        assert not list(tmp_path.glob("profile_*"))

    def test_config_out_honoured(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self._write(tmp_path, f"n = 1000\np = 100\nk_u = 4\nout = {tmp_path / 'sub'}\n")
        assert cli_main(["profile", "--config", cfg]) == 0
        assert len(list((tmp_path / "sub").glob("profile_*.csv"))) == 2
        assert not list(tmp_path.glob("profile_*"))
        # --out still wins over the config's out
        assert cli_main(["profile", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
        assert len(list((tmp_path / "flag").glob("profile_*.csv"))) == 2

    @pytest.mark.parametrize("command", ["profile", "fit", "test", "prior", "lowdeg", "scca", "simulate"])
    def test_unknown_key_rejected(self, tmp_path, command, capsys):
        cfg = self._write(tmp_path, "master_seed = 1\nbogus_key = 1\n")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "bogus_key" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{command}_*"))

    @pytest.mark.parametrize("command, tag, value, key", UNREAD_CASES, ids=lambda v: str(v))
    def test_unread_key_rejected(self, tmp_path, command, tag, value, key, capsys):
        f = {f.name: f for f in dataclasses.fields(cli._DISPATCH[command][0])}[key]
        sample = SAMPLE_VALUE.get(key, {"int": "3", "bool": "1"}.get(f.type.removesuffix(" | None"), "0.5"))
        cfg = self._write(tmp_path, f"{BASE[command]}{tag} = {value}\n{key} = {sample}\n")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and value in err
        assert not list(tmp_path.glob(f"{command}_*"))

    @pytest.mark.parametrize("command, tag", BAD_TAGS, ids=lambda v: str(v))
    def test_bad_tag_value_rejected(self, tmp_path, command, tag, capsys):
        cfg = self._write(tmp_path, f"{BASE[command]}{tag} = bogus\n")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert tag in err and "bogus" in err
        assert not list(tmp_path.glob(f"{command}_*"))

    def test_profile_equation_solved_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(profiles, "solve_zeta", lambda *a: calls.append(a) or solve_zeta(*a))
        runs = {
            "profile": BASE["profile"],
            "prior": "n = 1000\np = 100\nk_u = 8\nloading_k = 30\nkind = nu1\ndraws = 50\n",
            "simulate": "null_source = nu1\nreps = 5\nn = 150\np = 60\nk_u = 8\nloading_k = 30\n",
        }
        for command, text in runs.items():
            calls.clear()
            cfg = self._write(tmp_path, text)
            assert cli_main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
            assert len(calls) == 1, command

    def test_sidecar_lists_resolved_defaults(self, tmp_path):
        cfg = self._write(tmp_path, "n = 1000\np = 100\nk_u = 4\nmaster_seed = 3\n")
        assert cli_main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 0
        (sidecar,) = tmp_path.glob("profile_*.json")
        resolved = json.loads(sidecar.read_text())
        assert resolved["n"] == 1000 and resolved["master_seed"] == 3
        assert resolved["degree"] == 1 and resolved["hcurve_points"] == 64
        assert resolved["loading"] == "regular" and resolved["loading_k"] == 4
        assert resolved["out"] == str(tmp_path)

    def test_equivalent_configs_share_a_digest(self, tmp_path):
        a = self._write(tmp_path, "n = 1000\np = 100\nk_u = 4\n")
        assert cli_main(["profile", "--config", a, "--out", str(tmp_path / "a")]) == 0
        b = self._write(tmp_path, "k_u=4\np = 100  # same run, spelled out\nn = 1000\ndegree = 1\nloading_k = 4\n")
        assert cli_main(["profile", "--config", b, "--out", str(tmp_path / "b")]) == 0
        names = [sorted(p.name for p in (tmp_path / d).iterdir()) for d in "ab"]
        assert names[0] == names[1]

    @pytest.mark.parametrize(
        "command, key, extra",
        [("fit", "data_csv", "k_u = 3\n"), ("profile", "loading_csv", "n = 1000\np = 30\nk_u = 4\n")],
        ids=["fit", "profile"],
    )
    def test_missing_input_file_is_config_error(self, tmp_path, command, key, extra, capsys):
        cfg = self._write(tmp_path, f"{key} = {tmp_path / 'nonexistent.csv'}\n{extra}")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{command}_*"))

    def test_scca_size_out_of_range_is_config_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "mode = stats\nn = 10\ns = 5\np1 = 2\np2 = 2\n")
        assert cli_main(["scca", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "1 <= s <= min(p1, p2)" in capsys.readouterr().err
        assert not list(tmp_path.glob("scca_*"))
