import concurrent.futures
import contextlib
import dataclasses
import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from adaptest import cli, estimators, harness, inference, priors, profiles
from adaptest.cli import ProfileConfig, main as cli_main
from adaptest.errors import ConfigError, RegimeViolation
from adaptest.estimators import CoordinateDataset, scaled_lasso, spiked_cov_estimate
from adaptest.inference import mixed_test
from adaptest.model import ModelParams, TestProblem as Problem, dataset_to_csv, generate_dataset, make_loading, stream
from adaptest.model import Dataset
from adaptest.profiles import solve_zeta
from oracles import joint_covariance, single
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
# A spiky loading: with beta on its top coordinate (k = 1) the debiased direction and the
# mixed head read columns the fit did not, in different orders.  On SUBWEIBULL neither does.
SPIKY = "loading = subweibull\nloading_q = 0.5\n"
ALL_MODES = "mixed,plugin,debiased,known_sigma,spiked"
# Each simulate kind at a size cheap enough to run a hundred items on a process pool.
PROCESS_PATH_CFGS = [
    "kind = size_power\nn = 40\np = 20\nk_u = 2\nloading_k = 2\ntau_grid = 0.0,1.0\n"
    "modes = mixed,known_sigma\n",
    "kind = length_sweep\nn = 40\np = 20\nk_u = 2\nloading_k = 2\nm_grid = 4\n",
    "kind = phase_diagram\np = 20\ngamma_xi_grid = 0.5\ngamma_tau_grid = 0.3,0.6\n",
]


@contextlib.contextmanager
def process_pools(method: str = "fork", cpus: int = 4):
    """Within it, harness's process pools start `method` processes, as on a host with `cpus`
    usable CPUs; yields the list of the worker counts of the pools made."""
    made, pool = [], concurrent.futures.ProcessPoolExecutor

    def make(workers):
        made.append(workers)
        return pool(workers, mp_context=multiprocessing.get_context(method))

    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", make):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
            yield made


BOOL_SPELLINGS = {True: ("1", "true", "yes", "on"), False: ("0", "false", "no", "off")}
BY_TYPE = {
    "int": st.integers(-(2**63), 2**63),
    "float": st.floats(allow_nan=False),  # nan != nan, so no equality round trip
    "bool": st.booleans(),
    "str": st.text(alphabet="abcxyzABCXYZ0123456789_.,/-", max_size=12),
}
# Keys whose domain is narrower than their type's: k, reps, threads >= 1, n, p >= 2, loading_k in 1..p,
# m_grid >= 3, loading_l >= 1 with k_u >= loading_l^3 and k_u >= 4 under a nu2 null (k_u_loading_l),
# alpha + eta in (0, 1) with alpha, eta >= 2^-48 (a finite quantile),
# noise_sd, loading_q and sigma_star positive and finite, loading_a finite and nonzero, t0 and the
# tau_grid and gamma_tau_grid entries finite, the two gamma grids nonempty, and the other
# phase-diagram exponents in [0, 1].
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
EXPONENT = st.floats(0.0, 1.0)
IN_DOMAIN = {
    "k": st.integers(1, 2**63),
    "reps": st.integers(1, 2**63),
    "threads": st.integers(1, 2**63),
    "n": st.integers(2, 2**63),
    "p": st.integers(2, 2**63),
    "m_grid": st.integers(3, 2**63),
    "alpha": st.floats(2.0**-48, 0.5, exclude_max=True),
    "eta": st.floats(2.0**-48, 0.5, exclude_max=True),
    "noise_sd": POSITIVE,
    "loading_q": POSITIVE,
    "sigma_star": POSITIVE,
    "loading_a": FINITE.filter(bool),
    "t0": FINITE,
    "tau_grid": st.lists(FINITE, min_size=1, max_size=3).map(lambda v: ",".join(map(repr, v))),
    "gamma_tau_grid": st.lists(FINITE, min_size=1, max_size=3).map(lambda v: ",".join(map(repr, v))),
    "gamma_xi_grid": st.lists(EXPONENT, min_size=1, max_size=3).map(lambda v: ",".join(map(repr, v))),
    "gamma_u": EXPONENT,
    "gamma_n": EXPONENT,
}


def k_u_loading_l(least: int):
    """(k_u, loading_l) drawn together: a multiscale loading needs loading_l^3 <= k_u, and k_u >= least
    (4 under a nu2 null, 1 otherwise)."""
    return st.integers(1, 2**21).flatmap(lambda l: st.tuples(st.integers(max(l**3, least), 2**63), st.just(l)))


MODE_LISTS = st.lists(st.sampled_from(inference.TEST_MODES), min_size=1, unique=True).map(",".join)


@st.composite
def experiment_configs(draw):
    """An ExperimentConfig whose tag keys take allowed values, whose modes
    name test modes (scan_all_m and eta at their defaults without mixed),
    whose bounded keys lie in their domain and whose keys the tags do not
    read keep their defaults."""
    values = {
        f.name: draw(
            st.sampled_from(f.metadata["choices"]) if f.metadata.get("choices")
            else IN_DOMAIN.get(f.name, BY_TYPE[f.type])
        )
        for f in dataclasses.fields(ExperimentConfig)
    }
    values["loading_k"] = draw(st.integers(1, values["p"]))
    values["k_u"], values["loading_l"] = draw(k_u_loading_l(4 if values["null_source"] == "nu2" else 1))
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
    "profile": "n = 1000\np = 100\nk_u = 8\n",  # 8: a multiscale loading at the default loading_l = 2 needs k_u >= 8
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
# Required keys of every command but its required tag keys, and every (command, tag key, choice).
ROUND_TRIP_BASE = {
    **BASE, "prior": "n = 1000\np = 100\nk_u = 8\n", "fit": BASE["test"], "lowdeg": "n = 2\np = 3\nk_eff = 2\n"
}
TAG_VALUES = [
    (command, f.name, value)
    for command, (schema, _) in cli._DISPATCH.items()
    for f in dataclasses.fields(schema)
    for value in f.metadata.get("choices", ())
]
# Every command once on a tiny input: each scca mode, test in every mode and
# each simulate kind (run with --emit-plotdata).  {data} and {xi} are input files.
EVERY_COMMAND = [
    ("profile", "n = 1000\np = 100\nk_u = 4\nhcurve_points = 8\n"),
    ("fit", "data_csv = {data}\nk_u = 2\ngamma_star = 3.0\n"),
    *[("test", f"data_csv = {{data}}\nk_u = 3\nt0 = 0.5\nmode = {mode}\n") for mode in inference.TEST_MODES],
    ("test", "data_csv = {data}\nk_u = 3\nscan_all_m = 1\n"),
    *[("prior", f"kind = {kind}\nn = 100\np = 20\nk_u = 4\ndraws = 3\n") for kind in ("nu1", "nu2")],
    ("prior", "kind = comp\nn = 2000\np = 500\nk_u = 32\nloading_k = 200\ndraws = 3\nchi2_reps = 100\n"),
    ("lowdeg", "n = 2\np = 3\nk_u = 1\nk_eff = 2\nloading_csv = {xi}\npairs = 4\n"),
    ("scca", "mode = generate\nn = 6\ns = 2\np1 = 3\np2 = 4\nlam = 0.3\nhypothesis = alt\n"),
    ("scca", "mode = reduce\nn = 40\ns = 2\np1 = 3\np2 = 4\nlam = 0.3\n"),
    ("scca", "mode = stats\nn = 40\ns = 2\np1 = 3\np2 = 4\n"),
    ("scca", "mode = sweep\nn = 40\ns = 2\np1 = 3\np2 = 4\nlam_grid = 0.1,0.3\ncalib_reps = 20\nreps = 5\n"),
    ("simulate", f"n = 60\np = 20\nk_u = 2\nreps = 2\ntau_grid = 0.0,1.0\nmodes = {ALL_MODES}\n"),
    ("simulate", "kind = length_sweep\nn = 60\np = 20\nk_u = 2\nreps = 2\nm_grid = 4\n"),
    ("simulate", "kind = phase_diagram\np = 30\nreps = 2\ngamma_xi_grid = 0.2,0.5\ngamma_tau_grid = 0.3\n"),
]
LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def written_as_the_cell_rule_writes(column: str, cell: str) -> bool:
    """Empty, an int, a label word or a round-trip float; the parts of a
    composite cell (support lists, budgets, metric paths) are checked one by one."""
    if column == "digest":
        return re.fullmatch(r"[0-9a-f]{16}", cell) is not None
    for part in re.split(r"[;:/=]", cell):
        if part == "" or LABEL.fullmatch(part) or re.fullmatch(r"-?[0-9]+", part):
            continue
        try:
            if repr(float(part)) != part:
                return False
        except ValueError:
            return False
    return True


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
    (cli.TestCmdConfig, {"mode": "mixed"}, 16),
    (cli.TestCmdConfig, {"mode": "plugin"}, 14),
]


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config(SIZE_CFG)
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize("command, tag, value", TAG_VALUES)
    def test_every_schema_round_trips_at_each_tag_value(self, command, tag, value):
        schema = cli._DISPATCH[command][0]
        required = [f for f in dataclasses.fields(schema) if f.default is dataclasses.MISSING]
        tags = {f.name: f.metadata["choices"][0] for f in required if f.metadata.get("choices")}
        text = ROUND_TRIP_BASE[command] + "".join(f"{k} = {v}\n" for k, v in {**tags, tag: value}.items())
        text += "loading_l = 1\n" if value == "multiscale" else ""  # the default loading_l = 2 needs k_u >= 8
        cfg = parse_config(text, schema)
        assert parse_config(format_config(cfg), schema) == cfg

    def test_least_level_keeps_a_finite_quantile(self):
        # mixed_ci takes z at 1 - v/32: below 1 down to v = 2^-48, and exactly 1 from v = 2^-49 down
        for key in ("alpha", "eta"):
            assert getattr(parse_config(f"{key} = {2.0**-48!r}\n"), key) == 2.0**-48
            with pytest.raises(ConfigError, match=f"{key} = "):
                parse_config(f"{key} = {2.0**-49!r}\n")

    def test_readme_names_every_config_key(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = text.index("### Config keys by command")
        section = text[start : text.index("\n## ", start)]
        missing = {
            command: [f.name for f in dataclasses.fields(schema) if f"`{f.name}`" not in section]
            for command, (schema, _) in cli._DISPATCH.items()
        }
        assert missing == {command: [] for command in cli._DISPATCH}

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("bogus = 1")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("n = lots")

    def test_key_written_twice(self):
        with pytest.raises(ConfigError, match="line 3: key 'n' is already set on line 1"):
            parse_config("n = 100\nk_u = 4\nn = 200\n")
        with pytest.raises(ConfigError, match="line 2: key 'n' is already set on line 1"):
            parse_config("n = 100\nn = 100  # the same value twice\n")

    def test_unwritable_table_is_config_error(self, tmp_path):
        cfg = dataclasses.replace(parse_config(SIZE_CFG), out=str(tmp_path))
        (tmp_path / f"simulate_{config_digest(cfg)}.csv").mkdir()  # a directory where the table goes
        with pytest.raises(ConfigError, match=f"cannot write out = {re.escape(str(tmp_path))}: "):
            harness.write_outputs(cfg, "simulate", {".csv": "a\n1\n"})

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
        # 4, not 1: scca's reduce mode needs an even n and the nu2 prior k_u >= 4
        required = {f.name: 4 for f in dataclasses.fields(schema) if f.default is dataclasses.MISSING}
        cfg = schema(**{**required, **tags})
        blockers = [harness._blocker(cfg, f.name) for f in dataclasses.fields(cfg)]
        assert sum(b is None or b[0] in ("loading", "loading_csv") for b in blockers) == count

    def test_mode_specific_keys_need_mixed(self):
        base = "modes = plugin,debiased\nreps = 1\n"
        rows = run_experiment(parse_config(base + "eta = 0.05\n"))
        assert {"mean/reject/null/plugin", "mean/reject/null/debiased"} <= {r.metric for r in rows}
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


# A small simulate table per null source, with one alternative, three modes and the cutoff scan;
# nu2 nulls need k_u >= 4 and a loading that reaches past the lead block.  At master_seed = 3 four
# radii move in their last digit with the normal quantile's implementation, so that table pins it.
# The spiked table runs the nu2 case through the exhaustive covariance screen (its fits keep B = {}).
GOLDEN_CFG = (
    "n = 60\np = 20\nk_u = 2\nk = 2\nreps = 3\nt0 = 0.5\ntau_grid = 1.5\n"
    "modes = mixed,debiased,known_sigma\nscan_all_m = 1\nmaster_seed = 7\n"
)
GOLDEN_CASES = {
    "point": GOLDEN_CFG + "null_source = point\n",
    "nu1": GOLDEN_CFG + "null_source = nu1\n",
    "nu2": GOLDEN_CFG.replace("k_u = 2", "k_u = 4") + "null_source = nu2\nloading_k = 20\n",
    "quantile": GOLDEN_CFG.replace("master_seed = 7", "master_seed = 3"),
}
GOLDEN_CASES["spiked"] = GOLDEN_CASES["nu2"].replace(
    "modes = mixed,debiased,known_sigma\nscan_all_m = 1", "modes = spiked"
)
GOLDEN_CASES["length_sweep"] = (
    "kind = length_sweep\nn = 60\np = 20\nk_u = 2\nloading_k = 3\nm_grid = 6\nreps = 3\nmaster_seed = 7\n"
)
# Its cells' mean reject rates are 2/3, 1, 0 and 1, so the table pins `mixed_test`, not just the row names.
GOLDEN_CASES["phase_diagram"] = (
    "kind = phase_diagram\np = 30\ngamma_xi_grid = 0.3,0.7\ngamma_tau_grid = 1.5,2.0\nreps = 3\nmaster_seed = 7\n"
)
# That table's gamma_u = 0.3 <= gamma_n / 2 runs only the ultra-sparse branch.  This one is moderately
# sparse: its six cells carry four labels (sparse_loading_l2_inflated, computational_gap,
# statistically_impossible, easy_linf), with mean reject rates 0 and 1, and lie off both curves.
GOLDEN_CASES["phase_diagram_moderate"] = (
    "kind = phase_diagram\np = 30\ngamma_u = 0.5\ngamma_xi_grid = 0.3,0.7,1.0\ngamma_tau_grid = 0.4,2.0\n"
    "reps = 3\nmaster_seed = 7\n"
)
GOLDEN_SHA256 = {
    "point": "11449db6bbb9d976acd5983fc17975af8f19d683b79142f547f25b22b25a5781",
    "nu1": "3220c87839bf1bef06766e1ca67299f41062f1f6a5e23a257f879d7eb5fda315",
    "nu2": "c32d232f91cf5d551af332273ce872b172de29bbda33daa9f0aea27af1978ffa",
    "quantile": "28d24a3e7286c7477979b242b0377dc7e9578f14c457f0ec6812b92d20769fda",
    "spiked": "d8b1231fa9d23fe4ef63421de8190494177086d4635fb63e20fb3cc5f5c392bc",
    "length_sweep": "12fd1b949f8905f17f1a551ba4f58de5294aa536c35600671fe634059fae4460",
    "phase_diagram": "819e9d27c0eb7f1463533f44de9ec04c086db4099e92fb84f5097b6546afb3ed",
    "phase_diagram_moderate": "7d137a558e9ee697e43e8e413b8f68ad7cce0a9174682f393ddb892a744429c8",
}
# The other commands' tables at master_seed = 7: prior at each kind, with its chi-square table,
# lowdeg on the criterion-9 instance ({xi} is its loading CSV), whose one valid draw pins no randomness,
# and on a free support (p - k_eff = 10 trail coordinates for s1 = 4), whose LD(2) = 1.3158 and
# chi2_ref = 0.446 pin every pair's overlap, profile, and fit and test in every
# mode on one row dataset ({data}, `golden_dataset`).  A digest covers a
# command's tables in the order it writes them; file names are left out, as theirs hash the config.
COMMAND_GOLDEN_CASES = {
    "prior_nu2": ("prior", "kind = nu2\nn = 1000\np = 200\nk_u = 16\nloading_k = 100\ndraws = 20\nchi2_reps = 100\n"),
    "prior_nu1": ("prior", "kind = nu1\nn = 1000\np = 100\nk_u = 8\nloading_k = 30\ndraws = 20\nchi2_reps = 100\n"),
    "prior_comp": ("prior", "kind = comp\nn = 2000\np = 500\nk_u = 32\nloading_k = 200\ndraws = 20\nchi2_reps = 100\n"),
    "lowdeg": (
        "lowdeg",
        "n = 2\np = 3\nk_u = 1\nk_eff = 2\ns1 = 1\nc8 = 0.4\nc9 = 0.05\nsigma_star = 1.0\ndegree_max = 4\n"
        "pairs = 40\nloading_csv = {xi}\n",
    ),
    "lowdeg_free": (
        "lowdeg",
        "n = 1000\np = 200\nk_u = 16\nk_eff = 190\ns1 = 4\nloading_k = 200\ndegree_max = 4\npairs = 100\n",
    ),
    "profile": ("profile", "n = 1000\np = 100\nk_u = 4\nloading = subweibull\n"),
    "fit": ("fit", "data_csv = {data}\nk_u = 2\ngamma_star = 3.0\n"),
    **{
        f"test_{mode}": ("test", f"data_csv = {{data}}\nk_u = 3\nt0 = 0.5\nmode = {mode}\n")
        for mode in inference.TEST_MODES
    },
    "test_mixed_scan": ("test", "data_csv = {data}\nk_u = 3\nt0 = 0.5\nmode = mixed\nscan_all_m = 1\n"),
}
COMMAND_GOLDEN_SHA256 = {
    "prior_nu2": "fb24fd61e4942a61bd8cc0cf0e4297e92f05d709cc5cf85cf25e67fe5b129949",
    "prior_nu1": "a8079c355d6c5ccee69f43132d2e8afcdd952cc1968dee8ae224de4fe05e7b7b",
    "prior_comp": "e8f96f872f573eaf699fefcf4d070f734e9703da8270920b3fb14a10613ab9b7",
    "lowdeg": "799d3e05e94b4011bd924febbc1ae6769ff045a8caa4d41350d31a2682590cb3",
    "lowdeg_free": "babd24f10ebe2ed2979cd15b0e8c44c785ab93d67ea78f4cbf3232dfe924d45e",
    "profile": "32d707aded1b1d8dec7fc84421f3d0bdc87e03caa0da8549f069074eede8b1fb",
    "fit": "d5d7ede876e4d5f8543617f4c6efafe452854376492c0072a6c4c7c802b8c8b6",
    "test_mixed": "00771a6e7ca1ccba9d5a46b919bfd6c5b99e5d08869c149515cb69b1e7f8d270",
    "test_plugin": "325f69b30c398cada874b271f90f7f6c4940e27fee494256df1322a547c4b0df",
    "test_debiased": "0cd0fd0b3d3afb4a9372eed9952b8c83395b60d9f7d6f92ede46c9c5e332db9b",
    "test_known_sigma": "f13f15a8513d70c8d0fc4126f498eb5eb72a40492fd584d3099ab660b749efc8",
    "test_spiked": "633d1bfceed9f9b5066510381312f62e5898f984fcc820d1e08b5ae1bf431ea0",
    "test_mixed_scan": "86a43c0dc3ab332ef02a4a62531be8ce3655af0acb21b24ba6100a562e6b83e8",
}


def golden_dataset(path: Path) -> Path:
    """Write the golden fit and test cases' dataset: n = 120 rows (even, so known_sigma and spiked
    can split it), p = 30, beta on three coordinates, and a design mixed on coordinates 0 and 1."""
    beta = np.zeros(30)
    beta[[0, 3, 7]] = (1.0, -0.5, 0.25)
    theta = ModelParams(beta=beta, sigma_cov=(np.array([0, 1]), np.array([[3.0, 1.0], [1.0, 3.0]])), noise_sd=1.0)
    with open(path, "w") as fh:
        dataset_to_csv(generate_dataset(theta, 120, 11), fh)
    return path


class TestRunners:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
    def test_golden_table(self, case):
        # Pinned with numpy 2.4 on OpenBLAS; a refactor that keeps the sampler keeps these bytes.
        text = rows_to_csv(run_experiment(parse_config(GOLDEN_CASES[case])))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[case]

    @pytest.mark.parametrize("case", sorted(COMMAND_GOLDEN_SHA256))
    def test_golden_command_tables(self, case, tmp_path):
        command, text = COMMAND_GOLDEN_CASES[case]
        (tmp_path / "xi.csv").write_text("xi\n1.0\n0.9\n0.8\n")
        files = {"xi": tmp_path / "xi.csv", "data": golden_dataset(tmp_path / "data.csv")}
        schema, run = cli._DISPATCH[command]
        _, _, tables = run(parse_config(text.format(**files) + "master_seed = 7\n", schema))
        body = "".join(f"{suffix}\n{table}" for suffix, table in tables.items())
        assert hashlib.sha256(body.encode()).hexdigest() == COMMAND_GOLDEN_SHA256[case]

    def test_null_point_stores_no_identity(self):
        xi = make_loading(np.arange(6.0, 0.0, -1.0))
        theta = harness.null_point(xi, 2, 1.5, 1.0)
        assert theta.sigma_cov is None and theta.design_factor[0].size == 0
        assert float(xi.original() @ theta.beta) == 1.5

    def test_nu2_run_builds_no_p_by_p_array(self, monkeypatch):
        # each nu2 null mixes the design on |S| = 2 floor(k_u / 4) = 4 coordinates, drawn in Gram coordinates
        p = 2000
        cfg = parse_config(f"n = 100\np = {p}\nk_u = 8\nreps = 2\nloading_k = {p}\nnull_source = nu2\n")
        shapes, cholesky = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
        tracemalloc.start()
        try:
            rows = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(r.metric == "mean/reject/null/mixed" for r in rows)
        assert peak < p * p  # below the bytes of a p x p bool array; the parent peaked at 64 MiB
        assert (4, 4) in shapes and max(shapes) <= (4, 4)

    def test_prior_chi2_builds_no_dense_reference(self):
        # the chi-square reference diag(sigma_star^2, I_p) is implicit: a (p+1) x (p+1) float array is 30.5 MiB here
        text = "kind = nu2\nn = 1000\np = 2000\nk_u = 16\nloading_k = 100\ndraws = 1\nchi2_reps = 100\n"
        cfg = parse_config(text, cli.PriorConfig)
        tracemalloc.start()
        try:
            _, _, tables = cli.cmd_prior(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "_chi2.csv" in tables
        assert peak < 8 * 2**20  # 65.6 MiB with the dense reference; under 1 MiB without

    def test_prior_at_p_100000_stays_small(self):
        # the CI config at p = 100,000: a stack of draws holds at most _STACK_ENTRIES entries per array
        # (one row here), so the chi-square estimate's 200 valid draws never sit in memory together
        text = "kind = nu2\nn = 1000\np = 100000\nk_u = 16\nloading_k = 100000\ndraws = 1\nchi2_reps = 100\n"
        cfg = parse_config(text, cli.PriorConfig)
        tracemalloc.start()
        try:
            _, _, tables = cli.cmd_prior(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "_chi2.csv" in tables
        assert peak <= 16 * 2**20  # 9.2 MiB measured; 200 draws of 0.8 MB each would be 160 MB

    def test_nu2_null_carries_its_block(self):
        # model_point's block is the dense covariance's, permuted to original coordinates
        cfg = dataclasses.replace(parse_config(SIZE_CFG), null_source="nu2", k_u=8, loading_k=60, p=60, n=150)
        xi = harness.build_loading(cfg)
        sampler = priors.prior_sampler("nu2", xi, 8, 150, 5.0)
        for rep in range(3):
            seed = harness.replicate_seed(cfg.master_seed, rep, "prior")
            draw = next(d for s in itertools.count(seed) if (d := single(sampler(s, 1))).valid)
            theta = draw.model_point(xi, cfg.t0)
            inv = np.argsort(xi.perm)
            sigma = joint_covariance(draw)[1:, 1:]
            idx, block = theta.sigma_cov
            embedded = np.eye(cfg.p)
            embedded[np.ix_(idx, idx)] = block
            assert idx.size == 4 and np.array_equal(idx, np.sort(idx))
            assert np.array_equal(embedded, sigma[np.ix_(inv, inv)])  # I outside S x S, the block inside
            assert np.array_equal(theta.design_factor[1], np.linalg.cholesky(block))

    def test_identity_prior_null_stores_no_identity(self):
        cfg = dataclasses.replace(parse_config(SIZE_CFG), null_source="nu1", k_u=8, loading_k=30, p=60, n=150)
        xi = harness.build_loading(cfg)
        for rep in range(3):
            theta = harness.null_draw_theta(cfg, xi, rep)
            assert theta.sigma_cov is None and float(xi.original() @ theta.beta) == pytest.approx(cfg.t0, abs=1e-12)

    def test_zero_replicates_rejected(self):
        with pytest.raises(ConfigError, match="reps = 0 must be at least 1"):
            dataclasses.replace(parse_config(SIZE_CFG), reps=0)

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

    def test_every_replicate_null_is_a_valid_draw(self, monkeypatch):
        # each replicate's null is the first valid draw from its prior seed on, never the point null; the
        # replicates draw stacks of one, one seed at a time
        def draw_bits(d):  # every field of a PriorDraw, arrays as their bytes
            return [v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(d).values()]

        drawn, nulls = [], []
        for name in ("_nu1_stack", "_nu2_stack"):
            fn = getattr(priors, name)
            monkeypatch.setattr(priors, name, lambda *a, fn=fn, **kw: drawn.append(fn(*a, **kw)) or drawn[-1])
        model_point = priors.PriorDraw.model_point
        monkeypatch.setattr(priors.PriorDraw, "model_point", lambda d, *a: nulls.append(d) or model_point(d, *a))
        for src in ("nu1", "nu2"):
            cfg = dataclasses.replace(
                parse_config(SIZE_CFG), reps=6, null_source=src, k_u=8, loading_k=30, p=60, n=150
            )
            run_experiment(cfg)
            rows = [single(stack) for stack in drawn]
            assert len(nulls) == cfg.reps and all(d.valid and d.kind == src for d in nulls)
            assert [draw_bits(d) for d in rows if d.valid] == [draw_bits(d) for d in nulls] and rows[-1].valid
            assert (src == "nu1") == any(not d.valid for d in rows)  # nu1 redraws here, nu2 never
            drawn.clear()
            nulls.clear()

    def test_prior_nulls_draw_only_the_seeds_they_need(self, monkeypatch):
        # each replicate draws from its prior seed on, one seed at a time, up to its first valid draw
        seen = []
        streams = priors.streams
        monkeypatch.setattr(priors, "streams", lambda seeds, index=0: streams((seen.append(s) or s for s in seeds), index))
        cfg = dataclasses.replace(
            parse_config(SIZE_CFG), null_source="nu2", n=300, p=60, k_u=5, loading_k=20, reps=3, tau_grid="1.0",
            modes="plugin",
        )
        run_experiment(cfg)
        firsts = [harness.replicate_seed(cfg.master_seed, rep, "prior") for rep in range(3)]
        offsets = [[s - first for s in seen if 0 <= s - first < 2**32] for first in firsts]
        assert offsets == [list(range(6)), list(range(4)), list(range(5))]
        assert len(seen) == 15
        sampler = priors.prior_sampler("nu2", harness.build_loading(cfg), cfg.k_u, cfg.n, cfg.sigma_star)
        for first, drawn in zip(firsts, offsets):
            assert [single(sampler(first + i, 1)).valid for i in drawn] == [False] * (len(drawn) - 1) + [True]

    def test_stalled_prior_null_is_a_numerical_failure(self):
        # at the criterion-3 problem 297 of 300 nu2 draws have kappa > 1
        cfg = dataclasses.replace(parse_config(CRITERION3_CFG), null_source="nu2", loading_k=5, master_seed=303)
        with pytest.raises(RegimeViolation, match=r"50 invalid in a row, \d+ kappa_out_of_range$"):
            run_experiment(cfg)

    def test_replicate_seeds_differ_across_nearby_master_seeds(self, monkeypatch):
        # every dataset and prior-null seed of four runs at master seeds s..s+3
        seen = []

        def spy(fn):
            return lambda *args, seed, **kwargs: seen.append(seed) or fn(*args, seed=seed, **kwargs)

        monkeypatch.setattr(harness, "CoordinateDataset", spy(harness.CoordinateDataset))
        nu2_stack = priors._nu2_stack  # a nu2 null's seeds, one stack of one per seed
        monkeypatch.setattr(
            priors, "_nu2_stack", lambda *args, **kwargs: seen.extend(args[4]) or nu2_stack(*args, **kwargs)
        )
        cfg = dataclasses.replace(
            parse_config(SIZE_CFG), n=40, p=12, k_u=4, reps=4, null_source="nu2", tau_grid="1.0", modes="plugin"
        )
        runs = []
        for s in range(5, 9):
            run_experiment(dataclasses.replace(cfg, master_seed=s))
            runs.append(set(seen))
            seen.clear()
        assert [len(r) for r in runs] == [3 * 4] * 4 and len(set().union(*runs)) == 4 * 3 * 4

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
        formed, forks, fork = [], [], CoordinateDataset.fork
        monkeypatch.setattr(CoordinateDataset, "fork", lambda self: forks.append(fork(self)) or forks[-1])

        def counted(data, *args, **kwargs):
            dec = mixed_test(data, *args, **kwargs)
            formed.append(len(forks[-1].columns))  # every column read: the fit's, then the fork's after it
            return dec

        monkeypatch.setattr(inference, "mixed_test", counted)
        rows = run_experiment(parse_config(CRITERION3_CFG + loading))
        assert any(r.metric == "mean/reject/null/mixed" for r in rows)
        assert len(formed) == 2 * 3
        assert max(formed) <= 32

    def test_m_star_once_per_run(self, monkeypatch):
        # three replicates, a null and an alternative dataset each: one cutoff plan on the run's loading
        calls, cutoff = [], inference.cutoff_and_regime
        monkeypatch.setattr(inference, "cutoff_and_regime", lambda *a: calls.append(a) or cutoff(*a))
        rows = run_experiment(parse_config(CRITERION3_CFG))
        assert sum(r.metric.startswith("reject/") for r in rows) == 2 * 3
        assert calls == [(5, 300, 600)]

    def test_debiased_mode_does_not_depend_on_the_modes_before_it(self):
        cfg = dataclasses.replace(parse_config(CRITERION3_CFG + SPIKY + "modes = mixed,debiased\n"), k=1)
        table = {(r.replicate, r.metric): repr(float(r.value)) for r in run_experiment(cfg)}
        xi = harness.build_loading(cfg)
        problem = Problem(xi=xi, t0=cfg.t0, k_u=cfg.k_u, alpha=cfg.alpha, eta=cfg.eta)
        theta = harness.null_point(xi, cfg.k, cfg.t0, cfg.noise_sd)
        for rep in range(cfg.reps):
            seed = harness.replicate_seed(cfg.master_seed, rep, "null")
            fresh, shared, primed = (CoordinateDataset(theta, cfg.n, seed=seed) for _ in "abc")
            alone = inference.run_single_test("debiased", fresh, problem)
            assert repr(float(alone.interval.radius)) == table[rep, "radius/null/debiased"]
            assert repr(float(alone.reject)) == table[rep, "reject/null/debiased"]
            inference.run_single_test("mixed", shared, problem)
            after = inference.run_single_test("debiased", shared, problem)
            assert after == alone
            # as if an earlier mode had read every column: on its own fork, taken after the shared fit
            scaled_lasso(primed)
            primed.fork().cols(range(cfg.p - 1, -1, -1))
            assert inference.run_single_test("debiased", primed, problem) == alone

    def test_mixed_rows_do_not_depend_on_a_debiased_mode_before_them(self):
        cfg = dataclasses.replace(parse_config(CRITERION3_CFG + SPIKY), k=1)

        def mixed_rows(modes):
            rows = run_experiment(dataclasses.replace(cfg, modes=modes))
            return [(r.replicate, r.metric, repr(r.value), repr(r.se)) for r in rows if "mixed" in r.metric.split("/")]

        alone = mixed_rows("mixed")
        assert len(alone) == 3 * 3 + 3
        assert mixed_rows("debiased,mixed") == alone

    def test_spiked_mode_splits_once(self, monkeypatch):
        p, k_u, seed = 8, 2, 9
        problem = Problem(xi=make_loading(np.ones(p)), t0=0.0, k_u=k_u, alpha=0.05, eta=0.05)
        theta = ModelParams(beta=np.zeros(p), sigma_cov=None, noise_sd=1.0)
        data, fresh = (generate_dataset(theta, 200, 31) for _ in "ab")
        data.seed = fresh.seed = seed
        splits, spiked_on, lasso_on = [], [], []

        def counted_stream(master_seed, index=0):
            splits.append((master_seed, index))
            return stream(master_seed, index)

        def spy(fn, seen):
            return lambda d, *args, **kwargs: seen.append(d) or fn(d, *args, **kwargs)

        monkeypatch.setattr(inference, "stream", counted_stream)
        monkeypatch.setattr(inference, "spiked_cov_estimate", spy(spiked_cov_estimate, spiked_on))
        monkeypatch.setattr(inference, "scaled_lasso", spy(inference.scaled_lasso, lasso_on))
        dec = inference.run_single_test("spiked", data, problem)
        assert splits == [(seed, 1)]
        half1 = inference.split_half(data)[0]
        assert len(spiked_on) == len(lasso_on) == 1
        assert spiked_on[0] is half1 and lasso_on[0] is half1
        # the shared halves are the halves a fresh split makes
        assert dec.interval == inference.spiked_ci(fresh, problem.xi, k_u, problem.alpha)

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
        theta = harness.null_point(xi, cfg.k, cfg.t0, cfg.noise_sd)
        for rep in range(cfg.reps):
            seed = harness.replicate_seed(cfg.master_seed, rep, "null")
            fresh, shared = (generate_dataset(theta, cfg.n, seed=seed) for _ in "ab")
            inference.run_single_test("known_sigma", shared, problem)
            after = inference.run_single_test("spiked", shared, problem)
            assert after == inference.run_single_test("spiked", fresh, problem)

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

    @given(
        text=st.sampled_from([
            "kind = size_power\nn = 40\np = 20\nk_u = 2\nloading_k = 2\ntau_grid = 0.0,1.0\nmodes = mixed,known_sigma\n",
            "kind = length_sweep\nn = 40\np = 20\nk_u = 2\nloading_k = 2\nm_grid = 4\n",
            "kind = phase_diagram\np = 16\ngamma_xi_grid = 0.5\ngamma_tau_grid = 0.3,0.6\n",
        ]),
        master_seed=st.integers(0, 2**32 - 1),
        reps=st.integers(1, 5),
        threads=st.sampled_from([2, 3]),
    )
    @settings(max_examples=12, deadline=None)
    def test_tables_do_not_depend_on_the_worker_count(self, text, master_seed, reps, threads):
        cfg = dataclasses.replace(parse_config(text), master_seed=master_seed, reps=reps)
        serial = rows_to_csv(run_experiment(cfg)).encode()
        assert rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=threads))).encode() == serial

    @given(
        text=st.sampled_from(PROCESS_PATH_CFGS),
        master_seed=st.integers(0, 2**32 - 1),
        reps=st.integers(3 * harness.MIN_ITEMS_PER_WORKER, 3 * harness.MIN_ITEMS_PER_WORKER + 24),
        threads=st.sampled_from([2, 3]),
    )
    # no shrink phase: every example starts a process pool, so shrinking a failure would take minutes
    @settings(max_examples=4, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_process_pool_tables_match_serial(self, method, text, master_seed, reps, threads):
        cfg = dataclasses.replace(parse_config(text), master_seed=master_seed, reps=reps)
        serial = rows_to_csv(run_experiment(cfg)).encode()
        with process_pools(method) as made:
            assert rows_to_csv(run_experiment(dataclasses.replace(cfg, threads=threads))).encode() == serial
        assert made == [threads]

    @pytest.mark.parametrize(
        "text, reps",
        [("kind = phase_diagram\np = 16\n", 8), ("kind = length_sweep\nn = 40\np = 20\nk_u = 2\nm_grid = 4\n", 64)],
        ids=["phase_diagram", "length_sweep"],
    )
    def test_one_worker_pool_per_run(self, text, reps):
        # at 2 workers the threshold is 64 items: the phase diagram's default 3 x 3 grid has 9 per replicate
        with process_pools() as made:
            rows = run_experiment(parse_config(text + f"reps = {reps}\nthreads = 2\n"))
            assert made == [2] and len([r for r in rows if r.replicate >= 0]) >= 64
            assert rows == run_experiment(parse_config(text + f"reps = {reps}\n")) and made == [2]  # serial
            run_experiment(parse_config(text + f"reps = {reps - 1}\nthreads = 2\n"))
            assert made == [2]  # below the threshold: serial, no pool

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_stalled_prior_null_stops_a_process_pool_run(self, method):
        cfg = dataclasses.replace(
            parse_config(CRITERION3_CFG), null_source="nu2", loading_k=5, master_seed=303, reps=64, threads=2
        )
        with process_pools(method) as made:
            with pytest.raises(RegimeViolation, match=r"50 invalid in a row, \d+ kappa_out_of_range$"):
                run_experiment(cfg)
        assert made == [2]

    def test_no_worker_process_outlives_its_run(self):
        with process_pools() as made:
            run_experiment(parse_config("kind = phase_diagram\np = 16\nreps = 8\nthreads = 2\n"))
        assert made == [2] and multiprocessing.active_children() == []

    def test_worker_count_is_capped_by_the_usable_cpus(self):
        # 90,000 items and threads = 2**20 ask for one worker per usable CPU; the stub starts none
        asked = []

        def record(workers):
            asked.append(workers)
            raise InterruptedError

        cfg = parse_config(f"kind = phase_diagram\np = 16\nreps = 10000\nthreads = {2**20}\n")
        with process_pools(cpus=3), mock.patch.object(concurrent.futures, "ProcessPoolExecutor", record):
            with pytest.raises(InterruptedError):
                run_experiment(cfg)
        assert asked == [3]

    def test_importing_the_cli_loads_no_multiprocessing(self):
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, adaptest.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' or m.endswith('.process')))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_importing_the_cli_loads_no_numpy_random(self):
        # numpy.random loads on the first stream, not at import: the import cost of every CLI call
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, adaptest.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

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
        cfg = self._write(tmp_path, SIZE_CFG.replace("reps = 10", "reps = 3"))
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
        # a multiscale profile longer than p (9 + 36 coordinates) surfaces as a numerical failure
        cfg = self._write(
            tmp_path,
            "n = 100\np = 40\nk_u = 9\nloading = multiscale\nloading_l = 2\n",
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
        theta = ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0)
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
        ds = generate_dataset(ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0), 150, 5)
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

    def test_prior_stall_is_a_numerical_failure(self, tmp_path, capsys):
        # at the criterion-3 problem almost every nu2 draw has kappa > 1: the chi-square estimate stalls on
        # its 50th invalid draw in a row and the command writes no table, not even the draws it made
        cfg = self._write(tmp_path, "kind = nu2\nn = 300\np = 600\nk_u = 5\nloading_k = 5\nchi2_reps = 100\n")
        out = tmp_path / "out"
        assert cli_main(["prior", "--config", cfg, "--out", str(out)]) == 3
        assert "50 invalid in a row, 50 kappa_out_of_range" in capsys.readouterr().err
        assert not list(out.glob("prior_*"))

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

    def test_key_written_twice_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "n = 100\np = 100\nk_u = 4\nn = 200\n")
        assert cli_main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "line 4: key 'n' is already set on line 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("profile_*"))

    @pytest.mark.parametrize("below", ["", "sub"], ids=["existing_file", "under_a_file"])
    def test_unwritable_out_exit_code(self, tmp_path, below, capsys):
        cfg = self._write(tmp_path, "n = 1000\np = 100\nk_u = 4\n")
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = taken / below if below else taken
        assert cli_main(["profile", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write out = {out}: ")
        assert taken.read_text() == "keep\n"

    def test_unwritable_out_runs_no_replicate(self, tmp_path, monkeypatch, capsys):
        cfg = self._write(tmp_path, SIZE_CFG)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a: runs.append(a) or [])
        assert cli_main(["simulate", "--config", cfg, "--out", str(taken)]) == 2
        assert not runs and taken.read_text() == "keep\n"
        assert capsys.readouterr().err.startswith(f"config error: cannot write out = {taken}: ")

    def test_unbounded_projection_stops_at_once(self, tmp_path, monkeypatch, caplog):
        # two equal signal columns: at the scan's cutoff m = 1 the head (1, 0, ...) tells the twins
        # apart by more than 2 r, so e_0 - e_1 certifies the l1 program unbounded below
        r = np.random.default_rng(3)
        x = r.standard_normal((80, 10))
        x[:, 1] = x[:, 0]
        y = x[:, 0] + x[:, 1] + 0.5 * r.standard_normal(80)
        header, twin = "y," + ",".join(f"x{j + 1}" for j in range(10)), tmp_path / "twin.csv"
        np.savetxt(twin, np.column_stack((y, x)), delimiter=",", header=header, comments="")
        core, calls = estimators._cd_quadratic_l1, []

        def spy(gram, lin, *args, **kwargs):
            out = core(gram, lin, *args, **kwargs)
            calls.append((np.count_nonzero(lin), out[1], out[2]))
            return out

        monkeypatch.setattr(estimators, "_cd_quadratic_l1", spy)
        cfg = self._write(tmp_path, f"data_csv = {twin}\nk_u = 2\nt0 = 0.5\nmode = mixed\nscan_all_m = 1\n")
        with caplog.at_level(logging.WARNING, logger="adaptest"):
            assert cli_main(["test", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert [(nnz, passes < 10) for nnz, ok, passes in calls if not ok] == [(1, True)]
        assert "falling back to u = 0" in caplog.text
        table = next((tmp_path / "out").glob("test_*.csv")).read_text()
        row = "mixed,1,1.9305267936756498,0.46895194114455235,2,0.975,debiased:0.0125;plugin:0.0125"  # as after 5,000 passes
        assert table.splitlines()[1] == row

    @pytest.mark.parametrize("command", ["profile", "fit", "test", "prior", "lowdeg", "scca", "simulate"])
    def test_unknown_key_rejected(self, tmp_path, command, capsys):
        cfg = self._write(tmp_path, "master_seed = 1\nbogus_key = 1\n")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "bogus_key" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{command}_*"))

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("test", BASE["test"] + "sigma_floor = -1\n", "sigma_floor"),
            ("fit", BASE["test"] + "sigma_floor = inf\n", "sigma_floor"),
            ("fit", BASE["test"] + "c_xi = -1\n", "c_xi"),
            ("fit", BASE["test"] + "c_xi = nan\n", "c_xi"),
        ],
        ids=["test-sigma_floor-negative", "fit-sigma_floor-inf", "fit-c_xi-negative", "fit-c_xi-nan"],
    )
    def test_removed_key_is_unknown(self, tmp_path, command, text, key, capsys):
        # the scaled lasso's sigma_hat has no floor, and fit's direction uses the fixed C_XI
        cfg = self._write(tmp_path, text)
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, extra", [("fit", ""), *[("test", f"mode = {mode}\n") for mode in inference.TEST_MODES]]
    )
    def test_zero_response_is_a_numerical_failure(self, tmp_path, command, extra, capsys):
        rng = stream(4, 0)
        data = tmp_path / "zero.csv"
        with open(data, "w") as fh:
            dataset_to_csv(Dataset(x=rng.standard_normal((40, 6)), y=np.zeros(40)), fh)
        cfg = self._write(tmp_path, f"data_csv = {data}\nk_u = 2\n{extra}")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure: zero residual" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob(f"{command}_*"))

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

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("simulate", BASE["simulate"] + "alpha = 0.96\n", "alpha + eta"),
            ("simulate", BASE["simulate"] + "alpha = 0.0\neta = 0.0\n", "alpha + eta"),
            ("simulate", "kind = length_sweep\n" + BASE["simulate"] + "alpha = 0.99\n", "alpha + eta"),
            ("test", BASE["test"] + "alpha = 0.5\neta = 0.5\n", "alpha + eta"),
            ("scca", "mode = reduce\n" + BASE["scca"] + "alpha = 0.96\n", "alpha + eta"),
            ("simulate", BASE["simulate"] + "k_u = 0\n", "k_u"),
            ("test", BASE["test"].replace("k_u = 3", "k_u = 0"), "k_u"),
            ("profile", BASE["profile"].replace("k_u = 8", "k_u = 0"), "k_u"),
            ("simulate", "p = 40\nreps = 0\n", "reps"),
            ("simulate", "p = 40\nreps = -3\n", "reps"),
            ("scca", "mode = sweep\n" + BASE["scca"] + "reps = 0\n", "reps"),
            ("scca", "mode = sweep\n" + BASE["scca"] + "calib_reps = 0\n", "calib_reps"),
            ("scca", "mode = sweep\n" + BASE["scca"] + "level = 1.5\n", "level"),
            ("scca", "mode = sweep\n" + BASE["scca"] + "level = 0.0\n", "level"),
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"] + "pairs = 0\n", "pairs"),
            ("prior", "kind = nu2\n" + BASE["prior"].replace("draws = 2", "draws = 0"), "draws"),
            ("simulate", BASE["simulate"] + "threads = -3\n", "threads"),
            ("simulate", BASE["simulate"] + "threads = 0\n", "threads"),
            ("simulate", BASE["simulate"] + "eta = -0.01\n", "eta"),
            ("simulate", BASE["simulate"] + "alpha = -0.01\n", "alpha"),
            ("test", BASE["test"] + "alpha = -0.01\n", "alpha"),
            ("simulate", BASE["simulate"] + "n = 1\n", "n"),
            ("simulate", BASE["simulate"] + "noise_sd = -1\n", "noise_sd"),
            ("simulate", BASE["simulate"] + "noise_sd = 0\n", "noise_sd"),
            ("simulate", BASE["simulate"] + "noise_sd = inf\n", "noise_sd"),
            ("simulate", BASE["simulate"] + "t0 = inf\n", "t0"),
            ("simulate", BASE["simulate"] + "t0 = nan\n", "t0"),
            ("simulate", BASE["simulate"] + "tau_grid = 0.0,inf\n", "tau_grid"),
            ("simulate", BASE["simulate"] + "tau_grid = nan\n", "tau_grid"),
            ("profile", BASE["profile"].replace("n = 1000", "n = 1"), "n"),
            ("profile", BASE["profile"].replace("p = 100", "p = 1"), "p"),
            ("simulate", BASE["simulate"] + "alpha = 1e-17\n", "alpha"),
            ("simulate", BASE["simulate"] + "eta = 1e-16\n", "eta"),
            ("test", BASE["test"] + "alpha = 1e-17\nmode = debiased\n", "alpha"),
            ("profile", BASE["profile"] + "degree = 0\n", "degree"),
            ("profile", BASE["profile"] + "hcurve_points = -1\n", "hcurve_points"),
            ("simulate", "kind = phase_diagram\n" + BASE["simulate"] + "gamma_xi_grid = 0.5,1.5\n", "gamma_xi_grid"),
            ("simulate", "kind = phase_diagram\n" + BASE["simulate"] + "gamma_u = 2\n", "gamma_u"),
            ("simulate", "kind = phase_diagram\n" + BASE["simulate"] + "gamma_n = -0.1\n", "gamma_n"),
            ("prior", "kind = nu2\n" + BASE["prior"].replace("n = 1000", "n = 0"), "n"),
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"].replace("n = 2", "n = 0"), "n"),
            ("scca", "mode = stats\n" + BASE["scca"].replace("n = 400", "n = 0"), "n"),
            ("scca", "mode = generate\n" + BASE["scca"].replace("n = 400", "n = 0"), "n"),
            ("prior", "kind = comp\n" + BASE["prior"] + "degree = 0\n", "degree"),
            ("prior", "kind = comp\n" + BASE["prior"] + "degree = -2\n", "degree"),
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"] + "degree_max = -1\n", "degree_max"),
            ("scca", "mode = reduce\n" + BASE["scca"].replace("n = 400", "n = 401"), "n"),
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"] + "s1 = 0\n", "s1"),
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"] + "s1 = 2\n", "s1"),  # p - k_eff = 1
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"].replace("k_eff = 2", "k_eff = 1"), "k_eff"),  # k_u = 1
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"].replace("k_eff = 2", "k_eff = 3"), "k_eff"),  # p = 3
            *[
                ("profile", BASE["profile"] + f"loading = subweibull\nloading_q = {q}\n", "loading_q")
                for q in ("0", "-1", "inf", "nan")
            ],
            ("simulate", BASE["simulate"] + "k = -1\n", "k"),
            ("simulate", BASE["simulate"] + "loading_k = -3\n", "loading_k"),
            ("profile", BASE["profile"] + "loading_k = 0\n", "loading_k"),
            ("simulate", BASE["simulate"] + "loading_a = inf\n", "loading_a"),
            ("profile", BASE["profile"] + "loading_a = nan\n", "loading_a"),
            ("profile", BASE["profile"] + "loading = multiscale\nloading_a = 0\n", "loading_a"),
            ("simulate", "kind = phase_diagram\n" + BASE["simulate"] + "gamma_tau_grid = nan\n", "gamma_tau_grid"),
            ("simulate", "kind = phase_diagram\n" + BASE["simulate"] + "gamma_tau_grid = 0.3,inf\n", "gamma_tau_grid"),
            ("prior", "kind = nu1\n" + BASE["prior"] + "tau = -1\n", "tau"),
            ("prior", "kind = nu1\n" + BASE["prior"] + "tau = inf\n", "tau"),
            ("scca", "mode = reduce\n" + BASE["scca"] + "c10 = 1.5\n", "c10"),
            ("scca", "mode = stats\n" + BASE["scca"] + "lam = 1.5\n", "lam"),
            ("scca", "mode = generate\n" + BASE["scca"] + "lam = -1.0\nhypothesis = alt\n", "lam"),
            ("scca", "mode = sweep\n" + BASE["scca"] + "lam_grid = 0.1,1.5\n", "lam_grid"),
            ("prior", "kind = nu2\n" + BASE["prior"] + "sigma_star = -5\n", "sigma_star"),
            ("simulate", BASE["simulate"] + "null_source = nu1\nsigma_star = inf\n", "sigma_star"),
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"] + "sigma_star = 0\n", "sigma_star"),
            ("scca", "mode = reduce\n" + BASE["scca"] + "sigma_star = -5\n", "sigma_star"),
            ("scca", "mode = sweep\n" + BASE["scca"] + "lam_grid =\n", "lam_grid"),
            ("simulate", "kind = phase_diagram\n" + BASE["simulate"] + "gamma_xi_grid =\n", "gamma_xi_grid"),
            ("simulate", "kind = phase_diagram\n" + BASE["simulate"] + "gamma_tau_grid =\n", "gamma_tau_grid"),
            ("simulate", "kind = length_sweep\n" + BASE["simulate"] + "m_grid = 2\n", "m_grid"),
            *[("simulate", f"p = {p}\nreps = 1\n", "p") for p in (1, 0, -3)],
            ("prior", "kind = comp\n" + BASE["prior"].replace("p = 100", "p = 1"), "p"),
            ("test", BASE["test"] + "p = 1\n", "p"),
            ("simulate", BASE["simulate"] + "loading_k = 500\n", "loading_k"),
            ("profile", BASE["profile"] + "loading_k = 101\n", "loading_k"),
            ("test", BASE["test"] + "t0 = nan\n", "t0"),
            ("test", BASE["test"] + "t0 = inf\n", "t0"),
            ("scca", "mode = reduce\n" + BASE["scca"] + "t0 = nan\n", "t0"),
            ("fit", BASE["test"] + "gamma_star = -1\n", "gamma_star"),
            ("fit", BASE["test"] + "gamma_star = nan\n", "gamma_star"),
            ("scca", "mode = stats\n" + BASE["scca"] + "big_c = -1\n", "big_c"),
            ("profile", BASE["profile"] + "loading = multiscale\nloading_l = 0\n", "loading_l"),
            ("prior", "kind = nu2\n" + BASE["prior"] + "c1 = nan\n", "c1"),
            ("prior", "kind = nu2\n" + BASE["prior"] + "c2 = -1\n", "c2"),
            ("prior", "kind = nu1\n" + BASE["prior"] + "c4 = 0\n", "c4"),
            ("prior", "kind = nu1\n" + BASE["prior"] + "c5 = inf\n", "c5"),
            ("prior", "kind = comp\n" + BASE["prior"] + "c8 = -1\n", "c8"),
            ("prior", "kind = comp\n" + BASE["prior"] + "c9 = nan\n", "c9"),
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"] + "c8 = -0.4\n", "c8"),
            ("lowdeg", ROUND_TRIP_BASE["lowdeg"] + "c9 = inf\n", "c9"),
            ("prior", "kind = nu2\n" + BASE["prior"].replace("k_u = 8", "k_u = 3"), "k_u"),
            ("simulate", BASE["simulate"] + "null_source = nu2\nk_u = 3\n", "k_u"),
            ("profile", BASE["profile"] + "loading = multiscale\nloading_l = 3\n", "loading_l"),  # 3^3 > k_u = 8
            ("simulate", BASE["simulate"] + "loading = multiscale\nk_u = 26\nloading_l = 3\n", "loading_l"),
        ],
        ids=[
            "simulate-alpha", "simulate-level-zero", "length_sweep-alpha", "test-alpha", "scca-alpha",
            "simulate-k_u", "test-k_u", "profile-k_u", "simulate-reps-0", "simulate-reps-negative", "scca-reps",
            "scca-calib_reps", "scca-level-above-one", "scca-level-zero", "lowdeg-pairs", "prior-draws",
            "simulate-threads-negative", "simulate-threads-0", "simulate-eta-negative", "simulate-alpha-negative",
            "test-alpha-negative", "simulate-n-1", "simulate-noise_sd-negative", "simulate-noise_sd-0",
            "simulate-noise_sd-inf", "simulate-t0-inf", "simulate-t0-nan", "simulate-tau_grid-inf",
            "simulate-tau_grid-nan", "profile-n-1", "profile-p-1", "simulate-alpha-infinite-quantile",
            "simulate-eta-infinite-quantile", "test-debiased-alpha-infinite-quantile", "profile-degree-0",
            "profile-hcurve_points-negative", "phase_diagram-gamma_xi_grid", "phase_diagram-gamma_u",
            "phase_diagram-gamma_n", "prior-n-0", "lowdeg-n-0", "scca-stats-n-0", "scca-generate-n-0",
            "prior-comp-degree-0", "prior-comp-degree-negative", "lowdeg-degree_max-negative", "scca-reduce-n-odd",
            "lowdeg-s1-0", "lowdeg-s1-past-p", "lowdeg-k_eff-at-k_u", "lowdeg-k_eff-at-p", "profile-loading_q-0",
            "profile-loading_q-negative", "profile-loading_q-inf", "profile-loading_q-nan", "simulate-k-negative",
            "simulate-loading_k-negative", "profile-loading_k-0", "simulate-loading_a-inf", "profile-loading_a-nan",
            "profile-multiscale-loading_a-0", "phase_diagram-gamma_tau_grid-nan", "phase_diagram-gamma_tau_grid-inf",
            "prior-nu1-tau-negative", "prior-nu1-tau-inf", "scca-reduce-c10-above-one", "scca-stats-lam-above-one",
            "scca-generate-alt-lam-minus-one", "scca-sweep-lam_grid-above-one", "prior-sigma_star-negative",
            "simulate-nu1-sigma_star-inf", "lowdeg-sigma_star-0", "scca-reduce-sigma_star-negative",
            "scca-sweep-lam_grid-empty", "phase_diagram-gamma_xi_grid-empty", "phase_diagram-gamma_tau_grid-empty",
            "length_sweep-m_grid-2", "simulate-p-1", "simulate-p-0", "simulate-p-negative", "prior-comp-p-1",
            "test-p-1", "simulate-loading_k-above-p", "profile-loading_k-above-p", "test-t0-nan", "test-t0-inf",
            "scca-reduce-t0-nan", "fit-gamma_star-negative", "fit-gamma_star-nan", "scca-stats-big_c-negative",
            "profile-multiscale-loading_l-0", "prior-nu2-c1-nan", "prior-nu2-c2-negative", "prior-nu1-c4-0",
            "prior-nu1-c5-inf", "prior-comp-c8-negative", "prior-comp-c9-nan", "lowdeg-c8-negative", "lowdeg-c9-inf",
            "prior-nu2-k_u-3", "simulate-nu2-k_u-3", "profile-multiscale-loading_l-cubed-above-k_u",
            "simulate-multiscale-loading_l-cubed-above-k_u",
        ],
    )
    def test_out_of_domain_value_is_config_error(self, tmp_path, command, text, key, capsys):
        cfg = self._write(tmp_path, text)
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {key} = " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, p, extra, key",
        [
            ("fit", 1, "", "p"),
            ("test", 1, "mode = mixed\n", "p"),
            ("test", 1, "mode = plugin\n", "p"),
            ("test", 3, "loading_k = 4\n", "loading_k"),
        ],
        ids=["fit-one-column", "test-mixed-one-column", "test-plugin-one-column", "test-loading_k-above-p"],
    )
    def test_dataset_width_out_of_domain_is_config_error(self, tmp_path, command, p, extra, key, capsys):
        cfg = self._write(tmp_path, f"data_csv = {self._dataset(tmp_path, p)}\nk_u = 1\n{extra}")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {key} = " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scca_size_out_of_range_is_config_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "mode = stats\nn = 10\ns = 5\np1 = 2\np2 = 2\n")
        assert cli_main(["scca", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "1 <= s <= min(p1, p2)" in capsys.readouterr().err
        assert not list(tmp_path.glob("scca_*"))

    def _malformed(self, tmp_path, command, key, body, extra, capsys):
        (tmp_path / "in.csv").write_text(body)
        cfg = self._write(tmp_path, f"{key} = {tmp_path / 'in.csv'}\n{extra}")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"cannot read {key} {tmp_path / 'in.csv'}" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{command}_*"))

    def test_data_csv_non_numeric_cell_is_config_error(self, tmp_path, capsys):
        self._malformed(tmp_path, "fit", "data_csv", "y,x1,x2\n1.0,2.0,3.0\n0.5,abc,1.0\n", "k_u = 1\n", capsys)

    def test_data_csv_short_row_is_config_error(self, tmp_path, capsys):
        self._malformed(tmp_path, "fit", "data_csv", "y,x1,x2\n1.0,2.0,3.0\n0.5,1.0\n", "k_u = 1\n", capsys)

    def test_data_csv_header_only_is_config_error(self, tmp_path, capsys):
        self._malformed(tmp_path, "fit", "data_csv", "y,x1,x2\n", "k_u = 1\n", capsys)

    def test_loading_csv_non_numeric_is_config_error(self, tmp_path, capsys):
        self._malformed(tmp_path, "profile", "loading_csv", "xi\n1.0\nabc\n", "n = 1000\np = 2\nk_u = 1\n", capsys)

    @pytest.mark.parametrize("body", ["xi\n", "xi,w\n1.0,2.0\n0.5,1.0\n"], ids=["header_only", "two_columns"])
    def test_loading_csv_without_one_column_of_rows_is_config_error(self, tmp_path, body, capsys):
        self._malformed(tmp_path, "profile", "loading_csv", body, "n = 1000\np = 2\nk_u = 1\n", capsys)

    @pytest.mark.parametrize(
        "command, body, extra",
        [
            ("fit", "y,x1,x2\n1.0,2.0,3.0\n0.5,nan,1.0\n", ""),
            ("fit", "y,x1,x2\n1.0,2.0,3.0\n0.5,-inf,1.0\n", ""),
            ("fit", "y,x1,x2\n1.0,2.0,3.0\n", ""),
            ("test", "y,x1,x2\n1.0,0.0,3.0\n0.5,-0.0,1.0\n2.0,0,0.5\n", "mode = plugin\n"),
        ],
        ids=["fit-nan-cell", "fit-inf-cell", "fit-one-row", "test-plugin-all-zero-column"],
    )
    def test_data_csv_the_fit_cannot_use_is_config_error(self, tmp_path, command, body, extra, capsys):
        self._malformed(tmp_path, command, "data_csv", body, f"k_u = 1\n{extra}", capsys)

    @pytest.mark.parametrize("command", ["fit", "test"])
    def test_data_csv_column_whose_squares_overflow_is_config_error(self, tmp_path, command, capsys):
        # every cell is finite, but column 3's squares pass the float range, so the Gram diagonal is inf
        x = stream(17, 0).standard_normal((40, 5))
        x[:, 2] *= 1e200
        rows = np.column_stack((x[:, 0] + x[:, 1], x))
        body = "y,x1,x2,x3,x4,x5\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._malformed(tmp_path, command, "data_csv", body, "k_u = 1\n", capsys)

    def test_loading_csv_non_finite_cell_is_config_error(self, tmp_path, capsys):
        self._malformed(tmp_path, "profile", "loading_csv", "xi\n1.0\nnan\n", "n = 1000\np = 2\nk_u = 1\n", capsys)

    def test_unconverged_fit_logs_once_per_dataset(self, tmp_path, monkeypatch, caplog):
        # the fit logs when it is computed: modes that share it, and the fit command, add no second WARNING
        monkeypatch.setattr(estimators, "LASSO_ROUNDS", 0)  # no round runs, so no fit converges

        def lasso_warnings(run):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="adaptest"):
                run()
            return [r for r in caplog.records if "scaled lasso" in r.getMessage()]

        problem = Problem(xi=make_loading(np.ones(30)), t0=0.0, k_u=2, alpha=0.05, eta=0.05)
        data = generate_dataset(ModelParams(beta=np.zeros(30), sigma_cov=None, noise_sd=1.0), 150, 5)
        shared = lasso_warnings(
            lambda: [inference.run_single_test(m, data, problem) for m in ("mixed", "plugin", "debiased")]
        )
        assert [r.levelno for r in shared] == [logging.WARNING]
        cfg = self._write(tmp_path, f"data_csv = {self._dataset(tmp_path)}\nk_u = 2\n")
        fit = lasso_warnings(lambda: cli_main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]))
        assert [r.levelno for r in fit] == [logging.WARNING]
        # simulate: one null and one alternative dataset per replicate
        cfg = dataclasses.replace(parse_config(SIZE_CFG), p=20, n=40, reps=2, modes="mixed,plugin,debiased")
        assert len(lasso_warnings(lambda: run_experiment(cfg))) == 2 * 2

    def test_every_table_cell_follows_the_cell_rule(self, tmp_path):
        data = self._dataset(tmp_path)
        (tmp_path / "xi.csv").write_text("xi\n1.0\n0.9\n0.8\n")
        for i, (command, text) in enumerate(EVERY_COMMAND):
            cfg = self._write(tmp_path, text.format(data=data, xi=tmp_path / "xi.csv"))
            out = tmp_path / f"run{i}"
            flags = ["--emit-plotdata"] if command == "simulate" else []
            assert cli_main([command, "--config", cfg, "--out", str(out), *flags]) == 0, text
            tables = list(out.glob("*.csv"))
            assert len(tables) == {"profile": 2, "simulate": 2}.get(command, 1) + ("reduce" in text or "chi2" in text)
            for table in tables:
                header, *rows = [line.split(",") for line in table.read_text().splitlines()]
                assert rows, table.name
                for row in rows:
                    assert len(row) == len(header), table.name
                    bad = [c for col, c in zip(header, row) if not written_as_the_cell_rule_writes(col, c)]
                    assert not bad, (table.name, bad[:3])
