import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhchain
from nhchain import cli
from nhchain.cli import ConfigError, main, parse_config, run, validate
from nhchain.core import Spectrum


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


HN_SWEEP = {
    "model": "hn",
    "task": "sweep",
    "params": {"t_l": 1.0, "t_r": [1.4142135623730951, 1.4142135623730951]},
    "sizes": {"N": 8},
    "delta": {"start": 0.0, "stop": 0.5, "step": 0.25},
    "output": "sweep8",
}


def _src_env() -> dict:
    src = Path(nhchain.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """scipy is imported where it is used, not when the command line loads;
    nor are numpy.random, numpy.ma and concurrent.futures."""
    env = _src_env()
    loaded = ("import sys, nhchain.cli; print(*(m in sys.modules for m in "
              "('scipy', 'numpy.random', 'numpy.ma', 'concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", loaded], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 4
    # a validated run whose closed form and oracle match pair by pair needs
    # no assignment solver, so it loads no scipy either
    sweep = dict(HN_SWEEP, params={"t_l": 1.0, "t_r": 2.0}, sizes={"N": 12})
    run_sweep = ("import json, sys; from nhchain import cli; "
                 f"cfg = cli.parse_config({json.dumps(sweep)}); "
                 "code = cli.run(cfg, sys.argv[1]); "
                 "print(code, json.load(open(sys.argv[1] + '/sweep8.json'))['validation']['status'], "
                 "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", run_sweep, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "pass", "[]"]
    # a states job takes one eigenpair by inverse iteration, and a sensitivity
    # fit measures its spectral distances in numpy: neither loads scipy
    no_scipy = ("import json, sys; from nhchain import cli; "
                "cfg = cli.parse_config(json.loads(sys.argv[2])); "
                "print(cli.run(cfg, sys.argv[1]), "
                "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    states = {"model": "triangular", "task": "states", "params": {"t_l": 1.0, "t_r": 5.0},
              "sizes": {"N1": 10, "N2": 3}, "mode": "open", "delta": 0.2, "output": "st"}
    fit = {"model": "hn", "task": "sensitivity", "params": {"t_l": 1.0, "t_r": 2.0},
           "sizes": {"N": 12}, "n_list": [8, 10, 12, 14], "output": "fit"}
    for cfg in (states, fit):
        proc = subprocess.run([sys.executable, "-c", no_scipy, str(tmp_path), json.dumps(cfg)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "[]"], cfg["task"]
    side = json.loads((tmp_path / "st.json").read_text())
    assert side["state"]["normalization"] == "biorthogonal"
    assert json.loads((tmp_path / "fit.json").read_text())["sensitivity"]["exponent"]["reached"] == [True] * 4
    # a repeated eigenvalue leaves the nearest-neighbour pairing unproven:
    # the Hungarian solver runs and gives the optimal matching's maximum
    degenerate = ("import sys; from nhchain.core import match_spectra; "
                  "print(match_spectra([0.0, 0.0, 1.0], [1e-3, 0.0, 1.0]), 'scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", degenerate], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.001", "True"]


class TestParseConfig:
    def test_unknown_parameter_rejected(self):
        bad = dict(HN_SWEEP, params={"t_l": 1.0, "t_r": 2.0, "bogus": 1.0})
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(bad)

    def test_missing_parameter_rejected(self):
        bad = dict(HN_SWEEP, params={"t_l": 1.0})
        with pytest.raises(ConfigError, match="missing"):
            parse_config(bad)

    def test_zero_step_rejected(self):
        bad = dict(HN_SWEEP, delta={"start": 0.0, "stop": 1.0, "step": 0.0})
        with pytest.raises(ConfigError, match="step"):
            parse_config(bad)

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config(dict(HN_SWEEP, model="frobnicator"))

    def test_delta_pair(self):
        cfg = parse_config(dict(HN_SWEEP, model="hn-general", delta=[0.25, 0.5]))
        assert cfg["delta"] == ("pair", (0.25 + 0j, 0.5 + 0j))


class TestRun:
    def test_sweep_writes_sorted_deterministic_csv(self, tmp_path):
        cfg = parse_config(HN_SWEEP)
        assert run(cfg, tmp_path) == 0
        csv_path = tmp_path / "sweep8.csv"
        first = csv_path.read_bytes()
        lines = first.decode().strip().split("\n")
        assert lines[0] == "delta,j,re,im,provenance"
        assert len(lines) == 1 + 3 * 8
        assert lines[1:] == sorted(lines[1:])
        assert run(cfg, tmp_path) == 0
        assert csv_path.read_bytes() == first

    def test_winding_task(self, tmp_path):
        cfg = parse_config({
            "model": "hn", "task": "winding",
            "params": {"t_l": 1.0, "t_r": 2.0},
            "sizes": {"N": 10}, "base_energy": 0.0, "output": "wind",
        })
        assert run(cfg, tmp_path) == 0
        side = json.loads((tmp_path / "wind.json").read_text())
        assert side["winding"]["w"] == -1

    def test_balance_task_case7(self, tmp_path):
        params = {
            "td1": 1, "td2": 4, "tl1": 1, "tl2": 8, "tr1": 1, "tr2": 6,
            "ud1": 3, "ud2": 6, "vdl1": 0, "vdl2": 0, "vdr1": 8 / 3, "vdr2": 3,
            "uu1": 2, "uu2": 5, "vul1": 2, "vul2": 3, "vur1": 0, "vur2": 0,
        }
        cfg = parse_config({
            "model": "stacked-ssh", "task": "balance", "params": params,
            "sizes": {"N1": 20, "N2": 20}, "output": "bal",
        })
        assert run(cfg, tmp_path) == 0
        side = json.loads((tmp_path / "bal.json").read_text())
        assert side["balance"]["case"] == "case7"

    def test_states_task(self, tmp_path):
        cfg = parse_config({
            "model": "hn", "task": "states",
            "params": {"t_l": 1.0, "t_r": 2.0},
            "sizes": {"N": 20}, "delta": 0.0, "output": "st",
        })
        assert run(cfg, tmp_path) == 0
        side = json.loads((tmp_path / "st.json").read_text())
        assert side["localization"]["right_edge_fraction"] > 0.5
        lines = (tmp_path / "st.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 20

    def test_states_task_short_chain_skips_localization(self, tmp_path):
        cfg = parse_config({
            "model": "hn", "task": "states",
            "params": {"t_l": 1.0, "t_r": 2.0},
            "sizes": {"N": 8}, "delta": 0.3, "output": "st",
        })
        assert run(cfg, tmp_path) == 0
        side = json.loads((tmp_path / "st.json").read_text())
        assert side["localization"] == {"status": "skipped", "reason": "need at least 10 sites, got 8"}
        assert "eigenvalue" in side["state"]
        lines = (tmp_path / "st.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 8

    @pytest.mark.parametrize("model, params", [("unidirectional", {"t_l": 1.0, "u_l": 1.0}),
                                               ("hn", {"t_l": 1.0, "t_r": 0.0})])
    def test_states_task_nilpotent_chain(self, tmp_path, model, params):
        # one 30-site Jordan block at lambda = 0: the state comes from the
        # full eigendecomposition, and its biorthogonal overlap vanishes
        cfg = parse_config({"model": model, "task": "states", "params": params,
                            "sizes": {"N": 30}, "delta": 0.0, "output": "st"})
        assert run(cfg, tmp_path) == 0
        side = json.loads((tmp_path / "st.json").read_text())
        assert side["state"]["eigenvalue"] == [0.0, 0.0]
        assert side["state"]["normalization"] == "degenerate"

    def test_envelope_task(self, tmp_path):
        cfg = parse_config({
            "model": "stacked-hn", "task": "envelope",
            "params": {"t_d": 1, "t_l": 2, "t_r": 2, "u_d": 2, "v_dl": 4,
                       "v_dr": 4, "u_u": -3, "v_ul": 3, "v_ur": 3},
            "sizes": {"N1": 6, "N2": 6}, "delta": 0.5, "output": "env",
        })
        assert run(cfg, tmp_path) == 0
        assert (tmp_path / "env_envelope.csv").exists()
        side = json.loads((tmp_path / "env.json").read_text())
        assert side["envelope"]["case"] == "case2"

    def test_sensitivity_task(self, tmp_path):
        cfg = parse_config({
            "model": "hn", "task": "sensitivity",
            "params": {"t_l": 1.0, "t_r": 2.0},
            "sizes": {"N": 16}, "threshold": 0.5,
            "n_list": [8, 10, 12, 14], "output": "sens",
        })
        assert run(cfg, tmp_path) == 0
        side = json.loads((tmp_path / "sens.json").read_text())
        assert side["sensitivity"]["screen"]["verdict"] == "exponential"
        assert side["sensitivity"]["exponent"]["verdict"] == "exponential"


class TestShippedConfigs:
    def test_chain_sweep_row_count(self, tmp_path):
        import pathlib

        config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
        raw = json.loads((config_dir / "chain_unbalanced_sweep.json").read_text())
        cfg = parse_config(raw)
        assert run(cfg, tmp_path) == 0
        lines = (tmp_path / "chain_unbalanced_sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 101 * 30  # one row per (delta, eigenvalue)


class TestGapTask:
    def test_gap_task_verdicts(self, tmp_path):
        for t_r, expected in ((2.0, "point-gap"), ([0.7071067811865476, 0.7071067811865476],
                                                   "line-gap-consistent")):
            cfg = parse_config({
                "model": "hn", "task": "gap",
                "params": {"t_l": 1.0, "t_r": t_r},
                "sizes": {"N": 10}, "output": "gap",
            })
            assert run(cfg, tmp_path) == 0
            side = json.loads((tmp_path / "gap.json").read_text())
            assert side["gap"]["verdict"] == expected


class TestValidate:
    def test_hn_passes(self):
        cfg = parse_config(dict(HN_SWEEP, sizes={"N": 30}))
        report = validate(cfg)
        assert report["status"] == "pass"
        assert report["max_mismatch"] < 1e-7
        assert report["sizes"] == {"N": 12}

    def test_zero_hopping_routes_to_oracle(self, tmp_path):
        cfg = parse_config({
            "model": "ssh", "task": "spectrum",
            "params": {"tl1": 0.0, "tr1": 1.0, "tl2": 2.0, "tr2": 3.0},
            "sizes": {"N": 8}, "delta": 0.3, "output": "z",
        })
        assert run(cfg, tmp_path) == 0
        lines = (tmp_path / "z.csv").read_text().strip().split("\n")
        assert all(line.endswith("oracle") for line in lines[1:])

    def test_mixed_includes_triple_diagnostic(self):
        cfg = parse_config({
            "model": "mixed-longrange", "task": "spectrum",
            "params": {"t_r": 1.0, "u_l": 2.0},
            "sizes": {"N": 6}, "delta": 0.4, "output": "m",
        })
        report = validate(cfg)
        assert report["status"] == "pass"
        assert report["triple_grouping"]["degree"] == 18
        assert report["triple_grouping"]["status"] == "ok"

    def test_twoband_keeps_parity_of_n(self):
        params = {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0}
        for model, n, reduced in (("ssh", 9, 9), ("ssh", 30, 12), ("ssh", 31, 11),
                                  ("ssh-odd", 9, 9), ("ssh-odd", 13, 11)):
            cfg = parse_config({"model": model, "task": "spectrum", "params": params,
                                "sizes": {"N": n}, "delta": 0.3})
            report = validate(cfg)
            assert report["sizes"] == {"N": reduced}, (model, n)
            assert report["status"] == "pass"

    def test_odd_twoband_near_periodic_limit_refuses(self, tmp_path, capsys):
        """ssh-odd (1, 2, 1, 2) at N = 11, delta = 1e-9: the closed form's
        sign factor is far from +-1, so the closed form refuses.  `run`
        records the refusal and writes the dense spectrum; `validate` exits
        4."""
        payload = {"model": "ssh-odd", "task": "spectrum", "sizes": {"N": 11}, "delta": 1e-9,
                   "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 1.0, "tr2": 2.0}, "output": "odd"}
        path = write_config(tmp_path, "odd_config.json", payload)
        assert main(["validate", "--config", str(path)]) == 4
        assert "numerical failure: odd-chain sign factor" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        side = json.loads((tmp_path / "odd.json").read_text())
        assert side["validation"]["status"] == "closed-form-failed"
        assert "odd-chain sign factor" in side["validation"]["reason"]
        rows = [line.split(",") for line in (tmp_path / "odd.csv").read_text().splitlines()[1:]]
        assert {r[4] for r in rows} == {"oracle"}
        vals = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        p = nhchain.SSHParams(1.0, 2.0, 1.0, 2.0)
        assert nhchain.spectral_mismatch(vals, nhchain.dense_spectrum(nhchain.ssh_matrix(p, 11, 1e-9))) < 1e-12

    def test_general_chain_uses_boundary_residual(self):
        cfg = parse_config({
            "model": "general-chain", "task": "spectrum",
            "params": {"t_p1": 1.0, "t_m1": 2.0, "t_p2": 0.5, "t_m2": [0.0, 0.3]},
            "sizes": {"N": 12}, "delta": 0.6, "output": "g",
        })
        report = validate(cfg)
        assert report["status"] == "pass"
        assert report["metric"] == "boundary residual"


class TestMain:
    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", dict(HN_SWEEP, model="nope"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_subcommand_overrides_task(self, tmp_path):
        path = write_config(tmp_path, "c.json", dict(HN_SWEEP, task="sweep",
                                                     delta=0.2, output="sub"))
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sub.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 8

    def test_validate_command(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", HN_SWEEP)
        assert main(["validate", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "pass"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_seed_flag_removed(self, tmp_path):
        path = write_config(tmp_path, "c.json", HN_SWEEP)
        with pytest.raises(SystemExit):
            main(["run", "--config", str(path), "--out", str(tmp_path), "--seed", "3"])

    def test_whole_float_sizes_accepted(self):
        cfg = parse_config(dict(HN_SWEEP, sizes={"N": 12.0}, n_list=[8.0, 12, 16.0, 20]))
        assert cfg["sizes"] == {"N": 12} and cfg["n_list"] == [8, 12, 16, 20]
        assert all(type(n) is int for n in [cfg["sizes"]["N"], *cfg["n_list"]])

    def test_seed_key_still_parses(self):
        cfg = parse_config(dict(HN_SWEEP, seed=7))
        assert "seed" not in cfg

    @pytest.mark.parametrize("command, payload, key", [
        ("run", dict(HN_SWEEP, sizes={"N": "abc"}), "sizes.N"),
        ("run", dict(HN_SWEEP, delta={"start": 0.0, "stop": 0.5}), "delta.step"),
        ("run", dict(HN_SWEEP, threshold="x"), "threshold"),
        ("run", [HN_SWEEP], "config"),
        ("spectrum", [HN_SWEEP], "config"),
        ("run", dict(HN_SWEEP, params=[1.0, 2.0]), "params"),
        ("run", dict(HN_SWEEP, sizes="N"), "sizes"),
        ("run", dict(HN_SWEEP, n_list=8), "n_list"),
        ("run", dict(HN_SWEEP, mode="bogus", delta2=0), "mode"),
        ("run", dict(HN_SWEEP, task="sensitivity", n_list=[8, 8, 8, 8]), "n_list"),
        ("run", dict(HN_SWEEP, task="sensitivity", n_list=[0, 4, 6, 8]), "n_list"),
        ("run", dict(HN_SWEEP, task="sensitivity", n_list=[-4, 4, 6, 8]), "n_list"),
        ("run", dict(HN_SWEEP, sizes={"N": 8.9}), "sizes.N"),
        ("run", dict(HN_SWEEP, sizes={"N": True}), "sizes.N"),
        ("run", dict(HN_SWEEP, sizes={"N": "12"}), "sizes.N"),
        ("run", dict(HN_SWEEP, sizes={"N": None}), "sizes.N"),
        ("run", dict(HN_SWEEP, task="sensitivity", n_list=[8.5, 12, 16, 20.7]), "n_list"),
        ("run", dict(HN_SWEEP, task="sensitivity", n_list=[8, 12, 16, True]), "n_list"),
        ("run", dict(HN_SWEEP, task="sensitivity", n_list=[8, 12, 16, "20"]), "n_list"),
    ], ids=["size", "grid-step", "threshold", "array", "array-task", "params", "sizes", "n_list",
            "mode", "n_list-repeated", "n_list-zero", "n_list-negative", "size-fraction",
            "size-bool", "size-string", "size-null", "n_list-fraction", "n_list-bool",
            "n_list-string"])
    def test_malformed_values_exit_2(self, tmp_path, capsys, command, payload, key):
        path = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"invalid config: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".json", ".csv", "_envelope.csv"])
    def test_run_refuses_to_overwrite_its_config(self, tmp_path, capsys, suffix):
        path = write_config(tmp_path, f"self{suffix}", dict(HN_SWEEP, output="self"))
        before = path.read_bytes()
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "overwrite the config" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == [path.name]


STACKED_SWEEPS = {
    "stacked_hn_small": {
        "model": "stacked-hn", "task": "sweep",
        "params": {"t_d": 1, "t_l": 2, "t_r": 2, "u_d": 2, "v_dl": 4, "v_dr": 3,
                   "u_u": -3, "v_ul": 3, "v_ur": 4},
        "sizes": {"N1": 12, "N2": 10}, "mode": "bc1",
        "delta": {"start": 0.0, "stop": 1.0, "step": 0.25},
    },
    "stacked_ssh_small": {
        "model": "stacked-ssh", "task": "sweep",
        "params": dict(zip(
            [f"{b}{i}" for b in ("td", "tl", "tr", "ud", "vdl", "vdr", "uu", "vul", "vur")
             for i in (1, 2)],
            [1, 4, 2, 1, 1, 2, 3, 6, 6, 5, 3, 4, 2, 5, 4, 3, 5, 6])),
        "sizes": {"N1": 10, "N2": 8}, "mode": "bc2", "delta2": 0.6,
        "delta": {"start": 0.0, "stop": 1.0, "step": 0.25},
    },
    # balanced (case 2): every Bloch block is solved as a Hermitian matrix
    "stacked_ssh_balanced": {
        "model": "stacked-ssh", "task": "sweep",
        "params": dict(zip(
            [f"{b}{i}" for b in ("td", "tl", "tr", "ud", "vdl", "vdr", "uu", "vul", "vur")
             for i in (1, 2)],
            [1, 4, 1, 2, 1, 2, 3, 6, 5, 6, 3, 4, 2, 5, 3, 4, 5, 6])),
        "sizes": {"N1": 10, "N2": 8}, "mode": "bc1",
        "delta": {"start": 0.0, "stop": 1.0, "step": 0.25},
    },
}


def test_stacked_sweeps_cover_both_block_routes():
    """The sweeps below solve Bloch blocks as Hermitian matrices on both
    families, and as general ones under BC2."""
    counts = {name: nhchain.cli.line_for(parse_config(raw))(0.25)[0].parameters["hermitian_blocks"]
              for name, raw in STACKED_SWEEPS.items()}
    assert counts == {"stacked_hn_small": 10, "stacked_ssh_small": 0, "stacked_ssh_balanced": 8}


@pytest.mark.parametrize("name", sorted(STACKED_SWEEPS))
def test_stacked_csv_independent_of_blas_threads(tmp_path, name):
    """Stacked sweeps write the same bytes at 1 and 2 BLAS threads.

    The thread count is fixed when numpy loads, so each run is a fresh
    process with OPENBLAS_NUM_THREADS set in its environment.
    """
    src = Path(nhchain.__file__).resolve().parent.parent
    path = write_config(tmp_path, f"{name}.json", dict(STACKED_SWEEPS[name], output=name))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "nhchain.cli", "run", "--config", str(path),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / f"{name}.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert "bloch-oracle" in outputs[0].decode()


MIXED_STIFF = {
    # the closed form's root triples do not group at this hopping ratio
    "model": "mixed-longrange", "task": "spectrum",
    "params": {"t_r": 1.0, "u_l": 1e6},
    "sizes": {"N": 10}, "delta": 0.3, "output": "stiff",
}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the hoppings of two shipped stacks, an unbalanced one and a case-1 one
STACK_PARAMS = {name: json.loads((CONFIGS / f"stacked_chain_{name}.json").read_text())["params"]
                for name in ("unbalanced", "case1")}


def _lapack_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestExitCodes:
    """0 success, 2 configuration error, 3 validation failure, 4 numerical failure."""

    def test_validation_failure_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", HN_SWEEP)
        assert main(["run", "--config", str(path), "--out", str(tmp_path),
                     "--tolerance", "0"]) == 3
        assert "validation failure" in capsys.readouterr().err
        assert main(["validate", "--config", str(path), "--tolerance", "0"]) == 3

    def test_numerical_failure_exits_4(self, tmp_path, capsys):
        path = write_config(tmp_path, "stiff.json", MIXED_STIFF)
        assert main(["validate", "--config", str(path)]) == 4
        assert "numerical failure: grouping into sets of 3 failed" in capsys.readouterr().err

    # (stack, N1, the LAPACK routine that solves its Bloch blocks): the
    # unbalanced stack takes eigvals (of half-size grade blocks at even N1,
    # of the whole blocks at odd), the case-1 stack Hermitian solves (svd at
    # even N1, eigvalsh at odd)
    @pytest.mark.parametrize("stack, n1, routine", [
        ("unbalanced", 6, "eigvals"), ("unbalanced", 5, "eigvals"), ("case1", 6, "svd"), ("case1", 5, "eigvalsh"),
    ])
    def test_failed_bloch_block_solve_exits_4(self, tmp_path, capsys, monkeypatch, stack, n1, routine):
        """A LAPACK failure in a Bloch-block solve is a numerical failure,
        not a configuration error (LinAlgError is a ValueError)."""
        path = write_config(tmp_path, "stack.json", {
            "model": "stacked-hn", "task": "sweep", "params": STACK_PARAMS[stack], "sizes": {"N1": n1, "N2": 5},
            "delta": {"start": 0.0, "stop": 0.5, "step": 0.25}, "output": "out"})
        monkeypatch.setattr(np.linalg, routine, _lapack_failure)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4
        assert "numerical failure: eigensolver failed" in capsys.readouterr().err

    def test_failed_gap_scan_solve_exits_4(self, tmp_path, capsys, monkeypatch):
        """The two-band gap scan's batched eigvals of its Bloch matrices."""
        path = write_config(tmp_path, "gap.json", {
            "model": "ssh", "task": "gap", "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0},
            "sizes": {"N": 10}, "output": "out"})
        monkeypatch.setattr(np.linalg, "eigvals", _lapack_failure)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4
        assert "numerical failure: eigensolver failed" in capsys.readouterr().err

    def test_failed_companion_root_solve_refuses_the_closed_form(self, tmp_path, capsys, monkeypatch):
        """A LAPACK failure in the closed form's companion root solve
        (`np.roots`) refuses the closed form: `run` records the refusal and
        writes the line's spectrum, `validate` exits 4."""
        from numpy.lib import _polynomial_impl

        path = write_config(tmp_path, "hn.json", {
            "model": "hn", "task": "sweep", "params": {"t_l": 1.0, "t_r": 1.5}, "sizes": {"N": 30},
            "delta": {"start": 0.1, "stop": 0.5, "step": 0.2}, "output": "out"})
        monkeypatch.setattr(_polynomial_impl, "eigvals", _lapack_failure)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        side = json.loads((tmp_path / "out.json").read_text())
        assert side["validation"]["status"] == "closed-form-failed"
        assert "companion eigensolve failed" in side["validation"]["reason"]
        assert main(["validate", "--config", str(path)]) == 4
        assert "numerical failure: companion eigensolve failed" in capsys.readouterr().err

    def test_open_delta_star_bracket_exits_4(self, tmp_path, capsys, monkeypatch):
        """A delta* search that runs out of midpoints before its bracket
        closes is a numerical failure, not a delta* outside the contract."""
        from nhchain import sensitivity

        path = write_config(tmp_path, "sens.json", {
            "model": "hn", "task": "sensitivity", "params": {"t_l": 1.0, "t_r": 2.0}, "sizes": {"N": 8},
            "delta": 0.0, "n_list": [8, 12, 16, 20], "threshold": 0.5, "output": "out"})
        monkeypatch.setattr(sensitivity, "_MAX_STEPS", 16)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4
        assert "numerical failure: the delta* search left" in capsys.readouterr().err

    def test_numerical_failures_share_one_family(self):
        from nhchain.core import EigensolverError, NumericalError

        assert issubclass(EigensolverError, NumericalError)
        assert issubclass(NumericalError, ValueError)
        assert not issubclass(ConfigError, NumericalError)


LONG_CHAINS = {
    # (model, params, N): the closed-form (polynomial) route raised here, or
    # (hn at N = 120) returned a spectrum 0.25 off labelled "analytic"
    "hn_tr1.5_N60": ("hn", {"t_l": 1.0, "t_r": 1.5}, 60),
    "hn_tr1.5_N120": ("hn", {"t_l": 1.0, "t_r": 1.5}, 120),
    "twoband_balanced_N120": ("ssh", {"tl1": [0.0, -1.0], "tr1": 0.5, "tl2": 4.0, "tr2": 8.0}, 120),
    "mixed_ul1_tr2_N60": ("mixed-longrange", {"u_l": 1.0, "t_r": 2.0}, 60),
    "mixed_ul1_tr2_N120": ("mixed-longrange", {"u_l": 1.0, "t_r": 2.0}, 120),
}


def _chain_matrix(cfg, delta):
    p, n = cfg["params"], cfg["sizes"]["N"]
    if cfg["model"] == "hn":
        return nhchain.hn_matrix(nhchain.HNParams(p["t_l"], p["t_r"]), n, delta)
    if cfg["model"] == "ssh":
        return nhchain.ssh_matrix(nhchain.SSHParams(p["tl1"], p["tr1"], p["tl2"], p["tr2"]), n, delta)
    return nhchain.mixed_longrange_matrix(p["t_r"], p["u_l"], delta, n)


@pytest.mark.parametrize("name", sorted(LONG_CHAINS))
def test_long_chain_run_matches_oracle(tmp_path, name):
    model, params, n = LONG_CHAINS[name]
    cfg = parse_config({"model": model, "task": "spectrum", "params": params,
                        "sizes": {"N": n}, "delta": 0.3, "output": name})
    assert run(cfg, tmp_path) == 0
    rows = [line.split(",") for line in (tmp_path / f"{name}.csv").read_text().splitlines()[1:]]
    vals = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    oracle = nhchain.dense_spectrum(_chain_matrix(cfg, 0.3))
    assert nhchain.spectral_mismatch(vals, oracle) < 1e-10
    # long plain hn chains solve their boundary equation, the even two-band
    # and 3 | N mixed chains one grade block of (H - c)^m
    assert {r[4] for r in rows} == {"boundary-equation" if model == "hn" else "sublattice-oracle"}
    side = json.loads((tmp_path / f"{name}.json").read_text())
    assert side["validation"]["status"] == "pass"


CHAIN_SWEEPS = {
    "hn_N120": {"model": "hn", "params": {"t_l": 1.0, "t_r": 1.5}},
    "twoband_N120": {"model": "ssh", "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0}},
    "mixed_N120": {"model": "mixed-longrange", "params": {"u_l": 1.0, "t_r": 2.0}},
}


@pytest.mark.parametrize("name", sorted(CHAIN_SWEEPS))
def test_chain_csv_independent_of_blas_threads(tmp_path, name):
    """Chain sweeps at N = 120 write the same bytes at 1 and 2 BLAS threads,
    each run a fresh process with OPENBLAS_NUM_THREADS in its environment."""
    src = Path(nhchain.__file__).resolve().parent.parent
    payload = dict(CHAIN_SWEEPS[name], task="sweep", sizes={"N": 120}, output=name,
                   delta={"start": 0.1, "stop": 0.9, "step": 0.2})
    path = write_config(tmp_path, f"{name}.json", payload)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "nhchain.cli", "run", "--config", str(path),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / f"{name}.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].decode().count("\n") == 1 + 5 * 120


class TestValidationDoesNotBlockRun:
    """A closed form that raises at the reduced size leaves `run` on the
    eigensolver route, with the failure in the sidecar."""

    def test_stiff_mixed_chain_runs(self, tmp_path):
        path = write_config(tmp_path, "stiff_config.json", MIXED_STIFF)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        side = json.loads((tmp_path / "stiff.json").read_text())
        assert side["validation"]["status"] == "closed-form-failed"
        assert "grouping into sets of 3 failed" in side["validation"]["reason"]
        rows = [line.split(",") for line in (tmp_path / "stiff.csv").read_text().splitlines()[1:]]
        vals = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        oracle = nhchain.dense_spectrum(nhchain.mixed_longrange_matrix(1.0, 1e6, 0.3, 10))
        assert nhchain.spectral_mismatch(vals, oracle) < 1e-10

    def test_zero_hopping_mixed_chain_runs(self, tmp_path):
        payload = dict(MIXED_STIFF, params={"t_r": 0.0, "u_l": 1.0}, output="zero")
        path = write_config(tmp_path, "zero_config.json", payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        side = json.loads((tmp_path / "zero.json").read_text())
        assert side["validation"]["status"] == "closed-form-failed"
        assert (tmp_path / "zero.csv").read_text().count("\n") == 1 + 10

    @pytest.mark.parametrize("model, params, hopping", [
        ("hn", {"t_l": 1.0, "t_r": 0.0}, "t_l and t_r"),
        ("ssh", {"tl1": 1.0, "tr1": 0.0, "tl2": 2.0, "tr2": 3.0}, "all four hoppings"),
    ])
    def test_zero_hopping_chain_is_not_compared_with_itself(self, tmp_path, model, params, hopping):
        # with a vanishing hopping there is no boundary equation: the closed
        # form must not hand back the oracle and report a 0.0 "pass"
        cfg = parse_config({"model": model, "task": "spectrum", "params": params,
                            "sizes": {"N": 30}, "delta": 0.3, "output": "zero"})
        assert run(cfg, tmp_path) == 0
        side = json.loads((tmp_path / "zero.json").read_text())
        assert side["validation"]["status"] == "closed-form-failed"
        assert hopping in side["validation"]["reason"]
        rows = (tmp_path / "zero.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 30 and all(row.endswith("oracle") for row in rows)

    def test_triangular_balance_and_envelope_agree(self, tmp_path):
        # t_l = t_r also meets case 1's equalities once mapped onto the hn
        # stack; the triangular lattice is case 4, with its loop, in both tasks
        base = {"model": "triangular", "params": {"t_l": 1.0, "t_r": 1.0},
                "sizes": {"N1": 6, "N2": 6}, "mode": "bc1", "delta": 0.0}
        for task in ("balance", "envelope"):
            assert run(parse_config(dict(base, task=task, output=task)), tmp_path) == 0
            side = json.loads((tmp_path / f"{task}.json").read_text())
            assert side[task]["case"] == "case4", task
        curves = {line.split(",")[0] for line in
                  (tmp_path / "envelope_envelope.csv").read_text().splitlines()[1:]}
        assert "loop" in curves

    def test_complex_triangular_envelope_writes_its_loop(self, tmp_path):
        # complex hoppings: still case 4, and each loop row lies on z+ or z-
        cfg = parse_config({"model": "triangular", "task": "envelope", "output": "env",
                            "params": {"t_l": 1.0, "t_r": [2.0, 1.0]},
                            "sizes": {"N1": 6, "N2": 6}, "mode": "bc1", "delta": 0.0})
        assert run(cfg, tmp_path) == 0
        loop = np.array([complex(float(re), float(im)) for name, _, re, im in
                         (line.split(",") for line in
                          (tmp_path / "env_envelope.csv").read_text().splitlines()[1:])
                         if name == "loop"])
        assert len(loop) > 0
        fine = nhchain.models2d.envelope_curves(nhchain.models2d.triangular_spec(
            1.0, 2.0 + 1j, 6, 6, 0.0, "bc1"), np.linspace(0, 2 * np.pi, 4001))
        ref = np.concatenate([fine.z_plus, fine.z_minus])
        assert np.abs(loop[:, None] - ref[None, :]).min(axis=1).max() < 0.01


STACK_HN = {"t_d": 1, "t_l": 2, "t_r": 2, "u_d": 2, "v_dl": 4, "v_dr": 4, "u_u": -3, "v_ul": 3, "v_ur": 3}
STACK_SSH = {"td1": 1, "td2": 4, "tl1": 1, "tl2": 8, "tr1": 1, "tr2": 6, "ud1": 3, "ud2": 6,
             "vdl1": 0, "vdl2": 0, "vdr1": 8 / 3, "vdr2": 3, "uu1": 2, "uu2": 5, "vul1": 2,
             "vul2": 3, "vur1": 0, "vur2": 0}
TASK_ORDER = ("spectrum", "states", "winding", "gap", "envelope", "sweep", "sensitivity", "balance")
# model: (params, sizes, exit code per task in TASK_ORDER).  The chains run
# states although they are too short for its localization fit (10 sites),
# lattices have no Bloch function here, and envelope curves exist only for
# HN-type stacks.
MODEL_TASKS = {
    "hn": ({"t_l": 1.0, "t_r": 2.0}, {"N": 8}, "00002000"),
    "hn-general": ({"t_l": 1.0, "t_r": 2.0, "eps1": 0.3}, {"N": 8}, "00002000"),
    "ssh": ({"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0}, {"N": 8}, "00002000"),
    "ssh-odd": ({"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0}, {"N": 9}, "00002000"),
    "unidirectional": ({"t_l": 1.0, "u_l": 0.5}, {"N": 8}, "00002002"),
    "mixed-longrange": ({"t_r": 1.0, "u_l": 2.0}, {"N": 8}, "00002002"),
    "general-chain": ({"t_p1": 1.0, "t_m1": 2.0, "t_p2": 0.5}, {"N": 8}, "00002002"),
    "stacked-hn": (STACK_HN, {"N1": 4, "N2": 4}, "00220000"),
    "stacked-ssh": (STACK_SSH, {"N1": 4, "N2": 4}, "00222000"),
    "triangular": ({"t_l": 1.0, "t_r": 2.0}, {"N1": 4, "N2": 4}, "00220000"),
    "kagome": ({"t_l": 1.0, "t_r": 2.0}, {"N1": 4, "N2": 4}, "00222002"),
    "separable-square": ({"a_t_l": 1.0, "a_t_r": 2.0, "b_t_l": 1.0, "b_t_r": 0.5},
                         {"N1": 4, "N2": 4}, "00222002"),
}


# runs every (model, task) of MODEL_TASKS that exits 0, then a states job on
# a nilpotent chain, in one process; prints, per job, the modules of
# FORBIDDEN that it was the first to load
_TASKS_IN_ONE_PROCESS = """
import json, sys, tempfile
from nhchain import cli
FORBIDDEN = ("scipy", "numpy.random", "numpy.ma")
report = {}
for name, raw in json.loads(sys.argv[1]).items():
    before = set(sys.modules)
    with tempfile.TemporaryDirectory() as out:
        code = cli.run(cli.parse_config(raw), out)
    report[name] = [code] + sorted(m for m in set(sys.modules) - before
                                   if any(m == f or m.startswith(f + ".") for f in FORBIDDEN))
print(json.dumps(report))
"""


def test_tasks_load_neither_scipy_nor_numpy_random_nor_ma():
    """Every task on a small config of every model runs in a fresh process
    without loading scipy, numpy.random or numpy.ma; only a long Jordan
    chain, whose state comes from the full eigendecomposition, loads
    scipy.linalg (and with it the other two)."""
    jobs = {}
    for model, (params, sizes, codes) in sorted(MODEL_TASKS.items()):
        for task, code in zip(TASK_ORDER, codes):
            if code == "0":
                raw = {"model": model, "task": task, "params": params, "sizes": sizes,
                       "delta": 0.3, "output": "out"}
                if task == "sweep":
                    raw["delta"] = {"start": 0.0, "stop": 0.6, "step": 0.3}
                if task == "sensitivity" and "N" in sizes:
                    raw["n_list"] = [6, 8, 10, 12]
                jobs[f"{model}-{task}"] = raw
    jobs["triangular-open-states"] = {"model": "triangular", "task": "states", "mode": "open",
                                      "params": {"t_l": 1.0, "t_r": 5.0},
                                      "sizes": {"N1": 12, "N2": 4}, "delta": 0.2, "output": "out"}
    jobs["nilpotent-states"] = {"model": "hn", "task": "states", "params": {"t_l": 1.0, "t_r": 0.0},
                                "sizes": {"N": 30}, "delta": 0.0, "output": "out"}
    proc = subprocess.run([sys.executable, "-c", _TASKS_IN_ONE_PROCESS, json.dumps(jobs)],
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    fallback = report.pop("nilpotent-states")
    assert report == {name: [0] for name in jobs if name != "nilpotent-states"}
    assert fallback[0] == 0 and "scipy.linalg" in fallback

@pytest.mark.parametrize("task", TASK_ORDER)
@pytest.mark.parametrize("model", sorted(MODEL_TASKS))
def test_model_task_matrix(tmp_path, capsys, model, task):
    """Every model x task either runs (exit 0) or is refused as a configuration
    error (exit 2); none raises."""
    params, sizes, codes = MODEL_TASKS[model]
    path = write_config(tmp_path, "c.json", {"model": model, "task": task, "params": params,
                                              "sizes": sizes, "delta": 0.3, "output": "out"})
    expected = int(codes[TASK_ORDER.index(task)])
    assert main([task, "--config", str(path), "--out", str(tmp_path)]) == expected
    if expected == 0:
        assert (tmp_path / "out.json").exists()
    elif task in ("winding", "gap", "envelope", "balance"):
        assert f"{task} is not defined for model {model!r}" in capsys.readouterr().err


@pytest.mark.parametrize("model, params", [("stacked-hn", STACK_HN), ("stacked-ssh", STACK_SSH)])
@pytest.mark.parametrize("task", ["spectrum", "sweep", "sensitivity"])
def test_open_stack_takes_dense_route(tmp_path, model, params, task):
    """Open stacking has no Bloch reduction: the spectrum is the dense eig of
    the assembled lattice, and validation is oracle-only."""
    payload = {"model": model, "task": task, "params": params, "mode": "open",
               "sizes": {"N1": 4, "N2": 4}, "delta": 0.3, "n_list": [4, 6, 8, 10], "output": "out"}
    if task == "sweep":
        payload["delta"] = {"start": 0.0, "stop": 0.6, "step": 0.3}
    path = write_config(tmp_path, "c.json", payload)
    assert main([task, "--config", str(path), "--out", str(tmp_path)]) == 0
    side = json.loads((tmp_path / "out.json").read_text())
    assert side["validation"]["status"] == "oracle-only"
    if task == "sensitivity":
        assert len(side["sensitivity"]["exponent"]["reached"]) == 4
        return
    cfg = parse_config(payload)
    rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    for delta in (0.0, 0.3, 0.6) if task == "sweep" else (0.3,):
        got = [complex(float(r[2]), float(r[3])) for r in rows if float(r[0]) == delta]
        spec = nhchain.Stacked2DSpec(model.split("-")[1], cfg["params"], 4, 4, delta, "open")
        want = nhchain.dense_spectrum(nhchain.build_stacked_matrix(spec)).eigenvalues
        assert np.array_equal(np.sort_complex(got), np.sort_complex(want))
    assert {r[4] for r in rows} == {"oracle"}



# model: (params, sizes, first sizes refused in n_list, smallest accepted);
# a line of the model cannot be built at a refused size
FIT_SIZES = {
    "hn": ({"t_l": 1.0, "t_r": 2.0}, {"N": 8}, [1, 2], 3),
    "hn-one-way": ({"t_l": 1.0, "t_r": 0.0}, {"N": 8}, [1], 2),
    "hn-general": ({"t_l": 1.0, "t_r": 2.0, "eps1": 0.3}, {"N": 8}, [1, 2], 3),
    "ssh": ({"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0}, {"N": 8}, [0], 1),
    "unidirectional": ({"t_l": 1.0, "u_l": 0.5}, {"N": 8}, [1, 2], 3),
    "mixed-longrange": ({"t_r": 1.0, "u_l": 2.0}, {"N": 8}, [1, 2, 3], 4),
    "general-chain": ({"t_p1": 1.0, "t_m1": 2.0, "t_p2": 0.5}, {"N": 8}, [1, 2, 3], 4),
    "general-chain-m2p2": ({"t_m2": 1.0, "t_p2": 0.5}, {"N": 8}, [1, 2, 3, 4], 5),
    "stacked-hn": (STACK_HN, {"N1": 4, "N2": 4}, [1, 2], 3),
    "stacked-ssh": (STACK_SSH, {"N1": 4, "N2": 4}, [1, 3, 5, 7], 2),
    "triangular": ({"t_l": 1.0, "t_r": 2.0}, {"N1": 4, "N2": 4}, [1, 2], 3),
    "kagome": ({"t_l": 1.0, "t_r": 2.0}, {"N1": 4, "N2": 4}, [1], 2),
    "separable-square": ({"a_t_l": 1.0, "a_t_r": 2.0, "b_t_l": 1.0, "b_t_r": 0.5},
                         {"N1": 4, "N2": 4}, [1, 2], 3),
}


@pytest.mark.parametrize("case", sorted(FIT_SIZES))
def test_n_list_sizes_the_model_cannot_build_exit_2(tmp_path, capsys, case):
    """A size in n_list at which the model's line cannot be built is a
    config error naming n_list, raised before validation and the screen
    run; the smallest buildable size runs."""
    params, sizes, refused, smallest = FIT_SIZES[case]
    payload = {"model": case.replace("-one-way", "").replace("-m2p2", ""), "task": "sensitivity",
               "params": params, "sizes": sizes, "delta": 0.3, "output": "out"}
    for k in refused:
        raw = dict(payload, n_list=[k, 6, 8, 10])
        with pytest.raises(ConfigError, match=r"^n_list: model .* needs N1? >= "):
            parse_config(raw)
        path = write_config(tmp_path, "c.json", raw)
        assert main(["sensitivity", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "invalid config: n_list" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()
    path = write_config(tmp_path, "c.json", dict(payload, n_list=[smallest, 6, 8, 10]))
    assert main(["sensitivity", "--config", str(path), "--out", str(tmp_path)]) == 0
    side = json.loads((tmp_path / "out.json").read_text())
    assert side["sensitivity"]["exponent"]["n_list"][0] == smallest


@pytest.mark.parametrize("case", sorted(FIT_SIZES))
def test_sizes_the_model_cannot_build_exit_2(tmp_path, capsys, case):
    """A configured first size at which the model's matrix or line cannot be
    built is a config error naming that size, for every task that builds
    one; winding, gap and balance read no size and accept it."""
    params, sizes, refused, smallest = FIT_SIZES[case]
    key = next(iter(sizes))
    payload = {"model": case.replace("-one-way", "").replace("-m2p2", ""), "params": params,
               "delta": 0.3, "output": "out"}
    for k in refused:
        at = dict(sizes, **{key: k})
        for task in ("spectrum", "sweep", "states", "envelope", "sensitivity"):
            with pytest.raises(ConfigError, match=rf"^sizes\.{key}: model .* needs {key} >= {smallest}"):
                parse_config(dict(payload, task=task, sizes=at))
        for task in ("winding", "gap", "balance"):
            assert parse_config(dict(payload, task=task, sizes=at))["sizes"][key] == k
    path = write_config(tmp_path, "c.json", dict(payload, sizes=dict(sizes, **{key: refused[-1]})))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"invalid config: sizes.{key}: " in capsys.readouterr().err
    path = write_config(tmp_path, "c.json", dict(payload, sizes=dict(sizes, **{key: smallest})))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("model, params, n2, smallest", [
    ("stacked-hn", STACK_HN, 0, 1),
    ("kagome", {"t_l": 1.0, "t_r": 2.0}, 1, 2),
    ("separable-square", {"a_t_l": 1.0, "a_t_r": 2.0, "b_t_l": 1.0, "b_t_r": 0.5}, 2, 3),
])
def test_second_size_the_model_cannot_build_exit_2(tmp_path, capsys, model, params, n2, smallest):
    """A second size at which the lattice cannot be built is a config error
    naming sizes.N2, for every task, before anything is solved (no numpy
    warning); the smallest buildable size runs."""
    payload = {"model": model, "task": "spectrum", "params": params, "delta": 0.3, "output": "out"}
    for task in ("spectrum", "sweep", "balance"):
        with pytest.raises(ConfigError, match=rf"^sizes\.N2: model '{model}' needs N2 >= {smallest}, got {n2}$"):
            parse_config(dict(payload, task=task, sizes={"N1": 4, "N2": n2}))
    path = write_config(tmp_path, "c.json", dict(payload, sizes={"N1": 4, "N2": n2}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert not caught
    assert "invalid config: sizes.N2: " in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
    path = write_config(tmp_path, "c.json", dict(payload, sizes={"N1": 4, "N2": smallest}))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("task, delta, expected", [
    ("winding", 0.3, 0), ("spectrum", 0.0, 2), ("spectrum", 1.0, 2), ("spectrum", 0.3, 2),
])
def test_two_site_hn(tmp_path, task, delta, expected):
    """hn at N = 2: the winding reads no size; a spectrum exits 2 at every
    delta, the exact sets at 0 and +-1 included."""
    path = write_config(tmp_path, "c.json", {"model": "hn", "params": {"t_l": 1.0, "t_r": 2.0},
                                             "sizes": {"N": 2}, "delta": delta, "output": "out"})
    assert main([task, "--config", str(path), "--out", str(tmp_path)]) == expected


STACK_HN_UNBALANCED = {"t_d": 1, "t_r": 2, "t_l": 3, "u_u": 4, "v_ur": 5, "v_ul": 6, "u_d": 7,
                       "v_dr": 8, "v_dl": 9}


# (hoppings, mode): (exit code, sidecar entry) of the balance and envelope tasks
BLOCH_TASKS = {
    ("balanced", "bc1"): ((0, {"case": "case2"}), (0, {"case": "case2"})),
    ("balanced", "bc2"): ((0, {"case": "case2"}), (0, {"case": "case2"})),
    ("unbalanced", "bc1"): ((0, {"case": "unbalanced"}), (2, None)),
    ("unbalanced", "bc2"): ((0, {"case": "unbalanced"}), (2, None)),
    ("balanced", "open"): ((2, None), (2, None)),
    ("unbalanced", "open"): ((2, None), (2, None)),
}


@pytest.mark.parametrize("hoppings, mode", sorted(BLOCH_TASKS))
@pytest.mark.parametrize("task", ["balance", "envelope"])
def test_balance_and_envelope_need_a_bloch_reduction(tmp_path, capsys, hoppings, mode, task):
    """Open stacking has no Bloch reduction: balance and envelope are a
    configuration error there, whatever the hoppings; BC1 and BC2 answer
    from the classification as before."""
    params = STACK_HN if hoppings == "balanced" else STACK_HN_UNBALANCED
    path = write_config(tmp_path, "c.json", {
        "model": "stacked-hn", "task": task, "params": params, "sizes": {"N1": 4, "N2": 4},
        "delta": 0.3, "mode": mode, "delta2": 0.5, "output": "out"})
    code, entry = BLOCH_TASKS[hoppings, mode][task == "envelope"]
    assert main([task, "--config", str(path), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert json.loads((tmp_path / "out.json").read_text())[task] == entry
    elif mode == "open":
        assert f"{task} is not defined for mode 'open'" in err
        with pytest.raises(ConfigError, match="mode 'open'"):
            run(parse_config(json.loads(path.read_text())), tmp_path)
    else:
        assert "envelope curves are defined for balanced stacks" in err


def test_open_triangular_refuses_balance(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {
        "model": "triangular", "task": "balance", "params": {"t_l": 1.0, "t_r": 2.0},
        "sizes": {"N1": 4, "N2": 4}, "mode": "open", "output": "out"})
    assert main(["balance", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "mode 'open'" in capsys.readouterr().err


SENSITIVITY_CASES = {
    "hn_real": ("hn", {"t_l": 1.0, "t_r": 1.7}, {"N": 12}, [6, 8, 10, 12]),
    "hn_complex": ("hn", {"t_l": 1.0, "t_r": [0.9, 0.6]}, {"N": 12}, [6, 8, 10, 12]),
    "ssh": ("ssh", {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 3.9}, {"N": 12}, [6, 8, 10, 12]),
    "mixed_longrange": ("mixed-longrange", {"t_r": 1.6, "u_l": 1.0}, {"N": 10}, [5, 6, 8, 10]),
    "stacked_hn": ("stacked-hn", dict(STACK_HN_UNBALANCED, t_l=2.8), {"N1": 4, "N2": 4},
                   [3, 4, 5, 6]),
    "stacked_ssh": ("stacked-ssh", STACK_SSH, {"N1": 4, "N2": 3}, [2, 4, 6, 8]),
}


@pytest.mark.parametrize("name", sorted(SENSITIVITY_CASES))
def test_sensitivity_task_equals_direct_family(monkeypatch, name):
    """The task's per-size lines and (size, delta) memo report what the
    screen and fit report on a fresh `spectrum_for` per call; the fit at the
    configured size reuses the screen's delta = 0 and 1."""
    from nhchain import cli, sensitivity

    model, params, sizes, n_list = SENSITIVITY_CASES[name]
    cfg = parse_config({"model": model, "task": "sensitivity", "params": params, "sizes": sizes,
                        "threshold": 0.5, "n_list": n_list, "output": "sens"})
    key = cli.MODELS[model].sizes[0]
    calls = []
    counted = cli.spectrum_for

    def spectrum_for(c, d, line=None):
        calls.append(line is None)
        return counted(c, d, line)

    monkeypatch.setattr(cli, "spectrum_for", spectrum_for)
    screen = sensitivity.classify_sensitivity(lambda d: cli.spectrum_for(cfg, d)[0])
    report = sensitivity.sensitivity_exponent(
        lambda n, d: cli.spectrum_for(dict(cfg, sizes=dict(cfg["sizes"], **{key: n})), d)[0],
        cfg["threshold"], cfg["n_list"])
    direct = {"screen": asdict(screen), "exponent": asdict(report)}
    n_direct = len(calls)
    calls.clear()
    assert cli._sensitivity_task(cfg) == direct
    assert not any(calls)  # every solve through a line of the task
    assert len(calls) == n_direct - 2


def _per_k_bloch(model, p):
    """The Bloch functions as they were evaluated one k at a time."""
    if model == "hn":
        return lambda k: p.get("t_d", 0.0) + p["t_l"] * np.exp(1j * k) + p["t_r"] * np.exp(-1j * k)
    if model == "ssh":
        return lambda k: np.array([
            [p.get("v1", 0.0), p["tl1"] + p["tr2"] * np.exp(-1j * k)],
            [p["tr1"] + p["tl2"] * np.exp(1j * k), p.get("v2", 0.0)]])
    if model == "unidirectional":
        return lambda k: p["t_l"] * np.exp(1j * k) + p["u_l"] * np.exp(2j * k)
    if model == "mixed-longrange":
        return lambda k: p["u_l"] * np.exp(2j * k) + p["t_r"] * np.exp(-1j * k)
    offsets = {"t_m2": -2, "t_m1": -1, "t_0": 0, "t_p1": 1, "t_p2": 2}
    return lambda k: sum(t * np.exp(1j * offsets[n] * k) for n, t in p.items())


@pytest.mark.parametrize("model, keys", [
    ("hn", ("t_l", "t_r", "t_d")), ("ssh", ("tl1", "tr1", "tl2", "tr2", "v1", "v2")),
    ("unidirectional", ("t_l", "u_l")), ("mixed-longrange", ("t_r", "u_l")),
    ("general-chain", ("t_m2", "t_m1", "t_0", "t_p1", "t_p2")),
])
def test_bloch_grids_equal_per_k_evaluation_bitwise(rng, model, keys):
    """Each model's Bloch function on a whole grid equals its per-k
    evaluation bit for bit, with complex hoppings, so winding and gap
    outputs (min |det| included) do not depend on the batch."""
    from nhchain import cli

    for _ in range(5):
        p = {k: complex(rng.normal(), rng.normal()) for k in keys}
        sampler = cli.MODELS[model].bloch(p)
        per_k = _per_k_bloch(model, p)
        for n in (256, 512):
            ks = np.linspace(-np.pi, np.pi, n + 1)
            want = np.array([np.asarray(per_k(k), dtype=complex) for k in ks])
            assert np.array_equal(sampler.grid(n).view(np.int64), want.view(np.int64))


OPEN_TRIANGULAR_SWEEP = {"model": "triangular", "task": "sweep", "params": {"t_l": 1.0, "t_r": 5.0},
                         "sizes": {"N1": 6, "N2": 3}, "mode": "open", "output": "tri"}


@pytest.mark.parametrize("grid", [
    {"start": 1.0, "stop": 0.0, "step": 0.1},
    {"start": 0.0, "stop": 1.0, "step": float("nan")},
    {"start": 0.0, "stop": float("inf"), "step": 0.1},
], ids=["empty", "nan-step", "infinite-stop"])
@pytest.mark.parametrize("base", [HN_SWEEP, OPEN_TRIANGULAR_SWEEP], ids=["hn", "open-triangular"])
def test_grid_without_finite_boundary_values_exits_2(tmp_path, capsys, base, grid):
    """A delta grid that holds no boundary value, or is not finite, is a
    configuration error naming delta, for run and validate alike."""
    path = write_config(tmp_path, "c.json", dict(base, delta=grid))
    for command in ("run", "validate"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "invalid config: delta" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


_CELL_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1.5e-315,
                     1e300, -1e300, 1e-300, -1e-300]),
)


def _per_value_rows(batch):
    """The rows of [(delta label, j labels, Spectrum), ...] with one .17g
    conversion per value."""
    return [f"{lab},{j},{re:.17g},{im:.17g},{spec.provenance}" for lab, js, spec in batch
            for j, re, im in zip(js, spec.eigenvalues.real.tolist(), spec.eigenvalues.imag.tolist())]


@settings(max_examples=300, deadline=None)
@given(distinct=st.lists(st.tuples(_CELL_FLOATS, _CELL_FLOATS), max_size=40),
       pairs=st.lists(st.tuples(_CELL_FLOATS, _CELL_FLOATS), max_size=30),
       copies=st.integers(1, 3))
def test_rows_equal_per_value_format(distinct, pairs, copies):
    """Every re and im cell is f"{x:.17g}" of its value, whether its
    magnitude is formatted once for many cells (repeated values, exact
    conjugate pairs) or each value for itself."""
    lam = np.array([complex(re, im) for re, im in pairs] * copies, dtype=complex)
    lam = np.concatenate([lam, lam.conj(), [complex(re, im) for re, im in distinct]])
    half = len(lam) // 2
    batch = [("0.5", [0] * half, Spectrum(lam[:half])), ("1", [1] * (len(lam) - half), Spectrum(lam[half:]))]
    assert cli._batch_rows(batch) == _per_value_rows(batch)


def test_rows_of_non_finite_values():
    """NaN prints without a sign whatever its sign bit; infinities keep theirs."""
    parts = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0] * 3)
    lam = np.empty(len(parts), dtype=complex)
    lam.real, lam.imag = parts, parts[::-1]
    assert cli._shared_texts(np.concatenate([lam.real, lam.imag])) is not None
    batch = [("0", [""] * len(lam), Spectrum(lam))]
    assert cli._batch_rows(batch) == _per_value_rows(batch)


def test_stacked_bc1_sweep_csv_equals_per_value_format(tmp_path):
    """A BC1 stacked sweep through delta 0 and 1 writes, byte for byte, the
    rows of one .17g conversion per value.  The stack is Hermitian (the
    down hoppings mirror the up ones), so its Bloch blocks have real
    eigenvalues, and the rows that conjugate them carry -0 imaginary parts."""
    hermitian = {"t_d": 1, "t_l": 2, "t_r": 2, "u_u": 3, "u_d": 3, "v_ul": 1, "v_ur": 2,
                 "v_dl": 2, "v_dr": 1}
    cfg = parse_config(dict(STACKED_SWEEPS["stacked_hn_small"], params=hermitian,
                            sizes={"N1": 4, "N2": 4}, output="s"))
    assert run(cfg, tmp_path) == 0
    line = cli.line_for(cfg)
    rows = _per_value_rows([(f"{d:.17g}", *line(d)[::-1]) for d in cli._delta_values(cfg)])
    text = (tmp_path / "s.csv").read_text()
    assert text == "\n".join(["delta,j,re,im,provenance", *sorted(rows)]) + "\n"
    assert ",-0,bloch-oracle" in text


# the Bloch functions of the one-band rows before `cli._chain_bloch`
_REPLACED_CHAIN_BLOCH = {
    "hn": lambda p: lambda k: (p.get("t_d", 0.0) + nhchain.core.cmul(p["t_l"], np.exp(1j * k))
                               + nhchain.core.cmul(p["t_r"], np.exp(-1j * k))),
    "unidirectional": lambda p: lambda k: (nhchain.core.cmul(p["t_l"], np.exp(1j * k))
                                           + nhchain.core.cmul(p["u_l"], np.exp(2j * k))),
    "mixed-longrange": lambda p: lambda k: (nhchain.core.cmul(p["u_l"], np.exp(2j * k))
                                            + nhchain.core.cmul(p["t_r"], np.exp(-1j * k))),
}


@pytest.mark.parametrize("model", sorted(_REPLACED_CHAIN_BLOCH))
def test_chain_bloch_equals_the_replaced_functions_bitwise(rng, model):
    """Each one-band row's Bloch sampler, now the general chain's sum over
    its offsets, equals the function it replaced bit for bit on 1025 k:
    real (as a config gives them: imaginary part +0), complex and zero
    hoppings, hn with t_d absent, zero or set.  A hopping written as
    [re, -0.0] can turn a -0 of a sample into +0, and nothing more."""
    keys = sorted(cli.MODELS[model].required | cli.MODELS[model].optional)
    ks = np.linspace(-np.pi, np.pi, 1025)
    for trial in range(300):
        p = {k: complex(rng.normal(), rng.normal() if trial % 3 else 0.0) for k in keys}
        signed = {k: complex(v.real, -0.0) for k, v in p.items()}
        assert np.array_equal(cli.MODELS[model].bloch(signed).grid(1024),
                              _REPLACED_CHAIN_BLOCH[model](signed)(ks))
        if model == "hn":
            p = {k: v for k, v in p.items() if k != "t_d"} if trial % 4 == 0 else p
            p["t_d"] = 0j if trial % 4 == 1 else p.get("t_d")
            p = {k: v for k, v in p.items() if v is not None}
        if trial % 7 == 0:
            p[keys[trial % len(keys)]] = 0j
        want = np.asarray(_REPLACED_CHAIN_BLOCH[model](p)(ks), dtype=complex)
        got = cli.MODELS[model].bloch(p).grid(1024)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), p
