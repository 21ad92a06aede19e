import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhchain
from nhchain.cli import ConfigError, main, parse_config, run, validate


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


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported where it is used, not when the command line loads."""
    src = Path(nhchain.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import sys, nhchain.cli; print('scipy' in sys.modules)"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = parse_config(dict(HN_SWEEP, output="threaded"))
        run(cfg, tmp_path, threads=1)
        single = (tmp_path / "threaded.csv").read_bytes()
        run(cfg, tmp_path, threads=4)
        assert (tmp_path / "threaded.csv").read_bytes() == single

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

    def test_seed_key_still_parses(self):
        cfg = parse_config(dict(HN_SWEEP, seed=7))
        assert "seed" not in cfg


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
}


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

    def test_numerical_failures_share_one_family(self):
        from nhchain.core import EigensolverError, NumericalError

        assert issubclass(EigensolverError, NumericalError)
        assert issubclass(NumericalError, ValueError)
        assert not issubclass(ConfigError, NumericalError)


LONG_CHAINS = {
    # (model, params, N): the boundary-equation route raised here, or (hn at
    # N = 120) returned a spectrum 0.25 off labelled "analytic"
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
    assert {r[4] for r in rows} == {"oracle"}
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
