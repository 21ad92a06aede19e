"""Configuration-driven command line runner with bit-stable tabular output.

A JSON config selects a model, a task and parameters; results are written as
a CSV table (17 significant digits, lexicographically ordered rows) plus a
JSON sidecar with the config echo and any verdicts.  Re-running a config
reproduces the CSV byte for byte.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import models1d, models2d, sensitivity, topology
from .core import Spectrum, dense_spectrum, expectation_profiles, localization_report, spectral_mismatch

TASKS = ("spectrum", "states", "winding", "gap", "envelope", "sweep", "sensitivity", "balance")
MODELS = (
    "hn", "hn-general", "ssh", "ssh-odd", "unidirectional", "mixed-longrange",
    "general-chain", "stacked-hn", "stacked-ssh", "triangular", "kagome",
    "separable-square",
)

MODEL_PARAMS = {
    "hn": ({"t_l", "t_r"}, {"t_d"}),
    "hn-general": ({"t_l", "t_r"}, {"t_d", "eps1", "epsN"}),
    "ssh": ({"tl1", "tr1", "tl2", "tr2"}, {"v1", "v2"}),
    "ssh-odd": ({"tl1", "tr1", "tl2", "tr2"}, set()),
    "unidirectional": ({"t_l", "u_l"}, set()),
    "mixed-longrange": ({"t_r", "u_l"}, set()),
    "general-chain": (set(), {"t_m2", "t_m1", "t_0", "t_p1", "t_p2"}),
    "stacked-hn": (set(models2d.HN_KEYS), set()),
    "stacked-ssh": (set(models2d.SSH_KEYS), set()),
    "triangular": ({"t_l", "t_r"}, set()),
    "kagome": ({"t_l", "t_r"}, {"inter_scale", "delta2p"}),
    "separable-square": ({"a_t_l", "a_t_r", "b_t_l", "b_t_r"}, {"a_t_d", "b_t_d"}),
}


class ConfigError(ValueError):
    pass


def _to_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def parse_config(raw: dict) -> dict:
    """Validate a raw JSON config into a normalized dict."""
    cfg = {}
    model = raw.get("model")
    if model not in MODELS:
        raise ConfigError(f"model: expected one of {MODELS}, got {model!r}")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"task: expected one of {TASKS}, got {task!r}")
    cfg["model"] = model
    cfg["task"] = task
    required, optional = MODEL_PARAMS[model]
    params = {}
    for name, value in (raw.get("params") or {}).items():
        if name not in required | optional:
            raise ConfigError(f"params.{name}: unknown parameter for model {model!r}")
        params[name] = _to_complex(value, f"params.{name}")
    missing = required - set(params)
    if missing:
        raise ConfigError(f"params: missing {sorted(missing)} for model {model!r}")
    cfg["params"] = params
    sizes = raw.get("sizes") or {}
    if model.startswith("stacked") or model in ("triangular", "kagome", "separable-square"):
        if "N1" not in sizes or "N2" not in sizes:
            raise ConfigError("sizes: 2D models need N1 and N2")
        cfg["sizes"] = {"N1": int(sizes["N1"]), "N2": int(sizes["N2"])}
    else:
        if "N" not in sizes:
            raise ConfigError("sizes: need N")
        cfg["sizes"] = {"N": int(sizes["N"])}
    cfg["delta"] = _parse_delta(raw.get("delta", 0.0))
    cfg["mode"] = raw.get("mode", "bc1")
    cfg["delta2"] = _to_complex(raw.get("delta2", 1.0), "delta2")
    if "base_energy" in raw:
        cfg["base_energy"] = _to_complex(raw["base_energy"], "base_energy")
    cfg["threshold"] = float(raw.get("threshold", 0.5))
    cfg["n_list"] = [int(n) for n in raw.get("n_list", [])]
    cfg["output"] = str(raw.get("output", "run"))
    return cfg


def _parse_delta(value):
    if isinstance(value, dict):
        start, stop = float(value["start"]), float(value["stop"])
        step = float(value["step"])
        if step <= 0:
            raise ConfigError(f"delta.step must be positive, got {step}")
        n = int(round((stop - start) / step))
        return ("grid", [start + k * step for k in range(n + 1)])
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return ("pair", (complex(value[0]), complex(value[1])))
    if isinstance(value, (int, float)):
        return ("scalar", float(value))
    raise ConfigError(f"delta: expected scalar, [dl, dr] pair or grid dict, got {value!r}")


def _delta_values(cfg) -> list:
    kind, val = cfg["delta"]
    if kind == "grid":
        return list(val)
    return [val]


# ---------------------------------------------------------------------------
# model adapters
# ---------------------------------------------------------------------------

def spectrum_for(cfg: dict, delta) -> tuple[Spectrum, list]:
    """(Spectrum, per-eigenvalue j indices) for one boundary value."""
    model, p, sizes = cfg["model"], cfg["params"], cfg["sizes"]
    if model in ("hn", "hn-general"):
        hp = models1d.HNParams(p["t_l"], p["t_r"], p.get("t_d", 0.0),
                               p.get("eps1", 0.0), p.get("epsN", 0.0))
        spec, _ = models1d.hn_spectrum(hp, sizes["N"], delta)
        return spec, [""] * len(spec)
    if model in ("ssh", "ssh-odd"):
        sp = models1d.SSHParams(p["tl1"], p["tr1"], p["tl2"], p["tr2"],
                                p.get("v1", 0.0), p.get("v2", 0.0))
        spec, _ = models1d.ssh_spectrum(sp, sizes["N"], delta)
        return spec, [""] * len(spec)
    if model == "unidirectional":
        spec = models1d.unidirectional_spectrum(p["t_l"], p["u_l"], _scalar(delta), sizes["N"])
        return spec, [""] * len(spec)
    if model == "mixed-longrange":
        spec, _ = models1d.mixed_longrange_spectrum(p["t_r"], p["u_l"], _scalar(delta), sizes["N"])
        return spec, [""] * len(spec)
    if model == "general-chain":
        spec = dense_spectrum(_general_chain_matrix(cfg, delta))
        return spec, [""] * len(spec)
    if model in ("stacked-hn", "stacked-ssh", "triangular"):
        spec2d = _stacked_spec(cfg, delta)
        if model == "triangular":
            spec, _ = models2d.triangular_spectrum(spec2d)
        elif model == "stacked-hn":
            spec, _ = models2d.stacked_hn_spectrum(spec2d)
        else:
            spec, _ = models2d.stacked_ssh_spectrum(spec2d)
        if spec2d.mode == "open":
            return spec, [""] * len(spec)
        n1 = sizes["N1"]
        return spec, [j for j in range(sizes["N2"]) for _ in range(n1)]
    if model == "kagome":
        H = models2d.kagome_matrix(
            p["t_l"], p["t_r"], sizes["N1"], sizes["N2"], _scalar(delta),
            cfg["delta2"], p.get("delta2p", cfg["delta2"]),
            float(p.get("inter_scale", 1.0).real) if "inter_scale" in p else 1.0,
        )
        spec = dense_spectrum(H)
        return spec, [""] * len(spec)
    if model == "separable-square":
        pa = models1d.HNParams(p["a_t_l"], p["a_t_r"], p.get("a_t_d", 0.0))
        pb = models1d.HNParams(p["b_t_l"], p["b_t_r"], p.get("b_t_d", 0.0))
        sa, _ = models1d.hn_spectrum(pa, sizes["N1"], delta)
        sb, _ = models1d.hn_spectrum(pb, sizes["N2"], cfg["delta2"])
        spec = models2d.separable_square_spectrum(sa, sb)
        return spec, [""] * len(spec)
    raise ConfigError(f"unsupported model {model!r}")


def _scalar(delta):
    if isinstance(delta, tuple):
        raise ConfigError("this model supports only a scalar delta")
    return delta


def _general_chain_matrix(cfg, delta):
    from .core import ChainStencil, build_chain_matrix

    p = cfg["params"]
    hops = {}
    for name, off in (("t_m2", -2), ("t_m1", -1), ("t_p1", 1), ("t_p2", 2)):
        if name in p and p[name] != 0:
            hops[off] = p[name]
    st = ChainStencil(cfg["sizes"]["N"], hops, (p.get("t_0", 0.0),), delta)
    return build_chain_matrix(st)


def _stacked_spec(cfg, delta) -> models2d.Stacked2DSpec:
    model, p, sizes = cfg["model"], cfg["params"], cfg["sizes"]
    family = {"stacked-hn": "hn", "stacked-ssh": "ssh", "triangular": "triangular"}[model]
    return models2d.Stacked2DSpec(family, p, sizes["N1"], sizes["N2"],
                                  _scalar(delta), cfg["mode"], cfg["delta2"])


def _oracle_matrix(cfg, delta):
    """Dense matrix of the configured model (for validation)."""
    model, p, sizes = cfg["model"], cfg["params"], cfg["sizes"]
    if model in ("hn", "hn-general"):
        hp = models1d.HNParams(p["t_l"], p["t_r"], p.get("t_d", 0.0),
                               p.get("eps1", 0.0), p.get("epsN", 0.0))
        return models1d.hn_matrix(hp, sizes["N"], delta)
    if model in ("ssh", "ssh-odd"):
        sp = models1d.SSHParams(p["tl1"], p["tr1"], p["tl2"], p["tr2"],
                                p.get("v1", 0.0), p.get("v2", 0.0))
        return models1d.ssh_matrix(sp, sizes["N"], delta)
    if model == "unidirectional":
        return models1d.unidirectional_matrix(p["t_l"], p["u_l"], _scalar(delta), sizes["N"])
    if model == "mixed-longrange":
        return models1d.mixed_longrange_matrix(p["t_r"], p["u_l"], _scalar(delta), sizes["N"])
    if model == "general-chain":
        return _general_chain_matrix(cfg, delta)
    if model in ("stacked-hn", "stacked-ssh", "triangular"):
        return models2d.build_stacked_matrix(_stacked_spec(cfg, delta))
    if model == "separable-square":
        pa = models1d.HNParams(p["a_t_l"], p["a_t_r"], p.get("a_t_d", 0.0))
        pb = models1d.HNParams(p["b_t_l"], p["b_t_r"], p.get("b_t_d", 0.0))
        A = models1d.hn_matrix(pa, sizes["N1"], delta)
        K = models1d.hn_matrix(pb, sizes["N2"], cfg["delta2"])
        return models2d.separable_square_matrix(A, K)
    return None  # kagome is oracle-only already


def bloch_sampler_for(cfg) -> topology.BlochSampler:
    model, p = cfg["model"], cfg["params"]
    if model in ("hn", "hn-general"):
        t_l, t_r, t_d = p["t_l"], p["t_r"], p.get("t_d", 0.0)
        return topology.BlochSampler(lambda k: t_d + t_l * np.exp(1j * k) + t_r * np.exp(-1j * k))
    if model in ("ssh", "ssh-odd"):
        tl1, tr1, tl2, tr2 = p["tl1"], p["tr1"], p["tl2"], p["tr2"]
        v1, v2 = p.get("v1", 0.0), p.get("v2", 0.0)

        def block(k):
            return np.array(
                [[v1, tl1 + tr2 * np.exp(-1j * k)], [tr1 + tl2 * np.exp(1j * k), v2]]
            )

        return topology.BlochSampler(block, dim=2)
    if model == "unidirectional":
        return topology.BlochSampler(
            lambda k: p["t_l"] * np.exp(1j * k) + p["u_l"] * np.exp(2j * k)
        )
    if model == "mixed-longrange":
        return topology.BlochSampler(
            lambda k: p["u_l"] * np.exp(2j * k) + p["t_r"] * np.exp(-1j * k)
        )
    if model == "general-chain":
        terms = [(off, p[name]) for name, off in
                 (("t_m2", -2), ("t_m1", -1), ("t_0", 0), ("t_p1", 1), ("t_p2", 2)) if name in p]
        return topology.BlochSampler(lambda k: sum(t * np.exp(1j * o * k) for o, t in terms))
    raise ConfigError(f"no Bloch sampler for model {cfg['model']!r}")


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines += sorted(",".join(str(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_sidecar(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, default=_json_default, sort_keys=True, indent=1) + "\n",
                    encoding="ascii")


def _delta_label(delta) -> str:
    if isinstance(delta, tuple):
        return f"{_fmt(delta[0].real)}|{_fmt(delta[1].real)}"
    return _fmt(delta)


def _spectrum_rows(cfg, deltas, threads: int) -> list:
    def one(d):
        spec, js = spectrum_for(cfg, d)
        lab = _delta_label(d)
        return [
            (lab, j, _fmt(z.real), _fmt(z.imag), spec.provenance)
            for j, z in zip(js, spec.eigenvalues)
        ]

    if threads > 1 and len(deltas) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            chunks = list(ex.map(one, deltas))
    else:
        chunks = [one(d) for d in deltas]
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def validate(cfg: dict, tolerance: float = 1e-7) -> dict:
    """Reduced-size analytic-vs-oracle comparison for the configured model."""
    model = cfg["model"]
    small = dict(cfg)
    if "N" in cfg["sizes"]:
        n = min(cfg["sizes"]["N"], 12)
        if model in ("ssh", "stacked-ssh"):
            n -= n % 2
        if model == "ssh-odd":
            n = n - 1 if n % 2 == 0 else n
        small["sizes"] = {"N": max(n, 4 if model != "ssh-odd" else 5)}
    else:
        small["sizes"] = {"N1": min(cfg["sizes"]["N1"], 8), "N2": min(cfg["sizes"]["N2"], 8)}
        if model == "stacked-ssh":
            small["sizes"]["N1"] -= small["sizes"]["N1"] % 2
    if model == "kagome":
        return {"status": "oracle-only", "max_mismatch": 0.0}
    deltas = _delta_values(small)
    mid = deltas[len(deltas) // 2]
    if model == "triangular" and small["mode"] == "open":
        return {"status": "oracle-only", "max_mismatch": 0.0}
    if model == "general-chain":
        from .alphasolver import verify_generic
        from .core import ChainStencil

        H = _general_chain_matrix(small, mid)
        spec = dense_spectrum(H)
        p = small["params"]
        hops = {off: p[name] for name, off in
                (("t_m2", -2), ("t_m1", -1), ("t_p1", 1), ("t_p2", 2)) if name in p and p[name] != 0}
        st = ChainStencil(small["sizes"]["N"], hops, (p.get("t_0", 0.0),), _scalar(mid))
        worst = max(verify_generic(st, z) for z in spec.eigenvalues)
        status = "pass" if worst < 1e-6 else "fail"
        return {"status": status, "max_mismatch": worst, "metric": "boundary residual"}
    analytic, _ = spectrum_for(small, mid)
    H = _oracle_matrix(small, mid)
    oracle = dense_spectrum(H)
    mismatch = spectral_mismatch(analytic, oracle)
    status = "pass" if mismatch < tolerance else "fail"
    report = {"status": status, "max_mismatch": mismatch, "delta": _delta_label(mid),
              "sizes": small["sizes"]}
    if model == "mixed-longrange":
        from .alphasolver import polynomialize

        p = small["params"]
        poly = polynomialize("mixed-longrange", {"t_r": p["t_r"], "u_l": p["u_l"]},
                             small["sizes"]["N"], _scalar(mid))
        report["triple_grouping"] = {
            "degree": poly.degree,
            "removed_factor": poly.removed_factors[0],
            "status": "ok",
        }
    return report


def run(cfg: dict, out_dir, threads: int = 1, tolerance: float = 1e-7) -> int:
    """Execute a config; writes <output>.csv / <output>.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    task = cfg["task"]
    sidecar = {"config": _echo(cfg), "task": task}
    rows, header = [], ["delta", "j", "re", "im", "provenance"]

    needs_validation = task in ("spectrum", "sweep", "envelope", "sensitivity") and cfg["model"] != "kagome"
    if needs_validation:
        report = validate(cfg, tolerance)
        sidecar["validation"] = report
        if report["status"] == "fail":
            sys.stderr.write(
                f"validation failure: analytic/oracle mismatch {report['max_mismatch']:.3g} "
                f"exceeds tolerance {tolerance:.3g}\n"
            )
            write_sidecar(out / f"{cfg['output']}.json", sidecar)
            return 3

    if task in ("spectrum", "sweep"):
        deltas = _delta_values(cfg)
        rows = _spectrum_rows(cfg, deltas, threads)
    elif task == "states":
        rows, extra = _states_task(cfg)
        header = ["delta", "site", "rr", "ll", "lr_re", "lr_im"]
        sidecar.update(extra)
    elif task == "winding":
        sampler = bloch_sampler_for(cfg)
        E = cfg.get("base_energy", 0.0)
        res = topology.winding_number(sampler, E)
        sidecar["winding"] = {"w": res.w, "base_energy": complex(E),
                              "samples": res.samples, "min_abs_det": res.min_abs_det}
    elif task == "gap":
        sampler = bloch_sampler_for(cfg)
        verdict, witness = topology.gap_classify(sampler)
        sidecar["gap"] = {"verdict": verdict}
        if witness is not None:
            sidecar["gap"]["witness"] = {"base_energy": witness.base_energy, "w": witness.w}
    elif task == "envelope":
        spec2d = _stacked_spec(cfg, _delta_values(cfg)[0] if cfg["delta"][0] != "grid" else 0.0)
        env = models2d.envelope_curves(spec2d)
        rows = _spectrum_rows(cfg, _delta_values(cfg), threads)
        env_rows = []
        for name, curve in (("z1", env.z1), ("z2", env.z2), ("z_plus", env.z_plus),
                            ("z_minus", env.z_minus), ("loop", env.loop)):
            if curve is None:
                continue
            env_rows += [(name, _fmt(t), _fmt(z.real), _fmt(z.imag))
                         for t, z in zip(env.t_grid, curve)]
        write_csv(out / f"{cfg['output']}_envelope.csv", ["curve", "t", "re", "im"], env_rows)
        sidecar["envelope"] = {"case": env.case}
    elif task == "sensitivity":
        sidecar["sensitivity"] = _sensitivity_task(cfg)
    elif task == "balance":
        sidecar["balance"] = _balance_task(cfg)
    else:
        raise ConfigError(f"unhandled task {task!r}")

    if task in ("spectrum", "sweep", "states", "envelope"):
        write_csv(out / f"{cfg['output']}.csv", header, rows)
    write_sidecar(out / f"{cfg['output']}.json", sidecar)
    return 0


def _echo(cfg) -> dict:
    echo = dict(cfg)
    echo["delta"] = {"kind": cfg["delta"][0], "value": cfg["delta"][1]}
    return echo


def _states_task(cfg):
    delta = _delta_values(cfg)[0]
    H = _oracle_matrix(cfg, delta)
    if H is None:
        raise ConfigError("states task is not available for this model")
    lam, vr, vl = models2d.representative_state(H)
    prof = expectation_profiles(vr, vl)
    rows = []
    lab = _delta_label(delta)
    for site in range(prof.n_sites):
        lr = prof.lr[site] if prof.lr is not None else 0.0
        rows.append((lab, site + 1, _fmt(prof.rr[site]), _fmt(prof.ll[site]),
                     _fmt(np.real(lr)), _fmt(np.imag(lr))))
    loc = localization_report(prof)
    extra = {
        "state": {"eigenvalue": complex(lam), "normalization": prof.normalization},
        "localization": {
            "center_of_mass": loc.center_of_mass,
            "left_edge_fraction": loc.left_edge_fraction,
            "right_edge_fraction": loc.right_edge_fraction,
            "decay_rate": loc.decay_rate,
            "fit_r2": loc.fit_r2,
        },
    }
    return rows, extra


def _sensitivity_task(cfg) -> dict:
    def spectrum_fn(d):
        spec, _ = spectrum_for(cfg, d)
        return spec

    screen = sensitivity.classify_sensitivity(spectrum_fn)
    out = {"screen": screen.as_dict()}
    if cfg["n_list"]:
        sizes_key = "N" if "N" in cfg["sizes"] else "N1"

        def family(n, d):
            sub = dict(cfg)
            sub["sizes"] = dict(cfg["sizes"])
            sub["sizes"][sizes_key] = n
            spec, _ = spectrum_for(sub, d)
            return spec

        report = sensitivity.sensitivity_exponent(family, cfg["threshold"], cfg["n_list"])
        out["exponent"] = report.as_dict()
    return out


def _balance_task(cfg) -> dict:
    model, p = cfg["model"], cfg["params"]
    if model in ("hn", "hn-general"):
        flag, theta = models1d.hn_balanced(models1d.HNParams(p["t_l"], p["t_r"], p.get("t_d", 0.0)))
        return {"balanced": flag, "theta": theta}
    if model in ("ssh", "ssh-odd"):
        sp = models1d.SSHParams(p["tl1"], p["tr1"], p["tl2"], p["tr2"],
                                p.get("v1", 0.0), p.get("v2", 0.0))
        flag, theta = models1d.ssh_balanced(sp)
        zero, margin = models1d.ssh_zero_mode_predicate(sp)
        return {"balanced": flag, "theta": theta, "zero_mode": zero, "zero_mode_margin": margin}
    if model in ("stacked-hn", "triangular"):
        case = models2d.stacked_hn_balance(_stacked_spec(cfg, 0.0))
        return {"case": case}
    if model == "stacked-ssh":
        case = models2d.stacked_ssh_balance(_stacked_spec(cfg, 0.0))
        return {"case": case}
    raise ConfigError(f"balance task is not defined for model {model!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhchain",
        description="Spectra, winding numbers and boundary-condition "
                    "sensitivity of non-Hermitian chains and stacked lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASKS + ("run", "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--tolerance", type=float, default=1e-7)
    args = parser.parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"cannot read config {args.config}: {exc}\n")
        return 2
    if args.command not in ("run", "validate"):
        raw["task"] = args.command
    try:
        cfg = parse_config(raw)
    except ConfigError as exc:
        sys.stderr.write(f"invalid config: {exc}\n")
        return 2
    if args.command == "validate":
        report = validate(cfg, args.tolerance)
        sys.stdout.write(json.dumps(report, default=_json_default, sort_keys=True) + "\n")
        return 0 if report["status"] in ("pass", "oracle-only") else 3
    try:
        return run(cfg, args.out, args.threads, args.tolerance)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
