"""Configuration-driven command line runner with bit-stable tabular output.

A JSON config selects a model, a task and parameters; results are written as
a CSV table (17 significant digits, lexicographically ordered rows) plus a
JSON sidecar with the config echo and any verdicts.  Re-running a config
reproduces the CSV byte for byte.

Each model is one `Model` row of the `MODELS` table: its required and
optional params, its size keys, its matrix and spectrum line, its closed
form or validation kind, its reduced validation size, and its Bloch
function, balance condition and envelope curves where it has them.
Parsing, validation and every task read the row, so no function below the
table names a model; a task whose entry a model lacks exits 2, and so do
`balance` and `envelope` on an open stack, which has no Bloch reduction.

Exit codes of `nhchain`: 0 success, 2 configuration error, 3 validation
failure (closed form and oracle disagree at the reduced size), 4 numerical
failure (`core.NumericalError`: roots that do not pair or group, or an
eigensolver that did not converge).  A closed form that raises during the
validation of `run` does not stop the run: the sidecar records validation
status "closed-form-failed" with the reason, and the spectra still come from
the eigensolver route.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import models1d, models2d, sensitivity, topology
from .alphasolver import verify_generic
from .core import (
    ChainStencil,
    EigensolverError,
    NumericalError,
    Spectrum,
    build_chain_matrix,
    cmul,
    dense_spectrum,
    expectation_profiles,
    localization_report,
    spectral_mismatch,
)

TASKS = ("spectrum", "states", "winding", "gap", "envelope", "sweep", "sensitivity", "balance")
# the tasks that build the model's matrix or line at its configured sizes
SIZED_TASKS = ("spectrum", "sweep", "states", "envelope", "sensitivity")


class ConfigError(ValueError):
    pass


def _number(kind, value, where: str):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def _size(value, where: str) -> int:
    """A JSON integer, or a float with no fractional part; no bool or string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _field(raw: dict, key: str, kind: type):
    """raw[key], empty when absent; a ConfigError unless it is a `kind`."""
    value = raw.get(key) or kind()
    if not isinstance(value, kind):
        raise ConfigError(f"{key}: expected a JSON {'object' if kind is dict else 'array'}, got {value!r}")
    return value


def _to_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(float, value[0], where), _number(float, value[1], where))
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def parse_config(raw: dict) -> dict:
    """Validate a raw JSON config into a normalized dict."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(raw).__name__}")
    cfg = {}
    model = raw.get("model")
    m = MODELS.get(model) if isinstance(model, str) else None
    if m is None:
        raise ConfigError(f"model: expected one of {tuple(MODELS)}, got {model!r}")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"task: expected one of {TASKS}, got {task!r}")
    cfg["model"] = model
    cfg["task"] = task
    params = {}
    for name, value in _field(raw, "params", dict).items():
        if name not in m.required | m.optional:
            raise ConfigError(f"params.{name}: unknown parameter for model {model!r}")
        params[name] = _to_complex(value, f"params.{name}")
    missing = m.required - set(params)
    if missing:
        raise ConfigError(f"params: missing {sorted(missing)} for model {model!r}")
    cfg["params"] = params
    sizes = _field(raw, "sizes", dict)
    if any(key not in sizes for key in m.sizes):
        raise ConfigError(f"sizes: model {model!r} needs {' and '.join(m.sizes)}")
    cfg["sizes"] = {key: _size(sizes[key], f"sizes.{key}") for key in m.sizes}
    cfg["delta"] = _parse_delta(raw.get("delta", 0.0))
    cfg["mode"] = raw.get("mode", "bc1")
    if cfg["mode"] not in models2d.MODES:
        raise ConfigError(f"mode: expected one of {models2d.MODES}, got {cfg['mode']!r}")
    cfg["delta2"] = _to_complex(raw.get("delta2", 1.0), "delta2")
    if "base_energy" in raw:
        cfg["base_energy"] = _to_complex(raw["base_energy"], "base_energy")
    cfg["threshold"] = _number(float, raw.get("threshold", 0.5), "threshold")
    cfg["n_list"] = [_size(n, "n_list") for n in _field(raw, "n_list", list)]
    if cfg["n_list"] and len(set(cfg["n_list"])) < 4:
        raise ConfigError(f"n_list: expected at least 4 distinct sizes, got {cfg['n_list']}")
    key = m.sizes[0]
    rule, fits = _size_rule(model, key, *m.fit_sizes(params))
    if task in SIZED_TASKS and not fits(cfg["sizes"][key]):
        raise ConfigError(f"sizes.{key}: {rule}, got {cfg['sizes'][key]}")
    if not all(map(fits, cfg["n_list"])):
        raise ConfigError(f"n_list: {rule}, got {cfg['n_list']}")
    for key in m.sizes[1:]:
        rule, fits = _size_rule(model, key, *m.second_size(params))
        if not fits(cfg["sizes"][key]):
            raise ConfigError(f"sizes.{key}: {rule}, got {cfg['sizes'][key]}")
    cfg["output"] = str(raw.get("output", "run"))
    return cfg


def _size_rule(model: str, key: str, smallest: int, step: int) -> tuple[str, Callable]:
    """(the rule in words, size -> whether it holds) for sizes of `key`
    from `smallest` in multiples of `step`."""
    rule = f"model {model!r} needs {key} >= {smallest}"
    rule += f" and a multiple of {step}" if step > 1 else ""
    return rule, lambda n: n >= smallest and n % step == 0


def _parse_delta(value):
    if isinstance(value, dict):
        start, stop, step = (_number(float, value.get(key), f"delta.{key}")
                             for key in ("start", "stop", "step"))
        if step <= 0:
            raise ConfigError(f"delta.step must be positive, got {step}")
        span = (stop - start) / step
        if not all(map(math.isfinite, (start, step, span))):
            raise ConfigError(f"delta: expected a finite grid, got {value!r}")
        n = round(span)
        if n < 0:
            raise ConfigError(f"delta: the grid from {start} to {stop} holds no boundary value")
        return ("grid", [start + k * step for k in range(n + 1)])
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return ("pair", (_number(complex, value[0], "delta"), _number(complex, value[1], "delta")))
    if isinstance(value, (int, float)):
        return ("scalar", float(value))
    raise ConfigError(f"delta: expected scalar, [dl, dr] pair or grid dict, got {value!r}")


def _delta_values(cfg) -> list:
    kind, val = cfg["delta"]
    if kind == "grid":
        return list(val)
    return [val]


# ---------------------------------------------------------------------------
# model table
# ---------------------------------------------------------------------------

def _reduced(sizes: dict) -> dict:
    """Validation sizes: N capped at 12 and at least 4, N1 and N2 capped at 8."""
    return {key: max(min(n, 12), 4) if key == "N" else min(n, 8) for key, n in sizes.items()}


def _reduced_twoband(sizes: dict) -> dict:
    """Keeps the parity of N: even and odd chains have different boundary equations."""
    odd = sizes["N"] % 2
    return {"N": max(min(sizes["N"], 12 - odd), 4 + odd)}


@dataclass(frozen=True)
class Model:
    """One row of the model table: the config a model takes and what each
    task calls.

    The callables take the parsed config `c` and a boundary value `d`, or
    the params `p`.  Their bodies look up `models1d`, `models2d` and
    `dense_spectrum` when called, so a wrapper set on a module attribute
    sees every call.  A task whose entry is None is not defined for the model.
    `line(c)` builds what does not depend on the boundary value once (the
    chain matrix without its corners, the Bloch blocks' operators) and
    returns d -> (Spectrum, j labels).  `fit_sizes(p)` gives the values of
    the first size key, which a sensitivity fit varies over `n_list`, at
    which the matrix can be built: the multiples of `step` from `smallest`.
    `parse_config` holds every `n_list` size to it, and the configured size
    too for the `SIZED_TASKS`.  `second_size(p)` gives the same for the
    second size key of a lattice, which every task holds to.  The chain
    rows read which hoppings are nonzero; the lattice rows assume all are.
    """

    required: frozenset
    optional: frozenset
    matrix: Callable                     # (c, d) -> dense matrix
    line: Callable | None = None         # c -> (d -> (Spectrum, j labels)); None: dense eig of matrix
    closed_form: Callable | None = None  # (c, d) -> Spectrum, or None if oracle-only; None: line
    check: str = "closed form"           # validation kind, or "oracle-only", "boundary residual"
    sizes: tuple = ("N",)
    reduced: Callable = _reduced         # sizes -> sizes of the validation
    fit_sizes: Callable = lambda p: (1, 1)  # p -> (smallest, step) of the sizes[0] a line takes
    second_size: Callable = lambda p: (1, 1)  # p -> (smallest, step) of sizes[1]
    bloch: Callable | None = None        # p -> topology.BlochSampler
    balance: Callable | None = None      # c -> sidecar entry
    envelope: Callable | None = None     # (c, d) -> models2d.EnvelopeCurves


def _plain(spec: Spectrum) -> tuple[Spectrum, list]:
    return spec, [""] * len(spec)


def _plain_line(line: Callable) -> Callable:
    return lambda d: _plain(line(d))


def _per_delta(spectrum: Callable) -> Callable:
    """The line of a model with nothing to build ahead: spectrum(c, d) per d."""
    return lambda c: lambda d: spectrum(c, d)


def _scalar(delta):
    if isinstance(delta, tuple):
        raise ConfigError("this model supports only a scalar delta")
    return delta


def _chain_sizes(offsets: dict) -> Callable:
    """`fit_sizes` of a chain with the hoppings {param: offset}: one site
    more than the range p+q of the nonzero ones, as `ChainStencil` needs."""
    def sizes(p):
        used = [o for name, o in offsets.items() if p.get(name, 0) != 0]
        return 1 + max([0] + [-o for o in used]) + max([0] + used), 1

    return sizes


def _hn(c, *d) -> tuple:
    """(HNParams, N, delta), or (HNParams, N) without d; the param names are
    the HNParams field names."""
    return (models1d.HNParams(**c["params"]), c["sizes"]["N"], *d)


# The Bloch functions take an array of k; `cmul` rounds each product as a
# per-k evaluation would, so winding outputs do not depend on the grid batch.
def _hn_bloch(p):
    t_l, t_r, t_d = p["t_l"], p["t_r"], p.get("t_d", 0.0)
    return topology.BlochSampler(
        lambda k: t_d + cmul(t_l, np.exp(1j * k)) + cmul(t_r, np.exp(-1j * k)))


def _ssh(c, *d) -> tuple:
    """(SSHParams, N, delta), or (SSHParams, N) without d; the param names
    are the SSHParams field names."""
    return (models1d.SSHParams(**c["params"]), c["sizes"]["N"], *d)


def _ssh_bloch(p):
    tl1, tr1, tl2, tr2 = p["tl1"], p["tr1"], p["tl2"], p["tr2"]
    v1, v2 = p.get("v1", 0.0), p.get("v2", 0.0)

    def block(k):
        h = np.empty(np.shape(k) + (2, 2), dtype=complex)
        h[..., 0, 0], h[..., 1, 1] = v1, v2
        h[..., 0, 1] = tl1 + cmul(tr2, np.exp(-1j * k))
        h[..., 1, 0] = tr1 + cmul(tl2, np.exp(1j * k))
        return h

    return topology.BlochSampler(block, dim=2)


def _ssh_balance(c):
    sp = _ssh(c, 0.0)[0]
    return dict(zip(("balanced", "theta", "zero_mode", "zero_mode_margin"),
                    models1d.ssh_balanced(sp) + models1d.ssh_zero_mode_predicate(sp)))


def _long_range(c, d, near: str) -> tuple:
    """(t_l or t_r, u_l, delta, N) of the unidirectional or mixed chain."""
    return c["params"][near], c["params"]["u_l"], _scalar(d), c["sizes"]["N"]


def _mixed_line(c):
    line = models1d.mixed_longrange_line(c["params"]["t_r"], c["params"]["u_l"], c["sizes"]["N"])
    return lambda d: _plain(line(_scalar(d)))


_GENERAL_CHAIN_OFFSETS = {"t_m2": -2, "t_m1": -1, "t_0": 0, "t_p1": 1, "t_p2": 2}


def _general_chain_stencil(c, d) -> ChainStencil:
    p = c["params"]
    hops = {off: p[name] for name, off in _GENERAL_CHAIN_OFFSETS.items() if off and name in p}
    return ChainStencil(c["sizes"]["N"], hops, (p.get("t_0", 0.0),), d)


def _general_chain_bloch(p):
    terms = [(off, p[name]) for name, off in _GENERAL_CHAIN_OFFSETS.items() if name in p]
    return topology.BlochSampler(lambda k: sum(cmul(t, np.exp(1j * o * k)) for o, t in terms))


def _separable(solve, c, d) -> tuple:
    """`solve(p, N, delta)` (hn_matrix, hn_closed_form, ...) on the two chains of the
    separable square lattice."""
    p, sizes = c["params"], c["sizes"]
    a = models1d.HNParams(p["a_t_l"], p["a_t_r"], p.get("a_t_d", 0.0))
    b = models1d.HNParams(p["b_t_l"], p["b_t_r"], p.get("b_t_d", 0.0))
    return solve(a, sizes["N1"], d), solve(b, sizes["N2"], c["delta2"])


def _stack(family: str, c, d) -> models2d.Stacked2DSpec:
    sizes = c["sizes"]
    return models2d.Stacked2DSpec(family, c["params"], sizes["N1"], sizes["N2"], _scalar(d),
                                  c["mode"], c["delta2"])


def _bloch_reduced(task: str, fn: Callable) -> Callable:
    """fn(c, ...) on a BC1/BC2 stack; on an open one, which has no Bloch
    reduction, `task` is a configuration error."""
    def call(c, *args):
        if c["mode"] == "open":
            raise ConfigError(f"{task} is not defined for mode 'open' (no Bloch reduction); "
                              "use mode 'bc1' or 'bc2'")
        return fn(c, *args)

    return call


def _stacked(family: str, keys, balance, envelope=None, **fields) -> Model:
    """A stacked lattice of `family`; `balance` takes its Stacked2DSpec.

    BC1/BC2 spectra come from the Bloch blocks (`stacked_line`), and j
    labels an eigenvalue's block; open stacking has no Bloch reduction, so
    its spectrum is the dense eig of the assembled matrix, its validation is
    oracle-only, and `balance` and `envelope` exit 2."""
    def matrix(c, d):
        return models2d.build_stacked_matrix(_stack(family, c, d))

    def line(c):
        if c["mode"] == "open":
            return lambda d: _plain(dense_spectrum(matrix(c, d)))
        eigenvalues = models2d.stacked_line(_stack(family, c, 0.0))
        # each eigenvalue's block as CSV text, converted once per block, not per row
        js = [j for j in map(str, range(c["sizes"]["N2"])) for _ in range(c["sizes"]["N1"])]
        return lambda d: (eigenvalues(_scalar(d)), js)

    return Model(frozenset(keys), frozenset(), sizes=("N1", "N2"), matrix=matrix, line=line,
                 closed_form=lambda c, d: None if c["mode"] == "open" else spectrum_for(c, d)[0],
                 balance=_bloch_reduced("balance", lambda c: {"case": balance(_stack(family, c, 0.0))}),
                 envelope=envelope and _bloch_reduced("envelope", envelope), **fields)


_HN = Model(
    frozenset({"t_l", "t_r"}), frozenset({"t_d"}),
    matrix=lambda c, d: models1d.hn_matrix(*_hn(c, d)),
    line=lambda c: _plain_line(models1d.hn_line(*_hn(c))),
    closed_form=lambda c, d: models1d.hn_closed_form(*_hn(c, d))[0],
    fit_sizes=_chain_sizes({"t_l": 1, "t_r": -1}),
    bloch=_hn_bloch,
    balance=lambda c: dict(zip(("balanced", "theta"), models1d.hn_balanced(_hn(c, 0.0)[0]))),
)
_SSH = Model(
    frozenset({"tl1", "tr1", "tl2", "tr2"}), frozenset({"v1", "v2"}),
    matrix=lambda c, d: models1d.ssh_matrix(*_ssh(c, d)),
    line=lambda c: _plain_line(models1d.ssh_line(*_ssh(c))),
    closed_form=lambda c, d: models1d.ssh_closed_form(*_ssh(c, d))[0],
    reduced=_reduced_twoband, bloch=_ssh_bloch, balance=_ssh_balance,
)

MODELS: dict[str, Model] = {
    "hn": _HN,
    "hn-general": replace(_HN, optional=frozenset({"t_d", "eps1", "epsN"})),
    "ssh": _SSH,
    "ssh-odd": replace(_SSH, optional=frozenset()),
    "unidirectional": Model(
        frozenset({"t_l", "u_l"}), frozenset(),
        matrix=lambda c, d: models1d.unidirectional_matrix(*_long_range(c, d, "t_l")),
        line=_per_delta(lambda c, d: _plain(
            models1d.unidirectional_spectrum(*_long_range(c, d, "t_l")))),
        fit_sizes=lambda p: (3, 1),
        bloch=lambda p: topology.BlochSampler(
            lambda k: cmul(p["t_l"], np.exp(1j * k)) + cmul(p["u_l"], np.exp(2j * k))),
    ),
    "mixed-longrange": Model(
        frozenset({"t_r", "u_l"}), frozenset(),
        matrix=lambda c, d: models1d.mixed_longrange_matrix(*_long_range(c, d, "t_r")),
        line=_mixed_line,
        closed_form=lambda c, d: models1d.mixed_longrange_closed_form(*_long_range(c, d, "t_r"))[0],
        fit_sizes=_chain_sizes({"u_l": 2, "t_r": -1}),
        bloch=lambda p: topology.BlochSampler(
            lambda k: cmul(p["u_l"], np.exp(2j * k)) + cmul(p["t_r"], np.exp(-1j * k))),
    ),
    "general-chain": Model(
        frozenset(), frozenset(_GENERAL_CHAIN_OFFSETS), check="boundary residual",
        matrix=lambda c, d: build_chain_matrix(_general_chain_stencil(c, d)),
        fit_sizes=_chain_sizes(_GENERAL_CHAIN_OFFSETS),
        bloch=_general_chain_bloch,
    ),
    "stacked-hn": _stacked(
        "hn", models2d.HN_KEYS, lambda s: models2d.stacked_hn_balance(s),
        envelope=lambda c, d: models2d.envelope_curves(_stack("hn", c, d)),
        fit_sizes=lambda p: (3, 1),
    ),
    "stacked-ssh": _stacked(
        "ssh", models2d.SSH_KEYS, lambda s: models2d.stacked_ssh_balance(s),
        reduced=lambda sizes: dict(_reduced(sizes), N1=min(sizes["N1"], 8) // 2 * 2),
        fit_sizes=lambda p: (2, 2),
    ),
    "triangular": _stacked(
        "triangular", ("t_l", "t_r"), lambda s: models2d.stacked_hn_balance(s),
        envelope=lambda c, d: models2d.envelope_curves(_stack("triangular", c, d)),
        fit_sizes=lambda p: (3, 1),
    ),
    "kagome": Model(
        frozenset({"t_l", "t_r"}), frozenset({"inter_scale", "delta2p"}), check="oracle-only",
        matrix=lambda c, d: models2d.kagome_matrix(
            c["params"]["t_l"], c["params"]["t_r"], c["sizes"]["N1"], c["sizes"]["N2"], _scalar(d),
            c["delta2"], c["params"].get("delta2p", c["delta2"]),
            c["params"].get("inter_scale", 1.0).real),
        sizes=("N1", "N2"), fit_sizes=lambda p: (2, 1), second_size=lambda p: (2, 1),
    ),
    "separable-square": Model(
        frozenset({"a_t_l", "a_t_r", "b_t_l", "b_t_r"}), frozenset({"a_t_d", "b_t_d"}),
        matrix=lambda c, d: models2d.separable_square_matrix(*_separable(models1d.hn_matrix, c, d)),
        line=_per_delta(lambda c, d: _plain(models2d.separable_square_spectrum(
            *_separable(lambda p, n, delta: models1d.hn_line(p, n)(delta), c, d)))),
        closed_form=lambda c, d: models2d.separable_square_spectrum(
            *(s[0] for s in _separable(models1d.hn_closed_form, c, d))),
        sizes=("N1", "N2"), fit_sizes=_chain_sizes({"a_t_l": 1, "a_t_r": -1}),
        second_size=_chain_sizes({"b_t_l": 1, "b_t_r": -1}),
    ),
}


def line_for(cfg: dict) -> Callable:
    """delta -> (Spectrum, per-eigenvalue j indices) of the configured model
    at its sizes: the row's `line`, or the dense eig of its matrix."""
    m = MODELS[cfg["model"]]
    if m.line is None:
        return lambda d: _plain(dense_spectrum(m.matrix(cfg, d)))
    return m.line(cfg)


def spectrum_for(cfg: dict, delta, line: Callable | None = None) -> tuple[Spectrum, list]:
    """(Spectrum, per-eigenvalue j indices) for one boundary value.

    `line` is `line_for(cfg)`, passed by a caller that solves many boundary
    values so that it is built once; the result is the same."""
    return (line or line_for(cfg))(delta)


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list, rows: list) -> None:
    """Write the header and the sorted rows; a row is a formatted line or a
    tuple of cells."""
    lines = [",".join(header)]
    lines += sorted(row if isinstance(row, str) else ",".join(str(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
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


# Spectrum rows are formatted in batches of whole boundary values holding at
# least this many eigenvalues: enough to spread numpy's per-call cost over a
# small chain's spectra, few enough that a 30 x 30 stack goes one boundary
# value at a time, which keeps the batch's temporaries out of the peak RSS.
_ROW_BATCH = 512


def _shared_texts(values: np.ndarray) -> tuple[list, list] | None:
    """(signs, texts) with signs[i] + texts[i] == f"{values[i]:.17g}" for
    every float, formatting each distinct |x| once; None where fewer than a
    quarter of the magnitudes repeat, as the sort that finds them then costs
    more than it saves.

    The conjugate parts and repeated values of a spectrum share one text; a
    value with its sign bit set (-0.0 too, NaN not: its text has no sign)
    gets the sign "-"."""
    mags = np.abs(values)
    order = np.argsort(mags)
    ranked = mags[order]
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if 4 * len(starts) > 3 * len(values):
        return None
    distinct = np.array([f"{x:.17g}" for x in ranked[starts].tolist()], dtype=object)
    texts = np.empty(len(values), dtype=object)
    texts[order] = np.repeat(distinct, np.diff(starts, append=len(values)))
    return np.where(np.signbit(values) & ~np.isnan(values), "-", "").tolist(), texts.tolist()


def _batch_rows(batch: list) -> list:
    """The CSV rows of [(delta label, j labels, Spectrum), ...]."""
    lam = np.concatenate([spec.eigenvalues for _, _, spec in batch])
    n = len(lam)
    shared = _shared_texts(np.concatenate([lam.real, lam.imag]))
    rows, k = [], 0
    for lab, js, spec in batch:
        prov, m = spec.provenance, len(spec)
        if shared is None:
            z = spec.eigenvalues
            rows += [f"{lab},{j},{re:.17g},{im:.17g},{prov}"
                     for j, re, im in zip(js, z.real.tolist(), z.imag.tolist())]
        else:
            signs, texts = shared
            rows += [f"{lab},{j},{sr}{tr},{si}{ti},{prov}" for j, sr, tr, si, ti in
                     zip(js, signs[k:k + m], texts[k:k + m], signs[n + k:n + k + m], texts[n + k:n + k + m])]
        k += m
    return rows


def _spectrum_rows(cfg, deltas) -> list:
    """One row (delta, j, re, im, provenance) per eigenvalue of each boundary value."""
    line = line_for(cfg)
    rows, batch, size = [], [], 0
    for d in deltas:
        spec, js = spectrum_for(cfg, d, line)
        batch.append((_delta_label(d), js, spec))
        size += len(spec)
        if size >= _ROW_BATCH:
            rows += _batch_rows(batch)
            batch, size = [], 0
    return rows + (_batch_rows(batch) if batch else [])


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def validate(cfg: dict, tolerance: float = 1e-7) -> dict:
    """Reduced-size analytic-vs-oracle comparison for the configured model.

    The chains are checked through their closed forms, not through the
    eigensolver route their spectra take, at N <= 12; the general chain by
    the boundary residual of its dense eigenvalues."""
    m = MODELS[cfg["model"]]
    if m.check == "oracle-only":
        return {"status": "oracle-only", "max_mismatch": 0.0}
    small = dict(cfg, sizes=m.reduced(cfg["sizes"]))
    deltas = _delta_values(small)
    mid = deltas[len(deltas) // 2]
    if m.check == "boundary residual":
        st = _general_chain_stencil(small, mid)
        spec = dense_spectrum(build_chain_matrix(st))
        worst = max(verify_generic(st, z) for z in spec.eigenvalues)
        status = "pass" if worst < 1e-6 else "fail"
        return {"status": status, "max_mismatch": worst, "metric": "boundary residual"}
    analytic = m.closed_form(small, mid) if m.closed_form else spectrum_for(small, mid)[0]
    if analytic is None:
        return {"status": "oracle-only", "max_mismatch": 0.0}
    oracle = dense_spectrum(m.matrix(small, mid))
    mismatch = spectral_mismatch(analytic, oracle)
    status = "pass" if mismatch < tolerance else "fail"
    report = {"status": status, "max_mismatch": mismatch, "delta": _delta_label(mid),
              "sizes": small["sizes"]}
    if "removed_factor" in analytic.parameters:
        report["triple_grouping"] = {
            "degree": analytic.parameters["degree"],
            "removed_factor": analytic.parameters["removed_factor"],
            "status": "ok",
        }
    return report


def run(cfg: dict, out_dir, tolerance: float = 1e-7) -> int:
    """Execute a config; writes <output>.csv / <output>.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    task, m = cfg["task"], MODELS[cfg["model"]]
    needs = {"winding": m.bloch, "gap": m.bloch, "balance": m.balance, "envelope": m.envelope}
    if task in needs and needs[task] is None:
        raise ConfigError(f"{task} is not defined for model {cfg['model']!r}")
    sidecar = {"config": dict(cfg, delta={"kind": cfg["delta"][0], "value": cfg["delta"][1]}),
               "task": task}
    rows, header = [], ["delta", "j", "re", "im", "provenance"]

    needs_validation = task in ("spectrum", "sweep", "envelope", "sensitivity") and m.check != "oracle-only"
    if needs_validation:
        try:
            report = validate(cfg, tolerance)
        except EigensolverError:
            raise
        except NumericalError as exc:
            # the closed form failed, not the eigensolver route the run takes
            report = {"status": "closed-form-failed", "reason": str(exc)}
        sidecar["validation"] = report
        if report["status"] == "fail":
            sys.stderr.write(
                f"validation failure: analytic/oracle mismatch {report['max_mismatch']:.3g} "
                f"exceeds tolerance {tolerance:.3g}\n"
            )
            write_sidecar(out / f"{cfg['output']}.json", sidecar)
            return 3

    if task in ("spectrum", "sweep"):
        rows = _spectrum_rows(cfg, _delta_values(cfg))
    elif task == "states":
        rows, extra = _states_task(cfg)
        header = ["delta", "site", "rr", "ll", "lr_re", "lr_im"]
        sidecar.update(extra)
    elif task == "winding":
        E = cfg.get("base_energy", 0.0)
        res = topology.winding_number(m.bloch(cfg["params"]), E)
        sidecar["winding"] = {"w": res.w, "base_energy": complex(E),
                              "samples": res.samples, "min_abs_det": res.min_abs_det}
    elif task == "gap":
        verdict, witness = topology.gap_classify(m.bloch(cfg["params"]))
        sidecar["gap"] = {"verdict": verdict}
        if witness is not None:
            sidecar["gap"]["witness"] = {"base_energy": witness.base_energy, "w": witness.w}
    elif task == "envelope":
        env = m.envelope(cfg, _delta_values(cfg)[0] if cfg["delta"][0] != "grid" else 0.0)
        rows = _spectrum_rows(cfg, _delta_values(cfg))
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
        sidecar["balance"] = m.balance(cfg)

    if task in ("spectrum", "sweep", "states", "envelope"):
        write_csv(out / f"{cfg['output']}.csv", header, rows)
    write_sidecar(out / f"{cfg['output']}.json", sidecar)
    return 0


def _states_task(cfg):
    delta = _delta_values(cfg)[0]
    H = MODELS[cfg["model"]].matrix(cfg, delta)
    lam, vr, vl = models2d.representative_state(H)
    prof = expectation_profiles(vr, vl)
    rows = []
    lab = _delta_label(delta)
    for site in range(prof.n_sites):
        lr = prof.lr[site] if prof.lr is not None else 0.0
        rows.append((lab, site + 1, _fmt(prof.rr[site]), _fmt(prof.ll[site]),
                     _fmt(np.real(lr)), _fmt(np.imag(lr))))
    try:
        loc = asdict(localization_report(prof))
    except ValueError as exc:  # e.g. too few sites for the decay fit; the profiles still stand
        loc = {"status": "skipped", "reason": str(exc)}
    extra = {"state": {"eigenvalue": complex(lam), "normalization": prof.normalization},
             "localization": loc}
    return rows, extra


def _sensitivity_task(cfg) -> dict:
    """The fixed-size screen, and the delta*(N) fit over n_list.

    One line per size serves every boundary value of that size, and each
    (size, delta) spectrum is solved once: when n_list holds the configured
    size, its fit reuses the screen's delta = 0 and 1.  Both live for this
    task only."""
    size_key = MODELS[cfg["model"]].sizes[0]
    lines, solved = {}, {}

    def family(n, d):
        if (n, d) not in solved:
            if n not in lines:
                c = dict(cfg, sizes=dict(cfg["sizes"], **{size_key: n}))
                lines[n] = c, line_for(c)
            c, line = lines[n]
            solved[n, d] = spectrum_for(c, d, line)[0]
        return solved[n, d]

    screen = sensitivity.classify_sensitivity(lambda d: family(cfg["sizes"][size_key], d))
    out = {"screen": screen.as_dict()}
    if cfg["n_list"]:
        report = sensitivity.sensitivity_exponent(family, cfg["threshold"], cfg["n_list"])
        out["exponent"] = report.as_dict()
    return out


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
        sp.add_argument("--tolerance", type=float, default=1e-7)
    args = parser.parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"cannot read config {args.config}: {exc}\n")
        return 2
    if args.command not in ("run", "validate") and isinstance(raw, dict):
        raw["task"] = args.command
    try:
        cfg = parse_config(raw)
        own = {Path(args.out, cfg["output"] + s).resolve() for s in (".json", ".csv", "_envelope.csv")}
        if args.command != "validate" and Path(args.config).resolve() in own:
            raise ConfigError(f"output: {cfg['output']!r} in {args.out} would overwrite the config")
    except ConfigError as exc:
        sys.stderr.write(f"invalid config: {exc}\n")
        return 2
    try:
        if args.command == "validate":
            report = validate(cfg, args.tolerance)
            sys.stdout.write(json.dumps(report, default=_json_default, sort_keys=True) + "\n")
            return 0 if report["status"] in ("pass", "oracle-only") else 3
        return run(cfg, args.out, args.tolerance)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
