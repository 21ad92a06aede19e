"""Spans around calls into nhchain's public functions, and per-layer metrics.

Spans are recorded from outside the package: each traced function is
replaced, in every nhchain namespace that binds it, by a wrapper that
appends (name, start, end, parent, job id, attributes) to an in-memory list.
Counts that the per-layer metrics need (polynomial degree, matrix size,
winding samples, provenance, ...) are read from the call's arguments and
result at the same boundary.
"""
from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np

MODULES = ("nhchain", "nhchain.cli", "nhchain.alphasolver", "nhchain.core", "nhchain.models1d",
           "nhchain.models2d", "nhchain.sensitivity", "nhchain.topology")


def _status(args, kwargs, out):
    return {"status": out["status"]}


def _bytes(args, kwargs, out):
    return {"bytes": Path(args[0]).stat().st_size}


def _degree(args, kwargs, out):
    return {"degree": int(args[0].degree)}


def _fallback(args, kwargs, out):
    spec = out[0]
    params = spec.parameters or {}
    used = (spec.provenance != "analytic" or "fallback" in params
            or params.get("sign") == "oracle-fallback")
    return {"fallback": bool(used)}


def _blocks(args, kwargs, out):
    alpha_sets = out[1]
    return {"blocks": len(alpha_sets), "closed": sum(a is not None for a in alpha_sets)}


def _dense(args, kwargs, out):
    vectors = kwargs.get("want_vectors", args[1] if len(args) > 1 else False)
    return {"n": int(np.shape(args[0])[0]), "vectors": bool(vectors)}


def _samples(args, kwargs, out):
    return {"samples": int(out.samples)}


# (defining module, function, span name, attribute reader)
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "validate", "cli.validate", _status),
    ("cli", "spectrum_for", "cli.spectrum_for", None),
    ("cli", "write_csv", "cli.write", _bytes),
    ("cli", "write_sidecar", "cli.write", _bytes),
    ("alphasolver", "polynomialize", "alphasolver.polynomialize", None),
    ("alphasolver", "roots", "alphasolver.roots", _degree),
    ("alphasolver", "alpha_from_roots", "alphasolver.alpha_from_roots", None),
    ("models1d", "hn_spectrum", "models1d.hn_spectrum", _fallback),
    ("models1d", "ssh_spectrum", "models1d.ssh_spectrum", _fallback),
    ("models1d", "mixed_longrange_spectrum", "models1d.mixed_longrange_spectrum", _fallback),
    ("models2d", "stacked_hn_spectrum", "models2d.stacked_spectrum", _blocks),
    ("models2d", "stacked_ssh_spectrum", "models2d.stacked_spectrum", _blocks),
    ("models2d", "build_stacked_matrix", "models2d.build_stacked_matrix", None),
    ("models2d", "representative_state", "models2d.representative_state", None),
    ("core", "dense_spectrum", "core.dense_spectrum", _dense),
    ("core", "spectral_mismatch", "core.spectral_mismatch", None),
    ("topology", "winding_number", "topology.winding_number", _samples),
    ("topology", "gap_classify", "topology.gap_classify", None),
    ("sensitivity", "sensitivity_exponent", "sensitivity.sensitivity_exponent", None),
    ("sensitivity", "classify_sensitivity", "sensitivity.classify_sensitivity", None),
    ("sensitivity", "hausdorff", "sensitivity.hausdorff", None),
)

# index of each field in a span record
NAME, START, END, PARENT, JOB, ATTRS = range(6)


class Tracer:
    """In-memory span recorder; `install` patches nhchain, `restore` undoes it."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name, fn, reader):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.job, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[ATTRS]["raised"] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if reader is not None:
                span[ATTRS].update(reader(args, kwargs, out))
            return out

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for owner, fname, name, reader in TARGETS:
            orig = getattr(importlib.import_module(f"nhchain.{owner}"), fname)
            wrapped = self.wrap(name, orig, reader)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, separators=(",", ":")) + "\n")


def _frac(num, den) -> float:
    """A ratio over zero attempts reads 0."""
    return num / den if den else 0.0


def _tally(spans: list):
    """Self time, call count and durations per span name, and which spans are in a fit."""
    child = [0.0] * len(spans)
    in_fit = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            in_fit[i] = in_fit[p] or spans[p][NAME] == "sensitivity.sensitivity_exponent"
    self_s, calls, durations = {}, {}, {}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + dur - child[i]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        durations.setdefault(s[NAME], []).append(dur)
    return self_s, calls, durations, in_fit


def self_shares(spans: list) -> dict:
    """Each span name's self time as a share of the time of all `cli.run` calls."""
    self_s, _, durations, _ = _tally(spans)
    total = sum(durations.get("cli.run", ())) or 1.0
    return {name: t / total for name, t in sorted(self_s.items(), key=lambda kv: -kv[1])}


def layer_metrics(spans: list, overhead_s: float) -> dict:
    """Per-layer metrics {name: (value, unit)} from a list of span records."""
    self_s, calls, durations, in_fit = _tally(spans)

    def attrs(name):
        return [s[ATTRS] for s in spans if s[NAME] == name]

    def total(name, key):
        return sum(a.get(key, 0) for a in attrs(name))

    def pct(name, q):
        d = durations.get(name)
        return 1e3 * float(np.percentile(d, q)) if d else 0.0

    n_spec1d = sum(calls.get(f"models1d.{f}", 0)
                   for f in ("hn_spectrum", "ssh_spectrum", "mixed_longrange_spectrum"))
    fallbacks = sum(total(f"models1d.{f}", "fallback")
                    for f in ("hn_spectrum", "ssh_spectrum", "mixed_longrange_spectrum"))
    validate = attrs("cli.validate")
    fits = calls.get("sensitivity.sensitivity_exponent", 0)
    fit_spectra = sum(1 for i, s in enumerate(spans) if in_fit[i] and s[NAME] == "cli.spectrum_for")
    alpha_calls = calls.get("alphasolver.alpha_from_roots", 0)

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("cli.parse_config.self_s", self_s.get("cli.parse_config", 0.0), "s")
    put("cli.validate.self_s", self_s.get("cli.validate", 0.0), "s")
    put("cli.validate.pass_frac",
        _frac(sum(a.get("status") not in (None, "fail") for a in validate), len(validate)), "ratio")
    put("cli.spectrum_for.calls", calls.get("cli.spectrum_for", 0), "count")
    put("cli.spectrum_for.ms_p50", pct("cli.spectrum_for", 50), "ms")
    put("cli.spectrum_for.ms_p95", pct("cli.spectrum_for", 95), "ms")
    put("cli.write.self_s", self_s.get("cli.write", 0.0), "s")
    put("cli.write.bytes", total("cli.write", "bytes"), "bytes")
    put("alphasolver.polynomialize.self_s", self_s.get("alphasolver.polynomialize", 0.0), "s")
    put("alphasolver.roots.self_s", self_s.get("alphasolver.roots", 0.0), "s")
    put("alphasolver.roots.calls", calls.get("alphasolver.roots", 0), "count")
    put("alphasolver.roots.degree_sum", total("alphasolver.roots", "degree"), "count")
    put("alphasolver.alpha_from_roots.self_s", self_s.get("alphasolver.alpha_from_roots", 0.0), "s")
    put("alphasolver.alpha_from_roots.calls", alpha_calls, "count")
    put("alphasolver.alpha_from_roots.ok_frac",
        _frac(alpha_calls - total("alphasolver.alpha_from_roots", "raised"), alpha_calls), "ratio")
    for f in ("hn_spectrum", "ssh_spectrum", "mixed_longrange_spectrum"):
        put(f"models1d.{f}.self_s", self_s.get(f"models1d.{f}", 0.0), "s")
    put("models1d.spectra", n_spec1d, "count")
    put("models1d.oracle_fallback_frac", _frac(fallbacks, n_spec1d), "ratio")
    put("models2d.stacked_spectrum.self_s", self_s.get("models2d.stacked_spectrum", 0.0), "s")
    put("models2d.closed_form_block_frac",
        _frac(total("models2d.stacked_spectrum", "closed"),
              total("models2d.stacked_spectrum", "blocks")), "ratio")
    put("models2d.build_stacked_matrix.self_s", self_s.get("models2d.build_stacked_matrix", 0.0), "s")
    put("models2d.representative_state.self_s", self_s.get("models2d.representative_state", 0.0), "s")
    put("core.dense_spectrum.calls", calls.get("core.dense_spectrum", 0), "count")
    put("core.dense_spectrum.self_s", self_s.get("core.dense_spectrum", 0.0), "s")
    put("core.dense_spectrum.vector_calls", total("core.dense_spectrum", "vectors"), "count")
    put("core.dense_spectrum.n3_sum", sum(a.get("n", 0) ** 3 for a in attrs("core.dense_spectrum")),
        "count")
    put("core.spectral_mismatch.self_s", self_s.get("core.spectral_mismatch", 0.0), "s")
    put("topology.winding_number.calls", calls.get("topology.winding_number", 0), "count")
    put("topology.winding_number.self_s", self_s.get("topology.winding_number", 0.0), "s")
    put("topology.winding_number.samples_sum", total("topology.winding_number", "samples"), "count")
    put("topology.gap_classify.self_s", self_s.get("topology.gap_classify", 0.0), "s")
    put("sensitivity.sensitivity_exponent.self_s",
        self_s.get("sensitivity.sensitivity_exponent", 0.0), "s")
    put("sensitivity.classify_sensitivity.self_s",
        self_s.get("sensitivity.classify_sensitivity", 0.0), "s")
    put("sensitivity.hausdorff.calls", calls.get("sensitivity.hausdorff", 0), "count")
    put("sensitivity.spectra_per_fit", _frac(fit_spectra, fits), "count")
    put("trace.overhead_s", overhead_s, "s")
    return m
