"""Chains against high-precision reference spectra.

The fixtures under tests/fixtures/ hold 50-digit `mpmath.eig` eigenvalues
written by tests/fixtures/make_hp_reference.py: hn, balanced two-band and
mixed long-range chains at N = 100 and 120, where the closed-form
(polynomial) route raised or lost digits, the N = 30 boundary values of the shipped
two-band and mixed sweeps where it was furthest from the eigensolver, and
hn chains at N = 40 and 60 near the open limit (delta 1e-9 and 1e-12), where
the dense eigensolver is 3.8e-9 and 1.1e-6 off and `hn_line` solves the
boundary equation instead.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from nhchain.core import spectral_mismatch
from nhchain.models1d import HNParams, SSHParams, hn_spectrum, mixed_longrange_spectrum, ssh_spectrum

FIXTURES = sorted((Path(__file__).resolve().parent / "fixtures").glob("*.json"))


def _spectrum(ref: dict):
    p = {k: complex(*v) if isinstance(v, list) else v for k, v in ref["params"].items()}
    N, delta = ref["N"], ref["delta"]
    if ref["model"] == "hn":
        return hn_spectrum(HNParams(p["t_l"], p["t_r"]), N, delta)[0]
    if ref["model"] == "ssh":
        return ssh_spectrum(SSHParams(p["tl1"], p["tr1"], p["tl2"], p["tr2"]), N, delta)[0]
    return mixed_longrange_spectrum(p["t_r"], p["u_l"], delta, N)[0]


def test_fixtures_present():
    models = [json.loads(path.read_text())["model"] for path in FIXTURES]
    assert {m: models.count(m) for m in set(models)} == {"hn": 4, "ssh": 3, "mixed-longrange": 3}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_chain_spectrum_matches_high_precision_reference(path):
    ref = json.loads(path.read_text())
    ref_vals = np.array([complex(float(re), float(im)) for re, im in ref["eigenvalues"]])
    spec = _spectrum(ref)
    assert len(spec) == len(ref_vals) == ref["N"]
    assert spectral_mismatch(spec, ref_vals) < 1e-12
