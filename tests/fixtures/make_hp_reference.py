"""Write high-precision reference spectra of long chains as JSON fixtures.

    PYTHONPATH=src python tests/fixtures/make_hp_reference.py [name ...]

Each fixture holds the eigenvalues of one chain matrix computed by
`mpmath.eig` at DPS significant digits (mpmath ships with sympy; nhchain
itself does not depend on it), rounded to 20 digits.  One 120-site
eigensolve takes about two to three minutes, so the fixtures are generated
once and committed; `tests/test_hp_reference.py` reads them.

The matrix is built by nhchain's own `hn_matrix`, `ssh_matrix` or
`mixed_longrange_matrix`, and mpmath takes its double-precision entries
exactly, so the high-precision solve sees the same matrix as the
double-precision one.  Each fixture also records the largest eigenvalue
condition number of the matrix (from the double-precision left and right
eigenvectors): the reference is accurate to about that number times
10^-DPS.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

from nhchain.models1d import HNParams, SSHParams, hn_matrix, mixed_longrange_matrix, ssh_matrix

DPS = 50
HERE = Path(__file__).resolve().parent

TWOBAND_BALANCED = {"tl1": [0.0, -1.0], "tr1": 0.5, "tl2": 4.0, "tr2": 8.0}

# name -> (model, params, N, delta), params as in a run config.  At N = 120
# (and N = 100) the closed-form (polynomial) route raised or lost digits; the N = 30
# cases are the boundary values of the shipped two-band and mixed sweeps
# where that route was furthest from the eigensolver (3.9e-9 to 1.1e-6).
# The hn chains at delta 1e-9 and 1e-12 are near the open limit, where the
# dense eigensolver loses digits to the imaginary gauge (3.8e-9 and 1.1e-6
# off); `hn_line` solves them from the boundary equation.  The unbalanced
# two-band chain at N = 60 takes the graded route: one 30-site block of
# (H - c)^2 instead of the 60-site matrix.
CASES = {
    "hn_tr1.5_N120_d0.3": ("hn", {"t_l": 1.0, "t_r": 1.5}, 120, 0.3),
    "hn_tr4_N100_d0.3": ("hn", {"t_l": 1.0, "t_r": 4.0}, 100, 0.3),
    "hn_tr4_N40_d1e-9": ("hn", {"t_l": 1.0, "t_r": 4.0}, 40, 1e-9),
    "hn_tr4_N60_d1e-12": ("hn", {"t_l": 1.0, "t_r": 4.0}, 60, 1e-12),
    "ssh_balanced_N120_d0.3": ("ssh", TWOBAND_BALANCED, 120, 0.3),
    "ssh_balanced_N30_d0": ("ssh", TWOBAND_BALANCED, 30, 0.0),
    "ssh_unbalanced_N60_d0.037": ("ssh", {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0}, 60, 0.037),
    "mixed_ul1_tr2_N120_d0.3": ("mixed-longrange", {"u_l": 1.0, "t_r": 2.0}, 120, 0.3),
    "mixed_ul1_tr2_N30_d0.92": ("mixed-longrange", {"u_l": 1.0, "t_r": 2.0}, 30, 0.92),
    "mixed_ul1_tr1_N30_d0": ("mixed-longrange", {"u_l": 1.0, "t_r": 1.0}, 30, 0.0),
}


def chain_matrix(model: str, params: dict, N: int, delta: float) -> np.ndarray:
    """The dense matrix of a fixture's chain; complex params are [re, im]."""
    p = {k: complex(*v) if isinstance(v, list) else v for k, v in params.items()}
    if model == "hn":
        return hn_matrix(HNParams(p["t_l"], p["t_r"]), N, delta)
    if model == "ssh":
        return ssh_matrix(SSHParams(p["tl1"], p["tr1"], p["tl2"], p["tr2"]), N, delta)
    return mixed_longrange_matrix(p["t_r"], p["u_l"], delta, N)


def condition_max(H: np.ndarray) -> float:
    """Largest eigenvalue condition number |x| |y| / |y^H x| of H."""
    vals, vr = np.linalg.eig(H)
    vl = np.linalg.inv(vr).conj().T
    overlap = np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
    return float((np.linalg.norm(vr, axis=0) * np.linalg.norm(vl, axis=0) / overlap).max())


def reference(name: str) -> dict:
    model, params, N, delta = CASES[name]
    H = chain_matrix(model, params, N, delta)
    mpmath.mp.dps = DPS
    A = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in H])
    t0 = time.time()
    vals = mpmath.eig(A, left=False, right=False)
    elapsed = time.time() - t0
    pairs = sorted((mpmath.nstr(z.real, 20), mpmath.nstr(z.imag, 20)) for z in vals)
    return {
        "model": model,
        "params": params,
        "N": N,
        "delta": delta,
        "dps": DPS,
        "condition_max": condition_max(H),
        "seconds": round(elapsed, 1),
        "eigenvalues": [list(p) for p in pairs],
    }


def main(names) -> None:
    for name in names or sorted(CASES):
        data = reference(name)
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="ascii")
        print(f"{path.name}: {data['N']} eigenvalues in {data['seconds']} s, "
              f"condition <= {data['condition_max']:.3g}")


if __name__ == "__main__":
    main(sys.argv[1:])
