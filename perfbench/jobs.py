"""Seeded job generation for the nhchain benchmark workloads.

A workload is a list of rounds; a round holds one job per cell of the
workload (a cell is a fixed model, parameter family and size), in a seeded
order.  Only boundary values, base energies and parameter jitter come from
the seed, so every seed has the same job mix and the same known defects.
Boundary values of a cell follow a seeded Weyl sequence across rounds, which
spreads them evenly over [0, 1) however many rounds a run completes.

Pure Python on purpose: the configs must be byte-identical for a seed on
any machine, and nhchain receives nothing but these JSON configs.
"""
from __future__ import annotations

import cmath
import json
import math
import random

WORKLOADS = ("stacked_bloch", "chain_scaling", "oracle_lattice", "sensitivity_topology")

ROUNDS = 64  # a run cycles through them if it gets this far
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# shipped parameter sets (configs/), copied so the benchmark stays fixed
STACKED_HN = {
    "stacked_chain_case1": dict(t_d=1, t_l=2, t_r=2, u_d=2, v_dl=4, v_dr=3, u_u=-3, v_ul=3, v_ur=4),
    "stacked_chain_case2": dict(t_d=1, t_l=2, t_r=2, u_d=2, v_dl=4, v_dr=4, u_u=-3, v_ul=3, v_ur=3),
    "stacked_chain_case3": dict(t_d=1, t_l=2, t_r=1, u_d=2, v_dl=1, v_dr=0, u_u=-3, v_ul=0, v_ur=2),
    "stacked_chain_unbalanced": dict(t_d=1, t_r=2, t_l=3, u_u=4, v_ur=5, v_ul=6, u_d=7, v_dr=8, v_dl=9),
}
_SSH_KEYS = ("td1", "td2", "tl1", "tl2", "tr1", "tr2", "ud1", "ud2", "vdl1", "vdl2",
             "vdr1", "vdr2", "uu1", "uu2", "vul1", "vul2", "vur1", "vur2")
STACKED_SSH = {name: dict(zip(_SSH_KEYS, vals)) for name, vals in {
    "stacked_twoband_case1": (1, 4, 1, 2, 1, 2, 3, 6, 3, 4, 3, 4, 2, 5, 5, 6, 5, 6),
    "stacked_twoband_case2": (1, 4, 1, 2, 1, 2, 3, 6, 5, 6, 3, 4, 2, 5, 3, 4, 5, 6),
    "stacked_twoband_case3": (1, 4, 2, 1, 1, 2, 3, 6, 4, 3, 3, 4, 2, 5, 6, 5, 5, 6),
    "stacked_twoband_case4": (1, 4, 2, 1, 1, 2, 3, 6, 6, 5, 3, 4, 2, 5, 4, 3, 5, 6),
    "stacked_twoband_case7": (1, 4, 1, 8, 1, 6, 3, 6, 0, 0, 2.6666666666666665, 3,
                              2, 5, 2, 3, 0, 0),
    "stacked_twoband_unbalanced": (1, 4, 3, 4, 1, 2, 3, 6, 3, 4, 1, 2, 2, 5, 3, 4, 1, 2),
}.items()}
TWOBAND = {
    "twoband_balanced": dict(tl1=[0.0, -1.0], tr1=0.5, tl2=4.0, tr2=8.0),
    "twoband_unbalanced": dict(tl1=1.0, tr1=2.0, tl2=3.0, tr2=4.0),
}
MIXED = {
    "mixed_longrange_ul1_tr1": dict(u_l=1.0, t_r=1.0),
    "mixed_longrange_ul1_tr2": dict(u_l=1.0, t_r=2.0),
    "mixed_longrange_ul2_tr1": dict(u_l=2.0, t_r=1.0),
}


def _grid(u: float, k: int):
    """k boundary values (i + u) / k: a seeded shift of an even grid on [0, 1)."""
    if k == 1:
        return u
    return {"start": u / k, "stop": (u + k - 1) / k, "step": 1.0 / k}


def _cx(z: complex):
    return [z.real, z.imag]


def _sweep(model, params, sizes, u, k, **extra):
    cfg = {"model": model, "task": "sweep", "params": params, "sizes": sizes,
           "delta": _grid(u, k)}
    cfg.update(extra)
    return cfg


def _stacked_bloch(tiny):
    n_hn, n_ssh, k = (4, 4, 2) if tiny else (30, 20, 2)
    cells = []
    for name, p in STACKED_HN.items():
        cells.append((name, lambda u, rng, p=p: _sweep(
            "stacked-hn", p, {"N1": n_hn, "N2": n_hn}, u, k, mode="bc1")))
    for name, p in STACKED_SSH.items():
        cells.append((name, lambda u, rng, p=p: _sweep(
            "stacked-ssh", p, {"N1": n_ssh, "N2": n_ssh}, u, k, mode="bc1")))
    return cells


def _chain_scaling(tiny):
    sizes, k = ((6, 8, 10), 2) if tiny else ((30, 60, 120), 3)
    cells = []
    for n in sizes:
        for t_r in (1.5, 2.0, 4.0):
            cells.append((f"hn_tr{t_r:g}_N{n}", lambda u, rng, n=n, t_r=t_r: _sweep(
                "hn", {"t_l": 1.0, "t_r": t_r}, {"N": n}, u, k)))
        for name, p in TWOBAND.items():
            cells.append((f"{name}_N{n}", lambda u, rng, n=n, p=p: _sweep(
                "ssh", p, {"N": n}, u, k)))
        for name, p in MIXED.items():
            cells.append((f"{name}_N{n}", lambda u, rng, n=n, p=p: _sweep(
                "mixed-longrange", p, {"N": n}, u, k)))
    return cells


def _oracle_lattice(tiny):
    small, large = ((6, 2), (6, 4)) if tiny else ((30, 10), (30, 30))
    tri = {"t_l": 1.0, "t_r": 5.0}

    def lattice(n1, n2, u, k, task="sweep"):
        cfg = _sweep("triangular", tri, {"N1": n1, "N2": n2}, u, k, mode="open")
        cfg["task"] = task
        return cfg

    return [
        (f"triangular_open_{small[0]}x{small[1]}", lambda u, rng: lattice(*small, u, 2)),
        (f"triangular_open_{large[0]}x{large[1]}", lambda u, rng: lattice(*large, u, 1)),
        (f"triangular_states_{small[0]}x{small[1]}",
         lambda u, rng: lattice(*small, u, 1, task="states")),
    ]


def bloch_points(model, p, n=512):
    """Sampled spectral curve(s) of the Bloch Hamiltonian (hn without its t_d shift)."""
    pts = []
    for i in range(n):
        z = cmath.exp(1j * (-math.pi + 2 * math.pi * i / n))
        if model == "hn":
            pts.append(p["t_l"] * z + p["t_r"] / z)
        elif model == "mixed-longrange":
            pts.append(p["u_l"] * z * z + p["t_r"] / z)
        else:  # ssh: eigenvalues of [[0, tl1 + tr2/z], [tr1 + tl2 z, 0]]
            root = cmath.sqrt((p["tl1"] + p["tr2"] / z) * (p["tr1"] + p["tl2"] * z))
            pts += [root, -root]
    return pts


def _base_energy(model, p, rng):
    """A base energy in the bounding box of the curve, clear of the curve itself."""
    pts = bloch_points(model, p)
    re_lo, re_hi = min(z.real for z in pts), max(z.real for z in pts)
    im_lo, im_hi = min(z.imag for z in pts), max(z.imag for z in pts)
    scale = max(re_hi - re_lo, im_hi - im_lo)
    while True:
        e = complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
        if min(abs(e - z) for z in pts) > 0.05 * scale:
            return e


def _sensitivity_topology(tiny):
    n_list = [4, 5, 6, 7] if tiny else [8, 12, 16, 20]
    stack_list = [3, 4, 5, 6] if tiny else [4, 6, 8, 10]
    n2 = 3 if tiny else 10

    def sens(model, params, sizes, lst):
        return {"model": model, "task": "sensitivity", "params": params, "sizes": sizes,
                "delta": 0.0, "n_list": lst, "threshold": 0.5}

    def hn_unbalanced(u, rng):
        return sens("hn", {"t_l": 1.0, "t_r": 1.5 + u}, {"N": n_list[-1]}, n_list)

    def hn_balanced(u, rng):
        return sens("hn", {"t_l": 1.0, "t_r": _cx(cmath.exp(1j * (0.2 + 1.2 * u)))},
                    {"N": n_list[-1]}, n_list)

    def ssh(u, rng):
        return sens("ssh", {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 3.5 + u},
                    {"N": n_list[-1]}, n_list)

    def stacked(u, rng):
        p = dict(STACKED_HN["stacked_chain_unbalanced"], t_l=2.5 + u)
        return sens("stacked-hn", p, {"N1": stack_list[-1], "N2": n2}, stack_list)

    def draw(model, u, rng, task):
        # gap jobs get little jitter: their cost depends on where the scan first
        # finds a winding witness, and that should not move with the seed
        if task == "gap":
            return {"hn": {"t_l": 1.0, "t_r": 2.0 + 0.1 * u},
                    "ssh": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0 + 0.1 * u, "tr2": 4.0},
                    "mixed-longrange": {"u_l": 2.0 + 0.1 * u, "t_r": 1.0}}[model]
        if model == "hn":
            return {"t_l": 1.0, "t_r": (1.5 + u) * cmath.exp(1j * rng.uniform(-1.0, 1.0))}
        if model == "ssh":
            return {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0 + u, "tr2": 4.0 + rng.uniform(0, 1)}
        return {"u_l": 1.0 + u, "t_r": 1.0 + rng.uniform(0, 1)}

    def topo(model, task):
        def make(u, rng):
            p = draw(model, u, rng, task)
            cfg = {"model": model, "task": task, "sizes": {"N": 20},
                   "params": {k: _cx(complex(v)) for k, v in p.items()}}
            if task == "winding":
                cfg["base_energy"] = _cx(_base_energy(model, p, rng))
            return cfg
        return make

    cells = [("sens_hn_unbalanced", hn_unbalanced), ("sens_hn_balanced", hn_balanced),
             ("sens_ssh", ssh), (f"sens_stacked_hn_{stack_list[-1]}x{n2}", stacked)]
    for model in ("hn", "ssh", "mixed-longrange"):
        for task in ("winding", "gap"):
            cells.append((f"{task}_{model}", topo(model, task)))
    return cells


# Failures of nhchain at the commit that added the benchmark, found by running
# every cell of these workloads at 300 to 6000 boundary values spread over
# [0, 1) and at log-spaced values near 0 and 1: {workload: {cell: kinds}}.
# A kind is "raised", "exit" (non-zero exit code) or "mismatched".  Where the
# root pairing raises at some delta, it returns wrong spectra at others.
KNOWN_DEFECTS = {
    "chain_scaling": {
        "mixed_longrange_ul1_tr2_N30": ("mismatched",),   # near 0.113, 0.492, 0.92
        "hn_tr1.5_N60": ("raised", "mismatched"),
        "hn_tr2_N60": ("raised", "mismatched"),           # delta below about 0.2
        "mixed_longrange_ul1_tr1_N60": ("raised",),
        "mixed_longrange_ul1_tr2_N60": ("raised",),
        "mixed_longrange_ul2_tr1_N60": ("mismatched",),
        "hn_tr1.5_N120": ("raised", "mismatched"),
        "hn_tr2_N120": ("raised", "mismatched"),
        "hn_tr4_N120": ("raised", "mismatched"),
        "twoband_balanced_N120": ("raised", "mismatched"),
        "mixed_longrange_ul1_tr1_N120": ("raised",),
        "mixed_longrange_ul1_tr2_N120": ("raised",),
        "mixed_longrange_ul2_tr1_N120": ("raised",),
    },
}
# On the sweep workloads every closed form may also raise or lose accuracy when
# a boundary value of the job lies within EDGE of the open (0) or periodic (1)
# limit; at 1 - delta below about 1e-3 the stacked spectra mismatch and their
# reduced-size validation exits 3.
EDGE = 2e-3
EDGE_WORKLOADS = ("stacked_bloch", "chain_scaling")


def known_defect(workload: str, cell: str, kind: str, deltas) -> bool:
    """Whether a failed result of a job with these boundary values is a known defect."""
    if kind in KNOWN_DEFECTS.get(workload, {}).get(cell, ()):
        return True
    return workload in EDGE_WORKLOADS and any(min(d, 1.0 - d) < EDGE for d in deltas)


_CELLS = {
    "stacked_bloch": _stacked_bloch,
    "chain_scaling": _chain_scaling,
    "oracle_lattice": _oracle_lattice,
    "sensitivity_topology": _sensitivity_topology,
}


def generate(workload: str, seed: int, tiny: bool = False, rounds: int = ROUNDS) -> dict:
    """Rounds of jobs {"id", "cell", "config"} for one workload and seed."""
    if workload not in _CELLS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    cells = _CELLS[workload](tiny)
    offsets = [rng.random() for _ in cells]
    out = []
    for r in range(rounds):
        order = list(range(len(cells)))
        rng.shuffle(order)
        jobs = []
        for c in order:
            name, make = cells[c]
            u = (offsets[c] + r * GOLDEN) % 1.0
            cfg = make(u, rng)
            job_id = f"r{r:03d}_{name}"
            cfg["output"] = job_id
            jobs.append({"id": job_id, "cell": name, "config": cfg})
        out.append(jobs)
    return {"workload": workload, "seed": seed, "tiny": tiny, "rounds": out}


def dump(jobs: dict) -> bytes:
    return (json.dumps(jobs, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")
