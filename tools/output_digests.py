"""Print one sha256 per output file of the shipped configs and the benchmark jobs.

    python3 tools/output_digests.py                 # configs plus seed 7, 3 rounds
    python3 tools/output_digests.py --seed 11
    python3 tools/output_digests.py --no-configs --workload sensitivity_topology
    python3 tools/output_digests.py --keep out_a    # also keep the output files
    python3 tools/output_digests.py --compare out_a out_b

Every config in `configs/`, the small built-in `EXTRAS` (the models, tasks
and boundary kinds that neither the shipped configs nor the benchmark jobs
run) and the first three rounds of each benchmark workload's jobs at
`--seed` (the rounds a `perfbench/run.py --trace 1` run executes) go through
`nhchain.cli.run` in this process, BLAS pinned to one thread, each into a
fresh temporary directory, or into `<keep>/<source>/` with `--keep`;
`--no-configs` skips both kinds of config.  Each output file gives one line `<sha256>  <source>/<file>`;
a job that exits non-zero or raises gives one more line `exit=<code>` or
`raised=<exception type>` in place of the digest.  Lines are sorted, so two
checkouts compare with `diff`.  nhchain is imported from this checkout's
`src/`; the job configs come from `perfbench/jobs.py`, which is only read.

`--compare A B` runs nothing: it reads two `--keep` directories and prints
each file that is in one only or differs; for a CSV that differs, the
largest absolute and relative change of each numeric column (rows are
compared in file order, which is sorted), and for a JSON sidecar, each
value that differs.  Rows compared in file order overstate a change that
reorders them, so a spectrum CSV (columns delta, j, re, im) also gets the
largest change of its eigenvalue multisets: per (delta, j), the distance
under matching (`core.spectral_mismatch`: `match_spectra` over
1 + max|lambda|).
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
from nhchain import cli  # noqa: E402
from nhchain.core import spectral_mismatch  # noqa: E402

TRACE_ROUNDS = 3  # perfbench/worker.py's TRACE_ROUNDS

# Small configs of what `configs/` and the benchmark jobs leave out: odd
# two-band chains with a (delta_l, delta_r) pair, end potentials, the models
# with no shipped config, BC2 stacked sweeps, chains with a vanishing
# hopping, the open odd chain's exact set, an odd chain whose closed-form
# sign factor cannot be read (validation records the refusal), an hn chain
# long enough for its boundary-equation route with a complex hopping and a
# (delta_l, delta_r) pair, and `spectrum`, `envelope` and `balance`; for the
# graded (sublattice-block) eigensolve, an even two-band chain with v1 != v2
# (the v^2 term of its block), a mixed chain whose N is not a multiple of 3,
# and the mixed chain u_l = t_r = 1 near delta = 1, where the guard declines
# the block for its eigenvalues near 0; for the half-size Bloch blocks of
# even-N1 stacks, an odd-N1 stacked-hn sweep (full blocks), a stacked-ssh
# sweep with a complex hopping (all blocks in one complex batch), an
# even-N1 triangular sweep (Hermitian blocks from singular values) and a
# stacked-hn sweep whose block 0 loses its hopping h_r(1) = t_r + v_dr +
# v_ur = 0, so the guard declines that block at delta1 = 0.  A plain
# literal, so a test can read it without running this script.
EXTRAS = {
    "ssh_odd_pair": {"model": "ssh-odd", "task": "sweep", "sizes": {"N": 31}, "delta": [0.3, 0.7],
                     "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0}},
    "ssh_odd_complex_pair": {"model": "ssh", "task": "sweep", "sizes": {"N": 13}, "delta": [0.5, -0.2],
                             "params": {"tl1": [1.0, 0.5], "tr1": 2.0, "tl2": 0.7, "tr2": [1.5, -0.3]}},
    "hn_general_eps": {"model": "hn-general", "task": "sweep", "sizes": {"N": 20},
                       "delta": {"start": 0.2, "stop": 0.8, "step": 0.3},
                       "params": {"t_l": 1.0, "t_r": 1.5, "eps1": 0.3, "epsN": [0.0, -0.2]}},
    "hn_general_eps_spectrum": {"model": "hn-general", "task": "spectrum", "sizes": {"N": 9},
                                "delta": [0.4, 0.9],
                                "params": {"t_l": 0.8, "t_r": 1.7, "t_d": 0.1, "eps1": -0.5, "epsN": 0.25}},
    "general_chain": {"model": "general-chain", "task": "spectrum", "sizes": {"N": 16}, "delta": 0.4,
                      "params": {"t_m2": 0.3, "t_m1": 1.0, "t_0": 0.1, "t_p1": 0.5, "t_p2": [0.2, 0.1]}},
    "unidirectional": {"model": "unidirectional", "task": "sweep", "sizes": {"N": 12},
                       "delta": {"start": 0.0, "stop": 0.9, "step": 0.45},
                       "params": {"t_l": 1.0, "u_l": 0.5}},
    "kagome": {"model": "kagome", "task": "spectrum", "sizes": {"N1": 4, "N2": 3}, "delta": 0.5,
               "params": {"t_l": 1.0, "t_r": 2.0}},
    "separable_square": {"model": "separable-square", "task": "sweep", "sizes": {"N1": 6, "N2": 5},
                         "delta": {"start": 0.25, "stop": 0.75, "step": 0.5}, "delta2": 0.3,
                         "params": {"a_t_l": 1.0, "a_t_r": 2.0, "b_t_l": 1.0, "b_t_r": 0.5}},
    "stacked_hn_case3_envelope": {"model": "stacked-hn", "task": "envelope", "sizes": {"N1": 6, "N2": 6},
                                  "delta": 0.5, "mode": "bc1",
                                  "params": {"t_d": 1, "t_l": 2, "t_r": 1, "u_d": 2, "v_dl": 1, "v_dr": 0,
                                             "u_u": -3, "v_ul": 0, "v_ur": 2}},
    "stacked_hn_unbalanced_balance": {"model": "stacked-hn", "task": "balance", "sizes": {"N1": 6, "N2": 6},
                                      "mode": "bc1",
                                      "params": {"t_d": 1, "t_r": 2, "t_l": 3, "u_u": 4, "v_ur": 5,
                                                 "v_ul": 6, "u_d": 7, "v_dr": 8, "v_dl": 9}},
    "triangular_envelope": {"model": "triangular", "task": "envelope", "sizes": {"N1": 6, "N2": 6},
                            "delta": 0.0, "mode": "bc1", "params": {"t_l": 1.0, "t_r": 5.0}},
    "triangular_complex_envelope": {"model": "triangular", "task": "envelope", "sizes": {"N1": 6, "N2": 6},
                                    "delta": 0.0, "mode": "bc1", "params": {"t_l": 1.0, "t_r": [2.0, 1.0]}},
    "triangular_balance": {"model": "triangular", "task": "balance", "sizes": {"N1": 6, "N2": 6},
                           "mode": "bc2", "delta2": 0.5, "params": {"t_l": 1.0, "t_r": 5.0}},
    "stacked_hn_unbalanced_bc2": {"model": "stacked-hn", "task": "sweep", "sizes": {"N1": 6, "N2": 5},
                                  "delta": {"start": 0.2, "stop": 0.8, "step": 0.3},
                                  "mode": "bc2", "delta2": 0.5,
                                  "params": {"t_d": 1, "t_r": 2, "t_l": 3, "u_u": 4, "v_ur": 5,
                                             "v_ul": 6, "u_d": 7, "v_dr": 8, "v_dl": 9}},
    "stacked_ssh_case1_bc2": {"model": "stacked-ssh", "task": "sweep", "sizes": {"N1": 6, "N2": 4},
                              "delta": {"start": 0.25, "stop": 0.75, "step": 0.5},
                              "mode": "bc2", "delta2": 2.0,
                              "params": {"td1": 1, "td2": 4, "tl1": 1, "tl2": 2, "tr1": 1, "tr2": 2,
                                         "ud1": 3, "ud2": 6, "vdl1": 3, "vdl2": 4, "vdr1": 3,
                                         "vdr2": 4, "uu1": 2, "uu2": 5, "vul1": 5, "vul2": 6,
                                         "vur1": 5, "vur2": 6}},
    "hn_zero_hopping": {"model": "hn", "task": "sweep", "sizes": {"N": 8},
                        "delta": {"start": 0.0, "stop": 1.0, "step": 0.5},
                        "params": {"t_l": 1.0, "t_r": 0.0}},
    "ssh_odd_zero_hopping": {"model": "ssh", "task": "sweep", "sizes": {"N": 7},
                             "delta": {"start": 0.0, "stop": 1.0, "step": 0.5},
                             "params": {"tl1": 1.0, "tr1": 0.0, "tl2": 3.0, "tr2": 4.0}},
    "mixed_zero_hopping": {"model": "mixed-longrange", "task": "sweep", "sizes": {"N": 8},
                           "delta": {"start": 0.0, "stop": 1.0, "step": 0.5},
                           "params": {"t_r": 1.0, "u_l": 0.0}},
    "ssh_odd_open_spectrum": {"model": "ssh-odd", "task": "spectrum", "sizes": {"N": 9}, "delta": 0.0,
                              "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 3.7}},
    "ssh_odd_unstable_signs": {"model": "ssh-odd", "task": "spectrum", "sizes": {"N": 9}, "delta": 1e-9,
                               "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0}},
    "hn_boundary_equation_pair": {"model": "hn", "task": "sweep", "sizes": {"N": 64}, "delta": [0.3, 0.7],
                                  "params": {"t_l": 1.0, "t_r": [2.0, 1.0]}},
    "ssh_onsite_balance": {"model": "ssh", "task": "balance", "sizes": {"N": 8},
                           "params": {"tl1": 1.0, "tr1": 2.0, "tl2": 3.0, "tr2": 4.0, "v1": 0.2}},
    "ssh_onsite_graded_N40": {"model": "ssh", "task": "sweep", "sizes": {"N": 40},
                              "delta": {"start": 0.2, "stop": 0.8, "step": 0.3},
                              "params": {"tl1": 1.0, "tr1": 2.0, "tl2": [3.0, 0.5], "tr2": 4.0,
                                         "v1": 0.7, "v2": [-0.4, 0.2]}},
    "mixed_N62": {"model": "mixed-longrange", "task": "sweep", "sizes": {"N": 62},
                  "delta": {"start": 0.3, "stop": 0.9, "step": 0.3}, "params": {"t_r": 2.0, "u_l": 1.0}},
    "mixed_ul1_tr1_N60_near_periodic": {"model": "mixed-longrange", "task": "spectrum", "sizes": {"N": 60},
                                        "delta": 0.99, "params": {"t_r": 1.0, "u_l": 1.0}},
    "stacked_hn_odd_n1": {"model": "stacked-hn", "task": "sweep", "sizes": {"N1": 7, "N2": 6},
                          "delta": {"start": 0.0, "stop": 1.0, "step": 0.25}, "mode": "bc1",
                          "params": {"t_d": 1, "t_r": 2, "t_l": 3, "u_u": 4, "v_ur": 5,
                                     "v_ul": 6, "u_d": 7, "v_dr": 8, "v_dl": 9}},
    "stacked_ssh_complex_hopping": {"model": "stacked-ssh", "task": "sweep", "sizes": {"N1": 8, "N2": 5},
                                    "delta": {"start": 0.0, "stop": 1.0, "step": 0.25}, "mode": "bc1",
                                    "params": {"td1": 1, "td2": 4, "tl1": [3, 0.5], "tl2": 4, "tr1": 1,
                                               "tr2": 2, "ud1": 3, "ud2": 6, "vdl1": 3, "vdl2": 4,
                                               "vdr1": 1, "vdr2": 2, "uu1": 2, "uu2": 5, "vul1": 3,
                                               "vul2": 4, "vur1": 1, "vur2": 2}},
    "triangular_even_n1": {"model": "triangular", "task": "sweep", "sizes": {"N1": 10, "N2": 7},
                           "delta": {"start": 0.0, "stop": 1.0, "step": 0.25}, "mode": "bc1",
                           "params": {"t_l": 1.0, "t_r": 5.0}},
    "stacked_hn_vanishing_block_hopping": {"model": "stacked-hn", "task": "sweep", "sizes": {"N1": 6, "N2": 5},
                                           "delta": {"start": 0.0, "stop": 1.0, "step": 0.5}, "mode": "bc1",
                                           "params": {"t_d": 1, "t_r": -13, "t_l": 3, "u_u": 4, "v_ur": 5,
                                                      "v_ul": 6, "u_d": 7, "v_dr": 8, "v_dl": 9}},
}


def run_one(raw: dict, source: str, keep: Path | None = None) -> list[str]:
    """Digest lines of one config run in a fresh directory (`keep/source`
    when given, a temporary one otherwise)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) if keep is None else keep / source
        try:
            rc = cli.run(cli.parse_config(raw), out)
            status = None if rc == 0 else f"exit={rc}"
        except Exception as exc:  # recorded as an output: a change may raise where the parent did not
            status = f"raised={type(exc).__name__}"
        files = sorted(out.iterdir()) if out.is_dir() else []
        lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {source}/{p.name}" for p in files]
    if status:
        lines.append(f"{status}  {source}")
    return lines


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(a: str, b: str) -> list[str]:
    """Lines describing how CSV text b differs from a, column by column."""
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return [f"  header or row count differs: {len(rows_a)} -> {len(rows_b)} lines"]
    body = list(zip(rows_a[1:], rows_b[1:]))
    if any(len(ra) != len(rb) for ra, rb in body):
        return ["  cell count differs"]
    changed = sum(ra != rb for ra, rb in body)
    lines = [f"  {changed} of {len(body)} rows differ"]
    for col, name in enumerate(rows_a[0]):
        pairs = [(ra[col], rb[col]) for ra, rb in body]
        nums = [(_float(x), _float(y)) for x, y in pairs]
        if any(x is None or y is None for x, y in nums):
            lines.append(f"  {name}: text, {sum(x != y for x, y in pairs)} cells differ")
            continue
        worst_abs = worst_rel = 0.0
        for x, y in nums:
            if x == y or (x != x and y != y):  # equal, or both NaN
                continue
            d = abs(x - y)
            worst_abs = max(worst_abs, d)
            worst_rel = max(worst_rel, d / max(abs(x), abs(y)))
        lines.append(f"  {name}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")
    if {"delta", "j", "re", "im"} <= set(rows_a[0]):
        lines.append(_matched_change(rows_a, rows_b))
    return lines


def _matched_change(rows_a: list, rows_b: list) -> str:
    """The largest `spectral_mismatch` between the eigenvalues of a and b
    that share a (delta, j) cell pair."""
    cols = [rows_a[0].index(name) for name in ("delta", "j", "re", "im")]

    def spectra(rows):
        out = {}
        for row in rows[1:]:
            delta, j, re, im = (row[c] for c in cols)
            out.setdefault((delta, j), []).append(complex(float(re), float(im)))
        return out

    a, b = spectra(rows_a), spectra(rows_b)
    if a.keys() != b.keys() or any(len(a[key]) != len(b[key]) for key in a):
        return "  spectra per (delta, j): groups differ"
    worst = max(spectral_mismatch(a[key], b[key]) for key in a)
    return f"  spectra per (delta, j): max matched change {worst:.3g} of 1 + max|lambda|"


def _leaves(obj, path=""):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def compare_json(a: str, b: str) -> list[str]:
    """One line per scalar of JSON text b that differs from a."""
    leaves_a, leaves_b = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    lines = []
    for path in sorted(leaves_a.keys() | leaves_b.keys()):
        x, y = leaves_a.get(path), leaves_b.get(path)
        if x == y:
            continue
        if all(isinstance(v, float) for v in (x, y)):
            lines.append(f"  {path}: abs {abs(x - y):.3g}, rel {abs(x - y) / max(abs(x), abs(y)):.3g}")
        else:
            lines.append(f"  {path}: {x!r} -> {y!r}")
    return lines


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """Report lines for every file that is in one directory only or differs."""
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    lines, same, other = [], 0, 0
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            lines.append(f"only in {dir_a if name in names_a else dir_b}: {name}")
        elif (a := (dir_a / name).read_bytes()) == (b := (dir_b / name).read_bytes()):
            same += 1
            continue
        else:
            lines.append(f"differs: {name}")
            compare_text = {".csv": compare_csv, ".json": compare_json}.get(name.suffix)
            if compare_text:
                lines += compare_text(a.decode("ascii"), b.decode("ascii"))
        other += 1
    return lines + [f"{same} files identical, {other} not"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", choices=jobs.WORKLOADS + ("all",), default="all")
    ap.add_argument("--no-configs", action="store_true", help="skip the shipped configs")
    ap.add_argument("--keep", type=Path, metavar="DIR", help="keep the output files under DIR")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                    help="compare two --keep directories; runs nothing")
    args = ap.parse_args(argv)
    if args.compare:
        sys.stdout.write("".join(line + "\n" for line in compare(*args.compare)))
        return 0
    if args.keep and args.keep.exists() and any(args.keep.iterdir()):
        ap.error(f"--keep: {args.keep} is not empty")
    lines = []
    if not args.no_configs:
        for path in sorted((ROOT / "configs").glob("*.json")):
            lines += run_one(json.loads(path.read_text()), f"configs/{path.stem}", args.keep)
        for name, raw in EXTRAS.items():
            lines += run_one(raw, f"extras/{name}", args.keep)
    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        # through JSON, as the benchmark worker reads them
        generated = json.loads(jobs.dump(jobs.generate(workload, args.seed, rounds=TRACE_ROUNDS)))
        for rnd in generated["rounds"]:
            for job in rnd:
                lines += run_one(job["config"], f"{workload}/{job['id']}", args.keep)
    sys.stdout.write("".join(line + "\n" for line in sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
