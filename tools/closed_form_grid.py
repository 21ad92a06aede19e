"""Run the chain closed forms on a fixed grid and print each point's mismatch against dense eigvals.

    python3 tools/closed_form_grid.py                  # one line per point
    python3 tools/closed_form_grid.py --keep grid_a    # also write grid_a/grid.json
    python3 tools/closed_form_grid.py --compare grid_a grid_b

The grid: hn (t_l, t_r) = (1, t_r), t_r in {1.5, 2, 4}, at N in {12, 30,
50, 60, 80, 100, 120}; the two-band sets (tl1, tr1, tl2, tr2) = (1, 2, 3,
4), (-i, 0.5, 4, 8), (2, 1, 1, 3), (1, 2, 3, 3.5) at N in {12, 13, 30,
31, 50, 51, 60, 61, 80, 81, 100, 101}; delta in {1e-3, 0.3, 0.9}
throughout (the 207 points of the closed-form record in ROADMAP.md); and
mixed long-range chains with real and complex (t_r, u_l) at N in {9, 10,
11, 12}, where 9 and 12 are rooted in y^3 and 10 and 11 in y.  Each point
calls `hn_closed_form`, `ssh_closed_form` or `mixed_longrange_closed_form`
and prints `raised` (with the exception type) or `spectral_mismatch`
against `np.linalg.eigvals` of the chain matrix (the distance under
matching over 1 + max|lambda|).  BLAS is pinned to one thread and nhchain
is imported from this checkout's `src/`.

`--compare A B` runs nothing: it reads the two `grid.json` files and
prints every point that raises in B but not in A, that B returns more than
1e-6 off dense, or whose mismatch in B exceeds A's by more than 1e-13,
then a count of each.  It exits 1 if any such point exists.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from nhchain import models1d  # noqa: E402
from nhchain.core import spectral_mismatch  # noqa: E402

DELTAS = (1e-3, 0.3, 0.9)
HN_TR = (1.5, 2.0, 4.0)
HN_N = (12, 30, 50, 60, 80, 100, 120)
TWOBAND = ((1.0, 2.0, 3.0, 4.0), (-1j, 0.5, 4.0, 8.0), (2.0, 1.0, 1.0, 3.0), (1.0, 2.0, 3.0, 3.5))
TWOBAND_N = (12, 13, 30, 31, 50, 51, 60, 61, 80, 81, 100, 101)
MIXED = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (1.0 + 0.5j, 2.0 - 0.3j), (0.7 - 1.2j, 1.1 + 0.4j))
MIXED_N = (9, 10, 11, 12)
WORSE = 1e-13  # allowed rise of a point's mismatch in --compare
OFF = 1e-6  # a returned spectrum this far off dense is wrong


def points():
    """(name, closed-form call, chain matrix) of every grid point."""
    for t_r in HN_TR:
        p = models1d.HNParams(1.0, t_r)
        for N in HN_N:
            for d in DELTAS:
                yield (f"hn(1,{t_r:g}) N={N} delta={d:g}", lambda p=p, N=N, d=d: models1d.hn_closed_form(p, N, d),
                       lambda p=p, N=N, d=d: models1d.hn_matrix(p, N, d))
    for hops in TWOBAND:
        p = models1d.SSHParams(*hops)
        label = ",".join(f"{h:g}" for h in hops)
        for N in TWOBAND_N:
            for d in DELTAS:
                yield (f"ssh({label}) N={N} delta={d:g}", lambda p=p, N=N, d=d: models1d.ssh_closed_form(p, N, d),
                       lambda p=p, N=N, d=d: models1d.ssh_matrix(p, N, d))
    for t_r, u_l in MIXED:
        for N in MIXED_N:
            for d in DELTAS:
                yield (f"mixed(t_r={t_r:g},u_l={u_l:g}) N={N} delta={d:g}",
                       lambda t_r=t_r, u_l=u_l, N=N, d=d: models1d.mixed_longrange_closed_form(t_r, u_l, d, N),
                       lambda t_r=t_r, u_l=u_l, N=N, d=d: models1d.mixed_longrange_matrix(t_r, u_l, d, N))


def run_grid() -> dict:
    """{point name: mismatch, or "raised <type>"}, printing one line per point."""
    out = {}
    for name, closed_form, matrix in points():
        try:
            spec = closed_form()[0]
        except Exception as exc:  # the record is what raised, not why
            out[name] = f"raised {type(exc).__name__}"
        else:
            out[name] = spectral_mismatch(spec, np.linalg.eigvals(matrix()))
        value = out[name]
        print(f"{name}  {value if isinstance(value, str) else format(value, '.3e')}", flush=True)
    return out


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """Lines for each point of b that newly raises, is off dense by more
    than OFF, is worse than in a by more than WORSE (each point counted
    once, in that order) or newly returns, then the counts; and the number
    of points of the first three kinds."""
    lines, counts = [], {"newly raised": 0, "off dense": 0, "worse": 0, "newly returned": 0}
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name}: only in {'A' if name in a else 'B'}")
            continue
        x, y = a[name], b[name]
        if isinstance(y, str):
            if not isinstance(x, str):
                counts["newly raised"] += 1
                lines.append(f"{name}: {x:.3e} -> {y}")
            continue
        if y > OFF:
            counts["off dense"] += 1
            lines.append(f"{name}: {x if isinstance(x, str) else format(x, '.3e')} -> {y:.3e} off dense")
        elif isinstance(x, str):
            counts["newly returned"] += 1
            lines.append(f"{name}: {x} -> {y:.3e}")
        elif y > x + WORSE:
            counts["worse"] += 1
            lines.append(f"{name}: {x:.3e} -> {y:.3e}")
    summary = ", ".join(f"{k} {v}" for k, v in counts.items()) + f" (of {len(b)} points)"
    return lines + [summary], counts["newly raised"] + counts["off dense"] + counts["worse"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--keep", type=Path, metavar="DIR", help="write the results to DIR/grid.json")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                    help="compare two --keep directories; runs nothing")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads((d / "grid.json").read_text()) for d in args.compare)
        lines, bad = compare(a, b)
        print("\n".join(lines))
        return 1 if bad else 0
    results = run_grid()
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        (args.keep / "grid.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
