"""Time each eigenvalue route of the chain lines per delta, and name the route each line takes.

    python3 tools/route_times.py                # the full table
    python3 tools/route_times.py --repeat 50    # fewer calls per timing

The chains: the plain nearest-neighbour chain hn (t_l, t_r) = (1, 1.5), the
complex hn (1, 2.5 e^{0.4i}) and the balanced hn (1, e^{0.7i}) (|t_l| =
|t_r|: Hermitian up to a phase), the two-band chain (tl1, tr1, tl2, tr2) =
(1, 2, 3, 4) at delta 0.3 and at delta 1e-6 (near its zero modes, where the
grade block is declined), and the mixed long-range chain (t_r, u_l) = (2,
1) and (1, 1) (eigenvalues near 0: declined), each at N in {8, 12, 14, 20,
30, 40, 60, 120} and delta 0.3 unless named.  Each row gives microseconds
per delta, the minimum over `--repeat` calls with BLAS on one thread, of

* `whole`: `core._eigvals` of the chain matrix as a batch of one, the
  line's solve of the whole matrix;
* `graded`: `models1d._graded_eigenvalues` of it, one grade block of
  (H - c)^m and its roots, with its verdict (accepted or declined); "-"
  where the chain has no grading at this N;
* `hermitian`: the line's solve of a chain that `models1d._hermitian_blocks`
  finds Hermitian up to a shift and a phase (`models1d._bloch_eigvals`:
  singular values of its [even, odd] slice for two sublattices, eigvalsh of
  the whole matrix otherwise); "-" where it is not;
* `boundary`: `models1d._hn_boundary_roots` (hn only), gates included,
  with its outcome (certified or declined);
* `line`: the chain line at that delta, and the route it took (its
  provenance).

A declined point pays for every route it tried: a declined grade block
costs `graded` on top of `whole`.  A chain of at most
`models1d._WHOLE_MAX_N` (12) sites whose matrix is real at delta is solved
whole, graded or not: the rows of hn (1, 1.5) and the two-band chain at N
12 and 14 show why, and the complex hn rows why the gate asks for a real
matrix.  The line decides the Hermitian route once, when it first solves,
so no column holds that check.  The tool reads the routes as the package
runs them and changes no gate.  nhchain is imported from this checkout's
`src/`.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

import numpy as np  # noqa: E402

from nhchain import models1d  # noqa: E402
from nhchain.core import ChainStencil, _eigvals, chain_operator  # noqa: E402

SIZES = (8, 12, 14, 20, 30, 40, 60, 120)


def chains():
    """(label, N -> (line, operator, number of sublattices or None), delta, hn params or None)."""
    ssh = models1d.SSHParams(1.0, 2.0, 3.0, 4.0)
    for label, hn in (("hn (1, 1.5)", models1d.HNParams(1.0, 1.5)),
                      ("hn (1, 2.5e^0.4i)", models1d.HNParams(1.0, 2.5 * np.exp(0.4j))),
                      ("hn (1, e^0.7i)", models1d.HNParams(1.0, np.exp(0.7j)))):
        yield (label, lambda N, hn=hn: (models1d.hn_line(hn, N), chain_operator(models1d.hn_stencil(hn, N, 0.0)),
                                        2 if N % 2 == 0 else None), 0.3, hn)
    for delta in (0.3, 1e-6):
        yield ("two-band (1, 2, 3, 4)", lambda N: (models1d.ssh_line(ssh, N), models1d.ssh_operator(ssh, N),
                                                   2 if N % 2 == 0 else None), delta, None)
    for t_r, u_l in ((2.0, 1.0), (1.0, 1.0)):
        yield (f"mixed ({t_r:g}, {u_l:g})",
               lambda N, t_r=t_r, u_l=u_l: (models1d.mixed_longrange_line(t_r, u_l, N),
                                            chain_operator(ChainStencil(N, {2: u_l, -1: t_r}, (0.0,))),
                                            3 if N % 3 == 0 else None), 0.3, None)


def routes(build, N: int, delta, hn) -> dict:
    """Route name -> zero-argument call returning (eigenvalues or None, verdict) at one point."""
    line, op, m = build(N)
    H = op.at(delta)[None]
    out = {"whole": lambda: (_eigvals(H)[0], "")}
    if m is not None:
        def graded():
            lam, ok = models1d._graded_eigenvalues(H, m)
            return (lam[0], "accepted") if ok[0] else (None, "declined")
        out["graded"] = graded
    one = np.ones(1)
    shift, phase = models1d._hermitian_blocks((op,), one, [0])
    if len(shift):
        out["hermitian"] = lambda: (models1d._bloch_eigvals([H], one, False, [0], shift, phase, m)[0][0], "")
    if hn is not None:
        def boundary():
            lam = models1d._hn_boundary_roots(hn, N, delta)
            return (lam, "certified") if lam is not None else (None, "declined")
        out["boundary"] = boundary
    def on_line():
        spec = line(delta)
        return spec.eigenvalues, spec.provenance
    out["line"] = on_line
    return out


def best_us(call, repeat: int) -> float:
    """Minimum wall time of `call` over `repeat` calls, in microseconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=200, help="calls per timing (default 200)")
    args = parser.parse_args(argv)
    print(f"{'chain':22} {'N':>4} {'delta':>6}  {'route':18} {'whole':>8} {'graded':>18} {'hermitian':>18} "
          f"{'boundary':>19} {'line':>8}   (us per delta)")
    for label, build, delta, hn in chains():
        for N in SIZES:
            calls = routes(build, N, delta, hn)
            cells = {}
            for name, call in calls.items():
                verdict = call()[1]
                cells[name] = (best_us(call, args.repeat), verdict)
            fmt = lambda name, width: (f"{cells[name][0]:8.1f} {cells[name][1]:>9}" if name in cells
                                       else "-").rjust(width)
            print(f"{label:22} {N:4d} {delta:6.0e}  {cells['line'][1]:18} {cells['whole'][0]:8.1f} "
                  f"{fmt('graded', 18)} {fmt('hermitian', 18)} {fmt('boundary', 19)} {cells['line'][0]:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
