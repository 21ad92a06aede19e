"""Print one sha256 per output file of the shipped configs and the benchmark jobs.

    python3 tools/output_digests.py                 # configs plus seed 7, 3 rounds
    python3 tools/output_digests.py --seed 11
    python3 tools/output_digests.py --no-configs --workload sensitivity_topology

Every config in `configs/` and the first three rounds of each benchmark
workload's jobs at `--seed` (the rounds a `perfbench/run.py --trace 1` run
executes) go through `nhchain.cli.run` in this process, BLAS pinned to one
thread, each into a fresh temporary directory.  Each output file gives one
line `<sha256>  <source>/<file>`; a job that exits non-zero or raises gives
one more line `exit=<code>` or `raised=<exception type>` in place of the
digest.  Lines are sorted, so two checkouts compare with `diff`.  nhchain is
imported from this checkout's `src/`; the job configs come from
`perfbench/jobs.py`, which is only read.
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

TRACE_ROUNDS = 3  # perfbench/worker.py's TRACE_ROUNDS


def run_one(raw: dict, source: str) -> list[str]:
    """Digest lines of one config run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            rc = cli.run(cli.parse_config(raw), tmp)
            status = None if rc == 0 else f"exit={rc}"
        except Exception as exc:  # recorded as an output: a change may raise where the parent did not
            status = f"raised={type(exc).__name__}"
        lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {source}/{p.name}"
                 for p in sorted(Path(tmp).iterdir())]
    if status:
        lines.append(f"{status}  {source}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", choices=jobs.WORKLOADS + ("all",), default="all")
    ap.add_argument("--no-configs", action="store_true", help="skip the shipped configs")
    args = ap.parse_args(argv)
    lines = []
    if not args.no_configs:
        for path in sorted((ROOT / "configs").glob("*.json")):
            lines += run_one(json.loads(path.read_text()), f"configs/{path.stem}")
    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        # through JSON, as the benchmark worker reads them
        generated = json.loads(jobs.dump(jobs.generate(workload, args.seed, rounds=TRACE_ROUNDS)))
        for rnd in generated["rounds"]:
            for job in rnd:
                lines += run_one(job["config"], f"{workload}/{job['id']}")
    sys.stdout.write("".join(line + "\n" for line in sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
