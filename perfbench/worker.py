"""The workload's own process: import nhchain, parse every job, run the closed loop.

    python3 perfbench/worker.py setup --jobs JOBS.json
    python3 perfbench/worker.py run --jobs JOBS.json --warmup WARMUP.json \
        --out DIR --seconds S --trace 0|1

`setup` prints the time of `import nhchain` plus `cli.parse_config` of every
job of the first round (one job per cell), measured from a fresh interpreter,
with the probe time around it.  `run` calls `nhchain.cli.run` on one job after
the other (one client, closed loop) and writes DIR/timings.json: per-job
latency, outcome and probe time, and peak resident set.  Untraced, it runs
whole rounds until S seconds of job time are spent.  With --trace 1 it runs
TRACE_ROUNDS rounds, each job once with spans recorded and once untraced
(records under "untraced"), and writes the spans to DIR/spans.json.
The BLAS thread count is fixed by the caller through the environment.
"""
from __future__ import annotations

import time


def probe() -> float:
    """Seconds a fixed pure-Python kernel takes now: the host's current speed.

    On a shared VM the host's speed changes within seconds; a probe just
    before and just after a timed section lets its time be scaled to a fixed
    speed.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        z = complex(i, 1.0)
        acc += abs(z * z - 1.0)
    return time.perf_counter() - t0


PROBE_BEFORE = min(probe(), probe())
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# a fixed number of traced rounds, so that per-layer totals do not depend on host speed
TRACE_ROUNDS = 3


def import_nhchain():
    """Import nhchain from this checkout's src/, never from an installed copy."""
    if not (SRC / "nhchain" / "__init__.py").is_file():
        raise SystemExit(f"nhchain sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import nhchain
    from nhchain import cli

    if Path(nhchain.__file__).resolve().parent != SRC / "nhchain":
        raise SystemExit(f"imported nhchain from {nhchain.__file__}, not from {SRC}")
    return cli


def parse_rounds(cli, jobs_path: Path, limit=None) -> list:
    data = json.loads(jobs_path.read_text())
    return [[(job["id"], job["cell"], cli.parse_config(job["config"])) for job in rnd]
            for rnd in data["rounds"][:limit]]


def run_job(cli, cfg, out_dir) -> dict:
    t0 = time.perf_counter()
    try:
        rc = cli.run(cfg, out_dir)
    except Exception as exc:  # the client keeps going; the failure is recorded
        return {"t": time.perf_counter() - t0, "status": "raised",
                "error": f"{type(exc).__name__}: {exc}"[:300]}
    t = time.perf_counter() - t0
    return {"t": t, "status": "ok" if rc == 0 else "exit", "rc": rc}


def closed_loop(cli, rounds, out_dir, seconds) -> list:
    """Whole rounds, one job at a time, until `seconds` of job time is spent.
    Each record carries the mean probe time (min of two probes) just before
    and just after its job."""
    records, spent, r = [], 0.0, 0
    before = min(probe(), probe())
    while spent < seconds:
        for job_id, cell, cfg in rounds[r % len(rounds)]:
            rec = run_job(cli, cfg, out_dir)
            after = min(probe(), probe())
            rec.update(id=job_id, cell=cell, round=r, probe=(before + after) / 2)
            before = after
            records.append(rec)
            spent += rec["t"]
        r += 1
    return records


def paired_rounds(cli, rounds, out_dir, tracer, n_rounds) -> tuple:
    """`n_rounds` rounds in which every job runs traced and untraced back to
    back, the two in alternating order, so that both see the same host speed.
    The tracer is installed on entry and on return.  Returns (traced records,
    untraced records)."""
    traced, untraced, k = [], [], 0
    for r in range(n_rounds):
        for job_id, cell, cfg in rounds[r % len(rounds)]:
            tracer.job = job_id
            for with_trace in ((True, False) if k % 2 == 0 else (False, True)):
                if not with_trace:
                    tracer.restore()
                rec = run_job(cli, cfg, out_dir)
                if not with_trace:
                    tracer.install()
                rec.update(id=job_id, cell=cell, round=r)
                (traced if with_trace else untraced).append(rec)
            k += 1
    return traced, untraced


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    VmHWM belongs to the address space made by exec; ru_maxrss also keeps the
    peak of the parent that forked this process, so it is only the fallback.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--jobs", type=Path, required=True)
    ap.add_argument("--warmup", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.mode == "setup":
        cli = import_nhchain()
        n = sum(len(r) for r in parse_rounds(cli, args.jobs, limit=1))
        setup_s = time.perf_counter() - T0
        after = min(probe(), probe())
        print(json.dumps({"setup_s": setup_s, "probe": (PROBE_BEFORE + after) / 2, "jobs": n}))
        return 0

    cli = import_nhchain()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    # first calls (lazy imports, BLAS start-up) at tiny sizes, outside the timing
    for rnd in parse_rounds(cli, args.warmup):
        for _, _, cfg in rnd:
            run_job(cli, cfg, args.out / "warmup")
    if tracer is not None:
        tracer.spans.clear()
    rounds = parse_rounds(cli, args.jobs)
    jobs_dir = args.out / "jobs"

    result = {}
    if tracer is None:
        result["records"] = closed_loop(cli, rounds, jobs_dir, args.seconds)
    else:
        result["records"], result["untraced"] = paired_rounds(cli, rounds, jobs_dir, tracer,
                                                              TRACE_ROUNDS)
        tracer.restore()
        tracer.dump(args.out / "spans.json")
    result["peak_rss_mb"] = peak_rss_mb()
    (args.out / "timings.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
