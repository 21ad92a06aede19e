"""nhchain benchmark: verified-spectrum throughput, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  For one workload it

1. writes the seeded job configs (perfbench/jobs.py) as JSON and records
   their sha256;
2. times set-up in fresh processes: `import nhchain` plus `cli.parse_config`
   of every job of the first round (median of SETUP_REPEATS, after one
   untimed process);
3. runs the workload's process (perfbench/worker.py): one client calling
   `nhchain.cli.run` in a closed loop for S seconds of job time, in whole
   rounds; with --trace 1 it runs a fixed number of rounds, each job traced
   and untraced back to back;
4. checks every result against an independent reference (perfbench/check.py);
   a failure that is not one of nhchain's known defects (jobs.known_defect)
   makes the run incorrect;
5. prints an environment block, the failing cells, and as its last line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics (perfbench/spans.py) with --trace 1.
   Results that hit a known defect are left out of "attempted" and "failed",
   so "failed" counts only new failures; they are printed per cell and lower
   verified_frac.

Outputs of the last run of each workload stay in .perfbench_runs/<workload>/.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed before numpy is imported here or in any worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150.0
# set-up and job times are scaled to this probe time (worker.probe, about its
# median on the 2-core VM the bounds were set on), so that host-speed drift cancels
PROBE_REF_S = 2.5e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "verified_per_s": "results/s",
    "job_s_p50": "s",
    "verified_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _worker(args: list, timeout: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(jobs_path: Path) -> list:
    """[(set-up seconds, probe seconds around it)] from fresh processes.

    Set-up parses the first round of jobs, which holds one job of every cell."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = json.loads(_worker(["setup", "--jobs", jobs_path], 60.0).splitlines()[-1])
        if i:  # the first process also writes bytecode caches
            samples.append((out["setup_s"], out["probe"]))
    return samples


def _scaled(rec: dict) -> float:
    """A job's wall time scaled to the reference host speed."""
    return rec["t"] * PROBE_REF_S / rec["probe"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nhchain").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_threads_reported():
    """Thread count OpenBLAS reports, read through ctypes; None if not found."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed, seconds, trace, jobs_sha, csv_sha) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nhchain_commit": _git_commit(), "nhchain_src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "blas_threads_reported": _blas_threads_reported(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "jobs_sha256": jobs_sha, "csv_sha256": csv_sha,
    }


def import_checker():
    sys.path.insert(0, str(SRC))
    import nhchain

    if Path(nhchain.__file__).resolve().parent != SRC / "nhchain":
        raise BenchError(f"imported nhchain from {nhchain.__file__}, not from {SRC}")
    import check

    return check, check.Checker(nhchain)


def classify(records, raw_by_id, check, checker, jobs_dir, known):
    """Count every result as verified, raised, exit (non-zero) or mismatched.

    A failure for which `known(cell, kind, deltas)` is true is a known defect
    and is also counted under "known".  Returns (counts, failures by cell,
    whether every result was checked and every failure is a known defect).
    """
    verdicts, by_cell, correct = {}, {}, True
    counts = {"verified": 0, "raised": 0, "exit": 0, "mismatched": 0, "known": 0}
    for rec in records:
        raw = raw_by_id[rec["id"]]
        n = check.n_results(raw)
        if rec["status"] == "ok":
            if rec["id"] not in verdicts:  # a run that cycles past the last round repeats jobs
                verdicts[rec["id"]] = checker.check(raw, jobs_dir)
            outcome = verdicts[rec["id"]]
            correct = correct and len(outcome) == n
        else:
            outcome = [(False, rec.get("error") or f"exit code {rec.get('rc')}")] * n
        cell = by_cell.setdefault(rec["cell"], {"results": 0, "failed": 0, "why": {}})
        cell["results"] += n
        for ok, why in outcome:
            kind = "verified" if ok else "mismatched" if rec["status"] == "ok" else rec["status"]
            counts[kind] += 1
            if not ok:
                is_known = known(rec["cell"], kind, check.delta_values(raw["delta"]))
                correct = correct and is_known
                counts["known"] += is_known
                cell["failed"] += 1
                tally = cell["why"].setdefault(kind, {"n": 0, "new": 0, "example": why[:160]})
                tally["n"] += 1
                tally["new"] += not is_known
    return counts, {c: v for c, v in sorted(by_cell.items()) if v["failed"]}, correct


def bench(workload: str, seed: int, seconds: float, trace: int,
          tiny: bool = False) -> tuple[dict, dict]:
    """One run of one workload: (result line, information block)."""
    if not (SRC / "nhchain" / "__init__.py").is_file():
        raise BenchError(f"nhchain sources not found under {SRC}; run from the repository root")
    run_dir = RUNS / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    generated = jobs.generate(workload, seed, tiny=tiny)
    jobs_path = run_dir / "jobs.json"
    jobs_path.write_bytes(jobs.dump(generated))
    warmup_path = run_dir / "warmup.json"
    warmup_path.write_bytes(jobs.dump(jobs.generate(workload, seed, tiny=True, rounds=1)))
    raw_by_id = {j["id"]: j["config"] for rnd in generated["rounds"] for j in rnd}

    setup = [] if trace else measure_setup(jobs_path)
    _worker(["run", "--jobs", jobs_path, "--warmup", warmup_path, "--out", run_dir,
             "--seconds", seconds, "--trace", trace], WORKER_TIMEOUT_S)
    timing = json.loads((run_dir / "timings.json").read_text())
    records = timing["records"]

    check, checker = import_checker()
    jobs_dir = run_dir / "jobs"
    known = functools.partial(jobs.known_defect, workload)
    counts, by_cell, correct = classify(records, raw_by_id, check, checker, jobs_dir, known)
    # a result that hits a known defect is reported (FAIL lines, failed_frac,
    # verified_frac) but is not an attempted operation of the result line
    results = sum(v for k, v in counts.items() if k != "known")
    attempted = results - counts["known"]
    if not attempted:
        raise BenchError("every result hit a known defect")
    busy = sum(r["t"] for r in records)

    csv_sha = {job_id: _sha256(jobs_dir / f"{job_id}.csv")
               for job_id in sorted({r["id"] for r in records})
               if (jobs_dir / f"{job_id}.csv").is_file()}
    info = {
        "env": environment(workload, seed, seconds, trace, _sha256(jobs_path), csv_sha),
        "jobs": len(records), "rounds": records[-1]["round"] + 1, "job_time_s": busy,
        "results": dict(counts, total=results, attempted=attempted),
        "failed_frac": (results - counts["verified"]) / results,
        "failing_cells": by_cell,
        "setup_samples_s": setup,
        "tolerances": {"spectral_mismatch": check.TOL_SPECTRUM, "power_sums": check.TOL_POWER,
                       "profiles": check.TOL_PROFILE, "screen_ratios": check.TOL_RATIO},
    }
    if trace:
        import spans

        recorded = json.loads((run_dir / "spans.json").read_text())
        overhead = sum(r["t"] for r in records) - sum(r["t"] for r in timing["untraced"])
        metrics = spans.layer_metrics(recorded, overhead)
        info["self_shares"] = spans.self_shares(recorded)
    else:
        scaled = [_scaled(r) for r in records]
        latencies = [t if r["status"] == "ok" else math.inf for t, r in zip(scaled, records)]
        info["wall"] = {"setup_s": statistics.median(t for t, _ in setup),
                        "verified_per_s": counts["verified"] / busy,
                        "job_s_p50": statistics.median(
                            r["t"] if r["status"] == "ok" else math.inf for r in records),
                        "probe_s_median": statistics.median(r["probe"] for r in records)}
        metrics = {
            "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in setup),
            "verified_per_s": counts["verified"] / sum(scaled),
            "job_s_p50": statistics.median(latencies),
            "verified_frac": counts["verified"] / results,
            "peak_rss_mb": timing["peak_rss_mb"],
        }
        if not math.isfinite(metrics["job_s_p50"]):
            raise BenchError("more than half of the jobs failed; job_s_p50 is infinite")
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - counts["verified"],  # failures that are not known defects
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "report.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    return result, info


def _print_info(info: dict) -> None:
    res = info["results"]
    print(f"# {info['env']['workload']} seed {info['env']['seed']}: {info['jobs']} jobs in "
          f"{info['rounds']} rounds, {info['job_time_s']:.2f} s of job time; results "
          f"{res['total']}: {res['verified']} verified, {res['raised']} raised, "
          f"{res['exit']} non-zero exit, {res['mismatched']} mismatched "
          f"(failed_frac {info['failed_frac']:.4f}); {res['known']} failures are known "
          f"defects, left out of the result line's attempted {res['attempted']}")
    if "wall" in info:
        w = info["wall"]
        print(f"# unscaled wall time: setup_s {w['setup_s']:.6g} s, "
              f"verified_per_s {w['verified_per_s']:.6g}, job_s_p50 "
              f"{w['job_s_p50']:.6g} s; median probe {1e3 * w['probe_s_median']:.4g} ms")
    for cell, v in info["failing_cells"].items():
        for kind, t in v["why"].items():
            print(f"# FAIL {cell}: {t['n']}/{v['results']} results {kind} "
                  f"({t['new']} not known defects), e.g. {t['example']}")
    if "self_shares" in info:
        top = list(info["self_shares"].items())[:6]
        print("# self time / cli.run time: " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    print(json.dumps({"env": info["env"]}, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, info = bench(name, args.seed, args.seconds, args.trace)
            _print_info(info)
            for metric, m in result["metrics"].items():
                print(f"# {name} {metric} = {m['value']:.6g} {m['unit']}")
            results[name] = result
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
