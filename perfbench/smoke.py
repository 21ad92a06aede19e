"""Fast smoke test of the benchmark itself, at tiny sizes (kept out of the unit suite).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on tiny jobs and checks
that the result line has the shape and metric names BENCHMARK.json declares,
that every tiny result verifies, that a seed gives byte-identical configs,
that a failure outside the known defects makes a run incorrect,
that the block-circulant reference equals a full dense eig, and that the
benchmark refuses to run without the nhchain sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run  # sets the BLAS thread count before numpy is imported

import jobs


def expect(cond, what):
    if not cond:
        raise SystemExit(f"smoke FAILED: {what}")


def check_result(name, result, declared):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    expect(result["correct"] and result["attempted"] >= 1, f"{name}: correct/attempted")
    expect(result["failed"] == 0, f"{name}: {result['failed']} tiny results failed")
    expect(set(result["metrics"]) == declared, f"{name}: metrics {sorted(result['metrics'])}")
    for metric, m in result["metrics"].items():
        expect(math.isfinite(m["value"]), f"{name}: {metric} is not finite")
    json.dumps(result, allow_nan=False)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS), "workload names")

    for w in jobs.WORKLOADS:
        a = jobs.dump(jobs.generate(w, 7))
        expect(a == jobs.dump(jobs.generate(w, 7)), f"{w}: configs differ for one seed")
        expect(a != jobs.dump(jobs.generate(w, 8)), f"{w}: configs equal for two seeds")
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result, info = run.bench(w, 3, 0.2, trace, tiny=True)
            check_result(f"{w} trace={trace}", result, declared)
        print(f"smoke ok: {w}")

    check, checker = run.import_checker()
    raw = jobs.generate("chain_scaling", 1, tiny=True, rounds=1)["rounds"][0][0]
    rec = {"id": raw["id"], "cell": raw["cell"], "status": "raised", "error": "boom"}
    for known_kind, want in ((None, False), ("raised", True), ("mismatched", False)):
        counts, _, correct = run.classify([rec], {raw["id"]: raw["config"]}, check, checker,
                                          run.RUNS, lambda cell, kind, deltas: kind == known_kind)
        expect(correct is want, f"a raised job, known kind {known_kind}: correct={correct}")
        expect(counts["known"] == (counts["raised"] if want else 0),
               f"a raised job, known kind {known_kind}: {counts}")
    expect(jobs.known_defect("chain_scaling", "hn_tr1.5_N60", "raised", [0.5])
           and not jobs.known_defect("chain_scaling", "hn_tr1.5_N30", "raised", [0.5])
           and jobs.known_defect("stacked_bloch", "stacked_chain_case1", "exit", [0.4, 0.9995])
           and not jobs.known_defect("sensitivity_topology", "sens_ssh", "raised", [0.0, 1.0]),
           "known defects")

    import numpy as np

    cfg = {"model": "stacked-hn", "params": jobs.STACKED_HN["stacked_chain_case1"],
           "sizes": {"N1": 5, "N2": 4}, "mode": "bc1"}
    H = checker.matrix(cfg, 0.3)
    blocks = checker.block_circulant_eigvals(H, 5, 4)
    expect(blocks is not None, "stacked matrix not block circulant")
    expect(checker.core.spectral_mismatch(blocks, np.linalg.eigvals(H)) < 1e-12,
           "block-circulant reference differs from the full eig")

    bare = run.RUNS / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "oracle_lattice",
                           "--seed", "1", "--seconds", "1"], cwd=bare, capture_output=True,
                          text=True, timeout=120)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "runs without nhchain sources")
    shutil.rmtree(bare)
    print("smoke ok: all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
