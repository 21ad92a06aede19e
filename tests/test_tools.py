import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import nhchain
from nhchain import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    """Every nhchain function the benchmark traces or calls exists:
    `spans.Tracer().install()` wraps each traced function in its defining
    module and `restore()` puts the original back, and every `self.m1.*`,
    `self.m2.*` and `self.core.*` name in check.py resolves."""
    spans = _load("perfbench_spans", PERFBENCH / "spans.py")
    owners = {owner: importlib.import_module(f"nhchain.{owner}") for owner, *_ in spans.TARGETS}
    targets = [(owners[owner], fname) for owner, fname, *_ in spans.TARGETS]
    assert not [f"{m.__name__}.{f}" for m, f in targets if not hasattr(m, f)]
    originals = [getattr(m, f) for m, f in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(getattr(m, f) is not orig for (m, f), orig in zip(targets, originals))
    finally:
        tracer.restore()
    assert all(getattr(m, f) is orig for (m, f), orig in zip(targets, originals))

    modules = {"m1": nhchain.models1d, "m2": nhchain.models2d, "core": nhchain.core}
    used = set(re.findall(r"self\.(m1|m2|core)\.(\w+)", (PERFBENCH / "check.py").read_text()))
    assert used
    assert not sorted(f"{m}.{name}" for m, name in used if not hasattr(modules[m], name))


def test_output_digests_cover_every_model_and_task():
    """Every model and every task runs in the digest tool: in a shipped
    config, a seed-7 benchmark job or one of its `EXTRAS`.  The extras are
    read from the tool's source, which pins BLAS threads when it runs."""
    tree = ast.parse(TOOL.read_text())
    extras = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "EXTRAS" for t in node.targets))
    configs = [json.loads(p.read_text()) for p in (TOOL.parent.parent / "configs").glob("*.json")]
    jobs = _load("perfbench_jobs", PERFBENCH / "jobs.py")
    for workload in jobs.WORKLOADS:
        generated = jobs.generate(workload, 7, rounds=3)
        configs += [job["config"] for rnd in generated["rounds"] for job in rnd]
    configs += list(extras.values())
    assert not set(cli.MODELS) - {c["model"] for c in configs}
    assert not set(cli.TASKS) - {c["task"] for c in configs}
    for raw in extras.values():
        cli.parse_config(raw)


def test_output_digests_compare(tmp_path):
    """--compare names the files that differ or exist on one side only, and
    gives the largest change per numeric CSV column and per JSON value."""
    a, b = tmp_path / "a", tmp_path / "b"
    for side, rr, lam in ((a, ("0.25", "0.75"), 1.5), (b, ("0.25", "0.7500000000000001"), 1.5)):
        (side / "job").mkdir(parents=True)
        (side / "job" / "st.csv").write_text(f"site,rr,tag\n1,{rr[0]},x\n2,{rr[1]},x\n")
        (side / "job" / "st.json").write_text(f'{{"state": {{"eigenvalue": [{lam}, 0.0]}}}}\n')
    (a / "job" / "st.json").write_text('{"state": {"eigenvalue": [1.0, 0.0]}}\n')
    (a / "same.csv").write_text("x\n1\n")
    (b / "same.csv").write_text("x\n1\n")
    (b / "extra.json").write_text("{}\n")
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"only in {b}: extra.json",
        "differs: job/st.csv",
        "  1 of 2 rows differ",
        "  site: max abs 0, max rel 0",
        "  rr: max abs 1.11e-16, max rel 1.48e-16",
        "  tag: text, 0 cells differ",
        "differs: job/st.json",
        "  .state.eigenvalue[0]: abs 0.5, rel 0.333",
        "1 files identical, 3 not",
    ]


def test_output_digests_compare_matches_spectra(tmp_path):
    """A one-ulp change that reorders the rows of a spectrum CSV shows as a
    large change of a column in file order, and as the one-ulp change it is
    in the eigenvalue multisets per (delta, j)."""
    rows = {"a": ["0.5,0,1,-0.5", "0.5,0,1,0.5", "0.5,1,-2,0"],
            "b": ["0.5,0,0.99999999999999989,0.5", "0.5,0,1,-0.5", "0.5,1,-2,0"]}
    for side, body in rows.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "sp.csv").write_text(
            "delta,j,re,im,provenance\n" + "".join(f"{r},bloch-oracle\n" for r in body))
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(tmp_path / "a"), str(tmp_path / "b")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "differs: sp.csv",
        "  2 of 3 rows differ",
        "  delta: max abs 0, max rel 0",
        "  j: max abs 0, max rel 0",
        "  re: max abs 1.11e-16, max rel 1.11e-16",
        "  im: max abs 1, max rel 2",
        "  provenance: text, 0 cells differ",
        # 2^-53 over 1 + |1 + 0.5i|
        "  spectra per (delta, j): max matched change 5.24e-17 of 1 + max|lambda|",
        "0 files identical, 1 not",
    ]


def test_closed_form_grid_compare():
    """`--compare` counts a point that newly raises, one returned more than
    1e-6 off dense and one worse by more than 1e-13, and nothing else."""
    grid = _load("closed_form_grid", TOOL.parent / "closed_form_grid.py")
    a = {"p1": 1e-14, "p2": 2e-14, "p3": 3e-14, "p4": "raised NumericalError", "p5": 1e-7}
    b = {"p1": "raised NumericalError", "p2": 2e-5, "p3": 3e-14 + 2e-13, "p4": 1e-15, "p5": 1e-7 + 5e-14}
    lines, bad = grid.compare(a, b)
    assert bad == 3
    assert lines[-1] == "newly raised 1, off dense 1, worse 1, newly returned 1 (of 5 points)"
    assert grid.compare(a, a) == (["newly raised 0, off dense 0, worse 0, newly returned 0 (of 5 points)"], 0)
    assert len(list(grid.points())) == 267


def test_route_times_routes_match_dense():
    """`tools/route_times.py` at one small point, N 60: its unbalanced hn
    chain, where the grade block is accepted and the boundary equation
    certified, and its balanced one, solved as Hermitian (the boundary
    equation declines it).  Every route that answers matches the dense
    spectrum to 1e-12, and a timing is positive."""
    rt = _load("route_times", TOOL.parent / "route_times.py")
    rows = {label: (build, delta, hn) for label, build, delta, hn in rt.chains()}
    for label, answering in (("hn (1, 1.5)", {"whole", "graded", "boundary", "line"}),
                             ("hn (1, e^0.7i)", {"whole", "graded", "hermitian", "line"})):
        build, delta, hn = rows[label]
        calls = rt.routes(build, 60, delta, hn)
        assert set(calls) == answering | {"boundary"}
        dense = nhchain.dense_spectrum(nhchain.hn_matrix(hn, 60, delta))
        for name, call in calls.items():
            lam, verdict = call()
            if name not in answering:
                assert (lam, verdict) == (None, "declined"), name
                continue
            assert verdict in ("", "accepted", "certified", "boundary-equation", "sublattice-oracle"), (name, verdict)
            assert nhchain.spectral_mismatch(lam, dense) <= 1e-12, name
    assert rt.best_us(calls["whole"], 2) > 0


def test_code_lines_counts_tokens_outside_comments_and_docstrings():
    """`tools/code_lines.py` counts a line that holds a token, however
    short, and skips blank, comment and docstring lines; a string that is
    not a docstring counts on every line it spans."""
    cl = _load("code_lines", TOOL.parent / "code_lines.py")
    source = '''"""Module docstring,
over two lines."""
import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that is no docstring"""
        return (text,
                os.sep)
'''
    # import, class, def, the string's two lines, return and its continuation
    assert cl.code_lines(source) == 7
    assert cl.code_lines("") == 0
    assert cl.code_lines('"""only a docstring"""\n') == 0
