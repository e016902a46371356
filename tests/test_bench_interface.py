"""What the benchmark in perfbench/ relies on, checked without changing it.

perfbench/tracer.py wraps apglab functions by module and attribute name,
and reports a name it cannot resolve as `absent`, dropping its metrics
without an error. perfbench/run.py reads the CLI's pass lines, each
report's `checks.<name>.status` and each CSV row's leading `n`. A refactor
that renames or reshapes any of these leaves the benchmark running but
blind or failing, so these tests run its setup probe and
perfbench/traced.py on a small config.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import apglab.schedules

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    import layers
    import run as bench_run
    import tracer
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

# one lasso shared by all three algorithms; ista records every 10th row, so
# its step-tail check (which needs every row) does not apply at this length
PROBLEM = {"name": "lasso", "dim": 5, "seed": 3}
RUNS = [
    {"name": "ista", "problem": PROBLEM, "algorithm": "ista", "max_iters": 300, "record_every": 10,
     "oracle_budget": 3000},
    {"name": "fista", "problem": PROBLEM, "algorithm": "fista", "max_iters": 300, "oracle_budget": 3000},
    {"name": "mfista", "problem": PROBLEM, "algorithm": "mfista", "max_iters": 300, "oracle_budget": 3000},
]

# per-layer metrics that perfbench/run.py adds itself, not layers.layer_metrics
ADDED_BY_RUN = {"solvers.runs_per_problem", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}


def _run_script(script: str, *args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(PERFBENCH / script), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_every_hooked_name_resolves():
    assert [hook.where for hook in tracer.HOOKS if tracer._resolve(hook) is None] == []
    # setup_probe.py skips this one silently when it is missing
    assert callable(getattr(apglab.schedules, "canonical_schedule_spec", None))


def test_setup_probe_loads_the_suite():
    proc = _run_script("setup_probe.py", "configs/paper_suite.json")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_run_reports_every_layer_and_passes_the_output_checks(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"version": 1, "runs": RUNS}))
    workload = workloads.Workload("interface", str(config), RUNS, jobs=1, plot_quantity="h_gap")
    out = tmp_path / "out"
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    commands = tmp_path / "commands.json"
    commands.write_text(json.dumps(workload.commands(out)))

    proc = _run_script("traced.py", str(spans_dir), str(commands))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spans = layers.Spans(str(spans_dir))
    assert spans.main["codes"] == [0, 0]
    metrics, absent = layers.layer_metrics(spans)
    assert absent == []
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(metrics) == ADDED_BY_RUN
    assert metrics["solvers.loop.oracle.iters"][0] == 2 * 3000
    # plotdata reads back every row that run wrote
    assert metrics["solvers.read_trace_csv.rows"][0] == metrics["solvers.write_trace_csv.rows"][0] > 0

    procs = [bench_run.Proc(code, wall, 0.0, 0.0, proc.stdout)
             for code, wall in zip(spans.main["codes"], spans.main["walls"])]
    rep = bench_run.check_outputs(workload, out, procs)
    assert rep.problems == []
    assert rep.iterations == sum(run["max_iters"] for run in RUNS)
