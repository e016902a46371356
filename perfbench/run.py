"""apglab benchmark: times the real CLI end to end and traces it per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, timed then traced

With `--trace 0` the benchmark repeats the workload's CLI commands, each as a
fresh `python -m apglab.cli` process with PYTHONPATH=src, as many times as
fit in `--seconds` (rounded), and reports per-repetition medians:

    wall_s              wall seconds of one repetition (all its commands)
    cpu_s               user+sys seconds of the process tree, pool workers included
    solver_iters_per_s  user-run iterations (last n of each trace) / wall_s
    peak_rss_mb         largest resident set of any process in the repetition
    setup_s             interpreter start, `import apglab.cli` and config loading
                        (parse_config, build_problem, canonical_schedule_spec),
                        the median of fresh processes spread over the run

With `--trace 1` it runs one untraced repetition, then the same commands
in-process under the layer tracer (perfbench/tracer.py), and reports the
per-layer metrics together with the tracing overhead.

Every repetition is checked: exit codes, each run's verdict in its
report.json, the iteration count in its trace, and the sha256 of every
output, which must match the first repetition. Runs that miss count in
`failed`; the last line of stdout is one JSON object and the exit code is 1
when any check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import Spans, layer_metrics
from workloads import SUITE_CONFIG, WORKLOADS, Workload, build_workload

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_BASE = ROOT / ".perfbench-work"
SETUP_PER_REP = 5  # setup samples taken before each repetition
PASSING = ("pass", "not-applicable")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "solver_iters_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str


@dataclass
class Rep:
    wall: float
    cpu: float
    rss_mb: float
    iterations: int
    digests: dict  # operation -> sha256 of its output files
    failed: set = field(default_factory=set)  # operations that missed a check
    problems: list = field(default_factory=list)


def spawn(argv: list, env: dict, log: Path) -> Proc:
    """Run argv to completion; rusage comes from wait4 and covers reaped descendants."""
    t0 = time.perf_counter()
    with open(log, "w") as out:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                log.read_text())


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def last_iteration(csv_path: Path) -> int:
    with open(csv_path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(csv_path) - 4096))
        last = fh.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return int(last.split(b",", 1)[0])


def check_outputs(workload: Workload, out_dir: Path, procs: list) -> Rep:
    """Verdicts, iteration counts and digests of one repetition's outputs."""
    rep = Rep(wall=sum(p.wall for p in procs), cpu=sum(p.cpu for p in procs),
              rss_mb=max(p.rss_mb for p in procs), iterations=0, digests={})

    def miss(op: str, why: str) -> None:
        rep.failed.add(op)
        rep.problems.append(f"{op}: {why}")

    run_proc = procs[0]
    if run_proc.code != 0:
        rep.problems.append(f"apg run exited {run_proc.code}")
    for run in workload.runs:
        name = run["name"]
        csv, report = out_dir / f"{name}.csv", out_dir / f"{name}.report.json"
        if not (csv.is_file() and report.is_file()):
            miss(name, "missing trace or report")
            continue
        checks = json.loads(report.read_text())["checks"]
        bad = sorted(k for k, v in checks.items() if v["status"] not in PASSING)
        if bad:
            miss(name, f"verdict FAIL {bad}")
        if f"run {name}: pass" not in run_proc.stdout:
            miss(name, "CLI did not print a pass line")
        n = last_iteration(csv)
        if not 1 <= n <= run["max_iters"]:
            miss(name, f"last iteration {n} outside 1..{run['max_iters']}")
        rep.iterations += n
        rep.digests[name] = sha256(csv) + sha256(report)
    if workload.plot_quantity:
        plot_dir = out_dir / "plots"
        expected = [plot_dir / f"{run['name']}.{workload.plot_quantity}.dat" for run in workload.runs]
        expected.append(plot_dir / f"{workload.plot_quantity}.svg")
        if procs[1].code != 0:
            miss("plotdata", f"exited {procs[1].code}")
        elif not all(p.is_file() and p.stat().st_size > 0 for p in expected):
            miss("plotdata", "missing or empty output")
        else:
            rep.digests["plotdata"] = "".join(sha256(p) for p in expected)
    return rep


def operations(workload: Workload) -> int:
    return len(workload.runs) + (1 if workload.plot_quantity else 0)


class Bench:
    def __init__(self, workload: Workload, work: Path, env: dict):
        self.workload = workload
        self.work = work
        self.env = env
        self.count = 0

    def _fresh_dir(self, tag: str) -> Path:
        self.count += 1
        path = self.work / f"{tag}-{self.count}"
        path.mkdir()
        return path

    def setup_time(self) -> float:
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), self.workload.config_path]
        proc = spawn(argv, self.env, self.work / "setup.log")
        if proc.code != 0:
            raise RuntimeError(f"setup probe exited {proc.code}:\n{proc.stdout}")
        return proc.wall

    def repetition(self) -> Rep:
        rep_dir = self._fresh_dir("rep")
        out = rep_dir / "out"
        try:
            procs = [spawn([sys.executable, "-m", "apglab.cli", *argv], self.env, rep_dir / f"cmd{i}.log")
                     for i, argv in enumerate(self.workload.commands(out))]
            return check_outputs(self.workload, out, procs)
        finally:
            shutil.rmtree(rep_dir)

    def traced(self) -> tuple:
        """(process wall, per-layer metrics, absent hooks, Rep) of one traced run."""
        run_dir = self._fresh_dir("traced")
        out = run_dir / "out"
        spans_dir = run_dir / "spans"
        spans_dir.mkdir()
        commands = run_dir / "commands.json"
        commands.write_text(json.dumps(self.workload.commands(out)))
        try:
            proc = spawn([sys.executable, str(BENCH_DIR / "traced.py"), str(spans_dir), str(commands)],
                         self.env, run_dir / "traced.log")
            if proc.code != 0:
                raise RuntimeError(f"traced run exited {proc.code}:\n{proc.stdout}")
            spans = Spans(str(spans_dir))
            cmd_procs = [Proc(code, wall, 0.0, 0.0, proc.stdout)
                         for code, wall in zip(spans.main["codes"], spans.main["walls"])]
            rep = check_outputs(self.workload, out, cmd_procs)
            metrics, absent = layer_metrics(spans)
            return proc.wall, metrics, absent, rep
        finally:
            shutil.rmtree(run_dir)


def environment() -> dict:
    """Host and interpreter facts printed next to the timings."""
    import multiprocessing

    import numpy

    cpuinfo = Path("/proc/cpuinfo").read_text() if Path("/proc/cpuinfo").exists() else ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), "unknown")
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "src_lines": src_lines,
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_digests(reps: list) -> None:
    """Every repetition's outputs must match the first repetition's bytes."""
    for rep in reps[1:]:
        for op, digest in rep.digests.items():
            if reps[0].digests.get(op) != digest:
                rep.failed.add(op)
                rep.problems.append(f"{op}: output bytes differ from the first repetition")


def timed(bench: Bench, seconds: float) -> tuple:
    setup, reps, spent = [], [], []
    # As many repetitions as fit in `seconds` at the median pace, rounded.
    while not reps or len(reps) < round(seconds / statistics.median(spent)):
        t0 = time.perf_counter()
        setup += [bench.setup_time() for _ in range(SETUP_PER_REP)]
        reps.append(bench.repetition())
        spent.append(time.perf_counter() - t0)
    compare_digests(reps)
    samples = {
        "wall_s": [r.wall for r in reps],
        "cpu_s": [r.cpu for r in reps],
        "solver_iters_per_s": [r.iterations / r.wall for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
        "setup_s": setup,
    }
    return samples, reps


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, env: dict) -> dict:
    workload = build_workload(name, seed, ROOT, work)
    bench = Bench(workload, work, env)
    ops = operations(workload)
    bench.setup_time()  # compiles bytecode and warms the file cache; not measured
    problems = []
    if not trace:
        samples, reps = timed(bench, seconds)
        attempted = len(reps) * ops
        failed = sum(len(r.failed) for r in reps)
        print(f"== {name} (seed {seed}): {len(reps)} repetitions; per repetition {len(workload.runs)} runs, "
              f"{reps[0].iterations} user iterations, {workload.problems} distinct problems, "
              f"--jobs {workload.jobs}")
        print(f"{'metric':<22}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
        for metric, values in samples.items():
            q1, med, q3 = quartiles(values)
            print(f"{metric:<22}{E2E_UNITS[metric]:<7}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}")
        print(f"{'failed_frac':<22}{'1':<7}{failed / attempted:>14.6g}{'':>14}{'':>14}{attempted:>4}")
        metrics = {m: {"value": statistics.median(v), "unit": E2E_UNITS[m]} for m, v in samples.items()}
        for r in reps:
            problems.extend(r.problems)
    else:
        untraced = bench.repetition()
        traced_wall, layer, absent, traced_rep = bench.traced()
        compare_digests([untraced, traced_rep])
        # Context for batching: how many runs share each problem spec.
        layer["solvers.runs_per_problem"] = (len(workload.runs) / workload.problems, "count")
        layer["trace.wall_s"] = (traced_wall, "s")
        layer["trace.untraced_wall_s"] = (untraced.wall, "s")
        layer["trace.overhead_s"] = (traced_wall - untraced.wall, "s")
        reps = [untraced, traced_rep]
        attempted = 2 * ops
        failed = len(untraced.failed) + len(traced_rep.failed)
        print(f"== {name} (seed {seed}): per-layer breakdown of one traced run")
        print(f"{'metric':<44}{'unit':<7}{'value':>14}")
        for metric, (value, unit) in layer.items():
            print(f"{metric:<44}{unit:<7}{value:>14.6g}")
        for group, hook in absent:
            print(f"{group:<44}{'absent':<7}{'':>14}  (no hook {hook})")
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in layer.items()}
        for r in reps:
            problems.extend(r.problems)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default with 'all': both)")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/apglab/cli.py", SUITE_CONFIG) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an apglab checkout, missing {missing}", file=sys.stderr)
        return 2

    print(f"environment: {json.dumps(environment())}")
    WORK_BASE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_BASE))
    env = {k: v for k, v in os.environ.items() if k != "APG_SEED"}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    try:
        results = [(f"{name}/" if len(names) > 1 else "", run_workload(name, args.seed, args.seconds,
                                                                        bool(t), work, env))
                   for name in names for t in traces]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass
    summary = {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {prefix + m: v for prefix, r in results for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
