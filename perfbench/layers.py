"""Per-layer metrics computed from the spans of one traced run.

Pool figures come from the spans of forked workers: a worker is busy inside
its outermost spans, and the pool span runs from the first worker span's
start to the last one's end. `trace.unaccounted_s` is the main process's
command wall time that no layer span and not the pool span cover.

A metric group is computed only when every hook it reads is present;
otherwise it is reported `absent` and left out. Per-call ratios read 0 when
the layer was not called on the workload (its call or row count is 0 too).
"""

import glob
import json
import os
from collections import defaultdict

FBS = "apglab.solvers.forward_backward_step"
EVAL_H = "apglab.solvers.evaluate_h"
NEXT_TAU = "apglab.schedules.Schedule.next_tau"
RUN_ALGORITHM = "apglab.cli.run_algorithm"
ORACLE_LOOPS = ("apglab.diagnostics.ista_run", "apglab.diagnostics.mfista_run")
REFERENCE_MIN = "apglab.diagnostics.reference_min"
RESOLVE_REFERENCE = "apglab.cli.resolve_reference"

USER_ALGORITHMS = ("fista", "mfista", "ista")


class Spans:
    """Spans of every process of one traced run, merged."""

    def __init__(self, spans_dir: str):
        with open(os.path.join(spans_dir, "main.json")) as fh:
            self.main = json.load(fh)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.records = []
        for path in sorted(glob.glob(os.path.join(spans_dir, "spans-*.json"))):
            with open(path) as fh:
                data = json.load(fh)
            for key, (calls, total, self_s) in data["totals"].items():
                agg = self.totals[key]
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            self.records.extend(data["records"])
        self.main_pid = self.main["pid"]

    def total(self, name: str, label: str = "") -> tuple:
        calls, total, self_s = self.totals.get(f"{name}|{label}", (0, 0.0, 0.0))
        return calls, total, self_s

    def select(self, name: str, label: str = None) -> list:
        return [r for r in self.records
                if r["key"].split("|")[0] == name and (label is None or r["key"].split("|")[1] == label)]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _call_group(spans: Spans, name: str) -> dict:
    calls, _, self_s = spans.total(name)
    return {
        f"{name}.calls": (calls, "count"),
        f"{name}.self_s": (self_s, "s"),
        f"{name}.us_per_call": (_ratio(self_s, calls, 1e6), "us"),
    }


def _loop_group(spans: Spans, label: str) -> dict:
    _, _, self_s = spans.total("solvers.loop", label)
    iters = sum(r.get("iters", 0) for r in spans.select("solvers.loop", label))
    prefix = f"solvers.loop.{label}"
    return {
        f"{prefix}.iters": (iters, "count"),
        f"{prefix}.self_s": (self_s, "s"),
        f"{prefix}.us_per_iter": (_ratio(self_s, iters, 1e6), "us"),
    }


def _pool_span(spans: Spans) -> float:
    """Seconds from the first worker span's start to the last one's end."""
    worker = [r for r in spans.records if r["pid"] != spans.main_pid]
    return max(r["end"] for r in worker) - min(r["start"] for r in worker) if worker else 0.0


def _pool_group(spans: Spans) -> dict:
    busy = defaultdict(float)
    oracle = 0
    for r in spans.records:
        if r["pid"] == spans.main_pid:
            continue
        if r["parent"] == "":
            busy[r["pid"]] += r["end"] - r["start"]
        if r["key"].startswith("diagnostics.reference_min|"):
            oracle += 1
    workers = len(busy)
    return {
        "cli.pool.workers": (workers, "count"),
        "cli.pool.oracle_solves": (oracle, "count"),
        "cli.pool.worker_busy_max_s": (max(busy.values(), default=0.0), "s"),
        "cli.pool.worker_busy_min_s": (min(busy.values(), default=0.0), "s"),
        "cli.pool.idle_s": (workers * _pool_span(spans) - sum(busy.values()), "s"),
    }


def layer_metrics(spans: Spans) -> tuple:
    """({metric: (value, unit)}, [(group, hook) pairs reported absent])."""
    present = spans.main["present"]
    out, absent = {}, []

    def group(title, hooks, compute):
        missing = [h for h in hooks if not present.get(h, False)]
        if missing:
            absent.extend((title, h) for h in missing)
        else:
            out.update(compute())

    for name, hook in (("problem.forward_backward_step", FBS), ("problem.evaluate_h", EVAL_H),
                       ("schedules.next_tau", NEXT_TAU)):
        group(name, [hook], lambda name=name: _call_group(spans, name))
    for label in USER_ALGORITHMS:
        group(f"solvers.loop.{label}", [RUN_ALGORITHM], lambda label=label: _loop_group(spans, label))
    group("solvers.loop.oracle", list(ORACLE_LOOPS), lambda: _loop_group(spans, "oracle"))

    def reference_min():
        calls, total, _ = spans.total("diagnostics.reference_min")
        iters = sum(r.get("iters", 0) for r in spans.select("solvers.loop", "oracle"))
        return {
            "diagnostics.reference_min.calls": (calls, "count"),
            "diagnostics.reference_min.s_per_solve": (_ratio(total, calls), "s"),
            "diagnostics.reference_min.iters": (iters, "count"),
        }

    group("diagnostics.reference_min", [REFERENCE_MIN, *ORACLE_LOOPS], reference_min)

    def hit_ratio():
        needed = sum(r.get("oracle", 0) for r in spans.select("diagnostics.resolve_reference"))
        solved = spans.total("diagnostics.reference_min")[0]
        return {"diagnostics.resolve_reference.hit_ratio": (_ratio(needed - solved, needed), "ratio")}

    group("diagnostics.resolve_reference", [RESOLVE_REFERENCE, REFERENCE_MIN], hit_ratio)

    for name, attr in (("diagnostics.build_report", "build_report"),
                       ("diagnostics.report_to_json", "report_to_json"),
                       ("catalog.build_problem", "build_problem")):
        def per_call(name=name):
            calls, total, _ = spans.total(name)
            res = {f"{name}.ms_per_call": (_ratio(total, calls, 1e3), "ms")}
            if name == "catalog.build_problem":
                res[f"{name}.calls"] = (calls, "count")
            return res

        group(name, [f"apglab.cli.{attr}"], per_call)

    def csv_group(name, with_bytes):
        def compute():
            _, total, _ = spans.total(name)
            recs = spans.select(name)
            rows = sum(r["rows"] for r in recs)
            res = {f"{name}.us_per_row": (_ratio(total, rows, 1e6), "us"), f"{name}.rows": (rows, "count")}
            if with_bytes:
                res[f"{name}.bytes"] = (sum(r["bytes"] for r in recs), "bytes")
            return res
        return compute

    group("solvers.write_trace_csv", ["apglab.cli.write_trace_csv"], csv_group("solvers.write_trace_csv", True))
    group("solvers.read_trace_csv", ["apglab.cli.read_trace_csv"], csv_group("solvers.read_trace_csv", False))

    for name, attr, metric in (("plotting.render_line_chart", "render_line_chart", "plotting.render_line_chart.ms"),
                               ("config.parse_config", "parse_config", "config.parse_config.ms")):
        group(name, [f"apglab.cli.{attr}"], lambda name=name, metric=metric: {metric: (spans.total(name)[1] * 1e3, "ms")})

    out.update(_pool_group(spans))

    main = [r for r in spans.records if r["pid"] == spans.main_pid]
    main_top = sum(r["end"] - r["start"] for r in main if r["parent"] == "")
    # cli.execute_run only groups one run's layers; its own time is glue.
    main_top -= sum(r["self"] for r in main if r["key"].startswith("cli.execute_run|"))
    out["trace.unaccounted_s"] = (sum(spans.main["walls"]) - main_top - _pool_span(spans), "s")
    return out, absent
