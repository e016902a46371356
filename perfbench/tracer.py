"""In-memory span tracer that wraps apglab's layer functions by name.

Each hook names a module and an attribute path. Modules bind their
collaborators with `from ... import`, so a hook goes on the name the caller
looks up (for example `apglab.solvers.forward_backward_step`, which the
solver loop calls), not on the defining module. A hook whose module or
attribute is missing is reported `absent` and contributes no metrics.

Spans nest through a stack of open spans; a span's self time is its
duration minus the time its child spans cover. Hot leaf hooks only update
per-name totals; the others also keep one record per call. Forked pool
workers inherit the wrappers: after a fork the child starts empty and
rewrites `spans-<pid>.json` in the spans directory whenever its outermost
span closes, so the parent can merge every process after the run.
"""

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _loop_extra(args, kwargs, result) -> dict:
    n = getattr(result, "n", None)  # the last recorded iteration is the run's length
    return {"iters": int(n[-1]) if n is not None and len(n) else 0}


def _csv_write_extra(args, kwargs, result) -> dict:
    trace, path = args[0], args[1]
    return {"rows": len(trace.n), "bytes": os.path.getsize(path)}


def _csv_read_extra(args, kwargs, result) -> dict:
    return {"rows": len(result["n"])}


def _reference_extra(args, kwargs, result) -> dict:
    return {"oracle": 1 if getattr(result, "source", "") == "oracle" else 0}


def _algorithm_label(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("algorithm", "?")


@dataclass(frozen=True)
class Hook:
    name: str  # layer metric prefix, e.g. "problem.forward_backward_step"
    module: str
    attr: str  # dotted attribute path inside the module
    hot: bool = False  # totals only, no per-call record
    label: Optional[Callable] = None  # (args, kwargs) -> sub-label
    fixed_label: str = ""
    extra: Optional[Callable] = None  # (args, kwargs, result) -> dict of counts

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("problem.forward_backward_step", "apglab.solvers", "forward_backward_step", hot=True),
    Hook("problem.evaluate_h", "apglab.solvers", "evaluate_h", hot=True),
    Hook("schedules.next_tau", "apglab.schedules", "Schedule.next_tau", hot=True),
    Hook("solvers.loop", "apglab.cli", "run_algorithm", label=_algorithm_label, extra=_loop_extra),
    Hook("solvers.loop", "apglab.diagnostics", "ista_run", fixed_label="oracle", extra=_loop_extra),
    Hook("solvers.loop", "apglab.diagnostics", "mfista_run", fixed_label="oracle", extra=_loop_extra),
    Hook("diagnostics.reference_min", "apglab.diagnostics", "reference_min"),
    Hook("diagnostics.resolve_reference", "apglab.cli", "resolve_reference", extra=_reference_extra),
    Hook("diagnostics.build_report", "apglab.cli", "build_report"),
    Hook("diagnostics.report_to_json", "apglab.cli", "report_to_json"),
    Hook("solvers.write_trace_csv", "apglab.cli", "write_trace_csv", extra=_csv_write_extra),
    Hook("solvers.read_trace_csv", "apglab.cli", "read_trace_csv", extra=_csv_read_extra),
    Hook("plotting.render_line_chart", "apglab.cli", "render_line_chart"),
    Hook("catalog.build_problem", "apglab.cli", "build_problem"),
    Hook("config.parse_config", "apglab.cli", "parse_config"),
    Hook("cli.execute_run", "apglab.cli", "_execute_run"),
)


def _resolve(hook: Hook):
    """(owner object, attribute name, current value), or None when absent."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    parts = hook.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    return None if fn is None or not callable(fn) else (owner, parts[-1], fn)


class Tracer:
    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.present: dict = {}  # hook.where -> bool
        self.pid = os.getpid()
        self.worker = False
        # The wrappers close over these three containers, so a fork clears
        # them in place rather than rebinding them.
        self.stack: list = []  # open spans: [key, child seconds]
        self.totals: dict = {}  # "name|label" -> [calls, total_s, self_s]
        self.records: list = []  # closed non-hot spans
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.worker = True
        self.stack.clear()
        self.totals.clear()
        self.records.clear()

    def install(self) -> None:
        for hook in HOOKS:
            found = _resolve(hook)
            self.present[hook.where] = found is not None
            if found is not None:
                owner, attr, fn = found
                setattr(owner, attr, self._wrap(hook, fn))

    def _wrap(self, hook: Hook, fn):
        stack, totals, records = self.stack, self.totals, self.records
        clock = time.perf_counter

        if hook.hot:
            key = f"{hook.name}|"

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                frame = [key, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    tot = totals.get(key)
                    if tot is None:
                        tot = totals[key] = [0, 0.0, 0.0]
                    tot[0] += 1
                    tot[1] += dt
                    tot[2] += dt - frame[1]

            return hot_wrapper

        @functools.wraps(fn)  # pickling by name must find the wrapper
        def wrapper(*args, **kwargs):
            label = hook.fixed_label or (hook.label(args, kwargs) if hook.label else "")
            key = f"{hook.name}|{label}"
            parent = stack[-1][0] if stack else ""
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            dt = end - start
            if stack:
                stack[-1][1] += dt
            tot = totals.setdefault(key, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += dt
            tot[2] += dt - frame[1]
            records.append({
                "key": key, "parent": parent, "start": start, "end": end,
                "self": dt - frame[1], "pid": self.pid,
                **(hook.extra(args, kwargs, result) if hook.extra else {}),
            })
            if not stack and self.worker:
                self.flush()
            return result

        return wrapper

    def flush(self) -> None:
        """Rewrite this process's spans file (atomically)."""
        path = os.path.join(self.spans_dir, f"spans-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"pid": self.pid, "worker": self.worker, "totals": self.totals,
                       "records": self.records}, fh)
        os.replace(tmp, path)
