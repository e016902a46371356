"""Run-configuration files for the batch harness.

A config is JSON with a versioned schema: {"version": 1, "out_dir": ...,
"runs": [...]}. Each run names a catalog problem, an algorithm, an
optional schedule spec, and run-length/instrumentation knobs. Structural
problems raise ConfigError; parameter-level problems (bad schedule
values, unknown problem names) surface later when the specs are built.
A knob a run leaves out takes its default from where it is used:
SolverOptions, or the oracle and report defaults of the diagnostics.
"""

import json
import math
import re
from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import LIMINF_THRESHOLD, ORACLE_BUDGET
from .errors import ConfigError
from .solvers import SolverOptions

CONFIG_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")

_RUN_KEYS = {
    "name",
    "problem",
    "algorithm",
    "schedule",
    "max_iters",
    "record_every",
    "anchor",
    "oracle_budget",
    "liminf_threshold",
    "stop_step_norm",
    "stop_h_gap",
    "divergence_threshold",
}


@dataclass
class RunSpec:
    """One parsed run; options holds its solver knobs, without the anchor, which is resolved per problem."""

    name: str
    problem: dict
    algorithm: str
    schedule: Optional[dict]
    options: SolverOptions
    anchor: str
    oracle_budget: int
    liminf_threshold: float


@dataclass
class SuiteConfig:
    out_dir: str
    runs: list = field(default_factory=list)


def _require_int(run_name: str, key: str, value, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"run {run_name!r}: {key} must be an integer >= {minimum}, got {value!r}")
    return value


def _finite(run_name: str, key: str, value) -> float:
    """A JSON int or float that is finite as a float; a bool, a string or null is not a number."""
    v = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an int beyond the float range
            v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"run {run_name!r}: {key} must be a finite number, got {value!r}")
    return v


def _optional_positive(run_name: str, key: str, value) -> Optional[float]:
    if value is None:
        return None
    v = _finite(run_name, key, value)
    if not v > 0.0:
        raise ConfigError(f"run {run_name!r}: {key} must be positive, got {value!r}")
    return v


def _parse_run(raw, position: int) -> RunSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"runs[{position}] must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"runs[{position}] has unknown keys: {sorted(unknown)}")
    for key in ("name", "problem", "algorithm", "max_iters"):
        if key not in raw:
            raise ConfigError(f"runs[{position}] is missing required key {key!r}")
    name = raw["name"]
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigError(
            f"runs[{position}]: name must match [A-Za-z0-9._-]+ (it becomes a file name), got {name!r}"
        )
    if not isinstance(raw["problem"], dict):
        raise ConfigError(f"run {name!r}: problem must be an object")
    if raw.get("schedule") is not None and not isinstance(raw["schedule"], dict):
        raise ConfigError(f"run {name!r}: schedule must be an object when present")
    if not isinstance(raw["algorithm"], str):
        raise ConfigError(f"run {name!r}: algorithm must be a string")
    anchor = raw.get("anchor", "auto")
    if anchor not in ("auto", "none"):
        raise ConfigError(f"run {name!r}: anchor must be 'auto' or 'none', got {anchor!r}")
    options = {key: _require_int(name, key, raw[key], 1) for key in ("max_iters", "record_every") if key in raw}
    for key in ("stop_step_norm", "stop_h_gap", "divergence_threshold"):
        value = _optional_positive(name, key, raw.get(key))
        if value is not None:  # null is the default, as is a missing key
            options[key] = value
    return RunSpec(
        name=name,
        problem=raw["problem"],
        algorithm=raw["algorithm"],
        schedule=raw.get("schedule"),
        options=SolverOptions(**options),
        anchor=anchor,
        oracle_budget=_require_int(name, "oracle_budget", raw.get("oracle_budget", ORACLE_BUDGET), 1),
        liminf_threshold=_finite(name, "liminf_threshold", raw.get("liminf_threshold", LIMINF_THRESHOLD)),
    )


def parse_config(path) -> SuiteConfig:
    """Load and structurally validate a suite config file."""
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    version = data.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"config {path}: version must be {CONFIG_VERSION}, got {version!r}")
    unknown = set(data) - {"version", "out_dir", "runs"}
    if unknown:
        raise ConfigError(f"config {path}: unknown top-level keys {sorted(unknown)}")
    runs_raw = data.get("runs")
    if not isinstance(runs_raw, list) or not runs_raw:
        raise ConfigError(f"config {path}: 'runs' must be a nonempty list")
    out_dir = data.get("out_dir", "runs")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"config {path}: out_dir must be a nonempty string")

    runs = [_parse_run(raw, i) for i, raw in enumerate(runs_raw)]
    seen = set()
    for run in runs:
        if run.name in seen:
            raise ConfigError(f"duplicate run name {run.name!r}")
        seen.add(run.name)
    return SuiteConfig(out_dir=out_dir, runs=runs)
