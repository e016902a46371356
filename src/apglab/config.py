"""Run-configuration files for the batch harness.

A config is JSON with a versioned schema: {"version": 1, "out_dir": ...,
"runs": [...]}. Each run names a catalog problem, an algorithm, an
optional schedule spec, and run-length/instrumentation knobs. Structural
problems raise ConfigError; parameter-level problems (bad schedule
values, unknown problem names) surface later when the specs are built.
"""

import json
import math
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError

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
    name: str
    problem: dict
    algorithm: str
    max_iters: int
    schedule: Optional[dict] = None
    record_every: int = 1
    anchor: str = "auto"
    oracle_budget: int = 50_000
    liminf_threshold: float = -1e6
    stop_step_norm: Optional[float] = None
    stop_h_gap: Optional[float] = None
    divergence_threshold: float = 1e150


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
    threshold = _finite(name, "liminf_threshold", raw.get("liminf_threshold", -1e6))
    divergence = _optional_positive(name, "divergence_threshold", raw.get("divergence_threshold"))
    return RunSpec(
        name=name,
        problem=raw["problem"],
        algorithm=raw["algorithm"],
        max_iters=_require_int(name, "max_iters", raw["max_iters"], 1),
        schedule=raw.get("schedule"),
        record_every=_require_int(name, "record_every", raw.get("record_every", 1), 1),
        anchor=anchor,
        oracle_budget=_require_int(name, "oracle_budget", raw.get("oracle_budget", 50_000), 1),
        liminf_threshold=threshold,
        stop_step_norm=_optional_positive(name, "stop_step_norm", raw.get("stop_step_norm")),
        stop_h_gap=_optional_positive(name, "stop_h_gap", raw.get("stop_h_gap")),
        divergence_threshold=divergence if divergence is not None else 1e150,
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
