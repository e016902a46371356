"""Run-configuration files for the batch harness.

A config is JSON with a versioned schema: {"version": 1, "out_dir": ...,
"runs": [...]}. Each run names a catalog problem, an algorithm, an
optional schedule spec, and run-length/instrumentation knobs. Structural
problems raise ConfigError; parameter-level problems (bad schedule
values, unknown problem names) surface later when the specs are built.
A knob a run leaves out, or sets to null, takes its default from where
it is used: SolverOptions, or the oracle and report defaults of the
diagnostics. The solver knobs are judged by solvers.check_options.
"""

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import LIMINF_THRESHOLD, ORACLE_BUDGET
from .errors import ConfigError, ParameterError, finite_number, positive_int
from .solvers import SolverOptions, check_options

CONFIG_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")

# the run keys that fill SolverOptions fields of the same name
_OPTION_KEYS = ("max_iters", "record_every", "divergence_threshold")

_RUN_KEYS = {
    "name",
    "problem",
    "algorithm",
    "schedule",
    "anchor",
    "oracle_budget",
    "liminf_threshold",
    *_OPTION_KEYS,
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


def _parse_run(raw, position: int) -> RunSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"runs[{position}] must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"runs[{position}] has unknown keys: {sorted(unknown)}")
    raw = {key: value for key, value in raw.items() if value is not None}  # null means omitted
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
    if not isinstance(raw.get("schedule", {}), dict):
        raise ConfigError(f"run {name!r}: schedule must be an object when present")
    if not isinstance(raw["algorithm"], str):
        raise ConfigError(f"run {name!r}: algorithm must be a string")
    anchor = raw.get("anchor", "auto")
    if anchor not in ("auto", "none"):
        raise ConfigError(f"run {name!r}: anchor must be 'auto' or 'none', got {anchor!r}")
    try:
        options = SolverOptions(**{key: raw[key] for key in _OPTION_KEYS if key in raw})
        check_options(options)
        return RunSpec(
            name=name,
            problem=raw["problem"],
            algorithm=raw["algorithm"],
            schedule=raw.get("schedule"),
            options=options,
            anchor=anchor,
            oracle_budget=positive_int("oracle_budget", raw.get("oracle_budget", ORACLE_BUDGET)),
            liminf_threshold=finite_number("liminf_threshold", raw.get("liminf_threshold", LIMINF_THRESHOLD)),
        )
    except ParameterError as exc:
        raise ConfigError(f"run {name!r}: {exc}") from None


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
    if type(version) is not int or version != CONFIG_VERSION:  # true and 1.0 equal 1 too
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
