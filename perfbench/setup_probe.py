"""Fixed start-up cost of one CLI invocation, up to its first solver iteration.

Imports `apglab.cli` and loads a config the way `apg run` does before it
solves anything: `parse_config`, then `build_problem` and
`canonical_schedule_spec` for every run. `canonical_schedule_spec` is looked
up by name and skipped when the schedules module no longer has it.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG
"""

import sys

import apglab.catalog
import apglab.cli  # noqa: F401  (the import is part of the measured cost)
import apglab.config
import apglab.schedules


def main(path: str) -> int:
    canonical = getattr(apglab.schedules, "canonical_schedule_spec", None)
    for run in apglab.config.parse_config(path).runs:
        apglab.catalog.build_problem(run.problem)
        if canonical is not None and run.schedule is not None:
            canonical(run.schedule)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
