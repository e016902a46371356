"""Benchmark workloads: seeded configs and the CLI commands of one repetition.

The program sees only the generated config files; the seed never reaches it
through the environment. Every workload is sized so that each of its runs
ends `pass` on any seed: the seeded workloads use only unbounded momentum
schedules, because the bounded-schedule checks (`rate_o_n`,
`summability_tails`) decide pass or fail per instance at these run lengths.
The bounded schedules stay covered by the `suite` workload.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

SUITE_CONFIG = "configs/paper_suite.json"

DISTINCT_DIMS = (10, 20, 50)
DISTINCT_ITERS = 2_000

SHARED_DIM = 10
SHARED_ITERS = 50_000
SHARED_JOBS = 2
SHARED_PAIRS = (
    ("fista-classical", "fista", {"kind": "classical"}),
    ("fista-cd2", "fista", {"kind": "chambolle_dossal", "rho": 2.0}),
    ("fista-cd3", "fista", {"kind": "chambolle_dossal", "rho": 3.0}),
    ("fista-aujol", "fista", {"kind": "aujol_dossal", "a": 5.0, "d": 0.5}),
    ("fista-att3", "fista", {"kind": "attouch_shifted", "rho": 3.0}),
    ("mfista-classical", "mfista", {"kind": "classical"}),
    ("mfista-att2", "mfista", {"kind": "attouch_shifted", "rho": 2.0}),
    ("mfista-cd2", "mfista", {"kind": "chambolle_dossal", "rho": 2.0}),
)

WORKLOADS = ("suite", "distinct-problems", "shared-schedules")


@dataclass
class Workload:
    name: str
    config_path: str  # relative to the checkout root, or absolute under the work dir
    runs: list  # run dicts as in the config: name, max_iters, ...
    jobs: int
    plot_quantity: str = ""  # when set, `apg plotdata` follows the run

    def commands(self, out_dir: Path) -> list:
        """argv lists (after `python -m apglab.cli`) for one repetition."""
        cmds = [["run", self.config_path, "--jobs", str(self.jobs), "--out", str(out_dir)]]
        if self.plot_quantity:
            traces = [str(out_dir / f"{run['name']}.csv") for run in self.runs]
            cmds.append(["plotdata", *traces, "--quantity", self.plot_quantity,
                         "--loglog", "--out", str(out_dir / "plots")])
        return cmds

    @property
    def problems(self) -> int:
        return len({json.dumps(run["problem"], sort_keys=True) for run in self.runs})


def _draw_seeds(rng: random.Random, count: int) -> list:
    seeds = []
    while len(seeds) < count:
        s = rng.randrange(1, 2**31)
        if s not in seeds:
            seeds.append(s)
    return seeds


def _write_config(path: Path, runs: list) -> None:
    path.write_text(json.dumps({"version": 1, "out_dir": "runs", "runs": runs}, indent=1) + "\n")


def build_workload(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Materialize workload `name` for `seed`; generated configs go in `work`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "suite":
        runs = json.loads((root / SUITE_CONFIG).read_text())["runs"]
        return Workload(name, SUITE_CONFIG, runs, jobs=1)
    if name == "distinct-problems":
        runs = [
            {"name": f"lasso-d{dim}-{i}", "problem": {"name": "lasso", "dim": dim, "seed": s},
             "algorithm": "fista", "schedule": {"kind": "classical"}, "max_iters": DISTINCT_ITERS}
            for i, (dim, s) in enumerate(zip(DISTINCT_DIMS, _draw_seeds(rng, len(DISTINCT_DIMS))))
        ]
        jobs = 1
    elif name == "shared-schedules":
        problem = {"name": "lasso", "dim": SHARED_DIM, "seed": _draw_seeds(rng, 1)[0]}
        runs = [
            {"name": run_name, "problem": problem, "algorithm": algorithm, "schedule": schedule,
             "max_iters": SHARED_ITERS, "record_every": 1}
            for run_name, algorithm, schedule in SHARED_PAIRS
        ]
        jobs = SHARED_JOBS
    else:
        raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
    path = work / f"{name}.json"
    _write_config(path, runs)
    return Workload(name, str(path), runs, jobs=jobs,
                    plot_quantity="h_gap" if name == "shared-schedules" else "")
