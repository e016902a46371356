"""Command line harness: batch runs, schedule tables, plot data.

Exit codes: 0 all checks pass (or not applicable), 1 some check failed
or was inconclusive, 2 config/file problems, 3 invalid schedule or
problem parameters, 4 unreliable reference oracle.
"""

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .catalog import build_problem
from .config import RunSpec, parse_config
from .diagnostics import (
    ReferenceInfo,
    build_report,
    failed_checks,
    report_ok,
    report_to_json,
    resolve_reference,
)
from .errors import AdmissibilityError, ConfigError, OracleUnreliable, ParameterError
from .plotting import render_line_chart
from .schedules import (
    FAMILIES,
    SCHEDULE_KINDS,
    alphas,
    attouch_pair_deltas,
    blowsup_pair_terms,
    check_admissibility,
    canonical_schedule_spec,
    classical_lower_bound_check,
    folklore_expansion_check,
    prefix,
)
# run_algorithm is not called here, but stays importable under this name:
# perfbench/tracer.py hooks apglab.cli.run_algorithm.
from .solvers import (  # noqa: F401
    SolverOptions,
    check_run,
    read_trace_csv,
    run_algorithm,
    run_batch,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PARAMS = 3
EXIT_ORACLE = 4

PLOT_QUANTITIES = ("h_gap", "sigma", "step_norm", "x_norm", "lyapunov_E", "n_times_gap")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _apply_seed_override(runs) -> None:
    raw = os.environ.get("APG_SEED")
    if raw is None:
        return
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"APG_SEED must be an integer, got {raw!r}") from None
    for run in runs:
        if "seed" in run.problem:
            run.problem = {**run.problem, "seed": seed}


def _problem_key(run: RunSpec) -> tuple:
    """Runs with equal keys share one problem, one reference solve and their batches."""
    return json.dumps(run.problem, sort_keys=True), run.oracle_budget


def _solver_options(run: RunSpec, anchor=None) -> SolverOptions:
    return SolverOptions(
        max_iters=run.max_iters,
        record_every=run.record_every,
        anchor=anchor,
        stop_step_norm=run.stop_step_norm,
        stop_h_gap=run.stop_h_gap,
        divergence_threshold=run.divergence_threshold,
    )


def _resolve_run_reference(run: RunSpec) -> ReferenceInfo:
    """Worker for one distinct problem: its reference minimum."""
    return resolve_reference(build_problem(run.problem), budget=run.oracle_budget)


def _failure(name: str, verdict: dict) -> str:
    """check(worst=..., n=...) for the CLI's FAIL line, from the report's verdict."""
    worst, at = verdict["worst_residual"], verdict["location_n"]
    return f"{name}(worst={'none' if worst is None else format(worst, '.3g')}, n={'none' if at is None else at})"


def _execute_run(runs: list, reference: ReferenceInfo, out_dir: str) -> list:
    """Worker for one batch of runs sharing a problem: solve, write trace CSVs + report JSONs.

    The runs advance in lockstep (solvers.run_batch); each run's files are
    written, and its trace dropped, as soon as it ends. Returns one result
    per run, in the batch's order.
    """
    problem = build_problem(runs[0].problem)
    batch = [(run.algorithm, run.schedule,
              _solver_options(run, reference.witness if run.anchor == "auto" else None))
             for run in runs]
    results = [None] * len(runs)
    for i, trace in run_batch(problem, batch):
        run = runs[i]
        csv_path = os.path.join(out_dir, f"{run.name}.csv")
        report_path = os.path.join(out_dir, f"{run.name}.report.json")
        write_trace_csv(trace, csv_path)
        report = build_report(trace, problem, reference, run_name=run.name,
                              liminf_threshold=run.liminf_threshold)
        with open(report_path, "w", newline="\n") as fh:
            fh.write(report_to_json(report))
        results[i] = {
            "name": run.name,
            "ok": report_ok(report),
            "failed": [_failure(name, report["checks"][name]) for name in failed_checks(report)],
            "records": len(trace.n),
            "diverging": trace.diverging,
            "csv": csv_path,
            "report": report_path,
        }
        # the other runs go on; only they should hold trace rows meanwhile
        del trace, report
    return results


def _run_all(mapper, runs: list, out_dir: str, jobs: int) -> list:
    """Resolve one reference per distinct problem, then execute every run.

    mapper is the builtin map or a process pool's map of jobs workers; with
    a pool, the reference solves of distinct problems run side by side.
    The runs of each problem are dealt round-robin into min(jobs, count)
    batches, one task each. Results come back in config order.
    """
    groups = {}
    for index, run in enumerate(runs):
        groups.setdefault(_problem_key(run), []).append(index)
    references = dict(zip(groups, mapper(_resolve_run_reference, [runs[g[0]] for g in groups.values()])))
    batches = []
    for key, members in groups.items():
        count = min(jobs, len(members))
        batches += [(key, members[j::count]) for j in range(count)]
    outputs = mapper(_execute_run, [[runs[i] for i in members] for _, members in batches],
                     [references[key] for key, _ in batches], itertools.repeat(out_dir))
    results = [None] * len(runs)
    for (_, members), batch_results in zip(batches, outputs):
        for index, result in zip(members, batch_results):
            results[index] = result
    return results


def cmd_run(args) -> int:
    try:
        cfg = parse_config(args.config)
        _apply_seed_override(cfg.runs)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)

    # every run is checked before any is solved; runs that share a problem build it once
    problems = {}
    for run in cfg.runs:
        try:
            key = _problem_key(run)
            if key not in problems:
                problems[key] = build_problem(run.problem)
            check_run(problems[key], run.algorithm, run.schedule, _solver_options(run))
        except (ParameterError, AdmissibilityError) as exc:
            return _fail(f"run {run.name!r}: {exc}", EXIT_PARAMS)

    out_dir = args.out if args.out is not None else cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)

    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = _run_all(pool.map, cfg.runs, out_dir, args.jobs)
        else:
            results = _run_all(map, cfg.runs, out_dir, 1)
    except OracleUnreliable as exc:
        return _fail(str(exc), EXIT_ORACLE)
    except (ParameterError, AdmissibilityError) as exc:
        return _fail(str(exc), EXIT_PARAMS)

    bad = 0
    for res in results:
        if res["ok"]:
            note = " (diverging, as checked)" if res["diverging"] else ""
            print(f"run {res['name']}: pass ({res['records']} records){note}")
        else:
            bad += 1
            print(f"run {res['name']}: FAIL [{', '.join(res['failed'])}]")
    print(f"{len(results)} runs, {bad} failed, outputs in {out_dir}")
    return EXIT_OK if bad == 0 else EXIT_CHECK_FAILED


def _schedule_spec_from_args(args) -> dict:
    spec = {"kind": args.kind}
    spec.update((key, getattr(args, key)) for key in ("tau1", "rho", "a", "d", "tau")
                if getattr(args, key) is not None)
    if args.values is not None:
        try:
            spec["values"] = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ParameterError(f"--values must be comma-separated numbers, got {args.values!r}") from None
    return spec


def cmd_schedule(args) -> int:
    try:
        if args.n < 1:
            raise ParameterError(f"--n must be >= 1, got {args.n}")
        spec = canonical_schedule_spec(_schedule_spec_from_args(args))
        rows = args.n
        if spec["kind"] == "custom" and len(spec["values"]) < rows:
            raise ParameterError(
                f"custom schedule has {len(spec['values'])} values, table needs {rows}"
            )
        have_next = spec["kind"] != "custom" or len(spec["values"]) >= rows + 1
        taus = prefix(spec, rows + 1 if have_next else rows)
    except (ParameterError, AdmissibilityError) as exc:
        return _fail(str(exc), EXIT_PARAMS)

    al = alphas(taus)
    ks = np.arange(1, rows + 1, dtype=float)
    n_over_tau = ks / taus[:rows]
    running_delta = np.concatenate(([np.nan], np.maximum.accumulate(attouch_pair_deltas(taus))))[:rows]
    running_blow = np.concatenate(([0.0], np.cumsum(blowsup_pair_terms(taus))))[:rows]

    def cell(v) -> str:
        return f"{'':>18}" if v is None or (isinstance(v, float) and math.isnan(v)) else f"{v:>18.12g}"

    print(f"{'n':>8} {'tau_n':>18} {'alpha_n':>18} {'n/tau_n':>18} {'attouch_delta':>18} {'blowsup_sum':>18}")
    for i in range(rows):
        a_i = al[i] if i < al.size else None
        print(f"{i + 1:>8d} {cell(float(taus[i]))} {cell(a_i if a_i is None else float(a_i))} "
              f"{cell(float(n_over_tau[i]))} {cell(float(running_delta[i]))} {cell(float(running_blow[i]))}")

    report = check_admissibility(taus)
    print()
    if report.ok:
        print(f"admissibility: ok (worst lower {report.worst_lower:.3e}, upper {report.worst_upper:.3e}, "
              f"square {report.worst_square:.3e}, increment margin {report.worst_increment:.3e})")
    else:
        print(f"admissibility: VIOLATED at index {report.first_violation}: {report.reason}")
    family = FAMILIES[spec["kind"]]
    kb = family.kappa(spec)
    ts = family.tau_sup(spec)
    print(f"kappa bound (sup n/tau_n): {kb if math.isfinite(kb) else 'unbounded'}; "
          f"prefix max {float(np.max(n_over_tau)):.12g}")
    print(f"tau sup bound: {ts if math.isfinite(ts) else 'unbounded'}")
    db = family.delta(spec)
    prefix_delta = float(np.nanmax(running_delta)) if rows > 1 else 0.0
    print(f"attouch delta: prefix max {prefix_delta:.12g}, "
          f"analytic bound {db if math.isfinite(db) else 'none'}")
    print(f"blowsup partial sum at n={rows}: {float(running_blow[-1]):.12g}")
    if spec["kind"] == "classical":
        growth = classical_lower_bound_check(rows, tau1=spec["tau1"])
        print(f"classical lower bound tau_n >= (n+1)/2: min slack {growth['min_slack']:.3e} "
              f"({'ok' if growth['ok'] else 'VIOLATED'})")
        if spec["tau1"] == 1.0:
            r = folklore_expansion_check(rows)
            print(f"momentum expansion residual n(alpha_n-1)+3: {float(r[-1]):.6g} at n={rows}")
    return EXIT_OK if report.ok else EXIT_PARAMS


def _reference_for_plot(path: Path, cols: dict, fixed) -> float:
    if fixed is not None:
        return float(fixed)
    report_path = path.with_name(path.stem + ".report.json")
    if report_path.exists():
        with open(report_path) as fh:
            data = json.load(fh)
        val = (data.get("reference") or {}).get("min_h")
        if isinstance(val, (int, float)) and math.isfinite(val):
            return float(val)
    h = cols["h_xn"]
    best = float(np.nanmin(h))
    print(f"note: no reference value for {path.name}, using its own min h = {best:.6g}",
          file=sys.stderr)
    return best


def cmd_plotdata(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = []
    written = []
    try:
        for raw in args.traces:
            path = Path(raw)
            cols = read_trace_csv(path)
            n = cols["n"].astype(float)
            q = args.quantity
            if q in ("h_gap", "n_times_gap"):
                ref = _reference_for_plot(path, cols, args.min_h)
                vals = cols["h_xn"] - ref
                if q == "n_times_gap":
                    vals = n * vals
            else:
                column = {"sigma": "sigma_n"}.get(q, q)
                vals = cols[column]
            keep = np.isfinite(vals)
            dat_path = out_dir / f"{path.stem}.{q}.dat"
            with open(dat_path, "w", newline="\n") as fh:
                fh.write("".join([f"{ni} {vi!r}\n"
                                  for ni, vi in zip(cols["n"][keep].tolist(), vals[keep].tolist())]))
            written.append(dat_path)
            series.append((path.stem, n, vals))
    except (OSError, ParameterError, KeyError) as exc:
        return _fail(f"cannot read trace data: {exc}", EXIT_CONFIG)

    svg_path = out_dir / f"{args.quantity}.svg"
    svg = render_line_chart(series, loglog=args.loglog, title=args.quantity,
                            xlabel="n", ylabel=args.quantity)
    with open(svg_path, "w", newline="\n") as fh:
        fh.write(svg)
    written.append(svg_path)
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a batch config and check every run")
    p_run.add_argument("config", help="JSON suite config")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p_run.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    p_run.set_defaults(func=cmd_run)

    p_sched = sub.add_parser("schedule", help="print a momentum-schedule table with checks")
    p_sched.add_argument("kind", choices=SCHEDULE_KINDS)
    p_sched.add_argument("--n", type=int, required=True, help="table length")
    p_sched.add_argument("--tau1", type=float, default=None, help="classical: first value")
    p_sched.add_argument("--rho", type=float, default=None, help="chambolle_dossal / attouch_shifted")
    p_sched.add_argument("--a", type=float, default=None, help="aujol_dossal base")
    p_sched.add_argument("--d", type=float, default=None, help="aujol_dossal exponent")
    p_sched.add_argument("--tau", type=float, default=None, help="constant: the value")
    p_sched.add_argument("--values", default=None, help="custom: comma-separated list")
    p_sched.set_defaults(func=cmd_schedule)

    p_plot = sub.add_parser("plotdata", help="two-column data files and an SVG overlay from traces")
    p_plot.add_argument("traces", nargs="+", help="trace CSV paths")
    p_plot.add_argument("--quantity", required=True, choices=PLOT_QUANTITIES)
    p_plot.add_argument("--loglog", action="store_true", help="log-log axes in the SVG")
    p_plot.add_argument("--out", default=".", help="output directory (default .)")
    p_plot.add_argument("--min-h", type=float, default=None,
                        help="reference minimum for gap quantities (default: report, then trace min)")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
