import csv
import dataclasses
import hashlib
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from apglab import SolverOptions, build_problem, cli, diagnostics, run_batch, schedules
from apglab.solvers import CSV_HEADER, read_trace_csv


def write_config(path: Path, runs, out_dir=None) -> Path:
    cfg = {"version": 1, "out_dir": str(out_dir or path.parent / "runs"), "runs": runs}
    path.write_text(json.dumps(cfg))
    return path


QUAD_RUN = {
    "name": "q",
    "problem": {"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]},
    "algorithm": "fista",
    "schedule": {"kind": "classical"},
    "max_iters": 120,
}


def test_run_happy_path_writes_trace_and_report(mini_config, capsys):
    code = cli.main(["run", str(mini_config)])
    out = capsys.readouterr().out
    assert code == 0
    cfg = json.loads(mini_config.read_text())
    out_dir = Path(cfg["out_dir"])
    for run in cfg["runs"]:
        assert (out_dir / f"{run['name']}.csv").exists()
        assert (out_dir / f"{run['name']}.report.json").exists()
        assert f"run {run['name']}: pass" in out
    assert "3 runs, 0 failed" in out


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2


def test_run_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"version": 1, "runs": [QUAD_RUN], "extra": 1}))
    assert cli.main(["run", str(cfg)]) == 2


def test_run_wrong_version_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"version": 2, "runs": [QUAD_RUN]}))
    assert cli.main(["run", str(cfg)]) == 2


def test_run_inadmissible_custom_schedule_exits_3(tmp_path, capsys):
    run = dict(QUAD_RUN, schedule={"kind": "custom", "values": [1.0, 3.0]}, max_iters=1)
    cfg = write_config(tmp_path / "c.json", [run])
    assert cli.main(["run", str(cfg)]) == 3
    assert "inadmissible" in capsys.readouterr().err


def test_run_short_custom_schedule_exits_3(tmp_path):
    run = dict(QUAD_RUN, schedule={"kind": "custom", "values": [1.0, 1.5, 2.0]}, max_iters=5)
    cfg = write_config(tmp_path / "c.json", [run])
    assert cli.main(["run", str(cfg)]) == 3


def test_run_unknown_algorithm_exits_3(tmp_path):
    cfg = write_config(tmp_path / "c.json", [dict(QUAD_RUN, algorithm="newton")])
    assert cli.main(["run", str(cfg)]) == 3


def test_run_ista_with_momentum_schedule_exits_3(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       [dict(QUAD_RUN, algorithm="ista", schedule={"kind": "classical"})])
    assert cli.main(["run", str(cfg)]) == 3


NAN = float("nan")
LASSO_SPEC = {"name": "lasso", "dim": 4, "seed": 1}
QUAD_SPEC = QUAD_RUN["problem"]


@pytest.mark.parametrize("problem, schedule", [
    (dict(LASSO_SPEC, dim="ten"), None),
    (dict(LASSO_SPEC, rows=NAN), None),
    (dict(QUAD_SPEC, diag=[1.0, "x"]), None),
    (dict(LASSO_SPEC, seed=None), None),
    (dict(QUAD_SPEC, g={"kind": "l1", "weight": "w"}), None),
    (dict(LASSO_SPEC, condition=NAN), None),
    (dict(LASSO_SPEC, dim=2.7), None),
    (dict(QUAD_SPEC, g={"kind": "box", "lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0]}), None),
    (dict(LASSO_SPEC, seed=-1), None),
    ({"name": "quadratic", "dim": -1}, None),
    (QUAD_SPEC, {"kind": "chambolle_dossal", "rho": "x"}),
    (QUAD_SPEC, {"kind": "classical", "tau1": None}),
    (QUAD_SPEC, {"kind": "custom", "values": 5}),
    (QUAD_SPEC, {"kind": "custom", "values": [1, "x"]}),
    ({"name": "quadratic", "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, None),
    (dict(QUAD_SPEC, b=[1.0, 1.0, 1.0]), None),
    (dict(QUAD_SPEC, diag=[0.0, 0.0]), None),
    (dict(QUAD_SPEC, diag=[[1.0], [1.0, 2.0]]), None),
    (dict(QUAD_SPEC, g=5), None),
    (dict(QUAD_SPEC, g={"kind": "box", "lo": 0.0}), None),
    (dict(QUAD_SPEC, g={"kind": "l2"}), None),
    (dict(LASSO_SPEC, rows=0), None),
    ({"dim": 2}, None),
    (QUAD_SPEC, {"kind": "constant", "tau": 10**400}),
    (QUAD_SPEC, {"kind": "chambolle_dossal", "rho": 10**400}),
    (QUAD_SPEC, {"kind": "custom", "values": [1, 10**400]}),
], ids=["dim-str", "rows-nan", "diag-str", "seed-null", "weight-str", "condition-nan", "dim-fraction",
        "box-lengths", "seed-negative", "dim-negative", "rho-str", "tau1-null", "values-number", "values-str",
        "matrix-not-square", "b-length", "diag-zero", "diag-ragged", "g-number", "box-no-hi", "g-kind",
        "rows-zero", "problem-no-name", "tau-overflow", "rho-overflow", "values-overflow"])
def test_run_malformed_spec_value_exits_3(tmp_path, capsys, problem, schedule):
    run = dict(QUAD_RUN, problem=problem, schedule=schedule or QUAD_RUN["schedule"], max_iters=20,
               oracle_budget=100)
    cfg = write_config(tmp_path / "c.json", [run])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run 'q': ") and "Traceback" not in err


@pytest.mark.parametrize("problem, schedule, key", [
    (QUAD_SPEC, {"kind": "classical", "tau": 2.0}, "tau"),
    (dict(LASSO_SPEC, lam_scal=0.5), None, "lam_scal"),
    (dict(QUAD_SPEC, g={"kind": "l1", "weigth": 0.5}), None, "weigth"),
    ({"name": "unattained", "dim": 4}, None, "dim"),
    (dict(QUAD_SPEC, dim=3), None, "dim"),
], ids=["classical-tau", "lasso-lam_scal", "l1-weigth", "unattained-dim", "quadratic-dim-and-diag"])
def test_run_unknown_spec_key_exits_3(tmp_path, capsys, problem, schedule, key):
    run = dict(QUAD_RUN, problem=problem, schedule=schedule or QUAD_RUN["schedule"], max_iters=20,
               oracle_budget=100)
    cfg = write_config(tmp_path / "c.json", [run])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run 'q': ") and f"unknown key {key!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("problem, schedule, kind", [
    (QUAD_SPEC, {"kind": "classical", "name": "fast"}, "classical"),
    (dict(QUAD_SPEC, g={"kind": "l1", "name": "w"}), None, "l1"),
], ids=["schedule", "g"])
def test_run_stray_name_key_is_reported_under_the_kind(tmp_path, capsys, problem, schedule, kind):
    run = dict(QUAD_RUN, problem=problem, schedule=schedule or QUAD_RUN["schedule"], max_iters=20,
               oracle_budget=100)
    cfg = write_config(tmp_path / "c.json", [run])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"error: run 'q': {kind}: unknown key 'name'")


NON_FINITE = [math.inf, -math.inf, NAN, 10**400]
ONE_PARAMETER = [("classical", "tau1"), ("constant", "tau"), ("chambolle_dossal", "rho"), ("attouch_shifted", "rho")]


@pytest.mark.parametrize("kind, key", ONE_PARAMETER, ids=[kind for kind, _ in ONE_PARAMETER])
@pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan", "10**400"])
def test_non_finite_schedule_parameter_exits_3_and_says_so(tmp_path, capsys, kind, key, value):
    # these used to blame the range: "classical schedule needs tau1 >= 1, got inf"
    message = f"{kind} schedule: {key} must be a finite number, got "
    cfg = write_config(tmp_path / "c.json", [dict(QUAD_RUN, schedule={"kind": kind, key: value})])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"error: run 'q': {message}{value!r}")
    assert cli.main(["schedule", kind, f"--{key}={value}", "--n", "3"]) == 3
    captured = capsys.readouterr()
    read = math.inf if isinstance(value, int) else value  # argparse reads the 400 digits as inf
    assert captured.out == "" and captured.err == f"error: {message}{read!r}\n"


def test_run_fail_line_shows_worst_residual_and_n(tmp_path, capsys):
    # the l1-quadratic scaled by c = 1e5 leaves the iterates as at c = 1 and
    # multiplies every h-gap by c; the key-inequality residual at n = 51
    # (about 4 ulps of h) then exceeds the absolute 1e-10 tolerance
    c = 1e5
    scaled = {"name": "l1quad", "algorithm": "fista", "schedule": {"kind": "constant", "tau": 2.0},
              "problem": {"name": "quadratic", "diag": [c, 4 * c], "b": [3 * c, 3 * c],
                          "g": {"kind": "l1", "weight": 0.5 * c}},
              "max_iters": 300, "oracle_budget": 2000}
    # three records are too few for the divergence check, which has no residual then
    short = {"name": "short", "problem": {"name": "affine-descent"}, "algorithm": "ista", "max_iters": 3}
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", [scaled, short])
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    for name in ("l1quad", "short"):
        checks = json.loads((out / f"{name}.report.json").read_text())["checks"]
        failed = diagnostics.failed_checks({"checks": checks})
        shown = [f"{check}(worst={checks[check]['worst_residual']:.3g}, n={checks[check]['location_n']})"
                 if checks[check]["worst_residual"] is not None else f"{check}(worst=none, n=none)"
                 for check in failed]
        assert f"run {name}: FAIL [{', '.join(shown)}]" in lines
    assert lines[0] == ("run l1quad: FAIL [descent_ledger(worst=2.33e-10, n=50), keyineq(worst=-2.33e-10, n=51), "
                        "sigma_monotone(worst=2.33e-10, n=51), summability_tails(worst=0.00457, n=10)]")
    assert "divergence_xnorm(worst=none, n=none)" in lines[1]


def test_run_started_at_the_minimizer_meets_the_O_n2_bound_exactly(tmp_path, capsys):
    # a closed-form minimum has error bar 0, and FISTA started at the
    # minimizer has gap 0 against a bound beta_z = 0: a margin of exactly
    # the error bar passes
    at_min = dict(QUAD_RUN, problem={"name": "quadratic", "diag": [1.0, 4.0], "b": [0.0, 0.0]}, max_iters=50)
    cfg = write_config(tmp_path / "c.json", [at_min])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("run q: pass (50 records)")
    report = json.loads((tmp_path / "out" / "q.report.json").read_text())
    assert (report["checks"]["rate_O_n2"]["status"], report["checks"]["rate_O_n2"]["worst_residual"]) == ("pass", 0.0)
    # no gap is above the error bar, so no rate is fitted
    assert (report["rate_fit"]["ok"], report["rate_fit"]["points"]) == (False, 0)


# runs that reach each not-applicable branch of a check through `apg run`
NOT_APPLICABLE_RUNS = [
    dict(QUAD_RUN, name="fista-1", max_iters=1),
    dict(QUAD_RUN, name="fista-5", max_iters=5),
    dict(QUAD_RUN, name="fista-5-diverged", max_iters=5, divergence_threshold=1e-300),
    dict(QUAD_RUN, name="ista-100-sparse", algorithm="ista", schedule=None, max_iters=100, record_every=10),
    dict(QUAD_RUN, name="ista-5", algorithm="ista", schedule=None, max_iters=5),
    dict(QUAD_RUN, name="mfista-unattained", problem={"name": "unattained"}, algorithm="mfista",
         schedule={"kind": "attouch_shifted", "rho": 2.0}, max_iters=50),
    dict(QUAD_RUN, name="mfista-const", algorithm="mfista", schedule={"kind": "constant", "tau": 2.0}, max_iters=50),
    dict(QUAD_RUN, name="mfista-50", algorithm="mfista", schedule={"kind": "attouch_shifted", "rho": 2.0},
         max_iters=50),
]


@pytest.fixture(scope="module")
def not_applicable_reports(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("not-applicable")
    cli.main(["run", str(write_config(out / "c.json", NOT_APPLICABLE_RUNS)), "--out", str(out)])
    return out


@pytest.mark.parametrize("name, check, detail", [
    ("fista-1", "lyapunov", "energy column incomplete"),
    ("fista-5", "fejer_distance", "no complete decade recorded"),
    ("fista-5-diverged", "rate_O_n2", "trace head incomplete"),
    ("ista-100-sparse", "summability_tails", "partial sums need record_every=1"),
    ("ista-5", "summability_tails", "no complete decade recorded"),
    ("mfista-unattained", "rate_tau2_decay", "no reference minimum"),
    ("mfista-const", "rate_tau2_decay", "schedule bounded; tau_n^2 gap decay is not informative"),
    ("mfista-50", "rate_tau2_decay", "only 1 complete decades recorded, need 2"),
])
def test_run_reaches_each_not_applicable_branch(not_applicable_reports, name, check, detail):
    verdict = json.loads((not_applicable_reports / f"{name}.report.json").read_text())["checks"][check]
    assert verdict == {"status": "not-applicable", "detail": detail, "worst_residual": None, "location_n": None}


@pytest.mark.parametrize("key, value, message", [
    ("liminf_threshold", "nan", "run 'q': liminf_threshold must be a finite number"),
    ("liminf_threshold", NAN, "run 'q': liminf_threshold must be a finite number"),
    ("liminf_threshold", True, "run 'q': liminf_threshold must be a finite number"),
    ("liminf_threshold", "-1000", "run 'q': liminf_threshold must be a finite number"),
    ("stop_step_norm", True, "runs[0] has unknown keys: ['stop_step_norm']"),
    ("liminf_threshold", 10**400, "run 'q': liminf_threshold must be a finite number"),
    ("max_iters", 0, "run 'q': max_iters must be an integer >= 1"),
    ("max_iters", 10**400, "run 'q': max_iters must be an integer >= 1"),
    ("max_iters", 2**53 + 1, "run 'q': max_iters must be an integer >= 1"),
    ("record_every", 2**53 + 1, "run 'q': record_every must be an integer >= 1"),
    ("oracle_budget", 10**400, "run 'q': oracle_budget must be an integer >= 1"),
    ("stop_h_gap", -1.0, "runs[0] has unknown keys: ['stop_h_gap']"),
    ("shedule", {}, "runs[0] has unknown keys: ['shedule']"),
    ("name", "a b", "runs[0]: name must match"),
    ("problem", "quadratic", "run 'q': problem must be an object"),
    ("schedule", "classical", "run 'q': schedule must be an object when present"),
    ("algorithm", 1, "run 'q': algorithm must be a string"),
    ("anchor", "witness", "run 'q': anchor must be 'auto' or 'none'"),
], ids=["threshold-nan-str", "threshold-nan", "threshold-true", "threshold-str", "stop-true", "threshold-overflow",
        "max_iters-zero", "max_iters-overflow", "max_iters-above-2**53", "record_every-above-2**53",
        "oracle_budget-overflow", "stop-negative", "unknown-key", "name-space", "problem-str", "schedule-str",
        "algorithm-int", "anchor-str"])
def test_run_loose_number_exits_2(tmp_path, capsys, key, value, message):
    # the first four used to run: float() took the strings and the bools, and
    # a NaN threshold made running_min fail with "never fell below nan"; a run
    # has no early stop, so stop_step_norm and stop_h_gap are unknown keys
    cfg = write_config(tmp_path / "c.json", [dict(QUAD_RUN, **{key: value})])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, message", [
    ([QUAD_RUN], "config {path}: top level must be an object"),
    ({"version": 1, "runs": []}, "config {path}: 'runs' must be a nonempty list"),
    ({"version": 1, "runs": [QUAD_RUN], "out_dir": ""}, "config {path}: out_dir must be a nonempty string"),
    ({"version": 1, "runs": [QUAD_RUN, 5]}, "runs[1] must be an object, got int"),
    ({"version": 1, "runs": [{k: v for k, v in QUAD_RUN.items() if k != "max_iters"}]},
     "runs[0] is missing required key 'max_iters'"),
    # True == 1 == 1.0 in Python, but a bool is not a number and the version is an integer
    ({"version": True, "runs": [QUAD_RUN]}, "config {path}: version must be 1, got True"),
    ({"version": 1.0, "runs": [QUAD_RUN]}, "config {path}: version must be 1, got 1.0"),
], ids=["top-list", "runs-empty", "out_dir-empty", "run-number", "run-no-max_iters", "version-true",
        "version-float"])
def test_run_malformed_config_exits_2(tmp_path, capsys, data, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(path=cfg)}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


BOX = {"kind": "box", "lo": 0.0, "hi": 1.0}
L1 = {"kind": "l1", "weight": 0.5}
NOT_CONVEX = "quadratic: the matrix has the eigenvalue -1 < 0, so f is not convex"
TAU1_OVERFLOW = "classical schedule needs tau1 >= 1 with a finite tau_2, got 1e+200"


@pytest.mark.parametrize("problem, algorithm, schedule, message", [
    # a finite matrix whose largest eigenvalue, 2e308, overflows: gamma = 1/beta would be 0
    ({"name": "quadratic", "matrix": [[1e308, 1e308], [1e308, 1e308]], "b": [1.0, 0.5]}, "fista", None,
     "quadratic: the largest eigenvalue with its rounding bound overflows, beta would be inf"),
    (dict(QUAD_SPEC, diag=[1.0, -1.0]), "fista", None, NOT_CONVEX),
    ({"name": "quadratic", "matrix": [[1, 0], [0, -1]], "b": [1.0, 1.0], "g": BOX}, "fista", None, NOT_CONVEX),
    ({"name": "quadratic", "matrix": [[1, 0], [0, -1]], "b": [1.0, 1.0], "g": L1}, "fista", None, NOT_CONVEX),
    (QUAD_SPEC, "fista", {"kind": "classical", "tau1": 1e200}, TAU1_OVERFLOW),
    (QUAD_SPEC, "mfista", {"kind": "classical", "tau1": 1e200}, TAU1_OVERFLOW),
    (dict(QUAD_SPEC, g={"kind": "box", "lo": math.inf, "hi": math.inf}), "fista", None,
     "box: a lower bound of +inf or an upper bound of -inf leaves the box empty"),
    (QUAD_SPEC, "fista", {}, "schedule spec must be a dict with a 'kind', got {}"),
    (dict(QUAD_SPEC, b=[math.inf, 1.0]), "fista", None, "quadratic: A and b must be finite"),
    (dict(QUAD_SPEC, diag=[math.inf, 4.0]), "fista", None, "quadratic: A and b must be finite"),
], ids=["beta-missed", "saddle", "not-convex-box", "not-convex-l1", "tau1-overflow-fista", "tau1-overflow-mfista",
        "empty-box", "schedule-empty", "b-inf", "diag-inf"])
def test_run_refuses_a_broken_hypothesis_at_load(tmp_path, monkeypatch, capsys, problem, algorithm, schedule,
                                                 message):
    # these used to run: to FAIL lines with exit 1, a certificate refused with
    # exit 4, or, for tau1 = 1e200, an inf row that passed as diverging
    solved = []
    monkeypatch.setattr(cli, "resolve_reference", lambda *args, **kwargs: solved.append(args))
    run = {"name": "q", "problem": problem, "algorithm": algorithm, "max_iters": 200, "schedule": schedule}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"version": 1, "runs": [run]}).replace("Infinity", "1e400"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: run 'q': {message}")
    assert captured.out == "" and solved == [] and not (tmp_path / "out").exists()


def test_run_takes_beta_from_the_largest_eigenvalue(tmp_path, capsys):
    # the eigenvalues are 13 and 52: beta is 52 raised by the rounding bound
    # 2 * 2^-52 * 52 of the eigenvalues, so gamma * lambda_max stays <= 1
    problem = {"name": "quadratic", "matrix": [[40, -18], [-18, 25]], "b": [1.0, 0.5]}
    built = build_problem(problem)
    assert built.smooth.beta == 52.00000000000002 == 52.0 + 2 * 2.0 ** -52 * 52.0
    assert built.gamma * np.linalg.eigvalsh(built.smooth.quadratic.q)[-1] <= 1.0
    run = {"name": "q", "problem": problem, "algorithm": "fista", "max_iters": 200}
    cfg = write_config(tmp_path / "c.json", [run])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "run q: pass (200 records)"


def test_schedule_command_refuses_a_tau1_whose_tau2_overflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["schedule", "classical", "--tau1", "1e200", "--n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {TAU1_OVERFLOW}\n"


def test_run_singular_quadratic_unbounded_below_has_no_reference(tmp_path):
    # b has a component along the kernel of the matrix, so h falls without bound
    run = dict(QUAD_RUN, problem={"name": "quadratic", "matrix": [[1, 0], [0, 0]], "b": [1, 1]}, max_iters=50)
    cfg = write_config(tmp_path / "c.json", [run])
    cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    reference = json.loads((tmp_path / "out" / "q.report.json").read_text())["reference"]
    assert reference["source"] == "none" and reference["inf_h"] == "-inf"


@pytest.mark.parametrize("key", ["schedule", "record_every", "anchor", "oracle_budget", "liminf_threshold",
                                 "divergence_threshold"])
def test_run_null_key_writes_the_bytes_of_an_omitted_one(tmp_path, key):
    omitted = {k: v for k, v in QUAD_RUN.items() if k != key}
    for out, run in (("omitted", omitted), ("null", dict(omitted, **{key: None}))):
        cfg = write_config(tmp_path / f"{out}.json", [run])
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / out)]) == 0
    names = sorted(path.name for path in (tmp_path / "omitted").iterdir())
    assert len(names) == 3 and sorted(path.name for path in (tmp_path / "null").iterdir()) == names
    for name in names:
        assert (tmp_path / "null" / name).read_bytes() == (tmp_path / "omitted" / name).read_bytes(), name


def test_run_explicit_zero_g_writes_the_bytes_of_an_omitted_one(tmp_path):
    for out, problem in (("omitted", QUAD_SPEC), ("zero", dict(QUAD_SPEC, g={"kind": "zero"}))):
        cfg = write_config(tmp_path / f"{out}.json", [dict(QUAD_RUN, problem=problem)])
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / out)]) == 0
    names = sorted(path.name for path in (tmp_path / "omitted").iterdir())
    assert len(names) == 3 and sorted(path.name for path in (tmp_path / "zero").iterdir()) == names
    for name in names:
        assert (tmp_path / "zero" / name).read_bytes() == (tmp_path / "omitted" / name).read_bytes(), name


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path / "c.json", [QUAD_RUN])
    assert cli.main(["run", str(cfg), "--jobs", jobs, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --jobs must be >= 1, got {jobs}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_pool_has_no_more_workers_than_runs(tmp_path, monkeypatch, mini_config):
    # an in-process stand-in for the pool: it records its size and maps serially
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    assert cli.main(["run", str(mini_config), "--jobs", "64", "--out", str(tmp_path / "wide")]) == 0
    assert sizes == [3]
    assert cli.main(["run", str(mini_config), "--out", str(tmp_path / "serial")]) == 0
    names = sorted(path.name for path in (tmp_path / "serial").iterdir())
    assert len(names) == 9 and sorted(path.name for path in (tmp_path / "wide").iterdir()) == names
    for name in names:
        assert (tmp_path / "wide" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes(), name


def test_run_duplicate_names_exit_2(tmp_path):
    cfg = write_config(tmp_path / "c.json", [QUAD_RUN, dict(QUAD_RUN)])
    assert cli.main(["run", str(cfg)]) == 2


def test_parallel_runs_are_byte_identical_to_sequential(tmp_path, mini_config):
    seq_dir = tmp_path / "seq"
    par_dir = tmp_path / "par"
    assert cli.main(["run", str(mini_config), "--out", str(seq_dir)]) == 0
    assert cli.main(["run", str(mini_config), "--jobs", "2", "--out", str(par_dir)]) == 0
    for csv in sorted(seq_dir.glob("*.csv")):
        assert csv.read_bytes() == (par_dir / csv.name).read_bytes()


LASSO_RUN = {
    "problem": {"name": "lasso", "dim": 6, "seed": 9},
    "algorithm": "fista",
    "schedule": {"kind": "classical"},
    "max_iters": 200,
    "oracle_budget": 5_000,
}


def test_run_solves_each_distinct_oracle_once(tmp_path, monkeypatch):
    # each solve appends a line to a file, so forked pool workers, which
    # inherit the patched oracle, count too
    solves = tmp_path / "solves.txt"
    solve = diagnostics.reference_min

    def counting_solve(problem, budget):
        with open(solves, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(problem, budget)

    monkeypatch.setattr(diagnostics, "reference_min", counting_solve)
    cfg = write_config(tmp_path / "c.json", [dict(LASSO_RUN, name=f"l{i}") for i in range(4)])
    for jobs, out in (("2", "par"), ("1", "seq")):
        assert cli.main(["run", str(cfg), "--jobs", jobs, "--out", str(tmp_path / out)]) == 0
    assert len(solves.read_text().splitlines()) == 2
    outputs = sorted((tmp_path / "seq").iterdir())
    assert len(outputs) == 12  # a CSV, its sidecar and a report per run
    for path in outputs:
        assert path.read_bytes() == (tmp_path / "par" / path.name).read_bytes()


# 8 runs on one lasso, ending at different iterations: a batch shrinks as
# they end, and absorbed and recorded-every-k runs take part
SHARED_LASSO_RUNS = [
    dict(LASSO_RUN, name=name, problem={"name": "lasso", "dim": 10, "seed": 4}, **keys)
    for name, keys in (
        ("fista", {"max_iters": 1500}),
        ("fista-cd2", {"schedule": {"kind": "chambolle_dossal", "rho": 2.0}, "max_iters": 1200,
                       "record_every": 7}),
        ("fista-const2", {"schedule": {"kind": "constant", "tau": 2.0}, "max_iters": 3000}),
        ("ista", {"algorithm": "ista", "schedule": None, "max_iters": 20000, "anchor": "none"}),
        ("mfista", {"algorithm": "mfista", "max_iters": 800}),
        ("mfista-att2", {"algorithm": "mfista", "schedule": {"kind": "attouch_shifted", "rho": 2.0},
                         "max_iters": 1500, "record_every": 3}),
        ("fista-aujol", {"schedule": {"kind": "aujol_dossal", "a": 5.0, "d": 0.5}, "max_iters": 1000}),
        ("fista-att3", {"schedule": {"kind": "attouch_shifted", "rho": 3.0}, "max_iters": 2000}),
    )
]


def test_runs_sharing_a_problem_write_the_same_bytes_batched_or_alone(tmp_path, capsys):
    # one batch (--jobs 1), three batches (--jobs 3), and each run alone
    runs = [{k: v for k, v in run.items() if v is not None} for run in SHARED_LASSO_RUNS]
    cfg = write_config(tmp_path / "all.json", runs)
    for jobs in ("1", "3"):
        assert cli.main(["run", str(cfg), "--jobs", jobs, "--out", str(tmp_path / f"jobs{jobs}")]) == 0
        # results print in config order, not in the order the runs end
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("run ")]
        assert printed == [f"run {run['name']}" for run in runs]
    for run in runs:
        one = write_config(tmp_path / f"{run['name']}.json", [run])
        assert cli.main(["run", str(one), "--out", str(tmp_path / "alone")]) == 0
    names = sorted(path.name for path in (tmp_path / "jobs1").iterdir())
    assert len(names) == 3 * len(runs)
    for other in ("jobs3", "alone"):
        assert sorted(path.name for path in (tmp_path / other).iterdir()) == names
        for name in names:
            assert (tmp_path / other / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes(), (other, name)


def test_run_builds_each_distinct_problem_once_per_stage(tmp_path, monkeypatch):
    # the parent's plan (checks and reference solve) and the batch each build
    # a problem once, however many runs share it
    calls = []
    build = cli.build_problem

    def counting_build(spec):
        calls.append(json.dumps(spec, sort_keys=True))
        return build(spec)

    monkeypatch.setattr(cli, "build_problem", counting_build)
    runs = [dict(LASSO_RUN, name=f"l{i}") for i in range(5)] + [dict(QUAD_RUN, name=f"q{i}") for i in range(2)]
    cfg = write_config(tmp_path / "c.json", runs)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 4 and len(set(calls)) == 2


class RecordingPool:
    """An in-process stand-in for the pool: it logs its construction and every task, and runs them serially."""

    log = []

    def __init__(self, max_workers):
        self.log.append("pool")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        self.log.extend(fn for _ in tasks)
        return [fn(*task) for task in tasks]


def test_run_pool_tasks_are_all_execute_run(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "log", [])
    runs = [dict(LASSO_RUN, name=f"l{i}") for i in range(5)] + [dict(QUAD_RUN, name=f"q{i}") for i in range(2)]
    cfg = write_config(tmp_path / "c.json", runs)
    assert cli.main(["run", str(cfg), "--jobs", "2", "--out", str(tmp_path / "out")]) == 0
    # two batches per problem, and no task solves a reference
    assert RecordingPool.log == ["pool"] + [cli._execute_run] * 4


def test_run_unreliable_oracle_exits_4_before_the_pool_starts(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "log", [])
    cfg = write_config(tmp_path / "c.json", [dict(LASSO_RUN, name=f"u{i}", oracle_budget=1) for i in range(2)])
    assert cli.main(["run", str(cfg), "--jobs", "2", "--out", str(tmp_path / "out")]) == 4
    assert RecordingPool.log == []


@pytest.mark.parametrize("jobs, deal", [
    (1, [(["l0", "l1", "l2"], "oracle"), (["q0", "q1"], "catalog")]),
    (2, [(["l0", "l2"], "oracle"), (["l1"], "oracle"), (["q0"], "catalog"), (["q1"], "catalog")]),
    (3, [(["l0"], "oracle"), (["l1"], "oracle"), (["l2"], "oracle"), (["q0"], "catalog"), (["q1"], "catalog")]),
])
def test_run_deals_each_problem_round_robin_in_config_order(tmp_path, monkeypatch, capsys, jobs, deal):
    # problems go in the order they first appear; each problem's runs are
    # dealt round-robin, in config order, into min(jobs, runs) batches
    tasks = []
    execute = cli._execute_run

    def logging_execute(runs, reference, out_dir):
        tasks.append(([run.name for run in runs], reference.source))
        return execute(runs, reference, out_dir)

    monkeypatch.setattr(cli, "_execute_run", logging_execute)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "log", [])
    names = ["l0", "q0", "l1", "q1", "l2"]
    runs = [dict(LASSO_RUN if name[0] == "l" else QUAD_RUN, name=name) for name in names]
    cfg = write_config(tmp_path / "c.json", runs)
    assert cli.main(["run", str(cfg), "--jobs", str(jobs), "--out", str(tmp_path / "out")]) == 0
    assert tasks == deal
    assert RecordingPool.log == ([] if jobs == 1 else ["pool"] + [logging_execute] * len(deal))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"run {name}" for name in names]


def test_parallel_unreliable_oracle_exits_4(tmp_path, capsys):
    # a one-iteration oracle certifies nothing; the parent solves every
    # reference before a pool starts, so --jobs 2 exits as a serial run does
    runs = [dict(LASSO_RUN, name=f"u{i}", problem={"name": "lasso", "dim": 6, "seed": 20 + i},
                 oracle_budget=1) for i in range(2)]
    cfg = write_config(tmp_path / "c.json", runs)
    assert cli.main(["run", str(cfg), "--jobs", "2", "--out", str(tmp_path / "out")]) == 4
    assert "no certificate within oracle_budget = 1" in capsys.readouterr().err


def test_serial_unreliable_oracle_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", [dict(LASSO_RUN, name="u", oracle_budget=1)])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: lasso-d6-s9: no certificate within oracle_budget = 1 ")
    assert "Traceback" not in err


def _count_custom_gates(monkeypatch, log: Path):
    """Wrap the custom family's gate so that every call, in any process, appends a line to log."""
    family = schedules.FAMILIES["custom"]

    def gate(spec):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return family.gate(spec)

    monkeypatch.setitem(schedules.FAMILIES, "custom", dataclasses.replace(family, gate=gate))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_gates_a_custom_schedule_once(tmp_path, monkeypatch, jobs):
    log = tmp_path / "gates.txt"
    _count_custom_gates(monkeypatch, log)
    # tau = 1 throughout: the plain iteration, whose bounded-schedule checks pass at this length
    values = [1.0] * 2001
    cfg = write_config(tmp_path / "c.json", [dict(QUAD_RUN, schedule={"kind": "custom", "values": values},
                                                  max_iters=2000)])
    assert cli.main(["run", str(cfg), "--jobs", jobs, "--out", str(tmp_path / "out")]) == 0
    assert len(log.read_text().splitlines()) == 1
    # a direct run_batch call still gates its spec
    problem = build_problem(QUAD_RUN["problem"])
    list(run_batch(problem, [("fista", {"kind": "custom", "values": values}, SolverOptions(max_iters=20))]))
    assert len(log.read_text().splitlines()) == 2


def test_schedule_command_gates_a_custom_list_once(tmp_path, monkeypatch, capsys):
    log = tmp_path / "gates.txt"
    _count_custom_gates(monkeypatch, log)
    assert cli.main(["schedule", "custom", "--n", "3", "--values", "1,1.5,2,2.5"]) == 0
    assert len(log.read_text().splitlines()) == 1


def test_apg_seed_changes_no_output_byte(tmp_path, monkeypatch):
    # a problem's seed comes from its config alone: APG_SEED, an integer or
    # not, leaves every CSV, sidecar and report as it is
    run = {
        "name": "l",
        "problem": {"name": "lasso", "dim": 4, "seed": 1},
        "algorithm": "fista",
        "schedule": {"kind": "classical"},
        "max_iters": 80,
    }
    cfg = write_config(tmp_path / "c.json", [run])
    monkeypatch.delenv("APG_SEED", raising=False)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "unset")]) == 0
    names = sorted(path.name for path in (tmp_path / "unset").iterdir())
    assert names == ["l.csv", "l.report.json", "l.trace.npy"]
    for value in ("123", "not-a-number"):
        monkeypatch.setenv("APG_SEED", value)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / value)]) == 0
        assert sorted(path.name for path in (tmp_path / value).iterdir()) == names
        for name in names:
            assert (tmp_path / value / name).read_bytes() == (tmp_path / "unset" / name).read_bytes(), (value, name)


def test_schedule_table_shows_golden_ratio_second_step(capsys):
    assert cli.main(["schedule", "classical", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "1.61803398875" in out
    assert "admissibility: ok" in out
    assert "kappa bound" in out


def test_schedule_chambolle_alpha_column(capsys):
    assert cli.main(["schedule", "chambolle_dossal", "--rho", "2", "--n", "4"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:5]]
    alpha = [float(r[2]) for r in rows]
    n = np.arange(1, 5, dtype=float)
    np.testing.assert_allclose(alpha, (n - 1.0) / (n + 2.0), rtol=1e-11)


def test_schedule_single_row_table(capsys):
    assert cli.main(["schedule", "constant", "--tau", "1.5", "--n", "1"]) == 0
    assert "tau sup bound: 1.5" in capsys.readouterr().out


# exit code, sha256 prefix of stdout, and stderr of `apg schedule`: one-row
# and long tables, every family, and each way a custom list passes or fails
# check_admissibility
SCHEDULE_GOLDEN = [
    ("classical --n 1", 0, "ed6481080314d28c", ""),
    ("classical --n 2", 0, "b14f62b8e6138fbd", ""),
    ("classical --n 1000", 0, "dfaabae0a2e7af75", ""),
    ("classical --tau1 2 --n 5", 0, "5f611bac679f146d", ""),
    ("constant --tau 1.5 --n 5", 0, "3989b31f8caa5d04", ""),
    ("constant --n 1000", 0, "2d75e62aa4b3c783", ""),
    ("chambolle_dossal --rho 3 --n 1000", 0, "27dfa6849f89dada", ""),
    ("aujol_dossal --a 5 --d 0.5 --n 1000", 0, "05c0b20f0c0cf79f", ""),
    ("attouch_shifted --rho 2 --n 5", 0, "d5cb30058cf2b15b", ""),
    ("custom --values 1,1.5,2,2.5 --n 3", 0, "4e4967fc07c6ac25", ""),
    ("custom --values 1,1.5,2 --n 3", 0, "accff7c7afe2f0ba", ""),
    ("custom --values 1,3 --n 2", 3, "e3b0c44298fc1c14",
     "error: custom schedule inadmissible at index 1: tau_2 = 3.0 exceeds the bracket bound 1.618033988749895\n"),
    ("custom --values 0.5,1 --n 2", 3, "e3b0c44298fc1c14",
     "error: custom schedule inadmissible at index 0: tau_1 = 0.5 < 1\n"),
    ("custom --values 1 --n 1", 0, "6b6c86f6088c09d9", ""),
    ("custom --values 2,1.5 --n 2", 3, "e3b0c44298fc1c14",
     "error: custom schedule inadmissible at index 1: tau_2 = 1.5 < tau_1 = 2.0\n"),
    ("custom --values 1,1.5 --n 3", 3, "e3b0c44298fc1c14", "error: custom schedule has 2 values, table needs 3\n"),
]


@pytest.mark.parametrize("args, code, digest, err", SCHEDULE_GOLDEN, ids=[row[0] for row in SCHEDULE_GOLDEN])
def test_schedule_output_is_golden(capsys, args, code, digest, err):
    assert cli.main(["schedule"] + args.split()) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == digest
    assert captured.err == err


def test_schedule_gate_failures_exit_3(capsys):
    assert cli.main(["schedule", "aujol_dossal", "--a", "1", "--d", "1", "--n", "5"]) == 3
    assert cli.main(["schedule", "custom", "--values", "1,3", "--n", "2"]) == 3
    assert cli.main(["schedule", "custom", "--values", "1,zap", "--n", "2"]) == 3
    assert cli.main(["schedule", "classical", "--n", "0"]) == 3
    capsys.readouterr()


def test_plotdata_writes_dat_and_svg(tmp_path, mini_config):
    assert cli.main(["run", str(mini_config)]) == 0
    out_dir = Path(json.loads(mini_config.read_text())["out_dir"])
    plots = tmp_path / "plots"
    code = cli.main(["plotdata", str(out_dir / "quad-fista.csv"), str(out_dir / "quad-ista.csv"),
                     "--quantity", "h_gap", "--loglog", "--out", str(plots)])
    assert code == 0
    svg = (plots / "h_gap.svg").read_text()
    assert svg.startswith("<svg")
    for stem in ("quad-fista", "quad-ista"):
        lines = (plots / f"{stem}.h_gap.dat").read_text().splitlines()
        assert len(lines) > 50
        first = lines[0].split()
        assert int(first[0]) == 1
        float(first[1])


def test_plotdata_uses_sibling_report_reference(tmp_path, mini_config):
    assert cli.main(["run", str(mini_config)]) == 0
    out_dir = Path(json.loads(mini_config.read_text())["out_dir"])
    plots = tmp_path / "plots"
    assert cli.main(["plotdata", str(out_dir / "quad-fista.csv"), "--quantity", "h_gap",
                     "--out", str(plots)]) == 0
    report = json.loads((out_dir / "quad-fista.report.json").read_text())
    gap_first = float((plots / "quad-fista.h_gap.dat").read_text().split("\n")[0].split()[1])
    with open(out_dir / "quad-fista.csv") as fh:
        row = next(csv.DictReader(fh))
    assert gap_first == pytest.approx(float(row["h_xn"]) - report["reference"]["min_h"], rel=1e-12)

    override = tmp_path / "plots2"
    assert cli.main(["plotdata", str(out_dir / "quad-fista.csv"), "--quantity", "h_gap",
                     "--min-h", "-1.0", "--out", str(override)]) == 0
    forced = float((override / "quad-fista.h_gap.dat").read_text().split("\n")[0].split()[1])
    assert forced == pytest.approx(float(row["h_xn"]) + 1.0, rel=1e-12)


def test_plotdata_measures_a_gap_from_the_known_infimum(tmp_path, capsys):
    # unattained has no minimizer: its report's min_h is null and its inf_h 0.0,
    # so the gap is h itself and does not close at the trace's last value
    run = dict(QUAD_RUN, name="u", problem={"name": "unattained"}, max_iters=2000)
    cfg = write_config(tmp_path / "c.json", [run])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    reference = json.loads((tmp_path / "runs" / "u.report.json").read_text())["reference"]
    assert reference["min_h"] is None and reference["inf_h"] == 0.0
    capsys.readouterr()
    assert cli.main(["plotdata", str(tmp_path / "runs" / "u.csv"), "--quantity", "h_gap",
                     "--out", str(tmp_path / "p")]) == 0
    assert "note" not in capsys.readouterr().err
    h = read_trace_csv(tmp_path / "runs" / "u.csv")["h_xn"]
    cells = [line.split()[1] for line in (tmp_path / "p" / "u.h_gap.dat").read_text().splitlines()]
    assert cells == [repr(v) for v in h.tolist()] and h.min() > 0.0


def test_plotdata_missing_trace_exits_2(tmp_path, capsys):
    assert cli.main(["plotdata", str(tmp_path / "ghost.csv"), "--quantity", "sigma"]) == 2


@pytest.mark.parametrize("bad_row", ["2,1.0,0.0,oops,3.0,0.5,1.5,,", "2,1.0,0.0,2.5"],
                         ids=["non-numeric cell", "short row"])
def test_plotdata_malformed_trace_exits_2(tmp_path, capsys, bad_row):
    trace = tmp_path / "bad.csv"
    trace.write_text("\n".join([CSV_HEADER, "1,1.0,0.0,2.5,3.0,0.5,1.5,,", bad_row]) + "\n")
    assert cli.main(["plotdata", str(trace), "--quantity", "sigma", "--out", str(tmp_path / "p")]) == 2
    assert "bad.csv" in capsys.readouterr().err


@pytest.fixture()
def quad_trace(tmp_path) -> Path:
    """q.csv, its sidecar and its report, from QUAD_RUN."""
    cfg = write_config(tmp_path / "c.json", [QUAD_RUN])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    return tmp_path / "runs" / "q.csv"


@pytest.mark.parametrize("report", ["{not json", "[1]", '{"reference": [1]}', '{"reference": 2.5}'],
                         ids=["not json", "not an object", "reference a list", "reference a number"])
def test_plotdata_bad_sibling_report_exits_2(tmp_path, quad_trace, capsys, report):
    quad_trace.with_name("q.report.json").write_text(report)
    capsys.readouterr()
    assert cli.main(["plotdata", str(quad_trace), "--quantity", "h_gap", "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "q.report.json" in err and "Traceback" not in err


def test_plotdata_bool_reference_is_not_a_number(tmp_path, quad_trace, capsys):
    # a bool is an int to isinstance, and 10**400 used to raise OverflowError
    report = quad_trace.with_name("q.report.json")
    data = json.loads(report.read_text())
    h = read_trace_csv(quad_trace)["h_xn"]
    for min_h in (True, 10**400):
        data["reference"]["min_h"] = min_h
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["plotdata", str(quad_trace), "--quantity", "h_gap", "--out", str(tmp_path / "p")]) == 0
        assert "no reference value for q.csv" in capsys.readouterr().err
        first = float((tmp_path / "p" / "q.h_gap.dat").read_text().split("\n")[0].split()[1])
        assert first == h[0] - h.min() != h[0] - 1.0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plotdata_non_finite_min_h_exits_2(tmp_path, quad_trace, capsys, value):
    capsys.readouterr()
    plots = tmp_path / "p"
    assert cli.main(["plotdata", str(quad_trace), "--quantity", "h_gap", f"--min-h={value}",
                     "--out", str(plots)]) == 2
    assert capsys.readouterr().err == f"error: --min-h must be a finite number, got {value}\n"
    assert not plots.exists()


@pytest.mark.parametrize("command", ["run", "plotdata"])
def test_output_directory_that_cannot_be_created_exits_2(tmp_path, quad_trace, monkeypatch, capsys, command):
    blocker = tmp_path / "F"
    blocker.write_text("")
    solves = []
    monkeypatch.setattr(cli, "resolve_reference", lambda *args, **kwargs: solves.append(args))
    if command == "run":
        # every run is checked before the directory is made
        bad = write_config(tmp_path / "bad.json", [dict(QUAD_RUN, schedule={"kind": "custom", "values": [1.0, 3.0]},
                                                        max_iters=1)])
        assert cli.main(["run", str(bad), "--out", str(blocker)]) == 3
        argv = ["run", str(write_config(tmp_path / "c.json", [dict(LASSO_RUN, name="l")]))]
    else:
        argv = ["plotdata", str(quad_trace), "--quantity", "sigma"]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot create output directory {blocker}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert solves == []  # and no reference is solved first


def test_plotdata_traces_with_one_file_name_exit_2(tmp_path, quad_trace, capsys):
    other = tmp_path / "b" / "q.csv"
    other.parent.mkdir()
    other.write_bytes(quad_trace.read_bytes())
    capsys.readouterr()
    plots = tmp_path / "p"
    assert cli.main(["plotdata", str(quad_trace), str(other), "--quantity", "sigma", "--out", str(plots)]) == 2
    assert capsys.readouterr().err == f"error: {quad_trace} and {other} would both write {plots / 'q.sigma.dat'}\n"
    assert not plots.exists()


def test_plotdata_empty_trace_gives_an_empty_dat_left_out_of_the_svg(tmp_path, quad_trace, capsys):
    # truncated at n = 1: the CSV is its header alone
    stuck = {"name": "stuck", "problem": {"name": "affine-descent"}, "algorithm": "ista", "max_iters": 50,
             "divergence_threshold": 1e-300}
    cfg = write_config(tmp_path / "stuck.json", [stuck])
    cli.main(["run", str(cfg), "--out", str(quad_trace.parent)])
    empty = quad_trace.with_name("stuck.csv")
    assert empty.read_text() == CSV_HEADER + "\n"
    # with the sidecar and the report, then parsed and with the trace's own minimum
    for drop in ([], ["stuck.trace.npy", "stuck.report.json"]):
        for name in drop:
            quad_trace.with_name(name).unlink()
        plots = tmp_path / f"plots{len(drop)}"
        capsys.readouterr()
        assert cli.main(["plotdata", str(quad_trace), str(empty), "--quantity", "h_gap", "--loglog",
                         "--out", str(plots)]) == 0
        assert "stuck.csv has no rows" in capsys.readouterr().err
        assert (plots / "stuck.h_gap.dat").read_bytes() == b""
        assert (plots / "q.h_gap.dat").stat().st_size > 0
        svg = (plots / "h_gap.svg").read_text()
        assert "stuck" not in svg and ">q<" in svg
    # the empty trace alone: nothing to plot
    assert cli.main(["plotdata", str(empty), "--quantity", "h_gap", "--out", str(tmp_path / "alone")]) == 0
    assert (tmp_path / "alone" / "stuck.h_gap.dat").read_bytes() == b""
    assert "no plottable data" in (tmp_path / "alone" / "h_gap.svg").read_text()


def test_plotdata_dat_bytes_are_one_repr_per_point(tmp_path):
    # classical FISTA on this quadratic absorbs at n = 202: a constant tail
    cfg = write_config(tmp_path / "c.json", [dict(QUAD_RUN, max_iters=1500)])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    trace = tmp_path / "runs" / "q.csv"
    cols = read_trace_csv(trace)
    ref = json.loads(trace.with_name("q.report.json").read_text())["reference"]["min_h"]
    values = {"h_gap": cols["h_xn"] - ref, "sigma": cols["sigma_n"], "step_norm": cols["step_norm"]}
    values["n_times_gap"] = cols["n"] * values["h_gap"]
    assert np.unique(values["h_gap"][300:]).size == 1
    for quantity, vals in values.items():
        assert cli.main(["plotdata", str(trace), "--quantity", quantity, "--out", str(tmp_path / "p")]) == 0
        expected = "".join(f"{ni} {vi!r}\n" for ni, vi in zip(cols["n"].tolist(), vals.tolist()) if math.isfinite(vi))
        assert (tmp_path / "p" / f"q.{quantity}.dat").read_text() == expected, quantity


def test_plotdata_malformed_row_next_to_a_stale_sidecar_exits_2(tmp_path, quad_trace, capsys):
    lines = quad_trace.read_text().splitlines(keepends=True)
    lines[2] = "2,1.0,0.0,oops,3.0,0.5,1.5,,\n"
    quad_trace.write_text("".join(lines))
    assert quad_trace.with_suffix(".trace.npy").exists()
    capsys.readouterr()
    assert cli.main(["plotdata", str(quad_trace), "--quantity", "sigma", "--out", str(tmp_path / "p")]) == 2
    assert "q.csv" in capsys.readouterr().err


def test_plotdata_rejects_unknown_quantity(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plotdata", str(tmp_path / "x.csv"), "--quantity", "entropy"])
    assert exc.value.code == 2


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
