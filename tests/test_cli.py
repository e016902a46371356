import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from apglab import cli, diagnostics
from apglab.solvers import CSV_HEADER


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
], ids=["dim-str", "rows-nan", "diag-str", "seed-null", "weight-str", "condition-nan", "dim-fraction",
        "box-lengths", "seed-negative", "dim-negative", "rho-str", "tau1-null", "values-number", "values-str"])
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


def test_run_fail_line_shows_worst_residual_and_n(tmp_path, capsys):
    # the l1-quadratic scaled by c = 1e5 leaves the iterates as at c = 1 and
    # multiplies every h-gap by c; the key-inequality residual at n = 72
    # (about 3 ulps of h) then exceeds the absolute 1e-10 tolerance
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
    assert "keyineq(worst=-1.75e-10, n=72)" in lines[0]
    assert "divergence_xnorm(worst=none, n=none)" in lines[1]


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
    assert len(outputs) == 8
    for path in outputs:
        assert path.read_bytes() == (tmp_path / "par" / path.name).read_bytes()


# 8 runs on one lasso, ending at different iterations: a batch shrinks as
# they end, and absorbed, stopped and recorded-every-k runs take part
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
        ("fista-att3", {"schedule": {"kind": "attouch_shifted", "rho": 3.0}, "max_iters": 2000,
                        "stop_step_norm": 1e-9}),
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
    assert len(names) == 2 * len(runs)
    for other in ("jobs3", "alone"):
        assert sorted(path.name for path in (tmp_path / other).iterdir()) == names
        for name in names:
            assert (tmp_path / other / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes(), (other, name)


def test_run_builds_each_distinct_problem_once_per_stage(tmp_path, monkeypatch):
    # validation, the reference solve and the batch each build a problem
    # once, however many runs share it
    calls = []
    build = cli.build_problem

    def counting_build(spec):
        calls.append(json.dumps(spec, sort_keys=True))
        return build(spec)

    monkeypatch.setattr(cli, "build_problem", counting_build)
    runs = [dict(LASSO_RUN, name=f"l{i}") for i in range(5)] + [dict(QUAD_RUN, name=f"q{i}") for i in range(2)]
    cfg = write_config(tmp_path / "c.json", runs)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 6 and len(set(calls)) == 2


def test_parallel_unreliable_oracle_exits_4(tmp_path, capsys):
    # a one-iteration oracle's stages disagree; the error reaches the parent
    # through the process pool
    runs = [dict(LASSO_RUN, name=f"u{i}", problem={"name": "lasso", "dim": 6, "seed": 20 + i},
                 oracle_budget=1) for i in range(2)]
    cfg = write_config(tmp_path / "c.json", runs)
    assert cli.main(["run", str(cfg), "--jobs", "2", "--out", str(tmp_path / "out")]) == 4
    assert "reference stages disagree" in capsys.readouterr().err


def test_apg_seed_overrides_config_seed(tmp_path, monkeypatch):
    run = {
        "name": "l",
        "problem": {"name": "lasso", "dim": 4, "seed": 1},
        "algorithm": "fista",
        "schedule": {"kind": "classical"},
        "max_iters": 80,
    }
    cfg = write_config(tmp_path / "c.json", [run])
    monkeypatch.delenv("APG_SEED", raising=False)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("APG_SEED", "123")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
    base = (tmp_path / "a" / "l.csv").read_bytes()
    fuzzed = (tmp_path / "b" / "l.csv").read_bytes()
    assert base != fuzzed

    monkeypatch.setenv("APG_SEED", "not-a-number")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "c")]) == 2


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


def test_plotdata_missing_trace_exits_2(tmp_path, capsys):
    assert cli.main(["plotdata", str(tmp_path / "ghost.csv"), "--quantity", "sigma"]) == 2


@pytest.mark.parametrize("bad_row", ["2,1.0,0.0,oops,3.0,0.5,1.5,,", "2,1.0,0.0,2.5"],
                         ids=["non-numeric cell", "short row"])
def test_plotdata_malformed_trace_exits_2(tmp_path, capsys, bad_row):
    trace = tmp_path / "bad.csv"
    trace.write_text("\n".join([CSV_HEADER, "1,1.0,0.0,2.5,3.0,0.5,1.5,,", bad_row]) + "\n")
    assert cli.main(["plotdata", str(trace), "--quantity", "sigma", "--out", str(tmp_path / "p")]) == 2
    assert "bad.csv" in capsys.readouterr().err


def test_plotdata_rejects_unknown_quantity(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plotdata", str(tmp_path / "x.csv"), "--quantity", "entropy"])
    assert exc.value.code == 2


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
