"""Acceptance checks over the shipped suite config.

Every test stamps one visible PASS/FAIL line, so running

    python3 -m pytest tests/test_acceptance.py -q

doubles as the acceptance report. The heavy lifting happens once in the
session-scoped `suite` fixture (see conftest), which executes
configs/paper_suite.json into a temp directory.
"""

import csv
import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from apglab import cli, diagnostics, schedules
from helpers import attouch_condition_delta

SUITE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_suite.json"


def _say(capsys, num, title, verdict):
    with capsys.disabled():
        print(f"acceptance {num:>2}: {title}: {verdict}")


@contextmanager
def stamped(capsys, num, title):
    try:
        yield
    except BaseException:
        _say(capsys, num, title, "FAIL")
        raise
    _say(capsys, num, title, "PASS")


def column(path, name):
    with open(path, newline="") as fh:
        cells = [row[name] for row in csv.DictReader(fh)]
    return np.array([float(v) if v else np.nan for v in cells])


def suite_runs():
    with open(SUITE_CONFIG) as fh:
        return json.load(fh)["runs"]


ADMISSIBLE_FAMILIES = [
    {"kind": "classical"},
    {"kind": "chambolle_dossal", "rho": 2.0},
    {"kind": "chambolle_dossal", "rho": 3.0},
    {"kind": "chambolle_dossal", "rho": 5.0},
    {"kind": "aujol_dossal", "a": 5.0, "d": 0.5},
    {"kind": "attouch_shifted", "rho": 2.0},
    {"kind": "constant", "tau": 1.0},
]


def test_suite_runs_clean(suite):
    assert suite.exit_code == 0
    for run in suite_runs():
        assert suite.csv(run["name"]).exists()
        report = suite.report(run["name"])
        assert diagnostics.report_ok(report), diagnostics.failed_checks(report)


def test_c01_schedule_admissibility(capsys):
    with stamped(capsys, 1, "admissibility residuals <= 1e-12 up to n=1e5"):
        for spec in ADMISSIBLE_FAMILIES:
            taus = schedules.prefix(spec, 100_000)
            rep = schedules.check_admissibility(taus)
            assert rep.ok, (spec, rep.reason)
            assert rep.tau1_deficit <= 1e-12
            assert rep.worst_lower <= 1e-12
            assert rep.worst_upper <= 1e-12
            assert rep.worst_square <= 1e-12
            assert rep.worst_increment <= 1e-12
        growth = schedules.classical_lower_bound_check(schedules.prefix({"kind": "classical"}, 100_000))
        assert growth["min_slack"] >= 0.0


def test_c02_attouch_condition_deltas(capsys):
    with stamped(capsys, 2, "attouch/aujol prefix deltas under analytic caps"):
        att = schedules.prefix({"kind": "attouch_shifted", "rho": 2.0}, 100_000)
        assert attouch_condition_delta(att) <= (1.0 + math.sqrt(5.0)) / 4.0 + 1e-12
        auj = schedules.prefix({"kind": "aujol_dossal", "a": 5.0, "d": 0.5}, 100_000)
        assert attouch_condition_delta(auj) <= 1.0 / math.sqrt(5.0) + 1e-12


def test_c03_momentum_expansion_residual(capsys):
    with stamped(capsys, 3, "classical alpha_n = 1 - 3/n + o(1/n)"):
        r = schedules.folklore_expansion_check(schedules.prefix({"kind": "classical"}, 100_001))
        assert abs(r[-1]) < 0.01
        assert abs(r[-1]) < abs(r[99])


def test_c04_key_inequality_floor(capsys, suite):
    with stamped(capsys, 4, "key inequality residual >= -1e-10 on every trace"):
        for run in suite_runs():
            resid = column(suite.csv(run["name"]), "key_residual")
            finite = resid[np.isfinite(resid)]
            assert finite.size > 0
            assert float(np.min(finite)) >= -1e-10, run["name"]


def test_c05_energy_monotonicity_ledger(capsys, suite):
    with stamped(capsys, 5, "sigma/descent checks on fista, h/sigma checks on mfista"):
        for run in suite_runs():
            checks = suite.report(run["name"])["checks"]
            if run["algorithm"] in ("fista", "ista"):
                assert checks["sigma_monotone"]["status"] == "pass", run["name"]
                assert checks["descent_ledger"]["status"] == "pass", run["name"]
            else:
                assert checks["monotone_h"]["status"] == "pass", run["name"]
                assert checks["sigma_monotone"]["status"] == "pass", run["name"]
                assert checks["mfista_one_step"]["status"] == "pass", run["name"]


def test_c06_quadratic_rate_certificate(capsys, suite):
    names = ["lasso10-fista", "lasso50-fista", "lasso10-fista-cd2", "lasso50-fista-cd2"]
    with stamped(capsys, 6, "gap <= beta_z kappa^2 / n^2 with oracle margin"):
        for name in names:
            rep = suite.report(name)
            assert rep["checks"]["rate_O_n2"]["status"] == "pass", name
            assert rep["reference"]["source"] == "oracle"
            err = rep["reference"]["error_bar"]
            assert err < 1e-10
            n = column(suite.csv(name), "n")
            gap = column(suite.csv(name), "h_xn") - rep["reference"]["min_h"]
            bound = rep["beta_z"] * rep["kappa"] ** 2 / n**2
            assert np.all(bound - gap > err), name


def test_c07_bounded_tau_rates(capsys, suite):
    with stamped(capsys, 7, "ista decade decay of n*gap and step-square tails"):
        checks = suite.report("lasso10-ista")["checks"]
        assert checks["rate_o_n"]["status"] == "pass"
        assert checks["summability_tails"]["status"] == "pass"
        assert checks["summability_tails"]["worst_residual"] < 1e-8


def test_c08_unattained_infimum(capsys, suite):
    with stamped(capsys, 8, "unattained problem: h -> inf h while iterates escape"):
        h = column(suite.csv("unattained-fista"), "h_xn")
        assert h[-1] < 1e-3
        checks = suite.report("unattained-fista")["checks"]
        assert checks["divergence_xnorm"]["status"] == "pass"


def test_c09_affine_descent_contrast(capsys, suite):
    with stamped(capsys, 9, "affine: fista steps blow up, ista steps stay at 1"):
        z = column(suite.csv("affine-fista"), "step_norm")
        assert z[0] == 1.0
        assert np.all(z >= 1.0 - 1e-12)
        assert np.all(np.diff(z[1:]) > 0.0)
        assert z[-1] > 100.0
        h = column(suite.csv("affine-fista"), "h_xn")
        assert float(np.min(h)) < -1e6
        assert suite.report("affine-fista")["checks"]["running_min"]["status"] == "pass"

        s = column(suite.csv("affine-ista"), "step_norm")
        assert float(np.max(np.abs(s - 1.0))) <= 1e-12
        assert suite.report("affine-ista")["checks"]["divergence_xnorm"]["status"] == "pass"


def test_c10_mfista_tau2_decay(capsys, suite):
    with stamped(capsys, 10, "mfista attouch_shifted: tau^2-weighted gap decays"):
        rep = suite.report("lasso10-mfista-att2")
        assert rep["checks"]["rate_tau2_decay"]["status"] == "pass"
        assert rep["rate_fit"]["ok"]
        assert rep["rate_fit"]["p"] >= 1.9


def test_c11_quasi_fejer_ledger(capsys, suite):
    with stamped(capsys, 11, "anchored fejer ledger and distance convergence"):
        checks = suite.report("lasso10-fista-long")["checks"]
        assert checks["fejer"]["status"] == "pass"
        assert checks["fejer_distance"]["status"] == "pass"
        assert checks["fejer_distance"]["worst_residual"] < 1e-4


def test_c12_rate_fitter_calibration(capsys):
    with stamped(capsys, 12, "fit_rate recovers exact 1/n and 1/n^2 exponents"):
        n = np.arange(1, 20_001)
        for p in (1.0, 2.0):
            fit = diagnostics.fit_rate(n, n.astype(float) ** -p)
            assert fit.ok
            assert abs(fit.p - p) < 0.01


def suite_digest(out_dir: Path) -> str:
    """First 16 hex digits of the sha256 of `sha256sum` over every *.csv and *.report.json, sorted by name."""
    files = sorted((p for p in out_dir.iterdir() if p.name.endswith((".csv", ".report.json"))),
                   key=lambda p: p.name)
    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in files)
    return hashlib.sha256(listing.encode()).hexdigest()[:16]


def test_c13_byte_identical_reruns(capsys, suite, tmp_path):
    digest = suite_digest(suite.out_dir)
    with stamped(capsys, 13, f"rerunning the suite reproduces every CSV and report byte (digest {digest})"):
        again = tmp_path / "again"
        assert cli.main(["run", str(SUITE_CONFIG), "--out", str(again), "--jobs", "4"]) == 0
        for run in suite_runs():
            for name in (f"{run['name']}.csv", f"{run['name']}.report.json"):
                assert (again / name).read_bytes() == (suite.out_dir / name).read_bytes(), name
