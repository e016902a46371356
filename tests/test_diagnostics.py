import json
import math

import numpy as np
import pytest

from apglab import SolverOptions, build_problem, fista_run, ista_run, mfista_run
from apglab.diagnostics import (
    _decades,
    beta_z_from_trace,
    build_report,
    certify_divergence,
    certify_tau2_decay,
    complete_decade_maxes,
    failed_checks,
    fit_rate,
    last_complete_decade_mask,
    reference_min,
    report_ok,
    report_to_json,
    resolve_reference,
    sequence_lemma_checks,
)
from apglab.errors import OracleNotApplicable

QUAD2 = {"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]}


def test_decade_indexing_is_exact_at_powers_of_ten():
    n = np.array([1, 9, 10, 99, 100, 999, 1000, 10_000, 100_000])
    assert _decades(n).tolist() == [0, 0, 1, 1, 2, 2, 3, 4, 5]


def test_complete_decade_maxes_drop_partial_decades():
    n = np.arange(1, 501)
    vals = 1.0 / n
    ks, maxes = complete_decade_maxes(n, vals.astype(float))
    assert ks == [0, 1]
    assert maxes[0] == 1.0
    assert maxes[1] == pytest.approx(0.1)
    full = np.arange(1, 1000)
    ks2, _ = complete_decade_maxes(full, np.ones(full.size))
    assert ks2 == [0, 1, 2]


def test_last_complete_decade_mask_bounds():
    n = np.arange(1, 5001)
    mask = last_complete_decade_mask(n)
    sel = n[mask]
    assert sel[0] == 100 and sel[-1] == 999


@pytest.mark.parametrize("p_true", [1.0, 2.0, 2.5])
def test_fit_rate_recovers_synthetic_exponents(p_true):
    n = np.arange(1, 10_001, dtype=np.int64)
    gaps = 3.7 * n.astype(float) ** (-p_true)
    fit = fit_rate(n, gaps)
    assert fit.ok
    assert fit.p == pytest.approx(p_true, abs=0.01)
    assert fit.C == pytest.approx(3.7, rel=0.05)


def test_fit_rate_ignores_dead_zeros():
    n = np.arange(1, 10_001, dtype=np.int64)
    gaps = 2.0 * n.astype(float) ** (-2.0)
    gaps[7000:] = 0.0
    fit = fit_rate(n, gaps)
    assert fit.ok
    assert fit.p == pytest.approx(2.0, abs=0.01)


def test_certify_divergence_on_real_runs():
    affine = build_problem({"name": "affine-descent"})
    trace = ista_run(affine, SolverOptions(max_iters=10_000))
    verdict = certify_divergence(trace, affine.argmin_nonempty)
    assert verdict.status == "pass"

    quad = build_problem(QUAD2)
    conv = fista_run(quad, {"kind": "classical"}, SolverOptions(max_iters=100))
    assert certify_divergence(conv, quad.argmin_nonempty).status == "not-applicable"


def test_certify_divergence_demands_a_decisive_factor():
    # the unaccelerated method drifts like sqrt(n) on this problem, which
    # stays under a 10x spread per half-decade at this horizon; the
    # certificate refuses it rather than extrapolating
    unatt = build_problem({"name": "unattained"})
    trace = ista_run(unatt, SolverOptions(max_iters=10_000))
    verdict = certify_divergence(trace, unatt.argmin_nonempty)
    assert verdict.status == "fail"


def test_reference_oracle_on_lasso_is_tight():
    p = build_problem({"name": "lasso", "dim": 6, "seed": 9})
    oracle = reference_min(p, budget=20_000)
    assert oracle.error_bar < 1e-10
    trace = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=2000))
    assert oracle.min_h <= float(np.min(trace.h)) + 1e-12


def test_reference_oracle_refuses_no_minimizer_problems():
    with pytest.raises(OracleNotApplicable):
        reference_min(build_problem({"name": "affine-descent"}), budget=100)


def test_resolve_reference_sources_and_cache():
    quad = build_problem(QUAD2)
    info = resolve_reference(quad)
    assert info.source == "catalog"
    assert info.error_bar == 0.0

    affine = build_problem({"name": "affine-descent"})
    info = resolve_reference(affine)
    assert info.source == "none"
    assert info.inf_h == -math.inf

    lasso = build_problem({"name": "lasso", "dim": 6, "seed": 9})
    assert resolve_reference(lasso, budget=5000).source == "oracle"


def test_beta_z_matches_first_lyapunov_record():
    p = build_problem(QUAD2)
    trace = fista_run(p, {"kind": "classical"},
                      SolverOptions(max_iters=100, anchor=p.known_argmin))
    bz = beta_z_from_trace(trace, p.known_argmin, p.known_min)
    assert bz == pytest.approx(trace.lyapunov[0], rel=1e-12)


def test_tau2_decay_gates():
    p = build_problem({"name": "lasso", "dim": 6, "seed": 9})
    ref = resolve_reference(p, budget=5000)
    m_classical = mfista_run(p, {"kind": "classical"}, SolverOptions(max_iters=200))
    v = certify_tau2_decay(m_classical, ref.min_h)
    assert v.status == "not-applicable"  # delta bound is exactly 1
    f = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=200))
    assert certify_tau2_decay(f, ref.min_h).status == "not-applicable"


def test_sequence_lemma_probes_are_consistent():
    out = sequence_lemma_checks(50_000)
    assert set(out) == {"inverse_square", "harmonic", "log_damped"}
    for verdict in out.values():
        assert verdict.status == "pass", verdict.detail


def test_build_report_shape_and_json():
    p = build_problem(QUAD2)
    trace = fista_run(p, {"kind": "classical"},
                      SolverOptions(max_iters=300, anchor=p.known_argmin))
    report = build_report(trace, p, resolve_reference(p), run_name="unit")
    assert report["schema_version"] == 1
    assert report["run"]["name"] == "unit"
    assert report["kappa"] == 2.0
    for verdict in report["checks"].values():
        assert verdict["status"] in ("pass", "fail", "not-applicable", "inconclusive")
    assert report_ok(report)
    assert failed_checks(report) == []

    text = report_to_json(report)
    round2 = json.loads(text)
    assert round2["checks"].keys() == report["checks"].keys()
    assert report_to_json(report) == text  # stable serialization


def test_report_json_spells_out_infinities():
    p = build_problem({"name": "affine-descent"})
    trace = ista_run(p, SolverOptions(max_iters=200))
    report = build_report(trace, p, resolve_reference(p), run_name="aff",
                          liminf_threshold=-50.0)
    text = report_to_json(report)
    data = json.loads(text)
    assert data["reference"]["inf_h"] == "-inf"
    assert data["checks"]["running_min"]["status"] == "pass"


def test_failed_checks_reports_the_culprit():
    p = build_problem(QUAD2)
    trace = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=50))
    report = build_report(trace, p, resolve_reference(p))
    report["checks"]["keyineq"]["status"] = "fail"
    assert not report_ok(report)
    assert failed_checks(report) == ["keyineq"]
