import dataclasses
import json
import math

import numpy as np
import pytest

from apglab import SolverOptions, build_problem, fista_run, ista_run, mfista_run, run_algorithm, schedules
from apglab.diagnostics import (
    ACCUMULATED_TOL,
    DIVERGENCE_FACTOR,
    LYAPUNOV_NOISE,
    MONOTONE_TOL,
    OSCILLATION_TOL,
    RATE_BOUND_SLACK,
    FAIL,
    PASS,
    Decades,
    ReferenceInfo,
    Verdict,
    beta_z_from_trace,
    build_report,
    failed_checks,
    fit_rate,
    reference_min,
    report_ok,
    report_to_json,
    resolve_reference,
)
from apglab.errors import OracleNotApplicable

QUAD2 = {"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]}


def test_decade_indexing_is_exact_at_powers_of_ten():
    n = np.array([1, 9, 10, 99, 100, 999, 1000, 10_000, 100_000])
    assert Decades(n).index.tolist() == [0, 0, 1, 1, 2, 2, 3, 4, 5]


def test_complete_decade_maxes_drop_partial_decades():
    n = np.arange(1, 501)
    vals = 1.0 / n
    decades = Decades(n)
    ks, maxes = decades.complete, decades.maxes(vals.astype(float))
    assert ks == [0, 1]
    assert maxes[0] == 1.0
    assert maxes[1] == pytest.approx(0.1)
    full = np.arange(1, 1000)
    assert Decades(full).complete == [0, 1, 2]


def test_last_complete_decade_mask_bounds():
    n = np.arange(1, 5001)
    mask = Decades(n).last
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


def test_fit_rate_ignores_gaps_within_the_error_bar():
    # a run that settles a few ulps above a certified minimum, as on an
    # ulp plateau, ends the fitted window like a gap of exactly zero
    n = np.arange(1, 10_001, dtype=np.int64)
    gaps = 2.0 * n.astype(float) ** (-2.0)
    gaps[7000:] = 8.9e-16
    assert fit_rate(n, gaps).n_hi == 10_000
    fit = fit_rate(n, gaps, floor=3.6e-14)
    assert fit.ok and fit.underflow_flagged and fit.n_hi == 7000
    assert fit.p == pytest.approx(2.0, abs=0.01)


def _divergence(trace, problem):
    return build_report(trace, problem, resolve_reference(problem))["checks"]["divergence_xnorm"]


def test_certify_divergence_on_real_runs():
    affine = build_problem({"name": "affine-descent"})
    trace = ista_run(affine, SolverOptions(max_iters=10_000))
    assert _divergence(trace, affine)["status"] == "pass"

    quad = build_problem(QUAD2)
    conv = fista_run(quad, {"kind": "classical"}, SolverOptions(max_iters=100))
    assert _divergence(conv, quad)["status"] == "not-applicable"


def test_certify_divergence_demands_a_decisive_factor():
    # the unaccelerated method drifts like sqrt(n) on this problem, which
    # stays under a 10x spread per half-decade at this horizon; the
    # certificate refuses it rather than extrapolating
    unatt = build_problem({"name": "unattained"})
    trace = ista_run(unatt, SolverOptions(max_iters=10_000))
    assert _divergence(trace, unatt)["status"] == "fail"


def test_reference_oracle_on_lasso_is_tight():
    p = build_problem({"name": "lasso", "dim": 6, "seed": 9})
    oracle = reference_min(p, budget=20_000)
    # certified: a closed interval whose width and rounding allowance make the error bar
    assert oracle.min_h == oracle.upper and oracle.certificate == "rescaled dual gap"
    assert oracle.error_bar == max(oracle.upper - oracle.lower, 0.0) + oracle.allowance
    assert 0.0 < oracle.allowance <= oracle.error_bar <= 1e-12 * max(1.0, abs(oracle.min_h))
    assert 0 < oracle.iterations < 20_000
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
    assert info.lower == info.upper == info.min_h and info.certificate == "closed form" and info.iterations == 0

    affine = build_problem({"name": "affine-descent"})
    info = resolve_reference(affine)
    assert info.source == "none"
    assert info.inf_h == -math.inf

    lasso = build_problem({"name": "lasso", "dim": 6, "seed": 9})
    info = resolve_reference(lasso, budget=5000)
    assert info.source == "oracle" and info.certificate == "rescaled dual gap"
    assert info.lower <= info.upper == info.min_h and 0 < info.iterations <= 5000


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
    v = build_report(m_classical, p, ref)["checks"]["rate_tau2_decay"]
    assert v["status"] == "not-applicable"  # delta bound is exactly 1
    f = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=200))
    assert build_report(f, p, ref)["checks"]["rate_tau2_decay"]["status"] == "not-applicable"


def test_no_reference_value_on_a_problem_that_may_have_a_minimizer():
    # min_h and inf_h both None, and a minimizer not ruled out: no catalog
    # problem gives such a reference, so it is built by hand
    quad = build_problem(QUAD2)
    trace = ista_run(quad, SolverOptions(max_iters=1000))
    report = build_report(trace, quad, ReferenceInfo(min_h=None, error_bar=0.0, witness=None, source="none"))
    details = {name: v["detail"] for name, v in report["checks"].items() if v["status"] == "not-applicable"}
    assert details["rate_o_n"] == details["summability_tails"] == "no reference minimum"
    assert details["running_min"] == "no lower-bound reference"
    assert report["rate_fit"] is None


def sequence_lemma_checks(n_max: int = 100_000) -> dict:
    """Finite-prefix consistency probes of the summability lemma.

    For three sample decreasing sequences, classifies each side of the
    equivalence (summability of alpha_n) <=> (n alpha_n -> 0 and
    sum n (alpha_n - alpha_{n+1}) summable) by decade trends, then
    verifies the sides agree. These are consistency indicators on a
    prefix, not proofs.
    """
    n = np.arange(2, n_max + 1, dtype=float)
    samples = {
        "inverse_square": 1.0 / (n * n),
        "harmonic": 1.0 / n,
        "log_damped": 1.0 / (n * np.log(n) ** 2),
    }
    out = {}
    for name, alpha in samples.items():
        ints = n.astype(np.int64)
        summable = _partial_sums_converging(ints, alpha)
        n_alpha = n * alpha
        to_zero = float(n_alpha[-1]) < 0.01
        ndiff = n[:-1] * (alpha[:-1] - alpha[1:])
        ndiff_summable = _partial_sums_converging(ints[:-1], ndiff)
        consistent = summable == (to_zero and ndiff_summable)
        out[name] = Verdict(
            PASS if consistent else FAIL,
            float(n_alpha[-1]),
            int(n[-1]),
            f"summable={summable} n_alpha_to_zero={to_zero} ndiff_summable={ndiff_summable}",
        )
    return out


def _partial_sums_converging(n: np.ndarray, terms: np.ndarray) -> bool:
    """Decade increments of the partial sums shrink by at least 10%."""
    decades = Decades(n)
    sums = [float(np.sum(terms[decades.index == k])) for k in decades.complete]
    if len(sums) < 2:
        return False
    return all(b < 0.9 * a for a, b in zip(sums[:-1], sums[1:]))


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
    assert report["schema_version"] == 4
    assert set(report["reference"]) == {"min_h", "error_bar", "source", "inf_h", "lower", "upper", "iterations",
                                        "certificate"}
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


# --- every report check, one cell past its stated tolerance --------------
#
# Each base is a passing run; each case copies its trace, moves one cell just
# past the check's tolerance (one pass case: exactly onto it) and expects the
# verdict at that cell's n.

def _base_runs():
    quad = build_problem(QUAD2)
    affine = build_problem({"name": "affine-descent"})
    anchored = {"anchor": quad.known_argmin}
    return {
        "fista": (quad, "fista", {"kind": "classical"}, dict(max_iters=300, **anchored), -1e6),
        "fista-sparse": (quad, "fista", {"kind": "classical"},
                         dict(max_iters=300, record_every=300, **anchored), -1e6),
        "fista-const": (quad, "fista", {"kind": "constant", "tau": 2.0}, dict(max_iters=1000, **anchored), -1e6),
        "mfista": (quad, "mfista", {"kind": "attouch_shifted", "rho": 2.0},
                   dict(max_iters=1000, **anchored), -1e6),
        "ista-affine": (affine, "ista", None, dict(max_iters=1000), -999.5),
    }


_BASES = {}


def _base(name):
    """(trace, problem, reference, liminf_threshold, report) of a passing base run, cached."""
    if name not in _BASES:
        problem, algorithm, schedule, options, threshold = _base_runs()[name]
        trace = run_algorithm(problem, algorithm, schedule, SolverOptions(**options))
        reference = resolve_reference(problem)
        report = build_report(trace, problem, reference, liminf_threshold=threshold)
        _BASES[name] = (trace, problem, reference, threshold, report)
    return _BASES[name]


COLUMNS = ("tau", "alpha", "h", "sigma", "step_norm", "x_norm", "key_residual", "lyapunov", "fejer_dist")


def _index(trace, n):
    return int(np.flatnonzero(trace.n == n)[0])


def _decade_max(trace, values, lo):
    return float(np.max(values[(trace.n >= lo) & (trace.n < 10 * lo)]))


def _keyineq(t, rep, ref):
    t.key_residual[10] = -2.0 * MONOTONE_TOL
    return t.n[10], ref


def _monotone_h(t, rep, ref):
    t.h[10] = np.nextafter(t.h[9], math.inf)  # the tolerance is 0
    return t.n[10], ref


def _sigma_monotone(t, rep, ref):
    t.sigma[10] = t.sigma[9] + 2.0 * MONOTONE_TOL
    return t.n[10], ref


def _descent_ledger(t, rep, ref):
    k = 10
    lhs = (1.0 - t.alpha[k] ** 2) * t.step_norm[k] ** 2 / (2.0 * t.gamma)
    t.sigma[k] = t.sigma[k + 1] + lhs - 2.0 * MONOTONE_TOL
    return t.n[k], ref


def _mfista_one_step(t, rep, ref):
    k = 10
    ratio = (t.tau[k] / t.tau[k + 1]) ** 2
    t.sigma[k] = t.h[k] + (t.sigma[k + 1] - 2.0 * MONOTONE_TOL - t.h[k]) / ratio
    return t.n[k], ref


def _lyapunov(t, rep, ref):
    k = 10
    noise = max(MONOTONE_TOL, LYAPUNOV_NOISE * t.tau[k] ** 2 * max(1.0, abs(t.anchor_h)))
    t.lyapunov[k] = t.lyapunov[k - 1] + 2.0 * noise
    return t.n[k], ref


def _fejer(t, rep, ref):
    t.lyapunov[50] = t.lyapunov[0] + ACCUMULATED_TOL / t.gamma
    return t.n[50], ref


def _fejer_distance(t, rep, ref):
    k = _index(t, 100)  # the first n of the last complete decade
    t.fejer_dist[k] += 2.0 * OSCILLATION_TOL
    return 100, ref


def _rate_O_n2(excess):
    def perturb(t, rep, ref):
        bound = rep["beta_z"] * rep["kappa"] ** 2 / float(t.n[10]) ** 2
        t.h[10] = ref.min_h + bound + excess * RATE_BOUND_SLACK
        return t.n[10], ref
    return perturb


def _rate_O_n2_margin_at_error_bar(t, rep, ref):
    # the true min h lies within error_bar of min_h, so a margin of exactly
    # the error bar cannot be a violation
    n = float(t.n[10])
    bound = rep["beta_z"] * rep["kappa"] * rep["kappa"] / (n * n)
    t.h[10] = ref.min_h + bound - 0.5 * RATE_BOUND_SLACK
    return t.n[10], dataclasses.replace(ref, error_bar=-float((t.h[10] - ref.min_h) - bound))


def _sigma_h_shared_limit(t, rep, ref):
    t.sigma[-1] = t.h[-1] + 2.0 * ACCUMULATED_TOL
    return t.n[-1], ref


def _rate_o_n(excess):
    # the decade maximum of n (h - min h) at n = 100 rises past the one
    # before by `excess` times the slack n_last * error_bar
    def perturb(t, rep, ref):
        ref = dataclasses.replace(ref, error_bar=1e-9)
        slack = float(t.n[-1]) * ref.error_bar
        before = _decade_max(t, t.n * (t.h - ref.min_h), 10)
        t.h[_index(t, 100)] = ref.min_h + (before + excess * slack) / 100.0
        return 100, ref
    return perturb


def _summability_tails(t, rep, ref):
    t.step_norm[_index(t, 100)] = math.sqrt(2.0 * ACCUMULATED_TOL / 100.0)
    return 100, ref


def _rate_tau2_decay(t, rep, ref):
    first = _decade_max(t, t.tau ** 2 * (t.h - ref.min_h), 1)
    k = _index(t, 100)
    t.h[k] = ref.min_h + 2.0 * (first / 100.0) / t.tau[k] ** 2
    return 100, ref


def _divergence_ratio(t, rep, ref):
    mid = _index(t, 32)  # nearest recorded n to sqrt(1 * 1000)
    t.x_norm[mid] = t.x_norm[-1] / DIVERGENCE_FACTOR
    return 32, ref


def _divergence_drop(t, rep, ref):
    k = _index(t, 800)
    t.x_norm[k] = t.x_norm[k + 1] * (1.0 + 2e-12)
    return 800, ref


def _running_min_escape(t, rep, ref):
    t.h[-1] = -999.5  # the configured threshold, which must be beaten strictly
    return t.n[-1], ref


def _running_min_finite(t, rep, ref):
    tol = max(1e-6, rep["beta_z"] * rep["kappa"] ** 2 / float(t.n[-1]) ** 2)
    t.h[-1] = ref.min_h + 2.0 * tol
    return t.n[-1], ref


FAIL_CASES = [
    pytest.param("keyineq", "fista", _keyineq, "fail", id="keyineq"),
    pytest.param("monotone_h", "mfista", _monotone_h, "fail", id="monotone_h"),
    pytest.param("sigma_monotone", "fista", _sigma_monotone, "fail", id="sigma_monotone"),
    pytest.param("descent_ledger", "fista", _descent_ledger, "fail", id="descent_ledger"),
    pytest.param("mfista_one_step", "mfista", _mfista_one_step, "fail", id="mfista_one_step"),
    pytest.param("lyapunov", "fista", _lyapunov, "fail", id="lyapunov"),
    pytest.param("fejer", "fista", _fejer, "fail", id="fejer"),
    pytest.param("fejer_distance", "fista-const", _fejer_distance, "fail", id="fejer_distance"),
    pytest.param("rate_O_n2", "fista", _rate_O_n2(2.0), "fail", id="rate_O_n2"),
    pytest.param("rate_O_n2", "fista", _rate_O_n2(0.5), "inconclusive", id="rate_O_n2-inconclusive"),
    pytest.param("rate_O_n2", "fista", _rate_O_n2_margin_at_error_bar, "pass", id="rate_O_n2-margin-at-error-bar"),
    pytest.param("sigma_h_shared_limit", "fista-const", _sigma_h_shared_limit, "fail", id="sigma_h_shared_limit"),
    pytest.param("rate_o_n", "fista-const", _rate_o_n(2.0), "fail", id="rate_o_n"),
    pytest.param("rate_o_n", "fista-const", _rate_o_n(0.5), "inconclusive", id="rate_o_n-inconclusive"),
    pytest.param("summability_tails", "fista-const", _summability_tails, "fail", id="summability_tails"),
    pytest.param("rate_tau2_decay", "mfista", _rate_tau2_decay, "fail", id="rate_tau2_decay"),
    pytest.param("divergence_xnorm", "ista-affine", _divergence_ratio, "fail", id="divergence_xnorm-ratio"),
    pytest.param("divergence_xnorm", "ista-affine", _divergence_drop, "fail", id="divergence_xnorm-drop"),
    pytest.param("running_min", "ista-affine", _running_min_escape, "fail", id="running_min-escape"),
    pytest.param("running_min", "fista-sparse", _running_min_finite, "fail", id="running_min-finite"),
]


@pytest.mark.parametrize("check, base, perturb, status", FAIL_CASES)
def test_each_check_flags_one_cell_past_its_tolerance(check, base, perturb, status):
    trace, problem, reference, threshold, report = _base(base)
    assert report["checks"][check]["status"] == "pass"
    bad = dataclasses.replace(trace, **{c: getattr(trace, c).copy() for c in COLUMNS})
    at_n, reference = perturb(bad, report, reference)
    verdict = build_report(bad, problem, reference, liminf_threshold=threshold)["checks"][check]
    assert (verdict["status"], verdict["location_n"]) == (status, int(at_n)), verdict


def test_fail_cases_cover_every_check_of_every_algorithm():
    emitted = set()
    for base in ("fista", "mfista", "ista-affine"):
        emitted |= set(_base(base)[4]["checks"])
    assert {case.values[0] for case in FAIL_CASES} == emitted
    assert len(emitted) == 15


def test_build_report_gates_no_schedule_spec(monkeypatch):
    # the trace's spec is canonical already; the report reads its family's
    # bounds without running a family gate or canonical_schedule_spec again
    quad = build_problem(QUAD2)
    custom = {"kind": "custom", "values": schedules.prefix({"kind": "classical"}, 201).tolist()}
    traces = [run_algorithm(quad, algorithm, spec, SolverOptions(max_iters=200, anchor=quad.known_argmin))
              for algorithm, spec in (("fista", {"kind": "classical"}), ("fista", custom), ("ista", None),
                                      ("mfista", {"kind": "attouch_shifted", "rho": 2.0}),
                                      ("fista", {"kind": "constant", "tau": 2.0}))]
    calls = []
    for kind, family in list(schedules.FAMILIES.items()):
        def gate(spec, inner=family.gate):
            calls.append(spec)
            return inner(spec)
        monkeypatch.setitem(schedules.FAMILIES, kind, dataclasses.replace(family, gate=gate))
    canonical = schedules.canonical_schedule_spec
    monkeypatch.setattr(schedules, "canonical_schedule_spec", lambda spec: calls.append(spec) or canonical(spec))
    reference = resolve_reference(quad)
    for trace in traces:
        build_report(trace, quad, reference)
    assert calls == []
