import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apglab import AdmissibilityError, ParameterError
from apglab import schedules
from apglab.schedules import (
    MAX_STEP_INCREASE,
    Schedule,
    alphas,
    bracket_upper,
    canonical_schedule_spec,
    check_admissibility,
    classical_lower_bound_check,
    folklore_expansion_check,
    prefix,
)
from helpers import attouch_condition_delta, blowsup_partial_sums, classical_taus

FAMILIES = [
    {"kind": "classical"},
    {"kind": "chambolle_dossal", "rho": 2.0},
    {"kind": "chambolle_dossal", "rho": 3.0},
    {"kind": "chambolle_dossal", "rho": 5.0},
    {"kind": "aujol_dossal", "a": 5.0, "d": 0.5},
    {"kind": "attouch_shifted", "rho": 2.0},
    {"kind": "constant", "tau": 1.0},
]


def test_classical_prefix_matches_independent_recursion():
    got = prefix({"kind": "classical"}, 2000)
    want = classical_taus(2000)
    assert np.array_equal(got, want)


def test_classical_prefix_with_larger_start():
    got = prefix({"kind": "classical", "tau1": 2.5}, 500)
    want = classical_taus(500, tau1=2.5)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s["kind"] + str(s.get("rho", s.get("a", ""))))
def test_admissibility_residuals_stay_tiny(spec):
    taus = prefix(spec, 100_000)
    report = check_admissibility(taus)
    assert report.ok
    assert report.tau1_deficit <= 1e-12
    assert report.worst_lower <= 1e-12
    assert report.worst_upper <= 1e-12
    assert report.worst_square <= 1e-12
    assert report.worst_increment <= 1e-12


def test_classical_dominates_linear_growth_exactly():
    growth = classical_lower_bound_check(prefix({"kind": "classical"}, 100_000))
    assert growth["ok"]
    assert growth["min_slack"] >= 0.0
    assert growth["sup_n_over_tau"] <= 2.0


def test_classical_ratio_drift_to_one_half():
    growth = classical_lower_bound_check(prefix({"kind": "classical"}, 1_000_000))
    assert growth["ratio_drift"] == pytest.approx(3.777e-6, rel=1e-3)


def test_chambolle_alpha_closed_form():
    taus = prefix({"kind": "chambolle_dossal", "rho": 2.0}, 101)
    a = alphas(taus)
    n = np.arange(1, 101, dtype=float)
    assert a == pytest.approx((n - 1.0) / (n + 2.0), rel=1e-15, abs=1e-15)


def test_attouch_shifted_is_shifted_classical():
    base = classical_taus(5000)
    got = prefix({"kind": "attouch_shifted", "rho": 2.0}, 5000)
    np.testing.assert_allclose(got, (base + 1.0) / 2.0, rtol=1e-15, atol=0.0)


def test_attouch_delta_bound_for_shifted_family():
    taus = prefix({"kind": "attouch_shifted", "rho": 2.0}, 100_000)
    delta = attouch_condition_delta(taus)
    assert delta == pytest.approx(0.5450849718747371, abs=1e-13)
    assert delta <= (1.0 + math.sqrt(5.0)) / 4.0 + 1e-12


def test_attouch_delta_bound_for_aujol_family():
    taus = prefix({"kind": "aujol_dossal", "a": 5.0, "d": 0.5}, 100_000)
    assert attouch_condition_delta(taus) <= 1.0 / math.sqrt(5.0) + 1e-12


def test_folklore_expansion_settles():
    r = folklore_expansion_check(prefix({"kind": "classical"}, 100_001))
    assert abs(r[99]) == pytest.approx(1.098405e-01, rel=1e-4)
    assert abs(r[-1]) == pytest.approx(2.170734e-04, rel=1e-4)
    assert abs(r[-1]) < 0.01
    assert abs(r[-1]) < abs(r[99])


def test_blowsup_partial_sums_grow_without_bound_slowly():
    classical = blowsup_partial_sums(prefix({"kind": "classical"}, 10_000))
    chambolle = blowsup_partial_sums(prefix({"kind": "chambolle_dossal", "rho": 2.0}, 10_000))
    assert classical == pytest.approx(16.093, rel=1e-3)
    assert chambolle == pytest.approx(16.181, rel=1e-3)
    # doubling the horizon adds roughly 2 log 2, not a doubling
    longer = blowsup_partial_sums(prefix({"kind": "classical"}, 20_000))
    assert longer - classical == pytest.approx(2.0 * math.log(2.0), rel=0.05)


def test_custom_rejection_carries_offending_index():
    with pytest.raises(AdmissibilityError) as err:
        canonical_schedule_spec({"kind": "custom", "values": [1.0, 3.0]})
    assert err.value.index == 1
    with pytest.raises(AdmissibilityError) as err:
        canonical_schedule_spec({"kind": "custom", "values": [0.5, 1.0]})
    assert err.value.index == 0


def test_custom_accepts_an_admissible_list_verbatim():
    values = [1.0, 1.5, 2.0, 2.5]
    taus = prefix({"kind": "custom", "values": values}, 4)
    assert np.array_equal(taus, np.array(values))
    with pytest.raises(ParameterError):
        prefix({"kind": "custom", "values": values}, 5)


@pytest.mark.parametrize("spec, key", [
    ({"kind": "constant", "tau1": 1.0}, "tau1"),
    ({"kind": "classical", "tau": 2.0}, "tau"),
    ({"kind": "chambolle_dossal", "rho": 3.0, "a": 1.0}, "a"),
    ({"kind": "aujol_dossal", "a": 5.0, "d": 0.5, "rho": 2.0}, "rho"),
    ({"kind": "attouch_shifted", "rho": 2.0, "tau1": 1.0}, "tau1"),
    ({"kind": "custom", "values": [1.0, 1.5], "tau": 1.0}, "tau"),
])
def test_every_family_rejects_keys_it_does_not_read(spec, key):
    with pytest.raises(ParameterError, match=f"unknown key '{key}'"):
        canonical_schedule_spec(spec)
    # the canonical form holds only keys its family reads, so it passes again unchanged
    canonical = canonical_schedule_spec({k: v for k, v in spec.items() if k != key})
    assert canonical_schedule_spec(dict(canonical)) == canonical


def test_a_stray_name_is_reported_under_the_kind():
    with pytest.raises(ParameterError, match=r"^classical: unknown key 'name', expected one of \['kind', 'tau1'\]$"):
        canonical_schedule_spec({"kind": "classical", "name": "fast"})


def test_parameter_gates():
    with pytest.raises(ParameterError):
        canonical_schedule_spec({"kind": "constant", "tau": 0.5})
    with pytest.raises(ParameterError):
        canonical_schedule_spec({"kind": "chambolle_dossal", "rho": 1.5})
    with pytest.raises(ParameterError):
        canonical_schedule_spec({"kind": "attouch_shifted", "rho": 1.0})
    with pytest.raises(ParameterError):
        canonical_schedule_spec({"kind": "aujol_dossal", "a": 1.0, "d": 1.0})
    with pytest.raises(ParameterError):
        canonical_schedule_spec({"kind": "aujol_dossal", "a": 5.0, "d": 1.5})
    with pytest.raises(ParameterError):
        canonical_schedule_spec({"kind": "aujol_dossal", "a": -1.0, "d": 0.0})
    with pytest.raises(ParameterError):
        canonical_schedule_spec({"kind": "classical", "tau1": 0.9})
    with pytest.raises(ParameterError):
        canonical_schedule_spec({"kind": "nope"})
    # d = 0 with positive a degenerates to the constant-1 schedule
    taus = prefix({"kind": "aujol_dossal", "a": 0.5, "d": 0.0}, 10)
    assert np.all(taus == 1.0)


def kappa_bound(spec: dict) -> float:
    spec = canonical_schedule_spec(spec)
    return schedules.FAMILIES[spec["kind"]].kappa(spec)


def tau_sup_bound(spec: dict) -> float:
    spec = canonical_schedule_spec(spec)
    return schedules.FAMILIES[spec["kind"]].tau_sup(spec)


def test_analytic_bounds_per_family():
    assert kappa_bound({"kind": "classical"}) == 2.0
    assert kappa_bound({"kind": "chambolle_dossal", "rho": 3.0}) == 3.0
    assert kappa_bound({"kind": "attouch_shifted", "rho": 2.0}) == 4.0
    assert kappa_bound({"kind": "aujol_dossal", "a": 5.0, "d": 1.0}) == 5.0
    assert math.isinf(kappa_bound({"kind": "aujol_dossal", "a": 5.0, "d": 0.5}))
    assert math.isinf(kappa_bound({"kind": "constant", "tau": 2.0}))

    assert tau_sup_bound({"kind": "constant", "tau": 2.0}) == 2.0
    assert tau_sup_bound({"kind": "custom", "values": [1.0, 1.5]}) == 1.5
    assert tau_sup_bound({"kind": "aujol_dossal", "a": 2.0, "d": 0.0}) == 1.0
    assert math.isinf(tau_sup_bound({"kind": "classical"}))


def test_kappa_bounds_dominate_prefix_measurements():
    for spec in FAMILIES:
        kb = kappa_bound(spec)
        if not math.isfinite(kb):
            continue
        taus = prefix(spec, 50_000)
        measured = float(np.max(np.arange(1, 50_001, dtype=float) / taus))
        assert measured <= kb + 1e-12


def quotient_window(tau_sup: float) -> tuple:
    """Asymptotic window for alpha_n when sup tau_n = tau_sup is finite.

    liminf alpha_n is at least (1 - 1/t)/(1 + 1/t) - 1/(t(t+1)) and
    limsup alpha_n is at most 1 - 1/t.
    """
    t = float(tau_sup)
    if not math.isfinite(t) or t < 1.0:
        raise ParameterError(f"quotient window needs finite tau_sup >= 1, got {tau_sup}")
    lo = (1.0 - 1.0 / t) / (1.0 + 1.0 / t) - 1.0 / (t * (t + 1.0))
    hi = 1.0 - 1.0 / t
    return (lo, hi)


def test_quotient_window_for_constant_schedules():
    taus = prefix({"kind": "constant", "tau": 2.0}, 50)
    a = alphas(taus)
    lo, hi = quotient_window(2.0)
    assert hi == pytest.approx(0.5)
    assert lo == pytest.approx(1.0 / 6.0)
    assert np.all(a <= hi + 1e-15)
    assert np.all(a >= lo - 1e-15)


def test_schedule_iterator_matches_prefix_and_clones_are_independent():
    spec = {"kind": "attouch_shifted", "rho": 2.0}
    sched = Schedule(spec)
    want = prefix(spec, 101)
    got = np.array([sched.next_tau() for _ in range(100)])
    assert np.array_equal(got, want[:100])
    assert Schedule(spec).next_tau() == want[0]
    assert sched.next_tau() == want[100]


def test_alphas_stay_in_unit_interval():
    for spec in FAMILIES:
        taus = prefix(spec, 10_000)
        a = alphas(taus)
        assert np.all(a >= 0.0)
        assert np.all(a < 1.0)


@st.composite
def admissible_lists(draw):
    tau1 = draw(st.floats(1.0, 3.0))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    values = [tau1]
    for f in fracs:
        t = values[-1]
        values.append(t + f * (float(bracket_upper(t)) - t))
    return values


@given(values=admissible_lists())
@settings(max_examples=60, deadline=None)
def test_bracket_sampling_is_always_admissible(values):
    report = check_admissibility(np.asarray(values))
    assert report.ok, report.reason
    assert report.worst_increment <= MAX_STEP_INCREASE


def test_a_non_finite_value_is_the_first_violation():
    report = check_admissibility(np.array([1.0, math.nan, 2.0]))
    assert not report.ok and report.first_violation == 1 and report.reason == "tau_2 is not finite"
    worst = (report.tau1_deficit, report.worst_lower, report.worst_upper, report.worst_square, report.worst_increment)
    assert worst == (math.inf,) * 5


@given(values=admissible_lists(), bump=st.floats(1e-3, 10.0), data=st.data())
@settings(max_examples=60, deadline=None)
def test_bracket_violations_are_localized(values, bump, data):
    k = data.draw(st.integers(1, len(values) - 1)) if len(values) > 1 else 1
    if len(values) == 1:
        values = values + [values[0]]
    broken = list(values)
    broken[k] = float(bracket_upper(broken[k - 1])) * (1.0 + bump)
    report = check_admissibility(np.asarray(broken))
    assert not report.ok
    assert report.first_violation == k


def test_classical_tau1_must_leave_tau2_finite():
    # tau_2 = (1 + sqrt(1 + 4 tau1^2)) / 2, and 4 tau1^2 overflows one float past this tau1
    largest = 6.703903964971298e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau1 in (math.nextafter(largest, math.inf), 1e200):
            message = f"classical schedule needs tau1 >= 1 with a finite tau_2, got {tau1!r}"
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                canonical_schedule_spec({"kind": "classical", "tau1": tau1})
        taus = prefix({"kind": "classical", "tau1": largest}, 1000)
    assert np.all(np.isfinite(taus)) and check_admissibility(taus).ok


def test_prefix_and_admissibility_need_a_nonempty_prefix():
    with pytest.raises(ParameterError, match="prefix length must be >= 1, got 0"):
        prefix({"kind": "classical"}, 0)
    with pytest.raises(ParameterError, match="nonempty 1D prefix"):
        check_admissibility([])
