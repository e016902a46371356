"""Momentum parameter schedules and their admissibility diagnostics.

A schedule generates the sequence tau_1, tau_2, ... driving the
extrapolation coefficient alpha_n = (tau_n - 1) / tau_{n+1}. Admissible
sequences start at tau_1 >= 1 and obey the bracket

    tau_n <= tau_{n+1} <= (1 + sqrt(1 + 4 tau_n^2)) / 2,

which in turn forces tau_{n+1}^2 - tau_{n+1} <= tau_n^2 and caps any
single-step increase at (1 + sqrt(5))/4. Built-in families satisfy the
bracket by construction; user-supplied lists are validated eagerly so a
bad sequence fails at load time, not after a long run.

Each family's facts (parameter gate, tau generator, kappa, sup-tau and
Attouch-delta bounds) are one row of :data:`FAMILIES`. A caller that holds
a canonical spec reads a bound straight from its row, for example
``FAMILIES[spec["kind"]].kappa(spec)``, without gating the spec again.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import AdmissibilityError, ParameterError, finite_number, only_keys

# Largest admissible single-step increase tau_{n+1} - tau_n.
MAX_STEP_INCREASE = (1.0 + math.sqrt(5.0)) / 4.0

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Default tolerance for admissibility residuals. Residuals are measured
# relative to max(1, scale of the compared quantity): at tau ~ 5e4 the
# squared-form comparison lives near 2.5e9 where one ulp is ~4e-7, so an
# absolute budget would be meaningless while a relative one stays at a
# comfortable ~1e3 ulp margin.
ADMISSIBILITY_TOL = 1e-12


def bracket_upper(tau):
    """Largest admissible successor of tau (scalar or array)."""
    return 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ParameterError(message)


def _one_parameter(kind: str, key: str, default: Optional[float], ok: Callable, message: str):
    """Gate of a family with one parameter, which must be finite and pass ok (else message)."""

    def gate(spec: dict) -> dict:
        _require(default is not None or key in spec, f"{kind} schedule needs '{key}'")
        value = finite_number(f"{kind} schedule: {key}", spec.get(key, default))
        _require(ok(value), message.format(value))
        return {key: value}

    return gate


def _gate_aujol_dossal(spec: dict) -> dict:
    _require("a" in spec and "d" in spec, "aujol_dossal schedule needs 'a' and 'd'")
    a = finite_number("aujol_dossal schedule: a", spec["a"])
    d = finite_number("aujol_dossal schedule: d", spec["d"])
    _require(0.0 <= d <= 1.0, f"aujol_dossal needs d in [0, 1], got {d}")
    if d == 0.0:
        _require(a > 0.0, f"aujol_dossal with d=0 needs a > 0, got a={a}")
    else:
        gate = max(1.0, (2.0 * d) ** (1.0 / d))
        _require(a > gate, f"aujol_dossal needs a > max(1, (2d)^(1/d)) = {gate:g} when d={d:g}, got a={a:g}")
    return {"a": a, "d": d}


def _gate_custom(spec: dict) -> dict:
    raw = spec.get("values")
    _require(isinstance(raw, (list, tuple)) and len(raw) > 0, "custom schedule needs a nonempty 'values' list")
    values = [finite_number("custom schedule: values", v) for v in raw]
    report = check_admissibility(np.asarray(values))
    if not report.ok:
        raise AdmissibilityError(
            f"custom schedule inadmissible at index {report.first_violation}: {report.reason}",
            index=report.first_violation,
        )
    return {"values": values}


def _classical(tau1: float) -> Iterator[float]:
    """tau1, then each value the top of the bracket over the one before."""
    tau = tau1
    while True:
        yield tau
        tau = float(bracket_upper(tau))


def _custom(values: list) -> Iterator[float]:
    yield from values
    raise ParameterError(f"custom schedule exhausted after {len(values)} values")


def _unbounded(spec: dict) -> float:
    return math.inf


@dataclass(frozen=True)
class Family:
    """What the package knows about one schedule family.

    gate maps a raw spec to the family's parameters, or raises. The others
    take the canonical spec: taus iterates tau_1, tau_2, ...; kappa bounds
    sup_n n/tau_n analytically (prefix suprema understate it); tau_sup is
    sup_n tau_n; delta is the analytic sup of
    (tau_{k+1}^2 - tau_k^2)/tau_{k+1}. +inf where unbounded or unknown.
    """

    gate: Callable[[dict], dict]
    taus: Callable[[dict], Iterator[float]]
    kappa: Callable[[dict], float]
    tau_sup: Callable[[dict], float]
    delta: Callable[[dict], float]


FAMILIES = {
    "constant": Family(
        gate=_one_parameter("constant", "tau", 1.0, lambda tau: tau >= 1.0,
                            "constant schedule needs tau >= 1, got {}"),
        taus=lambda s: itertools.repeat(s["tau"]),
        kappa=_unbounded,
        tau_sup=lambda s: s["tau"],
        delta=lambda s: 0.0,
    ),
    "classical": Family(
        # 4 tau1^2 overflows past tau1 = 6.7e153, so tau_2 would be inf
        gate=_one_parameter("classical", "tau1", 1.0, lambda tau1: tau1 >= 1.0 and math.isfinite(bracket_upper(tau1)),
                            "classical schedule needs tau1 >= 1 with a finite tau_2, got {}"),
        taus=lambda s: _classical(s["tau1"]),
        kappa=lambda s: 2.0,  # for any tau1 >= 1
        tau_sup=_unbounded,
        delta=lambda s: 1.0,  # the recursion attains it
    ),
    "chambolle_dossal": Family(
        gate=_one_parameter("chambolle_dossal", "rho", None, lambda rho: rho >= 2.0,
                            "chambolle_dossal needs rho >= 2, got {}"),
        taus=lambda s: ((n + s["rho"] - 1.0) / s["rho"] for n in itertools.count(1)),
        kappa=lambda s: s["rho"],
        tau_sup=_unbounded,
        delta=lambda s: 2.0 / s["rho"],
    ),
    "aujol_dossal": Family(
        gate=_gate_aujol_dossal,
        taus=lambda s: (((n + s["a"] - 1.0) / s["a"]) ** s["d"] for n in itertools.count(1)),
        kappa=lambda s: s["a"] if s["d"] == 1.0 else math.inf,
        tau_sup=lambda s: 1.0 if s["d"] == 0.0 else math.inf,
        delta=lambda s: 0.0 if s["d"] == 0.0 else 2.0 * s["d"] / s["a"] ** s["d"],
    ),
    "attouch_shifted": Family(
        gate=_one_parameter("attouch_shifted", "rho", None, lambda rho: rho > 1.0,
                            "attouch_shifted needs rho > 1, got {}"),
        # the classical recursion from 1, shifted and scaled
        taus=lambda s: ((base + s["rho"] - 1.0) / s["rho"] for base in _classical(1.0)),
        kappa=lambda s: 2.0 * s["rho"],
        tau_sup=_unbounded,
        delta=lambda s: GOLDEN_RATIO / s["rho"],
    ),
    "custom": Family(
        gate=_gate_custom,
        taus=lambda s: _custom(s["values"]),
        kappa=_unbounded,
        tau_sup=lambda s: max(s["values"]),
        delta=_unbounded,
    ),
}

SCHEDULE_KINDS = tuple(FAMILIES)


class CanonicalSpec(dict):
    """A schedule spec in canonical form, returned by :func:`canonical_schedule_spec`.

    Its family's gate has passed it, so canonical_schedule_spec returns it
    as it is: ``apg run`` gates each run's schedule once, in the parent, and
    its workers take the canonical spec (a custom list's admissibility pass
    costs about 0.13 s per 100k values). Treat it as read-only.
    """


def canonical_schedule_spec(spec: dict) -> dict:
    """Validate a schedule spec and return it in canonical form, a CanonicalSpec.

    The canonical form holds the kind and the family's parameters, as
    floats. Raises ParameterError for malformed or out-of-gate parameters
    and for a key the family does not read, and AdmissibilityError when a
    custom list violates the bracket. A CanonicalSpec comes back as it is.
    """
    if isinstance(spec, CanonicalSpec):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParameterError(f"schedule spec must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind not in SCHEDULE_KINDS:
        raise ParameterError(f"unknown schedule kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    canonical = {"kind": kind, **FAMILIES[kind].gate(spec)}
    only_keys(spec, canonical)
    return CanonicalSpec(canonical)


class Schedule:
    """Single-owner iterator over the momentum sequence of a spec.

    The first next_tau() call returns tau_1; each further call advances by
    one element. A custom list raises ParameterError when it runs out.
    """

    def __init__(self, spec: dict):
        self.spec = canonical_schedule_spec(spec)
        self.kind = self.spec["kind"]
        self._taus = FAMILIES[self.kind].taus(self.spec)

    def next_tau(self) -> float:
        return next(self._taus)


def prefix(spec: dict, count: int) -> np.ndarray:
    """First `count` values tau_1..tau_count of a schedule, drawn from a fresh Schedule.

    A solver run reads its taus from here, max_iters + 1 of them.
    """
    if count < 1:
        raise ParameterError(f"prefix length must be >= 1, got {count}")
    sched = Schedule(spec)
    return np.fromiter((sched.next_tau() for _ in range(count)), float, count)


def alphas(taus: np.ndarray) -> np.ndarray:
    """Extrapolation coefficients alpha_n = (tau_n - 1)/tau_{n+1}.

    One element shorter than the input prefix.
    """
    taus = np.asarray(taus, dtype=float)
    return (taus[:-1] - 1.0) / taus[1:]


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of checking a tau prefix against the bracket.

    Residuals are positive-when-violated and scale-relative (see
    ADMISSIBILITY_TOL). first_violation is the 0-based index of the
    offending element, or None.
    """

    ok: bool
    first_violation: Optional[int]
    reason: str
    tau1_deficit: float
    worst_lower: float
    worst_upper: float
    worst_square: float
    worst_increment: float


def check_admissibility(taus: np.ndarray) -> AdmissibilityReport:
    """Verify tau_1 >= 1 and the bracket for every consecutive pair, to ADMISSIBILITY_TOL.

    Also measures the two derived inequalities (squared form, increment
    cap) so callers can assert them with the same tolerance.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size < 1:
        raise ParameterError("admissibility check needs a nonempty 1D prefix")
    if not np.all(np.isfinite(taus)):
        bad = int(np.flatnonzero(~np.isfinite(taus))[0])
        return AdmissibilityReport(
            ok=False,
            first_violation=bad,
            reason=f"tau_{bad + 1} is not finite",
            tau1_deficit=math.inf,
            worst_lower=math.inf,
            worst_upper=math.inf,
            worst_square=math.inf,
            worst_increment=math.inf,
        )

    tau1_deficit = 1.0 - float(taus[0])
    t0 = taus[:-1]
    t1 = taus[1:]
    diff = t1 - t0
    lower = (t0 - t1) / np.maximum(1.0, t0)
    upper = (t1 - bracket_upper(t0)) / np.maximum(1.0, t1)
    square = (diff * (t1 + t0) - t1) / np.maximum(1.0, t1 * t1)
    increment = diff - MAX_STEP_INCREASE

    first: Optional[int] = None
    reason = ""
    if tau1_deficit > ADMISSIBILITY_TOL:
        first = 0
        reason = f"tau_1 = {float(taus[0])!r} < 1"
    else:
        bad = np.flatnonzero((lower > ADMISSIBILITY_TOL) | (upper > ADMISSIBILITY_TOL))
        if bad.size:
            k = int(bad[0])
            first = k + 1
            if lower[k] > ADMISSIBILITY_TOL:
                reason = f"tau_{k + 2} = {float(t1[k])!r} < tau_{k + 1} = {float(t0[k])!r}"
            else:
                reason = (
                    f"tau_{k + 2} = {float(t1[k])!r} exceeds the bracket bound "
                    f"{float(bracket_upper(t0[k]))!r}"
                )

    return AdmissibilityReport(
        ok=first is None,
        first_violation=first,
        reason=reason,
        tau1_deficit=tau1_deficit,
        # a one-value prefix has no pairs: its worst residuals are -inf
        worst_lower=float(np.max(lower, initial=-math.inf)),
        worst_upper=float(np.max(upper, initial=-math.inf)),
        worst_square=float(np.max(square, initial=-math.inf)),
        worst_increment=float(np.max(increment, initial=-math.inf)),
    )


def classical_lower_bound_check(taus: np.ndarray) -> dict:
    """Classical-schedule growth facts over a prefix tau_1..tau_N.

    Returns min slack of tau_n - (n+1)/2, the prefix sup of n/tau_n, and
    the drift of tau_n/n from its limit 1/2 at the last index.
    """
    n_max = taus.size
    n = np.arange(1, n_max + 1, dtype=float)
    min_slack = float(np.min(taus - (n + 1.0) / 2.0))
    sup_n_over_tau = float(np.max(n / taus))
    ratio_drift = abs(taus[-1] / n_max - 0.5)
    return {
        "ok": min_slack >= 0.0 and sup_n_over_tau <= 2.0,
        "min_slack": min_slack,
        "sup_n_over_tau": sup_n_over_tau,
        "ratio_drift": float(ratio_drift),
    }


def folklore_expansion_check(taus: np.ndarray) -> np.ndarray:
    """Residuals r_n = n(alpha_n - 1 + 3/n) over a classical prefix tau_1..tau_{N+1}, for n = 1..N.

    The expansion alpha_n = 1 - 3/n + o(1/n) predicts r_n -> 0; callers
    compare |r| at the end of the prefix against early values.
    """
    a = alphas(taus)
    n = np.arange(1, a.size + 1, dtype=float)
    return n * (a - 1.0) + 3.0


def attouch_pair_deltas(taus: np.ndarray) -> np.ndarray:
    """(tau_{k+1}^2 - tau_k^2)/tau_{k+1} for each consecutive pair of a prefix.

    Computed in the factored form (t1 - t0)(t1 + t0)/t1, which keeps the
    quotient accurate when the squares grow large.
    """
    taus = np.asarray(taus, dtype=float)
    t0, t1 = taus[:-1], taus[1:]
    return (t1 - t0) * (t1 + t0) / t1


def blowsup_pair_terms(taus: np.ndarray) -> np.ndarray:
    """1 - tau_k^2 / tau_{k+1}^2 for each consecutive pair of a prefix."""
    taus = np.asarray(taus, dtype=float)
    t0, t1 = taus[:-1], taus[1:]
    return 1.0 - (t0 * t0) / (t1 * t1)
