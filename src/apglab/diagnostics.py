"""Post-hoc trace analysis: certificates, rate fits, and reference oracles.

Every verdict is a pure function of the trace columns plus problem
metadata, so re-running diagnostics on the same data reproduces the same
report bit for bit. Asymptotic claims (o(1/n), distances converging) are
operationalized as decade-scale trends, which are falsifiable on a finite
prefix without pretending to prove a limit.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OracleNotApplicable, OracleUnreliable
from .problem import CompositeProblem, NUMERIC_TOL, evaluate_h
from .schedules import attouch_delta_bound, kappa_bound, tau_sup_bound
from .solvers import SolverOptions, SolverTrace, ista_run, mfista_run

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
INCONCLUSIVE = "inconclusive"
EXPLORATORY = "exploratory"

# Tolerances for the inequality ledgers; see the core-problem module for
# the 1e-10 budget rationale. Accumulated quantities get 1e-8 because
# they sum ~1e5 rounded terms.
MONOTONE_TOL = NUMERIC_TOL
ACCUMULATED_TOL = 1e-8
RATE_BOUND_SLACK = 1e-9
OSCILLATION_TOL = 1e-4
DIVERGENCE_FACTOR = 10.0
ORACLE_AGREEMENT_TOL = 1e-8
LYAPUNOV_NOISE = 1e-13
STEP_SETTLED_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    status: str
    worst_residual: Optional[float] = None
    location_n: Optional[int] = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "worst_residual": self.worst_residual,
            "location_n": self.location_n,
            "detail": self.detail,
        }


def _na(detail: str) -> Verdict:
    return Verdict(status=NOT_APPLICABLE, detail=detail)


@dataclass(frozen=True)
class OracleResult:
    min_h: float
    error_bar: float
    argmin: np.ndarray
    ista_value: float
    mfista_value: float
    budget: int


@dataclass(frozen=True)
class ReferenceInfo:
    """Best available knowledge of min h for a run.

    source is "catalog" (analytic), "oracle" (reference_min), or "none"
    (no minimizer; inf_h carries the analytic infimum when finite).
    """

    min_h: Optional[float]
    error_bar: float
    witness: Optional[np.ndarray]
    source: str
    inf_h: Optional[float] = None


def reference_min(problem: CompositeProblem, budget: int = 50_000) -> OracleResult:
    """Two-stage reference solve for min h.

    Runs ISTA for `budget` iterations, then the monotone accelerated
    method for another `budget` starting from the ISTA endpoint; the two
    final objective values must agree to 1e-8 and their gap is reported
    as the oracle's error bar.

    Both stages run their whole budget: stage 1 turns the solvers'
    fast-forward off (see :mod:`apglab.solvers`), and stage 2's momentum
    schedule never takes it. Skipping would make one seed-drawn lasso
    instance ten times cheaper than the next, depending only on whether its
    float iterates happen to land on an exact fixed point. When stage 1 does
    end on one, stage 2 starts there and stays, so ``error_bar`` is the
    agreement of two equal values, 0.0, and proves nothing about the
    distance to min h; a certified bound is still open work.

    Cost. A solve costs the same on every instance of a size: 2 * budget
    applications of T and h. Each stage records a single row, so its
    iterations skip the per-row diagnostic columns, a saving that is also
    the same on every instance. ``apg run`` solves each distinct problem
    (spec and budget) once, before it dispatches any run.
    """
    if problem.argmin_nonempty is False:
        raise OracleNotApplicable(f"{problem.name}: flagged as having no minimizer")
    opts = SolverOptions(max_iters=budget, record_every=budget, fast_forward=False)
    stage1 = ista_run(problem, opts)
    h_ista = float(stage1.h[-1])
    opts2 = SolverOptions(max_iters=budget, record_every=budget, x0=stage1.final_x)
    stage2 = mfista_run(problem, {"kind": "classical"}, opts2)
    h_mf = float(stage2.h[-1])
    disagreement = abs(h_ista - h_mf)
    if disagreement > ORACLE_AGREEMENT_TOL:
        raise OracleUnreliable(
            f"{problem.name}: reference stages disagree by {disagreement:.3e}",
            disagreement=disagreement,
        )
    if h_ista <= h_mf:
        best, witness = h_ista, stage1.final_x
    else:
        best, witness = h_mf, stage2.final_x
    return OracleResult(
        min_h=best,
        error_bar=disagreement,
        argmin=witness,
        ista_value=h_ista,
        mfista_value=h_mf,
        budget=budget,
    )


def resolve_reference(problem: CompositeProblem, budget: int = 50_000) -> ReferenceInfo:
    """Pick the reference minimum: catalog metadata first, oracle second."""
    if problem.known_min is not None:
        return ReferenceInfo(
            min_h=problem.known_min,
            error_bar=0.0,
            witness=problem.known_argmin,
            source="catalog",
            inf_h=problem.known_min,
        )
    if problem.argmin_nonempty is False:
        return ReferenceInfo(min_h=None, error_bar=0.0, witness=None, source="none", inf_h=problem.inf_h)
    oracle = reference_min(problem, budget)
    return ReferenceInfo(
        min_h=oracle.min_h,
        error_bar=oracle.error_bar,
        witness=oracle.argmin,
        source="oracle",
        inf_h=oracle.min_h,
    )


def beta_z_from_trace(trace: SolverTrace, witness: np.ndarray, witness_h: float) -> Optional[float]:
    """Certificate constant at n=1: tau_1^2 (h(x_1) - h(z)) + ||u_1||^2/(2 gamma)."""
    if trace.x1 is None or trace.n.size == 0 or int(trace.n[0]) != 1:
        return None
    tau1 = float(trace.tau[0])
    u1 = tau1 * trace.x1 - (tau1 - 1.0) * trace.x0 - witness
    return tau1 * tau1 * (trace.h1 - witness_h) + float(u1 @ u1) / (2.0 * trace.gamma)


def _decades(n: np.ndarray) -> np.ndarray:
    """Integer decade index per recorded n; the half offset dodges any
    floating log10 landing a hair under an exact power of ten."""
    return np.floor(np.log10(n.astype(float) + 0.5)).astype(int)


def complete_decade_maxes(n: np.ndarray, values: np.ndarray):
    """Per-decade maxima over the complete decades of the recorded grid.

    A decade k (n in [10^k, 10^{k+1})) counts as complete when the trace
    extends to its upper end; the partial decade at the tail is dropped.
    Returns (decade indices, maxima) as lists.
    """
    if n.size == 0:
        return [], []
    ks = _decades(n)
    n_last = int(n.max())
    out_k, out_m = [], []
    for k in range(int(ks.min()), int(ks.max()) + 1):
        if 10 ** (k + 1) - 1 > n_last:
            break
        sel = values[ks == k]
        if sel.size == 0:
            continue
        out_k.append(k)
        out_m.append(float(np.max(sel)))
    return out_k, out_m


def last_complete_decade_mask(n: np.ndarray) -> np.ndarray:
    """Boolean mask selecting rows in the highest complete decade."""
    ks, _ = complete_decade_maxes(n, np.zeros_like(n, dtype=float))
    if not ks:
        return np.zeros(n.shape, dtype=bool)
    return _decades(n) == ks[-1]


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit of the objective gap.

    p and C satisfy gap ~ C n^{-p} over [n_lo, n_hi]; underflow_flagged
    marks fits restricted to the window before the gap hit zero.
    """

    p: float
    C: float
    n_lo: int
    n_hi: int
    points: int
    underflow_flagged: bool
    ok: bool


def fit_rate(ns: np.ndarray, gaps: np.ndarray) -> RateFit:
    """Fit log(gap) = log C - p log n over the last two positive decades."""
    ns = np.asarray(ns, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    pos = (gaps > 0.0) & (ns >= 1.0) & np.isfinite(gaps)
    if not np.any(pos):
        return RateFit(math.nan, math.nan, 0, 0, 0, True, False)
    n_hi = float(np.max(ns[pos]))
    flagged = n_hi < float(np.max(ns))
    window = pos & (ns >= n_hi / 100.0)
    count = int(np.count_nonzero(window))
    if count < 4:
        return RateFit(math.nan, math.nan, int(np.min(ns[pos])), int(n_hi), count, flagged, False)
    slope, intercept = np.polyfit(np.log(ns[window]), np.log(gaps[window]), 1)
    return RateFit(
        p=float(-slope),
        C=float(math.exp(intercept)),
        n_lo=int(np.min(ns[window])),
        n_hi=int(n_hi),
        points=count,
        underflow_flagged=flagged,
        ok=True,
    )


def certify_O_one_over_n2(trace: SolverTrace, min_h: Optional[float], witness: Optional[np.ndarray],
                          witness_h: Optional[float], error_bar: float = 0.0) -> Verdict:
    """Check h(x_n) - min_h <= beta_z kappa^2 / n^2 at every recorded n.

    Applies to the plain accelerated iteration with an analytically
    bounded kappa; the margin must clear the oracle error bar or the
    verdict degrades to inconclusive.
    """
    if trace.algorithm == "mfista":
        return _na("certificate stated for the non-monotone iteration")
    kappa = kappa_bound(trace.schedule_spec)
    if not math.isfinite(kappa):
        return _na("schedule has no finite kappa bound")
    if min_h is None or witness is None or witness_h is None:
        return _na("no reference minimizer")
    bz = beta_z_from_trace(trace, witness, witness_h)
    if bz is None:
        return _na("trace head incomplete")
    n = trace.n.astype(float)
    bound = bz * kappa * kappa / (n * n)
    gap = trace.h - min_h
    viol = gap - bound
    k = int(np.argmax(viol))
    worst = float(viol[k])
    if worst > RATE_BOUND_SLACK:
        return Verdict(FAIL, worst, int(trace.n[k]), f"bound exceeded; beta_z={bz:.6g} kappa={kappa:g}")
    if -worst <= error_bar:
        return Verdict(INCONCLUSIVE, worst, int(trace.n[k]), "margin within oracle error bar")
    return Verdict(PASS, worst, int(trace.n[k]), f"beta_z={bz:.6g} kappa={kappa:g}")


def certify_bounded_tau_rates(trace: SolverTrace, min_h: Optional[float], error_bar: float,
                              argmin_nonempty: Optional[bool]) -> dict:
    """Bounded-schedule limit checks: shared sigma/h limit, o(1/n) gap
    decay by decade maxima, and summability tails.

    Returns verdicts keyed sigma_h_shared_limit, rate_o_n, summability_tails.
    """
    out = {}
    tsup = tau_sup_bound(trace.schedule_spec)
    if not math.isfinite(tsup):
        na = _na("schedule unbounded")
        return {"sigma_h_shared_limit": na, "rate_o_n": na, "summability_tails": na}

    if trace.n.size == 0:
        na = _na("empty trace")
        return {"sigma_h_shared_limit": na, "rate_o_n": na, "summability_tails": na}

    if argmin_nonempty is False:
        na = _na("limit statements need a minimizer")
        return {"sigma_h_shared_limit": na, "rate_o_n": na, "summability_tails": na}

    resid = abs(float(trace.sigma[-1]) - float(trace.h[-1]))
    loc = int(trace.n[-1])
    out["sigma_h_shared_limit"] = Verdict(
        PASS if resid <= ACCUMULATED_TOL else FAIL, resid, loc,
        "final |sigma - h|",
    )
    if min_h is None:
        out["rate_o_n"] = _na("no reference minimum")
        out["summability_tails"] = _na("no reference minimum")
        return out

    scaled = trace.n.astype(float) * (trace.h - min_h)
    ks, maxes = complete_decade_maxes(trace.n, scaled)
    if len(maxes) < 3:
        out["rate_o_n"] = _na(f"only {len(maxes)} complete decades recorded, need 3")
    else:
        tail = maxes[-3:]
        diffs = [tail[1] - tail[0], tail[2] - tail[1]]
        worst = max(diffs)
        slack = float(trace.n[-1]) * error_bar
        if tail[2] == 0.0 and tail[0] >= tail[1] >= tail[2]:
            # The gap reached exactly zero; n*(gap) cannot keep strictly
            # decreasing but its limit is certainly 0.
            out["rate_o_n"] = Verdict(PASS, worst, 10 ** ks[-1], "gap reached exactly zero in the tail")
        elif worst < -slack:
            out["rate_o_n"] = Verdict(PASS, worst, 10 ** ks[-1], "last three decade maxima of n*(h-min_h)")
        elif worst < slack:
            out["rate_o_n"] = Verdict(INCONCLUSIVE, worst, 10 ** ks[-1], "decrease within oracle error bar")
        else:
            out["rate_o_n"] = Verdict(FAIL, worst, 10 ** ks[-1], "decade maxima of n*(h-min_h) not decreasing")

    if trace.record_every != 1:
        out["summability_tails"] = _na("partial sums need record_every=1")
        return out
    mask = last_complete_decade_mask(trace.n)
    if not np.any(mask):
        out["summability_tails"] = _na("no complete decade recorded")
        return out
    sq = trace.step_norm[mask] ** 2
    tail_plain = float(np.sum(sq))
    tail_weighted = float(np.sum(trace.n[mask].astype(float) * sq))
    worst = max(tail_plain, tail_weighted)
    out["summability_tails"] = Verdict(
        PASS if worst < ACCUMULATED_TOL else FAIL,
        worst,
        int(trace.n[mask][0]),
        "last-decade tails of sum ||dx||^2 and sum n ||dx||^2",
    )
    return out


def certify_divergence(trace: SolverTrace, argmin_nonempty: Optional[bool]) -> Verdict:
    """No-minimizer runs must blow up in norm.

    Checks that x_norm is nondecreasing over the last half of the records
    and that the final norm exceeds ten times the norm at the log-axis
    midpoint of the run (index ~ sqrt(n_first * n_last)); for power-law
    growth the arithmetic midpoint would sit a constant factor below the
    endpoint regardless of how decisively the run diverges.
    """
    if argmin_nonempty is not False:
        return _na("problem has (or may have) a minimizer")
    if trace.n.size < 4:
        return Verdict(INCONCLUSIVE, None, None, "too few records")
    xs = trace.x_norm
    half = xs[xs.size // 2 :]
    drops = np.diff(half) + 1e-12 * np.maximum(1.0, half[:-1])
    if np.any(drops < 0.0):
        k = int(np.argmax(np.diff(half) < -1e-12 * np.maximum(1.0, half[:-1])))
        return Verdict(FAIL, float(np.min(np.diff(half))), int(trace.n[xs.size // 2 + k]),
                       "x_norm not eventually nondecreasing")
    n_first = float(trace.n[0])
    n_last = float(trace.n[-1])
    target = math.sqrt(n_first * n_last)
    mid = int(np.argmin(np.abs(trace.n.astype(float) - target)))
    ratio_resid = DIVERGENCE_FACTOR * float(xs[mid]) - float(xs[-1])
    if ratio_resid >= 0.0:
        return Verdict(FAIL, ratio_resid, int(trace.n[mid]),
                       f"final x_norm {xs[-1]:.6g} not {DIVERGENCE_FACTOR:g}x the midpoint {xs[mid]:.6g}")
    return Verdict(PASS, ratio_resid, int(trace.n[mid]), f"growth factor {float(xs[-1]) / max(float(xs[mid]), 1e-300):.3g}")


def certify_liminf_inf(trace: SolverTrace, reference: ReferenceInfo, kappa: float,
                       beta_z: Optional[float], threshold: float = -1e6) -> Verdict:
    """Running minimum of h approaches the best known lower bound.

    For inf h = -inf the check is a configured escape level; otherwise the
    allowance scales with the certified rate of the schedule class when a
    certificate constant is available, with floors for the oracle error
    bar and for slow no-minimizer regimes.
    """
    if trace.n.size == 0:
        return Verdict(INCONCLUSIVE, None, None, "empty trace")
    rmin = float(np.min(trace.h))
    loc = int(trace.n[int(np.argmin(trace.h))])
    if reference.inf_h is not None and reference.inf_h == -math.inf:
        if rmin < threshold:
            return Verdict(PASS, rmin, loc, f"running min below {threshold:g}")
        return Verdict(FAIL, rmin, loc, f"running min never fell below {threshold:g}")
    ref = reference.min_h if reference.min_h is not None else reference.inf_h
    if ref is None:
        return _na("no lower-bound reference")
    tol = max(1e-6, 10.0 * reference.error_bar)
    if reference.min_h is not None and beta_z is not None and math.isfinite(kappa):
        n_last = float(trace.n[-1])
        tol = max(tol, beta_z * kappa * kappa / (n_last * n_last))
    if reference.min_h is None:
        # Finite infimum with empty Argmin: approach is slow by nature
        # (the minimizing ray escapes), so only order-of-magnitude
        # agreement is meaningful on a desk-scale prefix.
        tol = max(tol, 1e-2)
    resid = rmin - ref
    if resid <= tol:
        return Verdict(PASS, resid, loc, f"tolerance {tol:.3g}")
    return Verdict(FAIL, resid, loc, f"running min misses the reference by {resid:.3g} > {tol:.3g}")


def certify_tau2_decay(trace: SolverTrace, min_h: Optional[float]) -> Verdict:
    """Monotone-variant improved rate: tau_n^2 (h(x_n) - min_h) -> 0.

    Gated on the strict Attouch condition (delta bound < 1) and an
    unbounded schedule; tested as the last complete decade's maximum
    falling below one percent of the first's.
    """
    if trace.algorithm != "mfista":
        return _na("improved rate stated for the monotone variant")
    if min_h is None:
        return _na("no reference minimum")
    delta = attouch_delta_bound(trace.schedule_spec)
    if not delta < 1.0:
        return _na(f"attouch delta bound {delta:g} not < 1")
    if not math.isinf(tau_sup_bound(trace.schedule_spec)):
        return _na("schedule bounded; tau_n^2 gap decay is not informative")
    scaled = trace.tau * trace.tau * (trace.h - min_h)
    ks, maxes = complete_decade_maxes(trace.n, scaled)
    if len(maxes) < 2:
        return _na(f"only {len(maxes)} complete decades recorded, need 2")
    resid = maxes[-1] - maxes[0] / 100.0
    if resid < 0.0:
        return Verdict(PASS, resid, 10 ** ks[-1],
                       f"decade max fell {maxes[0] / max(maxes[-1], 1e-300):.3g}x")
    return Verdict(FAIL, resid, 10 ** ks[-1], "tau^2-scaled gap did not decay 100x")


def _consecutive_pairs(n: np.ndarray) -> np.ndarray:
    """Mask over pairs (i, i+1) of records one iteration apart."""
    return np.diff(n) == 1


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
    ks = _decades(n)
    sums = []
    for k in range(int(ks.min()), int(ks.max()) + 1):
        if 10 ** (k + 1) - 1 > int(n.max()):
            break
        sel = terms[ks == k]
        if sel.size:
            sums.append(float(np.sum(sel)))
    if len(sums) < 2:
        return False
    return all(b < 0.9 * a for a, b in zip(sums[:-1], sums[1:]))


def build_report(trace: SolverTrace, problem: CompositeProblem, reference: ReferenceInfo,
                 run_name: str = "", liminf_threshold: float = -1e6) -> dict:
    """Assemble the full JSON-ready report for one run."""
    checks = {}
    n = trace.n
    kappa = kappa_bound(trace.schedule_spec)

    witness_h = None
    if reference.witness is not None:
        witness_h = evaluate_h(problem, reference.witness)
    bz = None
    if reference.witness is not None and witness_h is not None and math.isfinite(witness_h):
        bz = beta_z_from_trace(trace, reference.witness, witness_h)

    key = trace.key_residual[np.isfinite(trace.key_residual)]
    if key.size:
        finite_idx = np.flatnonzero(np.isfinite(trace.key_residual))
        k = finite_idx[int(np.argmin(trace.key_residual[finite_idx]))]
        worst = float(trace.key_residual[k])
        checks["keyineq"] = Verdict(
            PASS if worst >= -MONOTONE_TOL else FAIL, worst, int(n[k]),
            "min one-step key-inequality residual",
        )
    else:
        checks["keyineq"] = _na("no residuals computable (start outside dom h)")

    if trace.algorithm == "mfista":
        if n.size >= 2:
            dh = np.diff(trace.h)
            kk = int(np.argmax(dh))
            checks["monotone_h"] = Verdict(
                PASS if dh[kk] <= 0.0 else FAIL, float(dh[kk]), int(n[kk + 1]),
                "h(x_n) nonincreasing by construction",
            )
        else:
            checks["monotone_h"] = Verdict(PASS, 0.0, int(n[0]) if n.size else None, "single record")

    if n.size >= 2:
        ds = np.diff(trace.sigma)
        kk = int(np.argmax(ds))
        checks["sigma_monotone"] = Verdict(
            PASS if ds[kk] <= MONOTONE_TOL else FAIL, float(ds[kk]), int(n[kk + 1]),
            "energy sigma_n nonincreasing",
        )
    else:
        checks["sigma_monotone"] = Verdict(PASS, 0.0, int(n[0]) if n.size else None, "single record")

    pairs = _consecutive_pairs(n) if n.size >= 2 else np.zeros(0, dtype=bool)
    if trace.algorithm in ("fista", "ista"):
        if np.any(pairs):
            lhs = (1.0 - trace.alpha[:-1] ** 2) * trace.step_norm[:-1] ** 2 / (2.0 * trace.gamma)
            resid = lhs - (trace.sigma[:-1] - trace.sigma[1:])
            resid = np.where(pairs, resid, -math.inf)
            kk = int(np.argmax(resid))
            checks["descent_ledger"] = Verdict(
                PASS if resid[kk] <= MONOTONE_TOL else FAIL, float(resid[kk]), int(n[kk]),
                "per-step descent accounting (1-alpha^2)||dx||^2/(2 gamma) <= sigma_n - sigma_{n+1}",
            )
        else:
            checks["descent_ledger"] = _na("needs consecutive records (record_every=1)")
    else:
        if np.any(pairs):
            ratio = (trace.tau[:-1] / trace.tau[1:]) ** 2
            rhs = trace.h[:-1] + ratio * (trace.sigma[:-1] - trace.h[:-1])
            resid = np.where(pairs, trace.sigma[1:] - rhs, -math.inf)
            kk = int(np.argmax(resid))
            checks["mfista_one_step"] = Verdict(
                PASS if resid[kk] <= MONOTONE_TOL else FAIL, float(resid[kk]), int(n[kk]),
                "one-step energy contraction of the monotone variant",
            )
        else:
            checks["mfista_one_step"] = _na("needs consecutive records (record_every=1)")

    lyap = trace.lyapunov
    if trace.anchored and np.all(np.isfinite(lyap)) and lyap.size >= 2:
        # E_n is assembled from tau_n^2 * (h_n - h(z)), so its rounding
        # noise grows like tau^2; an absolute tolerance would start
        # failing on clean runs once tau^2 * eps outgrows it.
        href = max(1.0, abs(trace.anchor_h)) if trace.anchor_h is not None else 1.0
        noise = np.maximum(MONOTONE_TOL, LYAPUNOV_NOISE * trace.tau[1:] ** 2 * href)
        dE = np.diff(lyap) - noise
        kk = int(np.argmax(dE))
        checks["lyapunov"] = Verdict(
            PASS if dE[kk] <= 0.0 else FAIL, float(dE[kk]), int(n[kk + 1]),
            "Lyapunov energy E_n nonincreasing (excess over tau^2-scaled rounding allowance)",
        )
        accum = 2.0 * trace.gamma * (lyap[0] - lyap)
        kk = int(np.argmin(accum))
        if trace.algorithm == "mfista":
            checks["fejer"] = _na("ledger defined through the accepted iterates only")
        else:
            checks["fejer"] = Verdict(
                PASS if accum[kk] >= -ACCUMULATED_TOL else FAIL, float(accum[kk]), int(n[kk]),
                "accumulated quasi-Fejer inequality (telescoped against E_1)",
            )
    else:
        reason = "no anchor point" if not trace.anchored else "energy column incomplete"
        checks["lyapunov"] = _na(reason)
        checks["fejer"] = _na(reason)

    fd = trace.fejer_dist
    if trace.anchored and trace.algorithm in ("fista", "ista") and np.all(np.isfinite(fd)) and fd.size:
        mask = last_complete_decade_mask(n)
        if not np.any(mask):
            checks["fejer_distance"] = _na("no complete decade recorded")
        elif float(np.max(trace.step_norm[mask])) > STEP_SETTLED_TOL:
            # Distance convergence is asymptotic; while the tail is still
            # moving, a finite window says nothing either way.
            checks["fejer_distance"] = _na(
                f"tail still moving (max step {float(np.max(trace.step_norm[mask])):.3e} "
                "in the last complete decade)"
            )
        else:
            osc = float(np.max(fd[mask]) - np.min(fd[mask]))
            checks["fejer_distance"] = Verdict(
                PASS if osc < OSCILLATION_TOL else FAIL, osc, int(n[mask][0]),
                "last-decade oscillation of ||z_n - z||",
            )
    else:
        checks["fejer_distance"] = _na("needs an anchored non-monotone run")

    checks["rate_O_n2"] = certify_O_one_over_n2(trace, reference.min_h, reference.witness, witness_h,
                                                reference.error_bar)
    checks.update(certify_bounded_tau_rates(trace, reference.min_h, reference.error_bar,
                                            problem.argmin_nonempty))
    checks["rate_tau2_decay"] = certify_tau2_decay(trace, reference.min_h)
    checks["divergence_xnorm"] = certify_divergence(trace, problem.argmin_nonempty)
    checks["running_min"] = certify_liminf_inf(trace, reference, kappa, bz, liminf_threshold)

    gap_ref = reference.min_h if reference.min_h is not None else reference.inf_h
    rate = None
    if gap_ref is not None and math.isfinite(gap_ref):
        rate = fit_rate(trace.n, trace.h - gap_ref)

    exploratory = {}
    if trace.h.size >= 2:
        rmin = np.minimum.accumulate(trace.h)
        drift = float(trace.h[-1] - rmin[-1])
        exploratory["full_limit_probe"] = Verdict(
            EXPLORATORY, drift, int(n[-1]),
            "gap between final h and its running minimum; small values hint h itself converges",
        )
    disp = trace.displacement
    if disp is not None:
        exploratory["displacement_probe"] = Verdict(
            EXPLORATORY, float(np.linalg.norm(disp)), int(n[-1]) if n.size else None,
            "final ||x_N - x_{N-1}||, the fixed-displacement probe",
        )

    return {
        "schema_version": 1,
        "run": {
            "name": run_name,
            "algorithm": trace.algorithm,
            "problem": trace.problem_name,
            "schedule": trace.schedule_spec,
            "gamma": trace.gamma,
            "max_iters": trace.max_iters,
            "record_every": trace.record_every,
            "records": int(trace.n.size),
            "anchored": trace.anchored,
            "diverging": trace.diverging,
            "truncated_at": trace.truncated_at,
            "stopped_at": trace.stopped_at,
        },
        "reference": {
            "min_h": reference.min_h,
            "error_bar": reference.error_bar,
            "source": reference.source,
            "inf_h": reference.inf_h,
        },
        "kappa": kappa,
        "beta_z": bz,
        "rate_fit": None if rate is None else {
            "p": rate.p,
            "C": rate.C,
            "n_lo": rate.n_lo,
            "n_hi": rate.n_hi,
            "points": rate.points,
            "underflow_flagged": rate.underflow_flagged,
            "ok": rate.ok,
        },
        "checks": {name: v.as_dict() for name, v in checks.items()},
        "exploratory": {name: v.as_dict() for name, v in exploratory.items()},
    }


def report_ok(report: dict) -> bool:
    """True when every non-exploratory verdict passed or did not apply."""
    return all(v["status"] in (PASS, NOT_APPLICABLE) for v in report["checks"].values())


def failed_checks(report: dict) -> list:
    return sorted(
        name for name, v in report["checks"].items() if v["status"] not in (PASS, NOT_APPLICABLE)
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if f == math.inf:
            return "inf"
        if f == -math.inf:
            return "-inf"
        return f
    return obj


def report_to_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, non-finite floats as strings."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=1, allow_nan=False) + "\n"
