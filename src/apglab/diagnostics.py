"""Post-hoc trace analysis: certificates, rate fits, and reference oracles.

Every verdict is a pure function of the trace columns plus problem
metadata, so re-running diagnostics on the same data reproduces the same
report bit for bit. Asymptotic claims (o(1/n), distances converging) are
operationalized as decade-scale trends, which are falsifiable on a finite
prefix without pretending to prove a limit.
"""

import dataclasses
import json
import math
from typing import Optional

import numpy as np

from .errors import OracleNotApplicable, OracleUnreliable
from .problem import NUMERIC_TOL, UNIT_ROUNDOFF, CompositeProblem, evaluate_h
from .schedules import FAMILIES
# ista_run and mfista_run are not called here, but stay importable under these
# names: perfbench/tracer.py hooks apglab.diagnostics.ista_run and .mfista_run.
from .solvers import SolverOptions, SolverTrace, fista_run, ista_run, ledger, mfista_run  # noqa: F401

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
LYAPUNOV_NOISE = 1e-13
STEP_SETTLED_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Verdict:
    status: str
    worst_residual: Optional[float] = None
    location_n: Optional[int] = None
    detail: str = ""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _na(detail: str) -> Verdict:
    return Verdict(status=NOT_APPLICABLE, detail=detail)


@dataclasses.dataclass(frozen=True)
class ReferenceInfo:
    """Best available knowledge of min h for a run.

    source is "catalog" (analytic), "oracle" (reference_min), or "none"
    (no minimizer; inf_h carries the analytic infimum when finite). lower,
    upper, iterations and certificate are the oracle's provenance (a
    catalog minimum is its own interval, certified as "closed form"). The
    witness attains upper = min_h, and error_bar = max(upper - lower, 0) +
    allowance bounds its distance to min h, allowance (0 for a closed form)
    being the rounding allowance of the two end points (:func:`duality_bound`).
    Rounding may leave lower a few ulps above upper; min h is then within
    allowance of both.
    """

    min_h: Optional[float]
    error_bar: float
    witness: Optional[np.ndarray]
    source: str
    inf_h: Optional[float] = None
    lower: Optional[float] = None
    upper: Optional[float] = None
    iterations: int = 0
    certificate: Optional[str] = None
    allowance: float = 0.0


# Defaults of the run keys oracle_budget and liminf_threshold (running_min's escape level)
ORACLE_BUDGET = 50_000
LIMINF_THRESHOLD = -1e6


# Restarted FISTA: the oracle's chunk length, and its stop test's relative gap.
ORACLE_CHUNK = 250
ORACLE_GAP_TOL = 1e-12
# Rounding allowance of h(x) and of its dual bound at x, in unit roundoffs of
# the largest summand; against exact rational arithmetic, lasso instances up
# to d = 50 rounded by less than 1 (see duality_bound).
ROUNDING_UNITS = 8.0


def duality_bound(problem: CompositeProblem, x: np.ndarray) -> tuple:
    """(lower, allowance): a lower bound on min h from the Fenchel dual of h at x.

    For f(x) = x^T Q x / 2 - c^T x + kappa and g the l1 term of weight lam
    (g = 0 is weight 0) or a box, the dual is evaluated at
    u = s (c - Q x), the negative gradient scaled into dom g*:
    - l1: s = min(1, lam / ||c - Q x||_inf), and the bound is
      kappa - ((1-s)^2 rho + 2 s (1-s) c^T x + s^2 x^T Q x) / 2, rho >=
      c^T Q^+ c read from the form. For least squares this is the rescaled
      lasso dual (Fercoq, Gramfort & Salmon, ICML 2015).
    - box: s = 1, and h(x) minus the bound is the Frank-Wolfe gap
      max over the box of <grad f(x), x - y>.
    The summands are added with math.fsum. allowance, ROUNDING_UNITS unit
    roundoffs of max(1, the largest summand of h(x) or of the bound), a
    dot product counted by the absolute values of its entries, covers the
    rounding of both: min h >= lower - allowance, and h(x) as computed is
    within allowance of its exact value.
    """
    form = problem.smooth.quadratic
    q, c, kappa = form.q, form.c, form.constant
    params = problem.nonsmooth.params
    qx = q @ x
    w = c - qx
    xqx, cx = float(x @ qx), float(c @ x)
    sizes = [abs(kappa), float(np.abs(x) @ (np.abs(q) @ np.abs(x))), float(np.abs(c) @ np.abs(x))]
    if "weight" in params:
        lam = params["weight"]
        top = float(np.max(np.abs(w)))
        s = 1.0 if top <= lam else lam / top
        dual_rho = 0.0 if s == 1.0 else 0.5 * (1.0 - s) ** 2 * form.rho
        terms = [kappa, -dual_rho, -s * (1.0 - s) * cx, -0.5 * s * s * xqx]
        sizes += [dual_rho, lam * float(np.sum(np.abs(x)))]
    else:
        # the box's support function at w, one coordinate at a time
        with np.errstate(invalid="ignore"):
            support = np.where(w > 0.0, w * params["hi"], np.where(w < 0.0, w * params["lo"], 0.0))
        terms = [kappa, -0.5 * xqx, *(-support).tolist()]
        sizes.append(float(np.max(np.abs(support))))
    lower = math.fsum(terms) if all(map(math.isfinite, terms)) else -math.inf
    return lower, ROUNDING_UNITS * UNIT_ROUNDOFF * max([1.0] + [size for size in sizes if math.isfinite(size)])


def reference_min(problem: CompositeProblem, budget: int = ORACLE_BUDGET) -> ReferenceInfo:
    """Certified reference solve for min h: restarted FISTA until a duality gap closes.

    Classical FISTA (:func:`~apglab.solvers.fista_run`) runs in chunks of
    ORACLE_CHUNK iterations, each restarted from the last iterate of the
    one before (fixed-period restart; O'Donoghue & Candes, FoCM 2015).
    After each chunk its last iterate x gives h(x) and a dual lower bound
    (:func:`duality_bound`); lower is the running max of the bounds and
    upper the running min of h, attained at the witness. The solve stops
    once upper - lower <= max(ORACLE_GAP_TOL max(1, |upper|), allowance)
    and the last chunk shrank neither end, so it keeps polishing while the
    interval still moves. It returns the ReferenceInfo of source "oracle",
    min_h = upper with error_bar = max(upper - lower, 0) + allowance, a
    bound on |min_h - min h|.

    budget caps the total iterations. The stop needs a chunk that moves
    nothing after the interval is small, so a budget of one chunk or less
    never certifies. Raises OracleUnreliable when the budget runs out first,
    and OracleNotApplicable for a problem flagged as having no minimizer or
    without the data of a certificate: a quadratic smooth term and an l1,
    zero or box g.

    Cost. A solve costs the iterations it needs: 1,000-4,000 on the
    seed-drawn lasso instances of d = 10 to 50, against a fixed 100,000 for
    the two-stage agreement (ISTA, then monotone FISTA) this replaces.
    Each chunk records two rows, so its iterations skip the per-row
    diagnostic columns. FISTA and not its monotone variant: the monotone
    iterate stops moving once h ties in floating point, and the dual
    bound at it stalls orders of magnitude short of the primal value.
    ``apg run`` solves each distinct problem (spec and budget) once, before
    it dispatches any run.
    """
    if problem.argmin_nonempty is False:
        raise OracleNotApplicable(f"{problem.name}: flagged as having no minimizer")
    if problem.smooth.quadratic is None or problem.nonsmooth.params is None:
        raise OracleNotApplicable(f"{problem.name}: no duality certificate for these terms")
    certificate = "rescaled dual gap" if "weight" in problem.nonsmooth.params else "frank-wolfe gap"
    x = np.zeros(problem.dim)
    lower, upper = -math.inf, math.inf
    lower_allowance = upper_allowance = 0.0
    used = 0
    while used < budget:
        chunk = min(ORACLE_CHUNK, budget - used)
        trace = fista_run(problem, {"kind": "classical"}, SolverOptions(max_iters=chunk, record_every=chunk, x0=x))
        used += chunk
        x, h_x = trace.final_x, float(trace.h[-1])
        bound, allowance = duality_bound(problem, x)
        moved = bound > lower or h_x < upper
        if bound > lower:
            lower, lower_allowance = bound, allowance
        if h_x < upper:
            upper, upper_allowance, witness = h_x, allowance, x
        allowance = max(lower_allowance, upper_allowance)
        if not moved and upper - lower <= max(ORACLE_GAP_TOL * max(1.0, abs(upper)), allowance):
            return ReferenceInfo(upper, max(upper - lower, 0.0) + allowance, witness, "oracle", upper, lower, upper,
                                 used, certificate, allowance)
    raise OracleUnreliable(f"{problem.name}: no certificate within oracle_budget = {budget} "
                           f"(interval [{lower:.17g}, {upper:.17g}])", gap=upper - lower)


def resolve_reference(problem: CompositeProblem, budget: int = ORACLE_BUDGET) -> ReferenceInfo:
    """Pick the reference minimum: catalog metadata first, oracle second."""
    if problem.known_min is not None:
        return ReferenceInfo(problem.known_min, 0.0, problem.known_argmin, "catalog", problem.known_min,
                             problem.known_min, problem.known_min, 0, "closed form")
    if problem.argmin_nonempty is False:
        return ReferenceInfo(None, 0.0, None, "none", problem.inf_h)
    return reference_min(problem, budget)


def beta_z_from_trace(trace: SolverTrace, witness: np.ndarray, witness_h: float) -> Optional[float]:
    """Certificate constant at n=1: tau_1^2 (h(x_1) - h(z)) + ||u_1||^2/(2 gamma)."""
    if trace.x1 is None or trace.n.size == 0 or int(trace.n[0]) != 1:
        return None
    lyap, _ = ledger(trace.gamma, False, witness, witness_h, trace.tau[:1], trace.h1, trace.x0[None], None,
                     trace.x1[None])
    return float(lyap[0])


class Decades:
    """Decade index of each recorded n, and the complete decades among them.

    Decade k holds n in [10^k, 10^{k+1}); it is complete when the trace
    extends to its upper end, so the partial decade at the tail is left out.
    """

    def __init__(self, n: np.ndarray):
        # the half offset dodges any floating log10 landing a hair under an
        # exact power of ten
        self.index = np.floor(np.log10(n.astype(float) + 0.5)).astype(int)
        n_last = int(n.max()) if n.size else 0
        ks = range(int(self.index.min()), int(self.index.max()) + 1) if n.size else ()
        self.complete = [k for k in ks if 10 ** (k + 1) - 1 <= n_last and np.any(self.index == k)]
        # rows of the highest complete decade
        self.last = self.index == self.complete[-1] if self.complete else np.zeros(n.shape, dtype=bool)

    def maxes(self, values: np.ndarray) -> list:
        """Maximum of values over each complete decade, in decade order."""
        return [float(np.max(values[self.index == k])) for k in self.complete]


@dataclasses.dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit of the objective gap.

    p and C satisfy gap ~ C n^{-p} over [n_lo, n_hi]; underflow_flagged
    marks fits restricted to the window before the gap fell to its floor.
    """

    p: float
    C: float
    n_lo: int
    n_hi: int
    points: int
    underflow_flagged: bool
    ok: bool


def fit_rate(ns: np.ndarray, gaps: np.ndarray, floor: float = 0.0) -> RateFit:
    """Fit log(gap) = log C - p log n over the last two decades of gaps above floor.

    A gap at or below floor, the reference's error bar, is not told apart
    from zero: a run that settles within it ends the fitted window.
    """
    ns = np.asarray(ns, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    pos = (gaps > floor) & (ns >= 1.0) & np.isfinite(gaps)
    if not np.any(pos):
        return RateFit(math.nan, math.nan, 0, 0, 0, True, False)
    n_hi = float(np.max(ns[pos]))
    flagged = n_hi < float(np.max(ns))
    window = pos & (ns >= n_hi / 100.0)
    count = int(np.count_nonzero(window))
    if count < 4:
        return RateFit(math.nan, math.nan, int(np.min(ns[pos])), int(n_hi), count, flagged, False)
    # ordinary least squares in closed form; np.polyfit's scaled Vandermonde
    # solve takes about 6 MB of temporaries on a 99k-point window
    x, y = np.log(ns[window]), np.log(gaps[window])
    dx = x - x.mean()
    slope = float(dx @ (y - y.mean())) / float(dx @ dx)
    intercept = float(y.mean()) - slope * float(x.mean())
    return RateFit(float(-slope), float(math.exp(intercept)), int(np.min(ns[window])), int(n_hi), count,
                   flagged, True)


@dataclasses.dataclass(frozen=True)
class RunFacts:
    """What the checks of one run read, each computed once per report.

    kappa, tau_sup and delta are the schedule family's bounds (see
    :class:`~apglab.schedules.Family`) on the trace's canonical spec;
    beta_z is the certificate constant at the reference witness, None
    without a witness in dom h or a complete trace head; pairs masks the
    pairs of records (i, i+1) one iteration apart.
    """

    trace: SolverTrace
    reference: ReferenceInfo
    argmin_nonempty: Optional[bool]
    liminf_threshold: float
    kappa: float
    tau_sup: float
    delta: float
    beta_z: Optional[float]
    decades: Decades
    pairs: np.ndarray


def run_facts(trace: SolverTrace, problem: CompositeProblem, reference: ReferenceInfo,
              liminf_threshold: float) -> RunFacts:
    """The facts of one run, from its trace, problem and reference minimum."""
    spec = trace.schedule_spec
    family = FAMILIES[spec["kind"]]
    beta_z = None
    if reference.witness is not None:
        witness_h = evaluate_h(problem, reference.witness)
        if math.isfinite(witness_h):
            beta_z = beta_z_from_trace(trace, reference.witness, witness_h)
    return RunFacts(trace, reference, problem.argmin_nonempty, liminf_threshold, family.kappa(spec),
                    family.tau_sup(spec), family.delta(spec), beta_z, Decades(trace.n), np.diff(trace.n) == 1)


def _worst(resid: np.ndarray, n: np.ndarray, tol: float, detail: str, lowest: bool = False) -> Verdict:
    """Verdict on the largest residual against tol, or the smallest against -tol when lowest, at its n."""
    k = int(np.argmin(resid) if lowest else np.argmax(resid))
    worst = float(resid[k])
    return Verdict(PASS if (worst >= -tol if lowest else worst <= tol) else FAIL, worst, int(n[k]), detail)


def kappa_form(f: RunFacts, n):
    """The O(1/n^2) bound beta_z kappa^2 / n^2 at n, a float or an array; a bound only for beta_z >= 0."""
    return f.beta_z * f.kappa * f.kappa / (n * n)


def _keyineq(f: RunFacts) -> Verdict:
    key = f.trace.key_residual
    finite = np.isfinite(key)
    if not np.any(finite):
        return _na("no residuals computable (start outside dom h)")
    return _worst(key[finite], f.trace.n[finite], MONOTONE_TOL, "min one-step key-inequality residual",
                  lowest=True)


def _single_record(t: SolverTrace) -> Optional[Verdict]:
    if t.n.size < 2:
        return Verdict(PASS, 0.0, int(t.n[0]) if t.n.size else None, "single record")


def _monotone_h(f: RunFacts) -> Optional[Verdict]:
    t = f.trace
    if t.algorithm != "mfista":
        return None
    return _single_record(t) or _worst(np.diff(t.h), t.n[1:], 0.0, "h(x_n) nonincreasing by construction")


def _sigma_monotone(f: RunFacts) -> Verdict:
    t = f.trace
    return _single_record(t) or _worst(np.diff(t.sigma), t.n[1:], MONOTONE_TOL, "energy sigma_n nonincreasing")


def _pair_ledger(f: RunFacts, resid: np.ndarray, detail: str) -> Verdict:
    """_worst over the consecutive pairs only, located at the pair's first n."""
    if not np.any(f.pairs):
        return _na("needs consecutive records (record_every=1)")
    return _worst(np.where(f.pairs, resid, -math.inf), f.trace.n[:-1], MONOTONE_TOL, detail)


def _descent_ledger(f: RunFacts) -> Optional[Verdict]:
    t = f.trace
    if t.algorithm == "mfista":
        return None
    lhs = (1.0 - t.alpha[:-1] ** 2) * t.step_norm[:-1] ** 2 / (2.0 * t.gamma)
    return _pair_ledger(f, lhs - (t.sigma[:-1] - t.sigma[1:]),
                        "per-step descent accounting (1-alpha^2)||dx||^2/(2 gamma) <= sigma_n - sigma_{n+1}")


def _mfista_one_step(f: RunFacts) -> Optional[Verdict]:
    t = f.trace
    if t.algorithm != "mfista":
        return None
    ratio = (t.tau[:-1] / t.tau[1:]) ** 2
    rhs = t.h[:-1] + ratio * (t.sigma[:-1] - t.h[:-1])
    return _pair_ledger(f, t.sigma[1:] - rhs, "one-step energy contraction of the monotone variant")


def _energy_na(t: SolverTrace) -> Optional[Verdict]:
    if not t.anchored:
        return _na("no anchor point")
    if t.lyapunov.size < 2 or not np.all(np.isfinite(t.lyapunov)):
        return _na("energy column incomplete")


def _lyapunov(f: RunFacts) -> Verdict:
    t = f.trace
    if na := _energy_na(t):
        return na
    # E_n is assembled from tau_n^2 * (h_n - h(z)), so its rounding noise
    # grows like tau^2; an absolute tolerance would start failing on clean
    # runs once tau^2 * eps outgrows it.
    href = max(1.0, abs(t.anchor_h)) if t.anchor_h is not None else 1.0
    noise = np.maximum(MONOTONE_TOL, LYAPUNOV_NOISE * t.tau[1:] ** 2 * href)
    return _worst(np.diff(t.lyapunov) - noise, t.n[1:], 0.0,
                  "Lyapunov energy E_n nonincreasing (excess over tau^2-scaled rounding allowance)")


def _fejer(f: RunFacts) -> Verdict:
    t = f.trace
    if na := _energy_na(t):
        return na
    if t.algorithm == "mfista":
        return _na("ledger defined through the accepted iterates only")
    return _worst(2.0 * t.gamma * (t.lyapunov[0] - t.lyapunov), t.n, ACCUMULATED_TOL,
                  "accumulated quasi-Fejer inequality (telescoped against E_1)", lowest=True)


def _fejer_distance(f: RunFacts) -> Verdict:
    t, mask, fd = f.trace, f.decades.last, f.trace.fejer_dist
    if not (t.anchored and t.algorithm in ("fista", "ista") and fd.size and np.all(np.isfinite(fd))):
        return _na("needs an anchored non-monotone run")
    if not np.any(mask):
        return _na("no complete decade recorded")
    step = float(np.max(t.step_norm[mask]))
    if step > STEP_SETTLED_TOL:
        # Distance convergence is asymptotic; while the tail is still
        # moving, a finite window says nothing either way.
        return _na(f"tail still moving (max step {step:.3e} in the last complete decade)")
    osc = float(np.max(fd[mask]) - np.min(fd[mask]))
    return Verdict(PASS if osc < OSCILLATION_TOL else FAIL, osc, int(t.n[mask][0]),
                   "last-decade oscillation of ||z_n - z||")


def _rate_O_n2(f: RunFacts) -> Verdict:
    """h(x_n) - min_h <= beta_z kappa^2 / n^2 at every recorded n.

    Applies to the plain accelerated iteration with an analytically
    bounded kappa; a margin below the oracle error bar degrades the
    verdict to inconclusive (min h lies within the error bar of min_h).
    """
    t, ref = f.trace, f.reference
    if t.algorithm == "mfista":
        return _na("certificate stated for the non-monotone iteration")
    if not math.isfinite(f.kappa):
        return _na("schedule has no finite kappa bound")
    if ref.min_h is None or ref.witness is None:
        return _na("no reference minimizer")
    if f.beta_z is None:
        return _na("trace head incomplete")
    viol = (t.h - ref.min_h) - kappa_form(f, t.n.astype(float))
    k = int(np.argmax(viol))
    worst, at = float(viol[k]), int(t.n[k])
    constants = f"beta_z={f.beta_z:.6g} kappa={f.kappa:g}"
    if worst > RATE_BOUND_SLACK:
        return Verdict(FAIL, worst, at, f"bound exceeded; {constants}")
    if -worst < ref.error_bar:
        return Verdict(INCONCLUSIVE, worst, at, "margin within oracle error bar")
    return Verdict(PASS, worst, at, constants)


def _bounded_na(f: RunFacts, needs_min: bool = True) -> Optional[Verdict]:
    """Gate of the bounded-schedule limit checks (sup tau_n < inf)."""
    if not math.isfinite(f.tau_sup):
        return _na("schedule unbounded")
    if f.trace.n.size == 0:
        return _na("empty trace")
    if f.argmin_nonempty is False:
        return _na("limit statements need a minimizer")
    if needs_min and f.reference.min_h is None:
        return _na("no reference minimum")


def _sigma_h_shared_limit(f: RunFacts) -> Verdict:
    t = f.trace
    return _bounded_na(f, needs_min=False) or _worst(np.abs(t.sigma[-1:] - t.h[-1:]), t.n[-1:], ACCUMULATED_TOL,
                                                     "final |sigma - h|")


def _rate_o_n(f: RunFacts) -> Verdict:
    """o(1/n) gap decay: the last three decade maxima of n (h - min_h) decrease."""
    if na := _bounded_na(f):
        return na
    t = f.trace
    maxes = f.decades.maxes(t.n.astype(float) * (t.h - f.reference.min_h))
    if len(maxes) < 3:
        return _na(f"only {len(maxes)} complete decades recorded, need 3")
    tail = maxes[-3:]
    worst = max(tail[1] - tail[0], tail[2] - tail[1])
    slack = float(t.n[-1]) * f.reference.error_bar
    at = 10 ** f.decades.complete[-1]
    if tail[2] == 0.0 and tail[0] >= tail[1] >= tail[2]:
        # The gap reached exactly zero; n*(gap) cannot keep strictly
        # decreasing but its limit is certainly 0.
        return Verdict(PASS, worst, at, "gap reached exactly zero in the tail")
    if worst < -slack:
        return Verdict(PASS, worst, at, "last three decade maxima of n*(h-min_h)")
    if worst < slack:
        return Verdict(INCONCLUSIVE, worst, at, "decrease within oracle error bar")
    return Verdict(FAIL, worst, at, "decade maxima of n*(h-min_h) not decreasing")


def _summability_tails(f: RunFacts) -> Verdict:
    t, mask = f.trace, f.decades.last
    if na := _bounded_na(f):
        return na
    if t.record_every != 1:
        return _na("partial sums need record_every=1")
    if not np.any(mask):
        return _na("no complete decade recorded")
    sq = t.step_norm[mask] ** 2
    worst = max(float(np.sum(sq)), float(np.sum(t.n[mask].astype(float) * sq)))
    return Verdict(PASS if worst < ACCUMULATED_TOL else FAIL, worst, int(t.n[mask][0]),
                   "last-decade tails of sum ||dx||^2 and sum n ||dx||^2")


def _rate_tau2_decay(f: RunFacts) -> Verdict:
    """Monotone-variant improved rate: tau_n^2 (h(x_n) - min_h) -> 0.

    Gated on the strict Attouch condition (delta bound < 1) and an
    unbounded schedule; tested as the last complete decade's maximum
    falling below one percent of the first's.
    """
    t, min_h = f.trace, f.reference.min_h
    if t.algorithm != "mfista":
        return _na("improved rate stated for the monotone variant")
    if min_h is None:
        return _na("no reference minimum")
    if not f.delta < 1.0:
        return _na(f"attouch delta bound {f.delta:g} not < 1")
    if not math.isinf(f.tau_sup):
        return _na("schedule bounded; tau_n^2 gap decay is not informative")
    maxes = f.decades.maxes(t.tau * t.tau * (t.h - min_h))
    if len(maxes) < 2:
        return _na(f"only {len(maxes)} complete decades recorded, need 2")
    resid = maxes[-1] - maxes[0] / 100.0
    at = 10 ** f.decades.complete[-1]
    if resid < 0.0:
        return Verdict(PASS, resid, at, f"decade max fell {maxes[0] / max(maxes[-1], 1e-300):.3g}x")
    return Verdict(FAIL, resid, at, "tau^2-scaled gap did not decay 100x")


def _divergence_xnorm(f: RunFacts) -> Verdict:
    """No-minimizer runs must blow up in norm.

    Checks that x_norm is nondecreasing over the last half of the records
    and that the final norm exceeds ten times the norm at the log-axis
    midpoint of the run (index ~ sqrt(n_first * n_last)); for power-law
    growth the arithmetic midpoint would sit a constant factor below the
    endpoint regardless of how decisively the run diverges.
    """
    t = f.trace
    if f.argmin_nonempty is not False:
        return _na("problem has (or may have) a minimizer")
    if t.n.size < 4:
        return Verdict(INCONCLUSIVE, None, None, "too few records")
    xs = t.x_norm
    half = xs[xs.size // 2 :]
    steps = np.diff(half)
    drops = steps < -1e-12 * np.maximum(1.0, half[:-1])
    if np.any(drops):
        return Verdict(FAIL, float(np.min(steps)), int(t.n[xs.size // 2 + int(np.argmax(drops))]),
                       "x_norm not eventually nondecreasing")
    mid = int(np.argmin(np.abs(t.n.astype(float) - math.sqrt(float(t.n[0]) * float(t.n[-1])))))
    ratio_resid = DIVERGENCE_FACTOR * float(xs[mid]) - float(xs[-1])
    if ratio_resid >= 0.0:
        return Verdict(FAIL, ratio_resid, int(t.n[mid]),
                       f"final x_norm {xs[-1]:.6g} not {DIVERGENCE_FACTOR:g}x the midpoint {xs[mid]:.6g}")
    return Verdict(PASS, ratio_resid, int(t.n[mid]),
                   f"growth factor {float(xs[-1]) / max(float(xs[mid]), 1e-300):.3g}")


def _running_min(f: RunFacts) -> Verdict:
    """Running minimum of h approaches the best known lower bound.

    For inf h = -inf the check is a configured escape level; otherwise the
    allowance scales with the certified rate of the schedule class when a
    certificate constant is available, with floors for the oracle error
    bar and for slow no-minimizer regimes.
    """
    t, ref = f.trace, f.reference
    if t.n.size == 0:
        return Verdict(INCONCLUSIVE, None, None, "empty trace")
    k = int(np.argmin(t.h))
    rmin, at = float(t.h[k]), int(t.n[k])
    if ref.inf_h is not None and ref.inf_h == -math.inf:
        if rmin < f.liminf_threshold:
            return Verdict(PASS, rmin, at, f"running min below {f.liminf_threshold:g}")
        return Verdict(FAIL, rmin, at, f"running min never fell below {f.liminf_threshold:g}")
    best = ref.min_h if ref.min_h is not None else ref.inf_h
    if best is None:
        return _na("no lower-bound reference")
    tol = max(1e-6, 10.0 * ref.error_bar)
    if ref.min_h is not None and f.beta_z is not None and math.isfinite(f.kappa):
        tol = max(tol, kappa_form(f, float(t.n[-1])))
    if ref.min_h is None:
        # Finite infimum with empty Argmin: approach is slow by nature
        # (the minimizing ray escapes), so only order-of-magnitude
        # agreement is meaningful on a desk-scale prefix.
        tol = max(tol, 1e-2)
    resid = rmin - best
    if resid <= tol:
        return Verdict(PASS, resid, at, f"tolerance {tol:.3g}")
    return Verdict(FAIL, resid, at, f"running min misses the reference by {resid:.3g} > {tol:.3g}")


# Every report check, in report order: a function of the run's facts that
# returns its verdict, or None where the check is not stated for the
# run's algorithm.
CHECKS = (
    ("keyineq", _keyineq),
    ("monotone_h", _monotone_h),
    ("sigma_monotone", _sigma_monotone),
    ("descent_ledger", _descent_ledger),
    ("mfista_one_step", _mfista_one_step),
    ("lyapunov", _lyapunov),
    ("fejer", _fejer),
    ("fejer_distance", _fejer_distance),
    ("rate_O_n2", _rate_O_n2),
    ("sigma_h_shared_limit", _sigma_h_shared_limit),
    ("rate_o_n", _rate_o_n),
    ("summability_tails", _summability_tails),
    ("rate_tau2_decay", _rate_tau2_decay),
    ("divergence_xnorm", _divergence_xnorm),
    ("running_min", _running_min),
)


# trace fields a report's "run" section copies under their own names
RUN_FIELDS = ("algorithm", "gamma", "max_iters", "record_every", "anchored", "diverging", "truncated_at")


# reference fields a report's "reference" section copies under their own names
REFERENCE_FIELDS = ("min_h", "error_bar", "source", "inf_h", "lower", "upper", "iterations", "certificate")


def build_report(trace: SolverTrace, problem: CompositeProblem, reference: ReferenceInfo,
                 run_name: str = "", liminf_threshold: float = LIMINF_THRESHOLD) -> dict:
    """Assemble the full JSON-ready report for one run."""
    f = run_facts(trace, problem, reference, liminf_threshold)
    checks = {name: v for name, check in CHECKS if (v := check(f)) is not None}

    gap_ref = reference.min_h if reference.min_h is not None else reference.inf_h
    rate = (fit_rate(trace.n, trace.h - gap_ref, reference.error_bar)
            if gap_ref is not None and math.isfinite(gap_ref) else None)

    n = trace.n
    exploratory = {}
    if n.size >= 2:
        drift = float(trace.h[-1] - np.minimum.accumulate(trace.h)[-1])
        exploratory["full_limit_probe"] = Verdict(EXPLORATORY, drift, int(n[-1]), "gap between final h and its "
                                                  "running minimum; small values hint h itself converges")
    if trace.displacement is not None:
        exploratory["displacement_probe"] = Verdict(
            EXPLORATORY, float(np.linalg.norm(trace.displacement)), int(n[-1]) if n.size else None,
            "final ||x_N - x_{N-1}||, the fixed-displacement probe")

    return {
        "schema_version": 4,
        "run": {"name": run_name, "problem": trace.problem_name, "schedule": trace.schedule_spec,
                "records": int(n.size), **{key: getattr(trace, key) for key in RUN_FIELDS}},
        "reference": {key: getattr(reference, key) for key in REFERENCE_FIELDS},
        "kappa": f.kappa,
        "beta_z": f.beta_z,
        "rate_fit": None if rate is None else dataclasses.asdict(rate),
        "checks": {name: v.as_dict() for name, v in checks.items()},
        "exploratory": {name: v.as_dict() for name, v in exploratory.items()},
    }


def failed_checks(report: dict) -> list:
    """Names of the checks that neither passed nor were not applicable, sorted."""
    return sorted(name for name, v in report["checks"].items() if v["status"] not in (PASS, NOT_APPLICABLE))


def report_ok(report: dict) -> bool:
    """True when every non-exploratory verdict passed or did not apply."""
    return not failed_checks(report)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)  # "nan", "inf" or "-inf"
    return obj


def report_to_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, non-finite floats as strings."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=1, allow_nan=False) + "\n"
