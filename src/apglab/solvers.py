"""ISTA/FISTA/MFISTA iteration engines producing instrumented traces.

Every run records, per iteration: the objective, the energy sigma_n, step
and iterate norms, the one-step key-inequality residual, and (when an
anchor point is supplied) the Lyapunov energy E_n together with the
deviation-vector distance used by the quasi-Fejer ledger. Runs that
overflow are truncated and flagged diverging rather than raised, so the
no-minimizer regimes still produce usable partial traces.

Recorded rows only, a block at a time. The diagnostic columns (sigma,
the step norm, the key residual and the anchored ledger) are computed only
for iterations that write a row, and for the iteration whose row an
absorbed run copies forward. Every iteration computes what the iteration
itself needs: T y, h(T y), MFISTA's accept/reject, the iterate norm for the
divergence test, the step norm where a stop test or the absorption gate
reads it, the next tau and alpha, y_{n+1} and the stop tests. A sparser
``record_every`` therefore also makes a long run cheaper. A row to compute
is queued (its scalars and references to x_{n-1}, y_n, T y_n and x_n), and
every ``_BLOCK`` rows, and when the loop ends, one call computes the
columns of the whole block from (m, d) stacks. Its dot products go through
:func:`apglab.problem.rowdot`, one BLAS ``ddot`` per row, the routine a
1-D ``a @ b`` uses, so no row's value depends on the rows stacked with it
(a matrix product over the stack would round differently), and every other
operation is elementwise. The recorded rows are therefore bit-identical to
those of a loop that computes every column at every iteration, one row at
a time.

Absorbing states. With a constant schedule (ISTA, or FISTA/MFISTA at a
fixed tau) every iteration applies the same update to the state
(x_{n-1}, y_n), and float iterates often reach an exact fixed point of it
long before max_iters: an iteration leaves x and y bit for bit where it
found them. Every later iteration then repeats that one, recorded row
included, so the loop stops calling T and h, still draws each remaining
tau from the schedule, and copies the row to the remaining record rows.
Traces, CSVs and reports are therefore bit-identical to iterating to the
end, assuming only that T and h are deterministic.
``SolverTrace.absorbed_at`` names the first skipped iteration.

Momentum runs (varying tau) and runs with ``SolverOptions.fast_forward``
off, which the reference oracle sets, iterate to the end. Whether an
instance reaches an exact fixed point is luck of the float draw, so a skip
there would make the cost of the same workload swing several-fold from
one seed-drawn instance to the next (see
:func:`apglab.diagnostics.reference_min`).
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .problem import (
    CompositeProblem,
    as_point,
    descent_slack,
    evaluate_h,
    forward_backward_step,
    rowdot,
    vector_norm,
)
from .schedules import Schedule, canonical_schedule_spec, make_schedule

CSV_HEADER = "n,tau_n,alpha_n,h_xn,sigma_n,step_norm,x_norm,key_residual,lyapunov_E"

ALGORITHMS = ("ista", "fista", "mfista")

# Recorded float columns of SolverTrace, in the order of one record row.
_COLUMNS = ("tau", "alpha", "h", "sigma", "step_norm", "x_norm", "key_residual", "lyapunov", "fejer_dist")

ISTA_SCHEDULE = {"kind": "constant", "tau": 1.0}

# Recorded rows whose diagnostic columns are computed together (module
# docstring). A flush costs about 60 us of numpy calls plus 1.7 us per row
# at d = 10 or 50 (2-vCPU Xeon), against about 11 us per row computed
# alone. At 64 rows the fixed part is under 1 us per row, and a d = 50
# block raises a run's heap peak by about 0.05 MB (0.26 MB at 128 rows).
_BLOCK = 64


@dataclass
class SolverOptions:
    """Run-length, recording, stopping, and anchoring knobs.

    anchor is a point of dom h used for Lyapunov/Fejer ledgers (normally a
    known or oracle minimizer); anchor_h is its objective value, computed
    on demand when omitted. Stops are off by default because several
    checked properties concern non-convergent runs. fast_forward lets a
    constant-schedule run skip its iterations after it is absorbed at an
    exact fixed point (module docstring); the trace is the same either way.
    record_every thins the trace (the first and last iterations and a stop
    are always kept); the diagnostic columns are computed only for recorded
    rows, a block of rows at a time, so a sparse cadence also makes a long
    run cheaper.
    """

    max_iters: int
    record_every: int = 1
    x0: Optional[np.ndarray] = None
    anchor: Optional[np.ndarray] = None
    anchor_h: Optional[float] = None
    stop_step_norm: Optional[float] = None
    stop_h_gap: Optional[float] = None
    divergence_threshold: float = 1e150
    fast_forward: bool = True


@dataclass
class SolverTrace:
    """Recorded iteration columns plus run metadata.

    Column arrays share one length; optional quantities hold NaN where
    undefined (key_residual while the previous iterate is outside dom h,
    lyapunov/fejer_dist when no anchor is set, fejer_dist for MFISTA whose
    ledger is defined through the candidate points instead).
    """

    algorithm: str
    problem_name: str
    schedule_spec: dict
    gamma: float
    max_iters: int
    record_every: int
    n: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    h: np.ndarray
    sigma: np.ndarray
    step_norm: np.ndarray
    x_norm: np.ndarray
    key_residual: np.ndarray
    lyapunov: np.ndarray
    fejer_dist: np.ndarray
    x0: np.ndarray
    x1: Optional[np.ndarray]
    h1: float
    final_x: Optional[np.ndarray]
    final_x_prev: Optional[np.ndarray]
    anchored: bool
    anchor: Optional[np.ndarray]
    anchor_h: Optional[float]
    diverging: bool = False
    truncated_at: Optional[int] = None
    stopped_at: Optional[int] = None
    absorbed_at: Optional[int] = None

    @property
    def displacement(self) -> Optional[np.ndarray]:
        """x_N - x_{N-1} at the end of the run (last displacement probe)."""
        if self.final_x is None or self.final_x_prev is None:
            return None
        return self.final_x - self.final_x_prev


def _resolve_anchor(problem: CompositeProblem, options: SolverOptions):
    if options.anchor is None:
        return None, None
    anchor = as_point(options.anchor, problem.dim, "anchor")
    anchor_h = options.anchor_h
    if anchor_h is None:
        anchor_h = evaluate_h(problem, anchor)
    if not math.isfinite(anchor_h):
        raise ParameterError("anchor point lies outside dom h")
    return anchor, float(anchor_h)


def _run(problem: CompositeProblem, schedule: Schedule, options: SolverOptions, algorithm: str) -> SolverTrace:
    if options.max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {options.max_iters}")
    if options.record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {options.record_every}")
    if options.stop_h_gap is not None and problem.known_min is None:
        raise ParameterError("stop_h_gap requires a problem with known_min set")

    gamma = problem.gamma
    monotone = algorithm == "mfista"
    sched = schedule.clone()
    fast_forward = options.fast_forward and sched.kind == "constant"
    x0 = (
        np.zeros(problem.dim)
        if options.x0 is None
        else as_point(options.x0, problem.dim, "x0").astype(float)
    )
    anchor, anchor_h = _resolve_anchor(problem, options)
    anchored = anchor is not None

    n_iters = options.max_iters
    every = options.record_every
    cap = 2 + n_iters // every
    col_n = np.zeros(cap, dtype=np.int64)
    rows = np.full((cap, len(_COLUMNS)), math.nan)
    cursor = 0
    stop_step_norm = options.stop_step_norm
    stop_h_gap = options.stop_h_gap
    divergence_threshold = options.divergence_threshold
    # step_norm at every iteration only where a stop test or the absorption
    # gate reads it; otherwise on recorded rows alone, like the other
    # diagnostic columns
    every_step_norm = stop_step_norm is not None or fast_forward
    # Rows queued for _diagnostic_rows, one tuple of its arguments each.
    # They fill rows[done:] in order; an absorbing row that is not recorded
    # goes last, at rows[cursor]. The queue is cleared as soon as its
    # columns are stacked, which frees the per-row vectors before the block
    # is computed.
    pending = []
    done = 0

    def flush():
        nonlocal done
        columns = [np.array(col) for col in zip(*pending)]
        pending.clear()
        rows[done:done + len(columns[0])] = _diagnostic_rows(gamma, monotone, anchor, anchor_h, *columns)
        done = cursor

    x_prev = x0
    h_prev = evaluate_h(problem, x0)
    y = x0.copy()
    tau = sched.next_tau()
    x1: Optional[np.ndarray] = None
    h1 = math.nan
    diverging = False
    truncated_at: Optional[int] = None
    stopped_at: Optional[int] = None
    absorbed_at: Optional[int] = None
    final_x: Optional[np.ndarray] = None
    final_x_prev: Optional[np.ndarray] = None

    for n in range(1, n_iters + 1):
        t_y = forward_backward_step(problem, y)
        h_t = evaluate_h(problem, t_y)

        if monotone:
            if h_prev <= h_t:
                x, h_x = x_prev, h_prev
            else:
                x, h_x = t_y, h_t
        else:
            x, h_x = t_y, h_t

        x_norm = vector_norm(x)
        if x_norm > divergence_threshold or not (math.isfinite(h_x) and math.isfinite(x_norm)):
            diverging = True
            truncated_at = n
            break

        tau_next = sched.next_tau()
        alpha = (tau - 1.0) / tau_next
        step = x - x_prev
        step_norm = vector_norm(step) if every_step_norm else None

        if n == 1:
            x1 = x.copy()
            h1 = h_x

        stop = ((stop_step_norm is not None and step_norm < stop_step_norm)
                or (stop_h_gap is not None and h_x - problem.known_min < stop_h_gap))
        if stop:
            stopped_at = n

        if monotone:
            y_next = x + (tau / tau_next) * (t_y - x) + alpha * step
        else:
            y_next = x + alpha * step

        # Absorbing-state test (module docstring); a zero step norm is the
        # free gate, the bytes decide.
        absorbed = (fast_forward and not stop and n < n_iters and step_norm == 0.0
                    and x.tobytes() == x_prev.tobytes() and y_next.tobytes() == y.tobytes())

        record = n == 1 or n == n_iters or n % every == 0 or stop
        if record or absorbed:
            pending.append((tau, alpha, h_x, x_norm, h_prev, h_t, x_prev, y, t_y, x))
            if record:
                col_n[cursor] = n
                cursor += 1
            if len(pending) == _BLOCK:
                flush()

        final_x_prev = x_prev
        final_x = x
        x_prev = x
        h_prev = h_x
        y = y_next
        tau = tau_next
        if stop:
            break
        if absorbed:
            absorbed_at = n + 1
            break

    if pending:
        flush()
    if absorbed_at is not None:
        # Every remaining iteration repeats the last one, row included. The
        # absorbing row sits at rows[cursor] unless it was recorded itself.
        row = rows[cursor - 1 if record else cursor].copy()
        for n in range(absorbed_at, n_iters + 1):
            sched.next_tau()
            if n == n_iters or n % every == 0:
                col_n[cursor] = n
                rows[cursor] = row
                cursor += 1

    columns = {name: rows[:cursor, j].copy() for j, name in enumerate(_COLUMNS)}
    return SolverTrace(
        algorithm=algorithm,
        problem_name=problem.name,
        schedule_spec=sched.spec,
        gamma=gamma,
        max_iters=n_iters,
        record_every=every,
        n=col_n[:cursor].copy(),
        **columns,
        x0=x0,
        x1=x1,
        h1=h1,
        final_x=final_x,
        final_x_prev=final_x_prev,
        anchored=anchored,
        anchor=anchor,
        anchor_h=anchor_h,
        diverging=diverging,
        truncated_at=truncated_at,
        stopped_at=stopped_at,
        absorbed_at=absorbed_at,
    )


def _diagnostic_rows(gamma, monotone, anchor, anchor_h, tau, alpha, h_x, x_norm, h_prev, h_t,
                     x_prev, y, t_y, x) -> np.ndarray:
    """The float columns of m queued rows, as an (m, len(_COLUMNS)) array.

    tau, alpha, h_x, x_norm, h_prev and h_t (h(T y)) are length-m arrays;
    x_prev, y, t_y and x are C-contiguous (m, d) stacks. Every dot product
    goes through rowdot, one BLAS ddot per row, and every other operation
    is elementwise, so each cell is bit for bit what the same formula gives
    on the row's own vectors.
    """
    step = x - x_prev
    # MFISTA's sigma measures the candidate's step, accepted or not
    gap = t_y - x_prev if monotone else step
    sigma = h_x + rowdot(gap, gap) / (2.0 * gamma)
    # the key residual is NaN where h(x_prev) or h(T y) is +inf (a point
    # outside dom h); the inf - inf there is expected
    with np.errstate(invalid="ignore"):
        slack = descent_slack(gamma, h_prev, h_t, x_prev, y, t_y)
    key = np.where(np.isfinite(h_prev) & np.isfinite(h_t), slack, math.nan)
    # anchored Lyapunov energy E_n and deviation distance
    lyap = fejer = np.full(len(tau), math.nan)
    if anchor is not None:
        u = tau[:, None] * (t_y if monotone else x)
        u -= (tau - 1.0)[:, None] * x_prev
        u -= anchor
        u_sq = rowdot(u, u)
        lyap = tau * tau * (h_x - anchor_h) + u_sq / (2.0 * gamma)
        if not monotone:
            fejer = np.sqrt(u_sq)
    return np.column_stack((tau, alpha, h_x, sigma, vector_norm(step), x_norm, key, lyap, fejer))


def fista_run(problem: CompositeProblem, schedule, options: SolverOptions) -> SolverTrace:
    """x_n = T y_n with extrapolation y_{n+1} = x_n + alpha_n (x_n - x_{n-1})."""
    sched = schedule if isinstance(schedule, Schedule) else make_schedule(schedule)
    return _run(problem, sched, options, "fista")


def mfista_run(problem: CompositeProblem, schedule, options: SolverOptions) -> SolverTrace:
    """Monotone variant: candidate z_n = T y_n is accepted only if it lowers h.

    Ties keep the previous iterate. The extrapolation uses both the
    candidate and the accepted point:
    y_{n+1} = x_n + (tau_n/tau_{n+1})(z_n - x_n) + alpha_n (x_n - x_{n-1}).
    """
    sched = schedule if isinstance(schedule, Schedule) else make_schedule(schedule)
    return _run(problem, sched, options, "mfista")


def ista_run(problem: CompositeProblem, options: SolverOptions, schedule=None) -> SolverTrace:
    """Unaccelerated proximal gradient: x_n = T x_{n-1}.

    Realized as the momentum iteration with the constant schedule tau = 1,
    which makes every alpha_n vanish. A non-unit schedule is rejected.
    """
    if schedule is not None:
        spec = schedule.spec if isinstance(schedule, Schedule) else canonical_schedule_spec(schedule)
        if spec != ISTA_SCHEDULE:
            raise ParameterError(f"ista requires the constant schedule tau=1, got {spec}")
    return _run(problem, make_schedule(ISTA_SCHEDULE), options, "ista")


def run_algorithm(problem: CompositeProblem, algorithm: str, schedule_spec: Optional[dict], options: SolverOptions) -> SolverTrace:
    """Dispatch on the algorithm name used by config files."""
    if algorithm == "ista":
        return ista_run(problem, options, schedule=schedule_spec)
    if algorithm == "fista":
        return fista_run(problem, schedule_spec or {"kind": "classical"}, options)
    if algorithm == "mfista":
        return mfista_run(problem, schedule_spec or {"kind": "classical"}, options)
    raise ParameterError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")


# Rows per write: the cells of one chunk stay near 0.3 MB however long the
# trace is; larger chunks measured slower.
_CSV_CHUNK = 512


def _format_cell(v: float) -> str:
    return "" if math.isnan(v) else repr(v)


def write_trace_csv(trace: SolverTrace, path) -> None:
    """Serialize the recorded columns; floats use shortest round-trip form."""
    floats = (trace.tau, trace.alpha, trace.h, trace.sigma, trace.step_norm, trace.x_norm)
    optional = (trace.key_residual, trace.lyapunov)
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for lo in range(0, trace.n.size, _CSV_CHUNK):
            hi = lo + _CSV_CHUNK
            cells = [map(str, trace.n[lo:hi].tolist())]
            cells += [map(repr, col[lo:hi].tolist()) for col in floats]
            cells += [map(_format_cell, col[lo:hi].tolist()) for col in optional]
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def _optional_cell(cell: str) -> float:
    return float(cell) if cell else math.nan


def read_trace_csv(path) -> dict:
    """Load a trace CSV into column arrays; empty cells become NaN.

    Only the optional columns (key_residual, lyapunov_E) may be empty. A
    malformed cell or a row of the wrong length raises ParameterError.
    """
    names = CSV_HEADER.split(",")
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ParameterError(f"{path}: unexpected trace header {header!r}")
        try:
            with warnings.catch_warnings():
                # a trace of no rows is empty, not malformed
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", ndmin=2,
                                   converters={j: _optional_cell for j in (7, 8)})
        except ValueError as exc:
            raise ParameterError(f"{path}: malformed trace row: {exc}") from None
    if table.size == 0:
        return {name: np.array([]) for name in names}
    if table.shape[1] != len(names):
        raise ParameterError(f"{path}: expected {len(names)} cells per row, got {table.shape[1]}")
    out = {"n": table[:, 0].astype(np.int64)}
    if not np.array_equal(out["n"], table[:, 0]):
        raise ParameterError(f"{path}: non-integer iteration number in column n")
    for j, name in enumerate(names[1:], start=1):
        out[name] = table[:, j]
    return out
