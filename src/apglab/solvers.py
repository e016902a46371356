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

Lockstep batches. The iteration of a run is one generator, ``_steps``: it
yields y_n and receives T y_n and h(T y_n), and does everything else
itself (schedule draws, MFISTA's accept/reject, the divergence, stop and
absorption tests, the record queue and the block diagnostics).
:func:`run_batch` drives the runs that share a problem together: while
two or more are live, each iteration stacks their y_n into one
C-contiguous (k, d) array and makes one ``forward_backward_step`` and one
``evaluate_h`` call on it. The terms compute row i of a stack bit for bit
as they compute that vector alone (the stack contract in
:class:`~apglab.problem.CompositeProblem`), so a run's trace does not
depend on the runs it shares a batch with. At d = 10 a stacked call pair
costs about 20-24 us for k = 2 to 4 and 29-40 us for k = 8 (2-vCPU Xeon),
against 10-13 us for one pair of 1-D calls: per run, about half at k = 4
and a third at k = 8. A (1, d) stack, though, costs about twice a 1-D
pair (21-23 us): a lone run, and the last live run of a batch, keep the
1-D calls. :func:`run_algorithm` is a batch of one, and ``fista_run``,
``mfista_run`` and ``ista_run`` name its algorithm. Every run's arguments
are checked in one place, :func:`check_run`, which ``apg run`` also calls
before it solves anything.
A run's rows go into a buffer of its own that takes memory only as rows
are written and returns it when the trace is dropped (``_row_buffer``), so
k live runs hold the rows they have written, not k preallocated tables.
"""

import math
import mmap
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
from .schedules import Schedule

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


def check_run(problem: CompositeProblem, algorithm: str, schedule: Optional[dict],
              options: SolverOptions) -> Schedule:
    """Check one run's arguments before anything is solved; return the schedule it follows.

    schedule is a spec, or None for the default: classical momentum (ista
    takes only the constant tau = 1). A custom list needs max_iters + 1
    values, since the last iteration looks one tau ahead.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if schedule is None:
        schedule = ISTA_SCHEDULE if algorithm == "ista" else {"kind": "classical"}
    sched = Schedule(schedule)
    if algorithm == "ista" and sched.spec != ISTA_SCHEDULE:
        raise ParameterError(f"ista requires the constant schedule tau=1, got {sched.spec}")
    if options.max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {options.max_iters}")
    if options.record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {options.record_every}")
    if options.stop_h_gap is not None and problem.known_min is None:
        raise ParameterError("stop_h_gap requires a problem with known_min set")
    if sched.kind == "custom" and len(sched.spec["values"]) <= options.max_iters:
        raise ParameterError(
            f"custom schedule exhausted after {len(sched.spec['values'])} values: max_iters = "
            f"{options.max_iters} needs {options.max_iters + 1} (the last step looks one tau ahead)"
        )
    return sched


def _row_buffer(cap: int):
    """Zeroed columns for cap rows: an int64 n column and a (len(_COLUMNS), cap) float table.

    Both live in one anonymous mapping, so a page becomes resident only
    when a row is written to it, and the whole buffer goes back to the OS
    once the last view of it (the trace's columns) is dropped.
    """
    width = len(_COLUMNS)
    buf = mmap.mmap(-1, (width + 1) * cap * 8)
    col_n = np.frombuffer(buf, dtype=np.int64, count=cap)
    rows = np.frombuffer(buf, dtype=np.float64, count=width * cap, offset=cap * 8).reshape(width, cap)
    return col_n, rows


def _steps(problem: CompositeProblem, algorithm: str, schedule, options: SolverOptions):
    """The iteration of one run, as a generator.

    It yields each y_n and receives (T y_n, h(T y_n)) for it; its return
    value is the run's SolverTrace. :func:`run_batch` drives it.
    """
    sched = check_run(problem, algorithm, schedule, options)
    gamma = problem.gamma
    monotone = algorithm == "mfista"
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
    col_n, rows = _row_buffer(2 + n_iters // every)
    cursor = 0
    stop_step_norm = options.stop_step_norm
    stop_h_gap = options.stop_h_gap
    divergence_threshold = options.divergence_threshold
    # step_norm at every iteration only where a stop test or the absorption
    # gate reads it; otherwise on recorded rows alone, like the other
    # diagnostic columns
    every_step_norm = stop_step_norm is not None or fast_forward
    # Rows queued for _diagnostic_rows, one tuple of its arguments each.
    # They fill rows[:, done:] in order; an absorbing row that is not
    # recorded goes last, at rows[:, cursor]. The queue is cleared as soon
    # as its columns are stacked, which frees the per-row vectors before
    # the block is computed.
    pending = []
    done = 0

    def flush():
        nonlocal done
        columns = [np.array(col) for col in zip(*pending)]
        pending.clear()
        rows[:, done:done + len(columns[0])] = _diagnostic_rows(gamma, monotone, anchor, anchor_h, *columns)
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
        t_y, h_t = yield y

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
        # absorbing row sits at rows[:, cursor] unless it was recorded itself.
        row = rows[:, cursor - 1 if record else cursor].copy()
        first = cursor
        for n in range(absorbed_at, n_iters + 1):
            sched.next_tau()
            if n == n_iters or n % every == 0:
                col_n[cursor] = n
                cursor += 1
        rows[:, first:cursor] = row[:, None]

    columns = {name: rows[j, :cursor] for j, name in enumerate(_COLUMNS)}
    return SolverTrace(
        algorithm=algorithm,
        problem_name=problem.name,
        schedule_spec=sched.spec,
        gamma=gamma,
        max_iters=n_iters,
        record_every=every,
        n=col_n[:cursor],
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


def run_batch(problem: CompositeProblem, runs):
    """Advance runs that share ``problem`` in lockstep; yield (index, trace) as each ends.

    ``runs`` holds (algorithm, schedule, options) triples, the arguments
    of :func:`run_algorithm`. Each iteration stacks the live runs' y_n
    into one C-contiguous (k, d) array and makes one
    ``forward_backward_step`` and one ``evaluate_h`` call on it; each run
    receives its own row. Once one run is left it takes the 1-D calls.
    Every run is set up, and its arguments checked (:func:`check_run`),
    before the first iteration. Traces are bit for bit those of the runs
    made alone (module docstring).
    """
    live = []
    for i, (algorithm, schedule, options) in enumerate(runs):
        steps = _steps(problem, algorithm, schedule, options)
        live.append((i, steps, next(steps)))
    while len(live) > 1:
        t_ys = forward_backward_step(problem, np.array([y for _, _, y in live]))
        h_ts = evaluate_h(problem, t_ys).tolist()
        running = []
        for (i, steps, _), t_y, h_t in zip(live, t_ys, h_ts):
            try:
                running.append((i, steps, steps.send((t_y, h_t))))
            except StopIteration as end:
                yield i, end.value
        live = running
    for i, steps, y in live:
        try:
            while True:
                t_y = forward_backward_step(problem, y)
                y = steps.send((t_y, evaluate_h(problem, t_y)))
        except StopIteration as end:
            yield i, end.value


def _diagnostic_rows(gamma, monotone, anchor, anchor_h, tau, alpha, h_x, x_norm, h_prev, h_t,
                     x_prev, y, t_y, x) -> np.ndarray:
    """The float columns of m queued rows, as a (len(_COLUMNS), m) array.

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
    return np.stack((tau, alpha, h_x, sigma, vector_norm(step), x_norm, key, lyap, fejer))


def fista_run(problem: CompositeProblem, schedule, options: SolverOptions) -> SolverTrace:
    """x_n = T y_n with extrapolation y_{n+1} = x_n + alpha_n (x_n - x_{n-1})."""
    return run_algorithm(problem, "fista", schedule, options)


def mfista_run(problem: CompositeProblem, schedule, options: SolverOptions) -> SolverTrace:
    """Monotone variant: candidate z_n = T y_n is accepted only if it lowers h.

    Ties keep the previous iterate. The extrapolation uses both the
    candidate and the accepted point:
    y_{n+1} = x_n + (tau_n/tau_{n+1})(z_n - x_n) + alpha_n (x_n - x_{n-1}).
    """
    return run_algorithm(problem, "mfista", schedule, options)


def ista_run(problem: CompositeProblem, options: SolverOptions, schedule=None) -> SolverTrace:
    """Unaccelerated proximal gradient: x_n = T x_{n-1}.

    Realized as the momentum iteration with the constant schedule tau = 1,
    which makes every alpha_n vanish. A non-unit schedule is rejected.
    """
    return run_algorithm(problem, "ista", schedule, options)


def run_algorithm(problem: CompositeProblem, algorithm: str, schedule_spec: Optional[dict], options: SolverOptions) -> SolverTrace:
    """One run of the algorithm named as in config files (classical momentum by default): a batch of one."""
    (_, trace), = run_batch(problem, [(algorithm, schedule_spec, options)])
    return trace


# Rows per write: the cells of one chunk stay near 0.3 MB however long the
# trace is; larger chunks measured slower.
_CSV_CHUNK = 512


def _format_cell(v: float) -> str:
    return "" if math.isnan(v) else repr(v)


def _cells(values: np.ndarray, fmt) -> list:
    """fmt of each value, called once per run of equal bits.

    Bits, not ==: -0.0 after 0.0 is a new cell. Converged and absorbed
    runs repeat most of their cells, and a float's repr costs more than the
    comparison and the expansion together.
    """
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    formatted = np.array([fmt(v) for v in values[starts].tolist()], dtype=object)
    return np.repeat(formatted, np.diff(starts, append=values.size)).tolist()


def write_trace_csv(trace: SolverTrace, path) -> None:
    """Serialize the recorded columns; floats use shortest round-trip form."""
    floats = (trace.tau, trace.alpha, trace.h, trace.sigma, trace.step_norm, trace.x_norm)
    optional = (trace.key_residual, trace.lyapunov)
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for lo in range(0, trace.n.size, _CSV_CHUNK):
            hi = lo + _CSV_CHUNK
            cells = [map(str, trace.n[lo:hi].tolist())]
            cells += [_cells(col[lo:hi], repr) for col in floats]
            cells += [_cells(col[lo:hi], _format_cell) for col in optional]
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
