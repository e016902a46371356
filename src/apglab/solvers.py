"""ISTA/FISTA/MFISTA iteration engines producing instrumented traces.

Every run records, per iteration: the objective, the energy sigma_n, step
and iterate norms, the one-step key-inequality residual, and (when an
anchor point is supplied) the Lyapunov energy E_n together with the
deviation-vector distance used by the quasi-Fejer ledger. Runs that
overflow are truncated and flagged diverging rather than raised, so the
no-minimizer regimes still produce usable partial traces.

Recorded rows only, a block at a time. The diagnostic columns (sigma,
the step norm, the key residual and the anchored ledger) are computed only
for iterations that write a row. Every iteration computes what the
iteration itself needs: T y, h(T y), MFISTA's accept/reject, the iterate
norm for the divergence test, the next tau and alpha, y_{n+1} and the
absorption test. A sparser ``record_every`` therefore also makes a long
run cheaper. A row to compute is queued (its scalars and references to
x_{n-1}, y_n, T y_n and x_n), and every ``_BLOCK`` rows, and when the
loop ends, one call computes the columns of the whole block from (m, d)
stacks. Its dot products go through :func:`apglab.problem.rowdot`, one
BLAS ``ddot`` per row, the routine a 1-D ``a @ b`` uses, so no row's
value depends on the rows stacked with it (a matrix product over the
stack would round differently), and every other operation is
elementwise. The recorded rows are therefore bit-identical to those of a
loop that computes every column at every iteration, one row at a time.

Absorbing states. Float iterates often reach an exact fixed point long
before max_iters: iteration n leaves x_n = x_{n-1}, h(x_n) = h(x_{n-1})
and y_{n+1} = y_n, bit for bit. Iteration n + 1 then gets T y_n and
h(T y_n) again (T and h are deterministic), MFISTA accepts or rejects as
before, and x, h and every cell of the row that does not read tau repeat.
Tau enters only the update of y:

    FISTA   y_{m+1} = x + alpha_m (x - x)
    MFISTA  y_{m+1} = x + (tau_m / tau_{m+1}) (T y - x) + alpha_m (x - x)

x - x is +0.0 in every entry (x is finite), and c * (+0.0) is +0.0 for
c >= 0 and -0.0 for c < 0, so alpha_m acts only through its sign: adding
-0.0 keeps a -0.0 entry of x that +0.0 would turn into +0.0. MFISTA's
ratio, always positive, acts the same way when T y = x bit for bit;
otherwise it multiplies a nonzero vector, and only tau_{m+1} = tau_m
makes it repeat.

A run reads its whole sequence tau_1, ..., tau_{N+1} (N = max_iters)
before its first iteration, as the array :func:`~apglab.schedules.prefix`
returns, so it knows whether a later tau can move y. That costs 8 bytes
per iteration, 0.8 MB for 100k iterations, and a run that truncates early
draws the whole sequence too. Hence one rule for every schedule: a run
absorbs at n < N when x, h and y repeat as above, no alpha_m with m > n
has the other sign than alpha_n, and, for MFISTA with
T y_n != x_n, tau_n = tau_{n+1} = ... = tau_{N+1}. Constant schedules
(ISTA included) meet the last two conditions at every n, so for them the
rule is the byte test of x and y alone; a momentum MFISTA run whose
candidates are rejected does not absorb, since y = x + (tau_n/tau_{n+1})
(T y - x) moves with tau even where it rounds to the same bits for a
while. The built-in families keep tau >= 1, so alpha >= 0 (rounding gives
tau_1 = 1 - 2**-53 for chambolle_dossal and attouch_shifted at
rho = 2**53); a custom list may dip below 1 within the admissibility
tolerance, and a run does not absorb before such a dip.

Absorption ends the run: T and h are not called again, and the run leaves
its lockstep batch. Its remaining recorded rows are written from slices of
the tau and alpha arrays, a block at a time. The tau-dependent cells are
not copied: tau and alpha change on every row, and so do the anchored
lyapunov_E and fejer_dist, since u = tau x - (tau - 1) x - anchor rounds
differently for every tau. The other cells are computed once, as one row
of the block diagnostics from the inputs of iteration n + 1, and repeat
because their inputs do. Each remaining recorded row takes them with its own tau and
alpha, read from the arrays the loop reads, and its ledger is computed by
the formula of every other row (``ledger``).
Traces, CSVs and reports are therefore bit-identical to iterating to the
end. ``SolverTrace.absorbed_at`` is n + 1, the first iteration not
iterated, so an absorbed run applied T absorbed_at - 1 times.

Lockstep batches. The iteration of a run is one generator, ``_steps``: it
yields y_n and receives T y_n and h(T y_n), and does everything else
itself (tau reads, MFISTA's accept/reject, the divergence and absorption
tests, the record queue and the block diagnostics).
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

import io
import math
import mmap
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ParameterError, finite_number, positive_int
from .problem import (
    CompositeProblem,
    as_point,
    descent_slack,
    evaluate_h,
    forward_backward_step,
    rowdot,
    vector_norm,
)
from .schedules import alphas, canonical_schedule_spec, prefix

try:
    # hashlib loads OpenSSL, which costs every process about 3.5 MB of
    # resident memory; the builtin BLAKE2 module costs none
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

CSV_HEADER = "n,tau_n,alpha_n,h_xn,sigma_n,step_norm,x_norm,key_residual,lyapunov_E"

ALGORITHMS = ("ista", "fista", "mfista")

# Recorded float columns of SolverTrace, in the order of one record row. The
# first two and the last two depend on tau; an absorbed run recomputes them.
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
    """Run-length, recording, divergence and anchoring knobs.

    A run ends at max_iters, at truncation (an overflow, or an iterate norm
    above divergence_threshold) or at absorption (module docstring). anchor
    is a point of dom h used for Lyapunov/Fejer ledgers (normally a known or
    oracle minimizer). record_every thins the trace (the first and last
    iterations are always kept); the diagnostic columns are computed only
    for recorded rows, a block at a time, so a sparse cadence also makes a
    long run cheaper.
    """

    max_iters: int
    record_every: int = 1
    x0: Optional[np.ndarray] = None
    anchor: Optional[np.ndarray] = None
    divergence_threshold: float = 1e150


@dataclass
class SolverTrace:
    """Recorded iteration columns plus run metadata.

    Column arrays share one length; optional quantities hold NaN where
    undefined (key_residual while the previous iterate is outside dom h,
    lyapunov/fejer_dist when no anchor is set, fejer_dist for MFISTA whose
    ledger is defined through the candidate points instead). absorbed_at
    is the first iteration that the run skipped at an exact fixed point,
    under any schedule (module docstring), so it applied T absorbed_at - 1
    times; None when the run applied T up to its end or truncation.
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
    anchor: Optional[np.ndarray]
    anchor_h: Optional[float]
    truncated_at: Optional[int] = None
    absorbed_at: Optional[int] = None

    @property
    def diverging(self) -> bool:
        """True when the iterate of iteration truncated_at overflowed or crossed divergence_threshold."""
        return self.truncated_at is not None

    @property
    def anchored(self) -> bool:
        return self.anchor is not None

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
    anchor_h = evaluate_h(problem, anchor)
    if not math.isfinite(anchor_h):
        raise ParameterError("anchor point lies outside dom h")
    return anchor, float(anchor_h)


def check_options(options: SolverOptions) -> None:
    """Judge every number of a run's options: ParameterError names the first bad one.

    max_iters and record_every are integers from 1 to 2**53;
    divergence_threshold is finite and positive.
    """
    for key in ("max_iters", "record_every"):
        positive_int(key, getattr(options, key))
    threshold = options.divergence_threshold
    if not finite_number("divergence_threshold", threshold) > 0.0:
        raise ParameterError(f"divergence_threshold must be positive, got {threshold!r}")


def check_run(algorithm: str, schedule: Optional[dict], options: SolverOptions) -> dict:
    """Check one run's arguments before anything is solved; return its canonical schedule spec.

    schedule is a spec, or None for the default: classical momentum (ista
    takes only the constant tau = 1). A custom list needs max_iters + 1
    values, since the last iteration looks one tau ahead.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if schedule is None:
        schedule = ISTA_SCHEDULE if algorithm == "ista" else {"kind": "classical"}
    spec = canonical_schedule_spec(schedule)
    if algorithm == "ista" and spec != ISTA_SCHEDULE:
        raise ParameterError(f"ista requires the constant schedule tau=1, got {spec}")
    check_options(options)
    if spec["kind"] == "custom" and len(spec["values"]) <= options.max_iters:
        raise ParameterError(
            f"custom schedule exhausted after {len(spec['values'])} values: max_iters = "
            f"{options.max_iters} needs {options.max_iters + 1} (the last step looks one tau ahead)"
        )
    return spec


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


def _last(mask) -> int:
    """The 1-based position of the last True of a boolean array; 0 when it has none."""
    return len(mask) - int(mask[::-1].argmax()) if mask.any() else 0


def _steps(problem: CompositeProblem, algorithm: str, schedule, options: SolverOptions):
    """The iteration of one run, as a generator.

    It yields each y_n and receives (T y_n, h(T y_n)) for it; its return
    value is the run's SolverTrace. :func:`run_batch` drives it.
    """
    spec = check_run(algorithm, schedule, options)
    gamma = problem.gamma
    monotone = algorithm == "mfista"
    x0 = (
        np.zeros(problem.dim)
        if options.x0 is None
        else as_point(options.x0, problem.dim, "x0").astype(float)
    )
    anchor, anchor_h = _resolve_anchor(problem, options)

    n_iters = options.max_iters
    every = options.record_every
    col_n, rows = _row_buffer(2 + n_iters // every)
    cursor = 0
    divergence_threshold = options.divergence_threshold
    # Recorded rows queued for _diagnostic_rows, one tuple of its arguments
    # each; they fill the last len(pending) rows before cursor. The queue is
    # cleared as soon as its columns are stacked, which frees the per-row
    # vectors before the block is computed.
    pending = []

    def flush():
        columns = [np.array(col) for col in zip(*pending)]
        pending.clear()
        rows[:, cursor - len(columns[0]):cursor] = _diagnostic_rows(gamma, monotone, anchor, anchor_h, *columns)

    # tau_1 .. tau_{N+1} and alpha_1 .. alpha_N, read as Python floats from
    # tau_at[n - 1] and alpha_at[n - 1]. The last iteration m where alpha_{m+1}
    # has the other sign than alpha_m, and the last with tau_{m+1} != tau_m,
    # decide whether a later tau can move an absorbed y (module docstring).
    taus = prefix(spec, n_iters + 1)
    alpha_of = alphas(taus)
    tau_at = memoryview(taus)
    alpha_at = memoryview(alpha_of)
    last_flip = _last(np.diff(alpha_of < 0.0))
    last_move = _last(taus[1:] != taus[:-1])

    x_prev = x0
    h_prev = evaluate_h(problem, x0)
    y = x0.copy()
    x1: Optional[np.ndarray] = None
    h1 = math.nan
    truncated_at: Optional[int] = None
    absorbed_at: Optional[int] = None
    final_x: Optional[np.ndarray] = None
    final_x_prev: Optional[np.ndarray] = None

    for n in range(1, n_iters + 1):
        t_y, h_t = yield y

        if monotone and h_prev <= h_t:
            x, h_x = x_prev, h_prev
        else:
            x, h_x = t_y, h_t

        x_norm = vector_norm(x)
        if x_norm > divergence_threshold or not (math.isfinite(h_x) and math.isfinite(x_norm)):
            truncated_at = n
            break

        tau, tau_next, alpha = tau_at[n - 1], tau_at[n], alpha_at[n - 1]
        step = x - x_prev

        if n == 1:
            x1 = x.copy()
            h1 = h_x

        if monotone:
            y_next = x + (tau / tau_next) * (t_y - x) + alpha * step
        else:
            y_next = x + alpha * step

        if n == 1 or n == n_iters or n % every == 0:
            pending.append((tau, alpha, h_x, x_norm, h_prev, h_t, x_prev, y, t_y, x))
            col_n[cursor] = n
            cursor += 1
            if len(pending) == _BLOCK:
                flush()

        # Absorption (module docstring): iteration n + 1 takes the inputs of
        # iteration n, bit for bit, and so does every later one, since no
        # later alpha has the other sign and, where MFISTA's tau_m/tau_{m+1}
        # multiplies T y - x != 0, tau stands still from tau_n on. The float
        # comparisons come first (T y = x implies h(T y) = h(x)); on an
        # MFISTA plateau h and x stand still while tau and y move.
        absorbed = (h_x == h_prev and n < n_iters
                    and last_flip < n
                    and (not monotone or last_move < n or (h_t == h_x and t_y.tobytes() == x.tobytes()))
                    and y_next.tobytes() == y.tobytes() and x.tobytes() == x_prev.tobytes())

        final_x_prev = x_prev
        final_x = x
        x_prev = x
        h_prev = h_x
        y = y_next
        if absorbed:
            # Every later iteration takes these inputs again with its own tau
            # (module docstring): the recorded rows m in (n, N] take the cells
            # that repeat, computed once from the inputs of iteration n + 1,
            # and their own tau_m, alpha_m and ledger, a block at a time.
            absorbed_at = n + 1
            if pending:
                flush()
            inputs = (tau_next, alpha, h_x, x_norm, h_x, h_t, x, y, t_y, x)
            cells = _diagnostic_rows(gamma, monotone, anchor, anchor_h, *(np.array([v]) for v in inputs))[:, 0]
            tail = np.append(np.arange(n - n % every + every, n_iters, every), n_iters)
            for lo in range(0, tail.size, _BLOCK):
                ms = tail[lo:lo + _BLOCK]
                tau_m = taus[ms - 1]
                end = cursor + ms.size
                col_n[cursor:end] = ms
                rows[:, cursor:end] = cells[:, None]
                rows[:2, cursor:end] = tau_m, alpha_of[ms - 1]
                rows[-2:, cursor:end] = ledger(gamma, monotone, anchor, anchor_h, tau_m, h_x,
                                               x[None], t_y[None], x[None])
                cursor = end
            break

    if pending:
        flush()

    columns = {name: rows[j, :cursor] for j, name in enumerate(_COLUMNS)}
    return SolverTrace(
        algorithm=algorithm,
        problem_name=problem.name,
        schedule_spec=spec,
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
        anchor=anchor,
        anchor_h=anchor_h,
        truncated_at=truncated_at,
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
    lyap, fejer = ledger(gamma, monotone, anchor, anchor_h, tau, h_x, x_prev, t_y, x)
    return np.stack((tau, alpha, h_x, sigma, vector_norm(step), x_norm, key, lyap, fejer))


def ledger(gamma, monotone, anchor, anchor_h, tau, h_x, x_prev, t_y, x):
    """The anchored Lyapunov energy E_n and deviation distance of m rows (NaN without an anchor).

    tau is a length-m array, h_x one too or a float; x_prev, t_y and x are
    (m, d) stacks, or (1, d) rows that hold for every row. Only the dot
    product needs a C-contiguous stack, and it takes u, which is computed
    here.
    """
    lyap = fejer = np.full(len(tau), math.nan)
    if anchor is not None:
        u = tau[:, None] * (t_y if monotone else x)
        u -= (tau - 1.0)[:, None] * x_prev
        u -= anchor
        u_sq = rowdot(u, u)
        lyap = tau * tau * (h_x - anchor_h) + u_sq / (2.0 * gamma)
        if not monotone:
            fejer = np.sqrt(u_sq)
    return lyap, fejer


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

# The sidecar <name>.trace.npy beside each trace CSV holds the (m, 9) float64
# table that parsing that CSV gives (n as a float, every NaN the quiet NaN
# that "nan" and an empty cell parse to), as a plain .npy file followed by a
# 32-byte trailer: the BLAKE2b-256 hash of _SIDECAR_TAG, the CSV's hash and
# the hash of the .npy bytes. read_trace_csv takes the table from it only
# when the trailer matches the CSV beside it; otherwise it parses the CSV.
_SIDECAR_TAG = b"apglab trace sidecar 1\n" + CSV_HEADER.encode()
_TABLE_WIDTH = len(CSV_HEADER.split(","))
_DIGEST_SIZE = 32
_HASH_BLOCK = 1 << 18


def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".trace.npy")


def _npy_header(rows: int) -> bytes:
    """The .npy magic and header of a C-order little-endian float64 (rows, 9) array."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": "<f8", "fortran_order": False, "shape": (rows, _TABLE_WIDTH)})
    return head.getvalue()


def _hash(data: bytes = b""):
    return blake2b(data, digest_size=_DIGEST_SIZE)


def _trailer(csv_digest: bytes, npy_digest: bytes) -> bytes:
    return _hash(_SIDECAR_TAG + csv_digest + npy_digest).digest()


def _format_cell(v: float) -> str:
    return "" if math.isnan(v) else repr(v)


def _cells(values: np.ndarray, fmt) -> list:
    """fmt of each value, called once per run of equal bits.

    Bits, not ==: -0.0 after 0.0 is a new cell. Converged and absorbed
    runs repeat most of their cells, and a float's repr costs more than the
    comparison and the expansion together.
    """
    if not values.size:
        return []
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    formatted = np.array([fmt(v) for v in values[starts].tolist()], dtype=object)
    return np.repeat(formatted, np.diff(starts, append=values.size)).tolist()


def write_trace_csv(trace: SolverTrace, path) -> None:
    """Serialize the recorded columns; floats use shortest round-trip form.

    The sidecar <name>.trace.npy (the note above _SIDECAR_TAG) is written
    beside the CSV, a chunk of rows at a time with it.
    """
    floats = (trace.tau, trace.alpha, trace.h, trace.sigma, trace.step_norm, trace.x_norm)
    optional = (trace.key_residual, trace.lyapunov)
    head = (CSV_HEADER + "\n").encode()
    npy_header = _npy_header(trace.n.size)
    csv_digest, npy_digest = _hash(head), _hash(npy_header)
    with open(path, "wb") as fh, open(_sidecar_path(path), "wb") as side:
        fh.write(head)
        side.write(npy_header)
        for lo in range(0, trace.n.size, _CSV_CHUNK):
            hi = lo + _CSV_CHUNK
            cells = [map(str, trace.n[lo:hi].tolist())]
            cells += [_cells(col[lo:hi], repr) for col in floats]
            cells += [_cells(col[lo:hi], _format_cell) for col in optional]
            text = ("\n".join(map(",".join, zip(*cells))) + "\n").encode()
            fh.write(text)
            csv_digest.update(text)
            table = np.column_stack([trace.n[lo:hi], *(col[lo:hi] for col in floats + optional)]).astype("<f8")
            table[np.isnan(table)] = math.nan
            side.write(table)
            npy_digest.update(table)
        side.write(_trailer(csv_digest.digest(), npy_digest.digest()))


def _csv_digest(path) -> bytes:
    digest = _hash()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_HASH_BLOCK), b""):
            digest.update(block)
    return digest.digest()


def _read_sidecar(path) -> Optional[np.ndarray]:
    """The table of the trace CSV at path from its sidecar; None unless the sidecar's trailer matches."""
    try:
        with open(_sidecar_path(path), "rb") as fh:
            # magic (6 bytes), version (2) and the header's length (2, little-endian)
            prefix = fh.read(10)
            header = prefix + fh.read(int.from_bytes(prefix[8:10], "little"))
            rows, extra = divmod(os.fstat(fh.fileno()).st_size - len(header) - _DIGEST_SIZE,
                                 8 * _TABLE_WIDTH)
            if extra or rows < 0 or header != _npy_header(rows):
                return None
            table = np.empty((rows, _TABLE_WIDTH), "<f8")
            fh.readinto(table)
            trailer = fh.read()
    except OSError:
        return None
    npy_digest = _hash(header)
    npy_digest.update(table)
    if trailer != _trailer(_csv_digest(path), npy_digest.digest()):
        return None
    return table


def _optional_cell(cell: str) -> float:
    return float(cell) if cell else math.nan


def _parse_trace_csv(path) -> np.ndarray:
    """The table of the trace CSV at path, parsed; empty cells become NaN."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ParameterError(f"{path}: unexpected trace header {header!r}")
        try:
            with warnings.catch_warnings():
                # a trace of no rows is empty, not malformed
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                return np.loadtxt(fh, delimiter=",", ndmin=2, converters={j: _optional_cell for j in (7, 8)})
        except ValueError as exc:
            raise ParameterError(f"{path}: malformed trace row: {exc}") from None


def read_trace_csv(path) -> dict:
    """Load a trace CSV into column arrays; empty cells become NaN.

    The table comes from the CSV's sidecar when its trailer matches the
    CSV, else from parsing the CSV; the columns are the same either way.
    Only the optional columns (key_residual, lyapunov_E) may be empty. A
    malformed cell or a row of the wrong length raises ParameterError.
    """
    table = _read_sidecar(path)
    if table is None:
        table = _parse_trace_csv(path)
    names = CSV_HEADER.split(",")
    if table.size == 0:
        table = np.empty((0, len(names)))
    if table.shape[1] != len(names):
        raise ParameterError(f"{path}: expected {len(names)} cells per row, got {table.shape[1]}")
    out = {"n": table[:, 0].astype(np.int64)}
    if not np.array_equal(out["n"], table[:, 0]):
        raise ParameterError(f"{path}: non-integer iteration number in column n")
    for j, name in enumerate(names[1:], start=1):
        out[name] = table[:, j]
    return out
