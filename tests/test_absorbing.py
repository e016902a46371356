"""The solver's shortcuts must be invisible in every trace.

Three shortcuts are covered: the absorbing-state fast-forward, the
diagnostic columns being computed only on iterations that write a row,
and those columns being computed a block of queued rows at a time. Each
case runs the solver and the naive reference loop from helpers.py, which
applies T and h and computes every column at every iteration, one row at a
time, and requires the two to agree bit for bit: every recorded column,
the first iterate, the end points and the truncation marker. Every
schedule may fast-forward: a run absorbs once an iteration hands the next
one its own inputs and the taus still to come cannot move y. The
adversarial cases are the ones a byte test of x and y alone would get
wrong: MFISTA's rejected candidates that leave y in place for a while
under a varying tau, or across the last move of tau, and a custom list
that dips below 1 after the fixed point. Sparse record cadences,
truncations that fall between recorded rows, and the reference oracle
check the gating; run lengths, truncations and absorptions around a block
boundary check the block computation.
"""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from apglab import (
    CompositeProblem,
    NonsmoothTerm,
    OracleUnreliable,
    ParameterError,
    SmoothTerm,
    SolverOptions,
    build_problem,
    ista_run,
    reference_min,
    run_algorithm,
)
from apglab import solvers
from apglab.diagnostics import ORACLE_CHUNK, duality_bound

from helpers import naive_run

ROOT = Path(__file__).resolve().parent.parent
SUITE_CONFIG = ROOT / "configs" / "paper_suite.json"

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import workloads
finally:
    sys.path.remove(str(ROOT / "perfbench"))

CONST2 = {"kind": "constant", "tau": 2.0}
CLASSICAL = {"kind": "classical"}

# case -> (algorithm, schedule)
CASES = {
    "ista": ("ista", None),
    "fista-const2": ("fista", CONST2),
    "mfista-const2": ("mfista", CONST2),
    "fista": ("fista", CLASSICAL),
    "mfista": ("mfista", CLASSICAL),
}

# name -> (problem spec, max_iters)
PROBLEMS = {
    "lasso-d10-s1": ({"name": "lasso", "dim": 10, "seed": 1}, 9_000),
    "quad2": ({"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]}, 600),
    "boxquad": ({"name": "quadratic", "diag": [1.0, 4.0], "b": [3.0, 3.0],
                 "g": {"kind": "box", "lo": 0.0, "hi": 1.0}}, 200),
    "unattained": ({"name": "unattained"}, 2_000),
}

# the runs of test_trace_matches_naive_loop that reach an exact fixed point
# and absorb; MFISTA's classical runs on lasso and quad2 end on plateaus
# where candidates are rejected and y keeps moving, and unattained has no
# fixed point
ABSORBS = {(problem, case) for problem in ("lasso-d10-s1", "quad2", "boxquad") for case in CASES}
ABSORBS -= {("lasso-d10-s1", "mfista"), ("quad2", "mfista")}

COLUMNS = ("n", "tau", "alpha", "h", "sigma", "step_norm", "x_norm", "key_residual", "lyapunov", "fejer_dist")


def _bits(a):
    a = np.asarray(a)
    return a.view(np.uint64) if a.dtype == np.float64 else a


def assert_matches_naive(trace, ref):
    for name in COLUMNS:
        np.testing.assert_array_equal(_bits(getattr(trace, name)), _bits(ref[name]), err_msg=name)
    for name in ("x1", "final_x", "final_x_prev"):
        got, want = getattr(trace, name), ref[name]
        assert (got is None) == (want is None), name
        if got is not None:
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)
    assert _bits(np.float64(trace.h1)) == _bits(np.float64(ref["h1"]))
    assert trace.truncated_at == ref["truncated_at"]


def count_steps(monkeypatch) -> list:
    """Count the solver's forward-backward steps (a stacked call counts once)."""
    calls = []
    fbs = solvers.forward_backward_step

    def counting_step(problem, y):
        calls.append(1)
        return fbs(problem, y)

    monkeypatch.setattr(solvers, "forward_backward_step", counting_step)
    return calls


@pytest.mark.parametrize("problem_name", sorted(PROBLEMS))
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("record_every", [1, 7, 1000, "max"])
@pytest.mark.parametrize("anchored", [False, True])
def test_trace_matches_naive_loop(problem_name, case, record_every, anchored, monkeypatch):
    spec, max_iters = PROBLEMS[problem_name]
    algorithm, schedule = CASES[case]
    problem = build_problem(spec)
    anchor = np.linspace(0.0, 1.0, problem.dim) if anchored else None
    every = max_iters if record_every == "max" else record_every
    options = SolverOptions(max_iters=max_iters, record_every=every, anchor=anchor)
    calls = count_steps(monkeypatch)
    trace = run_algorithm(problem, algorithm, schedule, options)
    assert_matches_naive(trace, naive_run(problem, algorithm, schedule, options))
    assert (trace.absorbed_at is not None) == ((problem_name, case) in ABSORBS)
    assert len(calls) == (max_iters if trace.absorbed_at is None else trace.absorbed_at - 1)


def test_suite_ista_run_skips_most_operator_calls(monkeypatch):
    run = next(r for r in json.loads(SUITE_CONFIG.read_text())["runs"] if r["name"] == "lasso10-ista")
    problem = build_problem(run["problem"])
    calls = count_steps(monkeypatch)
    trace = run_algorithm(problem, run["algorithm"], None, SolverOptions(max_iters=run["max_iters"]))
    assert run["max_iters"] == 100_000
    assert trace.n[-1] == 100_000
    assert trace.absorbed_at is not None
    assert len(calls) == trace.absorbed_at - 1 < 10_000


def test_suite_lasso_batch_ends_at_its_last_momentum_run(monkeypatch):
    # the suite's eight lasso-d10-s1 runs advance as one batch. Every ista
    # and fista run absorbs before iteration 10,000, the three 100k-iteration
    # runs included, so the batch applies T until its 10k-iteration MFISTA
    # run ends, not 100,000 times
    runs = [r for r in json.loads(SUITE_CONFIG.read_text())["runs"] if r["problem"] == PROBLEMS["lasso-d10-s1"][0]]
    problem = build_problem(PROBLEMS["lasso-d10-s1"][0])
    calls = count_steps(monkeypatch)
    batch = [(r["algorithm"], r.get("schedule"), SolverOptions(max_iters=r["max_iters"])) for r in runs]
    traces = dict(solvers.run_batch(problem, batch))
    assert len(runs) == 8 and max(r["max_iters"] for r in runs) == 100_000
    assert len(calls) == 10_000
    for i, r in enumerate(runs):
        assert traces[i].n[-1] == r["max_iters"]
        assert (traces[i].absorbed_at is not None) == (r["algorithm"] != "mfista"), r["name"]


def test_run_from_exact_fixed_point_absorbs_at_once():
    # the first iteration may turn -0.0 entries of y into +0.0 (y = x + 0 * step),
    # so the lasso minimizer, which has signed zeros, needs one more; an
    # absorbed ista run ends on an exact fixed point of T
    lasso = build_problem({"name": "lasso", "dim": 10, "seed": 1})
    quad = build_problem(PROBLEMS["quad2"][0])
    fixed = ista_run(lasso, SolverOptions(max_iters=9_000))
    # the first exactly zero step comes before absorption: a step of 0.0
    # alone does not make the iteration repeat
    first_zero = int(fixed.n[np.flatnonzero(fixed.step_norm == 0.0)[0]])
    assert fixed.absorbed_at is not None and first_zero < fixed.absorbed_at
    starts = ((lasso, fixed.final_x, 3), (quad, quad.known_argmin, 2))
    for problem, x_star, absorbed_at in starts:
        for case in sorted(CASES):
            algorithm, schedule = CASES[case]
            trace = run_algorithm(problem, algorithm, schedule, SolverOptions(max_iters=1_000, x0=x_star))
            assert trace.absorbed_at == absorbed_at, (problem.name, case)
            assert np.all(trace.step_norm == 0.0)


def test_oracle_stops_on_its_certificate_and_never_past_its_budget(monkeypatch):
    # T is applied exactly as often as the oracle reports, a whole number of
    # chunks well inside the budget; a budget too small to certify in is spent
    # to the last iteration and no further
    problem = build_problem(PROBLEMS["lasso-d10-s1"][0])
    calls = count_steps(monkeypatch)
    oracle = reference_min(problem, budget=9_000)
    assert len(calls) == oracle.iterations < 9_000
    assert oracle.iterations % ORACLE_CHUNK == 0
    calls.clear()
    with pytest.raises(OracleUnreliable, match="no certificate within oracle_budget = 700"):
        reference_min(problem, budget=700)
    assert len(calls) == 700


def test_momentum_runs_absorb_and_custom_lists_still_run_dry(monkeypatch):
    # boxquad reaches its exact fixed point within a few iterations; a
    # varying schedule then skips T like a constant one, reads every tau up
    # front (a custom list one value short is rejected) and writes the naive rows
    problem = build_problem(PROBLEMS["boxquad"][0])
    calls = count_steps(monkeypatch)
    values = [1.0 + 0.5 * k for k in range(30)]
    for schedule in (CLASSICAL, {"kind": "custom", "values": values}):
        calls.clear()
        options = SolverOptions(max_iters=29)
        trace = run_algorithm(problem, "fista", schedule, options)
        assert trace.step_norm[-1] == 0.0
        assert trace.absorbed_at is not None and len(calls) == trace.absorbed_at - 1 < 10
        assert_matches_naive(trace, naive_run(problem, "fista", schedule, options))
    with pytest.raises(ParameterError, match="exhausted after 30 values"):
        run_algorithm(problem, "fista", {"kind": "custom", "values": values}, SolverOptions(max_iters=30))


def test_zero_steps_that_flip_bits_are_not_absorbed():
    # T(y) = -y at y = 0 moves x between +0.0 and -0.0: every step is exactly
    # zero, yet h (which reads the sign) alternates, so nothing may be copied
    problem = CompositeProblem(
        smooth=SmoothTerm(value=lambda x: math.copysign(1.0, x[0]), gradient=lambda x: np.zeros(1), beta=1.0),
        nonsmooth=NonsmoothTerm(value=lambda x: 0.0, prox=lambda v, gamma: -v),
        gamma=1.0,
        dim=1,
    )
    options = SolverOptions(max_iters=50)
    trace = run_algorithm(problem, "fista", CONST2, options)
    assert np.all(trace.step_norm == 0.0)
    assert set(trace.h.tolist()) == {-1.0, 1.0}
    assert trace.absorbed_at is None
    assert_matches_naive(trace, naive_run(problem, "fista", CONST2, options))


def test_zero_sign_change_of_x_is_not_absorbed():
    # x goes -0.0, -0.0, +0.0 while y is +0.0 from the second iteration on;
    # h reads the sign, so the iteration that moved x may not be repeated
    problem = CompositeProblem(
        smooth=SmoothTerm(value=lambda x: math.copysign(1.0, x[0]), gradient=lambda x: np.zeros(1), beta=1.0),
        nonsmooth=NonsmoothTerm(value=lambda x: 0.0, prox=lambda v, gamma: v),
        gamma=1.0,
        dim=1,
    )
    options = SolverOptions(max_iters=10, x0=np.array([-0.0]))
    trace = run_algorithm(problem, "fista", CONST2, options)
    assert trace.key_residual.tolist()[:3] == [0.0, -2.0, 0.0]
    assert trace.absorbed_at == 4
    assert_matches_naive(trace, naive_run(problem, "fista", CONST2, options))


def test_frozen_x_is_not_absorbed_while_y_moves():
    # MFISTA rejects every candidate z = 3 or 4 subnormal units, so x stays
    # at 0 with a zero step and a gap whose square underflows to 0.0; y = z
    # walks 0 -> 3 -> 4 units and picks z (and with it key), so only the
    # third iteration, which leaves y at 4 units, may absorb
    unit = 5e-324
    problem = CompositeProblem(
        smooth=SmoothTerm(value=lambda x: x[0] / unit, gradient=lambda x: np.zeros(1), beta=1.0),
        nonsmooth=NonsmoothTerm(value=lambda x: 0.0,
                                prox=lambda v, gamma: np.array([3 * unit if v[0] <= 2 * unit else 4 * unit])),
        gamma=1.0,
        dim=1,
    )
    options = SolverOptions(max_iters=20)
    trace = run_algorithm(problem, "mfista", CONST2, options)
    assert np.all(trace.sigma == 0.0) and np.all(trace.step_norm == 0.0)
    assert set(trace.key_residual.tolist()) == {-3.0, -4.0}
    assert trace.absorbed_at == 4
    assert_matches_naive(trace, naive_run(problem, "mfista", CONST2, options))


UNIT = 5e-324


def _subnormal_walk(value, prox_above):
    """A 1-D problem whose candidate is 3 subnormal units while y <= 2 units, prox_above(y) after.

    Run by classical MFISTA from a zero x0, every candidate of 3 units is
    rejected, so x stands still at 0 with zero steps, while y = x +
    (tau_n/tau_{n+1}) z rounds to 2 units for three iterations and then
    to 3. A byte test of x and y alone would absorb at n = 2 and copy the
    rows of a candidate that is about to change.
    """
    return CompositeProblem(
        smooth=SmoothTerm(value=value, gradient=lambda x: np.zeros(1), beta=1.0),
        nonsmooth=NonsmoothTerm(value=lambda x: 0.0,
                                prox=lambda v, gamma: np.array([3 * UNIT if v[0] <= 2 * UNIT else prox_above(v)])),
        gamma=1.0,
        dim=1,
    )


def _signed(sign: float):
    """h = sign * copysign(1, x) on a zero, 2 elsewhere: h reads the sign of a zero."""
    return lambda x: sign * math.copysign(1.0, x[0]) if x[0] == 0.0 else 2.0


def test_zero_steps_that_flip_bits_are_not_absorbed_under_momentum():
    # x0 = +0.0 (h = 1) rejects the 3-unit candidates; once y reaches 3
    # units the candidate is -0.0 (h = -1) and is accepted: x flips to
    # -0.0 on a step that is exactly zero, like every other step
    problem = _subnormal_walk(_signed(1.0), lambda v: -0.0)
    options = SolverOptions(max_iters=20)
    trace = run_algorithm(problem, "mfista", CLASSICAL, options)
    assert np.all(trace.step_norm == 0.0)
    assert trace.h.tolist()[:6] == [1.0, 1.0, 1.0, 1.0, -1.0, -1.0]
    assert math.copysign(1.0, trace.final_x[0]) == -1.0
    assert trace.absorbed_at is None
    assert_matches_naive(trace, naive_run(problem, "mfista", CLASSICAL, options))


def test_zero_sign_change_of_x_is_not_absorbed_under_momentum():
    # the mirror image: x0 = -0.0 (h = 1), and at 3 units of y the +0.0
    # candidate (h = -1) is accepted, so x goes from -0.0 to +0.0
    problem = _subnormal_walk(_signed(-1.0), lambda v: 0.0)
    options = SolverOptions(max_iters=20, x0=np.array([-0.0]))
    trace = run_algorithm(problem, "mfista", CLASSICAL, options)
    assert trace.x1.tobytes() == np.array([-0.0]).tobytes()
    assert trace.final_x.tobytes() == np.array([0.0]).tobytes()
    assert trace.key_residual.tolist()[:6] == [-1.0, -1.0, -1.0, -1.0, 2.0, -3.0]
    assert trace.absorbed_at is None
    assert_matches_naive(trace, naive_run(problem, "mfista", CLASSICAL, options))


def test_frozen_x_is_not_absorbed_while_y_moves_under_momentum():
    # h = x / unit: x stays at 0 and every candidate is rejected; the key
    # residual reads the candidate, 3 units while y is 2 and 4 units after
    problem = _subnormal_walk(lambda x: x[0] / UNIT, lambda v: 4 * UNIT)
    options = SolverOptions(max_iters=20)
    trace = run_algorithm(problem, "mfista", CLASSICAL, options)
    assert np.all(trace.sigma == 0.0) and np.all(trace.step_norm == 0.0)
    assert trace.key_residual.tolist()[:6] == [-3.0, -3.0, -3.0, -3.0, -4.0, -4.0]
    assert trace.absorbed_at is None
    assert_matches_naive(trace, naive_run(problem, "mfista", CLASSICAL, options))


def _shared_run_matches_naive(seed, problem_seed, pair, algorithm, absorbs, tmp_path, monkeypatch):
    run = next(r for r in workloads.build_workload("shared-schedules", seed, ROOT, tmp_path).runs if r["name"] == pair)
    assert run["problem"]["seed"] == problem_seed
    problem = build_problem(run["problem"])
    options = SolverOptions(max_iters=3_000, anchor=np.linspace(0.0, 1.0, problem.dim))
    calls = count_steps(monkeypatch)
    trace = run_algorithm(problem, algorithm, run["schedule"], options)
    assert (trace.absorbed_at is not None) == absorbs
    assert len(calls) == (3_000 if trace.absorbed_at is None else trace.absorbed_at - 1)
    assert_matches_naive(trace, naive_run(problem, algorithm, run["schedule"], options))


@pytest.mark.parametrize("algorithm", ["fista", "mfista"])
@pytest.mark.parametrize("pair", [name for name, _, _ in workloads.SHARED_PAIRS])
def test_shared_schedules_seed_1_matches_naive(pair, algorithm, tmp_path, monkeypatch):
    # the benchmark's seed-1 lasso instance reaches a FISTA fixed point
    # within 3,000 iterations only under aujol (n = 18); its MFISTA runs pass
    # a byte test of x and y while y still moves (classical at n = 303, for one)
    absorbs = algorithm == "fista" and pair == "fista-aujol"
    _shared_run_matches_naive(1, 1905448114, pair, algorithm, absorbs, tmp_path, monkeypatch)


@pytest.mark.parametrize("algorithm", ["fista", "mfista"])
@pytest.mark.parametrize("pair", [name for name, _, _ in workloads.SHARED_PAIRS])
def test_shared_schedules_seed_4_matches_naive(pair, algorithm, tmp_path, monkeypatch):
    # the benchmark's seed-4 lasso instance reaches a FISTA fixed point under
    # every schedule, from n = 359 (aujol) to n = 1,699 (classical), and no
    # MFISTA fixed point within 3,000 iterations
    _shared_run_matches_naive(4, 1076312868, pair, algorithm, algorithm == "fista", tmp_path, monkeypatch)


def test_custom_tau_below_one_after_the_fixed_point_moves_y(monkeypatch):
    # x0 = 1 and T y = -0.0 for every y but -0.0, whose image is 5: FISTA
    # sits at x = -0.0 with y = +0.0 from n = 3 on, since alpha >= 0 turns
    # x + alpha * 0 into +0.0. The list stays admissible within
    # ADMISSIBILITY_TOL while tau_10 = 1 - 4e-13 < 1; that alpha is negative,
    # y becomes -0.0 and x_11 = 5. A later tau can move y, so the run may not
    # absorb at n = 4, and from n = 11 on x swings between 5 and -0.0.
    problem = CompositeProblem(
        smooth=SmoothTerm(value=lambda x: x[0], gradient=lambda x: np.zeros(1), beta=1.0),
        nonsmooth=NonsmoothTerm(value=lambda x: 0.0, prox=lambda v, gamma: np.array(
            [5.0 if v[0] == 0.0 and math.copysign(1.0, v[0]) < 0.0 else -0.0])),
        gamma=1.0,
        dim=1,
    )
    schedule = {"kind": "custom", "values": [1.0 + 5e-13] * 9 + [1.0 - 4e-13] + [1.0] * 21}
    options = SolverOptions(max_iters=30, x0=np.array([1.0]))
    calls = count_steps(monkeypatch)
    trace = run_algorithm(problem, "fista", schedule, options)
    assert trace.h.tolist()[9:11] == [0.0, 5.0]
    assert len(calls) == (30 if trace.absorbed_at is None else trace.absorbed_at - 1)
    assert_matches_naive(trace, naive_run(problem, "fista", schedule, options))


def test_mfista_y_kept_by_a_last_tau_move_is_not_absorbed(monkeypatch):
    # x stays at 0 and every candidate is rejected. y = (tau_n/tau_{n+1}) 3
    # units rounds to 2 units at n = 1 and again at n = 2, where tau moves
    # for the last time (1.5 -> 2); at n = 3 the ratio is 1 and y becomes 3
    # units, whose candidate of 4 units is a fixed point of the iteration
    # from n = 5 on. Absorbing at n = 2 would copy the rows of a candidate
    # that is about to change.
    problem = _subnormal_walk(lambda x: x[0] / UNIT, lambda v: 4 * UNIT)
    schedule = {"kind": "custom", "values": [1.0, 1.5] + [2.0] * 19}
    options = SolverOptions(max_iters=20)
    calls = count_steps(monkeypatch)
    trace = run_algorithm(problem, "mfista", schedule, options)
    assert trace.key_residual.tolist()[:6] == [-3.0, -3.0, -3.0, -4.0, -4.0, -4.0]
    assert trace.absorbed_at == 6
    assert len(calls) == 5
    assert_matches_naive(trace, naive_run(problem, "mfista", schedule, options))


def _between_rows(n: int, options) -> bool:
    """True when iteration n is not one that writes a row."""
    return n != 1 and n != options.max_iters and n % options.record_every != 0


@pytest.mark.parametrize("algorithm", ["fista", "mfista"])
def test_divergence_between_recorded_rows_matches_naive(algorithm):
    # x_n grows like n^2 on affine descent under classical momentum
    problem = build_problem({"name": "affine-descent"})
    options = SolverOptions(max_iters=5_000, record_every=100, divergence_threshold=1e5)
    trace = run_algorithm(problem, algorithm, CLASSICAL, options)
    assert trace.diverging and _between_rows(trace.truncated_at, options)
    assert trace.n[-1] < trace.truncated_at
    assert_matches_naive(trace, naive_run(problem, algorithm, CLASSICAL, options))


def naive_reference_min(problem, budget: int):
    """Restarted FISTA with the duality stop, over naive_run: (min_h, witness, iterations)."""
    x, lower, upper, lower_allow, upper_allow, used = np.zeros(problem.dim), -math.inf, math.inf, 0.0, 0.0, 0
    while used < budget:
        chunk = min(ORACLE_CHUNK, budget - used)
        run = naive_run(problem, "fista", CLASSICAL, SolverOptions(max_iters=chunk, record_every=chunk, x0=x))
        used += chunk
        x, h_x = run["final_x"], run["h"][-1]
        bound, allowance = duality_bound(problem, x)
        moved = bound > lower or h_x < upper
        if bound > lower:
            lower, lower_allow = bound, allowance
        if h_x < upper:
            upper, upper_allow, witness = h_x, allowance, x
        if not moved and upper - lower <= max(1e-12 * max(1.0, abs(upper)), lower_allow, upper_allow):
            return upper, witness, used
    raise AssertionError("no certificate")


@pytest.mark.parametrize("problem_name, budget", [("lasso-d10-s1", 9_000), ("boxquad", 2_000)])
def test_reference_min_matches_restarted_naive_loop(problem_name, budget):
    problem = build_problem(PROBLEMS[problem_name][0])
    oracle = reference_min(problem, budget=budget)
    min_h, witness, iterations = naive_reference_min(problem, budget)
    assert _bits(np.float64(oracle.min_h)) == _bits(np.float64(min_h))
    assert oracle.witness.tobytes() == witness.tobytes()
    assert oracle.iterations == iterations


B = solvers._BLOCK


@pytest.mark.parametrize("rows", [B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("anchored", [False, True])
def test_block_boundaries_match_naive(rows, case, anchored):
    algorithm, schedule = CASES[case]
    problem = build_problem(PROBLEMS["lasso-d10-s1"][0])
    anchor = np.linspace(0.0, 1.0, problem.dim) if anchored else None
    options = SolverOptions(max_iters=rows, anchor=anchor)
    trace = run_algorithm(problem, algorithm, schedule, options)
    assert trace.n.size == rows
    assert_matches_naive(trace, naive_run(problem, algorithm, schedule, options))


@pytest.mark.parametrize("rows", [B, B + 1], ids=["last-of-block", "first-of-block"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stop_on_block_edge_matches_naive(rows, case):
    # a run that stops early, by truncation at iteration rows + 1, with its
    # last recorded row on the last slot of a block (flushed inside the
    # loop) or on the first slot of the next (flushed after it)
    algorithm, schedule = CASES[case]
    problem = build_problem({"name": "affine-descent"})
    full = run_algorithm(problem, algorithm, schedule, SolverOptions(max_iters=4 * B + 8))
    assert full.n.size == 4 * B + 8 and np.all(np.diff(full.x_norm) > 0.0)
    # the first x_norm above this threshold is the one at iteration rows + 1
    threshold = float(np.nextafter(full.x_norm[rows], -math.inf))
    options = SolverOptions(max_iters=4 * B + 8, divergence_threshold=threshold, anchor=np.array([3.0]))
    trace = run_algorithm(problem, algorithm, schedule, options)
    assert trace.truncated_at == rows + 1 and trace.n.size == rows
    assert_matches_naive(trace, naive_run(problem, algorithm, schedule, options))


def _rows_before(n: int, every: int) -> int:
    """Rows recorded before iteration n."""
    return n - 1 if every == 1 else 1 + (n - 1) // every


@pytest.mark.parametrize("every", [1, 2], ids=["recorded", "unrecorded"])
def test_absorption_right_after_a_flush_matches_naive(every):
    # start ISTA k iterations along its path from 0, with k chosen so that
    # the absorbing iteration's row opens a block: at record_every 1 it is
    # recorded, at record_every 2 (an odd iteration) it is not
    problem = build_problem(PROBLEMS["lasso-d10-s1"][0])
    absorbing = ista_run(problem, SolverOptions(max_iters=9_000)).absorbed_at - 1
    target = 2 * B + 1 if every == 1 else 4 * B - 1
    assert _rows_before(target, every) == 2 * B
    start = ista_run(problem, SolverOptions(max_iters=absorbing - target)).final_x
    options = SolverOptions(max_iters=9_000, record_every=every, x0=start)
    trace = ista_run(problem, options)
    assert trace.absorbed_at == target + 1
    assert (target % every == 0) == (every == 1)
    assert_matches_naive(trace, naive_run(problem, "ista", None, options))


def test_mfista_rejections_inside_a_block_match_naive():
    problem = build_problem(PROBLEMS["lasso-d10-s1"][0])
    options = SolverOptions(max_iters=3 * B, anchor=np.linspace(0.0, 1.0, problem.dim))
    trace = run_algorithm(problem, "mfista", CLASSICAL, options)
    # a rejected candidate keeps x, so its row has a zero step
    rejected = trace.n[trace.step_norm == 0.0]
    assert np.any(((rejected - 1) % B != 0) & ((rejected - 1) % B != B - 1))
    assert_matches_naive(trace, naive_run(problem, "mfista", CLASSICAL, options))


@pytest.mark.parametrize("case", sorted(CASES))
def test_start_outside_domain_gives_nan_key_rows_without_warnings(case):
    algorithm, schedule = CASES[case]
    problem = build_problem(PROBLEMS["boxquad"][0])
    options = SolverOptions(max_iters=2 * B + 1, x0=np.array([5.0, -5.0]),
                            anchor=np.array([0.5, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_algorithm(problem, algorithm, schedule, options)
    # h(x0) = +inf: only the first row's key residual is undefined
    assert math.isnan(trace.key_residual[0])
    assert np.all(np.isfinite(trace.key_residual[1:]))
    assert_matches_naive(trace, naive_run(problem, algorithm, schedule, options))
