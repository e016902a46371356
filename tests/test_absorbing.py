"""The solver's shortcuts must be invisible in every trace.

Three shortcuts are covered: the absorbing-state fast-forward, the
diagnostic columns being computed only on iterations that write a row,
and those columns being computed a block of queued rows at a time. Each
case runs the solver and the naive reference loop from helpers.py, which
applies T and h and computes every column at every iteration, one row at a
time, and requires the two to agree bit for bit: every recorded column,
the first iterate, the end points and the stop/truncation markers. Only
constant-schedule runs fast-forward; momentum runs are covered to show
they still match and never skip. Sparse record cadences, stops and
truncations that fall between recorded rows, and the reference oracle
check the gating; run lengths, stops and absorptions around a block
boundary check the block computation.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from apglab import (
    CompositeProblem,
    NonsmoothTerm,
    ParameterError,
    SmoothTerm,
    SolverOptions,
    build_problem,
    ista_run,
    reference_min,
    run_algorithm,
)
from apglab import solvers

from helpers import naive_run

SUITE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_suite.json"

CONST2 = {"kind": "constant", "tau": 2.0}
CLASSICAL = {"kind": "classical"}

# case -> (algorithm, schedule); only the constant schedules can absorb
CASES = {
    "ista": ("ista", None),
    "fista-const2": ("fista", CONST2),
    "mfista-const2": ("mfista", CONST2),
    "fista": ("fista", CLASSICAL),
    "mfista": ("mfista", CLASSICAL),
}
ABSORBING = {"ista", "fista-const2", "mfista-const2"}

# name -> (problem spec, max_iters, whether its constant-schedule runs absorb)
PROBLEMS = {
    "lasso-d10-s1": ({"name": "lasso", "dim": 10, "seed": 1}, 9_000, True),
    "quad2": ({"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]}, 600, True),
    "boxquad": ({"name": "quadratic", "diag": [1.0, 4.0], "b": [3.0, 3.0],
                 "g": {"kind": "box", "lo": 0.0, "hi": 1.0}}, 200, True),
    "unattained": ({"name": "unattained"}, 2_000, False),
}

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
    assert trace.stopped_at == ref["stopped_at"]
    assert trace.truncated_at == ref["truncated_at"]


@pytest.mark.parametrize("problem_name", sorted(PROBLEMS))
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("record_every", [1, 7, 1000, "max"])
@pytest.mark.parametrize("anchored", [False, True])
def test_trace_matches_naive_loop(problem_name, case, record_every, anchored):
    spec, max_iters, absorbs = PROBLEMS[problem_name]
    algorithm, schedule = CASES[case]
    problem = build_problem(spec)
    anchor = np.linspace(0.0, 1.0, problem.dim) if anchored else None
    every = max_iters if record_every == "max" else record_every
    options = SolverOptions(max_iters=max_iters, record_every=every, anchor=anchor)
    trace = run_algorithm(problem, algorithm, schedule, options)
    assert_matches_naive(trace, naive_run(problem, algorithm, schedule, options))
    assert (trace.absorbed_at is not None) == (absorbs and case in ABSORBING)


def test_suite_ista_run_skips_most_operator_calls(monkeypatch):
    run = next(r for r in json.loads(SUITE_CONFIG.read_text())["runs"] if r["name"] == "lasso10-ista")
    problem = build_problem(run["problem"])
    calls = []

    def counting_step(problem, y):
        calls.append(1)
        return fbs(problem, y)

    fbs = solvers.forward_backward_step
    monkeypatch.setattr(solvers, "forward_backward_step", counting_step)
    trace = run_algorithm(problem, run["algorithm"], None, SolverOptions(max_iters=run["max_iters"]))
    assert run["max_iters"] == 100_000
    assert trace.n[-1] == 100_000
    assert trace.absorbed_at is not None
    assert len(calls) == trace.absorbed_at - 1 < 10_000


def test_run_from_exact_fixed_point_absorbs_at_once():
    # the first iteration may turn -0.0 entries of y into +0.0 (y = x + 0 * step),
    # so the lasso minimizer, which has signed zeros, needs one more
    lasso = build_problem({"name": "lasso", "dim": 10, "seed": 1})
    quad = build_problem(PROBLEMS["quad2"][0])
    starts = ((lasso, reference_min(lasso).argmin, 3), (quad, quad.known_argmin, 2))
    for problem, x_star, absorbed_at in starts:
        for case in sorted(ABSORBING):
            algorithm, schedule = CASES[case]
            trace = run_algorithm(problem, algorithm, schedule, SolverOptions(max_iters=1_000, x0=x_star))
            assert trace.absorbed_at == absorbed_at, (problem.name, case)
            assert np.all(trace.step_norm == 0.0)


def test_oracle_runs_its_whole_budget(monkeypatch):
    # stage 1 reaches an exact fixed point well inside the budget, yet both
    # stages keep applying T, so the solve costs the same on every instance
    problem = build_problem(PROBLEMS["lasso-d10-s1"][0])
    budget = 9_000
    assert ista_run(problem, SolverOptions(max_iters=budget)).absorbed_at is not None
    calls = []

    def counting_step(problem, y):
        calls.append(1)
        return fbs(problem, y)

    fbs = solvers.forward_backward_step
    monkeypatch.setattr(solvers, "forward_backward_step", counting_step)
    reference_min(problem, budget=budget)
    assert len(calls) == 2 * budget


def test_step_norm_stop_fires_at_first_zero_step_before_absorption():
    problem = build_problem(PROBLEMS["lasso-d10-s1"][0])
    full = run_algorithm(problem, "ista", None, SolverOptions(max_iters=9_000))
    first_zero = int(full.n[np.flatnonzero(full.step_norm == 0.0)[0]])
    assert full.absorbed_at is not None and first_zero < full.absorbed_at
    # the smallest positive float: the stop fires only on an exactly zero step
    stopped = run_algorithm(problem, "ista", None, SolverOptions(max_iters=9_000, stop_step_norm=5e-324))
    assert stopped.stopped_at == first_zero
    assert stopped.absorbed_at is None


def test_momentum_runs_apply_t_at_every_iteration(monkeypatch):
    # boxquad reaches its exact fixed point within a few iterations, but a
    # varying schedule keeps every step, and a custom one still runs dry
    problem = build_problem(PROBLEMS["boxquad"][0])
    calls = []

    def counting_step(problem, y):
        calls.append(1)
        return fbs(problem, y)

    fbs = solvers.forward_backward_step
    monkeypatch.setattr(solvers, "forward_backward_step", counting_step)
    values = [1.0 + 0.5 * k for k in range(30)]
    for schedule in (CLASSICAL, {"kind": "custom", "values": values}):
        calls.clear()
        trace = run_algorithm(problem, "fista", schedule, SolverOptions(max_iters=29))
        assert trace.step_norm[-1] == 0.0
        assert trace.absorbed_at is None and len(calls) == 29
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


def _between_rows(n: int, options) -> bool:
    """True when iteration n writes no row except for the stop itself."""
    return n != 1 and n != options.max_iters and n % options.record_every != 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_norm_stop_between_recorded_rows_matches_naive(case):
    algorithm, schedule = CASES[case]
    problem = build_problem(PROBLEMS["lasso-d10-s1"][0])
    options = SolverOptions(max_iters=9_000, record_every=1000, stop_step_norm=1e-6)
    trace = run_algorithm(problem, algorithm, schedule, options)
    assert trace.stopped_at is not None and _between_rows(trace.stopped_at, options)
    assert trace.n[-1] == trace.stopped_at
    assert_matches_naive(trace, naive_run(problem, algorithm, schedule, options))


@pytest.mark.parametrize("case", sorted(CASES))
def test_h_gap_stop_between_recorded_rows_matches_naive(case):
    algorithm, schedule = CASES[case]
    problem = build_problem(PROBLEMS["quad2"][0])
    options = SolverOptions(max_iters=600, record_every=100, stop_h_gap=1e-9,
                            anchor=problem.known_argmin)
    trace = run_algorithm(problem, algorithm, schedule, options)
    assert trace.stopped_at is not None and _between_rows(trace.stopped_at, options)
    assert_matches_naive(trace, naive_run(problem, algorithm, schedule, options))


@pytest.mark.parametrize("algorithm", ["fista", "mfista"])
def test_divergence_between_recorded_rows_matches_naive(algorithm):
    # x_n grows like n^2 on affine descent under classical momentum
    problem = build_problem({"name": "affine-descent"})
    options = SolverOptions(max_iters=5_000, record_every=100, divergence_threshold=1e5)
    trace = run_algorithm(problem, algorithm, CLASSICAL, options)
    assert trace.diverging and _between_rows(trace.truncated_at, options)
    assert trace.n[-1] < trace.truncated_at
    assert_matches_naive(trace, naive_run(problem, algorithm, CLASSICAL, options))


@pytest.mark.parametrize("problem_name, budget", [("lasso-d10-s1", 9_000), ("boxquad", 200)])
def test_reference_min_matches_two_stage_naive_loop(problem_name, budget):
    problem = build_problem(PROBLEMS[problem_name][0])
    oracle = reference_min(problem, budget=budget)
    stage1 = naive_run(problem, "ista", None, SolverOptions(max_iters=budget, record_every=budget))
    stage2 = naive_run(problem, "mfista", CLASSICAL,
                       SolverOptions(max_iters=budget, record_every=budget, x0=stage1["final_x"]))
    h_ista, h_mf = stage1["h"][-1], stage2["h"][-1]
    best, witness = (h_ista, stage1["final_x"]) if h_ista <= h_mf else (h_mf, stage2["final_x"])
    for got, want in ((oracle.min_h, best), (oracle.ista_value, h_ista), (oracle.mfista_value, h_mf)):
        assert _bits(np.float64(got)) == _bits(np.float64(want))
    assert oracle.argmin.tobytes() == witness.tobytes()


B = solvers._BLOCK
# h decreases strictly over the first 4 * B + 8 iterations of every case,
# so a stop_h_gap can be placed on any one of them
SLOW_QUAD = {"name": "quadratic", "diag": [1e-4, 1.0], "b": [1.0, 1.0]}


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


@pytest.mark.parametrize("stop_at", [B, B + 1], ids=["last-of-block", "first-of-block"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stop_on_block_edge_matches_naive(stop_at, case):
    algorithm, schedule = CASES[case]
    problem = build_problem(SLOW_QUAD)
    full = run_algorithm(problem, algorithm, schedule, SolverOptions(max_iters=4 * B + 8))
    gap = full.h - problem.known_min
    assert np.all(np.diff(gap) < 0.0)
    # the first gap below this threshold is the one at iteration stop_at
    threshold = float(np.nextafter(gap[stop_at - 1], math.inf))
    options = SolverOptions(max_iters=4 * B + 8, stop_h_gap=threshold, anchor=problem.known_argmin)
    trace = run_algorithm(problem, algorithm, schedule, options)
    assert trace.stopped_at == stop_at and trace.n.size == stop_at
    assert_matches_naive(trace, naive_run(problem, algorithm, schedule, options))


def _rows_before(n: int, every: int) -> int:
    """Rows recorded before iteration n (no stop)."""
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
