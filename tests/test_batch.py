"""Runs advanced in lockstep must not see each other.

`solvers.run_batch` stacks the live runs of one problem and makes one
T and one h call on the stack per iteration. Two properties keep every
trace what the run gives alone: each built-in term computes row i of a
stack bit for bit as it computes the vector alone, and the batch sends
each run only its own row. The first is checked term by term, the second
on whole batches against the same runs made alone and against
helpers.naive_run.
"""

import math

import numpy as np
import pytest

from apglab import CompositeProblem, ParameterError, SolverOptions, build_problem, run_algorithm
from apglab import solvers
from apglab.catalog import (
    make_affine_descent,
    make_indicator_box,
    make_l1,
    make_least_squares,
    make_quadratic,
    make_unattained_infimum,
    make_zero,
)
from apglab.problem import NonsmoothTerm, evaluate_h, forward_backward_step

from helpers import naive_run

COLUMNS = ("n", "tau", "alpha", "h", "sigma", "step_norm", "x_norm", "key_residual", "lyapunov", "fejer_dist")
MARKERS = ("diverging", "truncated_at", "stopped_at", "absorbed_at", "anchored", "schedule_spec", "max_iters")


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.view(np.uint64)


def _same(got, want, what):
    assert (got is None) == (want is None), what
    if got is not None:
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=what)


# --- stacked terms ---------------------------------------------------------


def _stack(rng, k: int, d: int) -> np.ndarray:
    """k rows over many scales, with signed zeros in every row."""
    ys = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-3, 4, size=(k, d))
    ys[:, 0] = -0.0
    if d > 1:
        ys[:, -1] = 0.0
    ys[0] = -0.0
    return ys


def _smooth_terms(rng, d: int) -> dict:
    a = rng.normal(size=(d, d))
    design = rng.normal(size=(2 * d, d)) * np.logspace(0.0, -2.0, d)
    terms = {
        "quadratic": make_quadratic(a @ a.T + np.eye(d), rng.normal(size=d)),
        "least-squares": make_least_squares(design, rng.normal(size=2 * d)),
    }
    if d == 1:
        terms["affine-descent"] = make_affine_descent()
        terms["unattained"] = make_unattained_infimum()
    return terms


def _nonsmooth_terms(rng, d: int) -> dict:
    return {
        "zero": make_zero(),
        "l1-weight-0": make_l1(0.0),
        "l1": make_l1(0.7),
        "box-scalar": make_indicator_box(-1.0, 1.0),
        "box-vector": make_indicator_box(-rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d)),
    }


@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("d", [1, 2, 3, 10, 50])
def test_stacked_terms_match_the_one_dimensional_calls_bitwise(d, k):
    rng = np.random.default_rng(1000 * d + k)
    ys = _stack(rng, k, d)
    box_rows = ys.copy()
    box_rows[1::2] *= 0.001  # inside the unit box; the other rows are mostly outside
    for smooth_name, smooth in _smooth_terms(rng, d).items():
        for name, points in (("value", ys), ("gradient", ys)):
            got = getattr(smooth, name)(points)
            for i in range(k):
                _same(np.broadcast_to(got, (k,) + np.shape(got)[1:])[i],
                      getattr(smooth, name)(points[i]), f"{smooth_name}.{name} row {i}")
        for g_name, g in _nonsmooth_terms(rng, d).items():
            problem = CompositeProblem(smooth=smooth, nonsmooth=g, gamma=0.5 / smooth.beta, dim=d)
            for points in (ys, box_rows):
                t_ys = forward_backward_step(problem, points)
                hs = evaluate_h(problem, points)
                assert t_ys.shape == (k, d) and hs.shape == (k,)
                for i in range(k):
                    what = f"{smooth_name} + {g_name}, row {i}"
                    _same(t_ys[i], forward_backward_step(problem, points[i]), f"T, {what}")
                    _same(hs[i], evaluate_h(problem, points[i]), f"h, {what}")
                    _same(evaluate_h(problem, t_ys)[i], evaluate_h(problem, t_ys[i]), f"h(T), {what}")
                    _same(g.prox(points, 0.3)[i], g.prox(points[i], 0.3), f"prox, {what}")


def test_stacked_box_value_is_inf_exactly_on_rows_outside():
    g = make_indicator_box(0.0, 1.0)
    rows = np.array([[0.5, 0.5], [1.5, 0.5], [0.0, -0.0], [0.5, -1e-300]])
    assert g.value(rows).tolist() == [0.0, math.inf, 0.0, math.inf]
    problem = build_problem({"name": "quadratic", "diag": [1.0, 4.0], "b": [3.0, 3.0],
                             "g": {"kind": "box", "lo": 0.0, "hi": 1.0}})
    assert [math.isinf(v) for v in evaluate_h(problem, rows).tolist()] == [False, True, False, True]


def test_stacked_step_checks_the_prox_output():
    def bad_prox(v, gamma):
        return v[..., :1]

    problem = CompositeProblem(smooth=make_quadratic(np.eye(2), np.ones(2)),
                               nonsmooth=NonsmoothTerm(value=lambda x: 0.0, prox=bad_prox, name="bad"),
                               gamma=1.0, dim=2)
    with pytest.raises(ParameterError, match="prox of 'bad'"):
        forward_backward_step(problem, np.zeros((3, 2)))
    # a prox that drops the stack is caught too, though its rows would pass alone
    problem = CompositeProblem(smooth=make_quadratic(np.eye(2), np.ones(2)),
                               nonsmooth=NonsmoothTerm(value=lambda x: 0.0, prox=lambda v, gamma: v[0],
                                                       name="first-row"),
                               gamma=1.0, dim=2)
    with pytest.raises(ParameterError, match="prox of 'first-row'"):
        forward_backward_step(problem, np.zeros((3, 2)))


# --- lockstep runs ---------------------------------------------------------

CLASSICAL = {"kind": "classical"}
CONST2 = {"kind": "constant", "tau": 2.0}


def _quad2_batch(problem):
    """8 runs on quad2: every algorithm, constant, classical and Attouch
    schedules, record_every 1 and 7, anchored and not, a stop_h_gap stop,
    an absorbing run, a truncation at a divergence threshold, and one
    longest run, so that the batch shrinks to one."""
    anchor = problem.known_argmin
    return [
        ("ista", None, SolverOptions(max_iters=600)),
        ("fista", CONST2, SolverOptions(max_iters=400, record_every=7, anchor=anchor)),
        ("fista", CLASSICAL, SolverOptions(max_iters=600, anchor=anchor, stop_h_gap=1e-9)),
        ("fista", {"kind": "attouch_shifted", "rho": 3.0}, SolverOptions(max_iters=300, record_every=7)),
        ("mfista", CLASSICAL, SolverOptions(max_iters=1000, anchor=anchor)),
        ("mfista", {"kind": "attouch_shifted", "rho": 2.0},
         SolverOptions(max_iters=50, record_every=7, anchor=anchor)),
        ("mfista", CONST2, SolverOptions(max_iters=600, divergence_threshold=1.0)),
        ("fista", CLASSICAL, SolverOptions(max_iters=1, record_every=7)),
    ]


def _affine_batch(problem):
    """Runs on affine descent, where momentum runs diverge at different n."""
    return [
        ("fista", CLASSICAL, SolverOptions(max_iters=5_000, divergence_threshold=1e5)),
        ("mfista", CLASSICAL, SolverOptions(max_iters=5_000, record_every=7, divergence_threshold=1e6,
                                            anchor=np.array([3.0]))),
        ("fista", {"kind": "attouch_shifted", "rho": 3.0},
         SolverOptions(max_iters=5_000, record_every=7, divergence_threshold=1e4)),
        ("ista", None, SolverOptions(max_iters=700, anchor=np.array([-2.0]))),
    ]


BATCHES = {
    "quad2": ({"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]}, _quad2_batch),
    "affine": ({"name": "affine-descent"}, _affine_batch),
}


def _last_iteration(trace) -> int:
    """The last iteration for which the run took T y."""
    if trace.truncated_at is not None:
        return trace.truncated_at
    if trace.absorbed_at is not None:
        return trace.absorbed_at - 1
    return int(trace.n[-1])


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_batch_matches_runs_alone_and_naive_loop(name, monkeypatch):
    spec, make_runs = BATCHES[name]
    problem = build_problem(spec)
    runs = make_runs(problem)
    shapes = []

    def recording_step(problem, y):
        shapes.append(np.shape(y))
        return fbs(problem, y)

    fbs = solvers.forward_backward_step
    monkeypatch.setattr(solvers, "forward_backward_step", recording_step)
    ended = list(solvers.run_batch(problem, runs))
    batch_shapes = shapes[:]
    monkeypatch.setattr(solvers, "forward_backward_step", fbs)

    assert sorted(i for i, _ in ended) == list(range(len(runs)))
    # each trace is yielded as its run ends: ends are in iteration order
    ends = [_last_iteration(trace) for _, trace in ended]
    assert ends == sorted(ends)
    # one stacked call per iteration while two or more runs are live
    ks = [s[0] for s in batch_shapes if len(s) == 2]
    assert ks[0] == len(runs) and ks == sorted(ks, reverse=True) and min(ks) == 2
    assert batch_shapes[-1] == (problem.dim,)

    for i, batched in ended:
        algorithm, schedule, options = runs[i]
        alone = vars(run_algorithm(problem, algorithm, schedule, options))
        ref = naive_run(problem, algorithm, schedule, options)
        for other, label in ((alone, "alone"), (ref, "naive")):
            for field in (*COLUMNS, "x1", "h1", "final_x", "final_x_prev"):
                _same(getattr(batched, field), other[field], f"run {i} {field} vs {label}")
        for marker in MARKERS:
            assert getattr(batched, marker) == alone[marker], (i, marker)
        assert (batched.stopped_at, batched.truncated_at) == (ref["stopped_at"], ref["truncated_at"])

    traces = [trace for _, trace in sorted(ended, key=lambda pair: pair[0])]
    if name == "quad2":
        assert traces[0].absorbed_at is not None and traces[2].stopped_at is not None
        assert traces[6].diverging
    else:
        assert [t.diverging for t in traces] == [True, True, True, False]


def test_batch_checks_every_run_before_the_first_iteration(monkeypatch):
    problem = build_problem(BATCHES["quad2"][0])
    calls = []
    monkeypatch.setattr(solvers, "forward_backward_step", lambda problem, y: calls.append(1))
    good = ("fista", CLASSICAL, SolverOptions(max_iters=10))
    for bad, message in ((("newton", None, SolverOptions(max_iters=10)), "unknown algorithm"),
                         (("fista", CLASSICAL, SolverOptions(max_iters=0)), "max_iters"),
                         (("ista", CONST2, SolverOptions(max_iters=10)), "ista requires"),
                         (("fista", {"kind": "custom", "values": [1.0, 1.5]}, SolverOptions(max_iters=10)),
                          "exhausted after 2 values")):
        with pytest.raises(ParameterError, match=message):
            list(solvers.run_batch(problem, [good, bad]))
    assert calls == []
