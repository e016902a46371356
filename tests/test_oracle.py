"""The certified reference minimum: closed forms, duality bounds and the restarted-FISTA stop.

The oracle returns an interval [lower, upper] for min h whose ends come
from a dual bound and a primal value, each within a stated rounding
allowance. These tests check the bound against the primal values of other
points (weak duality), the interval against the catalog's closed forms,
and the stop on every seed-drawn lasso instance the benchmark workloads
use. The restarted loop itself is matched bit for bit against a naive
transcription in test_absorbing.py, and exit code 4 in test_cli.py.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apglab import OracleNotApplicable, OracleUnreliable, build_problem, evaluate_h
from apglab.diagnostics import duality_bound, quadratic_rho, reference_min

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import workloads
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def _quad(diag, b, g):
    return {"name": "quadratic", "diag": diag, "b": b, "g": g}


C = 1e5
# spec -> (argmin, min h), all exact in binary floating point
CLOSED_FORMS = {
    "boxquad": (_quad([1.0, 4.0], [3.0, 3.0], {"kind": "box", "lo": 0.0, "hi": 1.0}), [1.0, 0.75], -3.625),
    "l1quad": (_quad([1.0, 4.0], [3.0, 3.0], {"kind": "l1", "weight": 0.5}), [2.5, 0.625], -3.90625),
    # the l1-quadratic in units scaled by c = 1e5: same argmin, h scaled by c
    "l1quad-1e5": (_quad([C, 4 * C], [3 * C, 3 * C], {"kind": "l1", "weight": 0.5 * C}), [2.5, 0.625],
                   -3.90625 * C),
    # a zero diagonal entry makes the coordinate's term linear
    "box-linear": (_quad([0.0, 4.0], [3.0, 3.0], {"kind": "box", "lo": 0.0, "hi": 1.0}), [1.0, 0.75], -4.125),
    "box-flat": (_quad([0.0, 4.0], [0.0, 3.0], {"kind": "box", "lo": 0.5, "hi": 1.0}), [0.5, 0.75], -1.125),
    "l1-linear": (_quad([0.0, 4.0], [0.3, 3.0], {"kind": "l1", "weight": 0.5}), [0.0, 0.625], -0.78125),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_separable_quadratics_have_closed_form_minima(name):
    spec, argmin, min_h = CLOSED_FORMS[name]
    p = build_problem(spec)
    assert p.known_argmin.tolist() == argmin
    assert p.known_min == min_h == evaluate_h(p, p.known_argmin)
    assert p.argmin_nonempty is True


@pytest.mark.parametrize("spec", [
    _quad([0.0, 4.0], [0.6, 3.0], {"kind": "l1", "weight": 0.5}),
    _quad([0.0, 4.0], [-3.0, 3.0], {"kind": "box", "lo": [-float("inf"), 0.0], "hi": 1.0}),
], ids=["l1-slope-past-weight", "box-open-below"])
def test_separable_quadratic_unbounded_along_a_flat_coordinate(spec):
    p = build_problem(spec)
    assert p.argmin_nonempty is False and p.inf_h == -np.inf
    assert p.known_min is None and p.known_argmin is None


def _contains(oracle, value: float) -> bool:
    """value lies in the certified interval: [lower, upper], each end widened by the allowance."""
    return oracle.lower - oracle.allowance <= value <= oracle.upper + oracle.allowance


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_certified_interval_contains_the_closed_form(name):
    spec, _, min_h = CLOSED_FORMS[name]
    oracle = reference_min(build_problem(spec))
    assert _contains(oracle, min_h)
    assert abs(oracle.min_h - min_h) <= oracle.error_bar


def test_singular_matrix_l1_quadratic_certifies_where_s_is_one():
    # Q = diag(1, 0) with c outside its range: no finite rho, so only dual
    # points with ||c - Q x||_inf <= weight count; the minimizer (0.5, 0) is one
    p = build_problem({"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, 0.0]], "b": [1.0, 0.25],
                       "g": {"kind": "l1", "weight": 0.5}})
    assert quadratic_rho(p) == np.inf
    oracle = reference_min(p)
    assert _contains(oracle, -0.125)


def test_oracle_refuses_problems_it_cannot_certify():
    nonconvex = build_problem({"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, -1.0]], "b": [1.0, 1.0],
                               "g": {"kind": "box", "lo": 0.0, "hi": 1.0}})
    with pytest.raises(OracleUnreliable, match="not convex"):
        reference_min(nonconvex)
    unattained = build_problem({"name": "unattained"})
    with pytest.raises(OracleNotApplicable):
        reference_min(unattained)


def _instance(kind: str, dim: int, seed: int):
    if kind == "lasso":
        return build_problem({"name": "lasso", "dim": dim, "seed": seed})
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(dim, dim))
    q = root @ root.T + 0.1 * np.eye(dim)
    q = (q + q.T) / 2.0
    spec = {"name": "quadratic", "matrix": q.tolist(), "b": (3.0 * rng.normal(size=dim)).tolist()}
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, size=dim)
        spec["g"] = {"kind": "box", "lo": lo.tolist(), "hi": (lo + rng.uniform(0.0, 2.0, size=dim)).tolist()}
    else:
        spec["g"] = {"kind": "l1", "weight": float(rng.uniform(0.0, 2.0))}
    return build_problem(spec)


_WITNESSES = {}


def _witness(problem, key):
    if key not in _WITNESSES:
        _WITNESSES[key] = reference_min(problem).argmin
    return _WITNESSES[key]


@given(kind=st.sampled_from(["lasso", "box", "l1"]), dim=st.integers(1, 8), seed=st.integers(0, 5),
       offset=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_weak_duality_holds_in_floating_point(kind, dim, seed, offset, data):
    # the bound at x, less its allowance, is below h at any x': the sharp case
    # is x next to the minimizer and x' at it
    problem = _instance(kind, dim, seed)
    rho = quadratic_rho(problem)
    witness = _witness(problem, (kind, dim, seed))
    noise = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    x = witness + offset * noise
    lower, allowance = duality_bound(problem, x, rho)
    assert allowance > 0.0
    for other in (witness, problem.nonsmooth.prox(x, problem.gamma), x):
        assert lower - allowance <= evaluate_h(problem, other)


@pytest.mark.parametrize("kind", ["lasso", "box", "l1"])
def test_a_perturbed_witness_widens_the_interval(kind):
    problem = _instance(kind, 6, 3)
    rho = quadratic_rho(problem)
    oracle = reference_min(problem)
    lower, _ = duality_bound(problem, oracle.argmin, rho)
    width = evaluate_h(problem, oracle.argmin) - lower
    rng = np.random.default_rng(0)
    for scale in (1e-6, 1e-3, 1e-1):
        moved = problem.nonsmooth.prox(oracle.argmin + scale * rng.normal(size=6), problem.gamma)
        moved_lower, _ = duality_bound(problem, moved, rho)
        h_moved = evaluate_h(problem, moved)
        assert h_moved - moved_lower > width + oracle.allowance
        assert h_moved >= oracle.min_h - oracle.error_bar


# the lasso instances of both seeded benchmark workloads, seeds 0-19, and the suite's two
def _scanned_lassos(work: Path) -> list:
    specs = [{"name": "lasso", "dim": 10, "seed": 1}, {"name": "lasso", "dim": 50, "seed": 2}]
    for name in ("distinct-problems", "shared-schedules"):
        for seed in range(20):
            for run in workloads.build_workload(name, seed, ROOT, work).runs:
                if run["problem"] not in specs:
                    specs.append(run["problem"])
    return specs


def test_every_benchmark_lasso_certifies_within_the_default_budget(tmp_path):
    specs = _scanned_lassos(tmp_path)
    assert len(specs) == 82
    for spec in specs:
        oracle = reference_min(build_problem(spec))
        assert oracle.iterations <= 50_000
        assert oracle.error_bar <= 1e-12 * max(1.0, abs(oracle.min_h)), spec
        if spec == {"name": "lasso", "dim": 10, "seed": 1}:
            # rate_o_n on the suite's lasso10-fista-const2 passes with a worst
            # residual of -3.15e-8 at n = 1e5 against a slack of n * error_bar
            assert oracle.error_bar < 3.15e-13
