import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apglab import ParameterError, build_problem
from apglab.catalog import (
    make_indicator_box,
    make_l1,
    make_least_squares,
    make_quadratic,
    make_unattained_infimum,
    power_iteration,
)
from helpers import beta_oracle, fixed_point_residual, prox_oracle_1d


def test_power_iteration_matches_dense_eigensolver():
    rng = np.random.default_rng(11)
    for dim in (2, 5, 17):
        a = rng.normal(size=(dim, dim))
        sym = 0.5 * (a + a.T)
        assert power_iteration(sym) == pytest.approx(beta_oracle(sym), rel=1e-9)


def test_quadratic_rejects_asymmetric_matrix():
    with pytest.raises(ParameterError):
        make_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


def test_least_squares_curvature_is_gram_spectral_norm():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 5))
    term = make_least_squares(a, rng.normal(size=12))
    assert term.beta == pytest.approx(beta_oracle(a.T @ a), rel=1e-9)


@given(
    y=st.floats(-8.0, 8.0),
    gamma=st.floats(0.05, 3.0),
    weight=st.floats(0.0, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_l1_prox_agrees_with_numeric_oracle(y, gamma, weight):
    g = make_l1(weight)
    got = float(g.prox(np.array([y]), gamma)[0])
    want = prox_oracle_1d(lambda u: weight * abs(u), y, gamma, span=12.0)
    assert got == pytest.approx(want, abs=5e-7)


@given(y=st.floats(-6.0, 6.0), gamma=st.floats(0.05, 3.0))
@settings(max_examples=40, deadline=None)
def test_box_prox_agrees_with_numeric_oracle(y, gamma):
    g = make_indicator_box(-1.0, 2.0)
    got = float(g.prox(np.array([y]), gamma)[0])
    want = prox_oracle_1d(lambda u: 0.0 if -1.0 <= u <= 2.0 else math.inf, y, gamma, span=10.0)
    assert got == pytest.approx(want, abs=5e-7)
    assert got == pytest.approx(min(2.0, max(-1.0, y)), abs=1e-15)


def test_box_rejects_crossed_bounds():
    with pytest.raises(ParameterError):
        make_indicator_box(1.0, -1.0)


def test_l1_rejects_negative_weight():
    with pytest.raises(ParameterError):
        make_l1(-0.1)


def test_lasso_is_seed_deterministic():
    spec = {"name": "lasso", "dim": 10, "seed": 1}
    p1 = build_problem(spec)
    p2 = build_problem(spec)
    x = np.linspace(-1.0, 1.0, 10)
    assert p1.smooth.value(x) == p2.smooth.value(x)
    assert p1.smooth.beta == p2.smooth.beta
    p3 = build_problem({"name": "lasso", "dim": 10, "seed": 2})
    assert p1.smooth.value(x) != p3.smooth.value(x)


def test_lasso_zero_is_not_optimal():
    p = build_problem({"name": "lasso", "dim": 10, "seed": 1})
    assert fixed_point_residual(p, np.zeros(10)) > 1e-6


@pytest.mark.parametrize("spec, key", [
    ({"name": "quadratic", "matrix": [[1.0]], "diag": [1.0]}, "diag"),
    ({"name": "quadratic", "matrix": [[1.0]], "dim": 1}, "dim"),
    ({"name": "quadratic", "dim": 2, "c": [1.0, 1.0]}, "c"),
    ({"name": "lasso", "dim": 3, "seed": 1, "g": {"kind": "zero"}}, "g"),
    ({"name": "affine-descent", "seed": 1}, "seed"),
    ({"name": "quadratic", "g": {"kind": "zero", "weight": 1.0}}, "weight"),
    ({"name": "quadratic", "g": {"kind": "box", "lo": 0.0, "hi": 1.0, "mid": 0.5}}, "mid"),
])
def test_builders_reject_keys_they_do_not_read(spec, key):
    with pytest.raises(ParameterError, match=f"unknown key '{key}'"):
        build_problem(spec)


def test_lasso_requires_seed_and_dim():
    with pytest.raises(ParameterError):
        build_problem({"name": "lasso", "dim": 10})
    with pytest.raises(ParameterError):
        build_problem({"name": "lasso", "seed": 1})


def test_quadratic_known_min_closed_form():
    p = build_problem({"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]})
    assert p.known_min == pytest.approx(-0.625, abs=1e-14)
    assert p.known_argmin == pytest.approx([1.0, 0.25], abs=1e-12)
    assert p.argmin_nonempty is True


def test_unattained_term_is_positive_and_stable_far_out():
    term = make_unattained_infimum()
    assert term.value(np.array([0.0])) == pytest.approx(1.0)
    far = term.value(np.array([1e8]))
    assert 0.0 < far < 1e-7
    # naive sqrt(1+x^2) - x at 1e8 rounds to 0; the stable form must not
    naive = math.sqrt(1.0 + 1e16) - 1e8
    assert naive == 0.0
    assert far == pytest.approx(0.5e-8, rel=1e-6)


def test_unattained_gradient_matches_finite_differences():
    term = make_unattained_infimum()
    for x in (-3.0, -0.5, 0.0, 0.7, 12.0):
        eps = 1e-6
        fd = (term.value(np.array([x + eps])) - term.value(np.array([x - eps]))) / (2.0 * eps)
        assert float(term.gradient(np.array([x]))[0]) == pytest.approx(fd, abs=1e-8)


def test_unattained_gradient_is_nonexpansive():
    term = make_unattained_infimum()
    rng = np.random.default_rng(5)
    pts = rng.normal(size=30) * 10.0
    for a in pts[:15]:
        for b in pts[15:]:
            ga = float(term.gradient(np.array([a]))[0])
            gb = float(term.gradient(np.array([b]))[0])
            assert abs(ga - gb) <= abs(a - b) * (1.0 + 1e-12)


def test_affine_descent_problem_metadata():
    p = build_problem({"name": "affine-descent"})
    assert p.argmin_nonempty is False
    assert p.inf_h == -math.inf
    assert p.smooth.value(np.array([2.0])) == -2.0
    assert float(p.smooth.gradient(np.array([2.0]))[0]) == -1.0


def test_build_problem_rejects_unknown_name_and_bad_gamma():
    with pytest.raises(ParameterError):
        build_problem({"name": "nope"})
    with pytest.raises(ParameterError):
        build_problem({"name": "quadratic", "diag": [4.0], "gamma": 1.0})
