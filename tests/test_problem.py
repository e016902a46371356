import math

import numpy as np
import pytest

from apglab import (
    CompositeProblem,
    OutsideDomain,
    ParameterError,
    build_problem,
    evaluate_h,
    forward_backward_step,
    key_inequality_residual,
)
from apglab.catalog import make_affine_descent, make_indicator_box, make_l1, make_zero
from apglab.problem import NonsmoothTerm, SmoothTerm, as_point, rowdot, vector_norm
from helpers import fixed_point_residual


def quad1d(beta=1.0):
    return SmoothTerm(
        value=lambda x: 0.5 * beta * float(x @ x),
        gradient=lambda x: beta * x,
        beta=beta,
        name="half-square",
    )


def test_gamma_must_respect_curvature():
    with pytest.raises(ParameterError):
        CompositeProblem(smooth=quad1d(2.0), nonsmooth=make_zero(), gamma=1.0, dim=1)
    # the endpoint gamma = 1/beta is allowed
    CompositeProblem(smooth=quad1d(2.0), nonsmooth=make_zero(), gamma=0.5, dim=1)


def test_gamma_positive_and_dim_checked():
    with pytest.raises(ParameterError):
        CompositeProblem(smooth=quad1d(), nonsmooth=make_zero(), gamma=0.0, dim=1)
    with pytest.raises(ParameterError):
        CompositeProblem(smooth=quad1d(), nonsmooth=make_zero(), gamma=1.0, dim=0)


def test_as_point_shapes():
    assert as_point(3.0, 1).shape == (1,)
    with pytest.raises(ParameterError):
        as_point([1.0, 2.0], 3)
    with pytest.raises(ParameterError):
        as_point(np.zeros((1, 3)), 3)


def test_as_point_passes_float_vectors_through_and_converts_the_rest():
    v = np.zeros(3)
    assert as_point(v, 3) is v
    for other in (np.arange(3), [0.0, 1.0, 2.0], np.zeros(3, dtype=">f8"), np.zeros(3, dtype=np.float32)):
        got = as_point(other, 3)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (3,)
        assert got.dtype.isnative


def test_forward_backward_step_checks_the_prox_output():
    def bad_prox(v, gamma):
        return np.zeros(3)

    p = CompositeProblem(smooth=quad1d(), nonsmooth=NonsmoothTerm(value=lambda x: 0.0, prox=bad_prox, name="bad"),
                         gamma=1.0, dim=1)
    with pytest.raises(ParameterError, match="prox of 'bad'"):
        forward_backward_step(p, np.array([1.0]))
    listy = CompositeProblem(smooth=quad1d(), gamma=1.0, dim=1,
                             nonsmooth=NonsmoothTerm(value=lambda x: 0.0, prox=lambda v, gamma: [0.5]))
    out = forward_backward_step(listy, np.array([1.0]))
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.tolist() == [0.5]


def test_evaluate_h_outside_box_domain_is_inf():
    p = CompositeProblem(smooth=quad1d(), nonsmooth=make_indicator_box(0.0, 1.0), gamma=1.0, dim=1)
    assert evaluate_h(p, np.array([2.0])) == math.inf
    assert evaluate_h(p, np.array([0.5])) == pytest.approx(0.125)


def test_forward_backward_step_gradient_only():
    # g = 0: T(y) = y - gamma * grad f(y) = (1 - gamma) y for the half-square
    p = CompositeProblem(smooth=quad1d(), nonsmooth=make_zero(), gamma=0.5, dim=1)
    y = np.array([2.0])
    assert forward_backward_step(p, y) == pytest.approx([1.0])


def test_forward_backward_step_soft_threshold():
    # f = 0-curvature is not allowed, so use tiny beta and gamma=1:
    # prox of weight-1 l1 at 2.0 is 1.0, at -0.5 is 0.0
    smooth = SmoothTerm(value=lambda x: 0.0, gradient=lambda x: np.zeros_like(x), beta=1.0)
    p = CompositeProblem(smooth=smooth, nonsmooth=make_l1(1.0), gamma=1.0, dim=1)
    assert forward_backward_step(p, np.array([2.0])) == pytest.approx([1.0])
    assert forward_backward_step(p, np.array([-0.5])) == pytest.approx([0.0])


def test_key_inequality_residual_affine_case():
    # On the pure affine-descent problem with x = y = 0 the two h values
    # coincide at T(y) shifted by gamma, and the residual is exactly 1/2.
    p = build_problem({"name": "affine-descent"})
    r = key_inequality_residual(p, np.array([0.0]), np.array([0.0]))
    assert r == pytest.approx(0.5, abs=1e-15)


def test_key_inequality_residual_nonnegative_on_random_pairs():
    rng = np.random.default_rng(7)
    p = build_problem({"name": "quadratic", "diag": [1.0, 3.0], "b": [1.0, -2.0],
                       "g": {"kind": "l1", "weight": 0.3}})
    worst = math.inf
    for _ in range(200):
        x = rng.normal(size=2) * 3.0
        y = rng.normal(size=2) * 3.0
        worst = min(worst, key_inequality_residual(p, x, y))
    assert worst >= -1e-10


def test_key_inequality_residual_matches_inline_formula_bitwise():
    # the written-out formula, independent of the shared helper
    rng = np.random.default_rng(11)
    p = build_problem({"name": "lasso", "dim": 7, "seed": 3})
    for _ in range(50):
        x = rng.normal(size=7)
        y = rng.normal(size=7)
        ty = forward_backward_step(p, y)
        d = y - ty
        lhs = (float(d @ (x - y)) + 0.5 * float(d @ d)) / p.gamma
        want = (evaluate_h(p, x) - evaluate_h(p, ty)) - lhs
        assert np.float64(key_inequality_residual(p, x, y)).tobytes() == np.float64(want).tobytes()


def _awkward_vectors():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 8, 9, 17, 50, 129, 1000):
        yield rng.normal(size=size)
        yield rng.normal(size=size) * 1e150
        yield rng.normal(size=size) * 1e-170
    yield np.array([-0.0, 0.0])
    yield np.array([5e-324, -5e-324, 1e-310])
    yield np.array([1e200, 1.0])
    yield np.array([np.inf, 1.0])
    yield np.array([np.nan, 1.0])


def test_vector_norm_is_numpy_norm_bitwise():
    for v in _awkward_vectors():
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.linalg.norm(v))
            got = vector_norm(v)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), v


def _stacks(d, m):
    """Pairs of (m, d) stacks: random rows of mixed scale, then special values."""
    rng = np.random.default_rng(d * 1000 + m)
    scale = 10.0 ** rng.uniform(-150, 150, size=(m, 1))
    yield rng.normal(size=(m, d)) * scale, rng.normal(size=(m, d))
    specials = np.array([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, 1e-310, 3e200])
    yield rng.choice(specials, size=(m, d)), rng.choice(specials, size=(m, d))
    yield np.full((m, d), -0.0), np.full((m, d), 0.0)


@pytest.mark.parametrize("d", [1, 2, 10, 50])
@pytest.mark.parametrize("m", [1, 2, 7, 256])
def test_rowdot_rows_are_one_dimensional_dots_bitwise(d, m):
    # each row is the 1-D dot of its own vectors, whatever is stacked with it
    for a, b in _stacks(d, m):
        layouts = {
            "C": (a, b),
            # rows whose entries are not adjacent, and a column-major stack
            "strided": (np.repeat(a, 2, axis=1)[:, ::2], np.repeat(b, 2, axis=1)[:, ::2]),
            "F": (np.asfortranarray(a), np.asfortranarray(b)),
        }
        for layout, (sa, sb) in layouts.items():
            with np.errstate(over="ignore", invalid="ignore"):
                got = rowdot(sa, sb)
                want = np.array([sa[i] @ sb[i] for i in range(m)])
                one = [rowdot(sa[i], sb[i]) for i in range(m)]
            assert got.shape == (m,)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=layout)
            assert np.array(one).tobytes() == want.tobytes(), layout


def test_vector_norm_of_a_stack_is_the_norm_of_each_row_bitwise():
    vectors = [v for v in _awkward_vectors() if v.size == 2]
    stack = np.array(vectors)
    with np.errstate(over="ignore", invalid="ignore"):
        got = vector_norm(stack)
        want = np.array([np.linalg.norm(v) for v in vectors])
    assert got.tobytes() == want.tobytes()


def test_l1_value_is_the_weighted_numpy_sum_bitwise():
    g = make_l1(0.3)
    for v in _awkward_vectors():
        want = 0.3 * float(np.sum(np.abs(v)))
        assert np.float64(g.value(v)).tobytes() == np.float64(want).tobytes(), v


def test_key_inequality_outside_domain_raises():
    p = CompositeProblem(smooth=quad1d(), nonsmooth=make_indicator_box(0.0, 1.0), gamma=1.0, dim=1)
    with pytest.raises(OutsideDomain):
        key_inequality_residual(p, np.array([5.0]), np.array([0.5]))


def test_fixed_point_residual_zero_at_minimizer():
    p = build_problem({"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]})
    assert p.known_argmin is not None
    assert fixed_point_residual(p, p.known_argmin) <= 1e-12
    assert fixed_point_residual(p, p.known_argmin + 0.5) > 1e-3


def test_affine_descent_has_no_fixed_points():
    p = make_affine_descent()
    prob = CompositeProblem(smooth=p, nonsmooth=make_zero(), gamma=1.0, dim=1)
    # T(x) = x + gamma everywhere: residual is gamma at every point
    for x in (-10.0, 0.0, 7.5):
        assert fixed_point_residual(prob, np.array([x])) == pytest.approx(1.0)


def test_known_argmin_is_frozen():
    p = build_problem({"name": "quadratic", "diag": [2.0], "b": [4.0]})
    with pytest.raises(ValueError):
        p.known_argmin[0] = 0.0


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
def test_smooth_term_beta_must_be_finite_and_positive(beta):
    with pytest.raises(ParameterError, match="beta must be finite and positive"):
        quad1d(beta)


def test_witness_of_the_wrong_shape_is_refused():
    with pytest.raises(ParameterError, match=r"witness shape \(2,\) does not match dim 1"):
        CompositeProblem(smooth=quad1d(), nonsmooth=make_zero(), gamma=1.0, dim=1, known_argmin=[0.0, 0.0])


def test_a_list_point_is_taken_as_the_array_and_a_wrong_length_is_refused():
    p = build_problem({"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0], "g": {"kind": "l1", "weight": 0.5}})
    x = [0.5, -0.25]
    assert evaluate_h(p, x) == evaluate_h(p, np.array(x))
    assert forward_backward_step(p, x).tobytes() == forward_backward_step(p, np.array(x)).tobytes()
    for call in (evaluate_h, forward_backward_step):
        with pytest.raises(ParameterError, match=r"expected shape \(2,\), got \(3,\)"):
            call(p, [0.0, 0.0, 0.0])
