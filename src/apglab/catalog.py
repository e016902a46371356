"""Built-in smooth terms, proximal terms, and named problem instances.

Problems are addressable from run-configuration files by name:
``quadratic``, ``lasso``, ``affine-descent``, ``unattained``. Nonsmooth
terms usable in the ``g`` field of a problem spec: ``zero``, ``l1``,
``box``. A quadratic smooth term settles its matrix's convexity, beta and
rho when it is built (:func:`_quadratic_form`).

Randomized instances (the lasso designs) take an explicit seed so that
every run is reproducible byte for byte. Every term also takes a (k, d)
stack of points, row i bit for bit the call on row i (the stack contract
in :class:`~apglab.problem.CompositeProblem`).
"""

import math
from typing import Optional

import numpy as np

from .errors import ParameterError, only_keys
from .problem import UNIT_ROUNDOFF, CompositeProblem, NonsmoothTerm, QuadraticForm, SmoothTerm, matvec, rowdot

PROBLEM_NAMES = ("quadratic", "lasso", "affine-descent", "unattained")
NONSMOOTH_NAMES = ("zero", "l1", "box")

# Default design knobs for the lasso family. The column-scale spread sets
# the curvature range of the design; 1e2 puts the plain-iteration fixed
# point of the d = 10 reference instance in the low thousands, late enough
# that sublinear-rate diagnostics see several live decades and early
# enough that reference solves finish at machine precision.
LASSO_ROW_FACTOR = 2
LASSO_LAM_SCALE = 0.1
LASSO_CONDITION = 1e2

def _quadratic_form(q: np.ndarray, c: np.ndarray, constant: float, name: str,
                    rho: Optional[float] = None) -> SmoothTerm:
    """The smooth term x^T q x / 2 - c^T x + constant, with every spectral fact of q settled here.

    One eigendecomposition of a read-only copy of q, its eigenvalues alone
    when rho is given, and one d-ulp rounding bound of those eigenvalues.
    q must have positive curvature; beta, which fixes gamma = 1/beta, is its
    largest eigenvalue raised by that bound. Without a given rho, q must be
    positive semidefinite up to the bound, and rho = c^T q^+ c is summed
    with each eigenvalue lowered by it. So beta and rho both err high (rho
    is +inf for a singular q); beta must stay finite. Raises ParameterError
    otherwise.
    """
    q = q.copy()
    q.flags.writeable = False
    c = c.copy()
    c.flags.writeable = False
    if rho is None:
        eig, vecs = np.linalg.eigh(q)
    else:  # eigenvectors from d = 30 on wake BLAS threads that spin about 0.13 s of CPU
        eig = np.linalg.eigvalsh(q)
    tol = q.shape[0] * UNIT_ROUNDOFF * float(np.max(np.abs(eig)))
    if rho is None:
        if eig[0] < -tol:
            raise ParameterError(f"{name}: the matrix has the eigenvalue {eig[0]:.6g} < 0, so f is not convex")
        rho = math.inf if eig[0] <= tol else float(np.sum((vecs.T @ c) ** 2 / (eig - tol)))
    if eig[-1] <= 0.0:
        raise ParameterError(f"{name}: the matrix has no positive curvature, beta would be 0")
    beta = float(eig[-1]) + tol
    if beta == math.inf:
        raise ParameterError(f"{name}: the largest eigenvalue with its rounding bound overflows, beta would be inf")

    def value(x):
        if x.ndim == 1:
            return 0.5 * float(x @ (q @ x)) - float(c @ x) + constant
        return 0.5 * rowdot(x, matvec(q, x)) - rowdot(c, x) + constant

    def gradient(x):
        if x.ndim == 1:
            return q @ x - c
        return matvec(q, x) - c

    return SmoothTerm(value=value, gradient=gradient, beta=beta, name=name,
                      quadratic=QuadraticForm(q, c, constant, rho))


def make_quadratic(a, b) -> SmoothTerm:
    """f(x) = <Ax, x>/2 - <b, x> for symmetric positive semidefinite A.

    beta is the largest eigenvalue of A, raised by the rounding bound of the
    eigenvalues (:func:`_quadratic_form`).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ParameterError(f"quadratic: A must be square and nonempty, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ParameterError(f"quadratic: b shape {b.shape} does not match A {a.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("quadratic: A and b must be finite")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ParameterError("quadratic: A is not symmetric")
    return _quadratic_form(a, b, 0.0, "quadratic")


def make_least_squares(design, targets) -> SmoothTerm:
    """f(x) = ||Ax - y||^2 / 2, precomputed through its normal matrix.

    c^T Q^+ c = ||P y||^2 for P the projection onto the range of A, so
    ||y||^2 bounds it: the quadratic form's rho.
    """
    a = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    if a.ndim != 2 or y.shape != (a.shape[0],):
        raise ParameterError(f"least squares: incompatible shapes {a.shape} and {y.shape}")
    constant = 0.5 * float(y @ y)
    return _quadratic_form(a.T @ a, a.T @ y, constant, "least-squares", rho=2.0 * constant)


def make_affine_descent() -> SmoothTerm:
    """f(x) = -x in one dimension: steepest descent never stops.

    The gradient is constant, so any positive beta is a valid Lipschitz
    declaration; 1.0 keeps the default step size at gamma = 1.
    """

    def value(x):
        if x.ndim > 1:
            return np.array([value(row) for row in x])
        return -float(x[0])

    def gradient(x):
        return np.array([-1.0])

    return SmoothTerm(value=value, gradient=gradient, beta=1.0, name="affine-descent")


def make_unattained_infimum() -> SmoothTerm:
    """f(x) = sqrt(1 + x^2) - x: infimum 0 at x -> +inf, never attained.

    Values are computed through the cancellation-free form
    1 / (sqrt(1 + x^2) + x) for x >= 0, and the gradient through
    -f(x) / sqrt(1 + x^2), so the term stays accurate far out on the
    minimizing ray. The curvature (1 + x^2)^(-3/2) is at most 1, hence
    beta = 1.
    """

    def _value_scalar(t: float) -> float:
        r = math.hypot(1.0, t)
        if t >= 0.0:
            return 1.0 / (r + t)
        return r - t

    def value(x):
        if x.ndim > 1:
            return np.array([value(row) for row in x])
        return _value_scalar(float(x[0]))

    def gradient(x):
        if x.ndim > 1:
            return np.array([gradient(row) for row in x])
        t = float(x[0])
        return np.array([-_value_scalar(t) / math.hypot(1.0, t)])

    return SmoothTerm(value=value, gradient=gradient, beta=1.0, name="unattained")


def make_zero() -> NonsmoothTerm:
    """g = 0; the proximal map is the identity. Its params are those of the l1 term of weight 0."""
    return NonsmoothTerm(value=lambda x: 0.0, prox=lambda v, gamma: v.copy(), name="zero",
                         params={"weight": 0.0})


def make_l1(weight: float) -> NonsmoothTerm:
    """g(x) = weight * ||x||_1 with the exact soft-threshold prox."""
    if not (math.isfinite(weight) and weight >= 0.0):
        raise ParameterError(f"l1: weight must be finite and >= 0, got {weight}")

    def value(x):
        # the reduction np.sum performs, without its wrapper
        if x.ndim == 1:
            return weight * float(np.add.reduce(np.abs(x)))
        return weight * np.add.reduce(np.abs(x), axis=-1)

    def prox(v, gamma):
        thr = gamma * weight
        return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)

    return NonsmoothTerm(value=value, prox=prox, name="l1", params={"weight": weight})


def make_indicator_box(lower, upper) -> NonsmoothTerm:
    """Indicator of the box [lower, upper]; the prox is the exact clamp.

    Bounds may be scalars or vectors and are compared exactly: the clamp
    lands on the boundary bit for bit, so no tolerance is needed.
    """
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if np.any(lo > hi):
        raise ParameterError("box: lower bound exceeds upper bound")
    if np.any(lo == math.inf) or np.any(hi == -math.inf):
        raise ParameterError("box: a lower bound of +inf or an upper bound of -inf leaves the box empty")
    lo.flags.writeable = False
    hi.flags.writeable = False

    def value(x):
        if x.ndim == 1:
            if (x >= lo).all() and (x <= hi).all():
                return 0.0
            return math.inf
        return np.where((x >= lo).all(axis=-1) & (x <= hi).all(axis=-1), 0.0, math.inf)

    def prox(v, gamma):
        return np.clip(v, lo, hi)

    return NonsmoothTerm(value=value, prox=prox, name="box", params={"lo": lo, "hi": hi})


_SHAPES = {(0,): "a number", (1,): "a list of numbers", (2,): "a list of rows", (0, 1): "a number or a list"}


def _number(spec: dict, key: str, default=None, *, integer: bool = False, ndims=(0,)):
    """spec[key] (default when absent) as a float, an int when integer, or a float array.

    Every number of a problem spec passes through here. Strings, null,
    bools, ragged lists, NaN, a number of dimensions not in ndims and, with
    integer, a fractional or infinite value raise ParameterError.
    """
    value = spec.get(key, default)
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    ok = arr.dtype.kind in "iuf" and arr.ndim in ndims and not np.isnan(arr).any()
    if not ok or integer and not (np.isfinite(arr) and arr == np.trunc(arr)):
        what = "an integer" if integer else _SHAPES[ndims]
        raise ParameterError(f"{spec.get('name', spec.get('kind'))}: {key} must be {what}, got {value!r}")
    if integer:
        return int(arr)
    return float(arr) if arr.ndim == 0 else arr.astype(float)


def build_nonsmooth(spec: Optional[dict], dim: int) -> NonsmoothTerm:
    """Resolve the ``g`` field of a problem spec in dimension dim."""
    if spec is None:
        return make_zero()
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParameterError(f"nonsmooth spec must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind == "zero":
        only_keys(spec, ("kind",))
        return make_zero()
    if kind == "l1":
        only_keys(spec, ("kind", "weight"))
        return make_l1(_number(spec, "weight", 1.0))
    if kind == "box":
        only_keys(spec, ("kind", "lo", "hi"))
        if "lo" not in spec or "hi" not in spec:
            raise ParameterError("box spec needs 'lo' and 'hi'")
        lo, hi = _number(spec, "lo", ndims=(0, 1)), _number(spec, "hi", ndims=(0, 1))
        if not {np.size(lo), np.size(hi)} <= {1, dim}:
            raise ParameterError(f"box: lo and hi need 1 or dim = {dim} values each, "
                                 f"got {np.size(lo)} and {np.size(hi)}")
        return make_indicator_box(lo, hi)
    raise ParameterError(f"unknown nonsmooth kind {kind!r}, expected one of {NONSMOOTH_NAMES}")


def _resolve_gamma(spec: dict, beta: float) -> float:
    if spec.get("gamma") is None:
        return 1.0 / beta
    return _number(spec, "gamma")


def _separable_argmin(diag: np.ndarray, b: np.ndarray, g: NonsmoothTerm) -> np.ndarray:
    """Minimizer of sum_i (diag_i x_i^2 / 2 - b_i x_i) + g(x) for diag >= 0 and g l1 or box.

    Coordinate by coordinate: soft(b, weight) / diag for l1, clip(b / diag,
    lo, hi) for a box. Where diag_i = 0 the term is linear: the coordinate
    goes to the bound its slope points at (b_i > 0: hi, b_i < 0: lo) or, for
    l1, stays at 0 when |b_i| <= weight; with a zero slope it takes the
    point of the box nearest 0. An infinite entry means h is unbounded
    below along that coordinate.
    """
    def ratio(num):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(diag > 0.0, num / diag, np.where(num == 0.0, 0.0, np.copysign(math.inf, num)))

    # both proxes at step 1: the soft threshold at weight, and the clamp
    return ratio(g.prox(b, 1.0)) if g.name == "l1" else g.prox(ratio(b), 1.0)


def _quadratic_problem(spec: dict) -> CompositeProblem:
    # the matrix, else its diagonal, else dim (default 1) sets the dimension
    shape_key = next((key for key in ("matrix", "diag") if key in spec), "dim")
    only_keys(spec, ("name", "b", "g", "gamma", shape_key))
    if shape_key == "matrix":
        a = _number(spec, "matrix", ndims=(2,))
    elif shape_key == "diag":
        a = np.diag(_number(spec, "diag", ndims=(1,)))
    else:
        dim = _number(spec, "dim", 1, integer=True)
        if dim < 1:
            raise ParameterError(f"quadratic: dim must be >= 1, got {dim}")
        a = np.eye(dim)
    dim = a.shape[0]
    b = _number(spec, "b", np.zeros(dim), ndims=(1,))
    smooth = make_quadratic(a, b)
    g = build_nonsmooth(spec.get("g"), dim)
    gamma = _resolve_gamma(spec, smooth.beta)

    known_min = None
    witness = None
    nonempty = None
    inf_h = None
    if shape_key == "diag" and g.name in ("l1", "box"):
        witness = _separable_argmin(np.diag(a), b, g)
        nonempty = bool(np.all(np.isfinite(witness)))
        if nonempty:
            known_min = float(smooth.value(witness)) + float(g.value(witness))
        else:
            witness = None
            inf_h = -math.inf
    elif g.name == "zero":
        sol, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
        feasible = float(np.max(np.abs(a @ sol - b))) <= 1e-9 * max(1.0, float(np.max(np.abs(b))))
        if feasible:
            witness = sol
            known_min = smooth.value(sol)
            nonempty = True
        else:
            nonempty = False
            inf_h = -math.inf
    elif g.name == "box":
        nonempty = True
    return CompositeProblem(
        smooth=smooth,
        nonsmooth=g,
        gamma=gamma,
        dim=dim,
        name="quadratic",
        known_min=known_min,
        known_argmin=witness,
        argmin_nonempty=nonempty,
        inf_h=inf_h,
    )


def _lasso_problem(spec: dict) -> CompositeProblem:
    only_keys(spec, ("name", "dim", "seed", "rows", "lam_scale", "condition", "gamma"))
    if "dim" not in spec:
        raise ParameterError("lasso spec needs 'dim'")
    if "seed" not in spec:
        raise ParameterError("lasso spec needs 'seed' (randomized design)")
    dim = _number(spec, "dim", integer=True)
    seed = _number(spec, "seed", integer=True)
    if dim < 1 or seed < 0:
        raise ParameterError(f"lasso: dim >= 1 and seed >= 0 required, got dim={dim}, seed={seed}")
    rows = _number(spec, "rows", LASSO_ROW_FACTOR * dim, integer=True)
    lam_scale = _number(spec, "lam_scale", LASSO_LAM_SCALE)
    condition = _number(spec, "condition", LASSO_CONDITION)
    if rows < 1 or not 0.0 < lam_scale < math.inf or not 1.0 <= condition < math.inf:
        raise ParameterError("lasso: rows >= 1, finite lam_scale > 0 and finite condition >= 1 required")

    rng = np.random.default_rng(seed)
    design = rng.normal(size=(rows, dim))
    if condition > 1.0:
        design = design * np.logspace(0.0, -math.log10(condition), dim)
    targets = rng.normal(size=rows)
    lam = lam_scale * float(np.max(np.abs(design.T @ targets)))
    smooth = make_least_squares(design, targets)
    g = make_l1(lam)
    gamma = _resolve_gamma(spec, smooth.beta)
    return CompositeProblem(
        smooth=smooth,
        nonsmooth=g,
        gamma=gamma,
        dim=dim,
        name=f"lasso-d{dim}-s{seed}",
        argmin_nonempty=True,
    )


# the 1-d problems without a minimizer: their smooth term and inf h
ONE_D_PROBLEMS = {
    "affine-descent": (make_affine_descent, -math.inf),
    "unattained": (make_unattained_infimum, 0.0),
}


def build_problem(spec: dict) -> CompositeProblem:
    """Build a catalog problem from its config-file spec."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ParameterError(f"problem spec must be a dict with a 'name', got {spec!r}")
    name = spec["name"]
    if name == "quadratic":
        return _quadratic_problem(spec)
    if name == "lasso":
        return _lasso_problem(spec)
    if name in ONE_D_PROBLEMS:
        only_keys(spec, ("name", "g", "gamma"))
        make_smooth, inf_h = ONE_D_PROBLEMS[name]
        smooth = make_smooth()
        return CompositeProblem(
            smooth=smooth,
            nonsmooth=build_nonsmooth(spec.get("g"), 1),
            gamma=_resolve_gamma(spec, smooth.beta),
            dim=1,
            name=name,
            argmin_nonempty=False,
            inf_h=inf_h,
        )
    raise ParameterError(f"unknown problem {name!r}, expected one of {PROBLEM_NAMES}")
