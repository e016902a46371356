"""Composite objectives h = f + g and the forward-backward step.

A problem bundles a smooth convex term f (finite everywhere, with a
Lipschitz gradient) and a nonsmooth convex term g reached only through its
proximal map. The step size gamma must lie in (0, 1/beta], where beta is
the declared gradient-Lipschitz constant of f; the right endpoint is
allowed.

g may evaluate to +inf outside its domain. That value is represented by
the IEEE infinity and treated as an explicit extended real: it is returned
and compared, never fed into subtractions or products. Code that needs a
finite h checks first and raises :class:`~apglab.errors.OutsideDomain`.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import OutsideDomain, ParameterError

# Tolerance for exact operator identities (fixed-point residuals and the
# one-sided inequality ledgers). Violations beyond this are treated as real.
NUMERIC_TOL = 1e-10

# Relative slack so that gamma = 1/beta survives the float division.
_GAMMA_SLACK = 1e-12

Vector = np.ndarray

_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class SmoothTerm:
    """Differentiable convex term with a declared gradient-Lipschitz constant."""

    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    beta: float
    name: str = "smooth"

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ParameterError(
                f"smooth term {self.name!r}: beta must be finite and positive, got {self.beta}"
            )


@dataclass(frozen=True)
class NonsmoothTerm:
    """Convex lower-semicontinuous term reached through its proximal map.

    ``value`` may return +inf outside the domain. ``prox`` receives the
    point and the step size and must return the exact minimizer of
    g(u) + ||u - v||^2 / (2 gamma); built-in terms satisfy this in closed
    form.
    """

    value: Callable[[Vector], float]
    prox: Callable[[Vector, float], Vector]
    name: str = "nonsmooth"


@dataclass(frozen=True)
class CompositeProblem:
    """Minimization target h = f + g with a fixed forward-backward step size.

    Optional metadata records what is provably known about the instance:
    ``known_min`` and ``known_argmin`` when a minimizer is available in
    closed form, ``argmin_nonempty`` as a three-valued flag (True, False,
    or None for unknown), and ``inf_h`` for problems whose infimum is known
    but not attained (it may be ``-math.inf``).

    Instances are frozen and safe to share across worker processes. The
    term callables must be deterministic (equal input bits give equal
    output bits): once a run is absorbed at an exact fixed point, the
    solvers stop calling T and h and reuse the values they repeat. The
    prox must return a fresh array, or one it never writes to again: the
    solvers keep references to the iterates of recorded rows until their
    diagnostic columns are computed, and to the last two as end points.

    Stacks. Every term callable takes a float vector of length ``dim`` or
    a C-contiguous (k, dim) stack of them: ``value`` then returns one
    value per row (an array of k, or one float that holds for every row),
    and ``gradient`` and ``prox`` an array of the stack's shape (a
    gradient may also return one row that holds for every row). Row i of
    a stacked call must be bit for bit the call on row i alone, so that a
    run's trace does not depend on the runs it is advanced with
    (:func:`apglab.solvers.run_batch`). The built-in terms keep this by
    being elementwise, by reducing along the last axis, by making each
    matrix-vector product one BLAS call per row (:func:`matvec`,
    :func:`rowdot`), or by looping over the rows; a vector takes the
    terms' 1-D code.
    """

    smooth: SmoothTerm
    nonsmooth: NonsmoothTerm
    gamma: float
    dim: int
    name: str = "problem"
    known_min: Optional[float] = None
    known_argmin: Optional[Vector] = field(default=None, repr=False)
    argmin_nonempty: Optional[bool] = None
    inf_h: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"problem {self.name!r}: dim must be >= 1, got {self.dim}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ParameterError(
                f"problem {self.name!r}: gamma must be finite and positive, got {self.gamma}"
            )
        if self.gamma * self.smooth.beta > 1.0 + _GAMMA_SLACK:
            raise ParameterError(
                f"problem {self.name!r}: gamma = {self.gamma} exceeds 1/beta = "
                f"{1.0 / self.smooth.beta}"
            )
        if self.known_argmin is not None:
            w = np.asarray(self.known_argmin, dtype=float)
            if w.shape != (self.dim,):
                raise ParameterError(
                    f"problem {self.name!r}: witness shape {w.shape} does not match dim {self.dim}"
                )
            w = w.copy()
            w.flags.writeable = False
            object.__setattr__(self, "known_argmin", w)


def _is_point(x, dim: int) -> bool:
    return type(x) is np.ndarray and x.dtype is _FLOAT64 and x.shape == (dim,)


def _is_stack(x, dim: int) -> bool:
    return type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 2 and x.shape[1] == dim


def as_point(x, dim: int, what: str = "point") -> Vector:
    """Coerce ``x`` to a float vector of length ``dim`` or raise.

    A float64 ndarray of that shape is returned as it is.
    """
    if _is_point(x, dim):
        return x
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape != (dim,):
        raise ParameterError(f"{what}: expected shape ({dim},), got {v.shape}")
    return v


def evaluate_h(problem: CompositeProblem, x: Vector):
    """Evaluate h(x) = f(x) + g(x), returning +inf when x is outside dom g.

    On a (k, dim) stack: the k values as an array, row i bit for bit
    h(x[i]) (the stack contract in :class:`CompositeProblem`).
    """
    if not _is_point(x, problem.dim):
        if _is_stack(x, problem.dim):
            gval = problem.nonsmooth.value(x)
            return np.where(gval == math.inf, math.inf, problem.smooth.value(x) + gval)
        x = as_point(x, problem.dim)
    gval = float(problem.nonsmooth.value(x))
    if math.isinf(gval) and gval > 0.0:
        return math.inf
    return float(problem.smooth.value(x)) + gval


def forward_backward_step(problem: CompositeProblem, y: Vector) -> Vector:
    """Apply T(y) = prox_{gamma g}(y - gamma * grad f(y)), to a vector or to each row of a stack."""
    if not (_is_point(y, problem.dim) or _is_stack(y, problem.dim)):
        y = as_point(y, problem.dim)
    step = y - problem.gamma * problem.smooth.gradient(y)
    out = problem.nonsmooth.prox(step, problem.gamma)
    if type(out) is np.ndarray and out.dtype is _FLOAT64 and out.shape == y.shape:
        return out
    what = f"prox of {problem.nonsmooth.name!r}"
    if y.ndim == 2:
        raise ParameterError(f"{what}: expected a float64 array of shape {y.shape}, got {np.shape(out)}")
    return as_point(out, problem.dim, what=what)


def matvec(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """q @ x[i] for each row of an (k, d) stack x.

    One BLAS ``gemv`` per row, the routine of the 1-D product, so row i is
    bit for bit ``q @ x[i]`` on a C-contiguous stack. ``x @ q.T`` would be
    one ``gemm``, which rounds differently.
    """
    return np.matmul(q, x[..., None])[..., 0]


def rowdot(a: np.ndarray, b: np.ndarray):
    """Dot product of two float vectors, or of each row pair of two (m, d) stacks.

    Every row costs one BLAS ``ddot``, the routine of a 1-D ``a @ b``, so
    the dot of a row does not depend on the rows stacked with it: row i of
    the result is bit for bit ``a[i] @ b[i]``. A matrix product (``a @
    b.T``, or ``a @ c`` over the rows) may round differently. To match the
    dot of a contiguous 1-D vector, a stack must be C-contiguous: BLAS
    takes a row whose entries are not adjacent through its strided kernel,
    which may round differently.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def vector_norm(v: Vector):
    """Euclidean norm of a float vector (a float), or of each row of a stack.

    sqrt(v . v): bit for bit the value of ``np.linalg.norm`` on each
    vector. A 1-D vector takes ``v.dot(v)``, as ``np.linalg.norm`` does,
    at half the cost of :func:`rowdot` on the per-iteration path. The two
    differ only on a one-entry vector whose product is -0.0 (``dot`` skips
    the sum with 0.0), which a square never is.
    """
    if v.ndim == 1:
        return math.sqrt(v.dot(v))
    return np.sqrt(rowdot(v, v))


def descent_slack(gamma: float, h_x, h_ty, x: Vector, y: Vector, ty: Vector):
    """Slack of the one-step descent inequality from values already at hand.

    (h(x) - h(Ty)) - (<y - Ty, x - y> + ||y - Ty||^2 / 2) / gamma: the
    formula behind :func:`key_inequality_residual` and the solvers'
    ``key_residual`` column. Takes one pair (x, y) with scalar h values,
    or (m, d) stacks with length-m value arrays, one slack per row. h(x)
    and h(Ty) must be finite for a slack to mean anything.
    """
    d = y - ty
    return (h_x - h_ty) - (rowdot(d, x - y) + 0.5 * rowdot(d, d)) / gamma


def key_inequality_residual(problem: CompositeProblem, x: Vector, y: Vector) -> float:
    """Residual of the one-step descent inequality at the pair (x, y).

    For T the forward-backward operator the inequality

        <y - Ty, x - y> / gamma + ||y - Ty||^2 / (2 gamma) <= h(x) - h(Ty)

    holds for every x in dom h and every y. The returned residual is the
    right side minus the left side, so exact arithmetic gives a value
    >= 0; anything below ``-NUMERIC_TOL`` indicates a broken operator.

    Raises :class:`OutsideDomain` when h(x) = +inf, since the comparison
    is empty there.
    """
    x = as_point(x, problem.dim)
    y = as_point(y, problem.dim)
    hx = evaluate_h(problem, x)
    if not math.isfinite(hx):
        raise OutsideDomain("reference point outside dom h")
    ty = forward_backward_step(problem, y)
    return float(descent_slack(problem.gamma, hx, evaluate_h(problem, ty), x, y, ty))
