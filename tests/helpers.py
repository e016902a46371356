"""Independent numeric oracles shared by the test modules.

Everything here is deliberately dumb and slow: grid search plus golden
section for 1D prox problems, dense eigensolves for curvature. The
package must agree with these, not the other way around.
"""

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fun, lo: float, hi: float, iters: int = 200) -> float:
    """Minimize a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def prox_oracle_1d(g_scalar, y: float, gamma: float, span: float = 50.0) -> float:
    """argmin_u g(u) + (u - y)^2 / (2 gamma) by grid + golden section.

    g_scalar maps a float to a float (may return inf outside its domain).
    """

    def objective(u: float) -> float:
        return g_scalar(u) + (u - y) ** 2 / (2.0 * gamma)

    grid = np.linspace(y - span, y + span, 20001)
    vals = np.array([objective(float(u)) for u in grid])
    k = int(np.argmin(vals))
    lo = float(grid[max(0, k - 1)])
    hi = float(grid[min(len(grid) - 1, k + 1)])
    return golden_section(objective, lo, hi)


def beta_oracle(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix (dense solve)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(matrix))))


def classical_taus(count: int, tau1: float = 1.0) -> np.ndarray:
    """The textbook momentum recursion, written out independently."""
    out = np.empty(count)
    t = tau1
    for i in range(count):
        out[i] = t
        t = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
    return out


def attouch_condition_delta(taus: np.ndarray) -> float:
    """Smallest delta with tau_{k+1}^2 - tau_k^2 <= delta * tau_{k+1} over a prefix."""
    from apglab.schedules import attouch_pair_deltas

    deltas = attouch_pair_deltas(taus)
    return float(np.max(deltas)) if deltas.size else 0.0


def blowsup_partial_sums(taus: np.ndarray) -> float:
    """Partial sum of 1 - tau_k^2 / tau_{k+1}^2 over the prefix."""
    from apglab.schedules import blowsup_pair_terms

    return float(np.sum(blowsup_pair_terms(taus)))


def fixed_point_residual(problem, x) -> float:
    """Distance ||T(x) - x||, zero exactly at minimizers of h."""
    from apglab.problem import as_point, forward_backward_step, vector_norm

    x = as_point(x, problem.dim)
    return vector_norm(forward_backward_step(problem, x) - x)


def naive_run(problem, algorithm: str, schedule_spec, options) -> dict:
    """Reference solver loop that applies T and h at every iteration.

    A plain transcription of the iteration with no shortcut of any kind:
    it repeats the solver's float expressions one for one, so every column
    and end point it returns must match a SolverTrace bit for bit.
    """
    from apglab.problem import evaluate_h, forward_backward_step
    from apglab.schedules import prefix

    gamma = problem.gamma
    monotone = algorithm == "mfista"
    spec = {"kind": "constant", "tau": 1.0} if algorithm == "ista" else schedule_spec
    taus = prefix(spec, options.max_iters + 1).tolist()
    x0 = np.zeros(problem.dim) if options.x0 is None else np.asarray(options.x0, dtype=float)
    anchor = None if options.anchor is None else np.asarray(options.anchor, dtype=float)
    anchor_h = None
    if anchor is not None:
        anchor_h = evaluate_h(problem, anchor)

    names = ("n", "tau", "alpha", "h", "sigma", "step_norm", "x_norm", "key_residual", "lyapunov", "fejer_dist")
    rows = []
    out = {"x1": None, "h1": math.nan, "final_x": None, "final_x_prev": None, "truncated_at": None}
    x_prev, h_prev, y = x0, evaluate_h(problem, x0), x0.copy()
    for n in range(1, options.max_iters + 1):
        tau, tau_next = taus[n - 1], taus[n]
        t_y = forward_backward_step(problem, y)
        h_t = evaluate_h(problem, t_y)
        key = math.nan
        if math.isfinite(h_prev) and math.isfinite(h_t):
            disp = y - t_y
            key = (h_prev - h_t) - (float(disp @ (x_prev - y)) + 0.5 * float(disp @ disp)) / gamma
        z = t_y
        if monotone and h_prev <= h_t:
            x, h_x = x_prev, h_prev
        else:
            x, h_x = t_y, h_t
        gap_vec = z - x_prev
        step = x - x_prev
        step_norm = float(np.linalg.norm(step))
        sigma = h_x + float(gap_vec @ gap_vec) / (2.0 * gamma)
        x_norm = float(np.linalg.norm(x))
        if x_norm > options.divergence_threshold or not (math.isfinite(h_x) and math.isfinite(x_norm)):
            out["truncated_at"] = n
            break
        alpha = (tau - 1.0) / tau_next
        lyap = fejer = math.nan
        if anchor is not None:
            u = tau * z - (tau - 1.0) * x_prev - anchor
            u_sq = float(u @ u)
            lyap = tau * tau * (h_x - anchor_h) + u_sq / (2.0 * gamma)
            fejer = math.nan if monotone else math.sqrt(u_sq)
        if n == 1:
            out["x1"], out["h1"] = x.copy(), h_x
        if n == 1 or n == options.max_iters or n % options.record_every == 0:
            rows.append((n, tau, alpha, h_x, sigma, step_norm, x_norm, key, lyap, fejer))
        if monotone:
            y = x + (tau / tau_next) * (z - x) + alpha * (x - x_prev)
        else:
            y = x + alpha * step
        out["final_x_prev"], out["final_x"] = x_prev, x
        x_prev, h_prev = x, h_x
    cols = list(zip(*rows)) if rows else [()] * len(names)
    out["n"] = np.array(cols[0], dtype=np.int64)
    for name, col in zip(names[1:], cols[1:]):
        out[name] = np.array(col, dtype=float)
    return out
