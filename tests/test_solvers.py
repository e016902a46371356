import math
import warnings

import numpy as np
import pytest

from apglab import (
    ParameterError,
    SolverOptions,
    build_problem,
    fista_run,
    ista_run,
    mfista_run,
    read_trace_csv,
    run_algorithm,
    write_trace_csv,
)
from apglab.schedules import alphas, prefix
from apglab.solvers import CSV_HEADER


AFFINE = {"name": "affine-descent"}
QUAD2 = {"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]}
LASSO = {"name": "lasso", "dim": 6, "seed": 9}


def test_ista_on_affine_walks_unit_steps():
    p = build_problem(AFFINE)
    trace = ista_run(p, SolverOptions(max_iters=500))
    n = np.arange(1, 501, dtype=float)
    assert np.array_equal(trace.x_norm, n)
    assert np.all(trace.step_norm == 1.0)
    assert np.all(trace.alpha == 0.0)
    assert np.all(trace.tau == 1.0)
    assert np.array_equal(trace.h, -n)


def test_fista_on_affine_matches_scalar_recursion():
    p = build_problem(AFFINE)
    trace = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=400))
    taus = prefix({"kind": "classical"}, 401)
    al = alphas(taus)
    x_prev, y = 0.0, 0.0
    xs = []
    for k in range(400):
        x = y + 1.0
        xs.append(x)
        y = x + al[k] * (x - x_prev)
        x_prev = x
    xs = np.array(xs)
    np.testing.assert_allclose(trace.x_norm, np.abs(xs), rtol=1e-12)
    np.testing.assert_allclose(trace.h, -xs, rtol=1e-12)
    # displacements start at exactly 1 and never shrink below it
    steps = np.diff(np.concatenate(([0.0], xs)))
    assert steps[0] == 1.0
    assert np.all(trace.step_norm >= 1.0 - 1e-12)


def test_fista_with_constant_one_schedule_is_ista():
    p = build_problem(QUAD2)
    a = fista_run(p, {"kind": "constant", "tau": 1.0}, SolverOptions(max_iters=200))
    b = ista_run(p, SolverOptions(max_iters=200))
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.x_norm, b.x_norm)
    assert np.all(a.alpha == 0.0)


def test_mfista_objective_never_increases():
    p = build_problem(LASSO)
    trace = mfista_run(p, {"kind": "classical"}, SolverOptions(max_iters=400))
    assert np.all(np.diff(trace.h) <= 0.0)


def test_mfista_keeps_old_iterate_on_ties():
    # once the run freezes, h_prev == h(candidate) exactly and the old
    # point must be kept, so the step column is identically zero
    p = build_problem({"name": "quadratic", "diag": [1.0, 4.0], "b": [3.0, 3.0],
                       "g": {"kind": "box", "lo": 0.0, "hi": 1.0}})
    trace = mfista_run(p, {"kind": "classical"}, SolverOptions(max_iters=60))
    dead = np.flatnonzero(trace.step_norm == 0.0)
    assert dead.size > 0
    first = int(dead[0])
    assert np.all(trace.step_norm[first:] == 0.0)
    assert np.all(trace.h[first:] == trace.h[first])


def test_recording_thins_but_keeps_first_and_last():
    p = build_problem(QUAD2)
    full = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=100))
    thin = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=100, record_every=7))
    want_n = [1] + [k for k in range(7, 101, 7)] + [100]
    assert thin.n.tolist() == want_n
    sel = np.isin(full.n, thin.n)
    assert np.array_equal(full.h[sel], thin.h)
    assert np.array_equal(full.sigma[sel], thin.sigma)
    assert np.array_equal(full.key_residual[sel], thin.key_residual)


def test_tau_and_alpha_columns_match_schedule_prefix():
    p = build_problem(QUAD2)
    spec = {"kind": "chambolle_dossal", "rho": 2.0}
    trace = fista_run(p, spec, SolverOptions(max_iters=50))
    taus = prefix(spec, 51)
    assert np.array_equal(trace.tau, taus[:50])
    assert np.array_equal(trace.alpha, alphas(taus))


def test_stop_step_norm_halts_early():
    p = build_problem({"name": "quadratic", "diag": [1.0, 4.0], "b": [3.0, 3.0],
                       "g": {"kind": "box", "lo": 0.0, "hi": 1.0}})
    trace = ista_run(p, SolverOptions(max_iters=5000, stop_step_norm=1e-12))
    assert trace.stopped_at is not None
    assert trace.stopped_at < 5000
    assert trace.n[-1] == trace.stopped_at
    assert trace.step_norm[-1] < 1e-12


def test_stop_h_gap_needs_known_min():
    quad = build_problem(QUAD2)
    trace = fista_run(quad, {"kind": "classical"}, SolverOptions(max_iters=5000, stop_h_gap=1e-9))
    assert trace.stopped_at is not None
    assert trace.h[-1] - quad.known_min < 1e-9
    lasso = build_problem(LASSO)
    with pytest.raises(ParameterError):
        fista_run(lasso, {"kind": "classical"}, SolverOptions(max_iters=10, stop_h_gap=1e-9))


def test_divergence_truncates_before_recording_the_blowup():
    p = build_problem(AFFINE)
    trace = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=10_000,
                                                              divergence_threshold=1e3))
    assert trace.diverging
    assert trace.truncated_at is not None
    assert trace.n[-1] < trace.truncated_at
    assert np.all(trace.x_norm <= 1e3)


def test_anchored_run_fills_energy_columns():
    p = build_problem(QUAD2)
    trace = fista_run(p, {"kind": "classical"},
                      SolverOptions(max_iters=300, anchor=p.known_argmin))
    assert trace.anchored
    assert np.all(np.isfinite(trace.lyapunov))
    assert np.all(np.isfinite(trace.fejer_dist))
    assert trace.anchor_h == pytest.approx(p.known_min)
    # first-record identity: E_1 = tau_1^2 (h_1 - h(z)) + ||x_1 - z||^2/(2 gamma)
    want = (trace.h[0] - p.known_min) + trace.fejer_dist[0] ** 2 / (2.0 * p.gamma)
    assert trace.lyapunov[0] == pytest.approx(want, rel=1e-12)


def test_anchor_outside_domain_is_rejected():
    p = build_problem({"name": "quadratic", "diag": [1.0], "b": [0.0],
                       "g": {"kind": "box", "lo": 0.0, "hi": 1.0}})
    with pytest.raises(ParameterError):
        ista_run(p, SolverOptions(max_iters=5, anchor=np.array([4.0])))


def test_x0_at_minimizer_freezes_immediately():
    p = build_problem(QUAD2)
    trace = fista_run(p, {"kind": "classical"},
                      SolverOptions(max_iters=50, x0=p.known_argmin))
    assert np.all(trace.step_norm <= 1e-12)
    assert trace.h == pytest.approx(np.full(50, p.known_min), abs=1e-12)


def test_ista_rejects_other_schedules():
    p = build_problem(QUAD2)
    with pytest.raises(ParameterError):
        ista_run(p, SolverOptions(max_iters=5), schedule={"kind": "classical"})
    trace = ista_run(p, SolverOptions(max_iters=5), schedule={"kind": "constant", "tau": 1.0})
    assert trace.algorithm == "ista"


def test_run_algorithm_dispatch_and_unknown_name():
    p = build_problem(QUAD2)
    for name in ("ista", "fista", "mfista"):
        trace = run_algorithm(p, name, None, SolverOptions(max_iters=3))
        assert trace.algorithm == name
    with pytest.raises(ParameterError):
        run_algorithm(p, "newton", None, SolverOptions(max_iters=3))


def test_csv_round_trip_preserves_values_and_gaps(tmp_path):
    p = build_problem(AFFINE)
    trace = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=40))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    cols = read_trace_csv(path)
    assert np.array_equal(cols["n"], trace.n)
    np.testing.assert_array_equal(cols["h_xn"], trace.h)
    np.testing.assert_array_equal(cols["tau_n"], trace.tau)
    # unanchored run: energy cells are written empty and read back as nan
    assert np.all(np.isnan(cols["lyapunov_E"]))
    assert ",," in text.splitlines()[1] or text.splitlines()[1].endswith(",")


def test_csv_chunks_match_row_by_row_format(tmp_path):
    # 9000 rows span many write chunks; the unanchored run leaves empty cells
    p = build_problem(LASSO)
    for anchor in (None, np.zeros(p.dim)):
        trace = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=9000, anchor=anchor))
        lines = [CSV_HEADER]
        for i in range(trace.n.size):
            cells = [str(int(trace.n[i]))]
            cells += [repr(float(getattr(trace, c)[i]))
                      for c in ("tau", "alpha", "h", "sigma", "step_norm", "x_norm")]
            cells += ["" if math.isnan(v) else repr(float(v))
                      for v in (trace.key_residual[i], trace.lyapunov[i])]
            lines.append(",".join(cells))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_text() == "\n".join(lines) + "\n"


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_csv_round_trip_is_bitwise(tmp_path):
    # 9000 rows, anchored (every cell filled) and unanchored (empty energy cells)
    p = build_problem(LASSO)
    columns = {"tau_n": "tau", "alpha_n": "alpha", "h_xn": "h", "sigma_n": "sigma",
               "step_norm": "step_norm", "x_norm": "x_norm", "key_residual": "key_residual",
               "lyapunov_E": "lyapunov"}
    for anchor in (None, np.zeros(p.dim)):
        trace = fista_run(p, {"kind": "classical"}, SolverOptions(max_iters=9000, anchor=anchor))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        cols = read_trace_csv(path)
        assert list(cols) == CSV_HEADER.split(",")
        assert cols["n"].dtype == np.int64 and np.array_equal(cols["n"], trace.n)
        for name, attr in columns.items():
            np.testing.assert_array_equal(_bits(cols[name]), _bits(getattr(trace, attr)), err_msg=name)
        assert np.all(np.isnan(cols["lyapunov_E"])) == (anchor is None)


def test_csv_of_no_rows_reads_as_empty_columns_without_warnings(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(CSV_HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = read_trace_csv(path)
    assert list(cols) == CSV_HEADER.split(",")
    assert all(col.size == 0 for col in cols.values())


GOOD_ROW = "1,1.0,0.0,2.5,3.0,0.5,1.5,,"
MALFORMED = {
    "non-numeric cell": [GOOD_ROW, "2,1.0,0.0,oops,3.0,0.5,1.5,,"],
    "short row": [GOOD_ROW, "2,1.0,0.0,2.5"],
    "only short rows": ["1,1.0,0.0,2.5,3.0,0.5,1.5"],
    "long rows": [GOOD_ROW + ",7.0"],
    "empty required cell": ["1,1.0,,2.5,3.0,0.5,1.5,,"],
    "fractional n": ["1.5,1.0,0.0,2.5,3.0,0.5,1.5,,"],
}


@pytest.mark.parametrize("rows", list(MALFORMED.values()), ids=list(MALFORMED))
def test_csv_malformed_rows_are_parameter_errors(tmp_path, rows):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    with pytest.raises(ParameterError, match="bad.csv"):
        read_trace_csv(path)


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParameterError):
        read_trace_csv(path)
