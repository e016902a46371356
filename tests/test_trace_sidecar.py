"""The two ways read_trace_csv gets a trace's table: the sidecar and the parse.

write_trace_csv leaves <name>.trace.npy beside <name>.csv. read_trace_csv
takes the table from it only when its trailer matches the CSV, and parses
the CSV otherwise; both must give the same columns, bit for bit. Each test
counts the calls to the parser to show which way the table came.
"""

import math
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apglab import ParameterError, SolverOptions, build_problem, fista_run, ista_run, solvers
from apglab.solvers import CSV_HEADER, read_trace_csv, write_trace_csv

NAMES = CSV_HEADER.split(",")
FLOAT_ATTRS = ("tau", "alpha", "h", "sigma", "step_norm", "x_norm", "key_residual", "lyapunov")
QUAD2 = {"name": "quadratic", "diag": [1.0, 4.0], "b": [1.0, 1.0]}


def sidecar(path: Path) -> Path:
    return path.with_suffix(".trace.npy")


def counted_read(path):
    """(columns, number of CSV parses) of one read_trace_csv call."""
    with mock.patch.object(solvers, "_parse_trace_csv", wraps=solvers._parse_trace_csv) as parse:
        cols = read_trace_csv(path)
    return cols, parse.call_count


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_same_columns(a: dict, b: dict):
    assert list(a) == list(b) == NAMES
    for name in NAMES:
        assert a[name].dtype == b[name].dtype and a[name].shape == b[name].shape, name
        assert np.array_equal(a[name].view(np.uint64), b[name].view(np.uint64)), name


def from_bits(b: int) -> float:
    return float(np.array(b, dtype=np.uint64).view(np.float64))


# any float64 bit pattern (NaNs of every payload and sign, subnormals), plus
# the values a uniform draw of bits seldom gives
CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(from_bits),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]),
    st.floats(),
)


@st.composite
def traces(draw):
    rows = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    n = np.array(draw(st.lists(st.integers(-2**53, 2**53), min_size=rows, max_size=rows)), dtype=np.int64)
    columns = {attr: np.array(draw(st.lists(CELLS, min_size=rows, max_size=rows)), dtype=float)
               for attr in FLOAT_ATTRS}
    return SimpleNamespace(n=n, **columns)


@given(trace=traces())
@settings(max_examples=80, deadline=None)
def test_sidecar_and_parse_give_the_same_bits(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trace_csv(trace, path)
        via_sidecar, parses = counted_read(path)
        assert parses == 0
        sidecar(path).unlink()
        parsed, parses = counted_read(path)
        assert parses == 1
    assert_same_columns(via_sidecar, parsed)
    assert via_sidecar["n"].dtype == np.int64 and np.array_equal(via_sidecar["n"], trace.n)
    for name, attr in zip(NAMES[1:], FLOAT_ATTRS):
        # every NaN reads back as the quiet NaN that "nan" and an empty cell parse to
        expected = np.where(np.isnan(getattr(trace, attr)), math.nan, getattr(trace, attr))
        assert np.array_equal(bits(via_sidecar[name]), bits(expected)), name


def test_empty_trace_reads_an_int64_n_both_ways(tmp_path):
    # a run truncated at n = 1 records no row: the CSV is its header alone
    trace = ista_run(build_problem({"name": "affine-descent"}),
                     SolverOptions(max_iters=50, divergence_threshold=1e-300))
    assert trace.truncated_at == 1 and trace.n.size == 0
    path = tmp_path / "empty.csv"
    write_trace_csv(trace, path)
    assert path.read_text() == CSV_HEADER + "\n"
    via_sidecar, parses = counted_read(path)
    assert parses == 0
    sidecar(path).unlink()
    parsed, parses = counted_read(path)
    assert parses == 1
    assert_same_columns(via_sidecar, parsed)
    assert parsed["n"].dtype == np.int64 and all(col.size == 0 for col in parsed.values())


@pytest.fixture()
def written(tmp_path):
    """Two traces written side by side, a.csv (anchored, 300 rows) and b.csv."""
    problem = build_problem(QUAD2)
    for name, anchor in (("a", np.zeros(2)), ("b", None)):
        trace = fista_run(problem, {"kind": "classical"}, SolverOptions(max_iters=300, anchor=anchor))
        write_trace_csv(trace, tmp_path / f"{name}.csv")
    return tmp_path


def test_untouched_trace_reads_from_its_sidecar(written):
    cols, parses = counted_read(written / "a.csv")
    assert parses == 0
    sidecar(written / "a.csv").unlink()
    assert_same_columns(cols, counted_read(written / "a.csv")[0])


def test_edited_cell_of_the_same_length_comes_back(written):
    path = written / "a.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[5].split(",")
    old = cells[3]
    # the same number of bytes: one digit of h_xn changed
    digit = next(i for i in range(len(old) - 1, -1, -1) if old[i].isdigit())
    cells[3] = old[:digit] + ("1" if old[digit] != "1" else "2") + old[digit + 1:]
    lines[5] = ",".join(cells)
    edited = "".join(lines)
    assert len(edited) == path.stat().st_size
    path.write_text(edited)
    cols, parses = counted_read(path)
    assert parses == 1
    assert cols["h_xn"][4] == float(cells[3]) != float(old)


def flip_payload_byte(path: Path):
    data = bytearray(path.read_bytes())
    data[len(data) - 32 - 100] ^= 0x01  # a byte of the table, before the trailer
    path.write_bytes(bytes(data))


def truncate(path: Path):
    path.write_bytes(path.read_bytes()[:-1])


def drop_trailer(path: Path):
    path.write_bytes(path.read_bytes()[:-32])


@pytest.mark.parametrize("damage", [flip_payload_byte, truncate, drop_trailer],
                         ids=["flipped payload byte", "truncated", "no trailer"])
def test_damaged_sidecar_falls_back_to_parsing(written, damage):
    path = written / "a.csv"
    expected = read_trace_csv(path)
    damage(sidecar(path))
    cols, parses = counted_read(path)
    assert parses == 1
    assert_same_columns(cols, expected)


def test_another_traces_sidecar_falls_back_to_parsing(written):
    expected = read_trace_csv(written / "a.csv")
    sidecar(written / "b.csv").replace(sidecar(written / "a.csv"))
    cols, parses = counted_read(written / "a.csv")
    assert parses == 1
    assert_same_columns(cols, expected)


def test_malformed_row_next_to_a_stale_sidecar_is_still_an_error(written):
    path = written / "a.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = "3,1.0,0.0,oops,3.0,0.5,1.5,,\n"
    path.write_text("".join(lines))
    with mock.patch.object(solvers, "_parse_trace_csv", wraps=solvers._parse_trace_csv) as parse:
        with pytest.raises(ParameterError, match="a.csv"):
            read_trace_csv(path)
    assert parse.call_count == 1


def test_sidecar_is_a_plain_npy_of_the_parsed_table(written):
    path = written / "a.csv"
    # 72 bytes per row, the .npy header and the 32-byte trailer
    assert sidecar(path).stat().st_size == 300 * 72 + 128 + 32
    table = np.load(sidecar(path))
    assert table.shape == (300, len(NAMES)) and table.dtype == np.float64
    sidecar(path).unlink()
    cols = read_trace_csv(path)
    for j, name in enumerate(NAMES):
        assert np.array_equal(bits(table[:, j]), bits(cols[name])), name
