import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpvol import (
    ConfigurationError,
    DiffusionSpec,
    JumpSpec,
    PathTruth,
    SamplePath,
    read_increments_csv,
    simulate_path,
    write_increments_csv,
)
from jumpvol import simulate
from jumpvol.cli import main

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
JUMPS = JumpSpec.two_point(5.0, 3.0)


def increments_csv_text(path: SamplePath, with_truth: bool = False) -> str:
    """Render :func:`write_increments_csv` output as a string."""
    buf = io.StringIO()
    write_increments_csv(buf, path, with_truth=with_truth)
    return buf.getvalue()


def test_round_trip_exact(tmp_path):
    path = simulate_path(DIFF, JUMPS, n=200, seed=11)
    target = tmp_path / "increments.csv"
    write_increments_csv(target, path, with_truth=True)
    data = read_increments_csv(target)
    assert np.array_equal(data.increments, path.increments)
    assert np.array_equal(data.mu, path.truth.mu)
    assert data.horizon == path.n * path.delta


def test_rewrite_is_byte_identical(tmp_path):
    path = simulate_path(DIFF, JUMPS, n=100, seed=3)
    first = increments_csv_text(path)
    second = increments_csv_text(simulate_path(DIFF, JUMPS, n=100, seed=3))
    assert first == second


def test_truth_column_requires_truth():
    path = simulate_path(DIFF, JUMPS, n=50, seed=1)
    bare = type(path)(n=path.n, delta=path.delta, increments=path.increments)
    with pytest.raises(ConfigurationError):
        increments_csv_text(bare, with_truth=True)


def test_headerless_single_column():
    data = read_increments_csv(io.StringIO("0.25\n-0.5\n1.5\n"))
    assert np.array_equal(data.increments, [0.25, -0.5, 1.5])
    assert data.horizon is None
    assert data.mu is None


def test_headerless_multi_column_rejected():
    with pytest.raises(ConfigurationError):
        read_increments_csv(io.StringIO("0.25,1\n-0.5,2\n"))


def test_unknown_columns_rejected():
    with pytest.raises(ConfigurationError):
        read_increments_csv(io.StringIO("index,t_i,D_i,extra\n1,0.1,0.5,9\n"))


def test_missing_increment_column_rejected():
    with pytest.raises(ConfigurationError):
        read_increments_csv(io.StringIO("index,t_i\n1,0.1\n"))


def test_empty_file_rejected():
    with pytest.raises(ConfigurationError):
        read_increments_csv(io.StringIO(""))


def test_headerless_ragged_row_is_named():
    with pytest.raises(ConfigurationError, match="row 3 has 2 cells"):
        read_increments_csv(io.StringIO("0.25\n-0.5\n1.5,2\n"))


def test_bad_row_past_the_first_rescan_block_is_named():
    lines = increments_csv_text(simulate_path(DIFF, JUMPS, n=5000, seed=2)).splitlines()
    lines[4500] = lines[4500] + ",9"
    with pytest.raises(ConfigurationError, match="row 4500 has 4 cells"):
        read_increments_csv(io.StringIO("\n".join(lines) + "\n"))


def test_header_without_rows_rejected():
    with pytest.raises(ConfigurationError, match="no rows"):
        read_increments_csv(io.StringIO("index,t_i,D_i\n\n"))


def test_grid_tolerance_is_relative_to_the_step():
    # 1e-6 of a 0.2 step is 2e-7: 0.60000019 is on the grid, 0.60000021 is off
    good = "index,t_i,D_i\n1,0.2,0.1\n2,0.4,0.2\n3,0.60000019,0.1\n4,0.8,0.3\n5,1.0,0.2\n"
    assert read_increments_csv(io.StringIO(good)).horizon == 1.0
    with pytest.raises(ConfigurationError, match="row 3"):
        read_increments_csv(io.StringIO(good.replace("0.60000019", "0.60000021")))


def test_quoted_cells_and_empty_lines():
    data = read_increments_csv(io.StringIO('D_i,t_i\n\n"0.25",0.5\n\n-0.5,"1.0"\n'))
    assert np.array_equal(data.increments, [0.25, -0.5])
    assert data.horizon == 1.0


def test_unseekable_stream_names_bad_row():
    class Pipe(io.StringIO):
        def seekable(self):
            return False

    with pytest.raises(ConfigurationError, match="row 2"):
        read_increments_csv(Pipe("index,t_i,D_i\n1,0.5,0.1\n2,1.0,abc\n"))
    data = read_increments_csv(Pipe("index,t_i,D_i\n1,0.5,0.1\n2,1.0,0.2\n"))
    assert np.array_equal(data.increments, [0.1, 0.2])


# ---------------------------------------------------------------------------
# Properties over generated paths and bodies
# ---------------------------------------------------------------------------

def _per_row_csv(path, with_truth):
    """The per-row f-string writer that the column-wise writer replaced."""
    lines = ["index,t_i,D_i,mu_i" if with_truth else "index,t_i,D_i"]
    for i in range(path.n):
        row = f"{i + 1},{(i + 1) * path.delta!r},{float(path.increments[i])!r}"
        if with_truth:
            row += f",{float(path.truth.mu[i])!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)


@settings(derandomize=True, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    delta=st.floats(1e-6, 10.0),
    with_truth=st.booleans(),
    chunk=st.integers(1, 9),
)
def test_writer_matches_per_row_writer_and_reads_back_bit_for_bit(
    data, n, delta, with_truth, chunk
):
    d = np.array(data.draw(st.lists(_values, min_size=n, max_size=n)))
    mu = np.array(data.draw(st.lists(_values, min_size=n, max_size=n)))
    with np.errstate(over="ignore"):
        path = SamplePath(n=n, delta=delta, increments=d, truth=PathTruth(mu))
    with mock.patch.object(simulate, "_WRITE_CHUNK_ROWS", chunk):
        text = increments_csv_text(path, with_truth=with_truth)
    assert text == _per_row_csv(path, with_truth)
    back = read_increments_csv(io.StringIO(text))
    assert np.array_equal(back.increments.view(np.uint64), d.view(np.uint64))
    assert back.horizon == n * delta
    if with_truth:
        assert np.array_equal(back.mu.view(np.uint64), mu.view(np.uint64))
    else:
        assert back.mu is None


_BAD_TOKENS = ["abc", "", " ", "1_0", "nan", "inf", "-inf", '"0.5"', "1e999", "0x10", "--1", "١"]


@st.composite
def _bodies(draw):
    """A well-formed body with at most one fault: a bad token, a dropped or
    extra cell, an index gap or a skewed t_i, at a drawn row."""
    header = draw(st.sampled_from(["index,t_i,D_i", "index,t_i,D_i,mu_i", "t_i,D_i", "D_i", None]))
    names = ["D_i"] if header is None else header.split(",")
    n = draw(st.integers(4, 10))
    rows = []
    for i in range(1, n + 1):
        cells = {name: repr(draw(st.floats(-1.0, 1.0))) for name in names}
        cells.update({"index": str(i), "t_i": repr(i * 0.125)})
        rows.append([cells[name] for name in names])
    fault = draw(st.sampled_from(["none", "token", "drop", "add", "index", "t_i"]))
    row = rows[draw(st.integers(0, n - 1))]
    if fault == "token":
        row[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    elif fault == "drop":
        row.pop()
    elif fault == "add":
        row.append("0.5")
    elif fault in names:
        column = names.index(fault)
        row[column] = repr(float(row[column]) + draw(st.sampled_from([1.0, 1e-9, 1e-3])))
    lines = ([] if header is None else [header]) + [",".join(cells) for cells in rows]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None)
@given(body=_bodies())
def test_infer_on_malformed_bodies_exits_cleanly(body, tmp_path_factory):
    work = tmp_path_factory.mktemp("bodies")
    source = work / "increments.csv"
    source.write_text(body)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["infer", "--input", str(source), "--out", str(work / "out.json")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
