import contextlib
import io
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
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


@pytest.mark.parametrize(
    "header, repeated",
    [
        ("D_i,D_i", "['D_i']"),
        ("index,t_i,D_i,t_i", "['t_i']"),
        ("D_i,mu_i,D_i,mu_i", "['D_i', 'mu_i']"),
    ],
)
def test_repeated_columns_rejected(header, repeated):
    width = len(header.split(","))
    rows = "".join(",".join(["1"] * width) + "\n" for _ in range(3))
    with pytest.raises(ConfigurationError) as err:
        read_increments_csv(io.StringIO(header + "\n" + rows))
    assert str(err.value) == f"repeated columns in increments file: {repeated}"


def test_missing_increment_column_rejected():
    with pytest.raises(ConfigurationError):
        read_increments_csv(io.StringIO("index,t_i\n1,0.1\n"))


def test_empty_file_rejected():
    with pytest.raises(ConfigurationError):
        read_increments_csv(io.StringIO(""))


def test_headerless_ragged_row_is_named():
    with pytest.raises(ConfigurationError, match="row 3 has 2 cells"):
        read_increments_csv(io.StringIO("0.25\n-0.5\n1.5,2\n"))


def test_a_bad_row_deep_in_a_stream_is_named():
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
# The pooled writer
# ---------------------------------------------------------------------------

def _simulate_text(capsys, tmp_path, rows, with_truth, to_stream):
    """``simulate``'s CSV, written to a file or to stdout."""
    args = ["simulate", "--n", "2500", "--seed", "4"] + (["--with-truth"] if with_truth else [])
    target = tmp_path / f"path-{rows}.csv"
    with mock.patch.object(simulate, "_WRITE_CHUNK_ROWS", rows):
        code = main(args + ["--out", "-" if to_stream else str(target)])
    out = capsys.readouterr().out
    assert code == 0
    return out if to_stream else target.read_text()


@contextlib.contextmanager
def _writer_processes(cpus, rows_per_worker):
    """The writer on ``cpus`` usable CPUs, a process for each ``rows_per_worker`` rows."""
    with mock.patch.object(simulate, "_usable_cpus", lambda: cpus), \
            mock.patch.object(simulate, "_ROWS_PER_WORKER", rows_per_worker):
        yield


@pytest.mark.parametrize("to_stream", [False, True], ids=["file", "stdout"])
@pytest.mark.parametrize("with_truth", [False, True])
def test_pooled_blocks_write_the_bytes_of_one_block(capsys, tmp_path, with_truth, to_stream):
    # 2500 rows in blocks of 300: eight whole blocks and a short last one,
    # formatted by two worker processes whatever this host's CPU count
    pool = mock.Mock(wraps=ProcessPoolExecutor)
    with _writer_processes(2, 1000), mock.patch.object(simulate, "ProcessPoolExecutor", pool):
        pooled = _simulate_text(capsys, tmp_path, 300, with_truth, to_stream)
    assert pool.call_args == mock.call(max_workers=2)
    assert pooled == _simulate_text(capsys, tmp_path, 10**6, with_truth, to_stream)
    assert pooled.count("\n") == 2501


@pytest.mark.parametrize("n, workers", [(199, None), (200, 2), (299, 2), (300, 3), (10**3, 3)])
def test_a_writer_process_starts_for_each_rows_per_worker_up_to_the_cpus(n, workers):
    # a pool pays for its start only from 2 * _ROWS_PER_WORKER rows on, so a
    # shorter path is formatted in this process however many blocks it has
    path = simulate_path(DIFF, JUMPS, n, 4)
    pool = mock.Mock(wraps=ProcessPoolExecutor)
    with _writer_processes(3, 100), mock.patch.object(simulate, "ProcessPoolExecutor", pool), \
            mock.patch.object(simulate, "_WRITE_CHUNK_ROWS", 50):
        text = increments_csv_text(path)
    assert pool.call_args == (None if workers is None else mock.call(max_workers=workers))
    assert text == increments_csv_text(path)


def test_a_slow_reader_holds_at_most_two_blocks_a_worker():
    # the pool is fed as blocks are written, so a stream slower than the
    # workers never has more than four of the twenty blocks formatting or
    # formatted and waiting; a map over all blocks would submit all twenty
    submitted = []

    class CountingPool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(None)
            return super().submit(*args, **kwargs)

    in_flight = []

    class SlowStream(io.StringIO):
        def write(self, text):
            if self.tell():  # a block, after the header
                in_flight.append(len(submitted) - len(in_flight))
                time.sleep(0.2 if len(in_flight) == 1 else 0.0)
            return super().write(text)

    path = simulate_path(DIFF, JUMPS, 2000, 4)
    stream = SlowStream()
    with _writer_processes(2, 100), mock.patch.object(simulate, "_WRITE_CHUNK_ROWS", 100), \
            mock.patch.object(simulate, "ProcessPoolExecutor", CountingPool):
        write_increments_csv(stream, path)
    assert len(in_flight) == len(submitted) == 20
    assert max(in_flight) == 4
    assert stream.getvalue() == increments_csv_text(path)


def test_a_daemon_process_formats_its_blocks_itself():
    # a multiprocessing.Pool worker is a daemon, which may not start children
    # ("daemonic processes are not allowed to have children"): there the
    # writer formats every block in its own process, to the same bytes
    path = simulate_path(DIFF, JUMPS, 2000, 4)
    with _writer_processes(2, 100), mock.patch.object(simulate, "_WRITE_CHUNK_ROWS", 100):
        outer = multiprocessing.get_context("fork").Pool(1)
        try:
            text = outer.apply(increments_csv_text, (path,))
        finally:
            outer.close()
            outer.join()
    assert text == increments_csv_text(path)


def _die(task):
    os._exit(1)


def test_a_writer_process_that_dies_exits_3_named(capsys):
    # a worker killed (say by the out-of-memory killer) breaks the pool; the
    # command exits 3 as for memory it cannot get, and no process is left
    with _writer_processes(2, 100), mock.patch.object(simulate, "_WRITE_CHUNK_ROWS", 100), \
            mock.patch.object(simulate, "_csv_block", _die):
        code = main(["simulate", "--n", "2000", "--seed", "4", "--out", "-"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "jumpvol: worker process died: A process in the process pool was terminated abruptly"
    )


def test_a_write_that_fails_partway_leaves_no_process(monkeypatch, capsys):
    class FullDisk(io.StringIO):
        def write(self, text):
            if self.tell() > 5000:
                raise OSError(28, "No space left on device")
            return super().write(text)

    stream = FullDisk()
    monkeypatch.setattr("sys.stdout", stream)
    with mock.patch.object(simulate, "_WRITE_CHUNK_ROWS", 100), _writer_processes(2, 100):
        code = main(["simulate", "--n", "20000", "--seed", "4", "--out", "-"])
    assert code == 3
    assert capsys.readouterr().err == "jumpvol: I/O error: [Errno 28] No space left on device\n"
    assert 5000 < stream.tell() < 10000


# ---------------------------------------------------------------------------
# The pooled reader
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _reader_processes(cpus, block_bytes, bytes_per_worker=1):
    """The reader on ``cpus`` usable CPUs, in blocks of about ``block_bytes``,
    a process for each ``bytes_per_worker`` bytes of body."""
    with mock.patch.object(simulate, "_usable_cpus", lambda: cpus), \
            mock.patch.object(simulate, "_READ_BLOCK_BYTES", block_bytes), \
            mock.patch.object(simulate, "_READ_BYTES_PER_WORKER", bytes_per_worker):
        yield


def _read(source):
    """What :func:`read_increments_csv` makes of ``source``: the bits of its
    arrays and the horizon, or the message that refuses it."""
    try:
        data = read_increments_csv(source)
    except ConfigurationError as err:
        return str(err)
    return (data.increments.tobytes(), data.horizon,
            None if data.mu is None else data.mu.tobytes())


def _one_process_read(source):
    with mock.patch.object(simulate, "_usable_cpus", lambda: 1):
        return _read(source)


def _rows(names, n=8, **cells):
    """``n`` well-formed rows of ``names``; ``cells`` replaces a row's cell,
    keyed ``<name><row>`` with a 1-based row."""
    rows = []
    for i in range(1, n + 1):
        row = {"index": str(i), "t_i": repr(i * 0.125), "D_i": repr(0.5 - i / 16), "mu_i": "0.0"}
        row.update({name: cells[f"{name}{i}"] for name in names if f"{name}{i}" in cells})
        rows.append(",".join(row[name] for name in names))
    return rows


_FULL = ["index", "t_i", "D_i"]

# (header, body lines, text that closes the first block, refusal or None):
# the first block ends right after that text, so a fault in row 5 is the
# first row of the second block
_BOUNDARY_CASES = {
    "index gap": (_FULL, _rows(_FULL, index5="6", index6="7"), "0.25\n",
                  "increments file row 5: index is 6.0, expected 5"),
    "skewed t_i": (_FULL, _rows(_FULL, t_i5="0.626"), "0.25\n",
                   "increments file row 5: t_i is 0.626, off the equally spaced grid "
                   "i * t_n / n = 0.625"),
    "ragged row": (_FULL, _rows(_FULL, D_i5="0.1,7"), "0.25\n",
                   "increments file row 5 has 4 cells, expected 3 (index,t_i,D_i)"),
    "bad token": (_FULL, _rows(_FULL, D_i5="abc"), "0.25\n",
                  "increments file row 5: D_i is not a number: 'abc'"),
    # loadtxt lets a quoted cell span a line end, so the body is read whole
    "quoted cell across the cut": (_FULL, _rows(_FULL, D_i4='"0.25\n"'), '"0.25\n', None),
    "empty lines longer than a block": (
        _FULL, _rows(_FULL)[:4] + [""] * 200 + _rows(_FULL)[4:], "0.25\n", None),
    "headerless column": (None, [repr(i / 16) for i in range(1, 9)], "0.25\n", None),
    "mu_i column": (_FULL + ["mu_i"], _rows(_FULL + ["mu_i"], mu_i5="0.75"), "0.0\n", None),
}


@pytest.mark.parametrize("crlf_bom", [False, True], ids=["lf", "bom-crlf"])
@pytest.mark.parametrize("case", list(_BOUNDARY_CASES))
def test_a_pooled_read_at_a_block_boundary_answers_as_one_process(tmp_path, case, crlf_bom):
    header, lines, closing, refusal = _BOUNDARY_CASES[case]
    eol = "\r\n" if crlf_bom else "\n"
    head = ("\ufeff" if crlf_bom else "") + (",".join(header) + eol if header else "")
    text = head + "".join(line + "\n" for line in lines).replace("\n", eol)
    data, body, closing = text.encode(), len(head.encode()), closing.replace("\n", eol).encode()
    first_block = data.index(closing, body) + len(closing) - body
    source = tmp_path / "increments.csv"
    source.write_bytes(data)
    pool = mock.Mock(wraps=ProcessPoolExecutor)
    with _reader_processes(2, first_block), mock.patch.object(simulate, "ProcessPoolExecutor", pool):
        pooled = _read(source)
    assert pool.call_args == mock.call(max_workers=2)
    assert pooled == _one_process_read(source)
    if refusal is None:
        assert not isinstance(pooled, str)
        plain = text.removeprefix("\ufeff").replace("\r\n", "\n")
        assert pooled == _one_process_read(io.StringIO(plain))
    else:
        assert pooled == refusal


@pytest.mark.parametrize("share, workers", [(1, None), (2, 2), (3, 3), (10, 3)])
def test_a_reader_process_starts_for_each_bytes_per_worker_up_to_the_cpus(
    tmp_path, share, workers
):
    # a process for each _READ_BYTES_PER_WORKER bytes of body, so a body of
    # fewer than two of them is parsed in this process however many blocks
    # it has
    source = tmp_path / "increments.csv"
    write_increments_csv(source, simulate_path(DIFF, JUMPS, 300, 4), with_truth=True)
    body = source.stat().st_size - len("index,t_i,D_i,mu_i\n")
    pool = mock.Mock(wraps=ProcessPoolExecutor)
    with _reader_processes(3, 500, body // share), \
            mock.patch.object(simulate, "ProcessPoolExecutor", pool):
        pooled = _read(source)
    assert pool.call_args == (None if workers is None else mock.call(max_workers=workers))
    assert pooled == _one_process_read(source)


def test_a_stream_is_never_pooled(tmp_path):
    # nor is a path to a pipe, which a worker could not open again
    class Pipe(io.StringIO):
        def seekable(self):
            return False

    source = tmp_path / "increments.csv"
    write_increments_csv(source, simulate_path(DIFF, JUMPS, 300, 4))
    text = source.read_text()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    pool = mock.Mock(wraps=ProcessPoolExecutor)
    with _reader_processes(2, 100), mock.patch.object(simulate, "ProcessPoolExecutor", pool):
        streams = [_read(io.StringIO(text)), _read(Pipe(text)), _read(fifo)]
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert pool.call_args is None
    assert streams == [_one_process_read(source)] * 3


def test_a_file_with_cr_line_ends_reads_as_with_lf(tmp_path):
    # a position past a lone "\r" is no byte offset, so such a body is read
    # whole through the open file, in this process
    source = tmp_path / "increments.csv"
    write_increments_csv(source, simulate_path(DIFF, JUMPS, 300, 4), with_truth=True)
    cr = tmp_path / "cr.csv"
    cr.write_bytes(source.read_bytes().replace(b"\n", b"\r"))
    with _reader_processes(2, 100):
        assert _read(cr) == _one_process_read(source)


@pytest.mark.parametrize("stdin", ["redirect", "pipe"])
def test_infer_reads_cr_line_ends_on_stdin_as_from_a_path(tmp_path, stdin):
    # sys.stdin splits lines at "\n" only: a lone-CR file on stdin came as one
    # line, whose header scan ended in a _csv.Error traceback
    source = tmp_path / "increments.csv"
    write_increments_csv(source, simulate_path(DIFF, JUMPS, 300, 4), with_truth=True)
    cr = tmp_path / "cr.csv"
    cr.write_bytes(source.read_bytes().replace(b"\n", b"\r"))
    args = ["infer", "--input", "-", "--out", "-"]
    command = [sys.executable, "-m", "jumpvol.cli"] + args
    if stdin == "redirect":  # a file, which can seek
        with open(cr, "rb") as redirected:
            proc = subprocess.run(command, stdin=redirected, capture_output=True)
    else:
        proc = subprocess.run(command, input=cr.read_bytes(), capture_output=True)
    expected = _infer(["infer", "--input", str(source), "--out", "-"])
    assert expected[0] == 0
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected


@pytest.mark.parametrize("text", [
    "index,t_i,D_i\r1,0.5,0.1\r2,1.0,-0.2\r",
    "0.1\r-0.2\r",
    "index,t_i,D_i\r\n1,0.5,0.1\r2,1.0,-0.2\r\n",
])
def test_a_stream_that_leaves_lone_cr_line_ends_unsplit_is_refused_named(text):
    # such a stream hands every row over as one line, whose header scan
    # raised a bare _csv.Error; with newline="" the same text is read
    with pytest.raises(ConfigurationError, match="^increments file has lone-CR line ends"):
        read_increments_csv(io.StringIO(text, newline="\n"))
    assert not isinstance(_read(io.StringIO(text, newline="")), str)


def test_a_file_that_shrinks_after_its_header_is_read_whole(tmp_path):
    # a file cut short (or one whose end seek reports less than was read)
    # has no byte ranges, and its body is read through the open file
    source = tmp_path / "increments.csv"
    write_increments_csv(source, simulate_path(DIFF, JUMPS, 300, 4), with_truth=True)
    with _reader_processes(2, 100), mock.patch.object(simulate, "_byte_ranges", lambda *_: []):
        assert _read(source) == _one_process_read(source)


def test_a_daemon_process_reads_its_blocks_itself(tmp_path):
    # a multiprocessing.Pool worker is a daemon, which may not start children
    source = tmp_path / "increments.csv"
    write_increments_csv(source, simulate_path(DIFF, JUMPS, 2000, 4), with_truth=True)
    with _reader_processes(2, 4096):
        outer = multiprocessing.get_context("fork").Pool(1)
        try:
            data = outer.apply(_read, (str(source),))
        finally:
            outer.close()
            outer.join()
    assert data == _one_process_read(source)


def test_a_reader_process_that_dies_exits_3_named(tmp_path, capsys):
    source = tmp_path / "increments.csv"
    write_increments_csv(source, simulate_path(DIFF, JUMPS, 2000, 4))
    with _reader_processes(2, 4096), mock.patch.object(simulate, "_parse_block", _die):
        code = main(["infer", "--input", str(source), "--out", "-"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "jumpvol: worker process died: A process in the process pool was terminated abruptly"
    )


def _faulty_file(tmp_path, faults) -> Path:
    """``simulate``'s 2000 rows with ``faults``, a map from a 1-based row to
    a function of its cells giving the row's bytes."""
    source = tmp_path / "increments.csv"
    write_increments_csv(source, simulate_path(DIFF, JUMPS, 2000, 4))
    lines = source.read_bytes().split(b"\n")
    for row, fault in faults.items():
        lines[row] = fault(lines[row].split(b","))
    source.write_bytes(b"\n".join(lines))
    return source


def _token(cells):
    return b",".join(cells[:2] + [b"abc"])


_DOUBLE_FAULTS = {
    # a block that must be read whole outranks a bad row before it
    "bad token, then not UTF-8": (
        {50: _token, 1500: lambda cells: b",".join(cells[:2] + [b"\xff" + cells[2]])},
        "increments file cannot be decoded as text"),
    "bad token, then a quoted cell": (
        {50: _token, 1500: lambda cells: b",".join(cells[:2] + [b'"' + cells[2] + b'"'])},
        "increments file row 50: D_i is not a number: 'abc'"),
    # a bad row outranks an index fault before it
    "index gap, then bad token": (
        {50: lambda cells: b",".join([b"51"] + cells[1:]), 1500: _token},
        "increments file row 1500: D_i is not a number: 'abc'"),
}


@pytest.mark.parametrize("case", list(_DOUBLE_FAULTS))
def test_two_faults_answer_as_one_process(tmp_path, case):
    faults, message = _DOUBLE_FAULTS[case]
    source = _faulty_file(tmp_path, faults)
    args = ["infer", "--input", str(source), "--out", "-"]
    pool = mock.Mock(wraps=ProcessPoolExecutor)
    with _reader_processes(2, 4096), mock.patch.object(simulate, "ProcessPoolExecutor", pool):
        pooled = _infer(args)
    assert pool.call_args == mock.call(max_workers=2)
    assert pooled[:2] == (2, "")
    assert pooled[2].startswith(f"jumpvol: configuration error: {message}")
    with mock.patch.object(simulate, "_usable_cpus", lambda: 1):
        assert _infer(args) == pooled


def test_a_bad_row_in_the_last_block_is_found_by_its_worker(tmp_path):
    # the worker that parses the last block names the row in its own text;
    # this process parses no more than that one line
    source = _faulty_file(tmp_path, {2000: _token})
    parent, handed, load = os.getpid(), [], simulate._load

    def recorded(source, *args, **kwargs):
        if os.getpid() == parent:
            handed.append(source)
        return load(source, *args, **kwargs)

    pool = mock.Mock(wraps=ProcessPoolExecutor)
    with _reader_processes(2, 4096), mock.patch.object(simulate, "ProcessPoolExecutor", pool), \
            mock.patch.object(simulate, "_load", recorded):
        pooled = _read(source)
    assert pool.call_args == mock.call(max_workers=2)
    assert pooled == "increments file row 2000: D_i is not a number: 'abc'"
    assert all(isinstance(lines, list) and len(lines) == 1 for lines in handed)


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


def _infer(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=25)  # each example starts a pool
@given(body=_bodies(), block_bytes=st.integers(1, 64))
def test_a_pooled_read_of_a_body_answers_as_one_process(body, block_bytes, tmp_path_factory):
    # two processes over blocks of a few rows: the same exit code, record and
    # message as the whole body read in this process
    source = tmp_path_factory.mktemp("bodies") / "increments.csv"
    source.write_text(body)
    args = ["infer", "--input", str(source), "--out", "-"]
    with _reader_processes(2, block_bytes):
        pooled = _infer(args)
    with mock.patch.object(simulate, "_usable_cpus", lambda: 1):
        assert pooled == _infer(args)
