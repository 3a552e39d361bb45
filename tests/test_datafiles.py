import codecs
import csv
import fcntl
import functools
import hashlib
import io
import math
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

import oracles
from tlscavity import DataError, datafiles
from tlscavity.datafiles import (cells, read_csv_columns, read_ringdown_csv,
                                 read_sweep_csv, read_trace_csv, write_csv,
                                 write_files)


def test_read_csv_columns(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    cols = read_csv_columns(p, ["a", "b"])
    assert np.allclose(cols["a"], [1.0, 3.0])
    assert np.allclose(cols["b"], [2.0, 4.0])


def test_read_csv_missing_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(DataError):
        read_csv_columns(p, ["a", "c"])


def test_read_csv_bad_value_cites_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\nx,4.0\n")
    with pytest.raises(DataError, match="line 3"):
        read_csv_columns(p, ["a", "b"])


def test_read_csv_nan_cites_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(DataError, match="line 3.*column b"):
        read_csv_columns(p, ["a", "b"])


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999"])
def test_read_csv_infinite_cites_line(tmp_path, cell):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,2.0\n%s,4.0\n" % cell)
    with pytest.raises(DataError, match="line 3: -?inf in column a"):
        read_csv_columns(p, ["a", "b"])


def test_read_csv_ragged_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0\n")
    with pytest.raises(DataError):
        read_csv_columns(p, ["a", "b"])


@pytest.mark.parametrize("body", [b"0.0,1e12\n1e-3,5e11\n",
                                  b'"0.0",1e12\n1e-3,5e11\n'])
def test_read_csv_drops_a_byte_order_mark(tmp_path, body):
    # a UTF-8 byte-order mark reads as no mark, on the numpy path and in
    # the cell loop (once refused: an invisible U+FEFF began the header)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"time_s,n\n" + body)
    marked.write_bytes(codecs.BOM_UTF8 + b"time_s,n\n" + body)
    want = read_csv_columns(plain, ["time_s", "n"])
    got = read_csv_columns(marked, ["time_s", "n"])
    assert {c: v.tolist() for c, v in got.items()} == \
        {c: v.tolist() for c, v in want.items()}


def test_read_csv_bad_byte_after_a_byte_order_mark(tmp_path):
    # the bad byte is named by its offset in the file: utf-8-sig's offsets
    # leave the mark out, and would name the byte 3 places before it
    p = tmp_path / "t.csv"
    p.write_bytes(codecs.BOM_UTF8 + b"time_s,n\n0.0,\xe9e12\n")
    with pytest.raises(DataError) as info:
        read_csv_columns(p, ["time_s", "n"])
    assert str(info.value) == "%s: line 2: not UTF-8 text (byte 0xe9)" % p


_text_cell = hst.one_of(
    hst.floats().map(repr),
    hst.sampled_from(["#", "#1", "1#", '"1.5"', '"1,5"', "'2'", "1_000",
                      "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "",
                      " ", "  2 ", "\t3", "\x0c4", "\x1c5", "١",
                      "+.5", "5.", "1e", "--1", "1 2", "0x10"]),
    hst.text(alphabet="0123456789+-.eE #\"'_\t", max_size=6))

# rows of one to three cells under a two-column header: ragged rows, blank
# lines and lines of a blank cell among them, and rows of two plain numbers
_text_rows = hst.lists(hst.one_of(
    hst.lists(_text_cell, min_size=1, max_size=3),
    hst.lists(hst.floats(allow_nan=False, allow_infinity=False).map(repr),
              min_size=2, max_size=2)), max_size=6)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_text_rows)
@example(rows=[["1.5", "2"], ["\x1c5", "1"]])   # numpy's loadtxt takes \x1c
@example(rows=[["1_000", "2"], ["\u0661", "-1"]])  # loadtxt refuses them
@example(rows=[['"1.5"', "2"], ["", ""], [" "], [], ["3", "4 "]])
def test_read_csv_numpy_parse_is_float_or_the_cell_loop(tmp_path, rows):
    """Whichever way a file is parsed, it reads as float() reads its cells:
    every value bitwise float(cell) when each kept line has two finite
    cells, else a DataError at the first line that has not."""
    path = tmp_path / "t.csv"
    text = "a,b\n" + "".join(",".join(row) + "\n" for row in rows)
    path.write_text(text)
    try:
        got = read_csv_columns(path, ["a", "b"])
    except DataError as exc:
        got = exc
    values, bad = [], None
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if lineno == 1 or not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            parsed = [float(cell) for cell in row]
        except ValueError:
            parsed = []
        if len(row) != 2 or len(parsed) != 2 or \
                not all(map(math.isfinite, parsed)):
            bad = lineno
            break
        values.append(parsed)
    if bad is None and values:
        want = np.array(values).T
        assert not isinstance(got, Exception), got
        assert all(got[c].dtype == float and got[c].tobytes() == w.tobytes()
                   for c, w in zip("ab", want))
    else:
        assert isinstance(got, DataError)
        assert (": line %d: " % bad if bad else ": no data rows") in str(got)


def test_read_csv_plain_file_takes_one_numpy_call(tmp_path, monkeypatch):
    # a plain file never reaches the cell loop's csv reader
    p = tmp_path / "t.csv"
    p.write_text("a,b\n0.0,2.5e-3\n1e-3,-4.25 \n\n")
    monkeypatch.setattr(datafiles.csv, "reader", None)
    cols = read_csv_columns(p, ["a", "b"])
    assert cols["a"].tolist() == [0.0, 1e-3]
    assert cols["b"].tolist() == [2.5e-3, -4.25]


def test_read_ringdown(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("time_s,n\n0.0,1e10\n0.001,5e9\n0.002,2.5e9\n")
    t, n = read_ringdown_csv(p)
    assert t[0] == 0.0 and len(t) == 3
    assert n[2] == 2.5e9


def test_read_ringdown_validation(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("time_s,n\n0.001,1e10\n0.002,5e9\n")
    with pytest.raises(DataError):
        read_ringdown_csv(p)  # missing t = 0 reference
    p.write_text("time_s,n\n0.0,1e10\n0.002,5e9\n0.001,2e9\n")
    with pytest.raises(DataError):
        read_ringdown_csv(p)  # non-increasing times
    p.write_text("time_s,n\n0.0,1e10\n0.001,-5e9\n")
    with pytest.raises(DataError):
        read_ringdown_csv(p)  # non-positive photon number


def test_read_sweep(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("frequency_hz,re_s11,im_s11\n7.9e9,0.5,-0.1\n7.90001e9,0.4,0.2\n")
    f, s = read_sweep_csv(p)
    assert f[0] == 7.9e9
    assert s[0] == pytest.approx(0.5 - 0.1j)
    assert s[1] == pytest.approx(0.4 + 0.2j)


def test_read_trace_watts_and_dbm(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("time_s,power_w\n0.0,1e-12\n0.001,5e-13\n")
    t, w = read_trace_csv(p)
    assert w[0] == 1e-12
    q = tmp_path / "q.csv"
    q.write_text("time_s,power_w\n0.0,-90.0\n0.001,-93.0\n")
    t2, w2 = read_trace_csv(q, dbm=True)
    assert w2[0] == pytest.approx(1e-12, rel=1e-12)
    assert w2[1] == pytest.approx(10.0 ** ((-93.0 - 30.0) / 10.0), rel=1e-12)


def test_missing_file():
    with pytest.raises(DataError):
        read_ringdown_csv("/nonexistent/path.csv")


_cell = hst.one_of(
    hst.floats(),
    hst.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                      -2.2250738585072014e-308, 1.7976931348623157e308]),
    hst.floats(max_value=2.2250738585072014e-308,
               min_value=-2.2250738585072014e-308),
    hst.floats().map(np.float64),
    hst.floats(width=32).map(np.float32),
    hst.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    hst.integers(-10 ** 40, 10 ** 40))

_table = hst.integers(1, 4).flatmap(lambda width: hst.lists(
    hst.lists(_cell, min_size=width, max_size=width), max_size=12).map(
        lambda rows: (width, rows)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_table)
def test_write_csv_matches_per_cell_repr(tmp_path, table):
    width, rows = table
    header = ",".join("c%d" % i for i in range(width))
    columns = [[row[i] for row in rows] for i in range(width)]
    path = tmp_path / "t.csv"
    write_csv(path, header, map(cells, columns))
    assert path.read_bytes() == oracles.csv_text(header, rows).encode()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _write_column(record, k, target, rows):
    write_csv(target, None if rows.start else "x", [cells(record[rows, k])])


def _columns(out, count, rows=50, block=10):
    """write_files's arguments for count one-column files in out: file k
    holds column k of a (rows, count) record, which run fills block rows at
    a time."""
    def plan(record):
        return [functools.partial(_write_column, record, k)
                for k in range(count)]

    def run(record, progress):
        for start in range(0, rows, block):
            stop = min(start + block, rows)
            record[start:stop] = (np.arange(start, stop)[:, None]
                                  + np.arange(count)) / 7.0
            progress(stop)

    return ([out / ("c%02d.csv" % k) for k in range(count)], (rows, count),
            plan, run)


def _tree(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


def _serial_tree(path, count, **sizes):
    path.mkdir()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datafiles, "usable_cpus", lambda: 1)
        write_files(*_columns(path, count, **sizes))
    return _tree(path)


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_write_files_split_matches_serial(tmp_path, monkeypatch, cpus):
    serial = _serial_tree(tmp_path / "serial", 5)
    split = tmp_path / "split"
    split.mkdir()
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: cpus)
    write_files(*_columns(split, 5))
    assert_no_child_left()
    assert len(serial) == 5
    assert _tree(split) == serial


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_write_files_returns_each_files_digest(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: cpus)
    paths, shape, plan, run = _columns(tmp_path, 7)
    digests = write_files(paths, shape, plan, run)
    assert_no_child_left()
    assert digests == [hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in paths]


def test_write_files_claims_past_one_byte(tmp_path, monkeypatch):
    # 300 files: a claim does not fit one byte
    serial = _serial_tree(tmp_path / "serial", 300)
    split = tmp_path / "split"
    split.mkdir()
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: 3)
    write_files(*_columns(split, 300))
    assert_no_child_left()
    assert len(serial) == 300
    assert _tree(split) == serial


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                    reason="needs a pipe whose size can be set")
def test_write_files_keeps_what_the_queue_cannot_hold(tmp_path,
                                                      monkeypatch):
    # a one-page pipe (1024 claims of 4 bytes at 4 KiB pages): the parent
    # writes the 76 files past it
    pipe = os.pipe

    def one_page_pipe():
        read, write = pipe()
        one_page[:] = [fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)]
        return read, write

    one_page = []
    for fd in one_page_pipe():
        os.close(fd)
    count = one_page[0] // 4 + 76
    queue, made = datafiles._claim_queue, []
    monkeypatch.setattr(os, "pipe", one_page_pipe)
    monkeypatch.setattr(datafiles, "_claim_queue", lambda count: (
        made.append(queue(count)) or made[0]))
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: 2)
    write_files(*_columns(tmp_path, count))
    assert_no_child_left()
    assert made[0][1] == count - 76
    assert sorted(os.listdir(tmp_path)) == sorted("c%02d.csv" % k
                                                  for k in range(count))


@pytest.mark.parametrize("cpus", [2, 3])
def test_write_files_children_format_while_run_runs(tmp_path, monkeypatch,
                                                    cpus):
    # every row is final well before run returns: a child has formatted
    # some of them by then
    out, log = tmp_path / "out", tmp_path / "formatted"
    out.mkdir()
    paths, shape, plan, run = _columns(out, 6)
    parent = os.getpid()
    seen = []

    def logged(record):
        def writer(inner, target, rows):
            with open(log, "a") as handle:
                handle.write("%d\n" % os.getpid())
            inner(target, rows)
        return [functools.partial(writer, w) for w in plan(record)]

    def slow_run(record, progress):
        run(record, progress)
        time.sleep(0.3)
        seen.extend(log.read_text().split() if log.exists() else [])

    monkeypatch.setattr(datafiles, "usable_cpus", lambda: cpus)
    write_files(paths, shape, logged, slow_run)
    assert_no_child_left()
    assert any(int(pid) != parent for pid in seen)
    assert _tree(out) == _serial_tree(tmp_path / "serial", 6)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_write_files_writes_nothing_when_the_check_fails(tmp_path,
                                                         monkeypatch, cpus,
                                                         error):
    # every row is final and the children format their claims; the check
    # fails (or is interrupted) after they had time to
    paths, shape, plan, run = _columns(tmp_path, 6)

    def checked_fails(record, progress):
        run(record, progress)
        time.sleep(0.2)
        raise error("check failed")

    monkeypatch.setattr(datafiles, "usable_cpus", lambda: cpus)
    with pytest.raises(error):
        write_files(paths, shape, plan, checked_fails)
    assert_no_child_left()
    assert os.listdir(tmp_path) == []


def test_write_files_children_write_after_the_check(tmp_path, monkeypatch):
    paths, shape, plan, run = _columns(tmp_path, 6)
    before = []

    def slow_check(record, progress):
        run(record, progress)
        time.sleep(0.2)
        before.extend(os.listdir(tmp_path))

    monkeypatch.setattr(datafiles, "usable_cpus", lambda: 3)
    write_files(paths, shape, plan, slow_check)
    assert_no_child_left()
    assert before == []
    assert len(os.listdir(tmp_path)) == 6


def _only_in(parent, out, last=False):
    """write_files's arguments for four files whose writers fail in any
    process but parent: on every call, or with last=True only on the call
    that reaches the last row."""
    paths, shape, plan, run = _columns(out, 4)

    def failing(record):
        def writer(inner, target, rows):
            if os.getpid() != parent and (not last or rows.stop == shape[0]):
                raise OSError("not in the parent")
            inner(target, rows)
        return [functools.partial(writer, w) for w in plan(record)]
    return paths, shape, failing, run


def test_write_files_reruns_a_failed_child_share(tmp_path, monkeypatch):
    # every writer fails in the child: it exits nonzero while run still
    # makes rows final, and the parent writes every file itself
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: 2)
    paths, shape, plan, run = args = _only_in(os.getpid(), tmp_path)

    def slow_run(record, progress):
        def slow_progress(done):
            time.sleep(0.05)
            progress(done)
        run(record, slow_progress)

    digests = write_files(paths, shape, plan, slow_run)
    assert_no_child_left()
    assert sorted(os.listdir(tmp_path)) == ["c00.csv", "c01.csv", "c02.csv",
                                            "c03.csv"]
    assert digests == [hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in args[0]]


def test_write_files_reruns_after_a_child_fails_at_the_last_row(
        tmp_path, monkeypatch):
    # the children stream their files' first rows, then fail
    serial = _serial_tree(tmp_path / "serial", 4)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: 3)
    write_files(*_only_in(os.getpid(), out, last=True))
    assert_no_child_left()
    assert _tree(out) == serial


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bad", [0, 3])
def test_write_files_raises_the_serial_error(tmp_path, monkeypatch, cpus,
                                             bad):
    # whichever process claims the blocked file: the serial run's error
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: cpus)
    (tmp_path / ("c%02d.csv" % bad)).mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_files(*_columns(tmp_path, 5))
    assert_no_child_left()
    assert info.value.filename == str(tmp_path / ("c%02d.csv" % bad))


def test_write_files_ignores_only_the_fork_thread_warning(tmp_path,
                                                          monkeypatch):
    # Python >= 3.12 warns from os.fork, in the parent, when the process
    # has other threads
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process (pid=%d) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child."
                          % os.getpid(), DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters = list(warnings.filters)
        write_files(*_columns(tmp_path, 2))
        assert warnings.filters == filters
        with pytest.raises(DeprecationWarning):
            warnings.warn("This process (pid=1) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.",
                          DeprecationWarning)
    assert_no_child_left()
    assert sorted(os.listdir(tmp_path)) == ["c00.csv", "c01.csv"]


def test_write_files_writes_an_unforked_share_itself(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: 3)
    write_files(*_columns(tmp_path, 5))
    assert sorted(os.listdir(tmp_path)) == ["c%02d.csv" % k for k in range(5)]
