"""CSV readers for the measured-data inputs, the one CSV and JSON writers,
and the runner that writes a command's files on every usable CPU while
the command's checks still run.

All parse failures raise DataError with the offending line number.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import select
import signal
import struct
import warnings

import numpy as np

from .errors import DataError


def read_csv_columns(path, columns):
    """Read a CSV with an exact header into a dict of float arrays."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError("cannot open %s: %s" % (path, exc)) from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("%s: empty file" % path) from None
        header = [h.strip() for h in header]
        if header != list(columns):
            raise DataError("%s: line 1: expected header %s, found %s"
                            % (path, ",".join(columns), ",".join(header)))
        data = {c: [] for c in columns}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(columns):
                raise DataError("%s: line %d: expected %d fields, found %d"
                                % (path, lineno, len(columns), len(row)))
            for col, cell in zip(columns, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        "%s: line %d: cannot parse %r as a number in "
                        "column %s" % (path, lineno, cell, col)) from None
                if not math.isfinite(value):
                    raise DataError("%s: line %d: %r in column %s"
                                    % (path, lineno, value, col))
                data[col].append(value)
    if not data[columns[0]]:
        raise DataError("%s: no data rows" % path)
    return {c: np.array(v, dtype=float) for c, v in data.items()}


def read_ringdown_csv(path):
    """(times, photon numbers); first row must be the t = 0 reference."""
    data = read_csv_columns(path, ("time_s", "n"))
    times, n = data["time_s"], data["n"]
    if times[0] != 0.0:
        raise DataError("%s: first row must have time_s = 0 (the reference "
                        "point)" % path)
    if np.any(np.diff(times) <= 0):
        raise DataError("%s: time_s must be strictly increasing" % path)
    if np.any(n <= 0):
        raise DataError("%s: photon numbers must be positive" % path)
    return times, n


def read_sweep_csv(path):
    """Complex reflection sweep: (frequencies, complex S11)."""
    data = read_csv_columns(path, ("frequency_hz", "re_s11", "im_s11"))
    freqs = data["frequency_hz"]
    if np.any(np.diff(freqs) <= 0):
        raise DataError("%s: frequency_hz must be strictly increasing"
                        % path)
    return freqs, data["re_s11"] + 1j * data["im_s11"]


def read_trace_csv(path, dbm=False):
    """Reflected-power trace: (times, powers in W).

    dbm=True reinterprets the power column as dBm and converts,
    P[W] = 10**((P[dBm] - 30)/10).
    """
    data = read_csv_columns(path, ("time_s", "power_w"))
    times, power = data["time_s"], data["power_w"]
    if np.any(np.diff(times) <= 0):
        raise DataError("%s: time_s must be strictly increasing" % path)
    if dbm:
        power = 10.0 ** ((power - 30.0) / 10.0)
    elif np.any(power < 0):
        raise DataError("%s: powers in W must be non-negative" % path)
    return times, power


def cells(values):
    """The CSV cells of a column: repr of each value as a float, which
    round-trips exactly and writes nan, inf and -inf by name."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def write_csv(path, header, columns):
    """Write a header line, then one line per row of the columns, each
    column a list of cells() (all of one length), to path: a file name, or
    an open text stream."""
    with (contextlib.nullcontext(path) if hasattr(path, "write")
          else open(path, "w", newline="")) as handle:
        handle.write(header + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*columns))


# Python >= 3.12 gives this DeprecationWarning from os.fork in a process
# that has other threads.
_FORK_WARNING = r"This process .* is multi-threaded, use of fork\(\)"

# One claim on the queue of write_files: a file's index in 4 bytes.
_CLAIM = struct.Struct("<I")


def usable_cpus():
    """The number of CPUs this process may run on; 1 where os.fork or
    os.sched_getaffinity is missing, so that write_files runs serially."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def write_files(count, plan):
    """Write the count files that plan lists, on every usable CPU, once
    plan's own checks have passed.

    plan(checked) returns count (path, writer) pairs in a fixed order;
    writer(target) writes one file's text to target, its path or an open
    text stream. plan(True) is the authority: where it raises, no file is
    written and its exception propagates. Where plan(True) returns,
    plan(False) must list the same files with the same text, but may skip
    the checks.

    With k = min(usable_cpus(), count) < 2 this is plan(True), then each
    writer in turn. Otherwise the parent queues every file's index in a
    pipe and forks k - 1 children before it calls plan(True). Each child
    calls plan(False) and claims files from the queue, formatting them
    into memory, until plan(True) has returned in the parent; then it
    writes what it holds, writes every further claim straight to its file
    and ends with os._exit. The parent claims files the same way once
    plan(True) has returned, and kills every child if plan(True) raises.
    It reaps every child before it returns or raises; if one exited
    nonzero, the parent writes again itself, in order, every file it did
    not write, so a failure raises here the exception, and message, of the
    serial run. Each file is written whole by one process, so its bytes
    depend neither on the CPU count nor on who claimed it. Claims that do
    not fit the pipe (past 16384 files on a 64 KiB pipe) are the parent's.

    A child prints nothing and must call no BLAS, so OpenBLAS's thread
    pool in the parent cannot deadlock it. On Python >= 3.12 os.fork warns
    (DeprecationWarning) in a process with threads; that one warning is
    ignored around the fork calls, and the warning filters are restored
    after them.
    """
    workers = min(usable_cpus(), count)
    if workers < 2:
        for path, writer in plan(True):
            writer(path)
        return
    queue, queued = _claim_queue(count)
    go_read, go_write = os.pipe()
    children, written, told = [], set(), False
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING,
                                    DeprecationWarning)
            for _ in range(workers - 1):
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: the parent writes
                    break
                if pid == 0:
                    code = 1
                    try:
                        os.close(go_write)
                        _child(plan, queue, go_read)
                        code = 0
                    finally:
                        os._exit(code)
                children.append(pid)
        files = plan(True)
        os.write(go_write, b"g" * len(children))
        told = True
        for i in itertools.chain(_claims(queue), range(queued, count)):
            path, writer = files[i]
            writer(path)
            written.add(i)
    finally:
        for fd in (queue, go_read, go_write):
            os.close(fd)
        if not told:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
        failed = [pid for pid in children if not _exited_ok(pid)]
    if failed:
        for i, (path, writer) in enumerate(files):
            if i not in written:
                writer(path)


def _claim_queue(count):
    """A pipe's read end queuing the claims of files 0, 1, ..., and how
    many it holds: all that fit, in whole PIPE_BUF blocks, each written at
    once or not at all. Its write end is closed, so a read returns b""
    once the queue is empty."""
    read, write = os.pipe()
    os.set_blocking(write, False)
    claims = b"".join(_CLAIM.pack(i) for i in range(count))
    queued = 0
    try:
        for start in range(0, len(claims), select.PIPE_BUF):
            queued += os.write(write, claims[start:start + select.PIPE_BUF])
    except BlockingIOError:  # the pipe is full: the rest is the parent's
        pass
    finally:
        os.close(write)
    return read, queued // _CLAIM.size


def _claims(queue):
    """Claim file indices from the queue until it is empty."""
    while claim := os.read(queue, _CLAIM.size):
        yield _CLAIM.unpack(claim)[0]


def _child(plan, queue, go):
    """A child's share of write_files: format claimed files into memory
    until the parent's word is in on the pipe go, then write them and every
    further claim. An empty read on go (plan(True) failed, or the parent
    is gone) writes nothing."""
    warnings.simplefilter("ignore")
    files = plan(False)
    held = []
    word = select.poll()
    word.register(go, select.POLLIN)
    while not word.poll(0):
        i = next(_claims(queue), None)
        if i is None:
            break
        path, writer = files[i]
        text = io.StringIO()
        writer(text)
        held.append((path, text.getvalue()))
    if os.read(go, 1) != b"g":
        return
    for path, text in held:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    for i in _claims(queue):
        path, writer = files[i]
        writer(path)


def _exited_ok(pid):
    """Reap child pid; True when it exited with status 0."""
    try:
        return os.waitpid(pid, 0)[1] == 0
    except ChildProcessError:  # reaped elsewhere: its status is lost
        return False


def json_text(payload, **kwargs):
    """json.dumps as strict JSON: each non-finite float written as null."""
    plain = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(plain, allow_nan=False, **kwargs)
