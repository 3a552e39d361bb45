"""CSV readers for the measured-data inputs, the one CSV and JSON writers,
and the runner that writes a command's files on every usable CPU.

All parse failures raise DataError with the offending line number.
"""

import csv
import json
import math
import os
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
    column a list of cells() (all of one length)."""
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*columns))


# Python >= 3.12 gives this DeprecationWarning from os.fork in a process
# that has other threads.
_FORK_WARNING = r"This process .* is multi-threaded, use of fork\(\)"


def usable_cpus():
    """The number of CPUs this process may run on; 1 where os.fork or
    os.sched_getaffinity is missing, so that write_files runs serially."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def write_files(writers):
    """Call each writer once: zero-argument callables that each format and
    write their file(s) through write_csv, files no other writer touches.

    With k >= 2 workers, k = min(usable_cpus(), len(writers)), the parent
    forks k - 1 children. Child i calls writers i, i + k, ... and ends with
    os._exit; the parent calls writers 0, k, 2k, ... and reaps every child
    before it returns or raises. The parent calls again itself the writers
    of a child that exited nonzero (or of one it could not fork), so a
    failure raises here the exception, and message, of the serial run.
    Each file is written whole by one process, so its bytes do not depend
    on the CPU count.

    A child only formats and writes: it calls no BLAS, so OpenBLAS's
    thread pool in the parent cannot deadlock it. On Python >= 3.12
    os.fork warns (DeprecationWarning) in a process with threads; that one
    warning is ignored around the fork calls, and the warning filters are
    restored after them.
    """
    workers = min(usable_cpus(), len(writers))
    if workers < 2:
        _call_each(writers)
        return
    children, rerun = [], []
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING,
                                    DeprecationWarning)
            for i in range(1, workers):
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: the parent writes
                    rerun.append(i)
                    continue
                if pid == 0:
                    code = 1
                    try:
                        _call_each(writers[i::workers])
                        code = 0
                    finally:
                        os._exit(code)
                children.append((pid, i))
        _call_each(writers[::workers])
    finally:
        rerun += [i for pid, i in children if not _exited_ok(pid)]
    for i in sorted(rerun):
        _call_each(writers[i::workers])


def _call_each(writers):
    for writer in writers:
        writer()


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
