"""CSV readers for the measured-data inputs, write_text, the one writer of
an output file, and the runner that writes a command's files on every
usable CPU while the command's checks still run.

All parse failures raise DataError with the offending line number.
"""

import codecs
import csv
import hashlib
import io
import itertools
import json
import math
import mmap
import os
import select
import signal
import struct
import warnings

import numpy as np

from .errors import DataError


# The characters of a body that read_csv_columns parses in one numpy call:
# ASCII digits, signs, points, exponents, the delimiter, the space and the
# newline. Names like nan, other whitespace (numpy's loadtxt strips some
# that float() refuses), quotes and carriage returns take the cell loop.
_PLAIN_BODY = b"0123456789+-.eE, \n"


def read_csv_columns(path, columns):
    """Read a CSV with an exact header into a dict of float arrays.

    A plain file, the header line as given and then lines of _PLAIN_BODY
    characters only, is parsed in one numpy call; on those characters
    numpy parses a cell as float() does. A file that call refuses, or
    reads as no row, a non-finite value or a wrong field count, is read
    again cell by cell with float(), which names the offending line, as
    does a line csv refuses. A file that is not UTF-8 (after a leading
    byte-order mark) is refused with the line of its first bad byte."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DataError("cannot open %s: %s" % (path, exc)) from exc
    # not decoded as utf-8-sig, whose error offsets leave the mark out
    raw = raw.removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines up to the bad byte, which is no line break itself
        raise DataError("%s: line %d: not UTF-8 text (byte 0x%02x)"
                        % (path, len(raw[:exc.start + 1].splitlines()),
                           raw[exc.start])) from None
    head, _, body = text.partition("\n")
    if head == ",".join(columns) and body.isascii() and \
            not body.encode().translate(None, _PLAIN_BODY):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body warns
            try:
                table = np.loadtxt(io.StringIO(body), delimiter=",",
                                   comments=None, ndmin=2)
            except ValueError:
                table = np.empty((0, 0))
        if len(table) and table.shape[1] == len(columns) and \
                np.isfinite(table).all():
            return dict(zip(columns, table.T.copy()))
    # newline="": the lines the file gave when read as text
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a field over its size limit, a NUL byte
        raise DataError("%s: line %d: %s"
                        % (path, reader.line_num, exc)) from None
    if not rows:
        raise DataError("%s: empty file" % path)
    header = [h.strip() for h in rows[0]]
    if header != list(columns):
        raise DataError("%s: line 1: expected header %s, found %s"
                        % (path, ",".join(columns), ",".join(header)))
    data = {c: [] for c in columns}
    for lineno, row in enumerate(rows[1:], start=2):
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
    if len(times) < 2:
        raise DataError("%s: no row after the t = 0 reference" % path)
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
        with np.errstate(over="ignore"):
            power = 10.0 ** ((power - 30.0) / 10.0)
        if not np.all(np.isfinite(power)):
            raise DataError("%s: power_w is too large in W at time_s %r"
                            % (path, float(times[~np.isfinite(power)][0])))
    elif np.any(power < 0):
        raise DataError("%s: powers in W must be non-negative" % path)
    return times, power


def cells(values):
    """The CSV cells of a column: repr of each value as a float, which
    round-trips exactly and writes nan, inf and -inf by name."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def write_csv(target, header, columns):
    """Write a header line (none where header is None), then one line per
    row of the columns, each column a list of cells() (all of one length),
    to target: an open text stream, or a path, which write_text writes;
    for a path, the SHA-256 digest write_text returns."""
    text = "" if header is None else header + "\n"
    text += "".join(",".join(row) + "\n" for row in zip(*columns))
    if not hasattr(target, "write"):
        return write_text(target, text)
    target.write(text)


def write_text(path, text):
    """Write text to path as UTF-8, the one way the package writes an
    output file; the hex SHA-256 digest of the bytes written."""
    data = text.encode()
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()


# Python >= 3.12 gives this DeprecationWarning from os.fork in a process
# that has other threads.
_FORK_WARNING = r"This process .* is multi-threaded, use of fork\(\)"

# One claim on the queue of write_files: a file's index in 4 bytes.
_CLAIM = struct.Struct("<I")

# One word to a writer child: how many of the record's rows are final, or
# _GO: the run's checks have passed.
_WORD = struct.Struct("<Q")
_GO = 2 ** 64 - 1

# One file a writer child wrote: its index and the SHA-256 of its bytes.
_DIGEST = struct.Struct("<I32s")


def usable_cpus():
    """The number of CPUs this process may run on; 1 where os.fork or
    os.sched_getaffinity is missing, so that write_files runs serially."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def write_files(paths, shape, plan, run):
    """Write the files paths from the rows of one float record of the given
    shape, on every usable CPU while run fills the record, once run's
    checks have passed; the SHA-256 digest of each file's bytes, in order.

    plan(record) returns one writer per path: writer(target, rows) writes
    the lines of the record's rows in the slice rows to target, an open
    text stream, the file's header first when rows starts at 0. A file's
    text is its writer's lines over consecutive slices of the rows,
    whichever they are. run(record, progress) fills the record row after
    row and calls progress(done) whenever record[:done] is final; a final
    row never changes. Where run raises, no file is written and its
    exception propagates.

    With k = min(usable_cpus(), len(paths)) < 2 this is run on a private
    record, then each writer over all rows in turn. Otherwise the record is
    one shared anonymous mmap. The parent queues every file's index in a
    pipe and forks k - 1 children before it calls run; each progress call
    goes to every child as a word on a pipe of its own. A child claims
    files from the queue and formats the final rows of each into memory,
    all its files in turn; when it has caught up it claims one more file,
    at most one per word. Once run has returned, the child formats the
    rest of its files, writes them, writes every further claim straight to
    its file, sends the parent each file's digest and ends with os._exit.
    The parent claims files the same way once run has returned, and kills
    every child if run raises. It reaps every child before it returns or
    raises; if one exited nonzero, the parent writes again itself, in
    order, every file it did not write, so a failure raises here the
    exception, and message, of the serial run.
    Each file is written whole by one process, so its bytes depend neither
    on the CPU count nor on who claimed it. Claims that do not fit the
    pipe (past 16384 files on a 64 KiB pipe) are the parent's.

    A child prints nothing and must call no BLAS, so OpenBLAS's thread
    pool in the parent cannot deadlock it. On Python >= 3.12 os.fork warns
    (DeprecationWarning) in a process with threads; that one warning is
    ignored around the fork calls, and the warning filters are restored
    after them.
    """
    count = len(paths)
    workers = min(usable_cpus(), count)
    if workers < 2:
        record = np.empty(shape)
        writers = plan(record)
        run(record, lambda done: None)
        return [_write_whole(path, writer, len(record))
                for path, writer in zip(paths, writers)]
    record = np.ndarray(shape, buffer=mmap.mmap(
        -1, max(math.prod(shape), 1) * np.dtype(float).itemsize))
    writers = plan(record)
    queue, queued = _claim_queue(count)
    sums, sent = os.pipe()
    children, words, digests, told = [], [], {}, False
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING,
                                    DeprecationWarning)
            for _ in range(workers - 1):
                word, say = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: the parent writes
                    os.close(word)
                    os.close(say)
                    break
                if pid == 0:
                    code = 1
                    try:
                        for fd in [sums, say] + words:
                            os.close(fd)
                        _child(paths, writers, len(record), queue, word,
                               sent)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(word)
                children.append(pid)
                words.append(say)

        def progress(done):
            for fd in list(words):
                try:
                    os.write(fd, _WORD.pack(done))
                except BrokenPipeError:  # the child has ended: it failed
                    words.remove(fd)
                    os.close(fd)

        run(record, progress)
        progress(_GO)
        told = True
        for i in itertools.chain(_claims(queue), range(queued, count)):
            digests[i] = _write_whole(paths[i], writers[i], len(record))
    finally:
        for fd in [queue, sent] + words:
            os.close(fd)
        if not told:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
        theirs = {i: d.hex() for i, d in _DIGEST.iter_unpack(_read_all(sums))}
        os.close(sums)
        failed = [pid for pid in children if not _exited_ok(pid)]
    if failed:
        for i in range(count):
            if i not in digests:
                digests[i] = _write_whole(paths[i], writers[i], len(record))
    digests = theirs | digests
    return [digests[i] for i in range(count)]


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


def _read_all(fd):
    """Everything read from fd until its end."""
    chunks = []
    while chunk := os.read(fd, 65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _write_whole(path, writer, rows):
    """Write a file's every row to path; the hex SHA-256 digest of its
    bytes."""
    text = io.StringIO()
    writer(text, slice(0, rows))
    return write_text(path, text.getvalue())


def _child(paths, writers, rows, queue, word, sent):
    """A child's share of write_files: format claimed files into memory as
    the parent's words on the pipe word make their rows final, and write
    them once the word is _GO; then write every further claim. The digest
    of each file written goes to the pipe sent. The end of word before _GO
    (run failed, or the parent is gone) writes nothing."""
    warnings.simplefilter("ignore")
    held, ready, go, idle, fresh = {}, 0, False, False, False
    poll = select.poll()
    poll.register(word, select.POLLIN)
    while not go:
        if poll.poll(None if idle else 0):
            # each word is written at once (it is under PIPE_BUF), so a
            # read of whole words returns whole words
            data = os.read(word, 512 * _WORD.size)
            if not data:
                return
            for (done,) in _WORD.iter_unpack(data):
                go = done == _GO
                ready = rows if go else done
            fresh = True
        idle = True
        for i, file in held.items():
            if file[1] < ready:
                writers[i](file[0], slice(file[1], ready))
                file[1], idle = ready, False
        # caught up: one more claim, at most one per word read, so that a
        # burst of claims while rows come slowly cannot leave the child
        # more rows to format than the parent records
        if idle and fresh and not go:
            i = next(_claims(queue), None)
            if i is not None:
                held[i], idle = [io.StringIO(), 0], False
            fresh = False
    for i, (text, _) in held.items():
        _send(sent, i, write_text(paths[i], text.getvalue()))
    for i in _claims(queue):
        _send(sent, i, _write_whole(paths[i], writers[i], rows))


def _send(sent, i, digest):
    """Tell the parent, on the pipe sent, file i's hex digest."""
    os.write(sent, _DIGEST.pack(i, bytes.fromhex(digest)))


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
