"""CSV readers for the measured-data inputs, and the one CSV writer.

All parse failures raise DataError with the offending line number.
"""

import csv
import math

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
                if math.isnan(value):
                    raise DataError("%s: line %d: nan in column %s"
                                    % (path, lineno, col))
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


def _fmt(value):
    """repr of the float: round-trips exactly; nan, inf and -inf by name."""
    return repr(float(value))


def write_csv(path, header, rows):
    """Write a header line, then one line of comma-separated numbers per
    row."""
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(map(_fmt, row)) + "\n")
