"""Pinned free ring-down of the closed moment system, and kappa(t).

The cavity moment vector a = (n, <a>, <a*>)^T obeys a linear system da/dt =
A_S a + v_S whose coefficients are frozen over each coarse step and rebuilt
from the quasi-steady TLS states at the start of the step, with the
amplitude pinned to sqrt(n). The step itself is advanced with the exact
solution of the frozen system, so the only discretization error is the
freezing of the rates; a step-doubling self-check asserts the coarse grid
sits inside the validity window.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core, datafiles, tls_bath
from .errors import SaturationError, StepConvergenceError, StepWindowError


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus per-point photon number (array backed). The bath
    rates that drove each step are in the coarse record of _evolve."""

    times: np.ndarray
    n: np.ndarray


def _check_window(dt, t2max, cavity, margin):
    lo = margin * t2max
    hi = 1.0 / (margin * cavity.kappa0)
    if dt < lo * (1.0 - 1e-9):
        raise StepWindowError(
            "step dt = %g below the Markovian window (need >= %g = margin*T2*)"
            % (dt, lo))
    if dt > hi * (1.0 + 1e-9):
        raise StepWindowError(
            "step dt = %g above the Markovian window (need <= %g = 1/(margin*kappa0))"
            % (dt, hi))


# The coarse record of _evolve: per grid point, the recorded work rows Im
# Omega', -Re Omega', kappa_plus, kappa_minus, v1, kt, n after the step and
# n, each with one column per trajectory.
_RECORDED = 8
_IM_O, _MINUS_RE_O, _KP, _KM, _N = 0, 1, 2, 3, 7

# Grid points per progress call of a recording _evolve.
_PROGRESS_ROWS = 256


def record_shape(m_pts, rows):
    """The shape of the coarse record of rows trajectories over m_pts grid
    points, as evolve_table fills it."""
    return (m_pts, _RECORDED, rows)


def recorded_n(record, r):
    """The photon numbers of trajectory r in a coarse record."""
    return record[:, _N, r]


# Class sums (Re S, Im S, kappa_plus, kappa_minus) given to a row after its
# evolution failed: finite and positive, so the row keeps stepping inertly
# beside the live rows and never trips the per-step check again.
_INERT_SUMS = (0.0, 0.0, 0.25, 0.75)


def _evolve(table, cavity, n0, t_final, m_pts, history=None, progress=None,
            twins=0):
    """March B rows over m_pts grid points in lockstep, exact step at frozen
    rates; one Trajectory, or the exception that stopped it, per row.

    The last twins of the B rows are twins at twice the step: each runs on
    its own grid, the (m_pts + 1) // 2 points of np.linspace(0, t_last,
    (m_pts + 1) // 2) with t_last the grid's last even point, and gets the
    Trajectory, or the exception, that a call of its own over that grid
    would give. A twin steps on every pass like the other rows, so it costs
    no pass of its own. Only its n is kept, outside history. Its grid ends
    on pass (m_pts + 1) // 2 - 1; from there it steps from n = 1 at the
    inert rates of a stopped row, so nothing past t_last stops any row.

    The other B - twins rows are recorded in history, an array of
    record_shape(m_pts, B - twins) (by default a new one), one grid point
    after the other. progress(done), where given, is called whenever
    history[:done] is final: every _PROGRESS_ROWS grid points, then with
    m_pts at the end. A final grid point never changes: the unchecked run
    reports a block only while every step so far passed the checks, and a
    guarded rerun records those steps again bit for bit.

    table is a ClassTable of the B rows; n0 holds each row's initial photon
    number; the step dt is a row's own, one entry per column of the work
    array (below). Each step starts from <a> = sqrt(n). With kt = kappa0 +
    kappa_minus - kappa_plus (net gain, kt <= 0, has no stable moment
    solution and stops the row) and v1 = kappa_plus + kappa0 f_cav:
    n(dt) = a + b e^{-kt*dt} + c e^{-kt*dt/2} with
        a = v1/kt + 4|O'|^2/kt^2
        c = (4/kt) Re[i O' <a>] - 8|O'|^2/kt^2
        b = n_prev - a - c
    in the operation order kt = (kappa_minus + kappa0) - kappa_plus, q =
    ((Im O')^2 + (Re O')^2) / (kt kt), a = v1 / kt + 4 q, c = (((Im O' <a>)
    (-4)) / kt) + (-8) q, b = (n - a) - c, e = exp(kt (-dt/2)) and n(dt) =
    (a + b (e e)) + c e. Every operation is elementwise over the rows or a
    per-row sum over the class axis, so a row's numbers do not depend on
    the other rows.

    All state lives in one work array, a row per quantity and a column per
    trajectory (a lone one gets a discarded second column, see
    rate_kernel), laid out so that every operand of the step's numpy calls
    is a C-contiguous block of the output's shape, one row or a 0-d
    constant (numpy's flat fast path, about half the cost of a reversed,
    stepped or broadcast operand). A pass makes 37 numpy
    calls, rate_kernel's ten among them, as straight-line code in one
    Python frame, and allocates nothing. The loop runs unchecked, keeping
    the running minimum of the rates, v1, kt and n after the step; a group
    whose minimum ends negative or nan runs once more with the per-step
    clamp and stop, so its failing rows get the checked result bit for bit.
    The step only squares Re Omega': the loop keeps -Re Omega', and the
    record holds it so.
    """
    n0 = np.asarray(n0, dtype=float).reshape(-1)
    rows = len(n0) - twins
    cols = max(len(n0), 2)
    times = twin_times = np.linspace(0.0, t_final, m_pts)
    # Rows: 0 the bare thermal feed kappa0 f(omega0, T), 1 kappa0; the class
    # sums 2 Re S, 3 Im S (then in place 2 Im O', 3 -Re O'), 4 kappa_plus,
    # 5 kappa_minus; 6 v1, 7 kt, 8 n after the step (4-8 are checked); 9 n
    # (2-9 are recorded), 10 n again and 11 |<a>|^2 (kernel state 9-11);
    # 12 and 13 <a>; 14 (Im O')^2, 15 (Re O')^2; 16 a, 17 c, 18 b;
    # 19 e^{-kt dt/2}, 20 its square; 21 c e, 22 b e^2; 23 q =
    # |O'|^2/kt^2; 24 kt^2; 25 -dt/2; 26 4q, 27 -8q.
    work = np.zeros((28, cols))
    (_, _, o_im, _, kp, km, v1, kt, n_next, n, _, amp2, ar, _, sq_im, sq_re,
     a_t, c_t, b_t, eh, eh2, ce, be2, q, kt2, decay, q4, q8) = work
    work[0], work[1] = cavity.kappa0 * core.bose_einstein(
        cavity.omega0, cavity.temperature), cavity.kappa0
    decay[:] = -0.5 * (times[1] - times[0])
    # the twins' columns, their grid and the pass on which it ends (none
    # without twins), and their n at each of its points
    m_twin, retire, spare = 0, m_pts, slice(rows, rows + twins)
    if twins:
        m_twin = (m_pts + 1) // 2
        retire = m_twin - 1
        twin_times = np.linspace(0.0, times[2 * retire], m_twin)
        decay[spare] = -0.5 * (twin_times[1] - twin_times[0])
    twin_n, twin_state = work[9, spare], work[9:11, spare]
    twin_log = np.empty((m_twin, twins))
    sums, checked, record = work[2:6], work[4:9], work[2:10, :rows]
    omega, state, both_n, amps = (work[2:4], work[9:12], work[9:11],
                                  work[12:14])
    rates, feeds, v1_kt, squares = (work[4:6], work[0:2], work[6:8],
                                    work[14:16])
    terms, weighted_q, cb, e_pair, prods = (
        work[16:18], work[26:28], work[17:19], work[19:21], work[21:23])
    if history is None:
        history = np.empty(record_shape(m_pts, rows))
    lowest = np.full(checked.shape, np.inf)
    four, minus_four, minus_eight = (np.array(c) for c in (4.0, -4.0, -8.0))
    rate_sums = table.rate_kernel(state, sums)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    sqrt, exp, minimum = np.sqrt, np.exp, np.minimum
    errors, dead = [None] * cols, []
    inert = np.array(_INERT_SUMS)[:, None]
    last = m_pts - 1

    def kill(r, exc):
        errors[r] = exc
        dead.append(r)
        sums[:, r] = _INERT_SUMS

    def run(guarded):
        # one pass per k, straight-line: every ufunc takes its output
        # positionally but np.minimum, whose positional out numpy 2.4
        # deprecates (the warning costs more than the call)
        both_n[...] = n0
        for first in range(0, m_pts, _PROGRESS_ROWS):
            if first and progress and (guarded or lowest.min() >= 0.0):
                progress(first)
            for k in range(first, min(first + _PROGRESS_ROWS, m_pts)):
                if k < m_twin:
                    twin_log[k] = twin_n
                    if k == retire:     # the twins' last point: park them
                        twin_state[...] = 1.0
                sqrt(both_n, amps)
                mul(ar, ar, amp2)
                rate_sums()
                if k >= retire:
                    sums[:, spare] = inert
                if dead:
                    sums[:, dead] = inert
                # Omega' = i conj(<a>) S = (-<a> Im S, <a> Re S), kept as
                # (Im O', -Re O'); Re negated where it is read
                mul(amps, omega, omega)
                history[k] = record
                if k == last:
                    break
                # the step; a guarded pass that finds a negative or nan
                # value clamps the rates and takes it once more
                fixed = False
                while True:
                    add(rates, feeds, v1_kt)
                    sub(kt, kp, kt)
                    mul(kt, kt, kt2)
                    mul(kt, decay, eh)
                    mul(omega, omega, squares)
                    add(sq_im, sq_re, q)
                    div(q, kt2, q)
                    # terms = (a, c): v1/kt + 4q and (4/kt) Re[i O' <a>] - 8q
                    mul(o_im, ar, c_t)
                    mul(c_t, minus_four, c_t)
                    div(v1, kt, a_t)
                    div(c_t, kt, c_t)
                    mul(q, four, q4)
                    mul(q, minus_eight, q8)
                    add(terms, weighted_q, terms)
                    sub(n, a_t, b_t)
                    sub(b_t, c_t, b_t)
                    exp(eh, eh)
                    # n(k+1) = (a + b e^2) + c e
                    mul(eh, eh, eh2)
                    mul(cb, e_pair, prods)
                    add(a_t, be2, n_next)
                    add(n_next, ce, n_next)
                    if not guarded or fixed or \
                            minimum.reduce(checked, axis=None) >= 0.0:
                        break
                    # some row has a negative (or nan) rate, kt or n: redo
                    # the step with the per-row clamp, then stop the rows
                    # that fail below (each test written so that nan fails)
                    fixed = True
                    for r in range(cols):
                        if r not in dead and not (kp[r] >= 0.0
                                                  and km[r] >= 0.0):
                            try:
                                kp[r], km[r] = tls_bath.clamp_rates(
                                    float(kp[r]), float(km[r]))
                            except ValueError as exc:
                                kill(r, exc)
                if not guarded:
                    minimum(lowest, checked, out=lowest)
                elif fixed:
                    for r in range(cols):
                        if r in dead:
                            continue
                        if not kt[r] > 0.0:
                            kill(r, SaturationError(
                                "kappa_tilde = %g, not > 0, at t = %g"
                                % (kt[r],
                                   (times if r < rows else twin_times)[k])))
                        elif not n_next[r] >= 0.0:
                            if n_next[r] > -1e-25:
                                n_next[r] = 0.0
                            else:
                                kill(r, SaturationError(
                                    "photon number %g, not >= 0"
                                    % n_next[r]))
                    n_next[dead] = 1.0
                    history[k] = record
                both_n[...] = n_next

    # a failing row may overflow or divide by zero before the per-row
    # checks below stop it; they, not numpy warnings, report the failure
    with np.errstate(all="ignore"):
        run(False)
        if not lowest.min() >= 0.0:
            run(True)
    if progress:
        progress(m_pts)

    return [errors[r] or Trajectory(times, history[:, _N, r].copy())
            for r in range(rows)] + [
        errors[rows + j] or Trajectory(twin_times, twin_log[:, j].copy())
        for j in range(twins)]


def evolve_table(table, cavity, n0, t_final, m_steps, *, verify=True,
                 window_margin=10.0, record=None, progress=None):
    """Free decay of the rows of a ClassTable, row b from n0[b] photons, on
    the m_steps-point grid over [0, t_final]; one Trajectory, or the
    exception that stopped it, per row, bitwise what the row gets alone.
    verify is one flag or one per row; every check of the step loop applies
    per row. The rows inside their Markovian window run as one lockstep
    group, in one _evolve call; when that group is every row, _evolve
    records it in record (an array of record_shape(m_steps, B)) and calls
    progress, where given.

    The step check is step doubling: each verified row of the group runs
    once more at twice the step over the (m_steps + 1) // 2 even points of
    the grid (up to its last point but one when m_steps - 1 is odd), as a
    twin column of the same _evolve call, outside record. A row that got
    through takes its twin's exception, or a StepConvergenceError when
    doubling dt moved its n(t) by 2e-3 relative or more, or by nan. For
    this first-order step the doubling deviation is about twice the
    halving one. The run at 2h is only an error estimate, so it is not
    held to the Markovian window. A verified row needs m_steps >= 3, so
    that the two grids share a point after t = 0."""
    n0 = np.asarray(n0, dtype=float).reshape(-1)
    if not all(n > 0 for n in n0):
        raise ValueError("initial photon number must be > 0")
    if m_steps < 2:
        raise ValueError("m_steps must be >= 2")
    verify = np.broadcast_to(np.asarray(verify, dtype=bool), len(n0))
    if m_steps < 3 and verify.any():
        raise ValueError("m_steps must be >= 3 for a verified row")
    results, rows = [None] * len(n0), []
    for r, t2max in enumerate(table.t2max):
        try:
            _check_window(t_final / (m_steps - 1), t2max, cavity,
                          window_margin)
            rows.append(r)
        except StepWindowError as exc:
            results[r] = exc
    if len(rows) < len(n0):
        record = progress = None
    if not rows:
        return results
    twins = [r for r in rows if verify[r]]
    got = _evolve(table.take(rows + twins), cavity, n0[rows + twins],
                  t_final, m_steps, record, progress, len(twins))
    for r, res in zip(rows, got):
        results[r] = res
    for r, ref in zip(twins, got[len(rows):]):
        if isinstance(results[r], Exception):
            continue
        if isinstance(ref, Exception):
            results[r] = ref
            continue
        n = results[r].n[::2]
        dev = float(np.max(np.abs(n - ref.n) / np.maximum(np.abs(n), 1e-30)))
        if not dev < 2e-3:
            results[r] = StepConvergenceError(
                "doubling dt moved n(t) by %g relative up to t = %g "
                "(limit 2e-3)" % (dev, ref.times[-1]),
                deviation=dev, resolutions=(m_steps, len(ref.n)))
    return results


def evolve_ringdown(initial, classes, cavity, t_final, m_steps, *,
                    verify=True):
    """Free decay of the loaded cavity through the saturable bath.

    initial is the photon number at t = 0, classes one row of class arrays
    (g, count, T1, T_phi, omega_tls) and m_steps, required, the number of
    grid points over [0, t_final]. The amplitude entering the TLS
    coherences is reset to sqrt(n) at zero phase at every step (the
    recursive scheme of the reference analysis). verify=True runs a twin
    at twice the step in the same lockstep passes and asserts every shared
    n(t) moves < 2e-3 relative. This is the one-row case of evolve_table;
    a failed row raises its exception.
    """
    table = tls_bath.ClassTable(*classes, cavity.omega0, cavity.temperature)
    traj, = evolve_table(table, cavity, [initial], t_final, m_steps,
                         verify=verify)
    if isinstance(traj, Exception):
        raise traj
    return traj


def kappa_of_time(times, values):
    """Instantaneous-average decay rate kappa(t) = -ln(v/v0)/(t - t0)
    against the first point (t0, v0).

    Returns (times_out, kappa) with the first point excluded. values must
    be strictly positive.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")
    if np.any(values <= 0.0):
        raise ValueError("values must be strictly positive")
    tau = times[1:] - times[0]
    if np.any(tau == 0.0):
        raise ValueError("duplicate time at the reference point")
    return times[1:], -np.log(values[1:] / values[0]) / tau


def write_trajectory_csv(record, r, target, rows, times, time_cells):
    """Write the lines of the grid points rows (a slice) of trajectory r's
    CSV export, with its kappa(t) and bath rates, to target, an open text
    stream; the header line first when rows starts at 0. A file's text is
    these lines over consecutive slices of its grid, whichever they are.

    record is a coarse record (record_shape) final up to rows' end, times
    the grid as a list and time_cells datafiles.cells(times), formatted
    once for every trajectory of the grid. kappa is taken against the
    first point, where it is undefined and written as nan.
    """
    start = rows.start
    n = record[rows, _N, r].tolist()
    n_ref, t_ref = float(record[0, _N, r]), times[0]
    kappa = [-math.log(nk / n_ref) / (tk - t_ref) for nk, tk in zip(
        n[start == 0:], times[max(start, 1):rows.stop])]
    datafiles.write_csv(
        target, None if start else
        "time_s,n,kappa_t_1_per_s,kappa_plus,kappa_minus,re_omega_prime,"
        "im_omega_prime",
        [time_cells[rows], *map(datafiles.cells, (
            n, [math.nan] * (start == 0) + kappa, record[rows, _KP, r],
            record[rows, _KM, r], -record[rows, _MINUS_RE_O, r],
            record[rows, _IM_O, r]))])
