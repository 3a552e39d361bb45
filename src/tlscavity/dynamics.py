"""Pinned free ring-down of the closed moment system, and kappa(t).

The cavity moment vector a = (n, <a>, <a*>)^T obeys a linear system da/dt =
A_S a + v_S whose coefficients are frozen over each coarse step and rebuilt
from the quasi-steady TLS states at the start of the step, with the
amplitude pinned to sqrt(n). The step itself is advanced with the exact
solution of the frozen system, so the only discretization error is the
freezing of the rates; a halving self-check asserts the coarse grid sits
inside the validity window.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core, datafiles, tls_bath
from .errors import SaturationError, StepConvergenceError, StepWindowError


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus per-point photon number and bath rates (array backed).

    rates[k] are the rates rebuilt from the state at times[k]; they drive the
    step from k to k+1. The final entry is diagnostic.
    """

    times: np.ndarray
    n: np.ndarray
    kappa_plus: np.ndarray
    kappa_minus: np.ndarray
    omega_prime: np.ndarray

    def __len__(self):
        return len(self.times)


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


# Class sums (Re S, Im S, kappa_plus, kappa_minus) given to a row after its
# evolution failed: finite and positive, so the row keeps stepping inertly
# beside the live rows and never trips the per-step check again.
_INERT_SUMS = (0.0, 0.0, 0.25, 0.75)


def _evolve(table, cavity, n0, t_final, m_pts, twins=()):
    """March B rows over m_pts grid points in lockstep, exact step at frozen
    rates, beside a verify twin at half the step of each row in the list
    twins; one Trajectory, or the exception that stopped it, per row, then
    the n array, or the exception, of each twin.

    table is a ClassTable of the B rows; n0 holds each row's initial photon
    number. Each step starts from <a> = sqrt(n). With kt = kappa0 +
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
    the other rows. With twins the loop makes 2 m_pts - 1 passes, one per
    halved-grid point: the twins advance on every pass, the B rows only on
    odd passes and are recorded on even ones, so the odd pass repeats the
    even one bit for bit. Each row's dt comes from its own grid's linspace.

    All state lives in one work array, a row per quantity and a column per
    trajectory (a lone one gets a discarded second column, see
    rate_kernel), laid out so that every operand of the step's numpy calls
    is a C-contiguous block of the output's shape, one row or a 0-d
    constant (numpy's flat fast path, about half the cost of a reversed,
    stepped or broadcast operand): a pass makes 36 numpy calls and
    allocates nothing. The loop runs unchecked, keeping the running minimum
    of the rates, v1, kt and n after the step; a group whose minimum ends
    negative or nan runs once more with the per-step clamp and stop, so its
    failing rows get the checked result bit for bit. The step only squares
    Re Omega': the loop keeps -Re Omega' and negates it once.
    """
    n0 = np.asarray(n0, dtype=float).reshape(-1)
    rows = len(n0)
    if twins:
        picked = list(range(rows)) + twins
        table, n0 = table.take(picked), n0[picked]
    cols = max(len(n0), 2)
    stride = 2 if twins else 1
    passes = stride * (m_pts - 1) + 1
    times, fine_times = (np.linspace(0.0, t_final, m)
                         for m in (m_pts, passes))
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
    decay[:] = np.repeat([-0.5 * (g[1] - g[0]) for g in (times, fine_times)],
                         (rows, len(twins)))
    sums, checked, record = work[2:6], work[4:9], work[2:10, :rows]
    omega, state, both_n, amps = (work[2:4], work[9:12], work[9:11],
                                  work[12:14])
    rates, feeds, v1_kt, squares = (work[4:6], work[0:2], work[6:8],
                                    work[14:16])
    terms, weighted_q, cb, e_pair, prods = (
        work[16:18], work[26:28], work[17:19], work[19:21], work[21:23])
    twin_n, twin_both, twin_next = n[rows:], both_n[:, rows:], n_next[rows:]
    history = np.empty((m_pts,) + record.shape)
    twin_history = np.empty((passes, len(twins)))
    lowest = np.full(checked.shape, np.inf)
    four, minus_four, minus_eight = (np.array(c) for c in (4.0, -4.0, -8.0))
    rate_sums = table.rate_kernel(state, sums)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    errors, dead = [None] * cols, []
    inert = np.array(_INERT_SUMS)[:, None]

    def advance():
        add(rates, feeds, out=v1_kt)
        sub(kt, kp, out=kt)
        mul(kt, kt, out=kt2)
        mul(kt, decay, out=eh)
        mul(omega, omega, out=squares)
        add(sq_im, sq_re, out=q)
        div(q, kt2, out=q)
        # terms = (a, c): v1/kt + 4q and (4/kt) Re[i O' <a>] - 8q
        mul(o_im, ar, out=c_t)
        mul(c_t, minus_four, out=c_t)
        div(v1, kt, out=a_t)
        div(c_t, kt, out=c_t)
        mul(q, four, out=q4)
        mul(q, minus_eight, out=q8)
        add(terms, weighted_q, out=terms)
        sub(n, a_t, out=b_t)
        sub(b_t, c_t, out=b_t)
        np.exp(eh, out=eh)
        # n(k+1) = (a + b e^2) + c e
        mul(eh, eh, out=eh2)
        mul(cb, e_pair, out=prods)
        add(a_t, be2, out=n_next)
        add(n_next, ce, out=n_next)

    def keep(k):
        if k % stride == 0:
            history[k // stride] = record
        if twins:
            twin_history[k] = twin_n

    def kill(r, exc):
        errors[r] = exc
        dead.append(r)
        sums[:, r] = _INERT_SUMS

    def run(guarded):
        both_n[...] = n0
        for k in range(passes):
            np.sqrt(both_n, out=amps)
            mul(ar, ar, out=amp2)
            rate_sums()
            if dead:
                sums[:, dead] = inert
            # Omega' = i conj(<a>) S = (-<a> Im S, <a> Re S), kept as
            # (Im O', -Re O'); Re negated after the loop
            mul(amps, omega, out=omega)
            keep(k)
            if k == passes - 1:
                break
            advance()
            if not guarded:
                np.minimum(lowest, checked, out=lowest)
            elif not np.minimum.reduce(checked, axis=None) >= 0.0:
                # some row has a negative (or nan) rate, kt or n: redo the
                # step with the per-row clamp, then stop the rows that fail
                for r in range(cols):
                    if r not in dead and (kp[r] < 0.0 or km[r] < 0.0):
                        try:
                            kp[r], km[r] = tls_bath.clamp_rates(
                                float(kp[r]), float(km[r]))
                        except ValueError as exc:
                            kill(r, exc)
                advance()
                for r in range(cols):
                    if r in dead:
                        continue
                    if kt[r] <= 0.0:
                        kill(r, SaturationError(
                            "kappa_tilde = %g <= 0 at t = %g"
                            % (kt[r], times[k // stride] if r < rows
                               else fine_times[k])))
                    elif n_next[r] < 0.0:
                        if n_next[r] > -1e-25:
                            n_next[r] = 0.0
                        else:
                            kill(r, SaturationError(
                                "photon number went negative: %g"
                                % n_next[r]))
                n_next[dead] = 1.0
                keep(k)
            if k % stride == stride - 1:
                both_n[...] = n_next
            else:
                twin_both[...] = twin_next

    # a failing row may overflow or divide by zero before the per-row
    # checks below stop it; they, not numpy warnings, report the failure
    with np.errstate(all="ignore"):
        run(False)
        if not lowest.min() >= 0.0:
            run(True)
    # not in place: numpy 2.4 negates a 64-byte-strided view wrongly there
    history[:, 1] = -history[:, 1]

    return [errors[r] or Trajectory(
        times=times, n=history[:, 7, r].copy(),
        kappa_plus=history[:, 2, r].copy(),
        kappa_minus=history[:, 3, r].copy(),
        omega_prime=np.ascontiguousarray(history[:, 1::-1, r]).view(complex)[
            :, 0]) for r in range(rows)] + [
        errors[rows + j] or twin_history[:, j].copy()
        for j in range(len(twins))]


def _verified_evolve(table, cavity, n0, t_final, m_pts, verify):
    """Lockstep run of the table's rows, in one _evolve call with a verify
    twin at half the step for every row whose verify flag is set. A row
    that got through takes its twin's exception, or a StepConvergenceError
    when halving dt moved its n(t) by 1e-3 relative or more."""
    rows = len(n0)
    twins = [r for r in range(rows) if verify[r]]
    results = _evolve(table, cavity, n0, t_final, m_pts, twins)
    coarse = results[:rows]
    for r, ref in zip(twins, results[rows:]):
        if not isinstance(coarse[r], Trajectory):
            continue
        if isinstance(ref, Exception):
            coarse[r] = ref
            continue
        n = coarse[r].n
        dev = float(np.max(np.abs(n - ref[::2])
                           / np.maximum(np.abs(n), 1e-30)))
        if dev >= 1e-3:
            coarse[r] = StepConvergenceError(
                "halving dt moved n(t) by %g relative (limit 1e-3)" % dev,
                deviation=dev, resolutions=(m_pts, len(ref)))
    return coarse


def evolve_table(table, cavity, n0, t_final, m_steps=None, *, verify=True,
                 window_margin=10.0):
    """Free decay of the rows of a ClassTable, row b from n0[b] photons; one
    Trajectory, or the exception that stopped it, per row, bitwise what the
    row gets alone. verify is one flag or one per row; every check of the
    step loop applies per row. Rows of one step count run as one lockstep
    group."""
    n0 = np.asarray(n0, dtype=float).reshape(-1)
    if not all(n > 0 for n in n0):
        raise ValueError("initial photon number must be > 0")
    if m_steps is not None and m_steps < 2:
        raise ValueError("m_steps must be >= 2")
    verify = np.broadcast_to(np.asarray(verify, dtype=bool), len(n0))
    results = [None] * len(n0)
    groups = {}
    for r, t2max in enumerate(table.t2max):
        m = m_steps
        if m is None:
            dt_rule = max(10.0 * t2max, t_final / 1e5)
            m = max(1, math.floor(t_final / dt_rule)) + 1
        try:
            _check_window(t_final / (m - 1), t2max, cavity, window_margin)
        except StepWindowError as exc:
            results[r] = exc
            continue
        groups.setdefault(m, []).append(r)
    for m, rows in groups.items():
        out = _verified_evolve(table.take(rows), cavity, n0[rows], t_final,
                               m, verify[rows])
        for r, res in zip(rows, out):
            results[r] = res
    return results


def evolve_ringdown(initial, classes, cavity, t_final, m_steps=None, *,
                    verify=True, window_margin=10.0):
    """Free decay of the loaded cavity through the saturable bath.

    initial is the photon number at t = 0 and classes one row of class
    arrays (g, count, T1, T_phi, omega_tls). The amplitude entering the TLS
    coherences is reset to sqrt(n) at zero phase at every step (the
    recursive scheme of the reference analysis). verify=True reruns at half
    the step and asserts every n(t) moves < 1e-3 relative. This is the
    one-row case of evolve_table; a failed row raises its exception.
    """
    table = tls_bath.ClassTable(*classes, cavity.omega0, cavity.temperature)
    traj, = evolve_table(table, cavity, [initial], t_final, m_steps,
                         verify=verify, window_margin=window_margin)
    if isinstance(traj, Exception):
        raise traj
    return traj


def kappa_of_time(times, values, reference_index=0):
    """Instantaneous-average decay rate kappa(t) = -ln(v/v0)/(t - t0).

    Returns (times_out, kappa) with the reference point excluded. values
    must be strictly positive.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")
    if np.any(values <= 0.0):
        raise ValueError("values must be strictly positive")
    if not 0 <= reference_index < len(times):
        raise ValueError("reference_index out of range")
    t0 = times[reference_index]
    v0 = values[reference_index]
    keep = np.arange(len(times)) != reference_index
    tau = times[keep] - t0
    if np.any(tau == 0.0):
        raise ValueError("duplicate time at the reference point")
    kappa = -np.log(values[keep] / v0) / tau
    return times[keep], kappa


def trajectory_kappa(traj, reference_index=0):
    """kappa(t) series of a trajectory's photon number."""
    return kappa_of_time(traj.times, traj.n, reference_index)


def write_trajectory_csv(traj, path, time_cells):
    """CSV export of a trajectory with its kappa(t) and bath rates.

    time_cells is datafiles.cells(traj.times), formatted once for all rows
    of one grid. kappa is taken against the first point, where it is
    undefined and written as nan.
    """
    times = traj.times.tolist()
    n = traj.n.tolist()
    kappa = [math.nan] + [-math.log(n[k] / n[0]) / (times[k] - times[0])
                          for k in range(1, len(times))]
    datafiles.write_csv(
        path, "time_s,n,kappa_t_1_per_s,kappa_plus,kappa_minus,"
              "re_omega_prime,im_omega_prime",
        [time_cells, *map(datafiles.cells, (
            n, kappa, traj.kappa_plus, traj.kappa_minus,
            traj.omega_prime.real, traj.omega_prime.imag))])
