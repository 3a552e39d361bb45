"""Closed moment-system evolution: ring-down, ring-up, steady state, kappa(t).

The cavity moment vector a = (n, <a>, <a*>)^T obeys a linear system da/dt =
A_S a + v_S whose coefficients are frozen over each coarse step and rebuilt
from the quasi-steady TLS states at the start of the step. The step itself is
advanced with the exact solution of the frozen system, so the only
discretization error is the freezing of the rates; a halving self-check
asserts the coarse grid sits inside the validity window.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core, datafiles, tls_bath
from .errors import SaturationError, StepConvergenceError, StepWindowError

_MOMENT_RTOL = 1e-9  # slack on n >= |<a>|^2 for roundoff at the boundary


@dataclass(frozen=True)
class CavityMoments:
    """First and second cavity moments: photon number and field amplitude."""

    n: float
    a_mean: complex

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        amp2 = abs(self.a_mean) ** 2
        if amp2 > self.n * (1.0 + _MOMENT_RTOL) + 1e-25:
            raise ValueError("moment inequality n >= |<a>|^2 violated")

    @classmethod
    def from_photon_number(cls, n):
        """Ring-down convention: amplitude sqrt(n) with zero phase."""
        return cls(n=float(n), a_mean=complex(math.sqrt(n), 0.0))


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus per-point moments and bath rates (array backed).

    rates[k] are the rates rebuilt from the state at times[k]; they drive the
    step from k to k+1. The final entry is diagnostic.
    """

    times: np.ndarray
    n: np.ndarray
    a_mean: np.ndarray
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


def _thermal_feed(cavity):
    """Bare thermal photon feed kappa0 * f(omega0, T) [1/s]."""
    return cavity.kappa0 * core.bose_einstein(cavity.omega0,
                                              cavity.temperature)


# Class sums (Re S, Im S, kappa_plus, kappa_minus) given to a row after its
# evolution failed: finite and positive, so the row keeps stepping inertly
# beside the live rows and never trips the per-step check again.
_INERT_SUMS = (0.0, 0.0, 0.25, 0.75)


def _evolve(table, cavity, omega_ext, n0, amp0, t_final, m_pts, pinned,
            full=True):
    """March B rows over m_pts grid points in lockstep, exact step at frozen
    rates; returns one Trajectory (full=False: its n array), or the
    exception that stopped it, per row.

    table is a ClassTable of the B rows; n0 and amp0 hold each row's
    initial photon number and amplitude. With kt = kappa0 + kappa_minus -
    kappa_plus (net gain, kt <= 0, has no stable moment solution and stops
    the row) and v1 = kappa_plus + kappa0 f_cav:
    n(dt) = a + b e^{-kt*dt} + c e^{-kt*dt/2} with
        a = v1/kt + 4|O'|^2/kt^2
        c = (4/kt) Re[i O' <a>] - 8|O'|^2/kt^2
        b = n_prev - a - c
    and <a> relaxing to its own fixed point -2i conj(O')/kt at rate kt/2.
    Every operation is elementwise over the rows or a per-row sum over the
    class axis, so a row's numbers do not depend on the other rows. The
    views and scratch rows are made before the loop: a step allocates none.
    """
    n0 = np.asarray(n0, dtype=float).reshape(-1)
    amp0 = np.asarray(amp0, dtype=complex).reshape(-1)
    rows = len(n0)
    times = np.linspace(0.0, t_final, m_pts)
    # scalars as 0-d arrays: numpy calls take them faster than floats
    decay = np.array(-0.5 * (times[1] - times[0]))
    kappa0 = np.array(cavity.kappa0)
    feed = np.array(_thermal_feed(cavity))
    minus_two, minus_four = np.array(-2.0), np.array(-4.0)
    omega_ext = complex(omega_ext)
    drive = np.array([[omega_ext.real], [omega_ext.imag]])
    # One row per quantity, one column per trajectory: the class sums, kt,
    # the state (n, <a>) after the step, the state at the step and Omega'.
    work = np.zeros((13, rows))
    (s_re, s_im, kp, km, kt, n_next, ar_next, ai_next, n, ar, ai, o_re,
     o_im) = work
    sums = work[0:4]
    checked = work[2:6]            # kappa_plus, kappa_minus, kt, n(k+1)
    state_next, state = work[5:8], work[8:11]
    amp_next, amp = work[6:8], work[9:11]
    omega, omega_rev = work[11:13], work[12:10:-1]
    n[:] = n0
    if not pinned:
        amp[:] = (amp0.real, amp0.imag)
    record = work[2:] if full else n
    history = np.empty((m_pts,) + record.shape)
    # scratch: |<a>|^2, Omega' squared, |O'|^2/kt^2, kt^2, (a, c, b), e^{-kt
    # dt/2} and its square, (c e, b e^2), the fixed point of <a>, (4q, -8q)
    scratch = np.empty((17, rows))
    amp2, tmp, o2_re, o2_im, q, kt2, a_t, c_t, b_t, eh, eh2, ce, be2 = (
        scratch[:13])
    omega2, terms, cb, e_pair, prods, a_ss, weighted_q = (
        scratch[i:i + 2] for i in (2, 6, 7, 9, 11, 13, 15))
    term_weights = np.array([[4.0], [-8.0]])
    rate_sums = table.rate_kernel(n, amp2, sums)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    errors = [None] * rows
    dead = []
    inert = np.array(_INERT_SUMS)[:, None]

    def advance():
        add(kappa0, km, out=kt)
        sub(kt, kp, out=kt)
        mul(omega, omega, out=omega2)
        add(o2_re, o2_im, out=q)
        mul(kt, kt, out=kt2)
        div(q, kt2, out=q)
        # terms = (a, c): v1/kt + 4q and (4/kt) Re[i O' <a>] - 8q
        add(kp, feed, out=a_t)
        if pinned:
            mul(o_im, ar, out=c_t)
        else:
            mul(o_im, ar, out=tmp)
            mul(o_re, ai, out=c_t)
            add(tmp, c_t, out=c_t)
        mul(c_t, minus_four, out=c_t)
        div(terms, kt, out=terms)
        mul(term_weights, q, out=weighted_q)
        add(terms, weighted_q, out=terms)
        sub(n, a_t, out=b_t)
        sub(b_t, c_t, out=b_t)
        mul(kt, decay, out=eh)
        np.exp(eh, out=eh)
        if not pinned:
            mul(omega_rev, minus_two, out=a_ss)
            div(a_ss, kt, out=a_ss)
            sub(amp, a_ss, out=amp_next)
            mul(amp_next, eh, out=amp_next)
            add(amp_next, a_ss, out=amp_next)
        # n(k+1) = (a + b e^2) + c e
        mul(eh, eh, out=eh2)
        mul(cb, e_pair, out=prods)
        add(a_t, be2, out=n_next)
        add(n_next, ce, out=n_next)

    def kill(r, exc):
        errors[r] = exc
        dead.append(r)
        sums[:, r] = _INERT_SUMS

    # a failing row may overflow or divide by zero before the per-row
    # checks below stop it; they, not numpy warnings, report the failure
    with np.errstate(all="ignore"):
        for k in range(m_pts):
            if pinned:
                np.sqrt(n, out=ar)
                mul(ar, ar, out=amp2)
            else:
                mul(ar, ar, out=amp2)
                mul(ai, ai, out=tmp)
                add(amp2, tmp, out=amp2)
            rate_sums()
            if dead:
                sums[:, dead] = inert
            # Omega' = omega_ext + i conj(<a>) S
            if pinned:
                mul(ar, s_im, out=o_re)
                np.negative(o_re, out=o_re)
                mul(ar, s_re, out=o_im)
            else:
                mul(ai, s_re, out=o_re)
                mul(ar, s_im, out=tmp)
                sub(o_re, tmp, out=o_re)
                mul(ar, s_re, out=o_im)
                mul(ai, s_im, out=tmp)
                add(o_im, tmp, out=o_im)
            if omega_ext:
                add(omega, drive, out=omega)
            history[k] = record
            if k == m_pts - 1:
                break
            advance()
            if not np.minimum.reduce(checked, axis=None) >= 0.0:
                # some row has a negative (or nan) rate, kt or n: redo the
                # step with the per-row clamp, then stop the rows that fail
                for r in range(rows):
                    if r not in dead and (kp[r] < 0.0 or km[r] < 0.0):
                        try:
                            kp[r], km[r] = tls_bath.clamp_rates(
                                float(kp[r]), float(km[r]))
                        except ValueError as exc:
                            kill(r, exc)
                advance()
                for r in range(rows):
                    if r in dead:
                        continue
                    if kt[r] <= 0.0:
                        kill(r, SaturationError(
                            "kappa_tilde = %g <= 0 at t = %g"
                            % (kt[r], times[k])))
                    elif n_next[r] < 0.0:
                        if n_next[r] > -1e-25:
                            n_next[r] = 0.0
                        else:
                            kill(r, SaturationError(
                                "photon number went negative: %g"
                                % n_next[r]))
                for r in dead:
                    state_next[:, r] = (1.0, 1.0, 0.0)
                history[k] = record
            state[...] = state_next

    out = []
    for r in range(rows):
        if errors[r] is not None:
            out.append(errors[r])
        elif not full:
            out.append(history[:, r].copy())
        else:
            rates = history[:, :, r]
            a_mean, omega_prime = (np.ascontiguousarray(
                rates[:, j:j + 2]).view(complex)[:, 0] for j in (7, 9))
            out.append(Trajectory(
                times=times, n=rates[:, 6].copy(), a_mean=a_mean,
                kappa_plus=rates[:, 0].copy(), kappa_minus=rates[:, 1].copy(),
                omega_prime=omega_prime))
    return out


def _verified_evolve(table, cavity, omega_ext, n0, amp0, t_final, m_pts,
                     pinned, verify):
    """Coarse lockstep run of the table's rows; a second batch at half the
    step checks every row that got through and has its verify flag set."""
    coarse = _evolve(table, cavity, omega_ext, n0, amp0, t_final, m_pts,
                     pinned)
    live = [r for r, res in enumerate(coarse)
            if verify[r] and isinstance(res, Trajectory)]
    if not live:
        return coarse
    m_fine = 2 * (m_pts - 1) + 1
    fine = _evolve(table.take(live), cavity, omega_ext, n0[live], amp0[live],
                   t_final, m_fine, pinned, full=False)
    for r, ref in zip(live, fine):
        if isinstance(ref, Exception):
            coarse[r] = ref
            continue
        n = coarse[r].n
        dev = float(np.max(np.abs(n - ref[::2])
                           / np.maximum(np.abs(n), 1e-30)))
        if dev >= 1e-3:
            coarse[r] = StepConvergenceError(
                "halving dt moved n(t) by %g relative (limit 1e-3)" % dev,
                deviation=dev, resolutions=(m_pts, m_fine))
    return coarse


def _evolve_rows(class_lists, cavity, omega_ext, n0, amp0, t_final, m_steps,
                 pinned, verify, window_margin):
    """Evolve one row per class list: one ClassTable per class count, and
    one lockstep group per grid in it; one Trajectory or exception per row.
    verify holds one halving-check flag per row."""
    if m_steps is not None and m_steps < 2:
        raise ValueError("m_steps must be >= 2")
    results = [None] * len(class_lists)
    sizes = {}
    for r, classes in enumerate(class_lists):
        sizes.setdefault(len(classes), []).append(r)
    for rows in sizes.values():
        table = tls_bath.ClassTable([class_lists[r] for r in rows],
                                    cavity.omega0, cavity.temperature)
        groups = {}
        for j, (r, t2max) in enumerate(zip(rows, table.t2max)):
            m = m_steps
            if m is None:
                dt_rule = max(10.0 * t2max, t_final / 1e5)
                m = max(1, math.floor(t_final / dt_rule)) + 1
            try:
                _check_window(t_final / (m - 1), t2max, cavity, window_margin)
            except StepWindowError as exc:
                results[r] = exc
                continue
            groups.setdefault(m, []).append(j)
        for m, group in groups.items():
            picked = [rows[j] for j in group]
            out = _verified_evolve(
                table.take(group), cavity, omega_ext, n0[picked],
                amp0[picked], t_final, m, pinned, [verify[r] for r in picked])
            for r, res in zip(picked, out):
                results[r] = res
    return results


def _raise_first(results):
    """The rows' trajectories, or the lowest-index row's exception."""
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


def evolve_ringdown_batch(initials, class_lists, cavity, t_final,
                          m_steps=None, *, mode="pinned", verify=True,
                          window_margin=10.0, return_errors=False):
    """Free decay of several independent cavities, advanced in lockstep.

    Row k starts from initials[k] with the TLS classes class_lists[k]; all
    rows share the cavity, duration, step count and options of
    evolve_ringdown (verify may also be one flag per row), and row k's
    trajectory is bitwise the one evolve_ringdown returns for it alone.
    Every check of the step loop (window, clamp, saturation, negativity,
    halving) applies per row. A failing row raises the lowest-index row's
    exception, or with return_errors=True takes that exception's place in
    the returned list while the other rows finish unchanged.
    """
    initials = [i if isinstance(i, CavityMoments)
                else CavityMoments.from_photon_number(i) for i in initials]
    if len(initials) != len(class_lists):
        raise ValueError("need one class list per initial state")
    if any(i.n <= 0 for i in initials):
        raise ValueError("initial photon number must be > 0")
    if mode not in ("pinned", "tracked"):
        raise ValueError("mode must be 'pinned' or 'tracked'")
    results = _evolve_rows(
        class_lists, cavity, 0.0, np.array([i.n for i in initials]),
        np.array([i.a_mean for i in initials], dtype=complex), t_final,
        m_steps, mode == "pinned",
        np.broadcast_to(np.asarray(verify, dtype=bool), len(initials)),
        window_margin)
    return results if return_errors else _raise_first(results)


def evolve_ringdown(initial, classes, cavity, t_final, m_steps=None, *,
                    mode="pinned", verify=True, window_margin=10.0):
    """Free decay of the loaded cavity through the saturable bath.

    initial may be a CavityMoments or a bare photon number (then the
    amplitude convention sqrt(n) at zero phase is applied). mode "pinned"
    resets the amplitude entering the TLS coherences to sqrt(n) at every
    step (the recursive scheme of the reference analysis); "tracked" keeps
    the complex amplitude evolving under its own linear equation. The two
    coincide for a real sqrt(n) start. verify=True reruns at half the step
    and asserts every n(t) moves < 1e-3 relative. This is the one-row case
    of evolve_ringdown_batch.
    """
    return evolve_ringdown_batch(
        [initial], [classes], cavity, t_final, m_steps, mode=mode,
        verify=verify, window_margin=window_margin)[0]


def evolve_ringup(classes, cavity, omega_ext, t_final, m_steps=None, *,
                  verify=True, window_margin=10.0):
    """Drive the cavity from vacuum toward the driven steady state."""
    omega_ext = complex(omega_ext)
    if abs(omega_ext) <= 0.0:
        raise ValueError("omega_ext must be nonzero for a ring-up")
    return _raise_first(_evolve_rows(
        [classes], cavity, omega_ext, np.zeros(1), np.zeros(1, complex),
        t_final, m_steps, False, [verify], window_margin))[0]


def steady_state(classes, cavity, omega_ext, *, tol=1e-10, max_iter=10000,
                 damping=0.5):
    """Self-consistent fixed point of the driven moment system.

    Damped iteration n <- (1-l)n + l*map(n) with map(n) = v1/kt +
    4|Omega_ext|^2/|kt + 2S|^2, run from two starting guesses (vacuum and the
    bare-cavity value); disagreement between the two converged points flags
    multiple solutions.
    """
    omega_ext = complex(omega_ext)
    table = tls_bath.ClassTable([classes], cavity.omega0,
                                cavity.temperature)
    kappa0 = cavity.kappa0
    feed = _thermal_feed(cavity)
    drive2 = omega_ext.real ** 2 + omega_ext.imag ** 2
    bare = 4.0 * drive2 / (kappa0 * kappa0) + feed / kappa0

    def fixed_point(n_start):
        n = float(n_start)
        amp2 = 0.0
        history = []
        for _ in range(max_iter):
            kp, km, s = table.rates_at(n, amp2)
            kt = kappa0 + km - kp
            if kt <= 0.0:
                raise SaturationError("kappa_tilde <= 0 during steady state")
            denom = kt + 2.0 * s
            amp2_map = 4.0 * drive2 / (denom.real ** 2 + denom.imag ** 2)
            n_map = (kp + feed) / kt + amp2_map
            resid = abs(n_map - n) / max(n_map, 1e-300)
            history.append(resid)
            n = (1.0 - damping) * n + damping * n_map
            amp2 = (1.0 - damping) * amp2 + damping * amp2_map
            if resid < tol:
                return n, amp2, history
        raise SaturationError(
            "steady-state iteration did not converge; last residuals %s"
            % history[-5:])

    n_a, _, _ = fixed_point(0.0)
    n_b, amp2_b, _ = fixed_point(bare)
    if abs(n_a - n_b) > 1e-6 * max(n_a, n_b, 1e-300):
        raise SaturationError(
            "multiple steady-state solutions: n = %g and %g" % (n_a, n_b))
    n_fix = n_b
    kp, km, s = table.rates_at(n_fix, amp2_b)
    kt = kappa0 + km - kp
    amp = -2j * omega_ext.conjugate() / (kt + 2.0 * s.conjugate())
    return CavityMoments(n=n_fix, a_mean=amp)


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


def write_trajectory_csv(traj, path, reference_index=0):
    """CSV export of a trajectory with its kappa(t) and bath rates.

    kappa at the reference point is undefined and written as nan.
    """
    times = traj.times.tolist()
    n = traj.n.tolist()
    t0 = times[reference_index]
    v0 = n[reference_index]
    kappa = [math.nan if k == reference_index
             else -math.log(n[k] / v0) / (times[k] - t0)
             for k in range(len(times))]
    datafiles.write_csv(
        path, "time_s,n,kappa_t_1_per_s,kappa_plus,kappa_minus,"
              "re_omega_prime,im_omega_prime",
        zip(times, n, kappa, traj.kappa_plus.tolist(),
            traj.kappa_minus.tolist(), traj.omega_prime.real.tolist(),
            traj.omega_prime.imag.tolist()))
