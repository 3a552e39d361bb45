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
from .errors import SaturationError, StepConvergenceError

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

    @property
    def moments(self):
        return tuple(CavityMoments(n=float(nk), a_mean=complex(ak))
                     for nk, ak in zip(self.n, self.a_mean))

    @property
    def rates(self):
        return tuple(
            tls_bath.BathRates(omega_prime=complex(o), kappa_plus=float(p),
                               kappa_minus=float(m))
            for o, p, m in zip(self.omega_prime, self.kappa_plus,
                               self.kappa_minus))

    def __len__(self):
        return len(self.times)


def _check_window(dt, table, cavity, margin):
    lo = margin * table.t2max
    hi = 1.0 / (margin * cavity.kappa0)
    if dt < lo * (1.0 - 1e-9):
        raise ValueError(
            "step dt = %g below the Markovian window (need >= %g = margin*T2*)"
            % (dt, lo))
    if dt > hi * (1.0 + 1e-9):
        raise ValueError(
            "step dt = %g above the Markovian window (need <= %g = 1/(margin*kappa0))"
            % (dt, hi))


def _table_and_steps(classes, cavity, t_final, m_steps, window_margin):
    """Class table and step count of one evolution, window checked."""
    table = tls_bath.ClassTable(classes, cavity.omega0, cavity.temperature)
    if m_steps is None:
        dt_rule = max(10.0 * table.t2max, t_final / 1e5)
        m_steps = max(1, math.floor(t_final / dt_rule)) + 1
    if m_steps < 2:
        raise ValueError("m_steps must be >= 2")
    _check_window(t_final / (m_steps - 1), table, cavity, window_margin)
    return table, m_steps


def _thermal_feed(cavity):
    """Bare thermal photon feed kappa0 * f(omega0, T) [1/s]."""
    return cavity.kappa0 * core.bose_einstein(cavity.omega0,
                                              cavity.temperature)


def _evolve(table, cavity, omega_ext, n0, amp0, t_final, m_pts, pinned):
    """March m_pts grid points with the exact step at frozen rates.

    With kt = kappa0 + kappa_minus - kappa_plus (net gain, kt <= 0, has no
    stable moment solution and aborts) and v1 = kappa_plus + kappa0 f_cav:
    n(dt) = a + b e^{-kt*dt} + c e^{-kt*dt/2} with
        a = v1/kt + 4|O'|^2/kt^2
        c = (4/kt) Re[i O' <a>] - 8|O'|^2/kt^2
        b = n_prev - a - c
    and <a> relaxing to its own fixed point -2i conj(O')/kt at rate kt/2.
    """
    times = np.linspace(0.0, t_final, m_pts)
    dt = times[1] - times[0]
    n_arr = np.empty(m_pts, dtype=float)
    a_arr = np.empty(m_pts, dtype=complex)
    kp_arr = np.empty(m_pts, dtype=float)
    km_arr = np.empty(m_pts, dtype=float)
    op_arr = np.empty(m_pts, dtype=complex)
    kappa0 = cavity.kappa0
    feed = _thermal_feed(cavity)
    n = float(n0)
    amp = complex(amp0)
    eps_n = 1e-25
    for k in range(m_pts):
        if pinned:
            amp = complex(math.sqrt(n), 0.0)
        amp2 = amp.real * amp.real + amp.imag * amp.imag
        kp, km, s = table.rates_at(n, amp2)
        op = omega_ext + 1j * amp.conjugate() * s
        n_arr[k] = n
        a_arr[k] = amp
        kp_arr[k] = kp
        km_arr[k] = km
        op_arr[k] = op
        if k == m_pts - 1:
            break
        kt = kappa0 + km - kp
        if kt <= 0.0:
            raise SaturationError(
                "kappa_tilde = %g <= 0 at t = %g" % (kt, times[k]))
        v1 = kp + feed
        op2 = op.real * op.real + op.imag * op.imag
        a_term = v1 / kt + 4.0 * op2 / (kt * kt)
        c_term = (4.0 / kt) * (1j * op * amp).real - 8.0 * op2 / (kt * kt)
        b_term = n - a_term - c_term
        eh = math.exp(-0.5 * kt * dt)
        n = a_term + b_term * (eh * eh) + c_term * eh
        if n < 0.0:
            if n > -eps_n:
                n = 0.0
            else:
                raise SaturationError("photon number went negative: %g" % n)
        a_ss = -2j * op.conjugate() / kt
        amp = a_ss + (amp - a_ss) * eh
    return Trajectory(times=times, n=n_arr, a_mean=a_arr, kappa_plus=kp_arr,
                      kappa_minus=km_arr, omega_prime=op_arr)


def _verified_evolve(table, cavity, omega_ext, n0, amp0, t_final, m_pts,
                     pinned, verify):
    coarse = _evolve(table, cavity, omega_ext, n0, amp0, t_final, m_pts,
                     pinned)
    if verify:
        fine = _evolve(table, cavity, omega_ext, n0, amp0, t_final,
                       2 * (m_pts - 1) + 1, pinned)
        ref = np.maximum(np.abs(coarse.n), 1e-30)
        dev = float(np.max(np.abs(coarse.n - fine.n[::2]) / ref))
        if dev >= 1e-3:
            raise StepConvergenceError(
                "halving dt moved n(t) by %g relative (limit 1e-3)" % dev,
                deviation=dev, resolutions=(m_pts, 2 * (m_pts - 1) + 1))
    return coarse


def evolve_ringdown(initial, classes, cavity, t_final, m_steps=None, *,
                    mode="pinned", verify=True, window_margin=10.0):
    """Free decay of the loaded cavity through the saturable bath.

    initial may be a CavityMoments or a bare photon number (then the
    amplitude convention sqrt(n) at zero phase is applied). mode "pinned"
    resets the amplitude entering the TLS coherences to sqrt(n) at every
    step (the recursive scheme of the reference analysis); "tracked" keeps
    the complex amplitude evolving under its own linear equation. The two
    coincide for a real sqrt(n) start. verify=True reruns at half the step
    and asserts every n(t) moves < 1e-3 relative.
    """
    if not isinstance(initial, CavityMoments):
        initial = CavityMoments.from_photon_number(initial)
    if initial.n <= 0:
        raise ValueError("initial photon number must be > 0")
    if mode not in ("pinned", "tracked"):
        raise ValueError("mode must be 'pinned' or 'tracked'")
    table, m_steps = _table_and_steps(classes, cavity, t_final, m_steps,
                                      window_margin)
    return _verified_evolve(table, cavity, 0.0, initial.n, initial.a_mean,
                            t_final, m_steps, mode == "pinned", verify)


def evolve_ringup(classes, cavity, omega_ext, t_final, m_steps=None, *,
                  verify=True, window_margin=10.0):
    """Drive the cavity from vacuum toward the driven steady state."""
    omega_ext = complex(omega_ext)
    if abs(omega_ext) <= 0.0:
        raise ValueError("omega_ext must be nonzero for a ring-up")
    table, m_steps = _table_and_steps(classes, cavity, t_final, m_steps,
                                      window_margin)
    return _verified_evolve(table, cavity, omega_ext, 0.0, 0.0, t_final,
                            m_steps, False, verify)


def steady_state(classes, cavity, omega_ext, *, tol=1e-10, max_iter=10000,
                 damping=0.5):
    """Self-consistent fixed point of the driven moment system.

    Damped iteration n <- (1-l)n + l*map(n) with map(n) = v1/kt +
    4|Omega_ext|^2/|kt + 2S|^2, run from two starting guesses (vacuum and the
    bare-cavity value); disagreement between the two converged points flags
    multiple solutions.
    """
    omega_ext = complex(omega_ext)
    table = tls_bath.ClassTable(classes, cavity.omega0, cavity.temperature)
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
