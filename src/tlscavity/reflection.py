"""Reflected power after the drive switches on, and S11 circle fits.

The ring-up model is the interference of the promptly reflected drive with
the field leaking back out of the cavity: for a slightly detuned drive the
two cancel transiently, producing a dip in the reflected power before the
steady state is reached. All quality factors are dimensionless; delta is the
drive detuning in Hz.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import DataError, UnidentifiableError
from .fitting import FitParameter, FitProblem, minimize


@dataclass(frozen=True)
class ReflectionParams:
    """Single-port reflection model parameters.

    q_int, q_c : internal and coupling quality factors
    f0 : resonance frequency [Hz]
    delta : drive detuning from resonance [Hz]
    p_f : forward (incident) power [W]
    """

    q_int: float
    q_c: float
    f0: float
    delta: float = 0.0
    p_f: float = 1.0

    def __post_init__(self):
        if self.q_int <= 0 or self.q_c <= 0:
            raise ValueError("quality factors must be positive")
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")
        if self.p_f < 0:
            raise ValueError("p_f must be non-negative")

    @property
    def q_loaded(self):
        return self.q_int * self.q_c / (self.q_int + self.q_c)

    @property
    def kappa_loaded(self):
        """Loaded energy decay rate 2 pi f0 / Q_l [1/s]."""
        return 2.0 * math.pi * self.f0 * (self.q_c + self.q_int) / \
            (self.q_c * self.q_int)


def ringup_power(times, params):
    """Reflected power P_r(t) after the drive switches on at t = 0.

    P_r(0) = p_f identically (the cavity is empty, everything reflects) and
    P_r(inf) is the steady-state mismatch reflection.
    """
    t = np.asarray(times, dtype=float)
    qc, qi, f0 = params.q_c, params.q_int, params.f0
    delta, pf = params.delta, params.p_f
    kl = params.kappa_loaded
    cross = 2.0 * qc * qi * delta
    diff = (qc - qi) * f0
    decay = np.exp(-kl * t)
    half = np.exp(-0.5 * kl * t)
    num = (cross ** 2 + 4.0 * decay * (qi * f0) ** 2 + diff ** 2
           + 4.0 * qi * f0 * half * (diff * np.cos(2.0 * math.pi * delta * t)
                                     - cross * np.sin(2.0 * math.pi * delta
                                                      * t)))
    den = ((qc + qi) * f0) ** 2 + cross ** 2
    return pf * num / den


def steady_state_reflection(params):
    """P_r(inf) / p_f, the stationary reflected fraction."""
    qc, qi, f0, delta = params.q_c, params.q_int, params.f0, params.delta
    cross = 2.0 * qc * qi * delta
    return (cross ** 2 + ((qc - qi) * f0) ** 2) / \
        (((qc + qi) * f0) ** 2 + cross ** 2)


def _dip_index(powers):
    """Interior dip index, or None for a monotone (pure-decay) trace."""
    imin = int(np.argmin(powers))
    if imin <= 0 or imin >= len(powers) - 2:
        return None
    recovery = powers[-1] - powers[imin]
    fall = powers[0] - powers[imin]
    if fall <= 0 or recovery < 0.05 * fall:
        return None
    return imin


def fit_ringup(times, powers, f0, *, sigma=None):
    """Fit (q_int, q_c, delta, p_f) to a switch-on reflected-power trace.

    The model is even in delta, so only |delta| is identifiable and the fit
    is bounded to 0 <= delta <= 50, starting at 0.5. A trace without an
    interference dip cannot separate q_int from q_c (the over/undercoupled
    branches coincide) and raises UnidentifiableError. The result's one
    curve is (times, powers, model power at the optimum).
    """
    times = np.asarray(times, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if len(times) != len(powers):
        raise DataError("times and powers must have equal length")
    imin = _dip_index(powers)
    if imin is None:
        raise UnidentifiableError(
            "trace has no interference dip (pure exponential decay); "
            "q_int and q_c cannot be separated")

    # initial guesses from the dip position and the steady-state level
    pf0 = float(powers[0])
    ratio = min(max(float(powers[-1]) / pf0, 0.0), 0.9999)
    gamma = math.sqrt(ratio)
    q_ratio = max((1.0 + gamma) / max(1.0 - gamma, 1e-6), 1.001)
    t_dip = float(times[imin])
    kl0 = 2.0 * math.log(2.0 * q_ratio / (q_ratio - 1.0)) / t_dip
    ql0 = 2.0 * math.pi * f0 / kl0
    qc0 = ql0 * (1.0 + q_ratio) / q_ratio
    qi0 = q_ratio * qc0

    if sigma is None:
        sigma = 0.01 * (np.abs(powers) + 1e-3 * float(np.max(powers)))

    def model(vec):
        qi, qc, delta, pf = vec
        return ringup_power(times, ReflectionParams(
            q_int=qi, q_c=qc, f0=f0, delta=delta, p_f=pf))

    params = [
        FitParameter("q_int", qi0, 1e4, 1e12, "log"),
        FitParameter("q_c", qc0, 1e4, 1e12, "log"),
        FitParameter("delta", 0.5, 0.0, 50.0, "linear"),
        FitParameter("p_f", pf0, pf0 * 0.2, pf0 * 5.0, "log"),
    ]
    result = minimize(FitProblem(residual_fn=lambda v: model(v) - powers,
                                 params=params, data_weights=sigma))
    result.curves = ((times, powers, model(result.values)),)
    return result


@dataclass(frozen=True)
class CircleFitResult:
    """S11 circle-fit output; sigma_* are 1 sigma estimates.

    converged, method : those of the phase fit (fitting.minimize).
    curves : one (frequencies, S11 data, s11_model at the fitted values and
        the off-resonant point), both S11 arrays complex.
    """

    f0: float
    q_int: float
    q_c: float
    q_loaded: float
    impedance_mismatch: float
    sigma_f0: float
    sigma_q_int: float
    sigma_q_c: float
    sigma_mismatch: float
    delay: float
    center: complex
    radius: float
    theta0: float
    rms_residual: float
    converged: bool
    method: str
    curves: tuple = ()


def _taubin_circle(z):
    """Algebraic (Taubin) circle fit over z's last axis.

    Returns (center, radius, rms residual), each of z's leading shape. A row
    whose points all coincide or whose curvature is zero has NaN in all
    three.
    """
    x, y = z.real, z.imag
    xm = np.mean(x, axis=-1, keepdims=True)
    ym = np.mean(y, axis=-1, keepdims=True)
    u, v = x - xm, y - ym
    q = u * u + v * v
    qm = np.mean(q, axis=-1, keepdims=True)
    # coincident points keep the rounding of their mean as spread: a few
    # ulps of max|z|
    degenerate = ~(np.sqrt(qm) > 8.0 * np.finfo(float).eps
                   * np.abs(z).max(axis=-1, keepdims=True))
    qm = np.where(degenerate, 1.0, qm)
    root = np.sqrt(qm)
    z0 = (q - qm) / (2.0 * root)
    _, _, vt = np.linalg.svd(np.stack([z0, u, v], axis=-1),
                             full_matrices=False)
    a_, b_, c_ = (vt[..., -1, i, None] for i in range(3))
    a_coef = a_ / (2.0 * root)
    d_coef = -qm * a_coef
    degenerate |= np.abs(a_coef) < 1e-12 / (root + 1e-30)
    a_coef = np.where(degenerate, np.nan, a_coef)
    center = (-b_ / (2.0 * a_coef) + xm) + 1j * (-c_ / (2.0 * a_coef) + ym)
    radius = np.sqrt(np.maximum(b_ * b_ + c_ * c_ - 4.0 * a_coef * d_coef,
                                0.0)) / (2.0 * np.abs(a_coef))
    rms = np.sqrt(np.mean((np.abs(z - center) - radius) ** 2, axis=-1))
    return center[..., 0], radius[..., 0], rms


def _delay_estimate(freqs, s11):
    phase = np.unwrap(np.angle(s11))
    slope = np.polyfit(freqs, phase, 1)[0]
    return -slope / (2.0 * math.pi)


# candidate delays of the scan, and how many are scored per whole-array call
# (the chunk bounds the scan's (chunk, sweep) work arrays)
_SCAN_POINTS = 161
_SCAN_CHUNK = 24


def _circle_cost(z):
    """Circle residual rms / radius of each row of z; inf where the rows'
    points all coincide or trace no circle."""
    _, radius, rms = _taubin_circle(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = rms / radius
    return np.where(np.isfinite(cost), cost, math.inf)


def _delay_costs(freqs, s11, taus):
    """_circle_cost of s11 with each evenly spaced candidate delay of taus
    removed, scored a chunk of candidates per whole-array call."""
    turn = 2j * math.pi * freqs
    # each chunk's rotations: an exact exp at its first delay, then
    # repeated products with the one-step rotation
    advance = np.exp(turn * (taus[1] - taus[0]))
    costs = []
    for start in range(0, len(taus), _SCAN_CHUNK):
        rot = np.empty((min(_SCAN_CHUNK, len(taus) - start), len(freqs)),
                       dtype=complex)
        rot[0] = np.exp(turn * taus[start])
        rot[1:] = advance
        np.cumprod(rot, axis=0, out=rot)
        costs.append(_circle_cost(s11 * rot))
    return np.concatenate(costs)


def _refine_delay(freqs, s11, tau0, width):
    """Minimize the circle residual over the cable delay.

    The slope seed tau0 is biased by a full differential turn (1/span)
    whenever the resonance loop encloses the origin, and the residual is
    periodic in the delay on that same scale, so a local search alone can
    lock onto the wrong turn. Scan coarsely across several turns first,
    then refine the winning bracket with scipy's bounded Brent search.
    """
    taus = tau0 + np.linspace(-width, width, _SCAN_POINTS)
    step = float(taus[1] - taus[0])
    best = float(taus[np.argmin(_delay_costs(freqs, s11, taus))])
    turn = 2j * math.pi * freqs
    # squared: the ratio has a cusp at the minimum of a noise-free sweep,
    # its square a parabola
    res = scipy.optimize.minimize_scalar(
        lambda tau: float(_circle_cost(s11 * np.exp(turn * tau))) ** 2,
        bounds=(best - step, best + step), method="bounded",
        options={"xatol": 1e-15})
    return float(res.x)


def circle_fit(freqs, s11, *, fit_delay=True):
    """Resonance parameters from a complex S11 sweep.

    Removes a cable delay, fits the circle algebraically, then fits the
    phase progression theta(f) = theta0 + 2 arctan(2 Q_l (1 - f/f0)) around
    the circle center. Results are invariant under a global rotation and
    rescaling of the data.

    Raises DataError when the points do not lie on a circle (rms residual
    above 5% of the radius) or the sweep does not cover the
    resonance (span < 3 linewidths). The result's curve is the sweep with
    s11_model at the fitted values.
    """
    freqs = np.asarray(freqs, dtype=float)
    z = data = np.asarray(s11, dtype=complex)
    if len(freqs) != len(z):
        raise DataError("frequency and S11 arrays must have equal length")
    if len(freqs) < 8:
        raise DataError("need at least 8 sweep points")

    delay = 0.0
    if fit_delay:
        span = float(freqs[-1] - freqs[0])
        tau0 = _delay_estimate(freqs, z)
        delay = _refine_delay(freqs, z, tau0, 2.0 / span)
        z = z * np.exp(2j * math.pi * freqs * delay)

    center, radius, rms = (a.item() for a in _taubin_circle(z))
    if math.isnan(radius):
        raise DataError("sweep does not trace a circle (all points coincide "
                        "or its curvature is zero)")
    if rms > 0.05 * radius:
        raise DataError("sweep does not trace a circle (rms residual %.3g "
                        "of radius exceeds 0.05)" % (rms / radius))

    theta = np.unwrap(np.angle(z - center))
    f_mid = float(freqs[len(freqs) // 2])
    span = float(freqs[-1] - freqs[0])
    theta0_init = float(theta[0] + theta[-1]) / 2.0

    # crude Q_l seed from the frequency interval covering the central
    # half-turn of phase
    dtheta = np.abs(theta - np.median(theta))
    core = freqs[dtheta < math.pi / 2]
    width = float(core[-1] - core[0]) if len(core) > 1 else span / 10.0
    ql_init = max(f_mid / max(width, span / len(freqs)), 10.0)
    phase_sigma = np.full(len(freqs), max(rms / radius, 1e-6))

    def phase_fit(start, origin, unit):
        """Fit (theta0, Q_l, x) from start, f0 = origin + unit * x; the
        result's values and sigma hold f0 itself."""
        def residual(vec):
            theta0, ql, x = vec
            f0 = origin + unit * x
            model = theta0 + 2.0 * np.arctan(2.0 * ql * (1.0 - freqs / f0))
            return model - theta

        lo, hi = ((float(f) - origin) / unit for f in (freqs[0], freqs[-1]))
        res = minimize(FitProblem(residual_fn=residual, params=[
            FitParameter("theta0", start[0], theta0_init - 10.0,
                         theta0_init + 10.0, "linear"),
            FitParameter("q_loaded", start[1], 1.0, 1e12, "log"),
            FitParameter("f0", (start[2] - origin) / unit, lo, hi, "linear"),
        ], data_weights=phase_sigma))
        res.values[2] = origin + unit * res.values[2]
        res.sigma[2] *= unit
        return res

    result = phase_fit((theta0_init, ql_init, f_mid), 0.0, 1.0)
    if not result.converged:
        # the Jacobian's step in f0 (1e-6 of it) spans many linewidths of a
        # high-Q sweep, and LM can stall; go on from the best point with f0
        # as an offset from f_mid in units of f_mid
        result = phase_fit(result.values, f_mid, f_mid)
    theta0, ql, f0 = (float(v) for v in result.values)
    sig_theta0, sig_ql, sig_f0 = (float(s) for s in result.sigma)

    if span < 3.0 * f0 / ql:
        raise DataError("sweep span %.3g Hz covers less than 3 linewidths "
                        "(%.3g Hz)" % (span, 3.0 * f0 / ql))

    z_inf = center - radius * complex(math.cos(theta0), math.sin(theta0))
    a_inf = abs(z_inf)
    if a_inf <= 0:
        raise DataError("off-resonant point at the origin; cannot "
                        "normalize")
    q_c = ql * a_inf / radius
    mismatch = math.atan2((1.0 - center / z_inf).imag,
                          (1.0 - center / z_inf).real)
    inv_qi = 1.0 / ql - 1.0 / q_c
    q_int = 1.0 / inv_qi if inv_qi > 0 else math.inf

    sig_r = rms / math.sqrt(len(freqs))
    sig_qc = q_c * math.sqrt((sig_ql / ql) ** 2 + (sig_r / radius) ** 2)
    if math.isfinite(q_int):
        sig_qi = q_int ** 2 * math.sqrt((sig_ql / ql ** 2) ** 2
                                        + (sig_qc / q_c ** 2) ** 2)
    else:
        sig_qi = math.inf
    sig_phi = math.hypot(sig_r / radius, sig_theta0 * radius / a_inf)
    model = s11_model(freqs, f0, q_int, q_c, mismatch=mismatch,
                      amplitude=a_inf,
                      phase=math.atan2(z_inf.imag, z_inf.real), delay=delay)

    return CircleFitResult(
        f0=f0, q_int=q_int, q_c=q_c, q_loaded=ql,
        impedance_mismatch=mismatch, sigma_f0=sig_f0, sigma_q_int=sig_qi,
        sigma_q_c=sig_qc, sigma_mismatch=sig_phi, delay=delay,
        center=center, radius=radius, theta0=theta0, rms_residual=rms,
        converged=result.converged, method=result.method,
        curves=((freqs, data, model),))


def s11_model(freqs, f0, q_int, q_c, mismatch=0.0, amplitude=1.0,
              phase=0.0, delay=0.0):
    """Forward S11 model used to generate sweeps (notch-free single port)."""
    freqs = np.asarray(freqs, dtype=float)
    ql = q_int * q_c / (q_int + q_c)
    x = ql * (freqs / f0 - 1.0)
    env = amplitude * np.exp(1j * (phase - 2.0 * math.pi * freqs * delay))
    return env * (1.0 - (2.0 * ql / q_c) * np.exp(1j * mismatch)
                  / (1.0 + 2j * x))
