"""Reflected power around switch-on and switch-off, and S11 circle fits.

The ring-up model is the interference of the promptly reflected drive with
the field leaking back out of the cavity: for a slightly detuned drive the
two cancel transiently, producing a dip in the reflected power before the
steady state is reached. All quality factors are dimensionless; delta is the
drive detuning in Hz.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def switchoff_power(times, params):
    """Reflected power after the drive switches off from the steady state.

    Pure exponential ring-down of the stored field through the coupler.
    """
    t = np.asarray(times, dtype=float)
    ql = params.q_loaded
    x = 2.0 * ql * params.delta / params.f0
    amp = (2.0 * ql / params.q_c) ** 2 / (1.0 + x * x)
    return params.p_f * amp * np.exp(-params.kappa_loaded * t)


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
    branches coincide) and raises UnidentifiableError.
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

    def residual(vec):
        qi, qc, delta, pf = vec
        model = ringup_power(times, ReflectionParams(
            q_int=qi, q_c=qc, f0=f0, delta=delta, p_f=pf))
        return model - powers

    params = [
        FitParameter("q_int", qi0, 1e4, 1e12, "log"),
        FitParameter("q_c", qc0, 1e4, 1e12, "log"),
        FitParameter("delta", 0.5, 0.0, 50.0, "linear"),
        FitParameter("p_f", pf0, pf0 * 0.2, pf0 * 5.0, "log"),
    ]
    return minimize(FitProblem(residual_fn=residual, params=params,
                               data_weights=sigma))


def ringdown_q(kappa_values, kappa_c, omega0, rolling=None):
    """Internal quality factor series Q_int = omega0 / (kappa - kappa_c).

    rolling=w smooths kappa with a centered valid-mode rolling mean of
    width w before converting (the output is then len - w + 1 long).
    """
    kappa = np.asarray(kappa_values, dtype=float)
    if rolling is not None:
        if rolling < 1 or rolling > len(kappa):
            raise ValueError("rolling window must be in [1, len(kappa)]")
        kappa = np.convolve(kappa, np.ones(rolling) / rolling, mode="valid")
    internal = kappa - kappa_c
    out = np.full(len(internal), np.inf)
    mask = internal > 0
    out[mask] = omega0 / internal[mask]
    return out


@dataclass(frozen=True)
class CircleFitResult:
    """S11 circle-fit output; sigma_* are 1 sigma estimates."""

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


def _taubin_circle(z):
    """Algebraic circle fit; returns (center, radius, rms residual)."""
    x, y = z.real, z.imag
    xm, ym = float(np.mean(x)), float(np.mean(y))
    u, v = x - xm, y - ym
    q = u * u + v * v
    qm = float(np.mean(q))
    if qm <= 0:
        raise DataError("degenerate sweep: all points coincide")
    z0 = (q - qm) / (2.0 * math.sqrt(qm))
    mat = np.column_stack([z0, u, v])
    _, _, vt = np.linalg.svd(mat, full_matrices=False)
    a_, b_, c_ = vt[-1]
    a_coef = a_ / (2.0 * math.sqrt(qm))
    d_coef = -qm * a_coef
    if abs(a_coef) < 1e-12 / (math.sqrt(qm) + 1e-30):
        raise DataError("sweep does not trace a circle (curvature is zero)")
    cx = -b_ / (2.0 * a_coef) + xm
    cy = -c_ / (2.0 * a_coef) + ym
    radius = math.sqrt(max(b_ ** 2 + c_ ** 2 - 4.0 * a_coef * d_coef, 0.0)) \
        / (2.0 * abs(a_coef))
    center = complex(cx, cy)
    rms = float(np.sqrt(np.mean((np.abs(z - center) - radius) ** 2)))
    return center, radius, rms


def _delay_estimate(freqs, s11):
    phase = np.unwrap(np.angle(s11))
    slope = np.polyfit(freqs, phase, 1)[0]
    return -slope / (2.0 * math.pi)


def _refine_delay(freqs, s11, tau0, width):
    """Minimize the circle residual over the cable delay.

    The slope seed tau0 is biased by a full differential turn (1/span)
    whenever the resonance loop encloses the origin, and the residual is
    periodic in the delay on that same scale, so a local search alone can
    lock onto the wrong turn. Scan coarsely across several turns first,
    then golden-section the winning bracket.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0

    def cost(tau):
        z = s11 * np.exp(2j * math.pi * freqs * tau)
        try:
            _, radius, rms = _taubin_circle(z)
        except DataError:
            return math.inf
        return rms / radius

    taus = tau0 + np.linspace(-width, width, 161)
    best = min(taus, key=cost)
    step = float(taus[1] - taus[0])

    lo, hi = best - step, best + step
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = cost(c), cost(d)
    for _ in range(80):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = cost(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = cost(d)
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def circle_fit(freqs, s11, *, fit_delay=True):
    """Resonance parameters from a complex S11 sweep.

    Removes a cable delay, fits the circle algebraically, then fits the
    phase progression theta(f) = theta0 + 2 arctan(2 Q_l (1 - f/f0)) around
    the circle center. Results are invariant under a global rotation and
    rescaling of the data.

    Raises DataError when the points do not lie on a circle (rms residual
    above 5% of the radius) or the sweep does not cover the
    resonance (span < 3 linewidths).
    """
    freqs = np.asarray(freqs, dtype=float)
    z = np.asarray(s11, dtype=complex)
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

    center, radius, rms = _taubin_circle(z)
    if rms > 0.05 * radius:
        raise DataError("sweep does not trace a circle (rms residual %.3g "
                        "of radius exceeds 0.05)" % (rms / radius))

    theta = np.unwrap(np.angle(z - center))
    f_mid = float(freqs[len(freqs) // 2])
    span = float(freqs[-1] - freqs[0])
    theta0_init = float(theta[0] + theta[-1]) / 2.0

    def residual(vec):
        theta0, ql, f0 = vec
        model = theta0 + 2.0 * np.arctan(2.0 * ql * (1.0 - freqs / f0))
        return model - theta

    # crude Q_l seed from the frequency interval covering the central
    # half-turn of phase
    dtheta = np.abs(theta - np.median(theta))
    core = freqs[dtheta < math.pi / 2]
    width = float(core[-1] - core[0]) if len(core) > 1 else span / 10.0
    ql_init = max(f_mid / max(width, span / len(freqs)), 10.0)

    phase_sigma = np.full(len(freqs), max(rms / radius, 1e-6))
    result = minimize(FitProblem(
        residual_fn=residual,
        params=[
            FitParameter("theta0", theta0_init, theta0_init - 10.0,
                         theta0_init + 10.0, "linear"),
            FitParameter("q_loaded", ql_init, 1.0, 1e12, "log"),
            FitParameter("f0", f_mid, float(freqs[0]), float(freqs[-1]),
                         "linear"),
        ],
        data_weights=phase_sigma))
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

    return CircleFitResult(
        f0=f0, q_int=q_int, q_c=q_c, q_loaded=ql,
        impedance_mismatch=mismatch, sigma_f0=sig_f0, sigma_q_int=sig_qi,
        sigma_q_c=sig_qc, sigma_mismatch=sig_phi, delay=delay,
        center=center, radius=radius, theta0=theta0, rms_residual=rms)


def s11_model(freqs, f0, q_int, q_c, mismatch=0.0, amplitude=1.0,
              phase=0.0, delay=0.0):
    """Forward S11 model used to generate sweeps (notch-free single port)."""
    freqs = np.asarray(freqs, dtype=float)
    ql = q_int * q_c / (q_int + q_c)
    x = ql * (freqs / f0 - 1.0)
    env = amplitude * np.exp(1j * (phase - 2.0 * math.pi * freqs * delay))
    return env * (1.0 - (2.0 * ql / q_c) * np.exp(1j * mismatch)
                  / (1.0 + 2j * x))
