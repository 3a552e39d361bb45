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


def fit_ringup(times, powers, f0, *, sigma):
    """Fit (q_int, q_c, delta, p_f) to a switch-on reflected-power trace
    with per-point 1 sigma.

    The model is even in delta, so only |delta| is identifiable and the fit
    is bounded to 0 <= delta <= 50, starting at 0.5. A trace without an
    interference dip cannot separate q_int from q_c (the over/undercoupled
    branches coincide) and raises UnidentifiableError; a trace that starts
    before t = 0, where the model switches the drive on, raises DataError.
    The result's one curve is (times, powers, model power at the optimum).
    """
    times = np.asarray(times, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if len(times) != len(powers):
        raise DataError("times and powers must have equal length")
    if times[0] < 0:
        raise DataError("trace starts at time_s %r, before the drive "
                        "switches on at 0" % float(times[0]))
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
    """Cable delay from the unwrapped phase's slope, in 1 / freqs' unit."""
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


def _bounded_brent(func, lower, upper, xatol):
    """Minimum of func on the finite [lower, upper], lower <= upper, by
    Brent's bounded search: parabolic steps with a golden-section fallback,
    at most 500 evaluations.

    Step for step scipy 1.17.1's minimize_scalar(method="bounded"), its
    constants and its NaN and zero handling of np.sign and np.maximum
    included, so the points evaluated and the result are scipy's bits.
    Ported because loading scipy.optimize costs a cold command more than
    the whole circle fit."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = func(xf)
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (np.sign(xm - xf) + (xm - xf == 0))
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def _refine_delay(freqs, s11, tau0, width):
    """Minimize the circle residual over the cable delay, to 1e-12 in the
    inverse unit of freqs.

    The slope seed tau0 is biased by a full differential turn (1/span)
    whenever the resonance loop encloses the origin, and the residual is
    periodic in the delay on that same scale, so a local search alone can
    lock onto the wrong turn. Scan coarsely across several turns first,
    then refine the winning bracket with a bounded Brent search
    (_bounded_brent, scipy's bits without loading scipy.optimize).
    """
    taus = tau0 + np.linspace(-width, width, _SCAN_POINTS)
    step = float(taus[1] - taus[0])
    best = float(taus[np.argmin(_delay_costs(freqs, s11, taus))])
    turn = 2j * math.pi * freqs
    # squared: the ratio has a cusp at the minimum of a noise-free sweep,
    # its square a parabola
    return float(_bounded_brent(
        lambda tau: float(_circle_cost(s11 * np.exp(turn * tau))) ** 2,
        best - step, best + step, 1e-12))


_NO_CIRCLE = ("sweep does not trace a circle (all points coincide or its "
              "curvature is zero)")


def circle_fit(freqs, s11):
    """Resonance parameters from a complex S11 sweep.

    Removes a cable delay, fits the circle algebraically, then fits the
    phase progression theta(f) = theta0 + 2 arctan(2 Q_l (1 - f/f0)) around
    the circle center over (theta0, Q_l, x), f0 = f_mid (1 + x) with f_mid
    the middle sweep point and x from 0 within the sweep. Results are
    invariant under a global rotation and rescaling of the data and do not
    depend on the frequency unit.

    Raises DataError for a frequency that is not positive, for frequencies
    that are not strictly increasing, when the points do not lie on a
    circle (they coincide, lie on a line, or leave an rms residual above 5%
    of the radius) or the sweep does not cover the resonance (span < 3
    linewidths). The result's curve is the sweep with s11_model at the
    fitted values.
    """
    freqs = np.asarray(freqs, dtype=float)
    z = data = np.asarray(s11, dtype=complex)
    if len(freqs) != len(z):
        raise DataError("frequency and S11 arrays must have equal length")
    if len(freqs) < 8:
        raise DataError("need at least 8 sweep points")
    if not np.all(freqs > 0):
        raise DataError("sweep frequencies must be positive")
    if np.any(np.diff(freqs) <= 0):
        raise DataError("sweep frequencies must be strictly increasing")

    # points that coincide or lie on a line trace no circle, although
    # removing a delay would wind them into one
    if math.isnan(_taubin_circle(z)[1].item()):
        raise DataError(_NO_CIRCLE)
    span = float(freqs[-1] - freqs[0])
    # searched on frequencies in units of the span from the first one, so
    # in turns of the span (delay * span) and free of the unit
    unit = (freqs - freqs[0]) / span
    delay = _refine_delay(unit, z, _delay_estimate(unit, z), 2.0) / span
    z = z * np.exp(2j * math.pi * freqs * delay)

    center, radius, rms = (a.item() for a in _taubin_circle(z))
    if math.isnan(radius):
        raise DataError(_NO_CIRCLE)
    if rms > 0.05 * radius:
        raise DataError("sweep does not trace a circle (rms residual %.3g "
                        "of radius exceeds 0.05)" % (rms / radius))

    theta = np.unwrap(np.angle(z - center))
    f_mid = float(freqs[len(freqs) // 2])
    theta0_init = float(theta[0] + theta[-1]) / 2.0

    # crude Q_l seed from the frequency interval covering the central
    # half-turn of phase
    dtheta = np.abs(theta - np.median(theta))
    core = freqs[dtheta < math.pi / 2]
    width = float(core[-1] - core[0]) if len(core) > 1 else span / 10.0
    ql_init = max(f_mid / max(width, span / len(freqs)), 10.0)

    def residual(vec):
        theta0, ql, x = vec
        f0 = f_mid * (1.0 + x)
        return theta0 + 2.0 * np.arctan(2.0 * ql * (1.0 - freqs / f0)) - theta

    # the Jacobian's step in x is a small fraction of a linewidth, where
    # one in f0 itself (1e-6 f0) would span many linewidths of a high-Q sweep
    result = minimize(FitProblem(residual_fn=residual, params=[
        FitParameter("theta0", theta0_init, theta0_init - 10.0,
                     theta0_init + 10.0, "linear"),
        FitParameter("q_loaded", ql_init, 1.0, 1e12, "log"),
        FitParameter("x", 0.0, float(freqs[0]) / f_mid - 1.0,
                     float(freqs[-1]) / f_mid - 1.0, "linear"),
    ], data_weights=np.full(len(freqs), max(rms / radius, 1e-6))))
    theta0, ql, x = (float(v) for v in result.values)
    sig_theta0, sig_ql, sig_x = (float(s) for s in result.sigma)
    f0, sig_f0 = f_mid * (1.0 + x), f_mid * sig_x

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
