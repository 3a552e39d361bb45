"""Superconductor response versus temperature in the dirty local limit.

Gap suppression, simplified complex conductivity for hbar*omega < 2*Delta,
quasiparticle quality factor from the surface resistance, kinetic-inductance
frequency shift, and the combined two-channel Q_int(T) model. Each function
of temperature maps a temperature array to arrays of its shape (a scalar to
floats), every point bitwise its value alone: exp, tanh, sqrt and hypot go
through `math` point by point. k_B T underflowing to 0 takes the T = 0 forms.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import datafiles, tls_bath
from .core import CONSTANTS
from .errors import ValidityWarning


@dataclass(frozen=True)
class SuperconductorParams:
    """Material inputs for the quasiparticle channel.

    delta0 : zero-temperature half gap [J]
    sigma_n : normal-state conductivity [S/m]
    alpha : kinetic inductance fraction L_kin/L_tot
    g_factor : geometric factor of the mode [Ohm]
    """

    delta0: float
    sigma_n: float
    alpha: float
    g_factor: float

    def __post_init__(self):
        if not self.delta0 > 0:
            raise ValueError("delta0 must be > 0")
        if not self.sigma_n > 0:
            raise ValueError("sigma_n must be > 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.g_factor > 0:
            raise ValueError("g_factor must be > 0")


BCS_RATIO = 1.764  # delta0 = 1.764 k_B T_c


def _libm(fn, *args):
    """math's fn point by point over 1-D arrays (numpy's SIMD exp and tanh
    differ from libm in the last bit)."""
    return np.array(list(map(fn, *(a.tolist() for a in args))), dtype=float)


def _on_temperature_axis(fn):
    """fn(t, ...) gets the temperatures as a 1-D array (ValueError if one is
    negative); its arrays come back in their shape, floats for a scalar."""
    @functools.wraps(fn)
    def wrapper(temperature, *args):
        t = np.asarray(temperature, dtype=float)
        if np.any(t < 0):
            raise ValueError("temperature must be >= 0")
        out = fn(t.reshape(-1), *args)
        one = not isinstance(out, tuple)
        out = tuple(float(v[0]) if t.ndim == 0 else v.reshape(t.shape)
                    for v in ((out,) if one else out))
        return out[0] if one else out
    return wrapper


def _gap(t, delta0):
    kt = CONSTANTS.k_b * t
    out = np.full(t.shape, delta0, dtype=float)
    hot = kt > 0.0
    x = kt[hot] / delta0
    out[hot] = delta0 * (1.0 - _libm(math.sqrt, 2.0 * math.pi * x)
                         * _libm(math.exp, -1.0 / x))
    return out


@_on_temperature_axis
def gap(t, delta0):
    """Thermally suppressed half gap, exact delta0 at T = 0.

    Delta(T) = delta0 (1 - sqrt(2 pi k_B T / delta0) e^{-delta0/k_B T}).
    One ValidityWarning per call if any k_B T exceeds delta0/4.
    """
    if not delta0 > 0:
        raise ValueError("delta0 must be > 0")
    if np.any(CONSTANTS.k_b * t > 0.25 * delta0):
        warnings.warn(
            "k_B T exceeds delta0/4; low-temperature forms degrade here",
            ValidityWarning, stacklevel=3)
    return _gap(t, delta0)


def pair_breaking(temperature, omega, delta0):
    """True where hbar*omega >= 2*Delta(T), outside conductivity's domain
    (a 1-D boolean array). Delta falls with T."""
    t = np.asarray(temperature, dtype=float).reshape(-1)
    return CONSTANTS.hbar * omega >= 2.0 * _gap(t, delta0)


def bessel_k0(x):
    """Modified Bessel function K0 for x > 0 (scipy.special.k0); an array
    gives an array."""
    if not np.all(np.greater(x, 0.0)):
        raise ValueError("x must be > 0")
    import scipy.special  # imported where used, as hyp2f1 in distribution
    return scipy.special.k0(x) if np.ndim(x) else float(scipy.special.k0(x))


@_on_temperature_axis
def conductivity(t, omega, sc):
    """(sigma1, sigma2) [S/m] in the dirty limit for hbar*omega < 2*Delta(T).

    sigma1/sigma_n = (4 Delta/hbar w) e^{-Delta/k_B T} sinh(y) K0(y)
    sigma2/sigma_n = (pi Delta/hbar w) tanh(Delta/2 k_B T)
    with y = hbar w / 2 k_B T. sigma1 is exactly 0 at T = 0. ValueError if
    any temperature is in the pair-breaking regime.
    """
    if not omega > 0:
        raise ValueError("omega must be > 0")
    hw = CONSTANTS.hbar * omega
    d = gap(t, sc.delta0)
    if np.any(hw >= 2.0 * d):
        raise ValueError("hbar*omega >= 2*Delta(T): pair-breaking regime")
    s1 = np.zeros(t.shape)
    s2 = sc.sigma_n * math.pi * d / hw
    kt = CONSTANTS.k_b * t
    hot = kt > 0.0
    kt, d = kt[hot], d[hot]
    y = hw / (2.0 * kt)
    # e^{-Delta/kT} sinh(y) combined in the exponent; both arguments are
    # non-positive because Delta/kT > y whenever hbar w < 2 Delta
    quench = 0.5 * (_libm(math.exp, y - d / kt) - _libm(math.exp, -y - d / kt))
    s1[hot] = sc.sigma_n * (4.0 * d / hw) * quench * bessel_k0(y)
    s2[hot] = sc.sigma_n * (math.pi * d / hw) * _libm(math.tanh, 0.5 * d / kt)
    return s1, s2


@_on_temperature_axis
def freq_shift(t, sc, omega):
    """Normalized kinetic-inductance frequency shift (f(T) - f(0))/f(0).

    alpha * (sigma2(T) - sigma2(0)) / (2 sigma2(T)); sigma2(0) is the
    analytic value sigma_n pi delta0 / hbar w, which conductivity returns
    at T = 0, so the shift is exactly 0 there. Independent of sigma_n.
    """
    _, s2 = conductivity(t, omega, sc)
    s2_zero = sc.sigma_n * math.pi * sc.delta0 / (CONSTANTS.hbar * omega)
    return sc.alpha * (s2 - s2_zero) / (2.0 * s2)


@_on_temperature_axis
def q_qp(t, sc, omega):
    """Quasiparticle quality factor G |sigma|^2 / (sigma1 sqrt((|sigma|+sigma2) w mu0 / 2)).

    +inf where sigma1 vanishes (T = 0) or is so small that Q overflows.
    """
    s1, s2 = conductivity(t, omega, sc)
    out = np.full(t.shape, math.inf)
    lossy = s1 != 0.0
    s1, s2 = s1[lossy], s2[lossy]
    mod = _libm(math.hypot, s1, s2)
    rs = _libm(math.sqrt, (mod + s2) * omega * CONSTANTS.mu_0 / 2.0)
    with np.errstate(over="ignore"):
        out[lossy] = sc.g_factor * mod * mod / (s1 * rs)
    return out


@_on_temperature_axis
def q_tls_temperature(t, classes, cavity):
    """TLS-channel quality factor at vanishing photon number.

    omega0 / (kappa_minus - kappa_plus) from one class table over
    (temperature, class) at n = 0, clamped row by row: only thermal
    saturation acts. +inf where that is not positive (no classes). classes
    is one row of class arrays (g, count, T1, T_phi, omega_tls).
    """
    table = tls_bath.ClassTable(*classes, cavity.omega0, t)
    k_tls = np.array([km - kp for kp, km in (
        tls_bath.clamp_rates(kp, km)
        for _, _, kp, km in table.rate_sums(0.0, 0.0).T.tolist())])
    return np.divide(cavity.omega0, k_tls, out=np.full(t.shape, math.inf),
                     where=~(k_tls <= 0.0))


def _parallel_q(qt, qq):
    """1/Q = 1/Q_TLS + 1/Q_QP; an infinite channel adds no loss."""
    inv = 1.0 / qt + 1.0 / qq
    return np.divide(1.0, inv, out=np.full(inv.shape, math.inf),
                     where=inv != 0.0)


@_on_temperature_axis
def q_int_temperature(t, sc, classes, cavity):
    """Two-channel internal quality factor 1/Q = 1/Q_TLS + 1/Q_QP."""
    return _parallel_q(q_tls_temperature(t, classes, cavity),
                       q_qp(t, sc, cavity.omega0))


def skin_depth(alpha, g_factor, omega0):
    """Field penetration estimate G*alpha/(mu0*omega0) [m]."""
    if alpha < 0 or not g_factor > 0 or not omega0 > 0:
        raise ValueError("alpha >= 0, g_factor > 0, omega0 > 0 required")
    return g_factor * alpha / (CONSTANTS.mu_0 * omega0)


_SWEEP_COLUMNS = ("temperature_K", "delta_J", "sigma1", "sigma2",
                  "freq_shift", "q_qp", "q_tls", "q_int")


def temperature_sweep(temperatures, sc, classes, cavity):
    """Evaluate all channel quantities on a temperature grid, one call per
    quantity over the whole grid.

    Returns a dict of 1-D arrays keyed exactly like the CSV columns.
    """
    t = np.asarray(temperatures, dtype=float).reshape(-1)
    s1, s2 = conductivity(t, cavity.omega0, sc)
    qq = q_qp(t, sc, cavity.omega0)
    qt = q_tls_temperature(t, classes, cavity)
    return dict(zip(_SWEEP_COLUMNS, (
        t, gap(t, sc.delta0), s1, s2, freq_shift(t, sc, cavity.omega0),
        qq, qt, _parallel_q(qt, qq))))


def write_sweep_csv(sweep, path):
    return datafiles.write_csv(
        path, ",".join(_SWEEP_COLUMNS),
        [datafiles.cells(sweep[c]) for c in _SWEEP_COLUMNS])
