"""Superconductor response versus temperature in the dirty local limit.

Gap suppression, simplified complex conductivity for hbar*omega < 2*Delta,
quasiparticle quality factor from the surface resistance, kinetic-inductance
frequency shift, and the combined two-channel Q_int(T) model.
"""

import math
import warnings
from dataclasses import dataclass

import scipy.special

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


def critical_temperature(delta0):
    """T_c from the weak-coupling gap ratio."""
    return delta0 / (BCS_RATIO * CONSTANTS.k_b)


def _warn_validity(temperature, delta0):
    if CONSTANTS.k_b * temperature > 0.25 * delta0:
        warnings.warn(
            "k_B T exceeds delta0/4; low-temperature forms degrade here",
            ValidityWarning, stacklevel=3)


def gap(temperature, delta0):
    """Thermally suppressed half gap, exact delta0 at T = 0.

    Delta(T) = delta0 (1 - sqrt(2 pi k_B T / delta0) e^{-delta0/k_B T}).
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if not delta0 > 0:
        raise ValueError("delta0 must be > 0")
    if temperature == 0.0:
        return delta0
    _warn_validity(temperature, delta0)
    x = CONSTANTS.k_b * temperature / delta0
    return delta0 * (1.0 - math.sqrt(2.0 * math.pi * x) * math.exp(-1.0 / x))


def bessel_k0(x):
    """Modified Bessel function K0 for x > 0 (scipy.special.k0)."""
    if not x > 0:
        raise ValueError("x must be > 0")
    return float(scipy.special.k0(x))


def conductivity(temperature, omega, sc):
    """(sigma1, sigma2) [S/m] in the dirty limit for hbar*omega < 2*Delta(T).

    sigma1/sigma_n = (4 Delta/hbar w) e^{-Delta/k_B T} sinh(y) K0(y)
    sigma2/sigma_n = (pi Delta/hbar w) tanh(Delta/2 k_B T)
    with y = hbar w / 2 k_B T. sigma1 is exactly 0 at T = 0.
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if not omega > 0:
        raise ValueError("omega must be > 0")
    hw = CONSTANTS.hbar * omega
    d = gap(temperature, sc.delta0)
    if hw >= 2.0 * d:
        raise ValueError("hbar*omega >= 2*Delta(T): pair-breaking regime")
    if temperature == 0.0:
        return 0.0, sc.sigma_n * math.pi * d / hw
    kt = CONSTANTS.k_b * temperature
    y = hw / (2.0 * kt)
    # e^{-Delta/kT} sinh(y) combined in the exponent; both arguments are
    # non-positive because Delta/kT > y whenever hbar w < 2 Delta
    quench = 0.5 * (math.exp(y - d / kt) - math.exp(-y - d / kt))
    sigma1 = sc.sigma_n * (4.0 * d / hw) * quench * bessel_k0(y)
    sigma2 = sc.sigma_n * (math.pi * d / hw) * math.tanh(0.5 * d / kt)
    return sigma1, sigma2


def freq_shift(temperature, sc, omega):
    """Normalized kinetic-inductance frequency shift (f(T) - f(0))/f(0).

    alpha * (sigma2(T) - sigma2(0)) / (2 sigma2(T)); sigma2(0) is the
    analytic value sigma_n pi delta0 / hbar w. Exactly 0 at T = 0 and
    independent of sigma_n.
    """
    if temperature == 0.0:
        return 0.0
    _, s2 = conductivity(temperature, omega, sc)
    s2_zero = sc.sigma_n * math.pi * sc.delta0 / (CONSTANTS.hbar * omega)
    return sc.alpha * (s2 - s2_zero) / (2.0 * s2)


def q_qp(temperature, sc, omega):
    """Quasiparticle quality factor G |sigma|^2 / (sigma1 sqrt((|sigma|+sigma2) w mu0 / 2)).

    Returns +inf at T = 0 where sigma1 vanishes.
    """
    s1, s2 = conductivity(temperature, omega, sc)
    if s1 == 0.0:
        return math.inf
    mod = math.hypot(s1, s2)
    rs = math.sqrt((mod + s2) * omega * CONSTANTS.mu_0 / 2.0)
    return sc.g_factor * mod * mod / (s1 * rs)


def q_tls_temperature(temperature, classes, cavity):
    """TLS-channel quality factor at vanishing photon number.

    omega0 / (kappa_minus - kappa_plus) with the bath evaluated at n = 0 and
    the given temperature: only thermal saturation acts. +inf for an empty
    class list.
    """
    if not classes:
        return math.inf
    rates = tls_bath.bath_rates(classes, 0.0, 0.0, cavity.omega0, temperature)
    k_tls = rates.kappa_minus - rates.kappa_plus
    if k_tls <= 0.0:
        return math.inf
    return cavity.omega0 / k_tls


def _parallel_q(qt, qq):
    """1/Q = 1/Q_TLS + 1/Q_QP; an infinite channel adds no loss."""
    inv = (0.0 if math.isinf(qt) else 1.0 / qt) + \
          (0.0 if math.isinf(qq) else 1.0 / qq)
    return math.inf if inv == 0.0 else 1.0 / inv


def q_int_temperature(temperature, sc, classes, cavity):
    """Two-channel internal quality factor 1/Q = 1/Q_TLS + 1/Q_QP."""
    return _parallel_q(q_tls_temperature(temperature, classes, cavity),
                       q_qp(temperature, sc, cavity.omega0))


def skin_depth(alpha, g_factor, omega0):
    """Field penetration estimate G*alpha/(mu0*omega0) [m]."""
    if alpha < 0 or not g_factor > 0 or not omega0 > 0:
        raise ValueError("alpha >= 0, g_factor > 0, omega0 > 0 required")
    return g_factor * alpha / (CONSTANTS.mu_0 * omega0)


_SWEEP_COLUMNS = ("temperature_K", "delta_J", "sigma1", "sigma2",
                  "freq_shift", "q_qp", "q_tls", "q_int")


def temperature_sweep(temperatures, sc, classes, cavity):
    """Evaluate all channel quantities on a temperature grid.

    Returns a dict of lists keyed exactly like the CSV columns.
    """
    out = {k: [] for k in _SWEEP_COLUMNS}
    for t in temperatures:
        t = float(t)
        s1, s2 = conductivity(t, cavity.omega0, sc)
        qq = q_qp(t, sc, cavity.omega0)
        qt = q_tls_temperature(t, classes, cavity)
        out["temperature_K"].append(t)
        out["delta_J"].append(gap(t, sc.delta0))
        out["sigma1"].append(s1)
        out["sigma2"].append(s2)
        out["freq_shift"].append(freq_shift(t, sc, cavity.omega0))
        out["q_qp"].append(qq)
        out["q_tls"].append(qt)
        out["q_int"].append(_parallel_q(qt, qq))
    return out


def write_sweep_csv(sweep, path):
    datafiles.write_csv(path, ",".join(_SWEEP_COLUMNS),
                        zip(*(sweep[c] for c in _SWEEP_COLUMNS)))
