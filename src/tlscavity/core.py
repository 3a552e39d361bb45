"""Physical constants, parameter containers, thermal occupation and dephasing.

All rates and couplings are angular frequencies (1/s) unless a field name says
otherwise. Frequencies named f are ordinary (Hz).
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018, SI units."""

    hbar: float = 1.054571817e-34       # J s
    k_b: float = 1.380649e-23           # J / K
    e_charge: float = 1.602176634e-19   # C
    mu_0: float = 1.25663706212e-6      # N / A^2
    epsilon_0: float = 8.8541878128e-12  # F / m


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class CavityParams:
    """Bare cavity parameters.

    f0 : resonance frequency [Hz]
    kappa0 : total bare energy decay rate [1/s], coupling port included
    kappa_c : coupling (external) decay rate [1/s], kappa_c <= kappa0
    temperature : bath temperature [K]
    """

    f0: float
    kappa0: float
    kappa_c: float
    temperature: float

    def __post_init__(self):
        if not self.f0 > 0:
            raise ValueError("f0 must be > 0")
        if not self.kappa0 > 0:
            raise ValueError("kappa0 must be > 0")
        if self.kappa_c < 0 or self.kappa_c > self.kappa0:
            raise ValueError("kappa_c must lie in [0, kappa0]")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @property
    def omega0(self):
        """Angular resonance frequency [1/s]."""
        return 2.0 * math.pi * self.f0


def bose_einstein(omega, temperature):
    """Thermal occupation of a mode at angular frequency omega [1/s], T in K.

    Exactly 0 at T = 0, and at temperatures so small that k_B T underflows
    to 0 (the T -> 0 limit). Uses expm1 so the low-temperature tail keeps
    full relative precision down to the underflow limit.
    """
    if not omega > 0:
        raise ValueError("omega must be > 0")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    kt = CONSTANTS.k_b * temperature
    if kt == 0.0:
        return 0.0
    x = CONSTANTS.hbar * omega / kt
    if x > 700.0:
        # expm1 would overflow; occupation is e^-x to ~1e-304 accuracy
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def t2_star(T1, T_phi, omega, temperature):
    """Effective transverse coherence time [s] of a TLS at temperature T.

    1/T2* = (1/T1)(1/2 + f(omega, T)) + 1/T_phi, with f the thermal
    occupation. Thermal phonon activation shortens the coherence time, which
    is what ultimately quenches the TLS loss channel at high temperature.
    """
    if not T1 > 0 or not T_phi > 0:
        raise ValueError("T1 and T_phi must be > 0")
    f = bose_einstein(omega, temperature)
    return 1.0 / ((0.5 + f) / T1 + 1.0 / T_phi)
