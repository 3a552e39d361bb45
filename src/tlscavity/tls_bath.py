"""Quasi-steady TLS bath: per-class coefficients and summed back-action.

Between coarse time steps each TLS class relaxes to the steady state of its
Bloch equations under the instantaneous cavity field, so the bath acts on the
cavity moments only through three numbers per step: an emission rate
kappa_plus, an absorption rate kappa_minus, and a coherent drive correction
added to Omega'. The detuning factor chi of every class is kept in every
formula (chi = 1 for a class on resonance).
"""

from dataclasses import dataclass

import numpy as np

from . import core

# Negative rate magnitudes below this fraction of the positive scale are
# rounded to zero: the quasi-steady closed forms overshoot the
# coherence-population bound by O(2 T2*/T1 - 1) at small n. Larger ones are
# real errors.
_CLAMP_RTOL = 1e-3


@dataclass(frozen=True)
class BathRates:
    """Summed TLS back-action on the cavity for one coarse step.

    omega_prime : external drive plus coherent TLS scattering [1/s]
    kappa_plus : photon emission into the cavity [1/s]
    kappa_minus : photon absorption from the cavity [1/s]
    """

    omega_prime: complex
    kappa_plus: float
    kappa_minus: float

    def __post_init__(self):
        if self.kappa_plus < 0.0 or self.kappa_minus < 0.0:
            raise ValueError("bath rates must be non-negative")


def chi(omega_tls, omega0, t2_star):
    """Detuning factor chi = 1 + i(omega_tls - omega0)*T2*."""
    if not t2_star > 0:
        raise ValueError("t2_star must be > 0")
    return complex(1.0, (omega_tls - omega0) * t2_star)


class ClassTable:
    """Per-class coefficient arrays at one cavity frequency and temperature.

    Each class sits in its quasi-steady state under a field of n photons and
    amplitude <a>. With D = |chi|^2 (1 + 2f) + g^2 n T1 T2*:

        rho_ee = (|chi|^2 f + g^2 n T1 T2* / 2) / D
        rho_ge = i chi g <a> T2* / D

    f is the thermal occupation at the TLS frequency. Everything temperature-
    and detuning-dependent is evaluated once here; rates_at() is a handful
    of length-n_classes vector operations.
    """

    def __init__(self, classes, omega0, temperature):
        g = np.array([c.g for c in classes], dtype=float)
        count = np.array([c.count for c in classes], dtype=float)
        t2 = np.array([core.t2_star(c.T1, c.T_phi, c.omega_tls, temperature)
                       for c in classes], dtype=float)
        f = np.array([core.bose_einstein(c.omega_tls, temperature)
                      for c in classes], dtype=float)
        x = np.array([chi(c.omega_tls, omega0, tk)
                      for c, tk in zip(classes, t2)], dtype=complex)
        ax2 = np.abs(x) ** 2
        T1 = np.array([c.T1 for c in classes], dtype=float)
        self.phi = ax2 * (1.0 + 2.0 * f)              # unsaturated D
        self.sat = g * g * T1 * t2                    # D slope in n
        self.w = 2.0 * count * g * g * t2 / ax2       # rate weight
        self.pop0 = ax2 * f                           # thermal population numerator
        self.coh = ax2 * (g * t2) ** 2                # |rho_ge|^2 weight per |A|^2
        self.svec = count * g * g * t2 * x            # Omega' weight per conj(A)
        self.t2max = float(np.max(t2)) if len(classes) else 0.0

    def rates_at(self, n, amp2):
        """(kappa_plus, kappa_minus, S) from photon number and |<a>|^2.

        kappa_plus/minus = sum_i w_i (rho_ee,i - |rho_ge,i|^2) and
        w_i (rho_gg,i - |rho_ge,i|^2), w = 2 N g^2 T2* / |chi|^2; the bath
        part of Omega' is i conj(<a>) S.
        """
        d = self.phi + self.sat * n
        inv_d = 1.0 / d
        ree = (self.pop0 + 0.5 * self.sat * n) * inv_d
        coh2 = self.coh * amp2 * inv_d * inv_d
        kp = float(np.dot(self.w, ree - coh2))
        km = float(np.dot(self.w, 1.0 - ree - coh2))
        scale = abs(kp) + abs(km) + 1e-30
        if kp < 0.0:
            if -kp <= _CLAMP_RTOL * scale:
                kp = 0.0
            else:
                raise ValueError("kappa_plus negative beyond tolerance")
        if km < 0.0:
            if -km <= _CLAMP_RTOL * scale:
                km = 0.0
            else:
                raise ValueError("kappa_minus negative beyond tolerance")
        s = complex(np.sum(self.svec * inv_d))
        return kp, km, s


def bath_rates(classes, n, amp, omega0, temperature):
    """Bath rates of the classes under n photons of complex amplitude amp.

    omega_prime carries the bath part of Omega' only, sum_i N_i g_i rho_ge,i;
    add the external drive to it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    amp = complex(amp)
    table = ClassTable(classes, omega0, temperature)
    kp, km, s = table.rates_at(n, amp.real * amp.real + amp.imag * amp.imag)
    return BathRates(omega_prime=1j * amp.conjugate() * s, kappa_plus=kp,
                     kappa_minus=km)
