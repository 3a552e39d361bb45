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
_ONE = np.array(1.0)  # numpy calls take a 0-d array faster than a float


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


def clamp_rates(kp, km):
    """Round microscopically negative summed rates to zero.

    Raises ValueError when either rate is negative beyond _CLAMP_RTOL of the
    positive scale |kappa_plus| + |kappa_minus|.
    """
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
    return kp, km


class ClassTable:
    """Per-class coefficient arrays at one cavity frequency and temperature.

    Each class sits in its quasi-steady state under a field of n photons and
    amplitude <a>. With D = |chi|^2 (1 + 2f) + g^2 n T1 T2*:

        rho_ee = (|chi|^2 f + g^2 n T1 T2* / 2) / D
        rho_ge = i chi g <a> T2* / D

    f is the thermal occupation at the TLS frequency. Everything temperature-
    and detuning-dependent is evaluated once here; rate_sums() is a handful
    of vector operations over the class axis. A temperature array of shape
    (B,) gives (B, C) arrays, one row per temperature, as stack() does for
    the tables of several trajectories (same class count); rate_sums()
    evaluates such a table row by row in one call.
    """

    _COEFFS = ("base", "slope", "coh", "w2", "sv")

    def __init__(self, classes, omega0, temperature):
        # per class: the temperature-free factors, in scalar arithmetic
        g, T1, om, inv_phi, ggt1, cgg = np.array(
            [(c.g, c.T1, c.omega_tls, 1.0 / c.T_phi, c.g * c.g * c.T1,
              c.count * c.g * c.g) for c in classes],
            dtype=float).reshape(-1, 6).T.copy()
        temps = np.asarray(temperature, dtype=float)  # one f per frequency
        occ = {w: [core.bose_einstein(w, t) for t in temps.ravel().tolist()]
               for w in set(om.tolist())}
        f = np.array([occ[w] for w in om.tolist()], dtype=float).T.reshape(
            temps.shape + om.shape)
        t2 = 1.0 / ((0.5 + f) / T1 + inv_phi)         # core.t2_star
        d = (om - omega0) * t2                        # chi = 1 + i d
        x = np.empty(d.shape, dtype=complex)
        x.real, x.imag = 1.0, d
        ax2 = np.abs(x) ** 2
        sat = ggt1 * t2                               # D slope in n
        cgt = cgg * t2
        w = 2.0 * cgt / ax2                           # rate weight
        coef = np.array([
            ax2 * (1.0 + 2.0 * f), ax2 * f,   # D, rho_ee numerator at n = 0
            sat, 0.5 * sat,                   # ... and their slopes in n
            ax2 * (g * t2) ** 2,              # |rho_ge|^2 weight per |A|^2
            w, w,
            cgt, cgt * d,                     # Omega' weight per conj(A)
        ]).swapaxes(0, -2)                    # (..., 9, C)
        self.base, self.slope, self.coh, self.w2, self.sv = (
            coef[..., 0:2, :], coef[..., 2:4, :], coef[..., 4, :],
            coef[..., 5:7, :], coef[..., 7:9, :])
        self.t2max = t2.max(axis=-1, initial=0.0).tolist()

    @property
    def n_classes(self):
        return self.coh.shape[-1]

    @classmethod
    def stack(cls, tables):
        """One table holding the rows of several same-size tables."""
        out = cls.__new__(cls)
        for name in cls._COEFFS:
            setattr(out, name, np.stack([getattr(t, name) for t in tables]))
        out.t2max = np.array([t.t2max for t in tables])
        return out

    def rate_sums(self, n, amp2, out=None):
        """Unclamped (Re S, Im S, kappa_plus, kappa_minus) per row.

        kappa_plus/minus = sum_i w_i (rho_ee,i - |rho_ge,i|^2) and
        w_i (rho_gg,i - |rho_ge,i|^2), w = 2 N g^2 T2* / |chi|^2; the bath
        part of Omega' is i conj(<a>) S. n and amp2 have one entry per row
        (shape (B,) for a stacked table, scalars for a single one). The sums
        run over the last axis of one contiguous (..., 4, C) array, so each
        row is summed in the same order whatever the number of rows.
        """
        n, amp2 = np.asarray(n), np.asarray(amp2)
        if n.ndim:  # one entry per row of a stacked table
            n, amp2 = n[..., None, None], amp2[..., None]
        dn = self.base + self.slope * n
        inv_d = np.reciprocal(dn[..., 0, :])
        terms = np.empty(dn.shape[:-2] + (4,) + dn.shape[-1:])
        np.multiply(self.sv, inv_d[..., None, :], out=terms[..., :2, :])
        pops = terms[..., 2:, :]
        ree = np.multiply(dn[..., 1, :], inv_d, out=pops[..., 0, :])
        np.subtract(_ONE, ree, out=pops[..., 1, :])
        coh2 = self.coh * amp2 * inv_d * inv_d
        pops -= coh2[..., None, :]
        pops *= self.w2
        return terms.sum(axis=-1, out=out)

    def rates_at(self, n, amp2):
        """Clamped (kappa_plus, kappa_minus, S) of a single table at scalar
        photon number n and |<a>|^2."""
        s_re, s_im, kp, km = self.rate_sums(n, amp2).tolist()
        kp, km = clamp_rates(kp, km)
        return kp, km, complex(s_re, s_im)


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
