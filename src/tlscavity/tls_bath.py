"""Quasi-steady TLS bath: per-class coefficients and summed back-action.

Between coarse time steps each TLS class relaxes to the steady state of its
Bloch equations under the instantaneous cavity field, so the bath acts on the
cavity moments only through three numbers per step: an emission rate
kappa_plus, an absorption rate kappa_minus, and a coherent drive correction
added to Omega'. The detuning factor chi of every class is kept in every
formula (chi = 1 for a class on resonance).
"""

import itertools
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

    omega_prime : coherent TLS scattering, the bath part of Omega' [1/s]
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
    """Per-class coefficient arrays of B rows at one cavity frequency.

    Each class sits in its quasi-steady state under a field of n photons and
    amplitude <a>. With D = |chi|^2 (1 + 2f) + g^2 n T1 T2*:

        rho_ee = (|chi|^2 f + g^2 n T1 T2* / 2) / D
        rho_ge = i chi g <a> T2* / D

    f is the thermal occupation at the TLS frequency. Row b holds the
    classes class_lists[b] (all of one size C) at the temperature of row b:
    temperature is a scalar, or an array with one entry per row (then a
    single class list serves every row). Everything temperature- and
    detuning-dependent is evaluated once here, elementwise, so each row is
    bitwise the table of its class list alone. The coefficients are stored
    class-major, (C, k, B), and rate_sums() is a handful of vector
    operations over all rows followed by one reduction over the outer class
    axis: each row is summed in class order, ((0.0 + x0) + x1) + ...,
    whatever the number of rows. For C <= 7 this is also the order of
    numpy's last-axis sum; from C = 8 on numpy sums in pairwise blocks, so
    tables of 8 or more classes differ from such a sum in the last bits.
    """

    _COEFFS = ("base", "slope", "coh", "weights", "sv")

    def __init__(self, class_lists, omega0, temperature):
        # per class and row: the temperature-free factors, in scalar
        # arithmetic; each (C, rows)
        rows, size = len(class_lists), len(class_lists[0])
        factors = itertools.chain.from_iterable(
            (c.g, c.T1, c.omega_tls, 1.0 / c.T_phi, c.g * c.g * c.T1,
             c.count * c.g * c.g) for classes in class_lists for c in classes)
        g, T1, om, inv_phi, ggt1, cgg = np.fromiter(
            factors, dtype=float, count=6 * rows * size).reshape(
                rows, size, 6).T
        # one occupation per distinct TLS frequency and temperature
        temps = np.asarray(temperature, dtype=float).reshape(-1).tolist()
        freqs = om.ravel().tolist()
        pos = {w: i for i, w in enumerate(dict.fromkeys(freqs))}
        occ = np.array([[core.bose_einstein(w, t) for t in temps]
                        for w in pos], dtype=float)
        f = occ[[pos[w] for w in freqs]].reshape(size, max(rows, len(temps)))
        t2 = 1.0 / ((0.5 + f) / T1 + inv_phi)         # core.t2_star
        d = (om - omega0) * t2                        # chi = 1 + i d
        x = np.empty(d.shape, dtype=complex)
        x.real, x.imag = 1.0, d
        ax2 = np.abs(x) ** 2
        sat = ggt1 * t2                               # D slope in n
        cgt = cgg * t2
        w = 2.0 * cgt / ax2                           # rate weight
        # each (C, k, B): D and the rho_ee numerator at n = 0, their slopes
        # in n, the weight of each summed term (1 for the two Omega' parts,
        # an exact product) and the Omega' weights per conj(A)
        self.base = _class_major(ax2 * (1.0 + 2.0 * f), ax2 * f)
        self.slope = _class_major(sat, 0.5 * sat)
        self.coh = ax2 * (g * t2) ** 2                # |rho_ge|^2 per |A|^2
        one = np.ones_like(w)
        self.weights = _class_major(one, one, w, w)
        self.sv = _class_major(cgt, cgt * d)
        self.t2max = t2.max(axis=0, initial=0.0).tolist()

    def take(self, rows):
        """The table of the given rows, in that order."""
        out = object.__new__(ClassTable)
        for name in self._COEFFS:
            setattr(out, name,
                    np.ascontiguousarray(getattr(self, name)[..., rows]))
        out.t2max = [self.t2max[r] for r in rows]
        return out

    def rate_kernel(self, n, amp2, out):
        """A function of no arguments that writes rate_sums of the values n
        and amp2 hold at the time of the call into out, shape (4, B).

        n and amp2 are arrays of one entry per row (or 0-d); every view and
        scratch buffer is made here, so a call allocates nothing.
        """
        c, rows = self.coh.shape
        # D and the rho_ee numerator around the Omega' weights: one product
        # divides the last three by D
        dsv, terms = np.empty((2, c, 4, rows))
        dsv[:, 1:3] = self.sv
        dn, d0, dsv_ = dsv[:, ::3], dsv[:, 0], dsv[:, 1:]
        inv_d, coh2 = np.empty((2, c, rows))
        inv_col, coh2_col = inv_d[:, None], coh2[:, None]
        head, ree, rgg, pops = (terms[:, :3], terms[:, 2], terms[:, 3],
                                terms[:, 2:])
        base, slope, coh, weights = (self.base, self.slope, self.coh,
                                     self.weights)
        mul, sub, add = np.multiply, np.subtract, np.add

        def kernel():
            mul(slope, n, out=dn)
            add(base, dn, out=dn)
            np.reciprocal(d0, out=inv_d)
            mul(dsv_, inv_col, out=head)
            sub(_ONE, ree, out=rgg)
            mul(coh, amp2, out=coh2)
            mul(coh2, inv_d, out=coh2)
            mul(coh2, inv_d, out=coh2)
            sub(pops, coh2_col, out=pops)
            mul(terms, weights, out=terms)
            return add.reduce(terms, axis=0, out=out)
        return kernel

    def rate_sums(self, n, amp2):
        """Unclamped (Re S, Im S, kappa_plus, kappa_minus), shape (4, B).

        kappa_plus/minus = sum_i w_i (rho_ee,i - |rho_ge,i|^2) and
        w_i (rho_gg,i - |rho_ge,i|^2), w = 2 N g^2 T2* / |chi|^2; the bath
        part of Omega' is i conj(<a>) S. n and amp2 have one entry per row,
        or are scalars.
        """
        out = np.empty((4, self.coh.shape[1]))
        return self.rate_kernel(np.asarray(n, dtype=float),
                                np.asarray(amp2, dtype=float), out)()


def _class_major(*coefs):
    """Contiguous (C, k, B) array of k coefficient arrays of shape (C, B)."""
    return np.array(coefs).swapaxes(0, 1).copy()


def bath_rates(classes, n, amp, omega0, temperature):
    """Bath rates of the classes under n photons of complex amplitude amp.

    omega_prime is the bath part of Omega', sum_i N_i g_i rho_ge,i.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    amp = complex(amp)
    table = ClassTable([classes], omega0, temperature)
    s_re, s_im, kp, km = table.rate_sums(
        n, amp.real * amp.real + amp.imag * amp.imag).ravel().tolist()
    kp, km = clamp_rates(kp, km)
    return BathRates(omega_prime=1j * amp.conjugate() * complex(s_re, s_im),
                     kappa_plus=kp, kappa_minus=km)
