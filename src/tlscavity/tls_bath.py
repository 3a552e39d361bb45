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

    f is the thermal occupation at the TLS frequency. g, count, T1, T_phi
    and omega_tls, the class arrays, broadcast to (C, B): column b holds
    the classes of row b.
    temperature is a scalar, or an array with one entry per row (then one
    column of classes serves every row). Everything temperature- and
    detuning-dependent is evaluated once here, elementwise, so each row is
    bitwise the table of its classes alone. The coefficients are stored
    row-major, (quantity, C, B), each one a contiguous (C, B) block: base
    holds D and the rho_ee numerator at n = 0; slope their slopes in n,
    then |rho_ge|^2 D^2 per |<a>|^2; sv the Omega' weights per conj(<a>);
    weights (C, B) the rate weights. The rate kernel adds each row's
    classes in class order, ((0.0 + x0) + x1) + ..., for any C.
    """

    _COEFFS = ("base", "slope", "sv", "weights")

    def __init__(self, g, count, T1, T_phi, omega_tls, omega0, temperature):
        g, count, T1, T_phi, om = np.broadcast_arrays(g, count, T1, T_phi,
                                                      omega_tls)
        # one occupation per distinct TLS frequency and temperature
        temps = np.asarray(temperature, dtype=float).reshape(-1).tolist()
        freqs = om.ravel().tolist()
        pos = {w: i for i, w in enumerate(dict.fromkeys(freqs))}
        occ = np.array([[core.bose_einstein(w, t) for t in temps]
                        for w in pos], dtype=float)
        size, rows = om.shape
        f = occ[[pos[w] for w in freqs]].reshape(size, max(rows, len(temps)))
        t2 = 1.0 / ((0.5 + f) / T1 + 1.0 / T_phi)     # core.t2_star
        d = (om - omega0) * t2                        # chi = 1 + i d
        x = np.empty(d.shape, dtype=complex)
        x.real, x.imag = 1.0, d
        ax2 = np.abs(x) ** 2
        sat = g * g * T1 * t2                         # D slope in n
        cgt = count * g * g * t2
        self.base = np.array([ax2 * (1.0 + 2.0 * f), ax2 * f])
        self.slope = np.array([sat, 0.5 * sat, ax2 * (g * t2) ** 2])
        self.sv = np.array([cgt, cgt * d])
        self.weights = 2.0 * cgt / ax2
        self.t2max = t2.max(axis=0, initial=0.0).tolist()

    def take(self, rows):
        """The table of the given rows, in that order."""
        out = object.__new__(ClassTable)
        for name in self._COEFFS:
            setattr(out, name,
                    np.ascontiguousarray(getattr(self, name)[..., rows]))
        out.t2max = [self.t2max[r] for r in rows]
        return out

    def rate_kernel(self, state, out):
        """A function of no arguments that writes the rate sums of the
        values state holds at the time of the call into out, shape (4, W).

        state is a (3, W) view whose rows hold n, n again and |<a>|^2, one
        column per row. A one-row table is repeated over W = 2 columns: on
        one column numpy would sum 8 or more classes pairwise. A call makes
        ten numpy calls over whole (C, W) blocks, each output passed
        positionally, and allocates nothing. The rate weights are stored
        twice, so that weighting both population differences is one product
        of contiguous blocks of one shape; each population difference is
        one flat subtraction of |rho_ge|^2.
        """
        cols, size = out.shape[1], len(self.weights)
        # base, slope and the weights twice, spread over the W columns
        coeffs = np.empty((7, size, cols))
        coeffs[:2], coeffs[2:5], coeffs[5:] = (self.base, self.slope,
                                               self.weights)
        base, slope, weights = coeffs[:2], coeffs[2:5], coeffs[5:]
        # lin: D, the rho_ee numerator N, |rho_ge|^2 D^2, the Omega' weights
        # and 1/D; terms: rho_gg, rho_ee, |rho_ge|^2 and the four summed
        # terms (S_re, S_im, kappa_plus, kappa_minus)
        lin, terms = np.empty((6, size, cols)), np.empty((7, size, cols))
        lin[3:5] = self.sv
        x, n_part, d, d0, over_d, inv_d = (state[:, None], lin[:3], lin[:2],
                                           lin[0], lin[1:5], lin[5])
        rgg, ree, coh2, pops = terms[0], terms[1], terms[2], terms[5:]
        kp_terms, km_terms = pops
        scaled, summed = terms[1:5], terms[3:]
        mul, sub, add, reduce, reciprocal = (
            np.multiply, np.subtract, np.add, np.add.reduce, np.reciprocal)

        def kernel():
            mul(slope, x, n_part)
            add(base, d, d)
            reciprocal(d0, inv_d)
            mul(over_d, inv_d, scaled)
            mul(coh2, inv_d, coh2)
            sub(_ONE, ree, rgg)
            sub(ree, coh2, kp_terms)
            sub(rgg, coh2, km_terms)
            mul(pops, weights, pops)
            return reduce(summed, 1, None, out)
        return kernel

    def rate_sums(self, n, amp2):
        """Unclamped (Re S, Im S, kappa_plus, kappa_minus), shape (4, B).

        kappa_plus/minus = sum_i w_i (rho_ee,i - |rho_ge,i|^2) and
        w_i (rho_gg,i - |rho_ge,i|^2), w = 2 N g^2 T2* / |chi|^2; the bath
        part of Omega' is i conj(<a>) S. n and amp2 have one entry per row,
        or are scalars.
        """
        rows = self.weights.shape[1]
        state = np.empty((3, max(rows, 2)))
        state[:2], state[2] = n, amp2
        out = np.empty((4, len(state[0])))
        return self.rate_kernel(state, out)()[:, :rows]


def bath_rates(classes, n, amp, omega0, temperature):
    """Bath rates of one row of class arrays (g, count, T1, T_phi,
    omega_tls) under n photons of complex amplitude amp.

    omega_prime is the bath part of Omega', sum_i N_i g_i rho_ge,i.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    amp = complex(amp)
    table = ClassTable(*classes, omega0, temperature)
    s_re, s_im, kp, km = table.rate_sums(
        n, amp.real * amp.real + amp.imag * amp.imag).ravel().tolist()
    kp, km = clamp_rates(kp, km)
    return BathRates(omega_prime=1j * amp.conjugate() * complex(s_re, s_im),
                     kappa_plus=kp, kappa_minus=km)
