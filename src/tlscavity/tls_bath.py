"""Quasi-steady TLS bath: per-class coefficients and summed back-action.

Between coarse time steps each TLS class relaxes to the steady state of its
Bloch equations under the instantaneous cavity field, so the bath acts on the
cavity moments only through three numbers per step: an emission rate
kappa_plus, an absorption rate kappa_minus, and a coherent drive correction
added to Omega'. Every class sits on resonance with the cavity, so its
detuning factor is 1 and the bath part of Omega' is purely imaginary at
real <a>.
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
    floor = -_CLAMP_RTOL * (abs(kp) + abs(km) + 1e-30)
    if kp < floor:
        raise ValueError("kappa_plus = %g, negative beyond tolerance" % kp)
    if km < floor:
        raise ValueError("kappa_minus = %g, negative beyond tolerance" % km)
    return (0.0 if kp < 0.0 else kp), (0.0 if km < 0.0 else km)


class ClassTable:
    """Per-class coefficient arrays of B rows at the cavity frequency.

    Each class sits in its quasi-steady state under a field of n photons and
    amplitude <a>. With D = 1 + 2f + g^2 n T1 T2*:

        rho_ee = (f + g^2 n T1 T2* / 2) / D
        rho_ge = i g <a> T2* / D

    f is the thermal occupation at omega0. g, count, T1 and T_phi, the
    class arrays, broadcast to (C, B): column b holds the classes of row b.
    temperature is a scalar, or an array with one entry per row (then one
    column of classes serves every row). Everything temperature-dependent
    is evaluated once here, elementwise, so each row is bitwise the table
    of its classes alone. The coefficients are stored row-major, each one
    a contiguous (C, B) block: base (2, C, B) holds D and the rho_ee
    numerator at n = 0; slope (3, C, B) their slopes in n, then
    |rho_ge|^2 D^2 per |<a>|^2; sv (C, B) the Omega' weights per
    conj(<a>); weights (C, B) the rate weights. The rate kernel adds each
    row's classes in class order, ((0.0 + x0) + x1) + ..., for any C.
    """

    _COEFFS = ("base", "slope", "sv", "weights")

    def __init__(self, g, count, T1, T_phi, omega0, temperature):
        # one occupation per temperature
        f = np.array([core.bose_einstein(omega0, t) for t in np.asarray(
            temperature, dtype=float).reshape(-1).tolist()])
        g, count, T1, T_phi, f = np.broadcast_arrays(g, count, T1, T_phi, f)
        t2 = core.coherence_time(T1, T_phi, f)
        sat = g * g * T1 * t2                         # D slope in n
        cgt = count * g * g * t2
        self.base = np.array([1.0 + 2.0 * f, f])
        self.slope = np.array([sat, 0.5 * sat, (g * t2) ** 2])
        self.sv = cgt
        self.weights = 2.0 * cgt
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
        values state holds at the time of the call into out, shape (3, W).

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
        # and 1/D; terms: rho_gg, rho_ee, |rho_ge|^2 and the three summed
        # terms (S, kappa_plus, kappa_minus)
        lin, terms = np.empty((5, size, cols)), np.empty((6, size, cols))
        lin[3] = self.sv
        x, n_part, d, d0, over_d, inv_d = (state[:, None], lin[:3], lin[:2],
                                           lin[0], lin[1:4], lin[4])
        rgg, ree, coh2, pops = terms[0], terms[1], terms[2], terms[4:]
        kp_terms, km_terms = pops
        scaled, summed = terms[1:4], terms[3:]
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
        """Unclamped (S, kappa_plus, kappa_minus), shape (3, B).

        S = sum_i N_i g_i^2 T2*_i / D_i, and kappa_plus/minus =
        sum_i w_i (rho_ee,i - |rho_ge,i|^2) and w_i (rho_gg,i - |rho_ge,i|^2),
        w = 2 N g^2 T2*; the bath part of Omega' is i conj(<a>) S. n and
        amp2 have one entry per row, or are scalars.
        """
        rows = self.weights.shape[1]
        state = np.empty((3, max(rows, 2)))
        state[:2], state[2] = n, amp2
        out = np.empty((3, len(state[0])))
        return self.rate_kernel(state, out)()[:, :rows]


def bath_rates(classes, n, amp, omega0, temperature):
    """Bath rates of one row of class arrays (g, count, T1, T_phi) under n
    photons of complex amplitude amp.

    omega_prime is the bath part of Omega', sum_i N_i g_i rho_ge,i.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    amp = complex(amp)
    table = ClassTable(*classes, omega0, temperature)
    s, kp, km = table.rate_sums(
        n, amp.real * amp.real + amp.imag * amp.imag).ravel().tolist()
    kp, km = clamp_rates(kp, km)
    return BathRates(omega_prime=1j * amp.conjugate() * s,
                     kappa_plus=kp, kappa_minus=km)
