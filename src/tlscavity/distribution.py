"""Power-law distribution of TLS coupling strengths and derived estimates.

dN/dg = (N_tot/eps_s) / (1 + (g/eps')^beta), eps' = eps_s*beta*sin(pi/beta)/pi,
which integrates to exactly N_tot over [0, inf) for any beta > 1; one closed
form of that integral (counts_between) gives every count. Classes sit at the
geometric midpoints of logarithmic bins and carry the bin integrals.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import hyp2f1

from . import datafiles
from .core import CONSTANTS, TlsClass


@dataclass(frozen=True)
class DistributionParams:
    """Power-law coupling distribution over a truncated window.

    n_tot : total TLS count of the untruncated distribution
    beta : tail exponent (> 1 for integrability)
    epsilon_s : scale coupling [1/s], same axis as g
    g_min, g_max : sampling window [1/s]
    n_classes : number of logarithmic bins
    """

    n_tot: float
    beta: float
    epsilon_s: float
    g_min: float
    g_max: float
    n_classes: int

    def __post_init__(self):
        if not self.beta > 1.0:
            raise ValueError("beta must be > 1")
        if not 0.0 < self.g_min < self.g_max:
            raise ValueError("need 0 < g_min < g_max")
        if not self.epsilon_s > 0:
            raise ValueError("epsilon_s must be > 0")
        if self.n_tot < 0:
            raise ValueError("n_tot must be >= 0")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")

    @property
    def epsilon_prime(self):
        """Knee coupling; recomputed, never stored."""
        return self.epsilon_s * self.beta * math.sin(math.pi / self.beta) / math.pi


def density(g, params):
    """dN/dg at coupling g [1/s]; finite at g = 0, ~ g^-beta in the tail."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise ValueError("g must be >= 0")
    ep = params.epsilon_prime
    out = (params.n_tot / params.epsilon_s) / (1.0 + (g / ep) ** params.beta)
    if out.ndim == 0:
        return float(out)
    return out


def bin_edges(params):
    """Logarithmic bin edges over [g_min, g_max], n_classes + 1 values."""
    return np.geomspace(params.g_min, params.g_max, params.n_classes + 1)


def counts_between(params, edges):
    """TLS count between consecutive ascending couplings in edges [1/s].

    The head g 2F1(1, 1/beta; 1+1/beta; -(g/eps')^beta) integrates the
    density over [0, g], the tail g/(beta-1) (eps'/g)^beta 2F1(1, 1-1/beta;
    2-1/beta; -(eps'/g)^beta) over [g, inf). Edges clamped at the knee eps'
    keep each argument in [-1, 0]; a bin holding it takes a piece of each."""
    b, ep = params.beta, params.epsilon_prime
    lo, hi = np.minimum(edges, ep), np.maximum(edges, ep)
    head = lo * hyp2f1(1.0, 1.0 / b, 1.0 + 1.0 / b, -(lo / ep) ** b)
    x = (ep / hi) ** b
    tail = hi / (b - 1.0) * x * hyp2f1(1.0, 1.0 - 1.0 / b, 2.0 - 1.0 / b, -x)
    return params.n_tot / params.epsilon_s * (np.diff(head) - np.diff(tail))


@lru_cache(maxsize=4096)
def _unit_bins(unit):
    """(g_mid, fraction) per bin of a distribution with n_tot = 1; counts
    scale by n_tot afterwards, so they are exactly linear in n_tot."""
    edges = bin_edges(unit)
    return tuple(zip(np.sqrt(edges[:-1] * edges[1:]).tolist(),
                     counts_between(unit, edges).tolist()))


def sample_class_arrays(n_tot, beta, epsilon_s, *, g_min, g_max, n_classes,
                        omega_tls, T1=None, T_phi=None, t2_star=None):
    """sample_classes for B rows of (n_tot, beta, epsilon_s), TLS times per
    row or shared: (g, count, T1, T_phi), each (n_classes, B), and per row
    None or the error sample_classes raises there (the row's columns then
    mean nothing). Reads _unit_bins once per distinct (beta, epsilon_s)."""
    if t2_star is not None:
        if T1 is not None or T_phi is not None:
            raise ValueError("give either t2_star or (T1, T_phi), not both")
        # the times TlsClass.from_t2_star sets
        T1, T_phi = (k * np.asarray(t2_star) for k in (2.0, 4.0 / 3.0))
    elif T1 is None or T_phi is None:
        raise ValueError("give either t2_star or (T1, T_phi)")
    n_tot, beta, epsilon_s, T1, T_phi = np.broadcast_arrays(
        *np.atleast_1d(n_tot, beta, epsilon_s, T1, T_phi))
    g, frac = np.full((2, max(n_classes, 1), len(n_tot)), math.nan)
    for b, e in set(zip(beta.tolist(), epsilon_s.tolist())):
        try:
            unit = DistributionParams(1.0, b, e, g_min, g_max, n_classes)
        except ValueError:
            continue                # its rows stay nan and are refused below
        cols = (beta == b) & (epsilon_s == e)
        g[:, cols], frac[:, cols] = np.array(_unit_bins(unit)).T[:, :, None]
    count = n_tot * frac
    ok = (((g > 0) & (count >= 0)).all(axis=0) & (T1 > 0) & (T_phi > 0)
          & (n_tot >= 0) & (omega_tls > 0))
    refused = [None] * len(n_tot)
    for b in np.flatnonzero(~ok).tolist():
        try:                        # the checks of sample_classes, in order
            DistributionParams(n_tot[b], beta[b], epsilon_s[b], g_min, g_max,
                               n_classes)
            for cls in zip(g[:, b].tolist(), count[:, b].tolist()):
                if t2_star is None:
                    TlsClass(*cls, omega_tls, T1[b], T_phi[b])
                else:               # T1 / 2 is t2, or inf if 2 t2 overflowed
                    TlsClass.from_t2_star(*cls, omega_tls, T1[b] / 2.0)
        except ValueError as exc:
            refused[b] = exc
    return (g, count, *(np.broadcast_to(t, count.shape)
                        for t in (T1, T_phi))), refused


def sample_classes(params, *, omega_tls, T1=None, T_phi=None, t2_star=None):
    """Discretize the distribution into TLS classes.

    Each class sits at the geometric midpoint of its bin and carries the bin
    integral of the density, so the class counts conserve the truncated
    integral regardless of n_classes. TLS times apply uniformly: give either
    (T1, T_phi) or a zero-temperature t2_star override. The one-row case of
    sample_class_arrays.
    """
    arrays, (refused,) = sample_class_arrays(
        params.n_tot, params.beta, params.epsilon_s, g_min=params.g_min,
        g_max=params.g_max, n_classes=params.n_classes, omega_tls=omega_tls,
        T1=T1, T_phi=T_phi, t2_star=t2_star)
    if refused:
        raise refused
    return [TlsClass(g, count, omega_tls, t1, t_phi) for g, count, t1, t_phi
            in zip(*(a[:, 0].tolist() for a in arrays))]


def dipole_from_coupling(g, e_max):
    """Dipole moment d = hbar*g/E_max [C m] for a TLS at the field maximum."""
    if not e_max > 0:
        raise ValueError("e_max must be > 0")
    if g < 0:
        raise ValueError("g must be >= 0")
    return CONSTANTS.hbar * g / e_max


def dipole_in_e_angstrom(g, e_max):
    """Same dipole expressed in units of e*Angstrom."""
    return dipole_from_coupling(g, e_max) / (CONSTANTS.e_charge * 1e-10)


def loss_tangent(classes, e_max, v_ox, kappa, eps_r):
    """TLS loss tangent from sampled classes.

    tan d = sum_i pi * P_i * d_i^2 / (3 eps0 eps_r) with the spectral-volume
    density P_i = N_i/(hbar kappa V_ox) and dipole d_i = hbar g_i / E_max.
    """
    for name, val in (("e_max", e_max), ("v_ox", v_ox), ("kappa", kappa),
                      ("eps_r", eps_r)):
        if not val > 0:
            raise ValueError("%s must be > 0" % name)
    hbar = CONSTANTS.hbar
    pref = math.pi * hbar / (3.0 * CONSTANTS.epsilon_0 * eps_r
                             * kappa * v_ox * e_max * e_max)
    terms = [pref * cls.count * cls.g * cls.g for cls in classes]
    return math.fsum(terms)


def tls_volume_density(classes, g_threshold, bandwidth, v_ox):
    """Strongly coupled TLS per angular bandwidth and oxide volume.

    Counts classes with g >= g_threshold, divided by bandwidth [rad/s] and
    volume [m^3]. Thresholds above the top class give 0.
    """
    if not g_threshold > 0:
        raise ValueError("g_threshold must be > 0")
    if not bandwidth > 0 or not v_ox > 0:
        raise ValueError("bandwidth and v_ox must be > 0")
    count = math.fsum(cls.count for cls in classes if cls.g >= g_threshold)
    return count / (bandwidth * v_ox)


def per_ghz_um3(value):
    """Convert a density per (rad/s m^3) to per (GHz um^3)."""
    return value * (2.0 * math.pi * 1e9) * 1e-18


def write_distribution_csv(classes, path):
    datafiles.write_csv(path, "g_1_per_s,count",
                        [datafiles.cells([cls.g for cls in classes]),
                         datafiles.cells([cls.count for cls in classes])])
