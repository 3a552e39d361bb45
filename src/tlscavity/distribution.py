"""Power-law distribution of TLS coupling strengths and derived estimates.

dN/dg = (N_tot/eps_s) / (1 + (g/eps')^beta), eps' = eps_s*beta*sin(pi/beta)/pi,
which integrates to exactly N_tot over [0, inf) for any beta > 1; one closed
form of that integral (counts_between) gives every count. Classes sit at the
geometric midpoints of logarithmic bins and carry the bin integrals.

The classes are class arrays (g, count, T1, T_phi), each of shape (C, B):
class i of row b sits in column b, as tls_bath.ClassTable takes them. Every
class sits at the cavity frequency, so the arrays carry no TLS frequency.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import datafiles
from .core import CONSTANTS, coherence_time


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
        refusal = _refusal(self.n_tot, self.beta, self.epsilon_s, self.g_min,
                           self.g_max, self.n_classes)
        if refusal:
            raise ValueError(refusal)

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
    # imported where used: commands that sample no class skip its load
    from scipy.special import hyp2f1

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


def _refusal(n_tot, beta, epsilon_s, g_min, g_max, n_classes, classes=(),
             t2=None, finite=True):
    """The message of the first check that fails, or None: the
    distribution's parameters, the zero-temperature t2 the TLS times came
    from (if any), each class in turn (classes: one row of class arrays),
    and last whether that row's table coefficients are finite."""
    checks = [(beta > 1.0, "beta must be > 1"),
              (0.0 < g_min < g_max, "need 0 < g_min < g_max"),
              (epsilon_s > 0, "epsilon_s must be > 0"),
              (not n_tot < 0, "n_tot must be >= 0"),
              (n_classes >= 1, "n_classes must be >= 1"),
              (t2 is None or t2 > 0, "t2 must be > 0")]
    for g, count, T1, T_phi in zip(*classes):
        checks += [(g > 0, "g must be > 0"),
                   (not count < 0, "count must be >= 0"),
                   (T1 > 0 and T_phi > 0, "T1 and T_phi must be > 0")]
    checks.append((finite, "the class table overflows: g^2 T1 T2*, "
                           "2 N g^2 T2* or (g T2*)^2 is not finite"))
    return next((msg for ok, msg in checks if not ok), None)


def sample_class_arrays(n_tot, beta, epsilon_s, *, g_min, g_max, n_classes,
                        T1=None, T_phi=None, t2_star=None):
    """The TLS classes of B rows of (n_tot, beta, epsilon_s): class arrays
    (g, count, T1, T_phi), each (n_classes, B), and per row None or the
    ValueError that refuses it (the row's columns then mean nothing).

    Each class sits at the geometric midpoint of its bin and carries the bin
    integral of the density, so the class counts conserve the truncated
    integral regardless of n_classes. TLS times, per row or shared, apply
    uniformly: (T1, T_phi), or a zero-temperature t2_star that sets T1 =
    2 t2_star and T_phi = (4/3) t2_star (T2* at T -> 0 is then t2_star).
    Reads _unit_bins once per distinct (beta, epsilon_s).
    """
    if t2_star is not None:
        if T1 is not None or T_phi is not None:
            raise ValueError("give either t2_star or (T1, T_phi), not both")
        with np.errstate(over="ignore"):    # refused below
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
    with np.errstate(all="ignore"):
        t2 = coherence_time(T1, T_phi, 0.0)    # T2* at T = 0, its largest
        finite = np.isfinite([g * g * T1 * t2, 2.0 * (count * g * g * t2),
                              (g * t2) ** 2]).all(axis=(0, 1))
    ok = (((g > 0) & (count >= 0)).all(axis=0) & (T1 > 0) & (T_phi > 0)
          & (n_tot >= 0) & finite)
    classes = (g, count, *(np.broadcast_to(a, count.shape)
                           for a in (T1, T_phi)))
    refused = [None] * len(n_tot)
    for b in np.flatnonzero(~ok).tolist():
        refusal = _refusal(
            n_tot[b], beta[b], epsilon_s[b], g_min, g_max, n_classes,
            [a[:, b].tolist() for a in classes],
            # T1 / 2 is t2, or inf if 2 t2 overflowed
            None if t2_star is None else T1[b] / 2.0, finite[b])
        refused[b] = ValueError(refusal) if refusal else None
    return classes, refused


def sample_classes(params, *, T1=None, T_phi=None, t2_star=None):
    """The class arrays of one distribution, each (n_classes, 1): the
    one-row case of sample_class_arrays, raising its refusal."""
    classes, (refused,) = sample_class_arrays(
        params.n_tot, params.beta, params.epsilon_s, g_min=params.g_min,
        g_max=params.g_max, n_classes=params.n_classes, T1=T1, T_phi=T_phi,
        t2_star=t2_star)
    if refused:
        raise refused
    return classes


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
    """TLS loss tangent from one row of class arrays.

    tan d = sum_i pi * P_i * d_i^2 / (3 eps0 eps_r) with the spectral-volume
    density P_i = N_i/(hbar kappa V_ox) and dipole d_i = hbar g_i / E_max.
    The denominator 3 eps0 eps_r kappa V_ox E_max^2 must not underflow.
    """
    denom = 3.0 * CONSTANTS.epsilon_0 * eps_r * kappa * v_ox * e_max * e_max
    for name, val in (("e_max", e_max), ("v_ox", v_ox), ("kappa", kappa),
                      ("eps_r", eps_r), ("3 eps0 eps_r kappa v_ox e_max^2",
                                         denom)):
        if not val > 0:
            raise ValueError("%s must be > 0" % name)
    pref = math.pi * CONSTANTS.hbar / denom
    g, count = (a.ravel() for a in classes[:2])
    return math.fsum((pref * count * g * g).tolist())


def tls_volume_density(classes, g_threshold, bandwidth, v_ox_field):
    """Strongly coupled TLS per angular bandwidth and oxide volume.

    Counts the classes of one row of class arrays with g >= g_threshold,
    divided by bandwidth [rad/s] and the field-weighted volume v_ox_field
    [m^3]. Thresholds above the top class give 0.
    """
    if not g_threshold > 0:
        raise ValueError("g_threshold must be > 0")
    denom = bandwidth * v_ox_field
    if not (bandwidth > 0 and v_ox_field > 0 and denom > 0):
        raise ValueError("bandwidth, v_ox_field and their product must be > 0")
    g, count = (a.ravel() for a in classes[:2])
    return math.fsum(count[g >= g_threshold].tolist()) / denom


def per_ghz_um3(value):
    """Convert a density per (rad/s m^3) to per (GHz um^3)."""
    return value * (2.0 * math.pi * 1e9) * 1e-18


def write_distribution_csv(classes, path):
    """classes.csv of a row of class arrays (g, count); its SHA-256."""
    return datafiles.write_csv(
        path, "g_1_per_s,count",
        [datafiles.cells(a.ravel()) for a in classes[:2]])
