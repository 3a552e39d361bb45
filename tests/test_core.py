import math

import pytest

from tlscavity import (CONSTANTS, CavityParams, DistributionParams,
                       bose_einstein, sample_classes, t2_star)
from tlscavity.distribution import _refusal


def test_constants_codata():
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.k_b == 1.380649e-23
    assert CONSTANTS.e_charge == 1.602176634e-19
    assert CONSTANTS.mu_0 == 1.25663706212e-6
    assert CONSTANTS.epsilon_0 == 8.8541878128e-12


def test_bose_einstein_reference_values():
    # mpmath, 40 digits
    w0 = 2.0 * math.pi * 7.9e9
    assert bose_einstein(w0, 1.0) == pytest.approx(2.1690663061414864, rel=1e-14)
    assert bose_einstein(w0, 0.02) == pytest.approx(5.8489123133452715e-9, rel=1e-13)
    assert bose_einstein(w0, 0.5) == pytest.approx(0.88136600983131773, rel=1e-14)
    assert bose_einstein(2.0 * math.pi * 1e9, 0.05) == pytest.approx(
        0.62061645822930848, rel=1e-14)


def test_bose_einstein_limits():
    assert bose_einstein(1e10, 0.0) == 0.0
    # deep exponential tail stays finite and tiny instead of overflowing
    assert 0.0 < bose_einstein(2.0 * math.pi * 7.9e9, 5.3e-4) < 1e-300
    # below the smallest subnormal the occupation underflows cleanly to zero
    assert bose_einstein(2.0 * math.pi * 7.9e9, 1e-4) == 0.0
    with pytest.raises(ValueError):
        bose_einstein(0.0, 1.0)
    with pytest.raises(ValueError):
        bose_einstein(1e10, -0.1)


def test_bose_einstein_subnormal_temperature():
    # k_B T underflows to 0 below ~3.6e-301 K: the T -> 0 limit, no
    # division by zero, and t2_star takes its zero-temperature value
    assert bose_einstein(5e10, 5e-324) == 0.0
    assert bose_einstein(5e10, 1e-320) == 0.0
    assert t2_star(2e-6, 1e-6, 1e10, 5e-324) == t2_star(2e-6, 1e-6, 1e10,
                                                        0.0)


def test_t2_star_reference_values():
    w0 = 2.0 * math.pi * 7.9e9
    assert t2_star(7.23e-7, 4.84e-7, w0, 0.02) == pytest.approx(
        3.6262383313311687e-7, rel=1e-14)
    assert t2_star(7.23e-7, 4.84e-7, w0, 1.0) == pytest.approx(
        1.7367834077729549e-7, rel=1e-14)


def test_t2_star_monotone_in_temperature():
    w0 = 2.0 * math.pi * 7.9e9
    vals = [t2_star(7.23e-7, 4.84e-7, w0, t) for t in (0.0, 0.02, 0.3, 1.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_t2_star_zero_temperature_composition():
    # 1/T2 = 1/(2 T1) + 1/T_phi at T = 0
    assert t2_star(2e-6, 1e-6, 1e10, 0.0) == pytest.approx(
        1.0 / (0.5 / 2e-6 + 1.0 / 1e-6), rel=1e-15)


def test_from_t2_star_round_trip():
    # classes sampled from a zero-temperature T2* get T1 = 2 T2* and
    # T_phi = (4/3) T2*, which give back T2* at T = 0
    params = DistributionParams(n_tot=1e6, beta=3.26, epsilon_s=0.25,
                                g_min=1e-3, g_max=1e3, n_classes=7)
    _, _, T1, T_phi, omega_tls = sample_classes(
        params, omega_tls=2.0 * math.pi * 7.9e9, t2_star=2.86e-7)
    for t1, t_phi, omega in zip(T1.ravel(), T_phi.ravel(), omega_tls.ravel()):
        assert t1 == pytest.approx(2.0 * 2.86e-7, rel=1e-15)
        assert t_phi == pytest.approx(4.0 / 3.0 * 2.86e-7, rel=1e-15)
        assert t2_star(t1, t_phi, omega, 0.0) == pytest.approx(2.86e-7,
                                                              rel=1e-12)


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(f0=-1.0, kappa0=500.0, kappa_c=400.0, temperature=0.02)
    with pytest.raises(ValueError):
        CavityParams(f0=7.9e9, kappa0=0.0, kappa_c=0.0, temperature=0.02)
    with pytest.raises(ValueError):
        # coupling rate cannot exceed the total
        CavityParams(f0=7.9e9, kappa0=500.0, kappa_c=600.0, temperature=0.02)
    with pytest.raises(ValueError):
        CavityParams(f0=7.9e9, kappa0=500.0, kappa_c=400.0, temperature=-1.0)
    cav = CavityParams(f0=7.9e9, kappa0=537.7, kappa_c=496.4, temperature=0.02)
    assert cav.omega0 == pytest.approx(2.0 * math.pi * 7.9e9, rel=1e-15)


def test_tls_class_validation():
    # the sampler's one validation function, on one class (g, count, T1,
    # T_phi, omega_tls) of a valid distribution
    def refusal(*cls):
        return _refusal(1.0, 3.0, 0.25, 1e-3, 1e3, 1, [[v] for v in cls])

    assert refusal(1.0, 1.0, 1e-6, 1e-6, 1e10) is None
    assert refusal(0.0, 1.0, 1e-6, 1e-6, 1e10) == "g must be > 0"
    assert refusal(1.0, -1.0, 1e-6, 1e-6, 1e10) == "count must be >= 0"
    assert refusal(1.0, 1.0, 0.0, 1e-6, 1e10) == "T1 and T_phi must be > 0"
