import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import oracles
from oracles import TlsState, tls_steady_state
from tlscavity import BathRates, TlsClass, bath_rates, chi
from tlscavity.tls_bath import ClassTable


W0 = 2.0 * math.pi * 7.9e9


def check_rates_match_state(cls, n, temperature, omega0=None):
    """bath_rates of one class at amplitude sqrt(n) against the rates of the
    oracle's steady state at the same point (kappa_plus clamped at 0)."""
    state = tls_steady_state(cls, n, temperature, omega0)
    kp, km, op = oracles.state_rates(cls, state, W0, temperature)
    rates = bath_rates([cls], n, math.sqrt(n), W0, temperature)
    scale = abs(kp) + abs(km)
    assert rates.kappa_plus == pytest.approx(max(kp, 0.0), rel=1e-12,
                                             abs=1e-12 * scale)
    assert rates.kappa_minus == pytest.approx(km, rel=1e-12)
    assert abs(rates.omega_prime - op) <= 1e-12 * abs(op) + 1e-300
    return state


def test_steady_state_reference_device_times():
    # mpmath oracle: g = 50, T1 = 723 ns, T_phi = 484 ns, T = 20 mK, n = 1e8
    cls = TlsClass(g=50.0, count=1e6, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    st = tls_steady_state(cls, 1e8, 0.02)
    assert st.rho_ee == pytest.approx(0.030756239515575547, rel=1e-12)
    assert st.rho_ge.real == pytest.approx(0.0, abs=1e-18)
    assert st.rho_ge.imag == pytest.approx(0.17015897110066019, rel=1e-12)
    check_rates_match_state(cls, 1e8, 0.02)


def test_steady_state_reference_t2_override():
    # mpmath oracle: g = 51.79..., T2* override 286 ns, T = 20 mK, n = 1e9
    cls = TlsClass.from_t2_star(51.7947467923, 33.75467426, W0, 2.86e-7)
    st = tls_steady_state(cls, 1e9, 0.02)
    assert st.rho_ee == pytest.approx(0.15250450658708755, rel=1e-11)
    assert st.rho_ge.imag == pytest.approx(0.32555990906941685, rel=1e-11)
    check_rates_match_state(cls, 1e9, 0.02)


def test_bath_rates_reference_values():
    cls = TlsClass(g=50.0, count=1e6, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    rates = bath_rates([cls], 1e8, 1e4, W0, 0.02)
    assert rates.kappa_plus == pytest.approx(3.2675382141572879, rel=1e-11)
    assert rates.kappa_minus == pytest.approx(1704.8572492207592, rel=1e-11)
    assert rates.omega_prime.imag == pytest.approx(8507948.5550330096, rel=1e-11)
    assert rates.omega_prime.real == pytest.approx(0.0, abs=1e-4)


def test_bath_rates_reference_values_override_class():
    cls = TlsClass.from_t2_star(51.7947467923, 33.75467426, W0, 2.86e-7)
    rates = bath_rates([cls], 1e9, math.sqrt(1e9), W0, 0.02)
    assert rates.kappa_plus == pytest.approx(0.0024093326019593097, rel=1e-10)
    assert rates.kappa_minus == pytest.approx(0.038407513062227798, rel=1e-10)
    assert rates.omega_prime.imag == pytest.approx(569.18120938108453, rel=1e-10)


def test_rates_linear_in_counts():
    base = TlsClass(g=50.0, count=1e6, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    doubled = TlsClass(g=50.0, count=2e6, omega_tls=W0, T1=7.23e-7,
                       T_phi=4.84e-7)
    r1 = bath_rates([base], 1e8, 1e4, W0, 0.02)
    r2 = bath_rates([doubled], 1e8, 1e4, W0, 0.02)
    assert r2.kappa_plus == pytest.approx(2.0 * r1.kappa_plus, rel=1e-14)
    assert r2.kappa_minus == pytest.approx(2.0 * r1.kappa_minus, rel=1e-14)
    assert r2.omega_prime.imag == pytest.approx(2.0 * r1.omega_prime.imag,
                                                rel=1e-14)


def test_saturation_drives_populations_to_half():
    cls = TlsClass(g=50.0, count=1.0, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    ns = [1e4, 1e6, 1e8, 1e10, 1e12, 1e14]
    states = [check_rates_match_state(cls, n, 0.02) for n in ns]
    rees = [s.rho_ee for s in states]
    assert all(a < b for a, b in zip(rees, rees[1:]))
    assert rees[-1] == pytest.approx(0.5, abs=1e-4)
    # coherence dies off past the saturation knee n ~ 1/(g^2 T1 T2*)
    cohs = [abs(s.rho_ge) for s in states[3:]]
    assert all(a > b for a, b in zip(cohs, cohs[1:]))


def test_zero_field_thermal_state():
    cls = TlsClass(g=50.0, count=1.0, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    st = tls_steady_state(cls, 0.0, 0.5)
    # rho_ee = f/(1+2f) at zero drive
    from tlscavity import bose_einstein
    f = bose_einstein(W0, 0.5)
    assert st.rho_ee == pytest.approx(f / (1.0 + 2.0 * f), rel=1e-13)
    assert st.rho_ge == 0.0
    check_rates_match_state(cls, 0.0, 0.5)


def test_detuned_class_weaker_coupling():
    on = TlsClass(g=50.0, count=1.0, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    off = TlsClass(g=50.0, count=1.0, omega_tls=W0 + 5e7, T1=7.23e-7,
                   T_phi=4.84e-7)
    st_on = check_rates_match_state(on, 1e8, 0.02, omega0=W0)
    st_off = check_rates_match_state(off, 1e8, 0.02, omega0=W0)
    assert abs(st_off.rho_ge) < abs(st_on.rho_ge)
    r_on = bath_rates([on], 1e8, 1e4, W0, 0.02)
    r_off = bath_rates([off], 1e8, 1e4, W0, 0.02)
    assert r_off.kappa_minus < r_on.kappa_minus


def test_chi_detuning_factor():
    assert chi(W0, W0, 2.86e-7) == 1.0 + 0.0j
    x = chi(W0 + 1e6, W0, 2.86e-7)
    assert x.imag == pytest.approx(1e6 * 2.86e-7, rel=1e-14)
    with pytest.raises(ValueError):
        chi(W0, W0, 0.0)


def test_tls_state_positivity_guard():
    TlsState(rho_ee=0.3, rho_ge=0.45j)  # |rho_ge|^2 just under 0.21
    with pytest.raises(ValueError):
        TlsState(rho_ee=0.3, rho_ge=0.5j)  # 0.25 > 0.21 * 1.01
    with pytest.raises(ValueError):
        TlsState(rho_ee=1.2, rho_ge=0.0j)


def test_bath_rates_validation():
    cls = TlsClass(g=50.0, count=1.0, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    with pytest.raises(ValueError):
        bath_rates([cls], -1.0, 0.0, W0, 0.02)
    with pytest.raises(ValueError):
        BathRates(omega_prime=0.0, kappa_plus=-1.0, kappa_minus=1.0)


def test_tiny_negative_kappa_plus_clamped():
    # T1 = 723 ns, T_phi = 484 ns leave T1 slightly below 2 T2*(20 mK), so
    # rho_ee - |rho_ge|^2 dips microscopically negative at moderate n; the
    # summed rate must clamp to zero instead of failing.
    cls = TlsClass(g=5.0, count=1.0, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    # barely saturated, D - 1 ~ 7e-6
    rates = bath_rates([cls], 1e6, 1e3, W0, 0.02)
    assert rates.kappa_plus == 0.0
    assert rates.kappa_minus > 0.0


_classes = hst.lists(
    hst.builds(
        TlsClass,
        g=hst.floats(1e-3, 1e3),
        count=hst.floats(0.0, 1e9),
        omega_tls=hst.floats(-5e7, 5e7).map(lambda d: W0 + d),
        T1=hst.floats(1e-8, 1e-4),
        T_phi=hst.floats(1e-8, 1e-4)),
    min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(classes=_classes,
       n=hst.one_of(hst.just(0.0), hst.floats(1.0, 1e14)),
       temperature=hst.one_of(hst.just(0.0),
                              hst.floats(5e-324, 2.2e-308,
                                         allow_subnormal=True),
                              hst.floats(1e-6, 4.4)))
def test_bath_rates_match_oracle(classes, n, temperature):
    """The package's rate table against the independent oracle table, over
    detuned classes, photon numbers from 0 to 1e14 and 0 to 4.4 K, with
    subnormal temperatures (k_B T underflows to 0) included."""
    amp = complex(math.sqrt(n), 0.0)
    kp, km, op = oracles._Bath(classes, W0, temperature).rates(n, amp)
    assume(kp >= 0.0)  # the package clamps small negative kappa_plus
    rates = bath_rates(classes, n, amp, W0, temperature)
    assert rates.kappa_plus == pytest.approx(kp, rel=1e-12)
    assert rates.kappa_minus == pytest.approx(km, rel=1e-12)
    assert np.isclose(rates.omega_prime, op, rtol=1e-12, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(classes=_classes | hst.just([]),
       temps=hst.lists(hst.one_of(hst.just(0.0),
                                  hst.floats(5e-324, 1e-290,
                                             allow_subnormal=True),
                                  hst.floats(1e-6, 9.0)),
                       min_size=1, max_size=6))
def test_class_table_over_temperatures_is_stacked_tables(classes, temps):
    """A table over a temperature array holds, row by row, bitwise the
    coefficients of the single-temperature tables."""
    table = ClassTable(classes, W0, np.array(temps))
    rows = ClassTable.stack([ClassTable(classes, W0, t) for t in temps])
    for name in ClassTable._COEFFS:
        assert getattr(table, name).tobytes() == getattr(rows, name).tobytes()
    assert np.array_equal(table.t2max, rows.t2max)
    assert isinstance(ClassTable(classes, W0, temps[0]).t2max, float)
