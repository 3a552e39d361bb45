import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

import oracles
from oracles import TlsClass, TlsState, class_arrays, tls_steady_state
from tlscavity import (BathRates, DistributionParams, bath_rates,
                       sample_classes)
from tlscavity.distribution import sample_class_arrays
from tlscavity.tls_bath import ClassTable


W0 = 2.0 * math.pi * 7.9e9


def class_rates(classes, n, amp, omega0, temperature):
    """bath_rates of a TlsClass list."""
    return bath_rates(class_arrays([classes]), n, amp, omega0, temperature)


def list_table(class_lists, omega0, temperature):
    """The ClassTable whose row b holds the TlsClass list class_lists[b]."""
    return ClassTable(*class_arrays(class_lists), omega0, temperature)


def check_rates_match_state(cls, n, temperature, omega0=None):
    """bath_rates of one class at amplitude sqrt(n) against the rates of the
    oracle's steady state at the same point (kappa_plus clamped at 0)."""
    state = tls_steady_state(cls, n, temperature, omega0)
    kp, km, op = oracles.state_rates(cls, state, W0, temperature)
    rates = class_rates([cls], n, math.sqrt(n), W0, temperature)
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
    rates = class_rates([cls], 1e8, 1e4, W0, 0.02)
    assert rates.kappa_plus == pytest.approx(3.2675382141572879, rel=1e-11)
    assert rates.kappa_minus == pytest.approx(1704.8572492207592, rel=1e-11)
    assert rates.omega_prime.imag == pytest.approx(8507948.5550330096, rel=1e-11)
    assert rates.omega_prime.real == pytest.approx(0.0, abs=1e-4)


def test_bath_rates_reference_values_override_class():
    cls = TlsClass.from_t2_star(51.7947467923, 33.75467426, W0, 2.86e-7)
    rates = class_rates([cls], 1e9, math.sqrt(1e9), W0, 0.02)
    assert rates.kappa_plus == pytest.approx(0.0024093326019593097, rel=1e-10)
    assert rates.kappa_minus == pytest.approx(0.038407513062227798, rel=1e-10)
    assert rates.omega_prime.imag == pytest.approx(569.18120938108453, rel=1e-10)


def test_rates_linear_in_counts():
    base = TlsClass(g=50.0, count=1e6, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    doubled = TlsClass(g=50.0, count=2e6, omega_tls=W0, T1=7.23e-7,
                       T_phi=4.84e-7)
    r1 = class_rates([base], 1e8, 1e4, W0, 0.02)
    r2 = class_rates([doubled], 1e8, 1e4, W0, 0.02)
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
    r_on = class_rates([on], 1e8, 1e4, W0, 0.02)
    r_off = class_rates([off], 1e8, 1e4, W0, 0.02)
    assert r_off.kappa_minus < r_on.kappa_minus


def test_tls_state_positivity_guard():
    TlsState(rho_ee=0.3, rho_ge=0.45j)  # |rho_ge|^2 just under 0.21
    with pytest.raises(ValueError):
        TlsState(rho_ee=0.3, rho_ge=0.5j)  # 0.25 > 0.21 * 1.01
    with pytest.raises(ValueError):
        TlsState(rho_ee=1.2, rho_ge=0.0j)


def test_bath_rates_validation():
    cls = TlsClass(g=50.0, count=1.0, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    with pytest.raises(ValueError):
        class_rates([cls], -1.0, 0.0, W0, 0.02)
    with pytest.raises(ValueError):
        BathRates(omega_prime=0.0, kappa_plus=-1.0, kappa_minus=1.0)


def test_tiny_negative_kappa_plus_clamped():
    # T1 = 723 ns, T_phi = 484 ns leave T1 slightly below 2 T2*(20 mK), so
    # rho_ee - |rho_ge|^2 dips microscopically negative at moderate n; the
    # summed rate must clamp to zero instead of failing.
    cls = TlsClass(g=5.0, count=1.0, omega_tls=W0, T1=7.23e-7, T_phi=4.84e-7)
    # barely saturated, D - 1 ~ 7e-6
    rates = class_rates([cls], 1e6, 1e3, W0, 0.02)
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
    rates = class_rates(classes, n, amp, W0, temperature)
    assert rates.kappa_plus == pytest.approx(kp, rel=1e-12)
    assert rates.kappa_minus == pytest.approx(km, rel=1e-12)
    assert np.isclose(rates.omega_prime, op, rtol=1e-12, atol=0.0)


_temperature = hst.one_of(hst.just(0.0),
                         hst.floats(5e-324, 1e-290, allow_subnormal=True),
                         hst.floats(1e-6, 9.0))
_class = hst.builds(
    TlsClass,
    g=hst.floats(1e-3, 1e3),
    count=hst.floats(0.0, 1e9),
    omega_tls=hst.one_of(hst.just(W0),
                         hst.floats(-5e7, 5e7).map(lambda d: W0 + d)),
    T1=hst.floats(1e-8, 1e-4),
    T_phi=hst.floats(1e-8, 1e-4))


def _same_rows(table, solos):
    """Row b of table holds bitwise the one-row table solos[b]."""
    for b, solo in enumerate(solos):
        for name in ClassTable._COEFFS:
            assert (getattr(table, name)[..., b].tobytes()
                    == getattr(solo, name)[..., 0].tobytes())
        assert table.t2max[b] == solo.t2max[0]


@settings(max_examples=100, deadline=None)
@given(data=hst.data(), size=hst.integers(0, 12),
       rows=hst.integers(1, 6), temperature=_temperature)
def test_class_table_over_class_lists_is_the_one_list_tables(
        data, size, rows, temperature):
    """A table over B same-size class lists holds, row by row, bitwise the
    coefficients of the one-list tables; take() picks rows of it."""
    lists = [data.draw(hst.lists(_class, min_size=size, max_size=size))
             for _ in range(rows)]
    table = list_table(lists, W0, temperature)
    solos = [list_table([c], W0, temperature) for c in lists]
    _same_rows(table, solos)
    picked = list(range(rows))[::-2]
    _same_rows(table.take(picked), [solos[r] for r in picked])


@settings(max_examples=100, deadline=None)
@given(classes=_classes | hst.just([]),
       temps=hst.lists(_temperature, min_size=1, max_size=6))
def test_class_table_over_temperatures_is_the_one_temperature_tables(
        classes, temps):
    """A table over a temperature array, one row per temperature, holds
    row by row bitwise the coefficients and the rate sums of the
    single-temperature tables."""
    table = list_table([classes], W0, np.array(temps))
    solos = [list_table([classes], W0, t) for t in temps]
    _same_rows(table, solos)
    n = np.linspace(0.0, 1e6, len(temps))
    sums = table.rate_sums(n, 0.5 * n)
    for b, solo in enumerate(solos):
        assert (sums[:, b].tobytes()
                == solo.rate_sums(n[b], 0.5 * n[b])[:, 0].tobytes())


def _spread_classes(size):
    """size detuned classes whose terms span many decades, so that numpy's
    pairwise sum and the class-order sum of them differ in the last bits."""
    return [TlsClass(g=0.37 * 3.1 ** k, count=7.3e8 / 2.3 ** k,
                     omega_tls=W0 + 1.3e5 * k * (-1) ** k,
                     T1=2.1e-6 / 1.4 ** k, T_phi=1.3e-6 * 1.2 ** k)
            for k in range(size)]


_order_rows = hst.integers(1, 12).flatmap(lambda size: hst.lists(
    hst.tuples(hst.lists(_class, min_size=size, max_size=size),
               hst.one_of(hst.just(0.0), hst.floats(1.0, 1e14)),
               hst.floats(0.0, 1.0)),
    min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(rows=_order_rows, temperature=_temperature)
@example(rows=[(_spread_classes(8), 3e9, 0.7)], temperature=0.02)
@example(rows=[(_spread_classes(9), 3e9, 0.7)], temperature=0.02)
@example(rows=[(_spread_classes(12), 3e9, 0.7)], temperature=0.02)
def test_rate_sums_add_the_classes_in_index_order(rows, temperature):
    """The rate kernel, driven as _evolve drives it (state rows n, n and
    |<a>|^2, at least two columns), and rate_sums are, bit for bit, the
    per-class terms of the table added in class order (oracles.class_sum)
    for 1 to 12 classes and any row count, one row included; from 8
    classes on this is not numpy's pairwise order."""
    size = len(rows[0][0])
    n = [x for _, x, _ in rows]
    amp2 = [x * frac for _, x, frac in rows]
    table = list_table([classes for classes, _, _ in rows], W0, temperature)
    state = np.empty((3, max(len(rows), 2)))
    state[:2], state[2] = n, amp2
    kernel = table.rate_kernel(state, np.empty((4, state.shape[1])))
    sums = kernel()[:, :len(rows)]
    assert sums.tobytes() == table.rate_sums(np.array(n),
                                             np.array(amp2)).tobytes()
    for b in range(len(rows)):
        terms = []
        for i in range(size):
            (d0, p0), (d1, p1, coh) = table.base[:, i, b], table.slope[:, i, b]
            inv = 1.0 / (d0 + d1 * n[b])
            ree = (p0 + p1 * n[b]) * inv
            coh2 = coh * amp2[b] * inv * inv
            (s0, s1), w = table.sv[:, i, b], table.weights[i, b]
            terms.append((s0 * inv, s1 * inv, (ree - coh2) * w,
                          ((1.0 - ree) - coh2) * w))
        want = [oracles.class_sum([t[j] for t in terms]) for j in range(4)]
        assert sums[:, b].tobytes() == np.array(want).tobytes()


def test_spread_classes_tell_the_two_sum_orders_apart():
    """The explicit examples above discriminate: numpy's own last-axis sum
    of their per-class terms misses the class-order sum in some bit."""
    for size in (8, 9, 12):
        table = list_table([_spread_classes(size)], W0, 0.02)
        n, amp2 = 3e9, 2.1e9
        d = table.base[0, :, 0] + table.slope[0, :, 0] * n
        inv = 1.0 / d
        ree = (table.base[1, :, 0] + table.slope[1, :, 0] * n) * inv
        coh2 = table.slope[2, :, 0] * amp2 * inv * inv
        w = table.weights[:, 0]
        terms = np.array([table.sv[0, :, 0] * inv, table.sv[1, :, 0] * inv,
                          (ree - coh2) * w, ((1.0 - ree) - coh2) * w])
        pairwise = terms.sum(axis=1)
        ordered = [oracles.class_sum(row.tolist()) for row in terms]
        assert pairwise.tobytes() != np.array(ordered).tobytes()


_detuned = hst.one_of(hst.just(W0), hst.floats(-5e7, 5e7).map(
    lambda d: W0 + d))


@settings(max_examples=100, deadline=None)
@given(data=hst.data(), size=hst.integers(1, 12), rows=hst.integers(1, 4),
       omega_tls=_detuned,
       temperature=_temperature | hst.lists(
           _temperature, min_size=1, max_size=5).map(np.array))
def test_array_built_table_is_the_class_list_table(data, size, rows,
                                                   omega_tls, temperature):
    """ClassTable from the sampler's (C, B) arrays holds bitwise the
    coefficients, t2max and rate sums of the table of the TlsClass lists of
    each row sampled alone by sample_classes, over detuned classes,
    temperature arrays and 1 to 12 classes."""
    if np.ndim(temperature):
        rows = 1
    draw = [data.draw(hst.tuples(hst.floats(1e3, 1e12), hst.floats(1.5, 6.0),
                                 hst.floats(0.02, 3.0),
                                 hst.floats(5e-8, 2e-6)))
            for _ in range(rows)]
    n_tot, beta, eps, t2 = (np.array(col) for col in zip(*draw))
    window = dict(g_min=1e-3, g_max=1e3, n_classes=size)
    arrays, refused = sample_class_arrays(n_tot, beta, eps,
                                          omega_tls=omega_tls, t2_star=t2,
                                          **window)
    assert refused == [None] * rows
    table = ClassTable(*arrays, W0, temperature)
    lists = [oracles.class_list(sample_classes(
        DistributionParams(*row[:3], **window), omega_tls=omega_tls,
        t2_star=row[3])) for row in draw]
    ref = list_table(lists, W0, temperature)
    for name in ClassTable._COEFFS:
        assert getattr(table, name).tobytes() == getattr(ref, name).tobytes()
    assert table.t2max == ref.t2max
    n = np.geomspace(1.0, 1e14, len(table.t2max))
    assert (table.rate_sums(n, 0.5 * n).tobytes()
            == ref.rate_sums(n, 0.5 * n).tobytes())
