import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from oracles import TlsClass, class_arrays
from tlscavity import (SuperconductorParams, ValidityWarning, bessel_k0,
                       conductivity, freq_shift, gap, load_config,
                       q_int_temperature, q_qp, q_tls_temperature,
                       skin_depth, temperature_sweep)
from tlscavity.mattis_bardeen import pair_breaking


W0 = 2.0 * math.pi * 7.9e9


@pytest.fixture(scope="module")
def sc():
    return SuperconductorParams(delta0=2.45133025002e-22, sigma_n=4.0e7,
                                alpha=3.3e-5, g_factor=74.4)


def test_bessel_k0_table():
    for x, ref in oracles.K0_TABLE:
        assert bessel_k0(x) == pytest.approx(ref, rel=1e-9), x


def test_bessel_k0_branch_continuity():
    # series for x <= 2, Chebyshev above; the seam must be smooth
    lo = bessel_k0(2.0 * (1.0 - 1e-12))
    hi = bessel_k0(2.0 * (1.0 + 1e-12))
    assert lo == pytest.approx(hi, rel=1e-10)
    assert bessel_k0(2.0) == pytest.approx(0.11389387274953344, rel=1e-12)


def test_bessel_k0_domain():
    with pytest.raises(ValueError):
        bessel_k0(0.0)
    with pytest.raises(ValueError):
        bessel_k0(-1.0)


def test_critical_temperature(sc, tmp_path):
    tc = oracles.critical_temperature(sc.delta0)
    assert tc == pytest.approx(10.065143268691398, rel=1e-13)
    # the config's tc shortcut is its inverse
    path = tmp_path / "tc.yaml"
    path.write_text("superconductor:\n  tc: %r\n" % tc)
    assert load_config(path).superconductor.delta0 == pytest.approx(
        sc.delta0, rel=1e-13)


def test_gap_reference_values(sc):
    refs = {1.0: 0.99999998842369289, 4.4: 0.977935774980987}
    for t, ratio in refs.items():
        assert gap(t, sc.delta0) / sc.delta0 == pytest.approx(ratio, rel=1e-12)
    assert gap(0.0, sc.delta0) == sc.delta0


def test_gap_monotone_decreasing(sc):
    temps = np.linspace(0.0, 4.4, 45)
    gaps = [gap(t, sc.delta0) for t in temps]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_conductivity_reference_values(sc):
    refs_s1 = {1.0: 50.161801461512599, 1.5: 15093.089806806084,
               2.0: 246280.61906196091, 3.0: 3722312.5485611419,
               4.0: 13946448.039501159}
    refs_s2 = {1.0: 5884757162.7889635, 1.5: 5884641286.428907,
               2.0: 5882423713.0289405, 3.0: 5836444271.8667462,
               4.0: 5657997779.2694924}
    for t in refs_s1:
        s1, s2 = conductivity(t, W0, sc)
        assert s1 == pytest.approx(refs_s1[t], rel=1e-10)
        assert s2 == pytest.approx(refs_s2[t], rel=1e-10)


def test_conductivity_zero_temperature_limit(sc):
    s1, s2 = conductivity(0.0, W0, sc)
    assert s1 == 0.0
    ratio = s2 / sc.sigma_n
    expected = math.pi * sc.delta0 / (1.054571817e-34 * W0)
    assert ratio == pytest.approx(expected, rel=1e-12)
    assert ratio == pytest.approx(147.11893649864247, rel=1e-10)


def test_conductivity_rejects_pair_breaking(sc):
    # hbar * omega above the 2 Delta threshold has a different physical
    # channel and is out of the model's domain
    omega_big = 2.0 * sc.delta0 / 1.054571817e-34 * 1.01
    with pytest.raises(ValueError):
        conductivity(1.0, omega_big, sc)


def test_validity_warning_above_quarter_gap(sc):
    threshold = sc.delta0 / (4.0 * 1.380649e-23)
    with pytest.warns(ValidityWarning):
        gap(threshold * 1.05, sc.delta0)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap(threshold * 0.95, sc.delta0)


def test_freq_shift_reference(sc):
    assert freq_shift(0.0, sc, W0) == 0.0
    assert freq_shift(1.5, sc, W0) == pytest.approx(-3.2573999565415731e-10,
                                                    rel=1e-10)


def test_freq_shift_independent_of_sigma_n(sc):
    other = SuperconductorParams(delta0=sc.delta0, sigma_n=10.0 * sc.sigma_n,
                                 alpha=sc.alpha, g_factor=sc.g_factor)
    assert freq_shift(1.5, sc, W0) == pytest.approx(freq_shift(1.5, other, W0),
                                                    rel=1e-14)


def test_q_qp_reference(sc):
    refs = {1.0: 2680922242893.0113, 1.5: 8909767249.2261217,
            2.0: 545718583.52014886, 3.0: 35684067.845944902,
            4.0: 9090701.0959351181}
    for t, ref in refs.items():
        assert q_qp(t, sc, W0) == pytest.approx(ref, rel=1e-10)


def test_q_qp_overflow_is_inf(sc):
    """Where G |sigma|^2 and sigma1 Rs both overflow, Q_QP is +inf, as it
    grows with sigma_n (no RuntimeWarning)."""
    huge = SuperconductorParams(delta0=sc.delta0, sigma_n=1.0e300,
                                alpha=sc.alpha, g_factor=sc.g_factor)
    assert np.all(q_qp(np.array([0.05, 1.0, 4.0]), huge, W0) == math.inf)


def test_q_qp_monotone_decreasing(sc):
    temps = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    qs = [q_qp(t, sc, W0) for t in temps]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_skin_depth_identity():
    d = skin_depth(3.3e-5, 74.4, W0)
    assert d == pytest.approx(3.9361356003678282e-8, rel=1e-12)


def test_q_tls_saturates_with_temperature(cfg, sweep_classes, cavity):
    # thermal TLS populations equalize, absorption drops, Q_TLS rises
    q_cold = q_tls_temperature(0.02, sweep_classes, cavity)
    q_warm = q_tls_temperature(1.0, sweep_classes, cavity)
    assert q_warm > 3.0 * q_cold
    assert q_cold == pytest.approx(5.0e8, rel=2e-3)


def test_q_int_combines_channels(sc, sweep_classes, cavity):
    t = 1.5
    q_total = q_int_temperature(t, sc, sweep_classes, cavity)
    q_t = q_tls_temperature(t, sweep_classes, cavity)
    q_q = q_qp(t, sc, W0)
    assert 1.0 / q_total == pytest.approx(1.0 / q_t + 1.0 / q_q, rel=1e-12)


def test_temperature_sweep_columns(sc, sweep_classes, cavity):
    temps = np.array([0.05, 1.0, 2.0])
    sweep = temperature_sweep(temps, sc, sweep_classes, cavity)
    assert np.allclose(sweep["temperature_K"], temps)
    assert sweep["freq_shift"][0] == freq_shift(0.05, sc, cavity.omega0)
    assert sweep["q_int"][1] == q_int_temperature(1.0, sc, sweep_classes,
                                                  cavity)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


_temperatures = hst.lists(
    hst.one_of(hst.just(0.0),
               # k_B T underflows to 0, or is subnormal
               hst.floats(5e-324, 1e-290, allow_subnormal=True),
               # up to 9 K, past the delta0/4 validity edge at 4.44 K
               hst.floats(1e-3, 9.0)),
    min_size=1, max_size=12)

_classes = hst.lists(
    hst.builds(
        TlsClass,
        g=hst.floats(1e-3, 1e3),
        count=hst.one_of(hst.just(0.0), hst.floats(1.0, 1e9)),
        T1=hst.floats(1e-8, 1e-4),
        T_phi=hst.floats(1e-8, 1e-4)),
    min_size=0, max_size=9)  # from 8 on numpy's own sum would go pairwise


@settings(max_examples=120, deadline=None)
@given(temps=_temperatures, classes=_classes)
def test_array_forms_bitwise_equal_scalar_oracles(sc, cavity, temps,
                                                  classes):
    """Each temperature-array function equals its per-point oracle bit for
    bit, including T = 0, subnormal T, k_B T > delta0/4, 0 to 9 classes
    and infinite Q channels; a scalar gives the same float."""
    t = np.array(temps)
    w0 = cavity.omega0
    arrays = class_arrays([classes])
    cases = [
        (lambda x: gap(x, sc.delta0), lambda x: oracles.gap(x, sc.delta0)),
        (lambda x: conductivity(x, w0, sc)[0],
         lambda x: oracles.conductivity(x, w0, sc)[0]),
        (lambda x: conductivity(x, w0, sc)[1],
         lambda x: oracles.conductivity(x, w0, sc)[1]),
        (lambda x: freq_shift(x, sc, w0),
         lambda x: oracles.freq_shift(x, sc, w0)),
        (lambda x: q_qp(x, sc, w0), lambda x: oracles.q_qp(x, sc, w0)),
        (lambda x: q_tls_temperature(x, arrays, cavity),
         lambda x: oracles.q_tls_temperature(x, classes, w0)),
        (lambda x: q_int_temperature(x, sc, arrays, cavity),
         lambda x: oracles.q_int_temperature(x, sc, classes, w0)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for array_form, oracle in cases:
            ref = [oracle(x) for x in temps]
            out = array_form(t)
            assert out.shape == t.shape
            assert _bits(out) == _bits(ref)
            scalar = array_form(temps[-1])
            assert isinstance(scalar, float)
            assert _bits(scalar) == _bits(ref[-1])


def test_one_validity_warning_per_array_call(sc, sweep_classes, cavity):
    t = np.linspace(4.5, 8.0, 12)  # every point past delta0/4
    calls = [lambda: gap(t, sc.delta0), lambda: conductivity(t, W0, sc),
             lambda: freq_shift(t, sc, W0), lambda: q_qp(t, sc, W0),
             lambda: q_int_temperature(t, sc, sweep_classes, cavity)]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [ValidityWarning]


def test_array_forms_reject_bad_temperatures(sc, sweep_classes, cavity):
    with pytest.raises(ValueError, match="temperature must be >= 0"):
        q_int_temperature(np.array([1.0, -1e-3]), sc, sweep_classes, cavity)
    with pytest.warns(ValidityWarning), \
            pytest.raises(ValueError, match="pair-breaking"):
        freq_shift(np.array([1.0, 20.0]), sc, W0)
    assert pair_breaking([0.0, 9.5, 20.0], W0, sc.delta0).tolist() == \
        [False, False, True]
