import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad

import oracles
from oracles import TlsClass, class_list
from tlscavity import DistributionParams
from tlscavity.distribution import (bin_edges, counts_between, density,
                                    dipole_in_e_angstrom, loss_tangent,
                                    sample_class_arrays, sample_classes,
                                    tls_volume_density)


def make_params(n_tot=2.4e6, beta=3.26, epsilon_s=0.25, n_classes=7):
    return DistributionParams(n_tot=n_tot, beta=beta, epsilon_s=epsilon_s,
                              g_min=1e-3, g_max=1e3, n_classes=n_classes)


def test_knee_coupling_reference():
    p = make_params()
    assert p.epsilon_prime == pytest.approx(0.21306266824566502, rel=1e-14)


def test_density_limits():
    p = make_params()
    assert density(0.0, p) == pytest.approx(p.n_tot / p.epsilon_s, rel=1e-14)
    # beta power-law tail
    ratio = density(100.0, p) / density(1000.0, p)
    assert ratio == pytest.approx(10.0 ** p.beta, rel=1e-3)


@pytest.mark.parametrize("beta", [2.0, 3.26, 5.0])
def test_full_integral_is_n_tot(beta):
    p = make_params(beta=beta)
    total, err = quad(lambda g: density(g, p), 0.0, np.inf, limit=400)
    assert total == pytest.approx(p.n_tot, rel=1e-3)


@pytest.mark.parametrize("n_classes", [7, 14, 28])
def test_class_counts_conserve_window_integral(n_classes):
    p = make_params(n_classes=n_classes)
    classes = class_list(sample_classes(p, t2_star=2.86e-7))
    total = math.fsum(c.count for c in classes)
    window, _ = quad(lambda g: density(g, p), p.g_min, p.g_max, limit=400)
    assert total == pytest.approx(window, rel=1e-3)


def test_class_positions_and_fractions_reference():
    g_ref = [0.00268269579528, 0.0193069772888, 0.138949549437, 1.0,
             7.19685673001, 51.7947467923, 372.759372031]
    frac_ref = [0.0247873190144, 0.177910677483, 0.693177649872,
                0.0988933253956, 0.00121679936352, 1.40644476084e-5,
                1.62547351358e-7]
    p = make_params(n_tot=1.0)
    classes = class_list(sample_classes(p, t2_star=2.86e-7))
    for cls, g, frac in zip(classes, g_ref, frac_ref):
        assert cls.g == pytest.approx(g, rel=1e-11)
        assert cls.count == pytest.approx(frac, rel=1e-9)


@pytest.mark.parametrize("beta, epsilon_s", sorted(oracles.UNIT_BIN_COUNTS))
def test_bin_counts_match_mpmath_table(beta, epsilon_s):
    p = make_params(n_tot=1.0, beta=beta, epsilon_s=epsilon_s)
    counts = counts_between(p, bin_edges(p))
    assert len(counts) == 7
    for count, ref in zip(counts, oracles.UNIT_BIN_COUNTS[beta, epsilon_s]):
        assert count == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("beta, epsilon_s, g_lo, g_hi, ref",
                         oracles.WINDOW_COUNTS)
def test_window_count_matches_mpmath_table(beta, epsilon_s, g_lo, g_hi, ref):
    p = make_params(beta=beta, epsilon_s=epsilon_s)
    (count,) = counts_between(p, [g_lo, g_hi])
    assert count == pytest.approx(p.n_tot * ref, rel=1e-13)


def test_counts_linear_in_n_tot():
    a, b = (class_list(sample_classes(make_params(n_tot=n_tot),
                                      t2_star=2.86e-7))
            for n_tot in (1.0, 3.7e8))
    for ca, cb in zip(a, b):
        assert cb.count == pytest.approx(3.7e8 * ca.count, rel=1e-12)


def test_exactly_six_populated_classes_at_default_scale():
    classes = class_list(sample_classes(make_params(), t2_star=2.86e-7))
    populated = [c for c in classes if c.count > 1.0]
    assert len(populated) == 6
    assert max(c.g for c in populated) < 110.0


def test_bin_edges_geometric():
    p = make_params()
    e = bin_edges(p)
    assert len(e) == 8
    assert e[0] == pytest.approx(1e-3) and e[-1] == pytest.approx(1e3)
    ratios = e[1:] / e[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_times_applied_uniformly():
    p = make_params()
    classes = class_list(sample_classes(p, T1=7.23e-7, T_phi=4.84e-7))
    assert all(c.T1 == 7.23e-7 and c.T_phi == 4.84e-7 for c in classes)
    with pytest.raises(ValueError):
        sample_classes(p, T1=7.23e-7)
    with pytest.raises(ValueError):
        sample_classes(p, T1=7.23e-7, T_phi=4.84e-7, t2_star=2.86e-7)


def test_unsaturated_linewidth_contribution():
    # kappa_TLS = 2 T2* sum N g^2 against the frozen reference at the
    # pulsed-trace scale
    classes = class_list(sample_classes(make_params(n_tot=1.2e8),
                                        t2_star=2.86e-7))
    alpha = 2.0 * 2.86e-7 * math.fsum(c.count * c.g ** 2 for c in classes)
    assert alpha == pytest.approx(16.177302908249413, rel=1e-10)


def test_dipole_bound_scale():
    # g = 100 /s in a 4.5 mV/m zero-point field lands in the single-digit
    # e-Angstrom range typical of atomic-scale dipoles
    d = dipole_in_e_angstrom(100.0, 4.549e-3)
    assert 0.1 < d < 10.0


def test_loss_tangent_estimate():
    classes = sample_classes(make_params(n_tot=1e9), t2_star=2.86e-7)
    t = loss_tangent(classes, 4.549e-3, 4.86e-12, 537.7, 33.0)
    assert 1e-4 < t < 1e-2


def test_volume_density_estimate():
    classes = sample_classes(make_params(n_tot=1e9), t2_star=2.86e-7)
    rho = tls_volume_density(classes, 100.0, 537.7, 2.3e-13)
    from tlscavity.distribution import per_ghz_um3
    val = per_ghz_um3(rho)
    assert 1e2 < val < 1e5


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(beta=1.0)
    with pytest.raises(ValueError):
        DistributionParams(n_tot=1.0, beta=3.0, epsilon_s=0.25, g_min=1.0,
                           g_max=0.5, n_classes=7)
    with pytest.raises(ValueError):
        make_params(epsilon_s=-0.25)


_sampler_rows = hst.lists(hst.tuples(
    hst.one_of(hst.floats(1e3, 1e12), hst.floats(-1e3, -1e-3),
               hst.just(0.0)),                                  # n_tot
    hst.one_of(hst.floats(1.5, 6.0), hst.floats(0.5, 1.0)),     # beta
    hst.floats(0.02, 3.0),                                      # epsilon_s
    hst.one_of(hst.floats(5e-8, 2e-6), hst.floats(-1e-6, 0.0))),  # t2
    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(rows=_sampler_rows,
       window=hst.sampled_from([(1e-3, 1e3), (0.5, 0.5), (5.0, 0.5)]),
       n_classes=hst.integers(1, 12), t2_star=hst.booleans())
def test_sample_class_arrays_is_sample_classes_row_by_row(
        rows, window, n_classes, t2_star):
    """Column b of the vectorised sampler holds bitwise the class arrays of
    sample_classes on row b's parameters, and a row it refuses (beta <= 1,
    n_tot < 0, g_min >= g_max, t2 <= 0, or T1 or T_phi <= 0) carries the
    error of the scalar checks there: the distribution's parameters, then
    TlsClass on each of the row's classes in turn."""
    n_tot, beta, eps, t2 = (np.array(col) for col in zip(*rows))
    window = dict(g_min=window[0], g_max=window[1], n_classes=n_classes)

    def times(t):
        return dict(t2_star=t) if t2_star else dict(T1=2.5 * t, T_phi=1.5 * t)

    arrays, refused = sample_class_arrays(n_tot, beta, eps, **window,
                                          **times(t2))
    assert len(refused) == len(rows)
    for b, (nt, be, ep, t) in enumerate(rows):
        try:
            oracles.check_distribution(nt, be, ep, **window)
            for g, count in zip(arrays[0][:, b].tolist(),
                                arrays[1][:, b].tolist()):
                if t2_star:
                    TlsClass.from_t2_star(g, count, t)
                else:
                    TlsClass(g, count, 2.5 * t, 1.5 * t)
        except ValueError as exc:
            assert type(refused[b]) is type(exc)
            assert str(refused[b]) == str(exc)
            continue
        assert refused[b] is None
        want = sample_classes(DistributionParams(nt, be, ep, **window),
                              **times(t))
        for arr, ref in zip(arrays, want):
            assert arr[:, b].tobytes() == ref[:, 0].tobytes()
