import math

import numpy as np
import pytest

import oracles
from tlscavity import (DataError, ReflectionParams, UnidentifiableError,
                       circle_fit, fit_ringup, reflection, ringup_power,
                       s11_model, steady_state_reflection)


def test_initial_reflection_equals_forward_power():
    for delta in (0.0, 0.3, 0.8, 5.0):
        p = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=delta,
                             p_f=1e-12)
        p0 = ringup_power(np.array([0.0]), p)[0]
        assert p0 == pytest.approx(1e-12, rel=1e-12)


def test_steady_state_matches_long_time_limit():
    p = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=0.8, p_f=1e-12)
    t_long = 40.0 / p.kappa_loaded
    tail = ringup_power(np.array([t_long]), p)[0]
    assert tail == pytest.approx(steady_state_reflection(p) * p.p_f, rel=1e-9)


def test_critical_coupling_full_absorption():
    p = ReflectionParams(q_int=2e8, q_c=2e8, f0=7.9e9, delta=0.0, p_f=1.0)
    assert steady_state_reflection(p) == 0.0


def test_overcoupled_phase_flip_floor():
    # reflected steady-state power ((Qc - Qi)/(Qc + Qi))^2 on resonance
    p = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=0.0, p_f=1.0)
    expected = ((1e8 - 5.3e8) / (1e8 + 5.3e8)) ** 2
    assert steady_state_reflection(p) == pytest.approx(expected, rel=1e-12)


def test_ringup_even_in_detuning():
    t = np.linspace(0.0, 0.03, 200)
    a = ringup_power(t, ReflectionParams(5.3e8, 1e8, 7.9e9, 0.8, 1e-12))
    b = ringup_power(t, ReflectionParams(5.3e8, 1e8, 7.9e9, -0.8, 1e-12))
    assert np.max(np.abs(a - b)) < 1e-25


def test_switchoff_pure_exponential():
    p = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=0.8, p_f=1e-12)
    t = np.linspace(0.0, 0.02, 50)
    out = oracles.switchoff_power(t, p)
    log_slope = np.diff(np.log(out)) / np.diff(t)
    assert np.allclose(log_slope, -p.kappa_loaded, rtol=1e-10)


def test_fit_ringup_round_trip():
    truth = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=0.8,
                             p_f=1e-12)
    t = np.linspace(0.0, 0.03, 600)
    clean = ringup_power(t, truth)
    rng = np.random.default_rng(7)
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(len(t)))
    res = fit_ringup(t, noisy, 7.9e9, sigma=0.01 * clean)
    got = res.values_dict
    assert got["q_int"] == pytest.approx(5.3e8, rel=0.01)
    assert got["q_c"] == pytest.approx(1e8, rel=0.01)
    assert got["delta"] == pytest.approx(0.8, rel=0.01)
    assert res.converged
    assert 0.5 < res.chi2_reduced < 1.5


def test_fit_ringup_curve_is_the_model_at_the_fit():
    truth = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=0.8,
                             p_f=1e-12)
    t = np.linspace(0.0, 0.03, 300)
    clean = ringup_power(t, truth)
    noisy = clean * (1.0 + 0.01 * np.random.default_rng(3).standard_normal(
        len(t)))
    res = fit_ringup(t, noisy, 7.9e9, sigma=0.01 * clean)
    got = res.values_dict
    (x, data, model), = res.curves
    assert np.array_equal(x, t) and np.array_equal(data, noisy)
    assert np.array_equal(model, ringup_power(t, ReflectionParams(
        q_int=got["q_int"], q_c=got["q_c"], f0=7.9e9, delta=got["delta"],
        p_f=got["p_f"])))


def test_fit_ringup_requires_dip():
    # monotone data (no interference dip) leaves the detuning sign/value
    # unidentifiable and must be refused rather than guessed
    p = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=0.0, p_f=1e-12)
    t = np.linspace(0.0, 0.03, 300)
    flat = oracles.switchoff_power(t, p)
    with pytest.raises(UnidentifiableError):
        fit_ringup(t, flat, 7.9e9)


def test_circle_fit_clean_recovery():
    f0, qi, qc = 7.9e9, 5.3e8, 1e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, 401)
    s = s11_model(f, f0, qi, qc, mismatch=0.1, amplitude=0.9, phase=0.4,
                  delay=3.2e-8)
    res = circle_fit(f, s)
    assert res.q_int == pytest.approx(qi, rel=5e-3)
    assert res.q_c == pytest.approx(qc, rel=5e-3)
    assert res.f0 == pytest.approx(f0, abs=2.0 * (f[1] - f[0]))
    assert res.impedance_mismatch == pytest.approx(0.1, abs=5e-3)
    assert res.delay == pytest.approx(3.2e-8, rel=1e-3)


def test_circle_fit_curve_is_the_model_at_the_fit():
    # the model from the fitted values and the off-resonant point z_inf
    f0, qi, qc = 7.9e9, 5.3e8, 1e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, 201)
    rng = np.random.default_rng(4)
    s = s11_model(f, f0, qi, qc, mismatch=0.1, amplitude=0.9, phase=0.4,
                  delay=3.2e-8) + 1e-3 * (rng.standard_normal(len(f))
                                          + 1j * rng.standard_normal(len(f)))
    res = circle_fit(f, s)
    z_inf = res.center - res.radius * complex(math.cos(res.theta0),
                                              math.sin(res.theta0))
    expected = s11_model(f, res.f0, res.q_int, res.q_c,
                         mismatch=res.impedance_mismatch,
                         amplitude=abs(z_inf),
                         phase=math.atan2(z_inf.imag, z_inf.real),
                         delay=res.delay)
    (x, data, model), = res.curves
    assert np.array_equal(x, f) and np.array_equal(data, s)
    assert np.array_equal(model, expected)


def test_circle_fit_rotation_and_scale_invariance():
    f0, qi, qc = 7.9e9, 5.3e8, 1e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, 401)
    s = s11_model(f, f0, qi, qc, mismatch=0.05)
    base = circle_fit(f, s, fit_delay=False)
    moved = circle_fit(f, 0.37 * np.exp(1.1j) * s, fit_delay=False)
    assert moved.q_int == pytest.approx(base.q_int, rel=1e-9)
    assert moved.q_c == pytest.approx(base.q_c, rel=1e-9)
    assert moved.radius == pytest.approx(0.37 * base.radius, rel=1e-9)


def test_circle_fit_radius_grows_with_q_int():
    f0, qc = 7.9e9, 1e8
    radii = []
    for qi in (5.3e8, 6.5e8, 8.0e8, 9.4e8):
        ql = qi * qc / (qi + qc)
        f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, 401)
        s = s11_model(f, f0, qi, qc)
        radii.append(circle_fit(f, s, fit_delay=False).radius)
    assert all(a < b for a, b in zip(radii, radii[1:]))


def test_circle_fit_rejects_garbage():
    f = np.linspace(7.89e9, 7.91e9, 101)
    rng = np.random.default_rng(3)
    blob = rng.standard_normal(101) + 1j * rng.standard_normal(101)
    with pytest.raises(DataError):
        circle_fit(f, blob, fit_delay=False)
    with pytest.raises(DataError):
        circle_fit(f[:5], blob[:5])


def test_circle_fit_rejects_narrow_span():
    f0, qi, qc = 7.9e9, 5.3e8, 1e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 0.5 * f0 / ql, f0 + 0.5 * f0 / ql, 101)
    s = s11_model(f, f0, qi, qc)
    with pytest.raises(DataError):
        circle_fit(f, s, fit_delay=False)


def test_reflection_params_validation():
    with pytest.raises(ValueError):
        ReflectionParams(q_int=-1.0, q_c=1e8, f0=7.9e9)
    with pytest.raises(ValueError):
        ReflectionParams(q_int=1e8, q_c=1e8, f0=0.0)
    p = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9)
    assert p.q_loaded == pytest.approx(5.3e8 * 1e8 / 6.3e8, rel=1e-12)


def _circle_sweep(n_points, mismatch=0.1, amplitude=0.9, phase=0.4,
                  delay=3.2e-8, noise=0.0, seed=None):
    """A sweep of 8 linewidths around a11's resonance, with complex
    Gaussian noise of the given size."""
    f0, qi, qc = 7.9e9, 5.3e8, 1e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, n_points)
    s = s11_model(f, f0, qi, qc, mismatch=mismatch, amplitude=amplitude,
                  phase=phase, delay=delay)
    if noise:
        rng = np.random.default_rng(seed)
        s = s + noise * (rng.standard_normal(len(f))
                         + 1j * rng.standard_normal(len(f)))
    return f, s


# a11's sweep, test_fit_circle_not_converged_exits_4's noisy one,
# test_circle_fit_curve_is_the_model_at_the_fit's and
# test_fit_circle_round_trip's
CIRCLE_SWEEPS = {
    "a11": dict(n_points=401),
    "noise3e-3_seed11": dict(n_points=401, noise=3e-3, seed=11),
    "noise1e-3_seed4_201": dict(n_points=201, noise=1e-3, seed=4),
    "round_trip_301": dict(n_points=301, mismatch=0.05, amplitude=0.8,
                           phase=0.2, delay=1e-8),
}


@pytest.mark.parametrize("name", sorted(CIRCLE_SWEEPS))
def test_delay_search_matches_one_candidate_scan(name, monkeypatch):
    # the chunked scan picks the one-at-a-time scan's candidate, and the
    # Brent refine lands where golden section does
    f, s = _circle_sweep(**CIRCLE_SWEEPS[name])
    tau0 = reflection._delay_estimate(f, s)
    taus = oracles.delay_scan(tau0, 2.0 / (f[-1] - f[0]))
    want = np.argmin([oracles.delay_cost(f, s, tau) for tau in taus])
    assert np.argmin(reflection._delay_costs(f, s, taus)) == want
    got = circle_fit(f, s)
    monkeypatch.setattr(reflection, "_refine_delay", oracles.refine_delay)
    ref = circle_fit(f, s)
    for key in ("q_int", "q_c", "f0"):
        assert getattr(got, key) == pytest.approx(getattr(ref, key),
                                                  rel=1e-6)
    assert got.delay == pytest.approx(ref.delay, rel=1e-3)


def test_batched_taubin_rows_equal_single_sweep_calls():
    f, s = _circle_sweep(401)
    taus = oracles.delay_scan(reflection._delay_estimate(f, s),
                              2.0 / (f[-1] - f[0]))
    z = s * np.exp(2j * math.pi * f * taus[:, None])
    batch = reflection._taubin_circle(z)
    rows = [reflection._taubin_circle(row) for row in z]
    for got, want in zip(batch, zip(*rows)):
        assert np.array_equal(got, np.array(want))


def test_degenerate_delay_candidate_scores_inf():
    # candidates whose points all coincide (at a point whose mean is exact,
    # and at one whose mean rounds a few ulps off it), and one on a
    # straight line, score inf beside a finite one
    f, s = _circle_sweep(401)
    point = np.full_like(s, 0.5 + 0.25j)
    rounded = np.full_like(s, 0.3 + 0.2j)
    line = (0.5 + 0.25j) * np.linspace(-1.0, 1.0, len(f))
    cost = reflection._circle_cost(np.stack([s, point, rounded, line]))
    assert np.isfinite(cost[0]) and list(cost[1:]) == [math.inf] * 3
    for z in (point, rounded, line):
        with pytest.raises(DataError, match="does not trace a circle"):
            circle_fit(f, z, fit_delay=False)
