import math

import numpy as np
import pytest

import oracles
from tlscavity import (CavityParams, SaturationError, StepConvergenceError,
                       TlsClass, bath_rates, evolve_ringdown, evolve_ringup,
                       kappa_of_time, steady_state, trajectory_kappa)
from tlscavity.dynamics import _evolve


W0 = 2.0 * math.pi * 7.9e9


def test_no_tls_pure_exponential(cavity):
    traj = evolve_ringdown(1e10, [], cavity, 0.01, 500)
    expected = 1e10 * np.exp(-cavity.kappa0 * traj.times)
    assert np.max(np.abs(traj.n / expected - 1.0)) < 1e-9


def test_no_tls_ringup_closed_form_zero_temperature():
    # (1 - e^{-kappa0 t / 2})^2 buildup; exact identity needs a T = 0 bath
    cav = CavityParams(f0=7.9e9, kappa0=537.7, kappa_c=496.4, temperature=0.0)
    omega_ext = 1e6
    traj = evolve_ringup([], cav, omega_ext, 0.02, 400)
    n_ss = 4.0 * abs(omega_ext) ** 2 / cav.kappa0 ** 2
    expected = n_ss * (1.0 - np.exp(-0.5 * cav.kappa0 * traj.times)) ** 2
    scale = max(n_ss, 1.0)
    assert np.max(np.abs(traj.n - expected) / scale) < 1e-12


def test_no_tls_ringup_thermal_feed_visible(cavity):
    # at 20 mK the bath feeds ~6e-9 * kappa0 photons/s, so the T = 0 form
    # is only approximate; the deviation must match the feed level
    omega_ext = 1e6
    traj = evolve_ringup([], cavity, omega_ext, 0.02, 400)
    n_ss = 4.0 * abs(omega_ext) ** 2 / cavity.kappa0 ** 2
    expected = n_ss * (1.0 - np.exp(-0.5 * cavity.kappa0 * traj.times)) ** 2
    dev = np.max(np.abs(traj.n - expected))
    f0 = 5.8489123133452715e-9
    assert 0.0 < dev < 10.0 * f0 * n_ss + 1e-12


def test_single_step_against_euler_oracle(trace_classes, cavity):
    n0 = 1e12
    dt = 5e-6
    # one closed-form step from the sqrt(n) pinned amplitude
    stepped = evolve_ringdown(n0, trace_classes, cavity, dt, 2, verify=False)
    grid = np.array([0.0, dt])
    n_euler = oracles.euler_moments(n0, math.sqrt(n0), trace_classes,
                                    cavity.kappa0, cavity.omega0,
                                    cavity.temperature, grid, n_sub=20000)
    # frozen rates vs continuously updated rates agree to O(dt * dkappa/dt)
    assert stepped.n[1] == pytest.approx(n_euler[1], rel=2e-7)


def test_pinned_evolution_against_fine_euler(trace_classes, cavity):
    traj = evolve_ringdown(1e12, trace_classes, cavity, 0.004, 1399)
    n_euler = oracles.euler_moments(1e12, math.sqrt(1e12), trace_classes,
                                    cavity.kappa0, cavity.omega0,
                                    cavity.temperature, traj.times, n_sub=60)
    assert np.max(np.abs(traj.n / n_euler - 1.0)) < 1e-4


def test_pinned_evolution_against_ode_limit(trace_classes, cavity):
    traj = evolve_ringdown(5e13, trace_classes, cavity, 0.022, 4000,
                           verify=False)
    n_ode = oracles.pinned_limit_ode(5e13, trace_classes, cavity.kappa0,
                                     cavity.omega0, cavity.temperature,
                                     traj.times[::100], rtol=1e-11)
    assert np.max(np.abs(traj.n[::100] / n_ode - 1.0)) < 2e-4


def test_fock_space_master_equation_cross_check():
    """Exact one-TLS master equation vs the rate formulas and the recursion.

    The exact excess photon decay over one step equals kappa_minus -
    kappa_plus (weak coupling, fast TLS); the pinned recursion adds the
    coherent-scattering channel on top and lands at twice that for a weak
    unsaturated TLS. Both statements are pinned at 1%.
    """
    g, T1, T_phi, kappa0 = 300.0, 2e-5, 4e-5 / 3.0, 200.0
    cav = CavityParams(f0=7.9e9, kappa0=kappa0, kappa_c=0.9 * kappa0,
                       temperature=0.0)
    cls = TlsClass(g=g, count=1.0, omega_tls=cav.omega0, T1=T1, T_phi=T_phi)
    alpha = 2.0
    n0 = alpha ** 2
    st = oracles.tls_steady_state(cls, n0, 0.0)
    rho_tls = np.array([[1.0 - st.rho_ee, st.rho_ge],
                        [np.conj(st.rho_ge), st.rho_ee]])
    dt = 1e-4
    n_init, n_exact = oracles.lindblad_step(g, T1, T_phi, kappa0, alpha, dt,
                                            dim=22, rho_tls=rho_tls)
    assert n_init == pytest.approx(n0, rel=1e-8)
    excess_exact = -math.log(n_exact / n_init) / dt - kappa0

    rates = bath_rates([cls], n0, alpha, cav.omega0, 0.0)
    kp, km, op = oracles.state_rates(cls, st, cav.omega0, 0.0)
    assert rates.kappa_plus == pytest.approx(kp, rel=1e-12,
                                             abs=1e-12 * (kp + km))
    assert rates.kappa_minus == pytest.approx(km, rel=1e-12)
    assert abs(rates.omega_prime - op) <= 1e-12 * abs(op)
    excess_rates = rates.kappa_minus - rates.kappa_plus
    assert excess_exact == pytest.approx(excess_rates, rel=0.01)

    traj = evolve_ringdown(n_init, [cls], cav, dt, 2, verify=False,
                           window_margin=5.0)
    excess_step = -math.log(traj.n[-1] / n_init) / dt - kappa0
    t2 = 1.0 / (0.5 / T1 + 1.0 / T_phi)
    assert excess_step == pytest.approx(2.0 * 2.0 * g * g * t2, rel=0.01)


def test_kappa_monotone_and_limits(trace_classes, cavity):
    traj = evolve_ringdown(5e13, trace_classes, cavity, 0.022, 2000,
                           verify=False)
    _, kappa = trajectory_kappa(traj)
    assert np.all(np.diff(kappa) >= -1e-9 * kappa[:-1])
    assert kappa[0] < kappa[-1]


def test_tracked_mode_matches_pinned_for_real_start(trace_classes, cavity):
    a = evolve_ringdown(1e11, trace_classes, cavity, 0.005, 800,
                        mode="pinned", verify=False)
    b = evolve_ringdown(1e11, trace_classes, cavity, 0.005, 800,
                        mode="tracked", verify=False)
    # the incoherent feed is the only difference; invisible at n >> 1
    assert np.max(np.abs(a.n / b.n - 1.0)) < 1e-6


def test_steady_state_is_fixed_point(trace_classes, cavity):
    omega_ext = 5e7
    ss = steady_state(trace_classes, cavity, omega_ext)
    traj = evolve_ringup(trace_classes, cavity, omega_ext, 0.06, 3000,
                         verify=False)
    # the ring-up approaches the fixed point as e^{-kappa t / 2}
    assert traj.n[-1] == pytest.approx(ss.n, rel=1e-5)


def test_ringup_saturates_below_linear_response(trace_classes, cavity):
    weak = steady_state(trace_classes, cavity, 1e3)
    strong = steady_state(trace_classes, cavity, 1e8)
    # TLS absorption relaxes at high power: effective kappa drops, so the
    # strong-drive steady state exceeds the linear extrapolation of the weak
    lin = weak.n * (1e8 / 1e3) ** 2
    assert strong.n > lin


def test_saturation_error_on_net_gain(cavity):
    # physical classes cannot get here (rho_ee < 1/2 keeps kappa_plus below
    # kappa_minus), so a stub table supplies the net gain
    class GainTable:
        def rates_at(self, n, amp2):
            return 2.0 * cavity.kappa0, 0.0, 0.0j

    with pytest.raises(SaturationError):
        _evolve(GainTable(), cavity, 0.0, 1e10, 1e5, 1e-3, 3, True)


def test_step_window_enforced(trace_classes, cavity):
    with pytest.raises(ValueError):
        # dt below margin * max T2*
        evolve_ringdown(1e12, trace_classes, cavity, 1e-6, 2000)
    with pytest.raises(ValueError):
        # dt above 1/(margin * kappa0)
        evolve_ringdown(1e12, trace_classes, cavity, 10.0, 3)


def test_step_halving_verification_runs(trace_classes, cavity):
    traj = evolve_ringdown(1e12, trace_classes, cavity, 0.005, 600,
                           verify=True)
    assert traj.n[0] == 1e12


def test_kappa_of_time_basics():
    t = np.linspace(0.0, 1.0, 11)
    v = 10.0 * np.exp(-3.0 * t)
    tt, kappa = kappa_of_time(t, v)
    assert len(tt) == 10
    assert np.allclose(kappa, 3.0, rtol=1e-12)
    with pytest.raises(ValueError):
        kappa_of_time(t, -v)
    with pytest.raises(ValueError):
        kappa_of_time(t, v[:-1])
