"""Acceptance gate: the twelve end-to-end checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Each
test computes its verdict first, prints it, then asserts, so a FAIL line
always reaches the log before pytest unwinds.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

import oracles
from tlscavity import (ClassTable, DistributionParams, ReflectionParams,
                       bessel_k0, circle_fit, conductivity, evolve_ringdown,
                       evolve_table, fit_ringup, freq_shift, joint_tls_fit,
                       kappa_of_time, q_int_temperature, ringup_power,
                       s11_model, skin_depth, steady_state_reflection,
                       t2_star, temperature_fit)
from tlscavity.cli import main as cli_main
from tlscavity.distribution import density, sample_classes


W0 = 2.0 * math.pi * 7.9e9


def report(num, name, ok, detail):
    print("acceptance %02d %s: %s (%s)" % (num, name,
                                           "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def test_a01_skin_depth_identity():
    d = skin_depth(3.3e-5, 74.4, W0)
    dev = abs(d - 39.6e-9) / 39.6e-9
    report(1, "skin_depth_identity", dev <= 0.02,
           "delta = %.4g nm, dev %.2f%% <= 2%%" % (d * 1e9, 100 * dev))


def test_a02_coherence_time_composition():
    t2 = t2_star(7.23e-7, 4.84e-7, W0, 0.02)
    dev = abs(t2 - 363e-9) / 363e-9
    report(2, "coherence_time_composition", dev <= 0.005,
           "T2* = %.4g ns, dev %.3f%% <= 0.5%%" % (t2 * 1e9, 100 * dev))


def test_a03_distribution_normalization():
    devs = []
    for beta in (2.0, 3.26, 5.0):
        p = DistributionParams(n_tot=2.4e6, beta=beta, epsilon_s=0.25,
                               g_min=1e-3, g_max=1e3, n_classes=7)
        total, _ = quad(lambda g: density(g, p), 0.0, np.inf, limit=400)
        devs.append(abs(total - p.n_tot) / p.n_tot)
    cons = []
    for n_classes in (7, 14, 28):
        p = DistributionParams(n_tot=2.4e6, beta=3.26, epsilon_s=0.25,
                               g_min=1e-3, g_max=1e3, n_classes=n_classes)
        classes = oracles.class_list(sample_classes(p, t2_star=2.86e-7))
        total = math.fsum(c.count for c in classes)
        window, _ = quad(lambda g: density(g, p), p.g_min, p.g_max, limit=400)
        cons.append(abs(total - window) / window)
    ok = max(devs) <= 1e-3 and max(cons) <= 1e-3
    report(3, "distribution_normalization", ok,
           "full-integral dev %.2g, class-conservation dev %.2g, both <= 1e-3"
           % (max(devs), max(cons)))


def test_a04_populated_class_pattern():
    p = DistributionParams(n_tot=2.4e6, beta=3.26, epsilon_s=0.25,
                           g_min=1e-3, g_max=1e3, n_classes=7)
    classes = oracles.class_list(sample_classes(p, t2_star=2.86e-7))
    populated = [c for c in classes if c.count > 1.0]
    g_top = max(c.g for c in populated)
    ok = len(populated) == 6 and g_top < 110.0
    report(4, "populated_class_pattern", ok,
           "%d classes with N > 1 (need 6), top g = %.3g /s < 110"
           % (len(populated), g_top))


def test_a05_ringdown_property_suite(cfg, cavity, trace_classes):
    # (a) no TLS: kappa constant
    traj = evolve_ringdown(5e13, oracles.class_arrays([[]]), cavity, 0.022,
                           2000)
    _, kappa = kappa_of_time(traj.times, traj.n)
    dev_a = float(np.max(np.abs(kappa / cavity.kappa0 - 1.0)))

    # (b) monotone non-decreasing kappa for all ten powers
    # (c) initial kappa within 1% of kappa0 at the highest power
    # (d) final kappa within 5% of the unsaturated limit
    alpha = 2.0 * 2.86e-7 * math.fsum(c.count * c.g ** 2 for c in
                                      oracles.class_list(trace_classes))
    mono_ok = True
    dev_c = dev_d = None
    for i in range(10):
        n0 = 5e13 * 10.0 ** (-0.5 * i)
        traj = evolve_ringdown(n0, trace_classes, cavity, 0.022, 2000)
        _, kappa = kappa_of_time(traj.times, traj.n)
        if not np.all(np.diff(kappa) >= -1e-9 * kappa[:-1]):
            mono_ok = False
        if i == 0:
            dev_c = abs(kappa[0] / cavity.kappa0 - 1.0)
            dev_d = abs(kappa[-1] / (cavity.kappa0 + alpha) - 1.0)
    ok = dev_a < 1e-6 and mono_ok and dev_c < 0.01 and dev_d < 0.05
    report(5, "ringdown_property_suite", ok,
           "no-TLS dev %.2g < 1e-6; monotone %s; initial dev %.2f%% < 1%%; "
           "final dev %.2f%% < 5%%"
           % (dev_a, mono_ok, 100 * dev_c, 100 * dev_d))


def test_a06_closed_form_step_vs_euler(cavity, trace_classes):
    n0, t_final = 5e13, 0.022
    m = 15384 + 1  # dt = 5.0002 * T2*
    table = ClassTable(*trace_classes, cavity.omega0, cavity.temperature)
    traj, = evolve_table(table, cavity, [n0], t_final, m, verify=True,
                         window_margin=5.0)
    # converged reference: RK4 at one step per interval, which meets
    # Richardson-extrapolated Euler (see test_dynamics)
    n_ref = oracles.rk4_moments(n0, math.sqrt(n0),
                                oracles.class_list(trace_classes),
                                cavity.kappa0, cavity.omega0,
                                cavity.temperature, traj.times)
    dev = float(np.max(np.abs(traj.n - n_ref) / n_ref))
    report(6, "closed_form_step_vs_euler", dev < 1e-4,
           "max rel dev %.3g < 1e-4 over the full decay" % dev)


# linewidth-scaled truth totals, highest power first, anchored at 1.2e8
N_TOT_TRUTH = [117164510.0, 117691280.0, 118173840.0, 118592440.0,
               118953260.0, 119261100.0, 119511180.0, 119710940.0,
               119873230.0, 120000000.0]


def test_a07_joint_fit_round_trip(cfg, cavity):
    t0 = time.time()
    truth = {"t2_star": 2.86e-7, "beta": 3.26, "epsilon_s": 0.25}
    t_data = np.linspace(0.0, 0.022, 301)
    rng = np.random.default_rng(9)
    traces = []
    for i, n_tot in enumerate(N_TOT_TRUTH):
        n0 = 5e13 * 10.0 ** (-0.5 * i)
        classes = cfg.trace_classes(n_tot=n_tot)
        traj = evolve_ringdown(n0, classes, cavity, 0.022, 4000,
                               verify=False)
        n_model = np.exp(np.interp(t_data, traj.times, np.log(traj.n)))
        n_model[1:] *= 1.0 + 0.01 * rng.standard_normal(len(t_data) - 1)
        traces.append((t_data, n_model))

    res = joint_tls_fit(
        traces,
        shared={"t2_star": 2.5e-7, "beta": 3.0, "epsilon_s": 0.3},
        per_trace=[1e8] * 10,
        cavity=cavity)
    wall = time.time() - t0
    got, sig = oracles.by_name(res)
    dev_t2 = abs(got["t2_star"] - truth["t2_star"]) / truth["t2_star"]
    dev_beta = abs(got["beta"] - truth["beta"]) / truth["beta"]
    pulls = [abs(got["n_tot_%d" % i] - N_TOT_TRUTH[i]) /
             sig["n_tot_%d" % i] for i in range(10)]
    ok = (dev_t2 <= 0.10 and dev_beta <= 0.05 and max(pulls) <= 1.0 and
          0.5 <= res.chi2_reduced <= 1.5 and res.converged and wall < 600.0)
    report(7, "joint_fit_round_trip", ok,
           "T2* dev %.1f%% <= 10%%, beta dev %.2f%% <= 5%%, worst N_tot "
           "pull %.2f sigma <= 1, chi2_red %.3f in [0.5, 1.5], %.0f s"
           % (100 * dev_t2, 100 * dev_beta, max(pulls), res.chi2_reduced,
              wall))


def test_a08_conductivity_checks(cfg, cavity, sweep_classes, superconductor):
    sc = superconductor
    shift0 = freq_shift(0.0, sc, W0)
    _, s2 = conductivity(0.0, W0, sc)
    limit = math.pi * sc.delta0 / (1.054571817e-34 * W0)
    dev_s2 = abs(s2 / sc.sigma_n - limit) / limit
    dev_k0 = abs(bessel_k0(1.0) - 0.4210244382)

    truth = {"alpha": sc.alpha, "delta0": sc.delta0, "sigma_n": sc.sigma_n,
             "t1": cfg.sweep.tls_t1, "t_phi": cfg.sweep.tls_t_phi}
    t_f = np.linspace(0.8, 2.2, 29)
    t_q = np.linspace(0.05, 4.4, 44)
    shifts = np.array([freq_shift(t, sc, W0) for t in t_f])
    qs = np.array([q_int_temperature(t, sc, sweep_classes, cavity)
                   for t in t_q])
    sig_f = 0.01 * np.abs(shifts) + 1e-6 * 0.01 * np.max(np.abs(shifts))
    sig_q = 0.01 * qs
    rng = np.random.default_rng(5)
    shifts_n = shifts + sig_f * rng.standard_normal(len(t_f))
    qs_n = qs + sig_q * rng.standard_normal(len(t_q))
    res = temperature_fit(
        (t_f, shifts_n, sig_f), (t_q, qs_n, sig_q),
        replace(sc, alpha=2e-5, delta0=sc.delta0 * 1.3, sigma_n=1e7),
        oracles.with_times(sweep_classes, 1e-6, 3e-7), cavity)
    got, sig = oracles.by_name(res)
    zs = {k: abs(got[k] - truth[k]) / max(sig[k], 1e-300) for k in truth}
    ok = (shift0 == 0.0 and dev_s2 <= 1e-6 and dev_k0 <= 1e-9 and
          max(zs.values()) <= 2.0 and res.converged)
    report(8, "conductivity_checks", ok,
           "shift(0) = %g, sigma2 limit dev %.2g <= 1e-6, K0(1) dev %.2g "
           "<= 1e-9, worst fit pull %.2f sigma <= 2"
           % (shift0, dev_s2, dev_k0, max(zs.values())))


def test_a09_quality_factor_shape(cfg, cavity, sweep_classes,
                                  superconductor):
    q = {t: q_int_temperature(t, superconductor, sweep_classes, cavity)
         for t in (0.05, 1.0, 1.1, 1.4, 3.0, 4.4)}
    slope_low = abs(math.log(q[1.0]) - math.log(q[0.05])) / 0.95
    slope_band = abs(math.log(q[1.4]) - math.log(q[1.1])) / 0.3
    rising = q[1.0] > 2.0 * q[0.05]
    plateau = slope_band < 0.1 * slope_low
    declining = q[4.4] < 0.5 * q[3.0]
    ok = rising and plateau and declining
    report(9, "quality_factor_shape", ok,
           "rising x%.1f below 1 K; band slope %.3f /K < 10%% of %.3f /K; "
           "declining x%.2f above 3 K"
           % (q[1.0] / q[0.05], slope_band, slope_low, q[3.0] / q[4.4]))


def test_a10_ringup_transient():
    p0 = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=0.0,
                          p_f=1e-12)
    start = ringup_power(np.array([0.0]), p0)[0]
    dev_start = abs(start / p0.p_f - 1.0)
    crit = steady_state_reflection(ReflectionParams(
        q_int=2e8, q_c=2e8, f0=7.9e9, delta=0.0, p_f=1.0))

    truth = ReflectionParams(q_int=5.3e8, q_c=1e8, f0=7.9e9, delta=0.8,
                             p_f=1e-12)
    t = np.linspace(0.0, 0.03, 600)
    clean = ringup_power(t, truth)
    rng = np.random.default_rng(7)
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(len(t)))
    res = fit_ringup(t, noisy, 7.9e9, sigma=0.01 * clean)
    got, _ = oracles.by_name(res)
    devs = {"q_int": abs(got["q_int"] / 5.3e8 - 1.0),
            "q_c": abs(got["q_c"] / 1e8 - 1.0),
            "delta": abs(got["delta"] / 0.8 - 1.0)}
    ok = (dev_start < 1e-12 and crit == 0.0 and
          max(devs.values()) <= 0.01 and res.converged)
    report(10, "ringup_transient", ok,
           "P_r(0)/P_f dev %.2g; critical steady state %g; worst fit dev "
           "%.2f%% <= 1%%" % (dev_start, crit, 100 * max(devs.values())))


def test_a11_circle_fit():
    f0, qc = 7.9e9, 1e8
    qi = 5.3e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, 401)
    s = s11_model(f, f0, qi, qc, mismatch=0.1, amplitude=0.9, phase=0.4,
                  delay=3.2e-8)
    res = circle_fit(f, s)
    dev_qi = abs(res.q_int / qi - 1.0)
    dev_qc = abs(res.q_c / qc - 1.0)

    radii = []
    for qi_k in (5.3e8, 6.5e8, 8.0e8, 9.4e8):
        ql_k = qi_k * qc / (qi_k + qc)
        fk = np.linspace(f0 - 4.0 * f0 / ql_k, f0 + 4.0 * f0 / ql_k, 401)
        sk = s11_model(fk, f0, qi_k, qc)
        radii.append(circle_fit(fk, sk).radius)
    monotone = all(a < b for a, b in zip(radii, radii[1:]))
    ok = dev_qi <= 0.005 and dev_qc <= 0.005 and monotone
    report(11, "circle_fit", ok,
           "Q_int dev %.2g, Q_c dev %.2g, both <= 0.5%%; radius monotone %s "
           "(%.4f -> %.4f)" % (dev_qi, dev_qc, monotone, radii[0], radii[-1]))


def test_a12_simulation_determinism(tmp_path):
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text("ringdown:\n  initial_photons: [1e12, 1e11]\n"
                    "  t_final: 0.004\n  m_steps: 400\n"
                    "sweep:\n  n_points: 9\n")
    pairs = []
    for cmd, names in (
            (["simulate", "ringdown", "--config", str(tiny), "--seed", "17"],
             ["ringdown_01.csv", "ringdown_02.csv", "trace_01.csv",
              "trace_02.csv"]),
            (["simulate", "ringup", "--seed", "17"], ["ringup.csv"]),
            (["simulate", "temperature-sweep", "--config", str(tiny),
              "--seed", "17"],
             ["sweep.csv", "freq_trace.csv", "q_trace.csv"])):
        a = tmp_path / ("a_" + cmd[1])
        b = tmp_path / ("b_" + cmd[1])
        assert cli_main(cmd + ["--out", str(a)]) == 0
        assert cli_main(cmd + ["--out", str(b)]) == 0
        for name in names:
            pairs.append((cmd[1], name,
                          (a / name).read_bytes() == (b / name).read_bytes()))
    ok = all(same for _, _, same in pairs)
    bad = ["%s/%s" % (c, n) for c, n, same in pairs if not same]
    report(12, "simulation_determinism", ok,
           "%d files byte-identical across reruns%s"
           % (len(pairs), "" if ok else "; mismatched: " + ", ".join(bad)))
