import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from tlscavity.cli import main
from tlscavity.config import RunConfig
from tlscavity.dynamics import evolve_ringdown
from tlscavity.datafiles import read_ringdown_csv, read_trace_csv
from tlscavity.errors import ValidityWarning


TINY_RINGDOWN = (
    "ringdown:\n"
    "  initial_photons: [1e12, 1e11]\n"
    "  t_final: 0.004\n"
    "  m_steps: 400\n"
    "fit:\n"
    "  m_steps: 400\n"
)

TINY_SWEEP = (
    "sweep:\n"
    "  n_points: 9\n"
)


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_ringup_and_rerun_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "ringup", "--out", a, "--seed", "5"]) == 0
    assert run(["simulate", "ringup", "--out", b, "--seed", "5"]) == 0
    assert (a / "ringup.csv").read_bytes() == (b / "ringup.csv").read_bytes()
    t, p = read_trace_csv(a / "ringup.csv")
    assert len(t) == 600
    assert p[0] > 0


def test_simulate_ringdown_outputs(tmp_path):
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_RINGDOWN)
    out = tmp_path / "run"
    assert run(["simulate", "ringdown", "--config", cfgfile, "--out", out,
                "--seed", "3"]) == 0
    for name in ("ringdown_01.csv", "ringdown_02.csv", "trace_01.csv",
                 "trace_02.csv", "manifest.json"):
        assert (out / name).exists(), name
    t, n = read_ringdown_csv(out / "trace_01.csv")
    assert len(t) == 400
    # the t = 0 row is the exact reference: no noise applied there
    assert n[0] == 1e12


def test_simulate_ringdown_deterministic(tmp_path):
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_RINGDOWN)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["simulate", "ringdown", "--config", cfgfile, "--out",
                    out, "--seed", "17"]) == 0
    for name in ("ringdown_01.csv", "ringdown_02.csv", "trace_01.csv",
                 "trace_02.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_changes_noise_only(tmp_path):
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_RINGDOWN)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "ringdown", "--config", cfgfile, "--out", a,
                "--seed", "1"]) == 0
    assert run(["simulate", "ringdown", "--config", cfgfile, "--out", b,
                "--seed", "2"]) == 0
    # the noise-free trajectory is seed-independent
    assert (a / "ringdown_01.csv").read_bytes() == \
        (b / "ringdown_01.csv").read_bytes()
    assert (a / "trace_01.csv").read_bytes() != \
        (b / "trace_01.csv").read_bytes()


def test_simulate_temperature_sweep(tmp_path):
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_SWEEP)
    out = tmp_path / "run"
    assert run(["simulate", "temperature-sweep", "--config", cfgfile,
                "--out", out, "--seed", "2"]) == 0
    for name in ("sweep.csv", "freq_trace.csv", "q_trace.csv"):
        assert (out / name).exists(), name
    with open(out / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "temperature_K"
    assert "q_int" in header


def test_manifest_hashes_outputs(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "ringup", "--out", out, "--seed", "5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate ringup"
    assert manifest["seed"] == 5
    assert manifest["config"]["cavity"]["f0"] == 7.9e9
    for name, digest in manifest["outputs"].items():
        assert sha(out / name) == digest, name
    assert set(manifest["versions"]) == {"tlscavity", "numpy", "scipy",
                                         "pyyaml"}


def test_distribution_report(tmp_path):
    out = tmp_path / "run"
    assert run(["distribution", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["classes_with_count_above_one"] == 6
    assert report["conservation_rel_error"] < 1e-6
    assert report["max_g_with_count_above_one_1_per_s"] < 110.0
    assert 0.01 < report["dipole_bound_e_angstrom"] < 10.0
    assert (out / "classes.csv").exists()


def test_gnuplot_flag(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "ringup", "--out", out, "--gnuplot"]) == 0
    script = (out / "ringup.gp").read_text()
    assert "plot" in script and "ringup.csv" in script


def test_fit_ringup_round_trip(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "ringup", "--out", out, "--seed", "7"]) == 0
    fit_out = tmp_path / "fit"
    assert run(["fit", "ringup", "--out", fit_out,
                out / "ringup.csv"]) == 0
    result = json.loads((fit_out / "fit_ringup.json").read_text())
    got = dict(zip(result["parameters"], result["values"]))
    assert got["q_int"] == pytest.approx(5.3e8, rel=0.05)
    assert got["q_c"] == pytest.approx(1e8, rel=0.05)
    assert (fit_out / "residuals_ringup.csv").exists()


def test_fit_ringup_dbm_input(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "ringup", "--out", out, "--seed", "7"]) == 0
    t, p = read_trace_csv(out / "ringup.csv")
    dbm = 10.0 * np.log10(np.maximum(p, 1e-30)) + 30.0
    src = tmp_path / "ringup_dbm.csv"
    with open(src, "w") as fh:
        fh.write("time_s,power_w\n")
        for ti, pi in zip(t, dbm):
            fh.write("%r,%r\n" % (float(ti), float(pi)))
    fit_out = tmp_path / "fit"
    assert run(["fit", "ringup", "--dbm", "--out", fit_out, src]) == 0
    result = json.loads((fit_out / "fit_ringup.json").read_text())
    got = dict(zip(result["parameters"], result["values"]))
    assert got["q_int"] == pytest.approx(5.3e8, rel=0.05)


def test_fit_ringdown_small(tmp_path):
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_RINGDOWN)
    sim = tmp_path / "sim"
    assert run(["simulate", "ringdown", "--config", cfgfile, "--out", sim,
                "--seed", "4"]) == 0
    fit_out = tmp_path / "fit"
    code = run(["fit", "ringdown", "--config", cfgfile, "--out", fit_out,
                sim / "trace_01.csv", sim / "trace_02.csv"])
    assert code == 0
    result = json.loads((fit_out / "fit_ringdown.json").read_text())
    assert set(result["parameters"]) == {"t2_star", "beta", "epsilon_s",
                                         "n_tot_0", "n_tot_1"}
    assert (fit_out / "residuals_01.csv").exists()
    assert (fit_out / "residuals_02.csv").exists()


def test_fit_circle_round_trip(tmp_path):
    from tlscavity import s11_model
    f0, qi, qc = 7.9e9, 5.3e8, 1e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, 301)
    s = s11_model(f, f0, qi, qc, mismatch=0.05, amplitude=0.8, phase=0.2,
                  delay=1e-8)
    src = tmp_path / "sweep.csv"
    with open(src, "w") as fh:
        fh.write("frequency_hz,re_s11,im_s11\n")
        for fi, si in zip(f, s):
            fh.write("%r,%r,%r\n" % (float(fi), float(si.real),
                                     float(si.imag)))
    out = tmp_path / "fit"
    assert run(["fit", "circle", "--out", out, src]) == 0
    result = json.loads((out / "fit_circle.json").read_text())
    assert result["q_int"] == pytest.approx(qi, rel=0.01)
    assert result["q_c"] == pytest.approx(qc, rel=0.01)


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("cavity:\n  nonsense: 1\n")
    assert run(["simulate", "ringup", "--config", bad,
                "--out", tmp_path / "x"]) == 2


def test_exit_code_data_error(tmp_path):
    assert run(["fit", "ringup", "--out", tmp_path / "x",
                tmp_path / "missing.csv"]) == 3


def test_exit_code_nan_in_trace(tmp_path, capsys):
    # a 22 ms ring-down trace with one nan photon number is a data error,
    # reported with its line, not a fit failure
    t = np.linspace(0.0, 0.022, 51)
    n = 1e12 * np.exp(-600.0 * t)
    rows = ["%r,%r" % (float(ti), float(ni)) for ti, ni in zip(t, n)]
    rows[3] = "%r,nan" % float(t[3])
    src = tmp_path / "trace.csv"
    src.write_text("time_s,n\n" + "\n".join(rows) + "\n")
    assert run(["fit", "ringdown", "--out", tmp_path / "x", src]) == 3
    assert "line 5" in capsys.readouterr().err


def test_subnormal_temperature_runs(tmp_path, capsys):
    # k_B T underflows to 0: the T -> 0 limit, not a ZeroDivisionError
    cfgfile = tmp_path / "cold.yaml"
    cfgfile.write_text("cavity:\n  temperature: 1.0e-320\n" + TINY_RINGDOWN)
    sim = tmp_path / "sim"
    assert run(["simulate", "ringdown", "--config", cfgfile, "--out", sim,
                "--seed", "4"]) == 0
    assert run(["fit", "ringdown", "--config", cfgfile, "--out",
                tmp_path / "fit", sim / "trace_02.csv"]) == 0
    # the sweep's first point takes the T = 0 forms
    cfgfile.write_text("sweep:\n  t_min: 1.0e-320\n  n_points: 9\n")
    assert run(["simulate", "temperature-sweep", "--config", cfgfile,
                "--out", tmp_path / "sweep"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_exit_code_step_window(tmp_path, capsys):
    # dt = 4 ms / 199999 sits below 10 T2*: a config error, exit 2
    cfgfile = tmp_path / "fine.yaml"
    cfgfile.write_text("ringdown:\n  initial_photons: [1e12]\n"
                       "  t_final: 0.004\n  m_steps: 200000\n")
    assert run(["simulate", "ringdown", "--config", cfgfile,
                "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Markovian window" in err
    # the fit's own grid: 400 steps over 4 ms, then 200000 steps
    good = tmp_path / "good.yaml"
    good.write_text(TINY_RINGDOWN)
    sim = tmp_path / "sim"
    assert run(["simulate", "ringdown", "--config", good, "--out", sim]) == 0
    cfgfile.write_text(TINY_RINGDOWN.replace("fit:\n  m_steps: 400",
                                             "fit:\n  m_steps: 200000"))
    assert run(["fit", "ringdown", "--config", cfgfile, "--out",
                tmp_path / "fit", sim / "trace_01.csv"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Markovian window" in err
    assert "Traceback" not in err


def test_exit_code_halving_check(tmp_path, capsys):
    # at 200 steps over 22 ms the fit's first evolution fails its halving
    # check: a config choice (step count, model parameters), exit 2
    cfg = RunConfig()
    traj = evolve_ringdown(5e13, cfg.trace_classes(n_tot=117164510.0),
                           cfg.cavity, 0.022, 4000, verify=False)
    t = np.linspace(0.0, 0.022, 301)
    n = np.exp(np.interp(t, traj.times, np.log(traj.n)))
    src = tmp_path / "trace.csv"
    src.write_text("time_s,n\n" + "".join(
        "%r,%r\n" % (float(ti), float(ni)) for ti, ni in zip(t, n)))
    cfgfile = tmp_path / "coarse.yaml"
    cfgfile.write_text("tls:\n  t2_star: 2.5e-7\n"
                       "distribution:\n  beta: 3.0\n  epsilon_s: 0.3\n"
                       "ringdown:\n  n_tot: 1.0e8\n"
                       "fit:\n  m_steps: 200\n")
    assert run(["fit", "ringdown", "--config", cfgfile, "--out",
                tmp_path / "fit", src]) == 2
    err = capsys.readouterr().err
    assert "halving" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_exit_code_non_finite_config_number(tmp_path, capsys):
    # simulate ringup never reads ringdown, but the whole config is checked
    cfgfile = tmp_path / "inf.yaml"
    cfgfile.write_text("ringdown:\n  m_steps: .inf\n")
    assert run(["simulate", "ringup", "--config", cfgfile,
                "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "ringdown.m_steps" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_exit_code_sweep_t_max_pair_breaking(tmp_path, capsys):
    # 20 K puts 2 Delta(T) below hbar omega0: a config error at load, exit 2
    cfgfile = tmp_path / "hot.yaml"
    cfgfile.write_text("sweep:\n  t_max: 20\n")
    assert run(["simulate", "temperature-sweep", "--config", cfgfile,
                "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "sweep.t_max" in err and "pair-breaking" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("g_max", ["1.0e50", "1.0e100", "1.0e200"])
def test_exit_code_g_max_not_below_omega0(tmp_path, capsys, g_max):
    # these once ended in a ValueError or ZeroDivisionError traceback, or
    # in all-NaN ring-down CSVs with exit 0
    cfgfile = tmp_path / "wide.yaml"
    cfgfile.write_text("distribution:\n  g_max: %s\n" % g_max)
    for argv in (["distribution"], ["simulate", "ringdown"]):
        assert run(argv + ["--config", cfgfile,
                           "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert "distribution.g_max" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x").exists()


def test_distribution_report_wide_window(tmp_path):
    # nine decades of g: the window integral still matches the class sum
    cfgfile = tmp_path / "wide.yaml"
    cfgfile.write_text("distribution:\n  g_max: 1.0e6\n")
    out = tmp_path / "run"
    assert run(["distribution", "--config", cfgfile, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["window_integral"] == pytest.approx(report["sum_counts"],
                                                      rel=1e-12)
    assert report["conservation_rel_error"] < 1e-12


@pytest.mark.parametrize("setting", ["g_min: 1.0", "epsilon_s: 2000.0"])
def test_distribution_report_knee_outside_window(tmp_path, setting):
    # the knee epsilon' below g_min, then above g_max: no break point
    cfgfile = tmp_path / "knee.yaml"
    cfgfile.write_text("distribution:\n  %s\n" % setting)
    out = tmp_path / "run"
    assert run(["distribution", "--config", cfgfile, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["conservation_rel_error"] < 1e-12


def test_validity_warning_printed_once(tmp_path, capsys):
    # past delta0/4k_B two model calls warn of one condition: one line,
    # and again on the next command in the same process
    cfgfile = tmp_path / "warm.yaml"
    cfgfile.write_text(TINY_SWEEP + "  t_max: 9.5\n")
    for out in ("x", "y"):
        assert run(["simulate", "temperature-sweep", "--config", cfgfile,
                    "--out", tmp_path / out]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "tlscavity: warning: k_B T exceeds delta0/4; low-temperature "
            "forms degrade here"]


def test_validity_warning_follows_user_filters(tmp_path, capsys):
    cfgfile = tmp_path / "warm.yaml"
    cfgfile.write_text(TINY_SWEEP + "  t_max: 9.5\n")
    argv = ["simulate", "temperature-sweep", "--config", cfgfile, "--out",
            tmp_path / "x"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        assert run(argv) == 0
    assert capsys.readouterr().err == ""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ValidityWarning)
        with pytest.raises(ValidityWarning):
            run(argv)


@pytest.mark.parametrize("name, row, value", [
    ("freq_trace.csv", -1, "20.0"), ("q_trace.csv", 1, "-0.5")])
def test_exit_code_bad_data_temperature(tmp_path, capsys, name, row, value):
    # a negative or pair-breaking data temperature is a data error naming
    # the file, exit 3
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_SWEEP)
    sim = tmp_path / "sim"
    assert run(["simulate", "temperature-sweep", "--config", cfgfile,
                "--out", sim, "--seed", "3"]) == 0
    lines = (sim / name).read_text().splitlines()
    lines[row] = value + "," + lines[row].split(",")[1]
    (sim / name).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["fit", "temperature", "--config", cfgfile, "--out",
                tmp_path / "fit", sim / "freq_trace.csv",
                sim / "q_trace.csv"]) == 3
    err = capsys.readouterr().err
    assert str(sim / name) in err and value in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_exit_code_wrong_file_count(tmp_path):
    src = tmp_path / "a.csv"
    src.write_text("temperature_K,freq_shift\n1.0,0.0\n")
    assert run(["fit", "temperature", "--out", tmp_path / "x", src]) == 2


def test_trajectory_csv_round_trip(tmp_path):
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_RINGDOWN)
    out = tmp_path / "run"
    assert run(["simulate", "ringdown", "--config", cfgfile, "--out", out]) \
        == 0
    # full-precision repr round trip: reread values match exactly
    t, n = read_ringdown_csv(out / "trace_01.csv")
    t2, n2 = read_ringdown_csv(out / "trace_01.csv")
    assert np.array_equal(t, t2) and np.array_equal(n, n2)
    assert len(t) == 400
