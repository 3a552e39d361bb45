import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tlscavity
from tlscavity import datafiles, fitting
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


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def strict_json(path):
    """Parse a JSON file, failing on NaN, Infinity and -Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


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


def test_reused_parser_carries_no_option_over(tmp_path):
    # main parses every call with one parser per process: a flag, a seed
    # or a config given to one call is not seen by the next
    from tlscavity import cli
    assert cli._parser() is cli._parser()
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text("noise:\n  level: 0.02\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "ringup", "--out", a, "--gnuplot", "--seed", "5",
                "--config", cfgfile]) == 0
    assert run(["simulate", "ringup", "--out", b]) == 0
    assert (a / "ringup.gp").exists() and not (b / "ringup.gp").exists()
    manifest = json.loads((b / "manifest.json").read_text())
    assert manifest["seed"] is None and manifest["config_file"] is None
    assert sorted(manifest["outputs"]) == ["ringup.csv"]

    sim = tmp_path / "sim"
    assert run(["simulate", "ringup", "--out", sim, "--seed", "7"]) == 0
    t, p = read_trace_csv(sim / "ringup.csv")
    src = tmp_path / "ringup_dbm.csv"
    src.write_text("time_s,power_w\n" + "".join(
        "%r,%r\n" % (float(ti), float(di))
        for ti, di in zip(t, 10.0 * np.log10(p) + 30.0)))
    before, dbm, after = (tmp_path / name for name in ("w1", "dbm", "w2"))
    assert run(["fit", "ringup", "--out", before, sim / "ringup.csv"]) == 0
    assert run(["fit", "ringup", "--dbm", "--out", dbm, src]) == 0
    assert run(["fit", "ringup", "--out", after, sim / "ringup.csv"]) == 0
    assert (after / "fit_ringup.json").read_bytes() == \
        (before / "fit_ringup.json").read_bytes()


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


def write_sweep(path, freqs, s11):
    with open(path, "w") as fh:
        fh.write("frequency_hz,re_s11,im_s11\n")
        for fi, si in zip(freqs, s11):
            fh.write("%r,%r,%r\n" % (float(fi), float(si.real),
                                     float(si.imag)))
    return path


def test_fit_circle_round_trip(tmp_path):
    from tlscavity import s11_model
    f0, qi, qc = 7.9e9, 5.3e8, 1e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, 301)
    s = s11_model(f, f0, qi, qc, mismatch=0.05, amplitude=0.8, phase=0.2,
                  delay=1e-8)
    src = write_sweep(tmp_path / "sweep.csv", f, s)
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


@pytest.mark.parametrize("row, column, cell", [
    (50, 0, "inf"),      # the last time_s
    (3, 1, "inf"),       # a photon number in mid-trace
    (0, 1, "inf"),       # the photon number at t = 0
    (3, 1, "-inf"),
])
def test_exit_code_infinite_cell_in_trace(tmp_path, capsys, row, column,
                                          cell):
    # an infinite cell is a data error naming its line and column, like
    # nan, not a traceback or a model or fit failure
    t = np.linspace(0.0, 0.022, 51)
    n = 1e12 * np.exp(-600.0 * t)
    rows = [["%r" % float(ti), "%r" % float(ni)] for ti, ni in zip(t, n)]
    rows[row][column] = cell
    src = tmp_path / "trace.csv"
    src.write_text("time_s,n\n" + "\n".join(map(",".join, rows)) + "\n")
    assert run(["fit", "ringdown", "--out", tmp_path / "x", src]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    name = ("time_s", "n")[column]
    assert "line %d: %s in column %s" % (row + 2, cell, name) in err


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


def test_exit_code_removed_ringdown_mode(tmp_path, capsys):
    # the pinned ring-down is the only evolution: ringdown.mode is unknown
    cfgfile = tmp_path / "tracked.yaml"
    cfgfile.write_text("ringdown:\n  mode: tracked\n")
    assert run(["simulate", "ringdown", "--config", cfgfile,
                "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "ringdown.mode" in err
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


# Inputs whose classes the model cannot evaluate: they once ended in a
# traceback (exit 1), or in NaN cells or numpy RuntimeWarnings, and are now
# refused where the command samples (or, for n_tot_per_trace, on loading).
_UNEVALUABLE = {
    "negative_n_tot_per_trace": "ringdown:\n  initial_photons: [1e12, 1e11]\n"
                                "  n_tot_per_trace: [1.0e8, -1.0e8]\n",
    "subnormal_g_min": "distribution:\n  g_min: 1.0e-320\n",
    "underflowing_midpoints": "distribution:\n  g_min: 1.0e-300\n"
                              "  g_max: 1.0e-299\n",
    "overflowing_sweep_t1": "sweep:\n  tls_t1: 1.0e308\n",
    "overflowing_t2_star": "tls:\n  t2_star: 1.0e308\n",
}
_SAMPLING_COMMANDS = (("simulate", "ringdown"), ("distribution",),
                      ("simulate", "temperature-sweep"))


@pytest.mark.parametrize("name, command", [pytest.param(
    name, command, id="%s-%s" % (name, "-".join(command))) for name, command in (
    *((name, command) for name in ("negative_n_tot_per_trace",
                                   "subnormal_g_min", "underflowing_midpoints")
      for command in _SAMPLING_COMMANDS),
    ("overflowing_sweep_t1", ("simulate", "temperature-sweep")),
    ("overflowing_t2_star", ("simulate", "ringdown")),
    ("overflowing_t2_star", ("distribution",)))])
def test_unevaluable_classes_exit_2_with_one_line(tmp_path, capsys, name,
                                                  command):
    cfgfile = tmp_path / "bad.yaml"
    cfgfile.write_text(_UNEVALUABLE[name])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([*command, "--config", cfgfile, "--out", tmp_path / "x"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "config error" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_distribution_report_zero_n_tot(tmp_path):
    # both sums exactly 0: no relative error, and no class above one TLS
    cfgfile = tmp_path / "empty.yaml"
    cfgfile.write_text("distribution:\n  n_tot: 0\n")
    out = tmp_path / "run"
    assert run(["distribution", "--config", cfgfile, "--out", out]) == 0
    report = strict_json(out / "report.json")
    assert report["window_integral"] == 0.0 and report["sum_counts"] == 0.0
    assert report["conservation_rel_error"] == 0.0
    assert report["classes_with_count_above_one"] == 0
    assert report["max_g_with_count_above_one_1_per_s"] is None
    assert report["dipole_bound_e_angstrom"] is None
    strict_json(out / "manifest.json")


def test_distribution_report_window_integral_underflow(tmp_path):
    # n_tot/eps_s underflows to 0 while the largest class count rounds up
    # to the smallest subnormal: the relative error is inf, written as null
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text("distribution:\n  n_tot: 5.0e-324\n"
                       "  epsilon_s: 1000.0\n")
    out = tmp_path / "run"
    assert run(["distribution", "--config", cfgfile, "--out", out]) == 0
    report = strict_json(out / "report.json")
    assert report["window_integral"] == 0.0 and report["sum_counts"] > 0.0
    assert report["conservation_rel_error"] is None


def test_fit_json_writes_infinite_sigma_as_null(tmp_path):
    # every data temperature at 0 leaves delta0, alpha and sigma_n
    # unconstrained: their sigma is inf, written as null
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_SWEEP)
    sim = tmp_path / "sim"
    assert run(["simulate", "temperature-sweep", "--config", cfgfile,
                "--out", sim, "--seed", "3"]) == 0
    for name in ("freq_trace.csv", "q_trace.csv"):
        lines = (sim / name).read_text().splitlines()
        (sim / name).write_text("\n".join(
            [lines[0]] + ["0.0," + ln.split(",")[1] for ln in lines[1:]])
            + "\n")
    out = tmp_path / "fit"
    assert run(["fit", "temperature", "--config", cfgfile, "--out", out,
                sim / "freq_trace.csv", sim / "q_trace.csv"]) == 0
    fit = strict_json(out / "fit_temperature.json")
    assert fit["sigma"][:3] == [None, None, None]
    assert all(isinstance(v, float) for v in fit["values"])
    # stage 1's Jacobian is all zero: its damped solve gives a zero step,
    # accepted at the start point, not a singular matrix and a simplex
    assert fit["stop_reason"].split(",")[0] == "step"
    start = RunConfig().superconductor
    assert fit["values"][:2] == pytest.approx([start.alpha, start.delta0],
                                              rel=1e-12)
    strict_json(out / "manifest.json")


def test_cli_import_leaves_out_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        tlscavity.__file__)))
    code = ("import sys, tlscavity.cli; "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "False"


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


@pytest.mark.parametrize("command, method", [("ringup", "lm"),
                                             ("temperature", "two-stage")])
def test_fit_not_converged_exits_4_with_one_line(tmp_path, capsys,
                                                 monkeypatch, command,
                                                 method):
    # a fit stopped before convergence writes its best point and says so
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_SWEEP)
    sim = tmp_path / "sim"
    if command == "ringup":
        assert run(["simulate", "ringup", "--out", sim, "--seed", "7"]) == 0
        data = [sim / "ringup.csv"]
        residuals = ["residuals_ringup.csv"]
    else:
        assert run(["simulate", "temperature-sweep", "--config", cfgfile,
                    "--out", sim, "--seed", "3"]) == 0
        data = [sim / "freq_trace.csv", sim / "q_trace.csv"]
        residuals = ["residuals_freq.csv", "residuals_q.csv"]
    capsys.readouterr()
    monkeypatch.setattr(fitting, "_MAX_ITER", 1)
    fit_out = tmp_path / "fit"
    assert run(["fit", command, "--config", cfgfile, "--out", fit_out]
               + data) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("tlscavity: fit %s " % command)
    assert "(method %s)" % method in err
    assert strict_json(fit_out / ("fit_%s.json" % command))["converged"] \
        is False
    for name in residuals + ["manifest.json"]:
        assert (fit_out / name).exists()


def test_fit_circle_not_converged_exits_4(tmp_path, capsys, monkeypatch):
    # a11's sweep with 3e-3 complex noise: one phase-fit iteration does not
    # converge, and fit circle says so like the other fits
    from tlscavity import s11_model
    f0, qi, qc = 7.9e9, 5.3e8, 1e8
    ql = qi * qc / (qi + qc)
    f = np.linspace(f0 - 4.0 * f0 / ql, f0 + 4.0 * f0 / ql, 401)
    s = s11_model(f, f0, qi, qc, mismatch=0.1, amplitude=0.9, phase=0.4,
                  delay=3.2e-8)
    rng = np.random.default_rng(11)
    s = s + 3e-3 * (rng.standard_normal(len(f))
                    + 1j * rng.standard_normal(len(f)))
    src = write_sweep(tmp_path / "sweep.csv", f, s)
    out = tmp_path / "fit"
    assert run(["fit", "circle", "--out", out, src]) == 0
    assert strict_json(out / "fit_circle.json")["converged"] is True
    capsys.readouterr()
    monkeypatch.setattr(fitting, "_MAX_ITER", 1)
    assert run(["fit", "circle", "--out", out, src]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("tlscavity: fit circle did not converge (method ")
    assert strict_json(out / "fit_circle.json")["converged"] is False
    for name in ("residuals_circle.csv", "manifest.json"):
        assert (out / name).exists()


@pytest.mark.parametrize("command, setting, message", [
    ("ringdown", "tls:\n  t2_star: 1.0e-9\n",
     "parameter t2_star: start 1e-09 outside bounds [5e-08, 2e-06]"),
    ("temperature", "  tls_t1: 1.0e-12\n",
     "parameter t1: start 1e-12 outside bounds [1e-09, 0.0001]")],
    ids=["ringdown", "temperature"])
def test_fit_start_outside_bounds_exits_4(tmp_path, capsys, command, setting,
                                          message):
    base = TINY_RINGDOWN if command == "ringdown" else TINY_SWEEP
    sim = tmp_path / "sim"
    cfgfile = tmp_path / "base.yaml"
    cfgfile.write_text(base)
    if command == "ringdown":
        assert run(["simulate", "ringdown", "--config", cfgfile, "--out",
                    sim, "--seed", "4"]) == 0
        data = [sim / "trace_01.csv"]
    else:
        assert run(["simulate", "temperature-sweep", "--config", cfgfile,
                    "--out", sim, "--seed", "3"]) == 0
        data = [sim / "freq_trace.csv", sim / "q_trace.csv"]
    capsys.readouterr()
    cfgfile.write_text(base + setting)
    assert run(["fit", command, "--config", cfgfile, "--out",
                tmp_path / "fit"] + data) == 4
    assert capsys.readouterr().err == "tlscavity: fit error: %s\n" % message


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tree(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


def test_simulate_ringdown_split_matches_serial(tmp_path, monkeypatch):
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_RINGDOWN)
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(datafiles, "usable_cpus", lambda: cpus)
        out = tmp_path / ("cpus%d" % cpus)
        assert run(["simulate", "ringdown", "--config", cfgfile, "--out",
                    out, "--seed", "3"]) == 0
        assert_no_child_left()
        trees.append(_tree(out))
    serial, split = trees
    assert split == serial
    assert sorted(serial) == ["manifest.json", "ringdown_01.csv",
                              "ringdown_02.csv", "trace_01.csv",
                              "trace_02.csv"]


def test_simulate_ringdown_failed_write_split_as_serial(tmp_path, capsys,
                                                        monkeypatch):
    # trace 2's files are the child's share when the writes are split
    cfgfile = tmp_path / "tiny.yaml"
    cfgfile.write_text(TINY_RINGDOWN)
    errs = []
    for cpus in (1, 2):
        monkeypatch.setattr(datafiles, "usable_cpus", lambda: cpus)
        out = tmp_path / "run"
        (out / "ringdown_02.csv").mkdir(parents=True, exist_ok=True)
        assert run(["simulate", "ringdown", "--config", cfgfile, "--out",
                    out, "--seed", "3"]) == 2
        assert_no_child_left()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "tlscavity: cannot write %s: Is a " \
        "directory\n" % (out / "ringdown_02.csv")


@pytest.mark.parametrize("under", ["", "sub"])
def test_exit_code_out_not_a_directory(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker / under if under else blocker
    assert run(["simulate", "ringup", "--out", out, "--seed", "5"]) == 2
    reason = "Not a directory" if under else "File exists"
    assert capsys.readouterr().err == "tlscavity: cannot write %s: %s\n" % (
        out, reason)
