"""Command-line entry points.

Every command is deterministic given its config and seed: summation orders
are fixed, nothing depends on the wall clock, and reruns produce
byte-identical CSV output. The seed feeds synthetic-noise generation only,
so only the simulate commands take --seed; the others record "seed": null.

Exit codes: 0 success, 2 config error (also a failed step-doubling check or
a saturated bath, both set by the config's step count and model parameters,
an --out that cannot be created or written, and running out of memory, which
the config's sizes set), 3 data error, 4 fit failure (a start outside a fit's
bounds included) or non-convergence.
"""

import argparse
import functools
import hashlib
import math
import os
import sys
import warnings

import numpy as np
import scipy
import yaml

from . import (__version__, datafiles, dynamics, mattis_bardeen, reflection,
               tls_bath)
from .config import load_config
from .core import t2_star
from .datafiles import cells, json_text, write_csv, write_text
from .distribution import (counts_between, dipole_in_e_angstrom,
                           loss_tangent, per_ghz_um3, tls_volume_density,
                           write_distribution_csv)
# Not called here: kept so perfbench/tracing.py can time the sampler under
# the name cli.sample_classes.
from .distribution import sample_classes  # noqa: F401
from .errors import (ConfigError, DataError, FitError, SaturationError,
                     StepConvergenceError, ValidityWarning)
from .fitting import joint_tls_fit, temperature_fit
from .reflection import ReflectionParams, circle_fit, fit_ringup


def _sha256(path):
    """The SHA-256 digest of an input file."""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write_json(out, name, payload):
    return write_text(os.path.join(out, name),
                      json_text(payload, indent=2, sort_keys=True) + "\n")


def _write_gnuplot(out, name, lines):
    return write_text(os.path.join(out, name), "\n".join(
        ["set datafile separator \",\""] + lines) + "\n")


def _write_fit(args, out, fit_json, curves, files, result):
    """Write fit_<command>.json and, for each (x, data, model) curve, the
    residual CSV its entry of files names as (name, header); the outputs
    and exit code, 4 with one stderr line where result did not converge."""
    name = "fit_%s.json" % args.subcommand
    outputs = {name: write_text(os.path.join(out, name), fit_json + "\n")}
    for (name, header), (x, data, model) in zip(files, curves):
        if np.iscomplexobj(data):
            columns = (x, data.real, data.imag, model.real, model.imag)
        else:
            columns = (x, data, model, data - model)
        outputs[name] = write_csv(os.path.join(out, name), header,
                                  map(cells, columns))
    if result.converged:
        return outputs, 0
    print("tlscavity: fit %s did not converge (method %s); best point "
          "written" % (args.subcommand, result.method), file=sys.stderr)
    return outputs, 4


def _run(args):
    """Load the config, create the out dir, run the command and write
    manifest.json; the command's exit code. A command returns a dict from
    each output's name to the SHA-256 digest write_text took of the bytes
    it wrote, so no output is read back: _run hashes only the inputs."""
    cfg = load_config(args.config)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    outputs, code = args.func(args, cfg, out)
    inputs = list(getattr(args, "data", ())) \
        + ([args.config] if args.config else [])
    words = (args.command, getattr(args, "subcommand", None))
    _write_json(out, "manifest.json", {
        "command": " ".join(w for w in words if w),
        "seed": getattr(args, "seed", None),
        "config_file": args.config,
        "config": cfg.as_dict(),
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": outputs,
        "versions": {"tlscavity": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "pyyaml": yaml.__version__},
        "dispatch": _dispatch_targets(),
    })
    return code


@functools.cache
def _dispatch_targets():
    """The SIMD target numpy runs float64 exp and log on, on which the
    output bytes depend (None where numpy does not say, before 2.0); one
    lookup per process, which takes about 0.1 ms."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return {name: info.get(name, {}).get("dd", {}).get("current")
            for name in ("exp", "log")}


def _trace_ntots(cfg, n_traces):
    if cfg.ringdown.n_tot_per_trace:
        if len(cfg.ringdown.n_tot_per_trace) != n_traces:
            raise ConfigError("ringdown.n_tot_per_trace: expected %d values"
                              % n_traces)
        return list(cfg.ringdown.n_tot_per_trace)
    return [cfg.ringdown.n_tot] * n_traces


def _write_trace(record, r, target, rows, time_cells, noise):
    """Write the lines of the grid points rows of trace r's noisy trace CSV
    (dynamics.write_trajectory_csv's interface); noise holds the factor of
    each grid point, or is None for none."""
    n_vals = dynamics.recorded_n(record, r)[rows]
    if noise is not None:
        n_vals = n_vals * noise[rows]
    write_csv(target, None if rows.start else "time_s,n",
              [time_cells[rows], cells(n_vals)])


def cmd_simulate_ringdown(args, cfg, out):
    powers = cfg.ringdown.initial_photons
    t_final, m_steps = cfg.ringdown.t_final, cfg.ringdown.m_steps
    classes = cfg.trace_classes(n_tot=_trace_ntots(cfg, len(powers)))
    table = tls_bath.ClassTable(*classes, cfg.cavity.omega0,
                                cfg.cavity.temperature)
    # the model files first: write_files hands out files in this order, and
    # the small trace files last even out the writers' finishing times
    names = [name % idx for name in ("ringdown_%02d.csv", "trace_%02d.csv")
             for idx in range(1, len(powers) + 1)]
    # the grid of every trace, as _evolve builds it
    times = np.linspace(0.0, t_final, m_steps)
    time_cells, times = cells(times), times.tolist()
    # each trace's noise, drawn in trace order: a factor for every grid
    # point after t = 0
    noise = [None] * len(powers)
    if args.seed is not None and cfg.noise_level > 0:
        rng = np.random.default_rng(args.seed)
        noise = [np.concatenate(([1.0], np.maximum(
            1.0 + cfg.noise_level * rng.standard_normal(m_steps - 1),
            1e-6))) for _ in powers]

    def plan(record):
        return [functools.partial(dynamics.write_trajectory_csv, record, r,
                                  times=times, time_cells=time_cells)
                for r in range(len(powers))] + [
            functools.partial(_write_trace, record, r, time_cells=time_cells,
                              noise=noise[r])
            for r in range(len(powers))]

    def run(record, progress):
        """The verified run, recorded in record; the first failed trace's
        error."""
        for traj in dynamics.evolve_table(table, cfg.cavity, powers, t_final,
                                          m_steps, record=record,
                                          progress=progress):
            if isinstance(traj, Exception):
                raise traj

    outputs = dict(zip(names, datafiles.write_files(
        [os.path.join(out, name) for name in names],
        dynamics.record_shape(m_steps, len(powers)), plan, run)))
    if args.gnuplot:
        lines = ["set logscale y", "plot \\"]
        for idx in range(1, len(powers) + 1):
            tail = ", \\" if idx < len(powers) else ""
            lines.append("  \"ringdown_%02d.csv\" using 1:3 with lines "
                         "title \"trace %d\"%s" % (idx, idx, tail))
        outputs["ringdown.gp"] = _write_gnuplot(out, "ringdown.gp", lines)
    return outputs, 0


def cmd_simulate_ringup(args, cfg, out):
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    params = ReflectionParams(
        q_int=cfg.ringup.q_int, q_c=cfg.ringup.q_c, f0=cfg.cavity.f0,
        delta=cfg.ringup.delta, p_f=cfg.ringup.p_f)
    times = np.linspace(0.0, cfg.ringup.t_final, cfg.ringup.n_points)
    power = reflection.ringup_power(times, params)
    if rng is not None and cfg.noise_level > 0:
        noise = 1.0 + cfg.noise_level * rng.standard_normal(len(power))
        power = power * np.maximum(noise, 1e-6)
    outputs = {"ringup.csv": write_csv(os.path.join(out, "ringup.csv"),
                                       "time_s,power_w",
                                       map(cells, (times, power)))}
    if args.gnuplot:
        outputs["ringup.gp"] = _write_gnuplot(out, "ringup.gp", [
            "set logscale y",
            "plot \"ringup.csv\" using 1:2 with lines title \"P_r(t)\""])
    return outputs, 0


def cmd_simulate_temperature(args, cfg, out):
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    temps = np.linspace(cfg.sweep.t_min, cfg.sweep.t_max,
                        cfg.sweep.n_points)
    classes = cfg.sweep_classes()
    table = mattis_bardeen.temperature_sweep(temps, cfg.superconductor,
                                             classes, cfg.cavity)
    outputs = {"sweep.csv": mattis_bardeen.write_sweep_csv(
        table, os.path.join(out, "sweep.csv"))}

    def noisy(values):
        if rng is None or cfg.noise_level == 0:
            return values
        floor = 1e-6 * float(np.max(np.abs(values[np.isfinite(values)])))
        noise = rng.standard_normal(len(values))
        return values + cfg.noise_level * np.abs(values) * noise \
            + floor * rng.standard_normal(len(values))

    for name, column in (("freq_trace.csv", "freq_shift"),
                         ("q_trace.csv", "q_int")):
        outputs[name] = write_csv(os.path.join(out, name),
                                  "temperature_K," + column,
                                  map(cells, (temps, noisy(table[column]))))
    if args.gnuplot:
        outputs["sweep.gp"] = _write_gnuplot(out, "sweep.gp", [
            "set logscale y",
            "plot \"sweep.csv\" using 1:8 with lines title \"Q_int(T)\""])
    return outputs, 0


def cmd_distribution(args, cfg, out):
    classes = cfg.trace_classes()
    outputs = {"classes.csv": write_distribution_csv(
        classes, os.path.join(out, "classes.csv"))}

    dist = cfg.distribution
    integral = float(counts_between(dist, (dist.g_min, dist.g_max))[0])
    g, count = (a[:, 0] for a in classes[:2])
    total = math.fsum(count.tolist())
    populated = g[count > 1.0].tolist()
    g_top = max(populated, default=float("nan"))
    try:                            # a report denominator may underflow
        tan_d = loss_tangent(classes, cfg.oxide.e_max, cfg.oxide.v_ox,
                             cfg.cavity.kappa0, cfg.oxide.eps_r)
        density = tls_volume_density(classes, cfg.oxide.g_threshold,
                                     cfg.oxide.bandwidth, cfg.oxide.v_ox_field)
    except ValueError as exc:
        raise ConfigError("oxide: %s" % exc) from exc
    report = {
        "n_tot": cfg.distribution.n_tot,
        "sum_counts": total,
        "window_integral": integral,
        "conservation_rel_error": abs(total - integral) / integral if integral
        else (math.inf if total else 0.0),
        "classes_with_count_above_one": len(populated),
        "max_g_with_count_above_one_1_per_s": g_top,
        "max_g_with_count_above_one_hz": g_top / (2.0 * math.pi),
        "dipole_bound_e_angstrom": dipole_in_e_angstrom(g_top,
                                                        cfg.oxide.e_max),
        "loss_tangent": tan_d,
        "volume_density_per_ghz_um3": per_ghz_um3(density),
    }
    outputs["report.json"] = _write_json(out, "report.json", report)
    if args.gnuplot:
        outputs["distribution.gp"] = _write_gnuplot(out, "distribution.gp", [
            "set logscale xy",
            "plot \"classes.csv\" using 1:2 with points title \"N_i(g)\""])
    return outputs, 0


def cmd_fit_ringdown(args, cfg, out):
    traces = [datafiles.read_ringdown_csv(p) for p in args.data]
    if cfg.tls_t2_star is not None:
        t2_init = cfg.tls_t2_star
    else:
        t2_init = t2_star(cfg.tls_t1, cfg.tls_t_phi, cfg.cavity.omega0,
                          cfg.cavity.temperature)
    shared = {"t2_star": t2_init, "beta": cfg.distribution.beta,
              "epsilon_s": cfg.distribution.epsilon_s}
    per_trace = _trace_ntots(cfg, len(traces))
    # the start point's classes: a refused row is a config error, as in
    # simulate ringdown, not a model failure inside the fit
    cfg.trace_classes(n_tot=per_trace, t2_star=t2_init)
    sigmas = None
    if cfg.noise_level > 0:
        sigmas = [cfg.noise_level / np.asarray(t, dtype=float)[1:]
                  for t, _ in traces]
    result = joint_tls_fit(
        traces, shared, per_trace, cfg.cavity, sigmas=sigmas,
        g_min=cfg.distribution.g_min, g_max=cfg.distribution.g_max,
        n_classes=cfg.distribution.n_classes, m_steps=cfg.fit.m_steps,
        window_margin=cfg.fit.window_margin)
    return _write_fit(
        args, out, result.to_json(), result.curves,
        [("residuals_%02d.csv" % idx, "time_s,kappa_data_1_per_s,"
          "kappa_model_1_per_s,residual")
         for idx in range(1, len(traces) + 1)], result)


def cmd_fit_ringup(args, cfg, out):
    times, power = datafiles.read_trace_csv(args.data[0], dbm=args.dbm)
    level = cfg.noise_level if cfg.noise_level > 0 else 0.01
    sigma = level * (np.abs(power) + 1e-3 * float(np.max(power)))
    if not np.all(sigma > 0):
        raise DataError("%s: power_w is too small at time_s %r to set a 1 "
                        "sigma" % (args.data[0],
                                   float(times[~(sigma > 0)][0])))
    result = fit_ringup(times, power, cfg.cavity.f0, sigma=sigma)
    return _write_fit(args, out, result.to_json(), result.curves, [(
        "residuals_ringup.csv",
        "time_s,power_data_w,power_model_w,residual")], result)


def cmd_fit_temperature(args, cfg, out):
    freq = datafiles.read_csv_columns(args.data[0],
                                      ("temperature_K", "freq_shift"))
    qdat = datafiles.read_csv_columns(args.data[1],
                                      ("temperature_K", "q_int"))
    for path, data in zip(args.data, (freq, qdat)):
        temps = data["temperature_K"]
        bad = temps[(temps < 0) | mattis_bardeen.pair_breaking(
            temps, cfg.cavity.omega0, cfg.superconductor.delta0)]
        if bad.size:
            raise DataError("%s: temperature_K %r is %s" % (
                path, float(bad[0]), "negative" if bad[0] < 0 else
                "in the pair-breaking regime (hbar*omega0 >= 2*Delta(T))"))
    level = cfg.noise_level if cfg.noise_level > 0 else 0.01

    def sweep(path, data, column):
        """(temperatures, values, 1 sigma) of one file's column."""
        values = np.abs(data[column])
        sigma = level * values + 1e-6 * level * float(np.max(values))
        if not np.all(sigma > 0):
            raise DataError("%s: %s is 0 in every row or too small to set "
                            "a 1 sigma" % (path, column))
        return data["temperature_K"], data[column], sigma

    result = temperature_fit(
        sweep(args.data[0], freq, "freq_shift"),
        sweep(args.data[1], qdat, "q_int"),
        cfg.superconductor, cfg.sweep_classes(), cfg.cavity)
    return _write_fit(args, out, result.to_json(), result.curves, [
        ("residuals_freq.csv",
         "temperature_K,freq_shift_data,freq_shift_model,residual"),
        ("residuals_q.csv", "temperature_K,q_int_data,q_int_model,residual"),
    ], result)


def cmd_fit_circle(args, cfg, out):
    freqs, s11 = datafiles.read_sweep_csv(args.data[0])
    res = circle_fit(freqs, s11)
    payload = {
        "f0": res.f0, "q_int": res.q_int, "q_c": res.q_c,
        "q_loaded": res.q_loaded,
        "impedance_mismatch_rad": res.impedance_mismatch,
        "sigma": {"f0": res.sigma_f0, "q_int": res.sigma_q_int,
                  "q_c": res.sigma_q_c,
                  "impedance_mismatch_rad": res.sigma_mismatch},
        "delay_s": res.delay,
        "circle": {"center_re": res.center.real, "center_im":
                   res.center.imag, "radius": res.radius,
                   "theta0": res.theta0, "rms_residual": res.rms_residual},
        "converged": res.converged,
    }
    return _write_fit(
        args, out, json_text(payload, indent=2, sort_keys=True), res.curves,
        [("residuals_circle.csv",
          "frequency_hz,re_data,im_data,re_model,im_model")], res)


_DATA_COUNTS = {"ringdown": (1, None), "ringup": (1, 1),
                "temperature": (2, 2), "circle": (1, 1)}


def build_parser():
    """The argument parser; main builds it once per process."""
    parser = argparse.ArgumentParser(
        prog="tlscavity",
        description="Simulate and fit resonator decay, reflection, and "
                    "temperature data.")
    parser.add_argument("--version", action="version",
                        version="tlscavity " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, gnuplot=True):
        p.add_argument("--config", default=None,
                       help="YAML config path (defaults are used if "
                            "omitted)")
        p.add_argument("--out", default=None, help="output directory")
        if gnuplot:
            p.add_argument("--gnuplot", action="store_true",
                           help="also write a gnuplot script for the outputs")

    sim = sub.add_parser("simulate", help="generate model data")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("ringdown", cmd_simulate_ringdown),
                     ("ringup", cmd_simulate_ringup),
                     ("temperature-sweep", cmd_simulate_temperature)):
        p = sim_sub.add_parser(name)
        common(p)
        p.add_argument("--seed", type=int, default=None,
                       help="seed for synthetic-noise generation only")
        p.set_defaults(func=fn)

    fit = sub.add_parser("fit", help="fit measured or synthetic data")
    fit_sub = fit.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("ringdown", cmd_fit_ringdown),
                     ("ringup", cmd_fit_ringup),
                     ("temperature", cmd_fit_temperature),
                     ("circle", cmd_fit_circle)):
        p = fit_sub.add_parser(name)
        common(p, gnuplot=False)
        p.add_argument("data", nargs="+", help="input CSV path(s)")
        if name == "ringup":
            p.add_argument("--dbm", action="store_true",
                           help="input powers are in dBm instead of W")
        p.set_defaults(func=fn, subcommand=name)

    dist = sub.add_parser("distribution",
                          help="sample the coupling distribution and "
                               "report derived quantities")
    common(dist)
    dist.set_defaults(func=cmd_distribution)
    return parser


def _once_per_message(show):
    """A showwarning that prints each distinct ValidityWarning message once,
    as one line, and hands every other warning to show."""
    seen = set()

    def showwarning(message, category, *args, **kwargs):
        if not issubclass(category, ValidityWarning):
            return show(message, category, *args, **kwargs)
        if str(message) not in seen:
            seen.add(str(message))
            print("tlscavity: warning: %s" % message, file=sys.stderr)

    return showwarning


# built on the first main call, not at import; parsing leaves the parser as
# it was, so every later call reuses it
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    if getattr(args, "data", None) is not None:
        lo, hi = _DATA_COUNTS[args.subcommand]
        if len(args.data) < lo or (hi is not None and len(args.data) > hi):
            print("tlscavity: fit %s expects %s data file(s)"
                  % (args.subcommand, lo if hi == lo else "%d+" % lo),
                  file=sys.stderr)
            return 2
    with warnings.catch_warnings():
        warnings.showwarning = _once_per_message(warnings.showwarning)
        try:
            return _run(args)
        except ConfigError as exc:
            print("tlscavity: config error: %s" % exc, file=sys.stderr)
            return 2
        except (StepConvergenceError, SaturationError) as exc:
            # the step count and the model parameters come from the config
            print("tlscavity: model error: %s" % exc, file=sys.stderr)
            return 2
        except DataError as exc:
            print("tlscavity: data error: %s" % exc, file=sys.stderr)
            return 3
        except FitError as exc:
            print("tlscavity: fit error: %s" % exc, file=sys.stderr)
            return 4
        except OSError as exc:
            # inputs are opened as DataError and the config as ConfigError:
            # what is left is creating the out dir or writing an output
            print("tlscavity: cannot write %s: %s"
                  % (exc.filename or args.out or ".", exc.strerror or exc),
                  file=sys.stderr)
            return 2
        except MemoryError:
            print("tlscavity: config error: out of memory; lower the "
                  "config's sizes (step and point counts, classes, traces)",
                  file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
