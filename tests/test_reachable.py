"""Every function and method in the package is one that a command runs.

The eight commands run in process on tiny configs under a profile hook that
notes each Python code object entered. A module-level function or a method
of a class defined in src/ that no command enters fails the test, unless
the allow-list below names it with its reason.
"""

import importlib
import inspect
import os
import pkgutil
import sys

import tlscavity
from tlscavity import datafiles
from tlscavity.cli import main
from test_reflection import _circle_sweep


# Names no command enters on a run that succeeds, each with its reason.
_UNREACHED = {
    # an error path: entered only when a run fails
    "errors.StepConvergenceError.__init__",
    # run at import, where it decorates the temperature-axis functions
    "mattis_bardeen._on_temperature_axis",
    # the fork side of write_files, which test_datafiles covers; with one
    # usable CPU, write_files writes in process
    "datafiles._claim_queue", "datafiles._claims", "datafiles._read_all",
    "datafiles._child", "datafiles._send", "datafiles._exited_ok",
    # what the acceptance gates test: a03's density, a01's skin depth and
    # a10's steady state
    "distribution.density", "mattis_bardeen.skin_depth",
    "reflection.steady_state_reflection",
    # what perfbench runs or traces: the scalar bath rates and the class
    # sampler and ring-down it times
    "tls_bath.bath_rates", "tls_bath.BathRates.__post_init__",
    "distribution.sample_classes", "dynamics.evolve_ringdown",
}


def _package_functions():
    """{"module.qualname": code object} of every module-level function and
    method of a class defined in the package's own source. Clears every
    functools cache on the way, so that a function that earlier tests ran
    is entered again."""
    root = os.path.dirname(tlscavity.__file__)
    found = {}
    for info in pkgutil.iter_modules([root]):
        module = importlib.import_module("tlscavity." + info.name)
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            if getattr(obj, "__module__", None) != module.__name__:
                continue            # imported from elsewhere
            if inspect.isclass(obj):
                members = [getattr(v, "fget", v) for v in vars(obj).values()]
            else:
                members = [obj]
            for fn in members:
                fn = inspect.unwrap(getattr(fn, "__func__", fn))
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename.startswith(root):
                    found["%s.%s" % (info.name, fn.__qualname__)] = code
    return found


def _commands(tmp_path):
    """The eight commands on tiny inputs, each with its --gnuplot form."""
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text("ringdown:\n  initial_photons: [1e12, 1e11]\n"
                    "  t_final: 0.004\n  m_steps: 400\nfit:\n  m_steps: 400\n"
                    "sweep:\n  n_points: 9\n")
    # T1 and T_phi in place of t2_star: the fit starts from core.t2_star
    times = tmp_path / "times.yaml"
    times.write_text(tiny.read_text() + "tls:\n  t1: 5.7e-7\n"
                     "  t_phi: 3.8e-7\n")
    f, s = _circle_sweep(401)
    sweep = tmp_path / "s11.csv"
    sweep.write_text("frequency_hz,re_s11,im_s11\n" + "".join(
        "%r,%r,%r\n" % (float(fi), float(si.real), float(si.imag))
        for fi, si in zip(f, s)))
    out = tmp_path / "out"
    return [
        ["simulate", "ringdown", "--config", tiny, "--seed", 7, "--gnuplot",
         "--out", out / "sim"],
        ["fit", "ringdown", "--config", times, "--out", out / "fit",
         out / "sim" / "trace_01.csv", out / "sim" / "trace_02.csv"],
        ["simulate", "ringup", "--seed", 7, "--gnuplot", "--out",
         out / "ringup"],
        ["fit", "ringup", "--out", out / "ringup_fit",
         out / "ringup" / "ringup.csv"],
        ["simulate", "temperature-sweep", "--config", tiny, "--seed", 7,
         "--gnuplot", "--out", out / "sweep"],
        ["fit", "temperature", "--config", tiny, "--out", out / "sweep_fit",
         out / "sweep" / "freq_trace.csv", out / "sweep" / "q_trace.csv"],
        ["fit", "circle", "--out", out / "circle", sweep],
        ["distribution", "--gnuplot", "--out", out / "dist"],
    ]


def test_every_package_function_is_run_by_a_command(tmp_path, monkeypatch):
    functions = _package_functions()
    assert _UNREACHED <= set(functions), _UNREACHED - set(functions)
    # one usable CPU: write_files writes in process, under the hook
    cpus = datafiles.usable_cpus
    monkeypatch.setattr(datafiles, "usable_cpus", lambda: min(cpus(), 1))
    commands = _commands(tmp_path)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    for argv in commands:
        sys.setprofile(hook)
        try:
            codes.append(main([str(a) for a in argv]))
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(commands)
    unreached = {name for name, code in functions.items()
                 if code not in entered}
    assert unreached == _UNREACHED, (
        "never entered: %s; entered after all: %s"
        % (sorted(unreached - _UNREACHED), sorted(_UNREACHED - unreached)))
