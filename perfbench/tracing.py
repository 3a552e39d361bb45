"""Layer spans and work counters, recorded from outside the package.

Each boundary is a public function wrapped under the name its caller looks
it up by (``cli.joint_tls_fit``, ``fitting.minimize``, ...). The wrapper
times the call, keeps a stack so a layer's self time is its duration minus
the time of the wrapped calls inside it, and updates work counters from the
call's arguments and result. Wrappers are installed around one op and the
original functions are put back afterwards. An untraced op keeps only the
few coarse wrappers that count its work.

The module also holds the speed probe: a fixed kernel timed next to every
op, so op times can be scaled to a reference machine speed.
"""

import math
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute the caller looks up, layer name). Several lookups of
# one function share a layer name.
BOUNDARIES = (
    ("cli", "load_config", "config.load_config"),
    ("cli", "joint_tls_fit", "fitting.joint_tls_fit"),
    ("cli", "temperature_fit", "fitting.temperature_fit"),
    ("cli", "fit_ringup", "reflection.fit_ringup"),
    ("cli", "circle_fit", "reflection.circle_fit"),
    ("cli", "sample_classes", "distribution.sample_classes"),
    ("config", "sample_classes", "distribution.sample_classes"),
    ("fitting", "minimize", "fitting.minimize"),
    ("reflection", "minimize", "fitting.minimize"),
    ("fitting", "numerical_jacobian", "fitting.numerical_jacobian"),
    ("dynamics", "evolve_ringdown", "dynamics.evolve_ringdown"),
    ("dynamics", "write_trajectory_csv", "dynamics.write_trajectory_csv"),
    ("mattis_bardeen", "temperature_sweep", "mattis_bardeen.temperature_sweep"),
    ("mattis_bardeen", "q_tls_temperature",
     "mattis_bardeen.q_tls_temperature"),
    ("mattis_bardeen", "conductivity", "mattis_bardeen.conductivity"),
    ("tls_bath", "bath_rates", "tls_bath.bath_rates"),
    ("reflection", "ringup_power", "reflection.ringup_power"),
    ("datafiles", "read_csv_columns", "datafiles.read"),
)

# The boundaries an untraced op keeps: coarse calls (milliseconds each) whose
# counters give the per-op work record.
WORK_LAYERS = frozenset({"fitting.joint_tls_fit", "fitting.minimize",
                         "fitting.numerical_jacobian",
                         "dynamics.evolve_ringdown"})

# Called thousands of times per op: aggregated, no span kept.
NO_SPAN_LAYERS = frozenset({"tls_bath.bath_rates",
                            "mattis_bardeen.conductivity",
                            "mattis_bardeen.q_tls_temperature",
                            "reflection.ringup_power"})

ROOT = "cli"

# Probe time that maps to a speed factor of 1: the probe's time on a 2-vCPU
# Intel Xeon VM in its fast state.
PROBE_REF_S = 1.2e-3


def probe_s():
    """Machine speed now: the best of two runs of a fixed kernel that uses
    no tlscavity code. It mixes scalar Python and seven-element numpy calls,
    like the package's hot loops, so it slows down with them when the host
    does."""
    a = np.linspace(0.1, 1.0, 7)
    best = math.inf
    for _ in range(2):
        x = 0.5
        t0 = time.perf_counter()
        for i in range(600):
            d = a + x
            x = 0.5 + 0.25 * math.sin(float(np.dot(a, 1.0 / d)) + i)
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(probes):
    """Factor that turns wall seconds measured while these probes ran into
    seconds at the reference speed."""
    return PROBE_REF_S * len(probes) / math.fsum(probes)


class Tracer:
    """Spans, per-layer time and work counters of one op."""

    def __init__(self, op_id, probe_every=None):
        self.op_id = op_id
        self.probe_every = probe_every
        self.probes = []
        self.probe_wall = 0.0
        self._last_probe = time.perf_counter()
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []

    # -- span bookkeeping ------------------------------------------------
    def enter(self, name):
        parent = next((f[3] for f in reversed(self._stack)
                       if f[3] is not None), None)
        span = None
        if name not in NO_SPAN_LAYERS:
            span = len(self.spans)
            self.spans.append([self.op_id, name, 0.0, 0.0, parent])
        frame = [name, time.perf_counter(), 0.0, span]
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        name, start, child_s, span = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
        if span is not None:
            self.spans[span][2] = start
            self.spans[span][3] = end

    def maybe_probe(self):
        """Sample machine speed if probe_every seconds have passed; the
        caller subtracts probe_wall from its timings."""
        if self.probe_every is None:
            return
        start = time.perf_counter()
        if start - self._last_probe >= self.probe_every:
            self.probes.append(probe_s())
            self._last_probe = time.perf_counter()
            self.probe_wall += self._last_probe - start

    def inside(self, name):
        return any(f[0] == name for f in self._stack)

    # -- installing wrappers ---------------------------------------------
    def install(self, modules, layers):
        """Wrap every boundary whose layer is in `layers`; return a restore
        list for `restore`."""
        saved = []
        for mod_name, attr, layer in BOUNDARIES:
            if layer not in layers:
                continue
            module = getattr(modules, mod_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        return saved

    @staticmethod
    def restore(saved):
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    def _wrap(self, fn, layer):
        hook = _HOOKS.get(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.maybe_probe()
            frame = tracer.enter(layer)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            finally:
                tracer.leave(frame)

        wrapper.__wrapped__ = fn
        return wrapper


def _evolve_hook(tracer, fn, args, kwargs):
    m = kwargs.get("m_steps", args[4] if len(args) > 4 else None)
    verify = kwargs.get("verify", True)
    tracer.counts["evolutions"] += 1
    if tracer.inside("fitting.joint_tls_fit"):
        tracer.counts["joint_fit_evolutions"] += 1
    traj = None
    try:
        traj = fn(*args, **kwargs)
        return traj
    finally:
        if m is None and traj is not None:
            m = len(traj.times)
        if m is not None:
            # the halving check reruns the grid at twice the steps
            tracer.counts["steps"] += (m - 1) * (3 if verify else 1)


def _minimize_hook(tracer, fn, args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    inner = problem.residual_fn
    trials = [0]

    def counted(vec):
        if not tracer.inside("fitting.numerical_jacobian"):
            trials[0] += 1
        return inner(vec)

    problem.residual_fn = counted
    try:
        result = fn(*args, **kwargs)
    finally:
        problem.residual_fn = inner
    log = result.convergence_log
    accepted = sum(1 for rec in log if rec.get("accepted"))
    tracer.counts["lm_iterations"] += len(log)
    # every residual evaluation outside a Jacobian after the first is a
    # trial point; the ones not logged as accepted were rejected
    tracer.counts["rejected_steps"] += max(trials[0] - 1 - accepted, 0)
    tracer.counts["residual_evaluations"] += trials[0]
    return result


def _read_hook(tracer, fn, args, kwargs):
    path = args[0] if args else kwargs["path"]
    result = fn(*args, **kwargs)
    tracer.counts["bytes_in"] += os.path.getsize(path)
    return result


_HOOKS = {
    "dynamics.evolve_ringdown": _evolve_hook,
    "fitting.minimize": _minimize_hook,
    "datafiles.read": _read_hook,
}


class LayerTotals:
    """Sums of traced ops, reported per op."""

    def __init__(self):
        self.ops = 0
        self.op_s = 0.0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []

    def add(self, tracer, factor, op_s, bytes_out):
        """Add one traced op; its times are scaled by the op's speed
        factor, like the op time op_s."""
        self.ops += 1
        self.op_s += op_s
        for table, src, scale in ((self.calls, tracer.calls, 1),
                                  (self.total_s, tracer.total_s, factor),
                                  (self.self_s, tracer.self_s, factor),
                                  (self.counts, tracer.counts, 1)):
            for key, value in src.items():
                table[key] += value * scale
        self.counts["bytes_out"] += bytes_out
        self.spans.extend(tracer.spans)

    def metrics(self, overhead_s):
        """Per-op means of the per-layer metrics named in BENCHMARK.json."""
        n = max(self.ops, 1)

        def calls(layer):
            return ("count", self.calls[layer] / n)

        def secs(layer, table):
            return ("s", table[layer] / n)

        evo = "dynamics.evolve_ringdown"
        steps = self.counts["steps"]
        fits = self.calls["fitting.joint_tls_fit"]
        return {
            evo + ".calls": calls(evo),
            evo + ".self_s": secs(evo, self.self_s),
            "dynamics.steps": ("count", steps / n),
            "dynamics.step_us": ("us", 1e6 * self.self_s[evo] / steps
                                 if steps else 0.0),
            "dynamics.share": ("ratio", self.total_s[evo] / self.op_s
                               if self.op_s else 0.0),
            "dynamics.write_trajectory_csv.s":
                secs("dynamics.write_trajectory_csv", self.total_s),
            "fitting.joint_tls_fit.calls": calls("fitting.joint_tls_fit"),
            "fitting.joint_tls_fit.s":
                secs("fitting.joint_tls_fit", self.total_s),
            "fitting.evolutions_per_fit":
                ("count", self.counts["joint_fit_evolutions"] / fits
                 if fits else 0.0),
            "fitting.numerical_jacobian.calls":
                calls("fitting.numerical_jacobian"),
            "fitting.numerical_jacobian.self_s":
                secs("fitting.numerical_jacobian", self.self_s),
            "fitting.lm_iterations":
                ("count", self.counts["lm_iterations"] / n),
            "fitting.rejected_steps":
                ("count", self.counts["rejected_steps"] / n),
            "fitting.minimize.calls": calls("fitting.minimize"),
            "fitting.minimize.self_s": secs("fitting.minimize", self.self_s),
            "fitting.temperature_fit.s":
                secs("fitting.temperature_fit", self.total_s),
            "tls_bath.bath_rates.calls": calls("tls_bath.bath_rates"),
            "tls_bath.bath_rates.s":
                secs("tls_bath.bath_rates", self.total_s),
            "mattis_bardeen.q_tls_temperature.s":
                secs("mattis_bardeen.q_tls_temperature", self.total_s),
            "mattis_bardeen.conductivity.calls":
                calls("mattis_bardeen.conductivity"),
            "mattis_bardeen.conductivity.s":
                secs("mattis_bardeen.conductivity", self.total_s),
            "mattis_bardeen.temperature_sweep.s":
                secs("mattis_bardeen.temperature_sweep", self.total_s),
            "distribution.sample_classes.calls":
                calls("distribution.sample_classes"),
            "distribution.sample_classes.s":
                secs("distribution.sample_classes", self.total_s),
            "reflection.circle_fit.s":
                secs("reflection.circle_fit", self.total_s),
            "reflection.fit_ringup.s":
                secs("reflection.fit_ringup", self.total_s),
            "reflection.ringup_power.calls": calls("reflection.ringup_power"),
            "datafiles.read.calls": calls("datafiles.read"),
            "datafiles.read.s": secs("datafiles.read", self.total_s),
            "datafiles.bytes_in": ("B", self.counts["bytes_in"] / n),
            "config.load_config.s": secs("config.load_config", self.total_s),
            "cli.self_s": secs(ROOT, self.self_s),
            "cli.bytes_out": ("B", self.counts["bytes_out"] / n),
            "trace.overhead_s": ("s", overhead_s),
        }
