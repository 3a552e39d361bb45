"""tlscavity benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload ringdown-fit --seed 9 --seconds 30 \
        --trace 0

Run from the repository root. The package is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Per-op records
(time, verdict, work counters, output digests), the run environment and,
for traced runs, the spans are written under ``perfbench/out/``. See
``perfbench/README.md`` for the workloads and metric definitions.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# numpy reads the thread settings when it is first imported
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.special  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# Seconds between speed probes inside an untraced op.
PROBE_EVERY_S = 0.25
TLS_MODULES = ("cli", "config", "datafiles", "distribution", "dynamics",
               "fitting", "mattis_bardeen", "reflection", "tls_bath")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=9,
                        help="base seed of the inputs (default 9: op 0 of "
                             "ringdown-fit fits acceptance a07's data)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_package():
    """Import tlscavity from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "tlscavity", "__init__.py")):
        raise ImportError("no tlscavity package under %s" % SRC)
    sys.path.insert(0, SRC)
    import importlib
    pkg = importlib.import_module("tlscavity")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError("tlscavity imported from %s, not %s"
                          % (pkg.__file__, SRC))
    return types.SimpleNamespace(**{
        name: importlib.import_module("tlscavity." + name)
        for name in TLS_MODULES})


def fresh_import_s():
    """Wall time of a new interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tlscavity.cli"], env=env,
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
           "loadavg": os.getloadavg(),
           "threads": {v: os.environ[v] for v in THREAD_VARS},
           "git_sha": None, "git_dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git_env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"),
                       GIT_WORK_TREE=ROOT)

        def git(*cmd):
            return subprocess.run(("git",) + cmd, env=git_env, cwd=ROOT,
                                  capture_output=True, text=True)

        sha = git("rev-parse", "HEAD")
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["git_dirty"] = bool(git("status", "--porcelain").stdout)
    return env


def normalised(fn, *args):
    """(result, wall seconds, speed factor) of fn(*args), probing machine
    speed right before and after the call."""
    before = tracing.probe_s()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    return result, wall, tracing.speed_factor([before, tracing.probe_s()])


def tail_quantile(n):
    """Quantile reported as the tail of n samples: the highest of p90, p80
    and p75 with ten samples beyond it, else the median. A coarse fixed
    set keeps the quantile from following the op count from run to run."""
    for pct in (90, 80, 75):
        if n * (100 - pct) >= 1000:
            return pct / 100.0
    return 0.5


def hd_quantile(values, q):
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of all
    order statistics (Harrell & Davis, Biometrika 69, 1982). With a few
    ops from a multimodal time distribution (ring-down fits take 8 to 25
    LM iterations) the plain sample median jumps between modes from run to
    run; this estimate does not."""
    x = np.sort(values)
    n = len(x)
    cdf = scipy.special.betainc(q * (n + 1), (1.0 - q) * (n + 1),
                                np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


class Runner:
    def __init__(self, tls, workload, trace):
        self.tls = tls
        self.workload = workload
        self.trace = trace
        self.records = []
        self.totals = None
        if trace:
            self.totals = tracing.LayerTotals()

    def run_op(self, k, traced):
        """Run op k once; return its record (time excludes input writing)."""
        wl = self.workload
        argvs = wl.prepare(k)
        before = tracing.probe_s()
        codes, seconds, error, tracer = self._call(k, argvs, traced)
        factor = tracing.speed_factor(
            [before] + tracer.probes + [tracing.probe_s()])
        op_s = sum(seconds)
        try:
            ok, rec = wl.check(k, codes)
        except (OSError, KeyError, ValueError) as exc:
            ok, rec = False, {"exit": codes, "check_error": repr(exc)}
        rec.update(op=k, seed=wl.op_seed(k), traced=traced,
                   ok=bool(ok), seconds=op_s * factor, wall_s=op_s,
                   speed_factor=factor, command_wall_s=seconds, error=error,
                   work=dict(sorted(tracer.counts.items())))
        rec["work"]["bytes_out"] = workloads.tree_bytes(wl.out_dir(k))
        shutil.rmtree(wl.out_dir(k))
        if traced:
            self.totals.add(tracer, factor, rec["seconds"],
                            rec["work"]["bytes_out"])
        self.records.append(rec)
        return rec

    def _call(self, k, argvs, traced):
        """Run the op's commands; each time excludes the speed probes
        taken inside it."""
        tracer = tracing.Tracer(k, None if traced else PROBE_EVERY_S)
        layers = ({b[2] for b in tracing.BOUNDARIES} if traced
                  else tracing.WORK_LAYERS)
        codes, seconds, error = [], [], None
        saved = tracer.install(self.tls, layers)
        try:
            for argv in argvs:
                tracer.maybe_probe()
                probed = tracer.probe_wall
                frame = tracer.enter(tracing.ROOT)
                t0 = time.perf_counter()
                try:
                    code = self.tls.cli.main(argv)
                except Exception as exc:  # a failed op, not a crash
                    code, error = None, "%s: %s" % (type(exc).__name__, exc)
                seconds.append(time.perf_counter() - t0
                               - (tracer.probe_wall - probed))
                tracer.leave(frame)
                codes.append(code)
                if code != 0:
                    break
        finally:
            tracer.restore(saved)
        return codes, seconds, error, tracer


def measure(runner, seconds):
    """Records of the timed ops: ops until the next one would end past the
    deadline, at least one.

    Untraced runs run each op once. Traced runs run each op twice, traced
    and untraced in alternating order, so the difference of the two
    medians is the tracing overhead on the same inputs.
    """
    start = time.perf_counter()
    records, walls = [], []
    k = 0
    while not k or (time.perf_counter() - start + statistics.median(walls)
                    * (2 if runner.trace else 1) <= seconds):
        order = (False,)
        if runner.trace:
            order = (False, True) if k % 2 == 0 else (True, False)
        for traced in order:
            records.append(runner.run_op(k, traced))
            if not traced:
                walls.append(records[-1]["wall_s"])
        k += 1
    return records, time.perf_counter() - start


def end_to_end(times, setup_s, ok_ratio):
    tail_q = tail_quantile(len(times))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": ("s", setup_s),
            "op_s.p50": ("s", hd_quantile(times, 0.5)),
            "op_s.p90": ("s", hd_quantile(times, tail_q)),
            "ops_per_s": ("1/s", len(times) / math.fsum(times)),
            "ok_ratio": ("ratio", ok_ratio),
            "peak_rss_mb": ("MB", rss_mb)}, 100.0 * tail_q


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (have: %s)"
              % (args.workload, ", ".join(sorted(workloads.WORKLOADS))),
              file=sys.stderr)
        return 2
    try:
        tls = import_package()
    except ImportError as exc:
        print("perfbench: cannot import tlscavity: %s" % exc, file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_T0

    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "" if args.size == "full" else "-tiny")
    # relative paths keep manifest bytes independent of the checkout's place
    work = os.path.relpath(
        workloads.fresh_dir(os.path.join(HERE, "out", tag)))
    wl = workloads.WORKLOADS[args.workload](tls, work, args.seed, args.size)

    setup = {"input_generation": [], "fresh_import": []}
    for _ in range(SETUP_REPEATS):
        for part, fn in (("input_generation", wl.setup),
                         ("fresh_import", fresh_import_s)):
            _, wall, factor = normalised(fn)
            setup[part].append({"wall_s": wall, "speed_factor": factor})
    runner = Runner(tls, wl, args.trace)
    warm = runner.run_op(-1, False)
    # The warm-up op and input generation are normalised by one factor, the
    # median of all set-up parts' own: a part shorter than a second holds too
    # few probes for a factor of its own. A fresh import follows the probe
    # poorly and counts in raw seconds.
    setup_factor = statistics.median(
        [warm["speed_factor"]]
        + [p["speed_factor"] for parts in setup.values() for p in parts])
    raw = {part: statistics.median(p["wall_s"] for p in parts)
           for part, parts in setup.items()}
    setup_s = (setup_factor * (warm["wall_s"] + raw["input_generation"])
               + raw["fresh_import"])

    records, wall = measure(runner, args.seconds)
    untraced = [r for r in records if not r["traced"]]
    times = [r["seconds"] for r in untraced]
    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if not r["ok"])
    metrics, tail_pct = end_to_end(times, setup_s, 1.0 - failed / attempted)
    if args.trace:
        traced = [r["seconds"] for r in records if r["traced"]]
        metrics = runner.totals.metrics(
            statistics.median(traced) - statistics.median(times))
        metrics["wall.op_s.p50"] = ("s", statistics.median(
            r["wall_s"] for r in untraced))
        metrics["speed_factor.p50"] = ("ratio", statistics.median(
            r["speed_factor"] for r in records))
    metrics = {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "size": args.size,
              "trace": args.trace, "environment": environment(),
              "setup": dict(setup, first_import_s=import_s,
                            warmup_op_s=warm["seconds"],
                            speed_factor=setup_factor),
              "measured_wall_s": wall, "tail_percentile": tail_pct,
              "ops_timed": len(times), "metrics": metrics,
              "records": runner.records}
    shutil.rmtree(work)
    with open(os.path.join(HERE, "out", tag + ".json"), "w") as handle:
        json.dump(result, handle, indent=1)
    if args.trace:
        with open(os.path.join(HERE, "out", tag + ".spans.jsonl"),
                  "w") as handle:
            for op, name, start, end, parent in runner.totals.spans:
                handle.write(json.dumps({"op": op, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")

    for rec in runner.records:
        if not rec["ok"]:
            print("FAILED op %d: %s" % (rec["op"], json.dumps(rec)))
    print("%s: %d ops timed in %.1f s; tail = p%.0f; results in %s"
          % (args.workload, len(times), wall, tail_pct,
             os.path.relpath(os.path.join(HERE, "out", tag + ".json"))))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
