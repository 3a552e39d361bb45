import numpy as np
import pytest

from tlscavity.config import RunConfig
from tlscavity.dynamics import evolve_ringdown


@pytest.fixture(scope="session")
def cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def cavity(cfg):
    return cfg.cavity


@pytest.fixture(scope="session")
def trace_classes(cfg):
    """Seven-class arrays, one row, at the pulsed-trace scale N_tot = 1.2e8."""
    return cfg.trace_classes(n_tot=1.2e8)


@pytest.fixture(scope="session")
def sweep_classes(cfg):
    return cfg.sweep_classes()


@pytest.fixture(scope="session")
def superconductor(cfg):
    return cfg.superconductor


@pytest.fixture(scope="session")
def a07_traces(cfg, cavity):
    """a07's ten ring-down traces: linewidth-scaled truth totals, 5e13
    photons down in half decades, 1% noise from seed 9 (perfbench's
    ringdown-fit op at seed 9)."""
    n_tots = (117164510.0, 117691280.0, 118173840.0, 118592440.0,
              118953260.0, 119261100.0, 119511180.0, 119710940.0,
              119873230.0, 120000000.0)
    t_data = np.linspace(0.0, 0.022, 301)
    rng = np.random.default_rng(9)
    traces = []
    for i, n_tot in enumerate(n_tots):
        traj = evolve_ringdown(5e13 * 10.0 ** (-0.5 * i),
                               cfg.trace_classes(n_tot=n_tot), cavity, 0.022,
                               4000, verify=False)
        n = np.exp(np.interp(t_data, traj.times, np.log(traj.n)))
        traces.append((t_data, make_noisy_trace(t_data, n, rng)))
    return traces


def make_noisy_trace(times, n_model, rng, level=0.01):
    """1% multiplicative noise on every row except the t = 0 reference."""
    out = np.array(n_model, dtype=float)
    out[1:] = out[1:] * (1.0 + level * rng.standard_normal(len(out) - 1))
    return out
