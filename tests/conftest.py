import numpy as np
import pytest

from tlscavity.config import RunConfig


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


def make_noisy_trace(times, n_model, rng, level=0.01):
    """1% multiplicative noise on every row except the t = 0 reference."""
    out = np.array(n_model, dtype=float)
    out[1:] = out[1:] * (1.0 + level * rng.standard_normal(len(out) - 1))
    return out
