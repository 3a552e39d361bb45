"""Simulation and fitting toolkit for a microwave cavity coupled to a
two-level-system bath: non-Markovian ring-down, power-law coupling
distributions, superconductor temperature dependence, transient reflection,
and bounded nonlinear least squares."""

__version__ = "0.1.0"

from .core import (CONSTANTS, CavityParams, PhysicalConstants, TlsClass,
                   bose_einstein, t2_star)
from .datafiles import (read_csv_columns, read_ringdown_csv, read_sweep_csv,
                        read_trace_csv)
from .distribution import (DistributionParams, bin_edges, density,
                           dipole_from_coupling, dipole_in_e_angstrom,
                           loss_tangent, ntot_from_linewidth, per_ghz_um3,
                           sample_classes, tls_volume_density,
                           write_distribution_csv)
from .dynamics import (CavityMoments, Trajectory, evolve_ringdown,
                       evolve_ringup, kappa_of_time, steady_state,
                       trajectory_kappa, write_trajectory_csv)
from .errors import (ConfigError, DataError, FitError, SaturationError,
                     StepConvergenceError, TlscavityError,
                     UnidentifiableError, ValidityWarning)
from .fitting import (FitParameter, FitProblem, FitResult, joint_tls_fit,
                      minimize, numerical_jacobian, rolling_sigma,
                      temperature_fit)
from .mattis_bardeen import (BCS_RATIO, SuperconductorParams, bessel_k0,
                             conductivity, critical_temperature, freq_shift,
                             gap, q_int_temperature, q_qp,
                             q_tls_temperature, skin_depth,
                             temperature_sweep, write_sweep_csv)
from .reflection import (CircleFitResult, ReflectionParams, circle_fit,
                         fit_ringup, ringdown_q, ringup_power, s11_model,
                         steady_state_reflection, switchoff_power)
from .tls_bath import BathRates, bath_rates, chi
from .config import RunConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
