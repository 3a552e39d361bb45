"""Simulation and fitting toolkit for a microwave cavity coupled to a
two-level-system bath: non-Markovian ring-down, power-law coupling
distributions, superconductor temperature dependence, transient reflection,
and bounded nonlinear least squares."""

__version__ = "0.1.0"

from .core import (CONSTANTS, CavityParams, PhysicalConstants, bose_einstein,
                   t2_star)
from .datafiles import (read_csv_columns, read_ringdown_csv, read_sweep_csv,
                        read_trace_csv)
from .distribution import (DistributionParams, bin_edges, density,
                           dipole_from_coupling, dipole_in_e_angstrom,
                           loss_tangent, per_ghz_um3, sample_class_arrays,
                           sample_classes, tls_volume_density,
                           write_distribution_csv)
from .dynamics import (Trajectory, evolve_ringdown, evolve_table,
                       kappa_of_time, trajectory_kappa, write_trajectory_csv)
from .errors import (ConfigError, DataError, FitError, FitStartError,
                     SaturationError, StepConvergenceError, StepWindowError,
                     TlscavityError, UnidentifiableError, ValidityWarning)
from .fitting import (FitParameter, FitProblem, FitResult, joint_tls_fit,
                      minimize, numerical_jacobian, temperature_fit)
from .mattis_bardeen import (BCS_RATIO, SuperconductorParams, bessel_k0,
                             conductivity, critical_temperature, freq_shift,
                             gap, q_int_temperature, q_qp,
                             q_tls_temperature, skin_depth,
                             temperature_sweep, write_sweep_csv)
from .reflection import (CircleFitResult, ReflectionParams, circle_fit,
                         fit_ringup, ringup_power, s11_model,
                         steady_state_reflection)
from .tls_bath import BathRates, ClassTable, bath_rates
from .config import RunConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
