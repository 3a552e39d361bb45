"""YAML run configuration with documented defaults.

Every physical default is a fitted value from the measured device this
toolkit models, so a bare `tlscavity simulate ...` run reproduces the
reference curves. Validation failures raise ConfigError naming the field.

Every section is a settings dataclass: the loader reads the schema from
their fields (every number must be finite), and `RunConfig.as_dict` writes
it back the same way.

Schema (all sections and keys optional; values shown are the defaults)::

    cavity:
      f0: 7.9e9            # resonance frequency [Hz]
      kappa0: 537.7        # bare (non-TLS) energy decay rate [1/s]
      kappa_c: 496.4       # coupling contribution to kappa0 [1/s]
      temperature: 0.02    # bath temperature [K]
    tls:                   # coherence times for the pulsed-trace ensemble
      t2_star: 2.86e-7     # [s]; or give t1 and t_phi explicitly
    distribution:
      n_tot: 2.4e6         # total TLS count over [g_min, g_max]
      beta: 3.26           # power-law exponent
      epsilon_s: 0.25      # strength scale [1/s]
      g_min: 1.0e-3        # class window [1/s]
      g_max: 1.0e3         # below omega0 = 2*pi*f0 (rotating-wave coupling)
      n_classes: 7
    superconductor:
      delta0_j: 2.45133025002e-22   # gap at T=0 [J] (1.53 meV); or tc [K]
      sigma_n: 4.0e7       # normal-state conductivity [S/m]
      alpha: 3.3e-5        # kinetic inductance fraction
      g_factor: 74.4       # geometric factor [Ohm]
    ringdown:
      n_tot: 1.2e8         # ensemble size for the pulsed traces
      n_tot_per_trace: []  # optional per-trace override (len = #powers)
      initial_photons: [5.0e13, ... ten values, factor sqrt(10) apart]
      t_final: 0.022       # [s]
      m_steps: 4000
    ringup:
      q_int: 5.3e8
      q_c: 1.0e8
      delta: 0.8           # drive detuning [Hz]
      p_f: 1.0e-12         # forward power [W]
      t_final: 0.03        # [s]
      n_points: 600
    sweep:                 # temperature sweep and its own (VNA-side) TLS
      t_min: 0.05          # [K]
      t_max: 4.4           # below pair breaking: hbar*omega0 < 2*Delta(t_max)
      n_points: 88
      tls_n_tot: 5.808e8
      tls_t1: 7.23e-7      # [s]
      tls_t_phi: 4.84e-7
    noise:
      level: 0.01          # multiplicative 1 sigma for synthetic data
    oxide:                 # derived-quantity report inputs
      e_max: 4.549e-3      # field scale [V/m]
      v_ox: 4.86e-12       # oxide volume for tan delta [m^3]
      eps_r: 33.0
      g_threshold: 100.0   # [1/s] counting cut for the volume density
      bandwidth: 537.7     # [1/s] linewidth for the density estimate
      v_ox_field: 2.3e-13  # field-weighted volume for the density [m^3]
    fit:
      m_steps: 2000
      window_margin: 10.0
"""

import math
from dataclasses import dataclass, field, fields, replace

import yaml

from .core import CONSTANTS, CavityParams
from .distribution import DistributionParams, sample_class_arrays
from .distribution import sample_classes  # noqa: F401 (perfbench times it)
from .errors import ConfigError
from .mattis_bardeen import BCS_RATIO, SuperconductorParams, pair_breaking

_DEFAULT_POWERS = tuple(5.0e13 * 10.0 ** (-0.5 * i) for i in range(10))


@dataclass(frozen=True)
class TlsSettings:
    """Coherence times of the pulsed-trace ensemble: t2_star, or the t1 and
    t_phi pair, the other form None."""
    t1: float = None
    t_phi: float = None
    t2_star: float = None

    def __post_init__(self):
        pair = (self.t1, self.t_phi)
        if self.t2_star is not None and pair != (None, None):
            raise ValueError("give either t2_star or the t1/t_phi pair, "
                             "not both")
        if self.t2_star is not None:
            if self.t2_star <= 0:
                raise ValueError("t2_star must be positive")
        elif None in pair:
            raise ValueError("t1 and t_phi must be given together")
        elif self.t1 <= 0 or self.t_phi <= 0:
            raise ValueError("t1 and t_phi must be positive")


@dataclass(frozen=True)
class RingdownSettings:
    n_tot: float = 1.2e8
    n_tot_per_trace: tuple = ()
    initial_photons: tuple = _DEFAULT_POWERS
    t_final: float = 0.022
    m_steps: int = 4000

    def __post_init__(self):
        if self.n_tot <= 0:
            raise ValueError("n_tot must be positive")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.m_steps < 3:
            raise ValueError("m_steps must be at least 3")
        if not self.initial_photons:
            raise ValueError("initial_photons must not be empty")
        if any(p <= 0 for p in self.initial_photons):
            raise ValueError("initial_photons must be positive")
        if self.n_tot_per_trace and \
                len(self.n_tot_per_trace) != len(self.initial_photons):
            raise ValueError("n_tot_per_trace must match initial_photons "
                             "in length")
        if any(n < 0 for n in self.n_tot_per_trace):
            raise ValueError("n_tot_per_trace must be non-negative")


@dataclass(frozen=True)
class RingupSettings:
    q_int: float = 5.3e8
    q_c: float = 1.0e8
    delta: float = 0.8
    p_f: float = 1.0e-12
    t_final: float = 0.03
    n_points: int = 600

    def __post_init__(self):
        if self.q_int <= 0 or self.q_c <= 0:
            raise ValueError("quality factors must be positive")
        if self.p_f <= 0 or self.t_final <= 0:
            raise ValueError("p_f and t_final must be positive")
        if self.n_points < 4:
            raise ValueError("n_points must be at least 4")


@dataclass(frozen=True)
class SweepSettings:
    t_min: float = 0.05
    t_max: float = 4.4
    n_points: int = 88
    tls_n_tot: float = 5.808e8
    tls_t1: float = 7.23e-7
    tls_t_phi: float = 4.84e-7

    def __post_init__(self):
        if not 0 < self.t_min < self.t_max:
            raise ValueError("need 0 < t_min < t_max")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.tls_n_tot < 0:
            raise ValueError("tls_n_tot must be non-negative")
        if self.tls_t1 <= 0 or self.tls_t_phi <= 0:
            raise ValueError("TLS times must be positive")


@dataclass(frozen=True)
class NoiseSettings:
    level: float = 0.01

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be non-negative")


@dataclass(frozen=True)
class OxideSettings:
    e_max: float = 4.549e-3
    v_ox: float = 4.86e-12
    eps_r: float = 33.0
    g_threshold: float = 100.0
    bandwidth: float = 537.7
    v_ox_field: float = 2.3e-13

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError("%s must be positive" % f.name)


@dataclass(frozen=True)
class FitSettings:
    m_steps: int = 2000
    window_margin: float = 10.0

    def __post_init__(self):
        if self.m_steps < 3:
            raise ValueError("m_steps must be at least 3")
        if self.window_margin <= 0:
            raise ValueError("window_margin must be positive")


@dataclass(frozen=True)
class RunConfig:
    cavity: CavityParams = field(
        default_factory=lambda: CavityParams(
            f0=7.9e9, kappa0=537.7, kappa_c=496.4, temperature=0.02))
    tls: TlsSettings = field(
        default_factory=lambda: TlsSettings(t2_star=2.86e-7))
    distribution: DistributionParams = field(
        default_factory=lambda: DistributionParams(
            n_tot=2.4e6, beta=3.26, epsilon_s=0.25, g_min=1.0e-3,
            g_max=1.0e3, n_classes=7))
    superconductor: SuperconductorParams = field(
        default_factory=lambda: SuperconductorParams(
            delta0=2.45133025002e-22, sigma_n=4.0e7, alpha=3.3e-5,
            g_factor=74.4))
    ringdown: RingdownSettings = field(default_factory=RingdownSettings)
    ringup: RingupSettings = field(default_factory=RingupSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    noise: NoiseSettings = field(default_factory=NoiseSettings)
    oxide: OxideSettings = field(default_factory=OxideSettings)
    fit: FitSettings = field(default_factory=FitSettings)

    def trace_classes(self, n_tot=None, t2_star=None):
        """Class arrays of the pulsed-trace ensemble, one row per entry of
        n_tot (default: one row at distribution.n_tot), with the tls
        section's times or, where given, the zero-temperature t2_star that
        joint_tls_fit samples with.
        """
        times = (dict(t2_star=t2_star) if t2_star is not None else
                 dict(T1=self.tls.t1, T_phi=self.tls.t_phi,
                      t2_star=self.tls.t2_star))
        return self._classes(
            "distribution and tls",
            self.distribution.n_tot if n_tot is None else n_tot, **times)

    def sweep_classes(self):
        """Class arrays of the temperature model (sweep section), one row."""
        return self._classes("distribution and sweep", self.sweep.tls_n_tot,
                             T1=self.sweep.tls_t1, T_phi=self.sweep.tls_t_phi)

    def _classes(self, sections, n_tot, **times):
        """sample_class_arrays on the distribution's window; a refused row
        is a ConfigError naming the config sections the classes come from."""
        dist = self.distribution
        classes, refused = sample_class_arrays(
            n_tot, dist.beta, dist.epsilon_s, g_min=dist.g_min,
            g_max=dist.g_max, n_classes=dist.n_classes, **times)
        for exc in refused:
            if exc:
                raise ConfigError("%s: %s" % (sections, exc))
        return classes

    def as_dict(self):
        """Fully resolved configuration for the run manifest: the loader's
        field table in reverse, so it loads back as this configuration.
        A field that is None (the unused tls form) is left out."""
        out = {}
        for f in fields(self):
            settings = getattr(self, f.name)
            values = ((g, getattr(settings, g.name)) for g in fields(settings))
            out[f.name] = {_yaml_key(f.name, g): _plain(value)
                           for g, value in values if value is not None}
        return out


# YAML keys that differ from their field name, by (section, field).
_YAML_KEYS = {("superconductor", "delta0"): "delta0_j"}


def _yaml_key(section, f):
    return _YAML_KEYS.get((section, f.name), f.name)


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def _as_float(section, key, value):
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError("%s.%s: expected a number, found %r"
                          % (section, key, value)) from None
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError("%s.%s: expected a finite number, found %r"
                          % (section, key, value))
    return number


def _as_int(section, key, value):
    f = _as_float(section, key, value)
    if f != int(f):
        raise ConfigError("%s.%s: expected an integer, found %r"
                          % (section, key, value))
    return int(f)


def _as_floats(section, key, value):
    if not isinstance(value, (list, tuple, type(None))):
        raise ConfigError("%s.%s: expected a list" % (section, key))
    return tuple(_as_float(section, key, v) for v in value or ())


# Conversion of a YAML value by the annotation of its settings field.
_CONVERT = {float: _as_float, int: _as_int, tuple: _as_floats}


def _load_section(raw, name, default):
    """The default settings with the section's keys converted and applied."""
    keys = {_yaml_key(name, f): f for f in fields(default)}
    known = set(keys) | ({"tc"} if name == "superconductor" else set())
    sec = raw.pop(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError("%s: expected a mapping" % name)
    for key in sec:
        if key not in known:
            raise ConfigError("%s.%s: unknown field (known: %s)"
                              % (name, key, ", ".join(sorted(known))))
    try:
        if name == "tls" and sec:
            # its two forms exclude each other: a given tls section starts
            # from its own keys alone, their form checked before their values
            default = TlsSettings(**dict.fromkeys(sec, 1.0))
        values = {}
        if "tc" in sec:
            if "delta0_j" in sec:
                raise ConfigError("superconductor: give either delta0_j or "
                                  "tc, not both")
            values["delta0"] = BCS_RATIO * CONSTANTS.k_b * _as_float(
                "superconductor", "tc", sec["tc"])
        for key, f in keys.items():
            if key in sec:
                values[f.name] = _CONVERT[f.type](name, key, sec[key])
        return replace(default, **values)
    except (ValueError, TypeError) as exc:
        raise ConfigError("%s: %s" % (name, exc)) from exc


def load_config(path=None):
    """Load a RunConfig from a YAML file; path=None gives pure defaults."""
    raw = {}
    if path is not None:
        try:
            with open(path) as handle:
                raw = yaml.safe_load(handle)
        except OSError as exc:
            raise ConfigError("cannot open config %s: %s" % (path, exc)) \
                from exc
        except yaml.YAMLError as exc:
            raise ConfigError("cannot parse config %s: %s" % (path, exc)) \
                from exc
        raw = {} if raw is None else raw
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")

    defaults = RunConfig()
    # sections in RunConfig field order: the first bad one is reported
    values = {f.name: _load_section(raw, f.name, getattr(defaults, f.name))
              for f in fields(RunConfig)}

    if raw:
        raise ConfigError("unknown top-level section(s): %s"
                          % ", ".join(sorted(raw)))
    cfg = RunConfig(**values)
    # the rotating-wave coupling model needs g << omega0
    if cfg.distribution.g_max >= cfg.cavity.omega0:
        raise ConfigError("distribution.g_max: must be below omega0 = "
                          "2*pi*cavity.f0 = %r 1/s, found %r"
                          % (cfg.cavity.omega0, cfg.distribution.g_max))
    # Delta(T) falls with T: the sweep is inside the model if t_max is
    for key, t in (("cavity.f0", 0.0), ("sweep.t_max", cfg.sweep.t_max)):
        if pair_breaking(t, cfg.cavity.omega0, cfg.superconductor.delta0)[0]:
            raise ConfigError("%s: hbar*omega0 >= 2*Delta(%r K), the "
                              "pair-breaking regime" % (key, t))
    return cfg
