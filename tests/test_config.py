import dataclasses
import json
import math

import pytest
import yaml

from tlscavity import ConfigError
from tlscavity.config import (FitSettings, OxideSettings, RingdownSettings,
                              RingupSettings, RunConfig, SweepSettings,
                              load_config)
from tlscavity.core import CavityParams
from tlscavity.distribution import DistributionParams
from tlscavity.mattis_bardeen import SuperconductorParams


def test_defaults():
    cfg = load_config(None)
    assert cfg.cavity.f0 == 7.9e9
    assert cfg.cavity.kappa0 == 537.7
    assert cfg.cavity.kappa_c == 496.4
    assert cfg.cavity.temperature == 0.02
    assert cfg.tls_t2_star == 2.86e-7
    assert cfg.distribution.beta == 3.26
    assert cfg.distribution.epsilon_s == 0.25
    assert cfg.distribution.n_classes == 7
    assert cfg.superconductor.alpha == 3.3e-5
    assert cfg.noise_level == 0.01
    assert len(cfg.ringdown.initial_photons) == 10
    assert cfg.ringdown.initial_photons[0] == 5e13


def test_yaml_round_trip(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "cavity:\n  f0: 8.1e9\n  kappa0: 600.0\n  kappa_c: 500.0\n"
        "distribution:\n  beta: 2.8\n  n_classes: 14\n"
        "noise:\n  level: 0.02\n")
    cfg = load_config(p)
    assert cfg.cavity.f0 == 8.1e9
    assert cfg.cavity.kappa0 == 600.0
    assert cfg.distribution.beta == 2.8
    assert cfg.distribution.n_classes == 14
    assert cfg.noise_level == 0.02
    # untouched sections fall back to defaults
    assert cfg.tls_t2_star == 2.86e-7


def test_scientific_notation_strings(tmp_path):
    # YAML 1.1 reads 5e13 (no dot, no sign) as a string; the loader must
    # coerce it
    p = tmp_path / "c.yaml"
    p.write_text("ringdown:\n  initial_photons: [5e13, 1e13]\n")
    cfg = load_config(p)
    assert list(cfg.ringdown.initial_photons) == [5e13, 1e13]


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("cavity:\n  f00: 8.1e9\n")
    with pytest.raises(ConfigError, match="f00"):
        load_config(p)
    p.write_text("cavityy:\n  f0: 8.1e9\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_bad_type_cites_field(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("cavity:\n  kappa0: [1, 2]\n")
    with pytest.raises(ConfigError, match="kappa0"):
        load_config(p)


def test_tls_either_or(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("tls:\n  t2_star: 3.0e-7\n  t1: 7.0e-7\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("tls:\n  t1: 7.0e-7\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("tls:\n  t1: 7.23e-7\n  t_phi: 4.84e-7\n")
    cfg = load_config(p)
    assert cfg.tls_t2_star is None
    assert cfg.tls_t1 == 7.23e-7


def test_superconductor_tc_shortcut(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("superconductor:\n  tc: 9.2\n")
    cfg = load_config(p)
    assert cfg.superconductor.delta0 == pytest.approx(
        1.764 * 1.380649e-23 * 9.2, rel=1e-12)
    p.write_text("superconductor:\n  tc: 9.2\n  delta0_j: 2.0e-22\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_sweep_t_max_in_pair_breaking_regime(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("sweep:\n  t_max: 20\n")
    with pytest.raises(ConfigError, match=r"^sweep\.t_max: .*pair-breaking"):
        load_config(p)
    p.write_text("sweep:\n  t_max: 9.5\n")
    assert load_config(p).sweep.t_max == 9.5
    # above the gap frequency no temperature is inside the model
    p.write_text("cavity:\n  f0: 1.0e12\n")
    with pytest.raises(ConfigError, match=r"^cavity\.f0: .*pair-breaking"):
        load_config(p)


def test_g_max_must_be_below_omega0(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("distribution:\n  g_max: 1.0e50\n")
    with pytest.raises(ConfigError, match=r"^distribution\.g_max: "):
        load_config(p)
    # the bound is omega0 = 2*pi*f0, whatever f0 is
    p.write_text("cavity:\n  f0: 1.0e3\ndistribution:\n  g_max: 7.0e3\n")
    with pytest.raises(ConfigError, match=r"^distribution\.g_max: "):
        load_config(p)
    p.write_text("cavity:\n  f0: 1.0e3\ndistribution:\n  g_max: 6.0e3\n")
    assert load_config(p).distribution.g_max == 6.0e3


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


def test_malformed_yaml(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("cavity: [unbalanced\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_trace_classes_override():
    cfg = RunConfig()
    base = cfg.trace_classes()
    scaled = cfg.trace_classes(n_tot=2.0 * cfg.distribution.n_tot)
    for a, b in zip(base, scaled):
        assert b.count == pytest.approx(2.0 * a.count, rel=1e-12)
        assert b.g == a.g


def test_sweep_classes_use_sweep_times():
    cfg = RunConfig()
    classes = cfg.sweep_classes()
    assert all(c.T1 == cfg.sweep.tls_t1 for c in classes)
    assert all(c.T_phi == cfg.sweep.tls_t_phi for c in classes)
    total = math.fsum(c.count for c in classes)
    assert total == pytest.approx(0.996 * cfg.sweep.tls_n_tot, rel=1e-3)


def test_as_dict_is_json_serializable():
    blob = json.dumps(RunConfig().as_dict())
    back = json.loads(blob)
    assert back["cavity"]["f0"] == 7.9e9
    assert back["fit"]["m_steps"] == 2000


def _numeric_keys():
    keys = [(section, key)
            for section, values in RunConfig().as_dict().items()
            for key, value in values.items() if not isinstance(value, str)]
    return keys + [("superconductor", "tc"), ("tls", "t1"), ("tls", "t_phi")]


@pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("section, key", _numeric_keys())
def test_non_finite_number_rejected(tmp_path, section, key, bad):
    default = RunConfig().as_dict()[section].get(key)
    value = "[%s]" % bad if isinstance(default, list) else bad
    text = "%s:\n  %s: %s\n" % (section, key, value)
    if key in ("t1", "t_phi"):
        text += "  %s: 5.0e-7\n" % ("t_phi" if key == "t1" else "t1")
    p = tmp_path / "c.yaml"
    p.write_text(text)
    with pytest.raises(ConfigError, match=r"^%s\.%s: " % (section, key)):
        load_config(p)


def _every_field_changed(tls):
    return RunConfig(
        cavity=CavityParams(f0=8.1e9, kappa0=600.0, kappa_c=450.0,
                            temperature=0.03),
        distribution=DistributionParams(n_tot=3.0e6, beta=2.9,
                                        epsilon_s=0.3, g_min=2.0e-3,
                                        g_max=5.0e2, n_classes=9),
        superconductor=SuperconductorParams(delta0=2.2e-22, sigma_n=3.0e7,
                                            alpha=4.0e-5, g_factor=70.0),
        ringdown=RingdownSettings(n_tot=1.5e8,
                                  n_tot_per_trace=(1.1e8, 1.3e8),
                                  initial_photons=(2.0e13, 3.0e11),
                                  t_final=0.015, m_steps=3000),
        ringup=RingupSettings(q_int=4.0e8, q_c=2.0e8, delta=0.5,
                              p_f=2.0e-12, t_final=0.02, n_points=300),
        sweep=SweepSettings(t_min=0.1, t_max=3.5, n_points=40,
                            tls_n_tot=4.0e8, tls_t1=8.0e-7,
                            tls_t_phi=5.0e-7),
        noise_level=0.02,
        oxide=OxideSettings(e_max=5.0e-3, v_ox=5.0e-12, eps_r=30.0,
                            g_threshold=80.0, bandwidth=600.0,
                            v_ox_field=2.0e-13),
        fit=FitSettings(m_steps=1500, window_margin=8.0),
        **tls)


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    _every_field_changed({"tls_t2_star": 3.1e-7}),
    _every_field_changed({"tls_t1": 6.0e-7, "tls_t_phi": 4.0e-7,
                          "tls_t2_star": None}),
], ids=["defaults", "t2_star", "t1_t_phi"])
def test_manifest_config_reloads_as_the_same_run(tmp_path, cfg):
    base = RunConfig()
    if cfg != base:
        for f in dataclasses.fields(cfg):
            value, default = getattr(cfg, f.name), getattr(base, f.name)
            if dataclasses.is_dataclass(value):
                for g in dataclasses.fields(value):
                    assert getattr(value, g.name) != getattr(default, g.name)
            elif value is not None:
                assert value != default
    p = tmp_path / "manifest_config.yaml"
    p.write_text(yaml.safe_dump(cfg.as_dict()))
    assert load_config(p) == cfg
