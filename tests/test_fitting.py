import json
import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from oracles import by_name, with_times
from tlscavity import (DistributionParams, FitError, FitParameter,
                       FitProblem, FitResult, FitStartError,
                       SuperconductorParams, evolve_ringdown, freq_shift,
                       joint_tls_fit, minimize, numerical_jacobian,
                       q_int_temperature, sample_classes, temperature_fit)
from tlscavity import fitting
from tlscavity.distribution import _unit_bins


def test_fit_parameter_transforms():
    p = FitParameter("k", 100.0, 1.0, 1e6, "log")
    assert p.from_internal(p.to_internal(100.0)) == pytest.approx(100.0,
                                                                  rel=1e-15)
    lin = FitParameter("x", -2.0, -10.0, 10.0, "linear")
    assert lin.to_internal(-2.0) == -2.0
    with pytest.raises(ValueError):
        FitParameter("bad", -1.0, -2.0, 2.0, "log")
    with pytest.raises(ValueError):
        FitParameter("bad", 5.0, 10.0, 20.0, "linear")  # value outside bounds
    with pytest.raises(ValueError):
        FitParameter("bad", 1.0, 2.0, 0.5, "linear")  # inverted bounds


def test_start_outside_bounds_names_start_and_bounds():
    with pytest.raises(FitStartError) as info:
        FitParameter("t1", 1e-12, 1e-9, 1e-4, "log")
    assert isinstance(info.value, FitError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == \
        "parameter t1: start 1e-12 outside bounds [1e-09, 0.0001]"


def test_linear_model_exact_covariance():
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 10.0, 60)
    sigma = np.full_like(x, 0.3)
    y = 2.0 * x + 1.0 + sigma * rng.standard_normal(len(x))

    def residual(v):
        return v[0] * x + v[1] - y

    res = minimize(FitProblem(
        residual_fn=residual,
        params=[FitParameter("slope", 1.0, -100.0, 100.0, "linear"),
                FitParameter("offset", 0.0, -100.0, 100.0, "linear")],
        data_weights=sigma))
    # analytic weighted least squares on the same data
    A = np.vstack([x / sigma, 1.0 / sigma]).T
    beta, *_ = np.linalg.lstsq(A, y / sigma, rcond=None)
    got, sig = by_name(res)
    assert got["slope"] == pytest.approx(beta[0], rel=1e-7)
    assert got["offset"] == pytest.approx(beta[1], abs=1e-6)
    cov = np.linalg.inv(A.T @ A) * res.chi2_reduced
    assert sig["slope"] == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-4)
    assert sig["offset"] == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-4)
    assert res.converged
    assert 0.5 < res.chi2_reduced < 1.5
    # the undamped closing trial lands on the linear optimum
    assert res.stop_reason == "gain"
    assert json.loads(res.to_json())["stop_reason"] == "gain"


def test_log_scale_recovery_and_sigma_mapping():
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 1.0, 80)
    truth_a, truth_k = 3.0e6, 4.0
    sigma = 0.01 * truth_a * np.exp(-truth_k * t)
    y = truth_a * np.exp(-truth_k * t) + sigma * rng.standard_normal(len(t))

    def residual(v):
        return v[0] * np.exp(-v[1] * t) - y

    res = minimize(FitProblem(
        residual_fn=residual,
        params=[FitParameter("amp", 1e6, 1e3, 1e9, "log"),
                FitParameter("rate", 1.0, 0.01, 100.0, "log")],
        data_weights=sigma))
    got, sig = by_name(res)
    assert got["amp"] == pytest.approx(truth_a, rel=0.01)
    assert got["rate"] == pytest.approx(truth_k, rel=0.01)
    # log-scale sigma is reported in parameter units, scaled by the value
    assert 0.0 < sig["amp"] < 0.05 * truth_a
    assert res.converged


def test_bounds_respected():
    x = np.linspace(0.0, 1.0, 20)
    y = 10.0 * x  # truth outside the allowed box

    def residual(v):
        return v[0] * x - y

    res = minimize(FitProblem(
        residual_fn=residual,
        params=[FitParameter("slope", 2.0, 0.1, 5.0, "linear")],
        data_weights=np.full_like(x, 0.1)))
    got, _ = by_name(res)
    assert got["slope"] == pytest.approx(5.0, rel=1e-12)


def test_domain_error_mid_search_is_rejected_step():
    x = np.linspace(0.0, 1.0, 25)
    y = 2.0 * x

    def residual(v):
        if v[0] > 3.0:
            raise ValueError("out of the model domain")
        return v[0] * x - y

    res = minimize(FitProblem(
        residual_fn=residual,
        params=[FitParameter("slope", 0.5, 0.0, 10.0, "linear")],
        data_weights=np.full_like(x, 0.1)))
    got, _ = by_name(res)
    assert got["slope"] == pytest.approx(2.0, rel=1e-6)
    assert res.converged


def test_rejected_trials_are_counted_in_the_log(monkeypatch):
    """Each log entry counts the trials its iteration rejected, those before
    an accepted one included; with the accepted entries they account for
    every trial point. Without a hook, the start and every trial point,
    rejected ones included, are one batch of n + 1 residual_fn calls."""
    x = np.linspace(0.0, 2.0, 30)
    y = np.exp(-3.0 * x)
    calls = [0]
    batches = []

    def residual(v):
        calls[0] += 1
        return np.exp(-v[0] * x) - y

    def counted_jacobian(batch_fn, u, **kwargs):
        def recorded(points):
            batches.append(len(points))
            return batch_fn(points)
        return numerical_jacobian(recorded, u, **kwargs)

    monkeypatch.setattr(fitting, "numerical_jacobian", counted_jacobian)
    # far from the rate 3: the first undamped-ish steps overshoot
    res = minimize(FitProblem(
        residual_fn=residual,
        params=[FitParameter("k", 10.0, 0.0, 100.0, "linear")],
        data_weights=np.full_like(x, 0.01)))
    log = res.convergence_log
    assert res.converged
    got, _ = by_name(res)
    assert got["k"] == pytest.approx(3.0, rel=1e-9)
    assert log[0]["accepted"] and log[0]["rejected"] >= 1
    # the start and each trial point with its one Jacobian point
    trials = sum(e["accepted"] + e["rejected"] for e in log)
    assert batches == [2] * (1 + trials)
    assert calls[0] == sum(batches)
    assert json.loads(res.to_json())["convergence_log"][0]["rejected"] == \
        log[0]["rejected"]


def test_stop_reason_names_the_rule(monkeypatch):
    """stop_reason for the simplex fallback and the iteration cap; the other
    reasons are checked beside the tests of their rules."""
    with np.errstate(invalid="ignore"):
        res = minimize(_wall_problem())
    assert res.stop_reason == "simplex"
    assert json.loads(res.to_json())["stop_reason"] == "simplex"
    monkeypatch.setattr(fitting, "_MAX_ITER", 1)
    x = np.linspace(0.0, 2.0, 30)
    res = minimize(FitProblem(
        residual_fn=lambda v: np.exp(-v[0] * x) - np.exp(-3.0 * x),
        params=[FitParameter("k", 10.0, 0.0, 100.0, "linear")],
        data_weights=np.full_like(x, 0.01)))
    assert not res.converged
    assert res.stop_reason == "max_iter"


def _identical_columns_problem():
    """Two parameters that enter only as their sum, from the same start:
    the Jacobian's two columns are bit for bit the same."""
    x = np.linspace(0.0, 1.0, 30)
    y = 2.0 * x + 0.5 + 0.05 * np.random.default_rng(3).standard_normal(30)
    return FitProblem(
        residual_fn=lambda v: (v[0] + v[1]) * x + 0.5 - y,
        params=[FitParameter("a", 1.0, -10.0, 10.0, "linear"),
                FitParameter("b", 1.0, -10.0, 10.0, "linear")],
        data_weights=np.full_like(x, 0.05))


def test_identical_jacobian_columns_never_stop_on_gain():
    """A singular normal matrix predicts no gain: no closing trial, whose
    undamped step would be singular, and the fit ends on the old rules."""
    problem = _identical_columns_problem()
    u = np.array([1.0, 1.0])
    _, jac = numerical_jacobian(
        lambda us: [problem.residual_fn(v) / problem.data_weights
                    for v in us], u, upper=np.full(2, np.inf))
    assert np.array_equal(jac[:, 0], jac[:, 1])
    hess = jac.T @ jac
    assert fitting._predicted_gain(hess, jac.T @ jac[:, 0],
                                   np.diag(hess).copy()) is None
    res = minimize(problem)
    assert res.converged
    assert res.method == "lm"
    assert res.stop_reason in ("step", "flat", "noise_floor", "stall")
    got, _ = by_name(res)
    assert got["a"] + got["b"] == pytest.approx(2.0, abs=0.1)


def _assert_same_fit(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.sigma, b.sigma)
    assert a.chi2_reduced == b.chi2_reduced
    assert a.n_points == b.n_points
    assert a.converged == b.converged
    assert a.method == b.method
    assert a.convergence_log == b.convergence_log


def test_batch_path_is_bitwise_the_plain_path(monkeypatch):
    """Each trial point and its Jacobian points are one prefetch call, and
    a prefetch changes no bit, nor the residual_fn calls: through a
    rejected trial (domain error), a coordinate pinned at its upper bound
    (reversed Jacobian step) and the final covariance."""
    x = np.linspace(0.0, 1.0, 25)
    y = 2.5 * x + 1.2 ** 3 * x ** 2 + 0.05 * np.sin(40.0 * x)
    evaluated = []

    def residual(v):
        evaluated.append(np.array(v))
        if v[1] > 2.0:
            raise ValueError("out of the model domain")
        return v[0] * x + v[1] ** 3 * x ** 2 - y

    calls = []

    def prefetch(vecs):
        calls.append([np.array(v) for v in vecs])

    def problem(prefetch_fn):
        # the slope's optimum (2.5) lies beyond its upper bound
        return FitProblem(
            residual_fn=residual,
            params=[FitParameter("a", 0.5, 0.0, 2.0, "linear"),
                    FitParameter("b", 0.2, -10.0, 10.0, "linear")],
            data_weights=np.full_like(x, 0.1), prefetch=prefetch_fn)

    jacobians = [0]

    def counted_jacobian(*args, **kwargs):
        jacobians[0] += 1
        return numerical_jacobian(*args, **kwargs)

    monkeypatch.setattr(fitting, "numerical_jacobian", counted_jacobian)
    plain = minimize(problem(None))
    plain_jacobians, plain_evaluated = jacobians[0], evaluated[:]
    jacobians[0] = 0
    evaluated.clear()
    prefetched = minimize(problem(prefetch))

    _assert_same_fit(prefetched, plain)
    assert plain.converged and plain.method == "lm"
    got, _ = by_name(plain)
    assert got["a"] == 2.0
    # one call at the start and one per trial point, each with the point
    # and its two Jacobian points, and one Jacobian per call
    trials = sum(e["accepted"] + e["rejected"]
                 for e in prefetched.convergence_log)
    assert len(calls) == 1 + trials
    assert jacobians[0] == plain_jacobians == len(calls)
    assert all(len(points) == 3 for points in calls)
    # residual_fn then runs on exactly the prefetched points, in order,
    # as often as without the prefetch
    assert len(evaluated) == len(plain_evaluated) == 3 * len(calls)
    np.testing.assert_array_equal(evaluated, plain_evaluated)
    np.testing.assert_array_equal(
        evaluated, [v for points in calls for v in points])
    rejected = [points for points in calls if points[0][1] > 2.0]
    assert rejected
    assert any(points[1][0] < points[0][0] == 2.0 for points in calls)


def test_invalid_start_raises():
    def residual(v):
        raise ValueError("nothing works here")

    with pytest.raises(ValueError):
        minimize(FitProblem(
            residual_fn=residual,
            params=[FitParameter("p", 1.0, 0.0, 2.0, "linear")],
            data_weights=np.ones(5)))


def test_invalid_start_raises_through_batch_hook():
    def residual(v):
        raise ValueError("nothing works here")

    calls = []

    with pytest.raises(ValueError, match="nothing works here"):
        minimize(FitProblem(
            residual_fn=residual,
            params=[FitParameter("p", 1.0, 0.0, 2.0, "linear")],
            data_weights=np.ones(5), prefetch=calls.append))
    # the start and its Jacobian point were prefetched, and the model's own
    # error still reaches the caller
    assert [len(vecs) for vecs in calls] == [2]


def test_no_free_parameters_raises():
    with pytest.raises(FitError):
        minimize(FitProblem(
            residual_fn=lambda v: np.zeros(3),
            params=[],
            data_weights=np.ones(3)))


def test_nonpositive_dof_raises():
    with pytest.raises(FitError):
        minimize(FitProblem(
            residual_fn=lambda v: np.array([v[0] - 1.0, v[1] - 2.0]),
            params=[FitParameter("a", 1.0, -9.0, 9.0, "linear"),
                    FitParameter("b", 1.0, -9.0, 9.0, "linear")],
            data_weights=np.ones(2)))


def test_singular_normal_equations_handled_by_damping():
    x = np.linspace(0.0, 1.0, 20)
    y = 2.0 * x

    def residual(v):
        # second parameter has no effect: singular normal equations
        return v[0] * x - y

    res = minimize(FitProblem(
        residual_fn=residual,
        params=[FitParameter("slope", 1.0, -10.0, 10.0, "linear"),
                FitParameter("ghost", 1.0, -10.0, 10.0, "linear")],
        data_weights=np.full_like(x, 0.1)))
    assert res.converged
    got, sig = by_name(res)
    assert got["slope"] == pytest.approx(2.0, rel=1e-9)
    assert got["ghost"] == 1.0
    # the data cannot move it: no finite uncertainty
    assert sig["ghost"] == math.inf
    assert math.isfinite(sig["slope"])


def _wall_problem(slope=1.0):
    """NaN for v[1] above 1: the forward jacobian step lands on the wall at
    the starting point, forcing the derivative-free fallback."""
    x = np.linspace(0.0, 1.0, 20)
    y = 2.0 * x

    def residual(v):
        return v[0] * x - y + 0.0 * np.sqrt(1.0 - v[1])

    return FitProblem(
        residual_fn=residual,
        params=[FitParameter("slope", slope, -10.0, 10.0, "linear"),
                FitParameter("wall", 1.0, -10.0, 10.0, "linear")],
        data_weights=np.full_like(x, 0.1))


def test_noise_floor_rejection_ends_the_fit(monkeypatch):
    """At the optimum, evaluation noise alone rejects a trial whose predicted
    gain is below chi2's rounding: the fit stops there, converged, instead
    of raising the damping through more such trials. The closing trial,
    which ends this fit first, is switched off to reach that rule, and the
    damping starts at 1e-3: from 1e-4 its fourth accepted step is below
    1e-9 and ends the fit before any trial is rejected."""
    x = np.linspace(0.0, 1.0, 40)
    y = 1.7 * x + 0.3 + 0.01 * np.sin(17.0 * x)

    def residual(v):
        # noise far below the data scatter and far above chi2's rounding,
        # drawn from the parameter bits
        noise = 1e-11 * (zlib.crc32(np.asarray(v).tobytes()) / 2.0 ** 32
                         - 0.5)
        return v[0] * x + v[1] - y + noise

    def fit():
        return minimize(FitProblem(
            residual_fn=residual,
            params=[FitParameter("a", 1.0, 0.0, 5.0, "linear"),
                    FitParameter("b", 0.0, -5.0, 5.0, "linear")],
            data_weights=np.full_like(x, 0.01)))

    default = fit()
    monkeypatch.setattr(fitting, "_GAIN_STOP", 0.0)
    monkeypatch.setattr(fitting, "_DAMPING_START", 1e-3)
    res = fit()
    log = res.convergence_log
    assert res.converged
    assert [e["accepted"] for e in log] == [True] * (len(log) - 1) + [False]
    assert log[-1]["damping"] == log[-2]["damping"]
    exact = np.polyfit(x, y, 1)
    assert res.values == pytest.approx(exact, rel=1e-9)
    assert res.stop_reason == "noise_floor"
    assert log[-1]["rejected"] == 1
    # on the default path the closing trial ends the fit at the same point
    assert default.converged
    assert default.stop_reason == "gain"
    assert default.values == pytest.approx(res.values, rel=1e-9)


def test_nan_jacobian_falls_back_to_simplex():
    with np.errstate(invalid="ignore"):
        res = minimize(_wall_problem())
    assert res.method == "lm+simplex"
    assert res.converged
    got, _ = by_name(res)
    assert got["slope"] == pytest.approx(2.0, rel=1e-3)


def test_simplex_leaves_an_upper_bound():
    # slope starts on its upper bound: the fallback must still move it in
    with np.errstate(invalid="ignore"):
        res = minimize(_wall_problem(slope=10.0))
    assert res.method == "lm+simplex"
    assert res.converged
    got, _ = by_name(res)
    assert got["slope"] == pytest.approx(2.0, rel=1e-3)


def test_simplex_cap_reports_no_convergence(monkeypatch):
    monkeypatch.setattr(fitting, "_SIMPLEX_MAX_EVALS", 10)
    problem = _wall_problem()
    start = problem.residual_fn(np.array([1.0, 1.0])) / problem.data_weights
    with np.errstate(invalid="ignore"):
        res = minimize(problem)
    assert res.method == "lm+simplex"
    assert not res.converged
    assert json.loads(res.to_json())["converged"] is False
    # the best point of the capped search, better than the start
    assert res.convergence_log[-1]["chi2"] < float(start @ start)


def test_numerical_jacobian_quadratic():
    def fn(u):
        return np.array([u[0] ** 2 + 3.0 * u[1], u[1] ** 2])

    u = np.array([2.0, 5.0])
    f, jac = numerical_jacobian(lambda us: [fn(v) for v in us], u,
                                upper=np.array([np.inf, np.inf]))
    np.testing.assert_array_equal(f, fn(u))
    assert jac[0, 0] == pytest.approx(4.0, rel=1e-5)
    assert jac[0, 1] == pytest.approx(3.0, rel=1e-5)
    assert jac[1, 0] == pytest.approx(0.0, abs=1e-6)
    assert jac[1, 1] == pytest.approx(10.0, rel=1e-5)


def test_numerical_jacobian_reverses_at_bound():
    def fn(u):
        if u[0] > 1.0:
            raise AssertionError("stepped over the upper bound")
        return np.array([u[0] ** 2])

    u = np.array([1.0])
    _, jac = numerical_jacobian(lambda us: [fn(v) for v in us], u,
                                upper=np.array([1.0]))
    assert jac[0, 0] == pytest.approx(2.0, rel=1e-4)


def test_fit_result_json_round_trip():
    res = FitResult(names=("a", "b"), values=np.array([1.0, 2.0]),
                    sigma=np.array([0.1, 0.2]), chi2_reduced=1.1, n_points=9,
                    convergence_log=[{"iteration": 0, "chi2": 3.0,
                                      "damping": 1e-3, "accepted": True}],
                    converged=True)
    blob = json.loads(res.to_json())
    assert blob["parameters"] == ["a", "b"]
    assert blob["values"] == [1.0, 2.0]
    assert blob["converged"] is True
    assert blob["chi2_reduced"] == pytest.approx(1.1)


def test_unit_class_table_cached_and_consistent():
    def unit():
        return DistributionParams(n_tot=1.0, beta=3.26, epsilon_s=0.25,
                                  g_min=1e-3, g_max=1e3, n_classes=7)

    a = _unit_bins(unit())
    b = _unit_bins(unit())
    assert a is b
    g_ref = [0.00268269579528, 0.0193069772888, 0.138949549437, 1.0,
             7.19685673001, 51.7947467923, 372.759372031]
    frac_ref = [0.0247873190144, 0.177910677483, 0.693177649872,
                0.0988933253956, 0.00121679936352, 1.40644476084e-5,
                1.62547351358e-7]
    for (g, frac), gr, fr in zip(a, g_ref, frac_ref):
        assert g == pytest.approx(gr, rel=1e-11)
        assert frac == pytest.approx(fr, rel=1e-9)


_SMOKE_N_TOTS = (8e7, 1.2e8)


def _smoke_fit(cfg, cavity):
    """Two noisy 10 ms traces and their joint fit: (traces, result)."""
    t_data = np.linspace(0.0, 0.01, 101)
    rng = np.random.default_rng(12)
    traces = []
    for n_tot in _SMOKE_N_TOTS:
        classes = cfg.trace_classes(n_tot=n_tot)
        traj = evolve_ringdown(1e12, classes, cavity, 0.01, 1500,
                               verify=False)
        n_model = np.exp(np.interp(t_data, traj.times, np.log(traj.n)))
        n_model[1:] *= 1.0 + 0.01 * rng.standard_normal(len(t_data) - 1)
        traces.append((t_data, n_model))

    res = joint_tls_fit(
        traces,
        shared={"t2_star": 2.5e-7, "beta": 3.26, "epsilon_s": 0.25},
        per_trace=[1e8, 1e8],
        cavity=cavity,
        m_steps=800)
    return traces, res


@pytest.fixture(scope="module")
def smoke_fit(cfg, cavity):
    return _smoke_fit(cfg, cavity)


def test_joint_fit_two_traces_smoke(smoke_fit, cavity):
    traces, res = smoke_fit
    t_data = traces[0][0]
    n_tots = _SMOKE_N_TOTS
    got, sig = by_name(res)
    # two short traces constrain the overall scale but not every shape
    # parameter; demand consistency rather than tight recovery
    assert res.converged
    for i, n_tot in enumerate(n_tots):
        key = "n_tot_%d" % i
        pull = abs(got[key] - n_tot) / max(sig[key], 1.0)
        assert pull < 3.0
    # the model kappa returned with the fit is the optimum's own curve
    classes = sample_classes(
        DistributionParams(n_tot=got["n_tot_1"], beta=got["beta"],
                           epsilon_s=got["epsilon_s"], g_min=1e-3,
                           g_max=1e3, n_classes=7),
        omega_tls=cavity.omega0, t2_star=got["t2_star"])
    traj = evolve_ringdown(traces[1][1][0], classes, cavity, t_data[-1], 800,
                           verify=False)
    ln_n = np.log(traj.n)
    t_k = t_data[1:]
    model = -(np.interp(t_k, traj.times, ln_n) - ln_n[0]) / t_k
    assert len(res.curves) == 2
    np.testing.assert_array_equal(res.curves[1][2], model)


def test_joint_fit_batch_hook_changes_no_bit(smoke_fit, cfg, cavity,
                                             monkeypatch):
    """The smoke fit through its prefetch (one lockstep batch per trial
    point and its Jacobian) equals the same fit without it, where each
    residual_fn call evolves its own cache misses."""
    _, batched = smoke_fit
    one_point = fitting.minimize

    def without_prefetch(problem):
        assert problem.prefetch is not None
        problem.prefetch = None
        return one_point(problem)

    monkeypatch.setattr(fitting, "minimize", without_prefetch)
    _, plain = _smoke_fit(cfg, cavity)
    _assert_same_fit(batched, plain)
    assert len(batched.curves) == len(plain.curves) == 2
    for a, b in zip(batched.curves, plain.curves):
        assert np.array_equal(a[2], b[2])


def test_joint_fit_input_validation(cavity):
    t = np.linspace(0.0, 0.01, 50)
    good = (t, np.exp(-500.0 * t) * 1e10 + 1.0)
    with pytest.raises(FitError):
        joint_tls_fit([], {"t2_star": 2.86e-7, "beta": 3.26,
                           "epsilon_s": 0.25}, [], cavity)
    with pytest.raises(FitError):
        joint_tls_fit([good], {"t2_star": 2.86e-7, "beta": 3.26,
                               "epsilon_s": 0.25}, [1e8, 1e8], cavity)
    bad_t = (t + 1e-4, np.exp(-500.0 * t) * 1e10 + 1.0)
    with pytest.raises(FitError):
        joint_tls_fit([bad_t], {"t2_star": 2.86e-7, "beta": 3.26,
                                "epsilon_s": 0.25}, [1e8], cavity)


class _Captured(Exception):
    pass


def _joint_fit_problem(cfg, cavity, monkeypatch):
    """The FitProblem joint_tls_fit builds for two short traces, with its
    own empty model cache."""
    t_data = np.linspace(0.0, 0.01, 101)
    traces = []
    for n_tot, n0 in ((8e7, 1e12), (1.2e8, 3e11)):
        traj = evolve_ringdown(n0, cfg.trace_classes(n_tot=n_tot), cavity,
                               0.01, 1500, verify=False)
        traces.append((t_data, np.exp(np.interp(t_data, traj.times,
                                                np.log(traj.n)))))
    captured = []

    def capture(problem):
        captured.append(problem)
        raise _Captured

    monkeypatch.setattr(fitting, "minimize", capture)
    with pytest.raises(_Captured):
        joint_tls_fit(traces, shared={"t2_star": 2.5e-7, "beta": 3.26,
                                      "epsilon_s": 0.25},
                      per_trace=[1e8, 1e8], cavity=cavity, m_steps=800)
    return captured[0]


def _counted_tables(monkeypatch):
    """A list that grows by one entry, the row count, per
    dynamics.evolve_table call."""
    calls = []
    evolve_table = fitting.dynamics.evolve_table

    def counted(table, cavity, n0, *args, **kwargs):
        calls.append(len(n0))
        return evolve_table(table, cavity, n0, *args, **kwargs)

    monkeypatch.setattr(fitting.dynamics, "evolve_table", counted)
    return calls


def test_joint_fit_batched_jacobian_bitwise(cfg, cavity, monkeypatch):
    """The Jacobian from one prefetch equals the point-by-point one bit for
    bit, a column reversed at its upper bound included; the prefetch runs
    the point's and the Jacobian's rows in one lockstep loop."""
    batched = _joint_fit_problem(cfg, cavity, monkeypatch)
    single = _joint_fit_problem(cfg, cavity, monkeypatch)
    u = np.array([p.value for p in batched.params])
    upper = np.full(len(u), np.inf)
    upper[4] = u[4]  # n_tot_1 at its bound: its step is reversed

    def prefetched(us):
        batched.prefetch(us)
        return [batched.residual_fn(v) for v in us]

    tables = _counted_tables(monkeypatch)
    f_batch, jac_batch = numerical_jacobian(prefetched, u, upper=upper)
    # the point's 2 rows, 2 for each shared parameter and 1 per n_tot
    assert tables == [10]
    f_single, jac_single = numerical_jacobian(
        lambda us: [single.residual_fn(v) for v in us], u, upper=upper)
    assert tables == [10, 2, 2, 2, 2, 1, 1]
    assert np.all(np.isfinite(jac_batch))
    np.testing.assert_array_equal(f_batch, f_single)
    np.testing.assert_array_equal(jac_batch, jac_single)
    # the reversed column still points the right way: more TLS, more loss
    assert np.all(jac_batch[100:, 4] >= 0.0)


def test_joint_fit_batch_failing_row_is_nan(cfg, cavity, monkeypatch):
    """A row that fails in a prefetch is cached with its exception:
    residual_fn raises it, one of the errors that make minimize's row NaN,
    without evolving it again, and the other rows are those of a fresh
    model cache."""
    problem = _joint_fit_problem(cfg, cavity, monkeypatch)
    good = np.array([p.value for p in problem.params])
    other = good.copy()
    other[2] = 0.3
    bad = good.copy()
    bad[0] = 2e-6  # 10 T2* exceeds the 800-step grid's dt: window error
    tables = _counted_tables(monkeypatch)
    problem.prefetch([good, bad, other])
    assert tables == [6]
    rows = [problem.residual_fn(good), problem.residual_fn(other)]
    with pytest.raises(fitting._REJECTED, match="below the Markovian "
                                                "window"):
        problem.residual_fn(bad)
    assert tables == [6]
    fresh = _joint_fit_problem(cfg, cavity, monkeypatch)
    np.testing.assert_array_equal(rows[0], fresh.residual_fn(good))
    np.testing.assert_array_equal(rows[1], fresh.residual_fn(other))
    assert rows[0].shape == (200,)
    with pytest.raises(ValueError, match="below the Markovian window"):
        fresh.residual_fn(bad)


def test_temperature_fit_curves_are_the_models_at_the_fit(
        cavity, sweep_classes, superconductor):
    """Each curve's model is the model at the fitted values, built as a
    fresh superconductor and class list (the shift with the fitted
    sigma_n)."""
    sc = superconductor
    t_f = np.linspace(0.8, 2.2, 9)
    t_q = np.linspace(0.05, 3.5, 11)
    shifts = freq_shift(t_f, sc, cavity.omega0)
    qs = q_int_temperature(t_q, sc, sweep_classes, cavity)
    rng = np.random.default_rng(8)
    sig_f = 0.01 * np.abs(shifts) + 1e-8 * np.max(np.abs(shifts))
    shifts_n = shifts + sig_f * rng.standard_normal(len(t_f))
    qs_n = qs * (1.0 + 0.01 * rng.standard_normal(len(t_q)))
    res = temperature_fit(
        (t_f, shifts_n, sig_f), (t_q, qs_n, 0.01 * qs),
        replace(sc, alpha=2e-5, delta0=sc.delta0 * 1.3, sigma_n=1e7),
        with_times(sweep_classes, 1e-6, 3e-7), cavity)
    got, _ = by_name(res)
    best = SuperconductorParams(delta0=got["delta0"], sigma_n=got["sigma_n"],
                                alpha=got["alpha"], g_factor=sc.g_factor)
    classes = with_times(sweep_classes, got["t1"], got["t_phi"])
    (xf, df, mf), (xq, dq, mq) = res.curves
    assert np.array_equal(xf, t_f) and np.array_equal(df, shifts_n)
    assert np.array_equal(xq, t_q) and np.array_equal(dq, qs_n)
    assert np.array_equal(mf, freq_shift(t_f, best, cavity.omega0))
    assert np.array_equal(mq, q_int_temperature(t_q, best, classes, cavity))


def _two_traces(cfg, cavity):
    """a07's problem cut to two traces, 5e13 and 1.6e12 photons."""
    t_data = np.linspace(0.0, 0.022, 301)
    rng = np.random.default_rng(2)
    traces = []
    for n0, n_tot in ((5e13, 1.17e8), (5e13 * 10.0 ** -1.5, 1.18e8)):
        traj = evolve_ringdown(n0, cfg.trace_classes(n_tot=n_tot), cavity,
                               0.022, 1000, verify=False)
        n = np.exp(np.interp(t_data, traj.times, np.log(traj.n)))
        n[1:] *= 1.0 + 0.01 * rng.standard_normal(len(t_data) - 1)
        traces.append((t_data, n))
    return traces


_TWO_TRACE_START = {"t2_star": 2.5e-7, "beta": 3.0, "epsilon_s": 0.3}


def _two_trace_fit(cfg, cavity, gain_stop):
    """The two-trace fit at m = 250: (result, dynamics._evolve calls) with
    _GAIN_STOP pinned."""
    traces = _two_traces(cfg, cavity)
    calls = [0]
    evolve = fitting.dynamics._evolve

    def counted(*args, **kwargs):
        calls[0] += 1
        return evolve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "_GAIN_STOP", gain_stop)
        patch.setattr(fitting.dynamics, "_evolve", counted)
        res = joint_tls_fit(traces, shared=_TWO_TRACE_START,
                            per_trace=[1e8, 1e8], cavity=cavity,
                            m_steps=250)
    return res, calls[0]


def test_joint_fit_closing_trial_saves_evolutions(cfg, cavity):
    """The closing trial ends a two-trace joint fit in no more lockstep
    loops than the old rules, within 0.01 sigma of where they end it."""
    res, evolutions = _two_trace_fit(cfg, cavity, fitting._GAIN_STOP)
    old, old_evolutions = _two_trace_fit(cfg, cavity, 0.0)
    assert res.converged and old.converged
    assert res.stop_reason == "gain"
    assert old.stop_reason != "gain"
    assert evolutions <= old_evolutions
    assert np.all(np.abs(res.values - old.values) <= 0.01 * old.sigma)
    assert res.chi2_reduced <= old.chi2_reduced + 1e-6


def test_joint_fit_start_damping_saves_loops(a07_traces, cavity):
    """From a07's start at m = 250, the damping's start at
    _DAMPING_START = 1e-4 ends the ten-trace fit in fewer lockstep loops
    than Marquardt's 1e-3 (7 against 9), within 0.01 sigma of where 1e-3
    ends it and with chi2_red at most 1e-6 above."""
    evolve = fitting.dynamics._evolve

    def fit(damping_start):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return evolve(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitting, "_DAMPING_START", damping_start)
            patch.setattr(fitting.dynamics, "_evolve", counted)
            res = joint_tls_fit(a07_traces, shared=_TWO_TRACE_START,
                                per_trace=[1e8] * 10, cavity=cavity,
                                m_steps=250)
        return res, calls[0]

    res, loops = fit(fitting._DAMPING_START)
    old, old_loops = fit(1e-3)
    assert fitting._DAMPING_START == 1e-4
    assert res.converged and old.converged
    assert loops < old_loops
    assert np.all(np.abs(res.values - old.values) <= 0.01 * old.sigma)
    assert res.chi2_reduced <= old.chi2_reduced + 1e-6


def test_joint_fit_start_check_rides_in_the_first_loop(cfg, cavity,
                                                       monkeypatch):
    """The step check at the start point is one more column of the first
    lockstep loop: that loop makes one _evolve call, with trace 0's twin
    at 2h beside the point's and the Jacobian's rows."""
    calls = []
    evolve, evolve_table = fitting.dynamics._evolve, \
        fitting.dynamics.evolve_table

    class FirstLoopDone(Exception):
        pass

    def logged(table, cavity, n0, *args):
        calls.append((len(n0), args[-1]))
        return evolve(table, cavity, n0, *args)

    def first_loop(table, cavity, n0, *args, verify, **kwargs):
        got = evolve_table(table, cavity, n0, *args, verify=verify,
                           **kwargs)
        raise FirstLoopDone(len(n0), list(verify), got)

    traces = _two_traces(cfg, cavity)
    monkeypatch.setattr(fitting.dynamics, "_evolve", logged)
    monkeypatch.setattr(fitting.dynamics, "evolve_table", first_loop)
    with pytest.raises(FirstLoopDone) as done:
        joint_tls_fit(traces, shared=_TWO_TRACE_START,
                      per_trace=[1e8, 1e8], cavity=cavity, m_steps=250)
    rows, verify, got = done.value.args
    # the point and the Jacobian: 2 + 3 * 2 + 2 rows, trace 0 verified
    assert rows == 10 and verify == [True] + [False] * 9
    assert calls == [(rows + 1, 1)]
    assert not any(isinstance(traj, Exception) for traj in got)


def test_temperature_fit_closing_trial_saves_evaluations(
        cavity, sweep_classes, superconductor):
    """Both temperature-fit stages make no more residual evaluations than
    with the closing trial switched off, and the result names both stages'
    stop reasons."""
    sc = superconductor
    t_f = np.linspace(0.8, 2.2, 9)
    t_q = np.linspace(0.05, 3.5, 11)
    shifts = freq_shift(t_f, sc, cavity.omega0)
    qs = q_int_temperature(t_q, sc, sweep_classes, cavity)
    rng = np.random.default_rng(8)
    sig_f = 0.01 * np.abs(shifts) + 1e-8 * np.max(np.abs(shifts))
    shifts_n = shifts + sig_f * rng.standard_normal(len(t_f))
    qs_n = qs * (1.0 + 0.01 * rng.standard_normal(len(t_q)))
    one_fit = fitting.minimize

    def fit(gain_stop):
        calls = [0]

        def counted_minimize(problem):
            inner = problem.residual_fn

            def counted(vec):
                calls[0] += 1
                return inner(vec)

            problem.residual_fn = counted
            return one_fit(problem)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitting, "_GAIN_STOP", gain_stop)
            patch.setattr(fitting, "minimize", counted_minimize)
            res = temperature_fit(
                (t_f, shifts_n, sig_f), (t_q, qs_n, 0.01 * qs),
                replace(sc, alpha=2e-5, delta0=sc.delta0 * 1.3,
                        sigma_n=1e7),
                with_times(sweep_classes, 1e-6, 3e-7), cavity)
        return res, calls[0]

    res, evaluations = fit(fitting._GAIN_STOP)
    old, old_evaluations = fit(0.0)
    assert res.converged and old.converged
    assert evaluations <= old_evaluations
    stages = res.stop_reason.split(",")
    assert len(stages) == 2 and "gain" in stages
    assert json.loads(res.to_json())["stop_reason"] == res.stop_reason
    assert np.all(np.abs(res.values - old.values) <= 0.01 * old.sigma)


def test_joint_fit_batch_all_refused_point_is_nan(cfg, cavity, monkeypatch):
    # beta <= 1: the sampler refuses every row of the point, so its
    # lockstep group has no row to run; residual_fn raises an error that
    # rejects the trial point
    problem = _joint_fit_problem(cfg, cavity, monkeypatch)
    refused = np.array([p.value for p in problem.params])
    refused[1] = 0.9
    tables = _counted_tables(monkeypatch)
    problem.prefetch([refused])
    with pytest.raises(fitting._REJECTED, match="beta must be > 1"):
        problem.residual_fn(refused)
    assert tables == []
