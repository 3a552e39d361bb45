import json
import math

import numpy as np
import pytest

from tlscavity import (DistributionParams, FitError, FitParameter,
                       FitProblem, FitResult, evolve_ringdown, joint_tls_fit,
                       minimize, numerical_jacobian, rolling_sigma,
                       sample_classes)
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
    assert res.values_dict["slope"] == pytest.approx(beta[0], rel=1e-7)
    assert res.values_dict["offset"] == pytest.approx(beta[1], abs=1e-6)
    cov = np.linalg.inv(A.T @ A) * res.chi2_reduced
    assert res.sigma_dict["slope"] == pytest.approx(math.sqrt(cov[0, 0]),
                                                    rel=1e-4)
    assert res.sigma_dict["offset"] == pytest.approx(math.sqrt(cov[1, 1]),
                                                     rel=1e-4)
    assert res.converged
    assert 0.5 < res.chi2_reduced < 1.5


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
    assert res.values_dict["amp"] == pytest.approx(truth_a, rel=0.01)
    assert res.values_dict["rate"] == pytest.approx(truth_k, rel=0.01)
    # log-scale sigma is reported in parameter units, scaled by the value
    assert 0.0 < res.sigma_dict["amp"] < 0.05 * truth_a
    assert res.converged


def test_frozen_parameter_stays_put():
    x = np.linspace(0.0, 10.0, 30)
    y = 2.0 * x + 5.0

    def residual(v):
        return v[0] * x + v[1] - y

    res = minimize(FitProblem(
        residual_fn=residual,
        params=[FitParameter("slope", 1.0, -100.0, 100.0, "linear"),
                FitParameter("offset", 5.0, -100.0, 100.0, "linear",
                             frozen=True)],
        data_weights=np.full_like(x, 0.1)))
    assert res.values_dict["offset"] == 5.0
    assert res.sigma_dict["offset"] == 0.0
    assert res.values_dict["slope"] == pytest.approx(2.0, rel=1e-9)


def test_bounds_respected():
    x = np.linspace(0.0, 1.0, 20)
    y = 10.0 * x  # truth outside the allowed box

    def residual(v):
        return v[0] * x - y

    res = minimize(FitProblem(
        residual_fn=residual,
        params=[FitParameter("slope", 2.0, 0.1, 5.0, "linear")],
        data_weights=np.full_like(x, 0.1)))
    assert res.values_dict["slope"] == pytest.approx(5.0, rel=1e-12)


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
    assert res.values_dict["slope"] == pytest.approx(2.0, rel=1e-6)
    assert res.converged


def _assert_same_fit(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.sigma, b.sigma)
    assert a.chi2_reduced == b.chi2_reduced
    assert a.n_points == b.n_points
    assert a.converged == b.converged
    assert a.method == b.method
    assert a.convergence_log == b.convergence_log


def test_batch_path_is_bitwise_the_plain_path(monkeypatch):
    """With residual_batch_fn, each trial point and its Jacobian are one
    batch call, and the fit is the one-point fit bit for bit: through a
    rejected trial (domain error), a coordinate pinned at its upper bound
    (reversed Jacobian step) and the final covariance."""
    x = np.linspace(0.0, 1.0, 25)
    y = 2.5 * x + 1.2 ** 3 * x ** 2 + 0.05 * np.sin(40.0 * x)

    def residual(v):
        if v[1] > 2.0:
            raise ValueError("out of the model domain")
        return v[0] * x + v[1] ** 3 * x ** 2 - y

    calls = []

    def residual_batch(vecs):
        calls.append([np.array(v) for v in vecs])
        out = np.empty((len(vecs), len(x)))
        for i, v in enumerate(vecs):
            try:
                out[i] = residual(v)
            except ValueError:
                out[i] = np.nan
        return out

    def problem(batch_fn):
        # the slope's optimum (2.5) lies beyond its upper bound
        return FitProblem(
            residual_fn=residual,
            params=[FitParameter("a", 0.5, 0.0, 2.0, "linear"),
                    FitParameter("b", 0.2, -10.0, 10.0, "linear")],
            data_weights=np.full_like(x, 0.1), residual_batch_fn=batch_fn)

    plain_calls = [0]
    jacobians = [0]

    def counted(v):
        plain_calls[0] += 1
        return residual(v)

    def counted_jacobian(*args, **kwargs):
        jacobians[0] += 1
        return numerical_jacobian(*args, **kwargs)

    plain_problem = problem(None)
    plain_problem.residual_fn = counted
    monkeypatch.setattr(fitting, "numerical_jacobian", counted_jacobian)
    plain = minimize(plain_problem)
    # the start, the trial points, two points per Jacobian
    trials = plain_calls[0] - 1 - 2 * jacobians[0]
    jacobians[0] = 0
    batched = minimize(problem(residual_batch))

    _assert_same_fit(batched, plain)
    assert plain.converged and plain.method == "lm"
    assert plain.values_dict["a"] == 2.0
    # one call at the start and one per trial point, each with the point
    # and its two Jacobian points, and one Jacobian per call
    assert len(calls) == 1 + trials
    assert jacobians[0] == len(calls)
    assert all(len(points) == 3 for points in calls)
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

    def residual_batch(vecs):
        # the hook reports failed rows as NaN; the model's own error must
        # still reach the caller
        return np.full((len(vecs), 5), np.nan)

    with pytest.raises(ValueError, match="nothing works here"):
        minimize(FitProblem(
            residual_fn=residual,
            params=[FitParameter("p", 1.0, 0.0, 2.0, "linear")],
            data_weights=np.ones(5), residual_batch_fn=residual_batch))


def test_no_free_parameters_raises():
    with pytest.raises(FitError):
        minimize(FitProblem(
            residual_fn=lambda v: np.zeros(3),
            params=[FitParameter("p", 1.0, 0.0, 2.0, "linear", frozen=True)],
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
    assert res.values_dict["slope"] == pytest.approx(2.0, rel=1e-9)
    assert res.values_dict["ghost"] == 1.0
    # the data cannot move it: no finite uncertainty
    assert res.sigma_dict["ghost"] == math.inf
    assert math.isfinite(res.sigma_dict["slope"])


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


def test_nan_jacobian_falls_back_to_simplex():
    with np.errstate(invalid="ignore"):
        res = minimize(_wall_problem())
    assert res.method == "lm+simplex"
    assert res.converged
    assert res.values_dict["slope"] == pytest.approx(2.0, rel=1e-3)


def test_simplex_leaves_an_upper_bound():
    # slope starts on its upper bound: the fallback must still move it in
    with np.errstate(invalid="ignore"):
        res = minimize(_wall_problem(slope=10.0))
    assert res.method == "lm+simplex"
    assert res.converged
    assert res.values_dict["slope"] == pytest.approx(2.0, rel=1e-3)


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
    jac = numerical_jacobian(fn, u, upper=np.array([np.inf, np.inf]),
                             f0=fn(u))
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
    jac = numerical_jacobian(fn, u, upper=np.array([1.0]), f0=fn(u))
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


def test_rolling_sigma_scales_with_window():
    rng = np.random.default_rng(8)
    series = rng.standard_normal(4000)
    s50 = np.nanmedian(rolling_sigma(series, window=50))
    s200 = np.nanmedian(rolling_sigma(series, window=200))
    # sigma of the mean shrinks like 1/sqrt(window)
    assert s50 / s200 == pytest.approx(2.0, rel=0.2)


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
    got = res.values_dict
    # two short traces constrain the overall scale but not every shape
    # parameter; demand consistency rather than tight recovery
    assert res.converged
    for i, n_tot in enumerate(n_tots):
        key = "n_tot_%d" % i
        pull = abs(got[key] - n_tot) / max(res.sigma_dict[key], 1.0)
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
    assert len(res.model_kappa) == 2
    np.testing.assert_array_equal(res.model_kappa[1], model)


def test_joint_fit_batch_hook_changes_no_bit(smoke_fit, cfg, cavity,
                                             monkeypatch):
    """The smoke fit through residual_batch_fn (one batch per trial point
    and its Jacobian) equals the same fit without the hook."""
    _, batched = smoke_fit
    one_point = fitting.minimize

    def without_hook(problem):
        problem.residual_batch_fn = None
        return one_point(problem)

    monkeypatch.setattr(fitting, "minimize", without_hook)
    _, plain = _smoke_fit(cfg, cavity)
    _assert_same_fit(batched, plain)
    assert len(batched.model_kappa) == len(plain.model_kappa) == 2
    for a, b in zip(batched.model_kappa, plain.model_kappa):
        assert np.array_equal(a, b)


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


def test_joint_fit_batched_jacobian_bitwise(cfg, cavity, monkeypatch):
    """The one-batch Jacobian equals the column-by-column one bit for bit,
    a column reversed at its upper bound included."""
    batched = _joint_fit_problem(cfg, cavity, monkeypatch)
    single = _joint_fit_problem(cfg, cavity, monkeypatch)
    u = np.array([p.value for p in batched.params])
    upper = np.full(len(u), np.inf)
    upper[4] = u[4]  # n_tot_1 at its bound: its step is reversed
    jac_batch = numerical_jacobian(
        batched.residual_fn, u, upper=upper, f0=batched.residual_fn(u),
        batch_fn=batched.residual_batch_fn)
    jac_single = numerical_jacobian(
        single.residual_fn, u, upper=upper, f0=single.residual_fn(u))
    assert np.all(np.isfinite(jac_batch))
    np.testing.assert_array_equal(jac_batch, jac_single)
    # the reversed column still points the right way: more TLS, more loss
    assert np.all(jac_batch[100:, 4] >= 0.0)


def test_joint_fit_batch_failing_row_is_nan(cfg, cavity, monkeypatch):
    problem = _joint_fit_problem(cfg, cavity, monkeypatch)
    good = np.array([p.value for p in problem.params])
    other = good.copy()
    other[2] = 0.3
    bad = good.copy()
    bad[0] = 2e-6  # 10 T2* exceeds the 800-step grid's dt: window error
    rows = problem.residual_batch_fn([good, bad, other])
    assert rows.shape == (3, 200)
    assert np.all(np.isnan(rows[1]))
    # the other rows match the one-point residual of a fresh model cache
    fresh = _joint_fit_problem(cfg, cavity, monkeypatch)
    np.testing.assert_array_equal(rows[0], fresh.residual_fn(good))
    np.testing.assert_array_equal(rows[2], fresh.residual_fn(other))
    with pytest.raises(ValueError):
        fresh.residual_fn(bad)
