"""Bounded nonlinear weighted least squares plus the two model fits.

The solver is a damped Gauss-Newton (Levenberg-Marquardt) with numerical
forward-difference Jacobian, box bounds by step clipping, per-parameter
linear or logarithmic internal coordinates, and scipy's Nelder-Mead as the
fallback when the normal equations degenerate. The damping starts at
_DAMPING_START = 1e-4, a decade below Marquardt's 1e-3: on a sloppy fit
such as the joint ring-down fit a near start then moves along its sloppy
directions from the first iteration instead of spending accepted steps
dividing the damping down, while a far start typically pays one more
rejected trial. Steps are accepted only on a chi^2 decrease, so the
returned point is never worse than the start. NaN residuals reject the
step and raise the damping; a rejected step whose predicted gain is below
chi^2's rounding ends the fit. Once the Gauss-Newton optimum lies within
0.01 sigma of the current point (predicted gain g^T H^-1 g at most
_GAIN_STOP chi^2/dof, with H positive definite to _GAIN_MIN_PIVOT), the
iteration's first trial is the undamped step, once per fit; if accepted, it
ends the fit, and if rejected, the damped trials follow as before. Each
result names the rule that ended it in stop_reason.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import datafiles, dynamics, mattis_bardeen, tls_bath
from .distribution import sample_class_arrays
from .errors import (FitError, FitStartError, SaturationError,
                     StepConvergenceError)

# the damping of the first trial (see the module docstring); from 1e-5 down
# the joint fit's values on a07's draws move past 0.01 sigma
_DAMPING_START = 1e-4
_DAMPING_MIN = 1e-8
_DAMPING_MAX = 1e8
_MAX_ITER = 200
# closing-trial threshold on the predicted gain, in units of chi^2/dof: the
# Gauss-Newton optimum lies within sqrt(_GAIN_STOP) sigma
_GAIN_STOP = 1e-4
_JAC_REL_STEP = 1e-6
# smallest squared Cholesky pivot of the unit-diagonal normal matrix that
# counts as positive definite: a Jacobian column must stick out of the
# others' span by 1e-3 of its length, far above the 1e-6 resolution of a
# forward difference at _JAC_REL_STEP
_GAIN_MIN_PIVOT = 1e-6
_JAC_ABS_FLOOR = 1e-12
_SIMPLEX_MAX_EVALS = 4000
# Model failures at a trial point: the point is rejected (NaN residuals),
# not the fit.
_REJECTED = (ValueError, ArithmeticError, SaturationError,
             StepConvergenceError, np.linalg.LinAlgError)


@dataclass
class FitParameter:
    """One named fit parameter with bounds and coordinate scale.

    scale "log" optimizes ln(value) (requires positive bounds); "linear"
    optimizes the raw value. minimize fits every parameter it is given.
    """

    name: str
    value: float
    lower: float = -math.inf
    upper: float = math.inf
    scale: str = "log"

    def __post_init__(self):
        if self.scale not in ("log", "linear"):
            raise ValueError("scale must be 'log' or 'linear'")
        if not self.lower < self.upper:
            raise ValueError("parameter %s: lower must be < upper" % self.name)
        if not self.lower <= self.value <= self.upper:
            raise FitStartError("parameter %s: start %r outside bounds "
                                "[%r, %r]" % (self.name, float(self.value),
                                              float(self.lower),
                                              float(self.upper)))
        if self.scale == "log":
            if self.value <= 0:
                raise ValueError("parameter %s: log scale needs value > 0"
                                 % self.name)
            if self.lower <= 0:
                self.lower = 1e-300

    def to_internal(self, p):
        return math.log(p) if self.scale == "log" else p

    def from_internal(self, u):
        return math.exp(u) if self.scale == "log" else u


@dataclass
class FitProblem:
    """residual_fn maps a parameter vector (in the order of params) to the
    unweighted residual vector; data_weights are per-point 1 sigma.

    minimize evaluates each point together with all the points of its
    Jacobian, one residual_fn call each; a model failure with one of the
    errors a trial point is rejected for makes that row NaN. prefetch, if
    given, is called first with the list of those vectors and returns
    nothing, so that a model can evaluate them together; a vector's
    residual must not depend on the others it was prefetched with.
    """

    residual_fn: object
    params: list
    data_weights: np.ndarray
    prefetch: object = None

    def __post_init__(self):
        self.data_weights = np.asarray(self.data_weights, dtype=float)
        if np.any(self.data_weights <= 0):
            raise ValueError("data_weights must be positive 1 sigma values")


@dataclass
class FitResult:
    """Optimum, 1 sigma from the local covariance, and the iteration log.

    stop_reason : the rule that ended the fit, one of "gain" (the undamped
        closing trial was accepted), "step" (an accepted step below 1e-9
        relative), "flat" (three accepted steps each gaining under 1e-6 of
        chi^2), "noise_floor" (a rejected trial predicted to gain less than
        chi^2's rounding), "stall" (two iterations with every trial
        rejected), "simplex" (the Nelder-Mead fallback ran) or "max_iter";
        temperature_fit gives its two stages' reasons as "<stage 1>,<stage
        2>".
    convergence_log : one entry per iteration; "rejected" counts the trial
        points rejected in it, before the accepted one if any.
    curves : one (x, data, model) per data block, the model at the optimum
        on the data's own x; set by the model fits (joint_tls_fit,
        temperature_fit, reflection.fit_ringup), empty from minimize. Not
        part of to_json.
    """

    names: tuple
    values: np.ndarray
    sigma: np.ndarray
    chi2_reduced: float
    n_points: int
    convergence_log: list
    converged: bool
    method: str = "lm"
    stop_reason: str = ""
    curves: tuple = ()

    def __post_init__(self):
        if self.chi2_reduced < 0:
            raise ValueError("chi2_reduced must be >= 0")

    def to_json(self):
        return datafiles.json_text({
            "parameters": list(self.names),
            "values": [float(v) for v in self.values],
            "sigma": [float(s) for s in self.sigma],
            "chi2_reduced": float(self.chi2_reduced),
            "n_points": int(self.n_points),
            "converged": bool(self.converged),
            "method": self.method,
            "stop_reason": self.stop_reason,
            "convergence_log": self.convergence_log,
        }, indent=2)


def numerical_jacobian(batch_fn, u, *, upper):
    """(f(u), forward-difference Jacobian of f at u) from one batch_fn call,
    which maps the list of u and its len(u) step points to one row of f each.

    Steps are per-coordinate relative and reverse direction at an upper bound
    so step points stay feasible. A Jacobian whose differences raise a
    FloatingPointError is all NaN.
    """
    u = np.asarray(u, dtype=float)
    steps = _JAC_REL_STEP * np.abs(u) + _JAC_ABS_FLOOR
    steps[u + steps > upper] *= -1.0
    points = np.tile(u, (len(u), 1))
    np.fill_diagonal(points, u + steps)
    rows = np.asarray(batch_fn([u, *points]), dtype=float)
    try:
        jac = np.ascontiguousarray(((rows[1:] - rows[0]) / steps[:, None]).T)
    except FloatingPointError:
        jac = np.full((rows.shape[1], len(u)), np.nan)
    return rows[0], jac


def minimize(problem):
    """Weighted least squares over the parameters of the problem.

    Returns a FitResult; converged=False flags an iteration-cap stop at the
    best point found. Raises FitError only for an invalid starting point.
    A parameter with an all-zero Jacobian column at the optimum, which the
    data cannot move, gets sigma = inf.

    evaluate(u) -> (f, jac) takes every point with its Jacobian from one
    batch call; an accepted point's Jacobian is the next iteration's and the
    last one the covariance's. A non-finite Jacobian hands the fit to
    scipy's Nelder-Mead on the internal coordinates, which scores its points
    through the same batch call.
    """
    params = problem.params
    if not params:
        raise FitError("no parameters to fit")
    sigma = problem.data_weights

    def param_values(u):
        return np.array([p.from_internal(v) for p, v in zip(params, u)])

    def batch(us):
        """Weighted residual rows of the points us, NaN where the model
        failed at a trial point (which rejects the step)."""
        vecs = [param_values(v) for v in us]
        if problem.prefetch is not None:
            problem.prefetch(vecs)
        rows = np.empty((len(vecs), len(sigma)))
        for i, vec in enumerate(vecs):
            try:
                r = problem.residual_fn(vec)
            except _REJECTED:
                r = np.nan
            rows[i] = r
        return rows / sigma

    def evaluate(u):
        return numerical_jacobian(batch, u, upper=upper)

    def simplex(u, chi2):
        """scipy's Nelder-Mead from u: (best point, converged)."""
        # imported where used: it adds about 0.2 s to a cold start, and
        # only the fallback and fit circle need it
        import scipy.optimize

        def cost(v):
            r = batch([v])[0]
            c = float(r @ r)
            return c if math.isfinite(c) else math.inf

        # u and one vertex a step along each axis, unclipped: scipy reflects
        # a vertex past an upper bound inside instead of flattening the simplex
        vertices = np.vstack([u, u + np.diag(0.05 * (np.abs(u) + 0.1))])
        res = scipy.optimize.minimize(
            cost, u, method="Nelder-Mead",
            bounds=scipy.optimize.Bounds(lower, upper),
            options={"initial_simplex": vertices,
                     "maxfev": _SIMPLEX_MAX_EVALS, "fatol": 1e-14 * chi2,
                     "xatol": 1e-10})
        return res.x, bool(res.success)

    lower = np.array([p.to_internal(p.lower) for p in params])
    upper = np.array([p.to_internal(p.upper) for p in params])
    u = np.array([p.to_internal(p.value) for p in params])

    f, jac = evaluate(u)
    if not np.all(np.isfinite(f)):
        # a NaN row hides the model's own error: one residual_fn call
        # raises it
        problem.residual_fn(param_values(u))
        raise FitError("residuals not finite at the initial point")
    chi2 = float(f @ f)
    n_pts = len(f)
    dof = n_pts - len(params)
    if dof <= 0:
        raise FitError("degrees of freedom must be positive")

    lam = _DAMPING_START
    log = []
    converged = False
    method = "lm"
    stop_reason = "max_iter"
    stall = flat = 0
    gain_tried = False

    for it in range(_MAX_ITER):
        degenerate = not np.all(np.isfinite(jac))
        accepted = closing = False
        rejected = 0
        if not degenerate:
            grad = jac.T @ f
            hess = jac.T @ jac
            diag = np.diag(hess).copy()
            # an all-zero Jacobian keeps a floor that stays a normal number
            # at the smallest damping, so the damped solve is not singular
            floor = 1e-30 * max(float(np.max(diag)), 1e-250)
            diag[diag < floor] = floor
            if not gain_tried:
                # the Gauss-Newton optimum within 0.01 sigma: one undamped
                # closing trial, once per fit
                gain = _predicted_gain(hess, grad, diag)
                closing = gain_tried = (gain is not None and
                                        gain <= _GAIN_STOP * chi2 / dof)
        while not degenerate:
            try:
                step = np.linalg.solve(
                    hess + (0.0 if closing else lam) * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                degenerate = True
                break
            if not np.all(np.isfinite(step)):
                degenerate = True
                break
            u_try = np.clip(u + step, lower, upper)
            f_try, jac_try = evaluate(u_try)
            finite = np.all(np.isfinite(f_try))
            chi2_try = float(f_try @ f_try) if finite else math.nan
            if chi2_try <= chi2:
                rel_gain = (chi2 - chi2_try) / max(chi2, 1e-300)
                step_size = float(np.max(np.abs(u_try - u) /
                                         (np.abs(u) + 1.0)))
                u, f, chi2, jac = u_try, f_try, chi2_try, jac_try
                lam = max(lam / 10.0, _DAMPING_MIN)
                accepted = True
                log.append({"iteration": it, "chi2": chi2, "damping": lam,
                            "step": step_size, "accepted": True,
                            "rejected": rejected})
                flat = flat + 1 if rel_gain < 1e-6 else 0
                if closing:
                    stop_reason = "gain"
                # parameters at rest to double resolution: done no matter
                # what the (noise-floor) chi2 gains look like
                elif step_size < 1e-9:
                    stop_reason = "step"
                # sustained statistically insignificant gains: the remaining
                # motion is along a flat chi2 plateau
                elif flat >= 3:
                    stop_reason = "flat"
                converged = stop_reason != "max_iter"
                break
            rejected += 1
            # a predicted gain below chi2's rounding (n_pts ulps) cannot be
            # resolved, and more damping only shrinks it: optimum
            if finite and (-step @ (hess @ step + 2 * grad)
                           <= 2.2e-16 * n_pts * chi2):
                converged = True
                stop_reason = "noise_floor"
                break
            if closing:
                # a rejected closing trial: on with the damping the fit had
                closing = False
                continue
            if lam >= _DAMPING_MAX:
                break
            lam = min(lam * 10.0, _DAMPING_MAX)
        if degenerate:
            method = "lm+simplex"
            stop_reason = "simplex"
            u, converged = simplex(u, chi2)
            f, jac = evaluate(u)
            chi2 = float(f @ f)
            log.append({"iteration": it, "chi2": chi2, "damping": lam,
                        "accepted": True, "rejected": rejected,
                        "note": "simplex fallback"})
            break
        if not accepted:
            log.append({"iteration": it, "chi2": chi2, "damping": lam,
                        "accepted": False, "rejected": rejected})
            stall += 1
            if stall >= 2 and not converged:
                converged = True
                stop_reason = "stall"
                break
        else:
            stall = 0
        if converged:
            break

    chi2_red = chi2 / dof
    hess = jac.T @ jac
    try:
        cov_u = np.linalg.inv(hess) * chi2_red
    except np.linalg.LinAlgError:
        cov_u = np.linalg.pinv(hess) * chi2_red
    sig_u = np.sqrt(np.maximum(np.diag(cov_u), 0.0))
    # the data cannot move a parameter whose column is zero
    sig_u[~np.any(jac, axis=0)] = math.inf

    values = param_values(u)
    # a log coordinate's sigma in parameter units: scaled by the value
    sig = sig_u * np.where([p.scale == "log" for p in params], values, 1.0)
    return FitResult(names=tuple(p.name for p in params), values=values,
                     sigma=sig, chi2_reduced=chi2_red, n_points=n_pts,
                     convergence_log=log, converged=converged, method=method,
                     stop_reason=stop_reason)


def _predicted_gain(hess, grad, diag):
    """Gauss-Newton predicted chi^2 gain g^T H^-1 g from a Cholesky factor
    of H scaled by diag to a unit diagonal; None where that matrix is not
    positive definite to _GAIN_MIN_PIVOT.

    The factor's triangular solve is numpy's general solve, which does not
    load scipy.linalg; it only feeds the gain <= _GAIN_STOP chi^2/dof test,
    not the fit's step or result."""
    scale = 1.0 / np.sqrt(diag)
    try:
        chol = np.linalg.cholesky(hess * np.outer(scale, scale))
    except np.linalg.LinAlgError:
        return None
    if np.min(np.diag(chol)) ** 2 < _GAIN_MIN_PIVOT:
        return None
    half = np.linalg.solve(chol, scale * grad)
    gain = float(half @ half)
    return gain if math.isfinite(gain) else None


def joint_tls_fit(traces, shared, per_trace, cavity, *, sigmas=None,
                  g_min=1e-3, g_max=1e3, n_classes=7, m_steps=2000,
                  window_margin=10.0):
    """Simultaneous fit of several ring-down traces in kappa(t) space.

    traces : list of (times, photon_numbers); the first row of each trace is
        the exact reference (t = 0, n0) used both for kappa conversion and as
        the model's initial photon number.
    shared : {"t2_star": init, "beta": init, "epsilon_s": init}, start
        values.
    per_trace : one n_tot start value per trace.
    sigmas : per-trace 1 sigma arrays aligned with the kappa series
        (len(times) - 1); default 0.01/t, the exact propagation of 1%
        multiplicative amplitude noise.

    The model kappa is evolved on its own m_steps grid and interpolated in
    ln n at the data times. The model of each (t2, beta, eps, n_tot,
    trace) key is cached, the exception that stopped it included. Through
    the problem's prefetch, the cache misses of each LM trial point and
    its Jacobian run as one lockstep batch (dynamics.evolve_table); a
    Jacobian column of n_tot_i only evolves trace i. The discretization
    self-check runs on the first key the fit evaluates, trace 0 at the
    initial point: its run at twice the step is one more column of the
    first lockstep loop, which makes one _evolve call, and a failed check
    is raised from the cache. The result's curves hold each trace's
    (kappa times, kappa data, model kappa at the optimum), reference point
    excluded.
    """
    if not traces:
        raise FitError("need at least one trace")
    if len(per_trace) != len(traces):
        raise FitError("need exactly one n_tot per trace")

    prepared = []
    for idx, (times, values) in enumerate(traces):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times[0] != 0.0:
            raise FitError("trace %d must start with the t = 0 reference row"
                           % idx)
        if np.any(values <= 0):
            raise FitError("trace %d has non-positive photon numbers" % idx)
        t_k, kappa_data = dynamics.kappa_of_time(times, values)
        if sigmas is not None:
            sig = np.asarray(sigmas[idx], dtype=float)
            if len(sig) != len(t_k):
                raise FitError("sigma length mismatch on trace %d" % idx)
        else:
            sig = 0.01 / t_k
        prepared.append((t_k, kappa_data, sig, float(values[0]),
                         float(times[-1])))

    params = [FitParameter(name, float(shared[name]), lo, hi, scale)
              for name, lo, hi, scale in (("t2_star", 5e-8, 2e-6, "log"),
                                          ("beta", 1.5, 6.0, "linear"),
                                          ("epsilon_s", 0.02, 3.0, "log"))]
    params += [FitParameter("n_tot_%d" % i, float(init), 1e3, 1e12, "log")
               for i, init in enumerate(per_trace)]

    cache = {}

    def keys_of(vec):
        return [(vec[0], vec[1], vec[2], vec[3 + idx], idx)
                for idx in range(len(prepared))]

    def prefetch(vecs):
        misses = dict.fromkeys(key for vec in vecs for key in keys_of(vec)
                               if key not in cache)
        if misses:
            cache.update(_trace_kappas(
                misses, prepared, checked=not cache, cavity=cavity,
                g_min=g_min, g_max=g_max, n_classes=n_classes,
                m_steps=m_steps, window_margin=window_margin))

    def residual(vec):
        """One residual vector; raises the first trace's model failure."""
        prefetch([vec])
        parts = []
        for key in keys_of(vec):
            model = cache[key]
            if isinstance(model, Exception):
                raise model
            parts.append(model - prepared[key[4]][1])
        return np.concatenate(parts)

    result = minimize(FitProblem(
        residual_fn=residual, params=params,
        data_weights=np.concatenate([p[2] for p in prepared]),
        prefetch=prefetch))
    # the residual at the optimum was evaluated: these are cache hits
    result.curves = tuple((t_k, kappa_data, cache[key]) for key,
                          (t_k, kappa_data, *_) in zip(
                              keys_of(result.values), prepared))
    return result


def _trace_kappas(keys, traces, *, checked, cavity, g_min, g_max, n_classes,
                  m_steps, window_margin):
    """{key: model kappa at its trace's kappa times, or the exception that
    stopped the model} for each (t2, beta, eps, n_tot, trace) key; traces
    are joint_tls_fit's (kappa times, kappa data, sigma, n0, t_final).

    The keys of each trace duration make one ClassTable and one lockstep
    evolve_table call; checked runs the step check on the first key that
    the sampler does not refuse."""
    groups = {}
    for key in keys:
        groups.setdefault(traces[key[4]][4], []).append(key)
    found = {}
    for t_final, group in groups.items():
        t2, beta, eps, n_tot = np.array([key[:4] for key in group]).T
        arrays, refused = sample_class_arrays(
            n_tot, beta, eps, g_min=g_min, g_max=g_max,
            n_classes=n_classes, omega_tls=cavity.omega0, t2_star=t2)
        found.update((key, exc) for key, exc in zip(group, refused) if exc)
        ok = [j for j, exc in enumerate(refused) if exc is None]
        if not ok:                      # every row refused: nothing to run
            continue
        table = tls_bath.ClassTable(*(a[:, ok] for a in arrays),
                                    cavity.omega0, cavity.temperature)
        rows = [group[j] for j in ok]
        trajs = dynamics.evolve_table(
            table, cavity, [traces[key[4]][3] for key in rows], t_final,
            m_steps, verify=[checked] + [False] * (len(rows) - 1),
            window_margin=window_margin)
        checked = False
        for key, traj in zip(rows, trajs):
            if isinstance(traj, Exception):
                found[key] = traj
                continue
            t_k = traces[key[4]][0]
            ln_n = np.log(traj.n)
            found[key] = -(np.interp(t_k, traj.times, ln_n) - ln_n[0]) / t_k
    return found


def temperature_fit(freq_sweep, q_sweep, sc, classes, cavity):
    """Two-stage temperature fit: (alpha, delta0) then (sigma_n, T1, T_phi).

    freq_sweep : (temperatures, normalized shifts, 1 sigma array)
    q_sweep : (temperatures, Q_int values, 1 sigma array)
    sc : SuperconductorParams; its g_factor is kept, and its alpha, delta0
        and sigma_n are the start values.
    classes : one row of class arrays (g, count, T1, T_phi, omega_tls); each
        class keeps its g, count and frequency, and the fit sets one
        (T1, T_phi) for all of them, starting from the first class's.

    Stage 1 fits the frequency shift, which is independent of sigma_n; stage
    2 freezes the gap and fits the quasiparticle and TLS-time parameters to
    the Q sweep. Returns one combined FitResult (chi2 of stage 2, both
    stages' stop reasons) whose curves are the shift and Q_int sweeps with
    the models at the fitted values, sigma_n included.
    """
    omega0 = cavity.omega0
    t_f, shift_data, sig_f = (np.asarray(a, dtype=float) for a in freq_sweep)
    t_q, q_data, sig_q = (np.asarray(a, dtype=float) for a in q_sweep)

    g, count, T1, T_phi, omega_tls = classes

    def q_int(sc_fit, t1, t_phi):
        return mattis_bardeen.q_int_temperature(
            t_q, sc_fit, (g, count, t1, t_phi, omega_tls), cavity)

    def shift_residual(vec):
        alpha, delta0 = vec
        trial = replace(sc, alpha=alpha, delta0=delta0, sigma_n=1.0)
        return mattis_bardeen.freq_shift(t_f, trial, omega0) - shift_data

    # both stages' starts are checked before either runs
    stage1_params = [FitParameter("alpha", sc.alpha, 1e-8, 1e-2, "log"),
                     FitParameter("delta0", sc.delta0, 1e-23, 1e-21, "log")]
    stage2_params = [
        FitParameter("sigma_n", sc.sigma_n, 1e5, 1e10, "log"),
        FitParameter("t1", float(T1.flat[0]), 1e-9, 1e-4, "log"),
        FitParameter("t_phi", float(T_phi.flat[0]), 1e-9, 1e-4, "log"),
    ]
    stage1 = minimize(FitProblem(residual_fn=shift_residual,
                                 params=stage1_params, data_weights=sig_f))
    alpha_fit, delta0_fit = (float(v) for v in stage1.values)

    def q_residual(vec):
        sigma_n, t1, t_phi = vec
        return q_int(replace(sc, alpha=alpha_fit, delta0=delta0_fit,
                             sigma_n=sigma_n), t1, t_phi) - q_data

    stage2 = minimize(FitProblem(residual_fn=q_residual,
                                 params=stage2_params, data_weights=sig_q))
    sigma_n, t1, t_phi = (float(v) for v in stage2.values)
    best = replace(sc, alpha=alpha_fit, delta0=delta0_fit, sigma_n=sigma_n)

    names = ("alpha", "delta0", "sigma_n", "t1", "t_phi")
    values = np.concatenate([stage1.values, stage2.values])
    sigma = np.concatenate([stage1.sigma, stage2.sigma])
    log = [{"stage": 1, **rec} for rec in stage1.convergence_log] + \
          [{"stage": 2, **rec} for rec in stage2.convergence_log]
    return FitResult(names=names, values=values, sigma=sigma,
                     chi2_reduced=stage2.chi2_reduced,
                     n_points=len(t_f) + len(t_q), convergence_log=log,
                     converged=stage1.converged and stage2.converged,
                     method="two-stage",
                     stop_reason=stage1.stop_reason + "," + stage2.stop_reason,
                     curves=((t_f, shift_data,
                              mattis_bardeen.freq_shift(t_f, best, omega0)),
                             (t_q, q_data, q_int(best, t1, t_phi))))
