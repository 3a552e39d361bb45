import dataclasses
import io
import math
import re
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from oracles import TlsClass, class_arrays, class_list
from tlscavity import (CavityParams, ClassTable, SaturationError,
                       StepConvergenceError, StepWindowError, bath_rates,
                       evolve_ringdown, evolve_table, fitting, kappa_of_time)
from tlscavity.config import TlsSettings
from tlscavity.core import bose_einstein
from tlscavity.datafiles import cells
from tlscavity.tls_bath import clamp_rates
from tlscavity.dynamics import (_IM_O, _KM, _KP, _RECORDED, Trajectory,
                                _evolve, record_shape, time_grid,
                                write_trajectory_csv)


def _rows_table(rows, cavity):
    """The ClassTable of one-row class arrays, side by side."""
    return ClassTable(*(np.hstack(col) for col in zip(*rows)), cavity.omega0,
                      cavity.temperature)


class Recorded(NamedTuple):
    """A trajectory with the rates rebuilt from the state at each grid
    point, read from its column of the coarse record."""

    times: np.ndarray
    n: np.ndarray
    kappa_plus: np.ndarray
    kappa_minus: np.ndarray
    im_omega_prime: np.ndarray


def _with_rates(results, record):
    """results with each Trajectory r as a Recorded from column r of
    record; exceptions as they are."""
    out = []
    for r, res in enumerate(results):
        if isinstance(res, Trajectory):
            res = Recorded(res.times, res.n, record[:, _KP, r],
                           record[:, _KM, r], record[:, _IM_O, r])
        out.append(res)
    return out


def _table_rates(table, cavity, n0, t_final, m, **kwargs):
    """evolve_table's rows with the rates of the record it fills (nan
    where it filled none)."""
    record = np.full(record_shape(m, len(n0)), np.nan)
    return _with_rates(evolve_table(table, cavity, n0, t_final, m,
                                    record=record, **kwargs), record)


def _evolve_rates(table, cavity, n0, t_final, m):
    """_evolve's rows with the rates of its record."""
    history = np.empty(record_shape(m, len(n0)))
    return _with_rates(_evolve(table, cavity, n0, t_final, m, history),
                       history)


def _alone(n0, classes, cavity, t_final, m, **kwargs):
    """The one-row evolve_table of evolve_ringdown, with its rates; raises
    the row's exception."""
    got, = _table_rates(ClassTable(*classes, cavity.omega0,
                                   cavity.temperature),
                        cavity, [n0], t_final, m, **kwargs)
    if isinstance(got, Exception):
        raise got
    return got


def test_no_tls_pure_exponential(cavity):
    traj = evolve_ringdown(1e10, class_arrays([[]]), cavity, 0.01, 500)
    expected = 1e10 * np.exp(-cavity.kappa0 * traj.times)
    assert np.max(np.abs(traj.n / expected - 1.0)) < 1e-9


def test_single_step_against_euler_oracle(trace_classes, cavity):
    n0 = 1e12
    dt = 5e-6
    # one closed-form step from the sqrt(n) pinned amplitude
    stepped = evolve_ringdown(n0, trace_classes, cavity, dt, 2, verify=False)
    grid = np.array([0.0, dt])
    n_euler = oracles.euler_moments(n0, math.sqrt(n0),
                                    class_list(trace_classes),
                                    cavity.kappa0, cavity.omega0,
                                    cavity.temperature, grid, n_sub=20000)
    # frozen rates vs continuously updated rates agree to O(dt * dkappa/dt)
    assert stepped.n[1] == pytest.approx(n_euler[1], rel=2e-7)


def test_pinned_evolution_against_fine_euler(trace_classes, cavity):
    traj = evolve_ringdown(1e12, trace_classes, cavity, 0.004, 1399)
    n_euler = oracles.euler_moments(1e12, math.sqrt(1e12),
                                    class_list(trace_classes),
                                    cavity.kappa0, cavity.omega0,
                                    cavity.temperature, traj.times, n_sub=60)
    assert np.max(np.abs(traj.n / n_euler - 1.0)) < 1e-4


def test_pinned_evolution_against_ode_limit(trace_classes, cavity):
    traj = evolve_ringdown(5e13, trace_classes, cavity, 0.022, 4000,
                           verify=False)
    n_ode = oracles.pinned_limit_ode(5e13, class_list(trace_classes),
                                     cavity.kappa0, cavity.omega0,
                                     cavity.temperature,
                                     traj.times[::100], rtol=1e-11)
    assert np.max(np.abs(traj.n[::100] / n_ode - 1.0)) < 2e-4


def test_rk4_reference_matches_richardson_euler(trace_classes, cavity):
    # the first 200 intervals of acceptance a06's grid: Euler's first-order
    # error cancels in 2 E(50) - E(25), which must then meet RK4
    grid = np.linspace(0.0, 0.022, 15385)[:201]
    args = (5e13, math.sqrt(5e13), class_list(trace_classes), cavity.kappa0,
            cavity.omega0, cavity.temperature, grid)
    e25 = oracles.euler_moments(*args, n_sub=25)
    e50 = oracles.euler_moments(*args, n_sub=50)
    rk4 = oracles.rk4_moments(*args)
    dev_euler = np.max(np.abs(e50 / rk4 - 1.0))
    dev_richardson = np.max(np.abs((2.0 * e50 - e25) / rk4 - 1.0))
    assert dev_richardson < 1e-8
    assert dev_richardson < 1e-3 * dev_euler


def test_fock_space_master_equation_cross_check():
    """Exact one-TLS master equation vs the rate formulas and the recursion.

    The exact excess photon decay over one step equals kappa_minus -
    kappa_plus (weak coupling, fast TLS); the pinned recursion adds the
    coherent-scattering channel on top and lands at twice that for a weak
    unsaturated TLS. Both statements are pinned at 1%.
    """
    g, T1, T_phi, kappa0 = 300.0, 2e-5, 4e-5 / 3.0, 200.0
    cav = CavityParams(f0=7.9e9, kappa0=kappa0, kappa_c=0.9 * kappa0,
                       temperature=0.0)
    cls = TlsClass(g=g, count=1.0, T1=T1, T_phi=T_phi)
    alpha = 2.0
    n0 = alpha ** 2
    st = oracles.tls_steady_state(cls, n0, cav.omega0, 0.0)
    rho_tls = np.array([[1.0 - st.rho_ee, st.rho_ge],
                        [np.conj(st.rho_ge), st.rho_ee]])
    dt = 1e-4
    n_init, n_exact = oracles.lindblad_step(g, T1, T_phi, kappa0, alpha, dt,
                                            dim=22, rho_tls=rho_tls)
    assert n_init == pytest.approx(n0, rel=1e-8)
    excess_exact = -math.log(n_exact / n_init) / dt - kappa0

    rates = bath_rates(class_arrays([[cls]]), n0, alpha, cav.omega0, 0.0)
    kp, km, op = oracles.state_rates(cls, st, cav.omega0, 0.0)
    assert rates.kappa_plus == pytest.approx(kp, rel=1e-12,
                                             abs=1e-12 * (kp + km))
    assert rates.kappa_minus == pytest.approx(km, rel=1e-12)
    assert abs(rates.omega_prime - op) <= 1e-12 * abs(op)
    excess_rates = rates.kappa_minus - rates.kappa_plus
    assert excess_exact == pytest.approx(excess_rates, rel=0.01)

    table = ClassTable(*class_arrays([[cls]]), cav.omega0, cav.temperature)
    traj, = evolve_table(table, cav, [n_init], dt, 2, verify=False,
                         window_margin=5.0)
    excess_step = -math.log(traj.n[-1] / n_init) / dt - kappa0
    t2 = 1.0 / (0.5 / T1 + 1.0 / T_phi)
    assert excess_step == pytest.approx(2.0 * 2.0 * g * g * t2, rel=0.01)


def test_kappa_monotone_and_limits(trace_classes, cavity):
    traj = evolve_ringdown(5e13, trace_classes, cavity, 0.022, 2000,
                           verify=False)
    _, kappa = kappa_of_time(traj.times, traj.n)
    assert np.all(np.diff(kappa) >= -1e-9 * kappa[:-1])
    assert kappa[0] < kappa[-1]


def test_saturation_error_on_net_gain(cavity):
    # physical classes cannot get here (rho_ee < 1/2 keeps kappa_plus below
    # kappa_minus), so a stub table supplies the net gain
    class GainTable:
        def rate_kernel(self, state, out):
            def kernel():
                out[:, 0] = (0.0, 2.0 * cavity.kappa0, 0.0)
                return out
            return kernel

    (got,) = _evolve(GainTable(), cavity, [1e10], 1e-3, 3)
    assert isinstance(got, SaturationError)


def test_rate_overshoot_stops_the_row_with_a_saturation_error(cfg):
    """T1 and T_phi whose quasi-steady kappa_plus overshoots below 0 beyond
    the clamp's tolerance: the row stops with a SaturationError naming the
    rate, its value and t, which the joint fit rejects as a trial point;
    clamp_rates and bath_rates still raise ValueError."""
    classes = dataclasses.replace(
        cfg, tls=TlsSettings(t1=2.0e-7, t_phi=1.0e-6)).trace_classes(1.2e8)
    table = ClassTable(*classes, cfg.cavity.omega0, cfg.cavity.temperature)
    for verify in (False, True):
        got, = evolve_table(table, cfg.cavity, [1.6e9], 0.022, 4000,
                            verify=verify)
        assert isinstance(got, SaturationError)
        assert isinstance(got, fitting._REJECTED)
        assert re.fullmatch(r"kappa_plus = -[0-9.e-]+, negative beyond "
                            r"tolerance, at t = [0-9.e-]+", str(got))
    with pytest.raises(ValueError, match="^kappa_plus = -1, negative"):
        clamp_rates(-1.0, 1.0)
    with pytest.raises(ValueError, match="^kappa_minus = -1, negative"):
        clamp_rates(1.0, -1.0)
    with pytest.raises(ValueError, match="^kappa_plus = -0.2"):
        bath_rates(classes, 1e8, 1e4, cfg.cavity.omega0,
                   cfg.cavity.temperature)


def test_on_resonance_re_omega_prime_keeps_its_sign_bit(trace_classes,
                                                        cavity):
    """On resonance the CSV's re_omega_prime cell is -0.0 at every point,
    for a lone trace and for each of a batch of ten, written in two
    slices."""
    m = 400
    times = time_grid(0.004, m)
    for rows in (1, 10):
        record = np.empty(record_shape(m, rows))
        assert not any(isinstance(traj, Exception) for traj in evolve_table(
            _rows_table([trace_classes] * rows, cavity), cavity,
            np.geomspace(5e13, 1e11, rows), 0.004, m, record=record))
        for r in range(rows):
            text = io.StringIO()
            for part in (slice(0, 150), slice(150, m)):
                write_trajectory_csv(record, r, text, part, times.tolist(),
                                     cells(times))
            header, *lines = text.getvalue().splitlines()
            column = header.split(",").index("re_omega_prime")
            assert len(lines) == m
            assert {line.split(",")[column] for line in lines} == {"-0.0"}


def test_step_window_enforced(trace_classes, cavity):
    with pytest.raises(ValueError):
        # dt below margin * max T2*
        evolve_ringdown(1e12, trace_classes, cavity, 1e-6, 2000)
    with pytest.raises(ValueError):
        # dt above 1/(margin * kappa0)
        evolve_ringdown(1e12, trace_classes, cavity, 10.0, 3)


@pytest.mark.parametrize("n0", [0.0, -1e10, math.nan])
def test_initial_photon_number_must_be_positive(trace_classes, cavity, n0):
    # a nan start would run to an all-nan trajectory that passes verify
    with pytest.raises(ValueError, match="must be > 0"):
        evolve_ringdown(n0, trace_classes, cavity, 0.004, 400)


def test_step_halving_verification_runs(trace_classes, cavity):
    traj = evolve_ringdown(1e12, trace_classes, cavity, 0.005, 600,
                           verify=True)
    assert traj.n[0] == 1e12


def test_kappa_of_time_basics():
    t = np.linspace(0.0, 1.0, 11)
    v = 10.0 * np.exp(-3.0 * t)
    tt, kappa = kappa_of_time(t, v)
    assert len(tt) == 10
    assert np.allclose(kappa, 3.0, rtol=1e-12)
    with pytest.raises(ValueError):
        kappa_of_time(t, -v)
    with pytest.raises(ValueError):
        kappa_of_time(t, v[:-1])


# --- lockstep batches -------------------------------------------------------

_BATCH_CAV = CavityParams(f0=7.9e9, kappa0=537.7, kappa_c=496.4,
                          temperature=0.02)

_row_class = hst.builds(
    TlsClass.from_t2_star,
    g=hst.floats(1e-2, 4e2),
    count=hst.floats(0.0, 1e9),
    t2=hst.floats(5e-8, 5e-7))

# 1 to 12 rows of (log10 n0, class list), all lists of one size 0 to 12
_batch_rows = hst.integers(0, 12).flatmap(lambda size: hst.lists(
    hst.tuples(hst.floats(3.0, 14.0),
               hst.lists(_row_class, min_size=size, max_size=size)),
    min_size=1, max_size=12))


def _same_trajectory(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("times", "n", "kappa_plus", "kappa_minus",
                            "im_omega_prime"))


def _solo(fn):
    try:
        return fn()
    except (ValueError, SaturationError, StepConvergenceError) as exc:
        return exc


def _check_rows(batch, solos):
    for got, ref in zip(batch, solos):
        if isinstance(ref, Exception):
            assert type(got) is type(ref) and str(got) == str(ref)
        else:
            assert _same_trajectory(got, ref)


@settings(max_examples=40, deadline=None)
@given(rows=_batch_rows, verify=hst.booleans())
def test_batch_rows_bitwise_equal_solo_ringdown(rows, verify):
    """Row k of a batch is bitwise the trajectory, and the rates, that it
    gets alone, whatever the batch size and the other rows."""
    initials = [10.0 ** e for e, _ in rows]
    class_lists = [classes for _, classes in rows]
    table = ClassTable(*class_arrays(class_lists), _BATCH_CAV.omega0,
                       _BATCH_CAV.temperature)
    batch = _table_rates(table, _BATCH_CAV, initials, 0.004, 40,
                         verify=verify)
    solos = [_solo(lambda: _alone(i, class_arrays([c]), _BATCH_CAV, 0.004,
                                  40, verify=verify))
             for i, c in zip(initials, class_lists)]
    _check_rows(batch, solos)


@pytest.mark.parametrize("size", [8, 9, 12])
def test_lone_row_sums_its_classes_in_class_order(size):
    """A lone row is bitwise that row in a batch of two, also with 8 or
    more classes, where numpy would sum one column pairwise."""
    classes = [TlsClass.from_t2_star(0.37 * 3.1 ** k, 7.3e8 / 2.3 ** k,
                                     1.1e-7 * 1.3 ** k)
               for k in range(size)]
    alone = _alone(1e12, class_arrays([classes]), _BATCH_CAV, 0.004, 40,
                   verify=False)
    pair = _table_rates(ClassTable(*class_arrays([classes, classes[::-1]]),
                                   _BATCH_CAV.omega0, _BATCH_CAV.temperature),
                        _BATCH_CAV, [1e12, 3e10], 0.004, 40, verify=False)
    assert _same_trajectory(alone, pair[0])


def test_failing_rows_leave_the_others_unchanged(trace_classes, cavity):
    # T2* = 2 us; and the trace classes with the top two emptied
    slow = oracles.with_times(trace_classes, 4e-6, (4.0 / 3.0) * 2e-6)
    g, count, *times = trace_classes
    fewer = (g, np.where(np.arange(len(g))[:, None] < 5, count, 0.0), *times)
    rows = [trace_classes, slow, fewer, trace_classes]
    initials = [1e12, 1e12, 3e11, 5e13]
    # row 1's T2* puts the 800-step grid below its Markovian window
    batch = evolve_table(_rows_table(rows, cavity), cavity, initials, 0.01,
                         800, verify=False)
    assert isinstance(batch[1], StepWindowError)
    with pytest.raises(StepWindowError):
        evolve_ringdown(initials[1], slow, cavity, 0.01, 800, verify=False)
    # the others run as one group, which records no rates for a batch with
    # a row left out: the group's rates come from the group run alone
    inside = (0, 2, 3)
    group = _table_rates(_rows_table([rows[r] for r in inside], cavity),
                         cavity, [initials[r] for r in inside], 0.01, 800,
                         verify=False)
    for r, grouped in zip(inside, group):
        alone = _alone(initials[r], rows[r], cavity, 0.01, 800, verify=False)
        assert np.array_equal(batch[r].times, alone.times)
        assert np.array_equal(batch[r].n, alone.n)
        assert _same_trajectory(grouped, alone)

    # row 1 turns to net gain from step 5 on: it alone stops
    class GainRow:
        def __init__(self):
            self.table = _rows_table([trace_classes] * 3, cavity)
            self.calls = 0

        def rate_kernel(self, state, out):
            sums = self.table.rate_kernel(state, out)

            def kernel():
                sums()
                self.calls += 1
                if self.calls > 5:
                    out[:, 1] = (0.0, 2.0 * cavity.kappa0, 0.0)
                return out
            return kernel

    n0 = np.array([1e12, 1e12, 2e12])
    got = _evolve_rates(GainRow(), cavity, n0, 0.01, 800)
    assert isinstance(got[1], SaturationError)
    assert _same_trajectory(got[0], group[0])
    assert _same_trajectory(got[2], _alone(
        2e12, trace_classes, cavity, 0.01, 800, verify=False))


# --- the doubling check and the per-row stops ------------------------------

class _FailAt:
    """The rates of a ClassTable, but net gain (or, with nan=True, nan rates)
    for a row whose photon number equals its target bit for bit (None:
    never)."""

    def __init__(self, table, targets, kappa0, nan=False):
        self.table, self.targets, self.kappa0 = table, list(targets), kappa0
        self.nan, self.t2max = nan, table.t2max

    def take(self, rows):
        return type(self)(self.table.take(rows),
                          [self.targets[r] for r in rows], self.kappa0,
                          self.nan)

    def rate_kernel(self, state, out):
        sums = self.table.rate_kernel(state, out)
        n = state[0]
        hits = [(c, t) for c, t in enumerate(self.targets) if t is not None]

        def kernel():
            sums()
            for c, target in hits:
                if n[c] == target:
                    out[:, c] = ((np.nan,) * 3 if self.nan else
                                 (0.0, 2.0 * self.kappa0, 0.0))
            return out
        return kernel


def _two_call_verified(table, cavity, n0, t_final, m_pts, verify):
    """The doubling check as two plain lockstep runs: the coarse rows, then
    the verified rows that got through at twice the step, on the coarse
    grid's even points."""
    coarse = _evolve_rates(table, cavity, n0, t_final, m_pts)
    live = [r for r, res in enumerate(coarse)
            if verify[r] and isinstance(res, Recorded)]
    if not live:
        return coarse
    m_2h = (m_pts + 1) // 2
    t_2h = np.linspace(0.0, t_final, m_pts)[2 * (m_2h - 1)]
    doubled = _evolve(table.take(live), cavity, n0[live], t_2h, m_2h)
    for r, ref in zip(live, doubled):
        if isinstance(ref, Exception):
            coarse[r] = ref
            continue
        n = coarse[r].n[:2 * m_2h - 1:2]
        dev = float(np.max(np.abs(n - ref.n)
                           / np.maximum(np.abs(n), 1e-30)))
        if dev >= 2e-3:
            coarse[r] = StepConvergenceError(
                "doubling dt moved n(t) by %g relative up to t = %g "
                "(limit 2e-3)" % (dev, t_2h),
                deviation=dev, resolutions=(m_pts, m_2h))
    return coarse


@pytest.mark.parametrize("m", [2, 10])
def test_fused_verify_matches_two_call_reference(cfg, m):
    cavity, t_final = cfg.cavity, 0.022
    table = _rows_table([cfg.trace_classes()] * 6, cavity)
    # rows: passes; fails doubling at m = 10; unverified; coarse pass stops
    # (its run at 2h would pass); run at 2h stops (its coarse pass would
    # pass); unverified and stopped
    n0 = np.array([5e13, 1e9, 1e9, 5e13, 5e13, 1e12])
    verify = [True, True, False, True, True, False]
    j, m_2h = (m - 2) // 2, (m + 1) // 2
    t_2h = np.linspace(0.0, t_final, m)[2 * (m_2h - 1)]
    plain = _evolve(table.take([0, 5]), cavity, n0[[0, 5]], t_final, m)
    doubled = _evolve(table.take([0]), cavity, n0[:1], t_2h, m_2h)[0] \
        if m > 2 else None
    targets = [None, None, None, plain[0].n[j],
               doubled.n[j // 2] if doubled else None, plain[1].n[j]]
    stub = _FailAt(table, targets, cavity.kappa0)
    if m == 2:
        # no point after t = 0 is on the grid at 2h: the rows run unverified
        with pytest.raises(ValueError, match="m_steps must be >= 3"):
            evolve_table(stub, cavity, n0, t_final, m, verify=verify,
                         window_margin=1e-6)
        verify = [False] * len(n0)
    # the margin takes m = 10 over 0.022 s into the Markovian window
    got = _table_rates(stub, cavity, n0, t_final, m, verify=verify,
                       window_margin=1e-6)
    ref = _two_call_verified(stub, cavity, n0, t_final, m, verify)
    for a, b in zip(got, ref):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
            if isinstance(b, StepConvergenceError):
                assert a.deviation == b.deviation
                assert a.resolutions == b.resolutions
        else:
            assert _same_trajectory(a, b)
    assert isinstance(got[2], Recorded)
    assert all(isinstance(got[r], SaturationError) for r in (3, 5))
    coarse_t = np.linspace(0.0, t_final, m)[j]
    assert str(got[3]).endswith("at t = %g" % coarse_t)
    assert str(got[5]).endswith("at t = %g" % coarse_t)
    if m == 10:
        assert isinstance(got[0], Recorded)
        assert isinstance(got[1], StepConvergenceError)
        assert got[1].resolutions == (10, 5)
        assert str(got[1]).endswith("up to t = %g (limit 2e-3)" % t_2h)
        assert isinstance(got[4], SaturationError)
        assert str(got[4]).endswith("at t = %g" % np.linspace(
            0.0, t_2h, m_2h)[j // 2])
        # alone, row 3's run at 2h and row 4's coarse pass get through
        assert isinstance(_evolve(stub.take([3]), cavity, n0[[3]], t_2h,
                                  m_2h)[0], Trajectory)
        assert isinstance(_evolve(stub.take([4]), cavity, n0[[4]], t_final,
                                  m)[0], Trajectory)


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("m", [10, 11])
def test_twin_past_its_last_point_changes_nothing(cfg, m, nan):
    """A twin at 2h steps on past t_last beside the coarse rows; a failure
    it would meet there (net gain or nan rates on its n at 2h-grid point
    m_2h or m_2h + 2, one past its last and after) stops no row and moves
    no message: every row equals the two-call reference. m = 10 and 11
    put t_last one coarse step short of t_final and on it."""
    cavity, t_final = cfg.cavity, 0.022
    table = _rows_table([cfg.trace_classes()] * 3, cavity)
    n0 = np.array([5e13, 1e12, 3e11])
    verify = [True, True, False]
    m_2h = (m + 1) // 2
    t_2h = np.linspace(0.0, t_final, m)[2 * (m_2h - 1)]
    step = np.linspace(0.0, t_2h, m_2h)[1]
    # the twins' grid carried on at the same step, bit for bit, to a point
    # past either target, so that a step leaves each target
    t_on = step * (m_2h + 3)
    assert np.linspace(0.0, t_on, m_2h + 4)[1] == step
    on = _evolve(table.take([0, 1]), cavity, n0[:2], t_on, m_2h + 4)
    targets = [on[0].n[m_2h], on[1].n[m_2h + 2], None]
    stub = _FailAt(table, targets, cavity.kappa0, nan=nan)
    # alone on that longer grid, both twins stop after their last point
    for r in (0, 1):
        alone, = _evolve(stub.take([r]), cavity, n0[[r]], t_on, m_2h + 4)
        assert isinstance(alone, SaturationError)
    got = _table_rates(stub, cavity, n0, t_final, m, verify=verify,
                       window_margin=1e-6)
    ref = _two_call_verified(stub, cavity, n0, t_final, m, verify)
    assert isinstance(got[0], Recorded)
    assert isinstance(got[1], StepConvergenceError)
    for a, b in zip(got, ref):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
            assert a.deviation == b.deviation
            assert a.resolutions == b.resolutions
        else:
            assert _same_trajectory(a, b)


@pytest.mark.parametrize("start", ["default", "a07"])
def test_doubling_deviation_is_twice_the_halving_one(cfg, start):
    """The doubling check at 2e-3 refuses every run that a halving check
    at 1e-3 refuses: on the default rows at m = 200 and on a07's start
    rows at m = 250, the run at 2h moves each row's n(t) at least twice
    as far as a run at h/2 does."""
    cavity, t_final = cfg.cavity, 0.022
    if start == "default":
        powers = cfg.ringdown.initial_photons
        classes = cfg.trace_classes(n_tot=[cfg.ringdown.n_tot] * len(powers))
        n0, m = np.array(powers), 200
    else:
        classes = dataclasses.replace(cfg, distribution=dataclasses.replace(
            cfg.distribution, beta=3.0, epsilon_s=0.3)).trace_classes(
                n_tot=[1e8] * 10, t2_star=2.5e-7)
        n0, m = 5e13 * 10.0 ** (-0.5 * np.arange(10)), 250
    table = ClassTable(*classes, cavity.omega0, cavity.temperature)
    m_2h = (m + 1) // 2
    t_2h = np.linspace(0.0, t_final, m)[2 * (m_2h - 1)]
    coarse, fine, doubled = (
        np.array([traj.n for traj in _evolve(table, cavity, n0, t, pts)])
        for t, pts in ((t_final, m), (t_final, 2 * m - 1), (t_2h, m_2h)))
    halving = np.max(np.abs(coarse - fine[:, ::2]) / coarse, axis=1)
    even = coarse[:, :2 * m_2h - 1:2]
    doubling = np.max(np.abs(even - doubled) / even, axis=1)
    assert np.all(doubling >= 2.0 * halving), doubling / halving


@pytest.mark.parametrize("verify", [False, True])
def test_nan_rates_stop_the_row(cfg, verify):
    # nan fails every per-row test: row 1 stops at its fourth point instead
    # of writing nan from there on; row 0 is what it is alone
    cavity, t_final, m = cfg.cavity, 0.022, 10
    table = _rows_table([cfg.trace_classes()] * 2, cavity)
    n0 = np.array([5e13, 1e12])
    plain = _evolve(table.take([1]), cavity, n0[1:], t_final, m)[0]
    stub = _FailAt(table, [None, plain.n[3]], cavity.kappa0, nan=True)
    got = _table_rates(stub, cavity, n0, t_final, m, verify=verify,
                       window_margin=1e-6)
    alone = _table_rates(table.take([0]), cavity, n0[:1], t_final, m,
                         verify=verify, window_margin=1e-6)
    assert _same_trajectory(got[0], alone[0])
    assert isinstance(got[1], SaturationError)
    assert str(got[1]) == "kappa_tilde = nan, not > 0, at t = %g" % (
        plain.times[3])


# --- the lockstep pass against its bitwise per-row reference ----------------

def _classes(size, scale=1.0):
    return [TlsClass.from_t2_star(0.37 * 3.1 ** k * scale, 7.3e8 / 2.3 ** k,
                                  1.1e-7 * 1.3 ** k)
            for k in range(size)]


def _reference_row(table, r, n0, cavity, times, adjust=None):
    feed = cavity.kappa0 * bose_einstein(cavity.omega0, cavity.temperature)
    return oracles.pinned_step_row(
        table.base[..., r], table.slope[..., r], table.sv[..., r],
        table.weights[..., r], n0, cavity.kappa0, feed, times, adjust)


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _matches_reference(traj, ref):
    n, kp, km, omega = ref
    return all(_bitwise(got, want) for got, want in zip(
        (traj.n, traj.kappa_plus, traj.kappa_minus, traj.im_omega_prime),
        (n, kp, km, omega.imag.copy())))


@pytest.mark.parametrize("size", [7, 9])
def test_lone_row_pass_matches_reference(size):
    """A lone row, stepped beside its discarded padding column, is bitwise
    the per-row reference of the pass."""
    table = ClassTable(*class_arrays([_classes(size)]), _BATCH_CAV.omega0,
                       _BATCH_CAV.temperature)
    traj, = _evolve_rates(table, _BATCH_CAV, [1e12], 0.004, 40)
    ref = _reference_row(table, 0, 1e12, _BATCH_CAV, traj.times)
    assert _matches_reference(traj, ref)


def _evolve_peak_bytes(table, n0, m, twins):
    """Peak traced memory of one _evolve call, over what was traced before
    it, with every warning raised as an error."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = tracemalloc.get_traced_memory()[0]
            got = _evolve(table, _BATCH_CAV, n0, 0.004, m, twins=twins)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(not isinstance(g, Exception) for g in got)
    return peak - before


def test_pass_allocates_nothing_and_warns_nothing():
    """A pass allocates nothing that outlives it and raises no warning (a
    positional out on np.minimum or np.maximum warns in numpy 2.4): with
    more grid points, _evolve's peak traced memory grows by no more than
    the float64 arrays of one entry per grid point that it keeps, the
    record among them, also with twins at 2h beside the rows."""
    table = ClassTable(*class_arrays([_classes(7), _classes(7)[::-1],
                                      _classes(7, 0.2)]), _BATCH_CAV.omega0,
                       _BATCH_CAV.temperature)
    m, rows = (600, 1800), 3
    for twins in (0, 2):
        # rows 0 to 2, then the twins of rows 0 and 2
        cols = [0, 1, 2, 0, 2][:3 + twins]
        n0 = np.array([1e12, 3e10, 5e13])[cols]
        # per grid point: the record, each row's n and the grid, and per
        # twin point (one per two grid points) each twin's n twice and its
        # grid. A leak of one object per pass (24 bytes or more) outgrows
        # the 4 kB of slack.
        per_point = 8 * (_RECORDED * rows + rows + 1) \
            + (4 * (2 * twins + 1) if twins else 0)
        grown = _evolve_peak_bytes(table.take(cols), n0, m[1], twins) \
            - _evolve_peak_bytes(table.take(cols), n0, m[0], twins)
        allowed = (m[1] - m[0]) * per_point + 4096
        assert grown <= allowed, (twins, grown, allowed)


class _ClampAt(_FailAt):
    """The rates of a ClassTable, but kappa_plus = -1e-6 (kappa_plus +
    kappa_minus), which the clamp rounds to 0, for a row whose photon number
    equals its target bit for bit."""

    def rate_kernel(self, state, out):
        sums = self.table.rate_kernel(state, out)
        n = state[0]
        hits = [(c, t) for c, t in enumerate(self.targets) if t is not None]

        def kernel():
            sums()
            for c, target in hits:
                if n[c] == target:
                    out[1, c] = -1e-6 * (out[1, c] + out[2, c])
            return out
        return kernel


def test_clamped_rate_inside_the_loop(trace_classes, cavity):
    table = _rows_table([trace_classes] * 3, cavity)
    n0, j = np.array([1e12, 3e11, 5e13]), 7
    plain = _evolve_rates(table, cavity, n0, 0.01, 80)
    target = plain[1].n[j]
    got = _evolve_rates(_ClampAt(table, [None, target, None], cavity.kappa0),
                        cavity, n0, 0.01, 80)
    assert isinstance(got[1], Recorded)
    assert got[1].kappa_plus[j] == 0.0 and plain[1].kappa_plus[j] > 0.0
    # the redone pass is recorded again: the record holds n, not n(k+1)
    assert got[1].n[j] == target
    assert _bitwise(got[1].n[:j + 1], plain[1].n[:j + 1])
    assert not np.array_equal(got[1].n[j + 1:], plain[1].n[j + 1:])

    def adjust(n, sums):
        if n == target:
            sums[1] = -1e-6 * (sums[1] + sums[2])
        return sums
    assert _matches_reference(got[1], _reference_row(
        table, 1, n0[1], cavity, got[1].times, adjust))
    for r in (0, 2):
        assert _same_trajectory(got[r], _alone(
            n0[r], trace_classes, cavity, 0.01, 80, verify=False))


def test_empty_batch_refuses_too_few_steps(trace_classes, cavity):
    empty = _rows_table([trace_classes], cavity).take([])
    with pytest.raises(ValueError, match="m_steps must be >= 2"):
        evolve_table(empty, cavity, [], 0.01, 1)
    assert evolve_table(empty, cavity, [], 0.01, 2) == []
    # a verified row needs a grid point after t = 0 that the run at 2h
    # shares; an unverified one does not
    with pytest.raises(ValueError, match="m_steps must be >= 3"):
        evolve_ringdown(1e12, trace_classes, cavity, 1e-4, 2)
    assert len(evolve_ringdown(1e12, trace_classes, cavity, 1e-4, 2,
                               verify=False).n) == 2
