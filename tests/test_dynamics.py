import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from oracles import TlsClass, class_arrays, class_list
from tlscavity import (CavityParams, ClassTable, SaturationError,
                       StepConvergenceError, StepWindowError, bath_rates,
                       evolve_ringdown, evolve_table, kappa_of_time,
                       trajectory_kappa)
from tlscavity.core import bose_einstein
from tlscavity.dynamics import Trajectory, _evolve, _verified_evolve


W0 = 2.0 * math.pi * 7.9e9


def _rows_table(rows, cavity):
    """The ClassTable of one-row class arrays, side by side."""
    return ClassTable(*(np.hstack(col) for col in zip(*rows)), cavity.omega0,
                      cavity.temperature)


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
    cls = TlsClass(g=g, count=1.0, omega_tls=cav.omega0, T1=T1, T_phi=T_phi)
    alpha = 2.0
    n0 = alpha ** 2
    st = oracles.tls_steady_state(cls, n0, 0.0)
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

    traj = evolve_ringdown(n_init, class_arrays([[cls]]), cav, dt, 2,
                           verify=False, window_margin=5.0)
    excess_step = -math.log(traj.n[-1] / n_init) / dt - kappa0
    t2 = 1.0 / (0.5 / T1 + 1.0 / T_phi)
    assert excess_step == pytest.approx(2.0 * 2.0 * g * g * t2, rel=0.01)


def test_kappa_monotone_and_limits(trace_classes, cavity):
    traj = evolve_ringdown(5e13, trace_classes, cavity, 0.022, 2000,
                           verify=False)
    _, kappa = trajectory_kappa(traj)
    assert np.all(np.diff(kappa) >= -1e-9 * kappa[:-1])
    assert kappa[0] < kappa[-1]


def test_saturation_error_on_net_gain(cavity):
    # physical classes cannot get here (rho_ee < 1/2 keeps kappa_plus below
    # kappa_minus), so a stub table supplies the net gain
    class GainTable:
        def rate_kernel(self, state, out):
            def kernel():
                out[:, 0] = (0.0, 0.0, 2.0 * cavity.kappa0, 0.0)
                return out
            return kernel

    (got,) = _evolve(GainTable(), cavity, [1e10], 1e-3, 3)
    assert isinstance(got, SaturationError)


def test_on_resonance_re_omega_prime_keeps_its_sign_bit(trace_classes,
                                                        cavity):
    """On resonance each class's Omega' weight has a zero imaginary part,
    so Re Omega' = -<a> Im S is -0.0 at every point, alone and in a batch:
    the sign comes from negating +0.0, which a stored -Im S weight summed
    from +0.0 would lose."""
    alone = evolve_ringdown(5e13, trace_classes, cavity, 0.022, 2000,
                            verify=False)
    batch = evolve_table(_rows_table([trace_classes] * 2, cavity), cavity,
                         [5e13, 1e11], 0.022, 2000, verify=[True, False])
    for traj in (alone, *batch):
        assert np.all(traj.omega_prime.real == 0.0)
        assert np.all(np.signbit(traj.omega_prime.real))


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
    omega_tls=hst.floats(-2e7, 2e7).map(lambda d: W0 + d),
    t2=hst.floats(5e-8, 5e-7))

# 1 to 12 rows of (log10 n0, class list), all lists of one size 0 to 12
_batch_rows = hst.integers(0, 12).flatmap(lambda size: hst.lists(
    hst.tuples(hst.floats(3.0, 14.0),
               hst.lists(_row_class, min_size=size, max_size=size)),
    min_size=1, max_size=12))


def _same_trajectory(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("times", "n", "kappa_plus", "kappa_minus",
                            "omega_prime"))


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
    """Row k of a batch is bitwise the trajectory evolve_ringdown returns
    for it alone, whatever the batch size and the other rows."""
    initials = [10.0 ** e for e, _ in rows]
    class_lists = [classes for _, classes in rows]
    table = ClassTable(*class_arrays(class_lists), _BATCH_CAV.omega0,
                       _BATCH_CAV.temperature)
    batch = evolve_table(table, _BATCH_CAV, initials, 0.004, 40,
                         verify=verify)
    solos = [_solo(lambda: evolve_ringdown(i, class_arrays([c]), _BATCH_CAV,
                                           0.004, 40, verify=verify))
             for i, c in zip(initials, class_lists)]
    _check_rows(batch, solos)


@pytest.mark.parametrize("size", [8, 9, 12])
def test_lone_row_sums_its_classes_in_class_order(size):
    """A lone row is bitwise that row in a batch of two, also with 8 or
    more classes, where numpy would sum one column pairwise."""
    classes = [TlsClass.from_t2_star(0.37 * 3.1 ** k, 7.3e8 / 2.3 ** k,
                                     W0 + 1.3e5 * k * (-1) ** k,
                                     1.1e-7 * 1.3 ** k)
               for k in range(size)]
    alone = evolve_ringdown(1e12, class_arrays([classes]), _BATCH_CAV, 0.004,
                            40, verify=False)
    pair = evolve_table(ClassTable(*class_arrays([classes, classes[::-1]]),
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
    for r in (0, 2, 3):
        assert _same_trajectory(batch[r], evolve_ringdown(
            initials[r], rows[r], cavity, 0.01, 800, verify=False))

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
                    out[:, 1] = (0.0, 0.0, 2.0 * cavity.kappa0, 0.0)
                return out
            return kernel

    n0 = np.array([1e12, 1e12, 2e12])
    got = _evolve(GainRow(), cavity, n0, 0.01, 800)
    assert isinstance(got[1], SaturationError)
    assert _same_trajectory(got[0], batch[0])
    assert _same_trajectory(got[2], evolve_ringdown(
        2e12, trace_classes, cavity, 0.01, 800, verify=False))


# --- the halving check in one lockstep loop ---------------------------------

class _FailAt:
    """The rates of a ClassTable, but net gain for a row whose photon number
    equals its target bit for bit (None: never)."""

    def __init__(self, table, targets, kappa0):
        self.table, self.targets, self.kappa0 = table, list(targets), kappa0

    def take(self, rows):
        return _FailAt(self.table.take(rows),
                       [self.targets[r] for r in rows], self.kappa0)

    def rate_kernel(self, state, out):
        sums = self.table.rate_kernel(state, out)
        n = state[0]
        hits = [(c, t) for c, t in enumerate(self.targets) if t is not None]

        def kernel():
            sums()
            for c, target in hits:
                if n[c] == target:
                    out[:, c] = (0.0, 0.0, 2.0 * self.kappa0, 0.0)
            return out
        return kernel


def _two_call_verified(table, cavity, n0, t_final, m_pts, verify):
    """The halving check as two plain lockstep runs: the coarse rows, then
    the verified rows that got through at half the step."""
    coarse = _evolve(table, cavity, n0, t_final, m_pts)
    live = [r for r, res in enumerate(coarse)
            if verify[r] and isinstance(res, Trajectory)]
    if not live:
        return coarse
    m_fine = 2 * (m_pts - 1) + 1
    fine = _evolve(table.take(live), cavity, n0[live], t_final, m_fine)
    for r, ref in zip(live, fine):
        if isinstance(ref, Exception):
            coarse[r] = ref
            continue
        n = coarse[r].n
        dev = float(np.max(np.abs(n - ref.n[::2])
                           / np.maximum(np.abs(n), 1e-30)))
        if dev >= 1e-3:
            coarse[r] = StepConvergenceError(
                "halving dt moved n(t) by %g relative (limit 1e-3)" % dev,
                deviation=dev, resolutions=(m_pts, m_fine))
    return coarse


@pytest.mark.parametrize("m", [2, 10])
def test_fused_verify_matches_two_call_reference(cfg, m):
    cavity, t_final = cfg.cavity, 0.022
    table = _rows_table([cfg.trace_classes()] * 6, cavity)
    # rows: passes; fails halving at m = 10; unverified; coarse pass stops
    # (its twin would pass); twin stops (its coarse pass would pass);
    # unverified and stopped
    n0 = np.array([5e13, 1e9, 1e9, 5e13, 5e13, 1e12])
    verify = [True, True, False, True, True, False]
    j = (m - 2) // 2
    plain = _evolve(table.take([0, 5]), cavity, n0[[0, 5]], t_final, m)
    fine = _evolve(table.take([0]), cavity, n0[:1], t_final, 2 * m - 1)[0]
    targets = [None, None, None, plain[0].n[j], fine.n[2 * j + 1],
               plain[1].n[j]]
    stub = _FailAt(table, targets, cavity.kappa0)
    got = _verified_evolve(stub, cavity, n0, t_final, m, verify)
    ref = _two_call_verified(stub, cavity, n0, t_final, m, verify)
    for a, b in zip(got, ref):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
            if isinstance(b, StepConvergenceError):
                assert a.deviation == b.deviation
                assert a.resolutions == b.resolutions
        else:
            assert _same_trajectory(a, b)
    assert isinstance(got[2], Trajectory)
    assert all(isinstance(got[r], SaturationError) for r in (3, 4, 5))
    coarse_t = np.linspace(0.0, t_final, m)[j]
    fine_t = np.linspace(0.0, t_final, 2 * m - 1)[2 * j + 1]
    assert str(got[3]).endswith("at t = %g" % coarse_t)
    assert str(got[4]).endswith("at t = %g" % fine_t)
    assert str(got[5]).endswith("at t = %g" % coarse_t)
    if m == 10:
        assert isinstance(got[0], Trajectory)
        assert isinstance(got[1], StepConvergenceError)
        assert got[1].resolutions == (10, 19)
        # alone, row 3's twin and row 4's coarse pass get through
        assert isinstance(_evolve(stub.take([3]), cavity, n0[[3]], t_final,
                                  2 * m - 1)[0], Trajectory)
        assert isinstance(_evolve(stub.take([4]), cavity, n0[[4]], t_final,
                                  m)[0], Trajectory)


# --- the lockstep pass against its bitwise per-row reference ----------------

def _classes(size, scale=1.0):
    return [TlsClass.from_t2_star(0.37 * 3.1 ** k * scale, 7.3e8 / 2.3 ** k,
                                  W0 + 1.3e5 * k * (-1) ** k,
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
    return all(_bitwise(got, want) for got, want in zip(
        (traj.n, traj.kappa_plus, traj.kappa_minus, traj.omega_prime), ref))


@pytest.mark.parametrize("size", [7, 9])
def test_lone_row_pass_matches_reference(size):
    """A lone row, stepped beside its discarded padding column, is bitwise
    the per-row reference of the pass."""
    table = ClassTable(*class_arrays([_classes(size)]), _BATCH_CAV.omega0,
                       _BATCH_CAV.temperature)
    traj, = _evolve(table, _BATCH_CAV, [1e12], 0.004, 40)
    ref = _reference_row(table, 0, 1e12, _BATCH_CAV, traj.times)
    assert _matches_reference(traj, ref)


@pytest.mark.parametrize("size", [7, 9])
def test_batch_with_twins_matches_reference(size):
    """Each row of a 3-row batch, and each verify twin at half the step, is
    bitwise the per-row reference on its own grid."""
    lists = [_classes(size), _classes(size)[::-1], _classes(size, 0.2)]
    table = ClassTable(*class_arrays(lists), _BATCH_CAV.omega0,
                       _BATCH_CAV.temperature)
    n0 = [1e12, 3e10, 5e13]
    got = _evolve(table, _BATCH_CAV, n0, 0.004, 40, twins=[0, 2])
    fine = np.linspace(0.0, 0.004, 79)
    for r in range(3):
        assert _matches_reference(got[r], _reference_row(
            table, r, n0[r], _BATCH_CAV, got[r].times))
    for twin, r in zip(got[3:], (0, 2)):
        assert _bitwise(twin, _reference_row(table, r, n0[r], _BATCH_CAV,
                                             fine)[0])


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
                    out[2, c] = -1e-6 * (out[2, c] + out[3, c])
            return out
        return kernel


def test_clamped_rate_inside_the_loop(trace_classes, cavity):
    table = _rows_table([trace_classes] * 3, cavity)
    n0, j = np.array([1e12, 3e11, 5e13]), 7
    plain = _evolve(table, cavity, n0, 0.01, 80)
    target = plain[1].n[j]
    got = _evolve(_ClampAt(table, [None, target, None], cavity.kappa0),
                  cavity, n0, 0.01, 80)
    assert isinstance(got[1], Trajectory)
    assert got[1].kappa_plus[j] == 0.0 and plain[1].kappa_plus[j] > 0.0
    # the redone pass is recorded again: the record holds n, not n(k+1)
    assert got[1].n[j] == target
    assert _bitwise(got[1].n[:j + 1], plain[1].n[:j + 1])
    assert not np.array_equal(got[1].n[j + 1:], plain[1].n[j + 1:])

    def adjust(n, sums):
        if n == target:
            sums[2] = -1e-6 * (sums[2] + sums[3])
        return sums
    assert _matches_reference(got[1], _reference_row(
        table, 1, n0[1], cavity, got[1].times, adjust))
    for r in (0, 2):
        assert _same_trajectory(got[r], evolve_ringdown(
            n0[r], trace_classes, cavity, 0.01, 80, verify=False))


def test_empty_batch_refuses_too_few_steps(trace_classes, cavity):
    empty = _rows_table([trace_classes], cavity).take([])
    with pytest.raises(ValueError, match="m_steps must be >= 2"):
        evolve_table(empty, cavity, [], 0.01, 1)
    assert evolve_table(empty, cavity, [], 0.01, 2) == []
