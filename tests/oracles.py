"""Reference implementations and frozen tables used only by the tests.

Everything here is coded directly from the model definitions using numpy
and scipy alone, sharing no code with the package, so agreement between
the two routes is a real cross-check rather than a tautology. Frozen
literals were generated once with mpmath at 40 digits (script in the
repository history of the table below) and pasted in.
"""

import math

import numpy as np
import scipy.special
from scipy.integrate import solve_ivp

HBAR = 1.054571817e-34
KB = 1.380649e-23
MU_0 = 1.25663706212e-6


def bose(omega, temperature):
    # k_B T underflows to 0 for subnormal T: the T -> 0 limit
    if KB * temperature <= 0.0:
        return 0.0
    x = HBAR * omega / (KB * temperature)
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def t2_eff(T1, T_phi, omega, temperature):
    return 1.0 / ((0.5 + bose(omega, temperature)) / T1 + 1.0 / T_phi)


class TlsState:
    """Quasi-steady (rho_ee, rho_ge) of one TLS class, checked for
    positivity: |rho_ge|^2 <= rho_ee rho_gg up to the 1% overshoot of the
    quasi-steady closed forms."""

    def __init__(self, rho_ee, rho_ge):
        if not 0.0 <= rho_ee <= 1.0:
            raise ValueError("rho_ee must lie in [0, 1]")
        bound = rho_ee * (1.0 - rho_ee)
        if abs(rho_ge) ** 2 > bound * 1.01 + 1e-30:
            raise ValueError("|rho_ge|^2 exceeds rho_ee*rho_gg beyond 1%")
        self.rho_ee = rho_ee
        self.rho_ge = rho_ge


def tls_steady_state(cls, n, temperature, omega0=None):
    """Scalar steady state of one class under n photons, amplitude sqrt(n).

    D = |chi|^2 (1 + 2f) + g^2 n T1 T2*, rho_ee = (|chi|^2 f + g^2 n T1
    T2*/2) / D, rho_ge = i chi g sqrt(n) T2* / D; omega0 = None puts the
    class on resonance (chi = 1).
    """
    f = bose(cls.omega_tls, temperature)
    t2 = t2_eff(cls.T1, cls.T_phi, cls.omega_tls, temperature)
    x = 1.0 if omega0 is None else complex(1.0, (cls.omega_tls - omega0) * t2)
    ax2 = abs(x) ** 2
    sat = cls.g * cls.g * n * cls.T1 * t2
    d = ax2 * (1.0 + 2.0 * f) + sat
    return TlsState((ax2 * f + 0.5 * sat) / d,
                    1j * x * cls.g * math.sqrt(n) * t2 / d)


def state_rates(cls, state, omega0, temperature):
    """(kappa_plus, kappa_minus, Omega'_bath) of one class in the given
    state: weight w = 2 N g^2 T2* / |chi|^2 on rho_ee - |rho_ge|^2 and
    rho_gg - |rho_ge|^2; Omega' = N g rho_ge. No clamping."""
    t2 = t2_eff(cls.T1, cls.T_phi, cls.omega_tls, temperature)
    ax2 = 1.0 + ((cls.omega_tls - omega0) * t2) ** 2
    w = 2.0 * cls.count * cls.g * cls.g * t2 / ax2
    coh2 = abs(state.rho_ge) ** 2
    return (w * (state.rho_ee - coh2), w * (1.0 - state.rho_ee - coh2),
            cls.count * cls.g * state.rho_ge)


class _Bath:
    """Per-class coefficient arrays for the quasi-steady rate formulas."""

    def __init__(self, classes, omega0, temperature):
        g = np.array([c.g for c in classes], dtype=float)
        count = np.array([c.count for c in classes], dtype=float)
        T1 = np.array([c.T1 for c in classes], dtype=float)
        t2 = np.array([t2_eff(c.T1, c.T_phi, c.omega_tls, temperature)
                       for c in classes], dtype=float)
        f = np.array([bose(c.omega_tls, temperature) for c in classes],
                     dtype=float)
        om = np.array([c.omega_tls for c in classes], dtype=float)
        x = 1.0 + 1j * (om - omega0) * t2
        ax2 = np.abs(x) ** 2
        self.phi = ax2 * (1.0 + 2.0 * f)
        self.pop0 = ax2 * f
        self.sat = g * g * T1 * t2
        self.w = 2.0 * count * g * g * t2 / ax2
        self.cohw = ax2 * (g * t2) ** 2
        self.svec = count * g * g * t2 * x

    def rates(self, n, amp):
        """(kappa_plus, kappa_minus, Omega'_bath) at photon number n and
        complex amplitude amp. No clamping; raw sums."""
        d = self.phi + self.sat * n
        inv = 1.0 / d
        ree = (self.pop0 + 0.5 * self.sat * n) * inv
        amp2 = amp.real * amp.real + amp.imag * amp.imag
        coh2 = self.cohw * amp2 * inv * inv
        kp = float(np.dot(self.w, ree - coh2))
        km = float(np.dot(self.w, 1.0 - ree - coh2))
        op = 1j * np.conj(amp) * complex(np.sum(self.svec * inv))
        return kp, km, op


# Superconductor and Q(T) forms at one temperature, coded point by point:
# the bitwise references of the package's temperature-array functions. A
# temperature whose k_B T underflows to 0 takes the T = 0 forms.

def gap(temperature, delta0):
    kt = KB * temperature
    if kt == 0.0:
        return delta0
    x = kt / delta0
    return delta0 * (1.0 - math.sqrt(2.0 * math.pi * x) * math.exp(-1.0 / x))


def conductivity(temperature, omega, sc):
    hw = HBAR * omega
    d = gap(temperature, sc.delta0)
    if hw >= 2.0 * d:
        raise ValueError("pair-breaking regime")
    kt = KB * temperature
    if kt == 0.0:
        return 0.0, sc.sigma_n * math.pi * d / hw
    y = hw / (2.0 * kt)
    quench = 0.5 * (math.exp(y - d / kt) - math.exp(-y - d / kt))
    sigma1 = sc.sigma_n * (4.0 * d / hw) * quench * float(scipy.special.k0(y))
    sigma2 = sc.sigma_n * (math.pi * d / hw) * math.tanh(0.5 * d / kt)
    return sigma1, sigma2


def freq_shift(temperature, sc, omega):
    if temperature == 0.0:
        return 0.0
    _, s2 = conductivity(temperature, omega, sc)
    s2_zero = sc.sigma_n * math.pi * sc.delta0 / (HBAR * omega)
    return sc.alpha * (s2 - s2_zero) / (2.0 * s2)


def q_qp(temperature, sc, omega):
    s1, s2 = conductivity(temperature, omega, sc)
    if s1 == 0.0:
        return math.inf
    mod = math.hypot(s1, s2)
    rs = math.sqrt((mod + s2) * omega * MU_0 / 2.0)
    return sc.g_factor * mod * mod / (s1 * rs)


def q_tls_temperature(temperature, classes, omega0):
    """omega0 / (kappa_minus - kappa_plus) at n = 0: kappa_plus/minus =
    sum_i w_i rho_ee,i and w_i rho_gg,i with rho_ee = f / (1 + 2f); the
    class sum is numpy's, as in the package. Summed rates below -1e-3 of
    their scale raise, smaller negative ones round to 0."""
    cgt, f, x = [], [], []
    for c in classes:
        t2 = t2_eff(c.T1, c.T_phi, c.omega_tls, temperature)
        cgt.append(c.count * c.g * c.g * t2)
        f.append(bose(c.omega_tls, temperature))
        x.append(complex(1.0, (c.omega_tls - omega0) * t2))
    cgt, f = np.array(cgt, dtype=float), np.array(f, dtype=float)
    ax2 = np.abs(np.array(x, dtype=complex)) ** 2
    w = 2.0 * cgt / ax2
    ree = ax2 * f * (1.0 / (ax2 * (1.0 + 2.0 * f)))
    kp, km = float(np.sum(w * ree)), float(np.sum(w * (1.0 - ree)))
    scale = abs(kp) + abs(km) + 1e-30
    if min(kp, km) < -1e-3 * scale:
        raise ValueError("rate negative beyond tolerance")
    k_tls = max(km, 0.0) - max(kp, 0.0)
    return math.inf if k_tls <= 0.0 else omega0 / k_tls


def q_int_temperature(temperature, sc, classes, omega0):
    qt = q_tls_temperature(temperature, classes, omega0)
    qq = q_qp(temperature, sc, omega0)
    inv = (0.0 if math.isinf(qt) else 1.0 / qt) + \
          (0.0 if math.isinf(qq) else 1.0 / qq)
    return math.inf if inv == 0.0 else 1.0 / inv


def euler_moments(n0, amp0, classes, kappa0, omega0, temperature, t_grid,
                  n_sub=100, omega_ext=0.0, pinned=False):
    """First-order Euler integration of the nonlinear moment system.

    dn/dt  = -(kappa0 + km - kp) n - 2 Im(Omega' <a>) + kp + kappa0 f_cav
    d<a>/dt = -(kappa0 + km - kp)/2 <a> - i conj(Omega')

    with the quasi-steady bath rates re-evaluated at every substep. t_grid
    is the output grid; every interval is subdivided n_sub times. pinned
    resets <a> to sqrt(n) before each substep (the recursion's convention).
    Returns the n array on t_grid.
    """
    bath = _Bath(classes, omega0, temperature)
    f_cav = bose(omega0, temperature)
    feed = kappa0 * f_cav
    n = float(n0)
    amp = complex(amp0)
    out = np.empty(len(t_grid), dtype=float)
    out[0] = n
    for k in range(len(t_grid) - 1):
        h = (t_grid[k + 1] - t_grid[k]) / n_sub
        for _ in range(n_sub):
            if pinned:
                amp = complex(math.sqrt(max(n, 0.0)), 0.0)
            kp, km, op_bath = bath.rates(n, amp)
            op = complex(omega_ext) + op_bath
            kt = kappa0 + km - kp
            dn = -kt * n - 2.0 * (op * amp).imag + kp + feed
            da = -0.5 * kt * amp - 1j * op.conjugate()
            n += h * dn
            amp += h * da
        out[k + 1] = n
    return out


def pinned_limit_ode(n0, classes, kappa0, omega0, temperature, t_grid,
                     rtol=1e-10):
    """Scalar ODE that is the dt -> 0 limit of the pinned recursion.

    dn/dt = -(kappa0 + km - kp + 2 Re S) n + kp + kappa0 f_cav, with the
    rates evaluated at amplitude sqrt(n). Integrated with an adaptive RK
    method as a second, discretization-free reference route.
    """
    bath = _Bath(classes, omega0, temperature)
    feed = kappa0 * bose(omega0, temperature)

    def rhs(t, y):
        n = max(y[0], 0.0)
        amp = complex(math.sqrt(n), 0.0)
        kp, km, op = bath.rates(n, amp)
        coh = -2.0 * (op * amp).imag
        return [-(kappa0 + km - kp) * n + coh + kp + feed]

    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), [float(n0)], t_eval=t_grid,
                    rtol=rtol, atol=1e-300, method="RK45")
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[0]


def lindblad_step(g, T1, T_phi, kappa0, alpha, dt, dim=22, rho_tls=None,
                  rtol=1e-9):
    """Exact one-TLS Fock-space master equation over one step at T = 0.

    Cavity starts in the coherent state |alpha>, the TLS in rho_tls (a 2x2
    array in the (ground, excited) basis; defaults to the ground state).
    Returns (n_initial, n_final) photon-number expectations.
    """
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    n_op = a.conj().T @ a
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
    A = np.kron(a, np.eye(2))
    Sm = np.kron(np.eye(dim), sm)
    Sp = Sm.conj().T
    N_op = np.kron(n_op, np.eye(2))
    H = g * (A @ Sp + A.conj().T @ Sm)
    lind = [(kappa0, A), (1.0 / T1, Sm),
            (1.0 / (2.0 * T_phi), np.kron(np.eye(dim), sz))]

    def rhs(t, y):
        rho = y.reshape(2 * dim, 2 * dim)
        drho = -1j * (H @ rho - rho @ H)
        for rate, L in lind:
            LdL = rate * (L.conj().T @ L)
            drho += rate * (L @ rho @ L.conj().T) \
                - 0.5 * (LdL @ rho + rho @ LdL)
        return drho.ravel()

    amps = np.array([math.exp(-abs(alpha) ** 2 / 2.0) * alpha ** k
                     / math.sqrt(math.factorial(k)) for k in range(dim)],
                    dtype=complex)
    rho_c = np.outer(amps, amps.conj())
    if rho_tls is None:
        rho_tls = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho0 = np.kron(rho_c, np.asarray(rho_tls, dtype=complex))
    n_init = float(np.real(np.trace(n_op @ rho_c)))
    sol = solve_ivp(rhs, (0.0, dt), rho0.ravel(), rtol=rtol, atol=1e-12)
    if not sol.success:
        raise RuntimeError(sol.message)
    rho_f = sol.y[:, -1].reshape(2 * dim, 2 * dim)
    return n_init, float(np.real(np.trace(N_op @ rho_f)))


# K0(x) at 50 log-spaced points over [1e-3, 30], mpmath besselk, 40 digits.
K0_TABLE = [
    (0.001, 7.0236888005623813436),
    (0.0012341553253454693, 6.8133029808343167220),
    (0.0015231393670785815, 6.6029176262570915096),
    (0.001879790561123359, 6.3925329582449147201),
    (0.002319953531544542, 6.1821493025730240749),
    (0.0028631830055097247, 5.9717671379730660303),
    (0.0035336125536884733, 5.7613871670119750374),
    (0.004361026750842233, 5.5510104192699995894),
    (0.005382184388525997, 5.3406384012144963613),
    (0.006642451525090609, 5.1302733133901434144),
    (0.008197816923039709, 4.9199183643430009919),
    (0.010117379411776668, 4.7095782230548342391),
    (0.012486417679584787, 4.4992596689066638137),
    (0.015410178873747385, 4.2889725220482586692),
    (0.019018554321561583, 4.0787309697348949460),
    (0.02347185009632732, 3.8685554484304787094),
    (0.028967908792092947, 3.6584753004538847890),
    (0.03575089889988335, 3.4485325010733244800),
    (0.04412216226317853, 3.2387868502853141568),
    (0.054453601522858684, 3.0293231445639583000),
    (0.06720420230367621, 2.8202609854171297917),
    (0.08294042415867627, 2.6117680339129818174),
    (0.10236136616184238, 2.4040776600500061109),
    (0.12632982515827532, 2.1975120164446165741),
    (0.15591062646904755, 1.9925115043044132110),
    (0.19241792993472334, 1.7896712594744486897),
    (0.23747361292089023, 1.5897844597078408280),
    (0.2930793240153453, 1.3938906531601782545),
    (0.3617054084821888, 1.2033245841471511668),
    (0.4464006560845516, 1.0197568248545903863),
    (0.5509277469444608, 0.84521183524178141079),
    (0.6799304127720882, 0.68204245700884442915),
    (0.8391397397870158, 0.53283421271384703534),
    (1.035628778567157, 0.40021211823985307480),
    (1.2781267721496807, 0.28653339379733594438),
    (1.577406962315144, 0.19347881913464068424),
    (1.9467652027782552, 0.12160694089933918943),
    (2.4026106422060365, 0.069999123686039909074),
    (2.965194718810278, 0.036166741085807731323),
    (3.6595108529059663, 0.016361395221360897361),
    (4.516404807273439, 0.0062848085308003220328),
    (5.573945044312394, 0.0019735580822663250328),
    (6.8791139596211295, 0.00048344044082394081153),
    (8.489895126924784, 0.000087184072452446777160),
    (10.477849282518772, 0.000010776962563979649442),
    (12.931293490187748, 8.3599189174034447516e-7),
    (15.959224724520412, 3.6496350185076511557e-8),
    (19.696162182151948, 7.8387155191658071802e-10),
    (24.308123445970867, 7.0163484705458529062e-12),
    (30.00000000000001, 2.1324774964630346938e-14),
]
