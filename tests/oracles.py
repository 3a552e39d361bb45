"""Reference implementations and frozen tables used only by the tests.

Everything here is coded directly from the model definitions using numpy
and scipy alone, sharing no code with the package, so agreement between
the two routes is a real cross-check rather than a tautology. Frozen
literals were generated once with mpmath at 40 or more digits (script in the
repository history of the table below) and pasted in.
"""

import math
from dataclasses import dataclass

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


def check_distribution(n_tot, beta, epsilon_s, g_min, g_max, n_classes):
    """Raise the ValueError the package gives for a power-law distribution's
    parameters, checked in the package's order."""
    if not beta > 1.0:
        raise ValueError("beta must be > 1")
    if not 0.0 < g_min < g_max:
        raise ValueError("need 0 < g_min < g_max")
    if not epsilon_s > 0:
        raise ValueError("epsilon_s must be > 0")
    if n_tot < 0:
        raise ValueError("n_tot must be >= 0")
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")


@dataclass(frozen=True)
class TlsClass:
    """One class of identical two-level systems: the scalar form of one
    column of the package's class arrays, with the checks and messages the
    package's sampler gives, in the same order.

    g : single-TLS coupling [1/s]
    count : number of TLS in the class (need not be integer)
    omega_tls : TLS angular frequency [1/s]
    T1 : relaxation time [s]
    T_phi : pure dephasing time [s]
    """

    g: float
    count: float
    omega_tls: float
    T1: float
    T_phi: float

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError("g must be > 0")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if not self.omega_tls > 0:
            raise ValueError("omega_tls must be > 0")
        if not self.T1 > 0 or not self.T_phi > 0:
            raise ValueError("T1 and T_phi must be > 0")

    @classmethod
    def from_t2_star(cls, g, count, omega_tls, t2):
        """T1 = 2 t2, T_phi = (4/3) t2: the zero-temperature T2* is t2."""
        if not t2 > 0:
            raise ValueError("t2 must be > 0")
        return cls(g=g, count=count, omega_tls=omega_tls,
                   T1=2.0 * t2, T_phi=(4.0 / 3.0) * t2)


def by_name(result):
    """A FitResult's values and its 1 sigma, each a dict by parameter
    name."""
    return (dict(zip(result.names, result.values)),
            dict(zip(result.names, result.sigma)))


def class_arrays(class_lists):
    """The package's class arrays (g, count, T1, T_phi, omega_tls), each
    (C, B), whose column b holds the TlsClass list class_lists[b] (all of
    one size C)."""
    fields = [[(c.g, c.count, c.T1, c.T_phi, c.omega_tls) for c in classes]
              for classes in class_lists]
    return tuple(np.reshape(fields, (len(fields), -1, 5)).T)


def class_list(classes, row=0):
    """The TlsClass list of one row of the package's class arrays."""
    g, count, T1, T_phi, omega_tls = (a[:, row].tolist() for a in classes)
    return [TlsClass(*c) for c in zip(g, count, omega_tls, T1, T_phi)]


def with_times(classes, T1, T_phi):
    """Class arrays with one (T1, T_phi) for every class."""
    g, count, _, _, omega_tls = classes
    return (g, count, np.full(g.shape, T1), np.full(g.shape, T_phi),
            omega_tls)


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

def critical_temperature(delta0):
    """T_c from the weak-coupling gap ratio delta0 = 1.764 k_B T_c."""
    return delta0 / (1.764 * KB)


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


def class_sum(values):
    """((0.0 + v0) + v1) + ..., one float addition at a time in index
    order: the package's class-sum order (a sum of -0.0 terms is +0.0, as
    in numpy). numpy's last-axis sum agrees for up to 7 values only; from
    8 on it adds in 8-way pairwise blocks."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def q_tls_temperature(temperature, classes, omega0):
    """omega0 / (kappa_minus - kappa_plus) at n = 0: kappa_plus/minus =
    sum_i w_i rho_ee,i and w_i rho_gg,i with rho_ee = f / (1 + 2f); the
    class sum runs in class order (class_sum), as in the package. Summed
    rates below -1e-3 of their scale raise, smaller negative ones round to
    0."""
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
    kp = float(class_sum(w * ree))
    km = float(class_sum(w * (1.0 - ree)))
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


def switchoff_power(times, params):
    """Reflected power after the drive switches off from the steady state:
    the stored field rings down through the coupler as a pure exponential.
    params is a ReflectionParams."""
    t = np.asarray(times, dtype=float)
    ql = params.q_int * params.q_c / (params.q_int + params.q_c)
    x = 2.0 * ql * params.delta / params.f0
    amp = (2.0 * ql / params.q_c) ** 2 / (1.0 + x * x)
    return params.p_f * amp * np.exp(-2.0 * math.pi * params.f0 / ql * t)


def taubin_circle(z):
    """Algebraic (Taubin) circle fit of one sweep: (center, radius, rms
    residual); None where the points coincide or trace a line."""
    x, y = z.real, z.imag
    xm, ym = float(np.mean(x)), float(np.mean(y))
    u, v = x - xm, y - ym
    q = u * u + v * v
    qm = float(np.mean(q))
    if qm <= 0:
        return None
    z0 = (q - qm) / (2.0 * math.sqrt(qm))
    _, _, vt = np.linalg.svd(np.column_stack([z0, u, v]),
                             full_matrices=False)
    a_, b_, c_ = vt[-1]
    a_coef = a_ / (2.0 * math.sqrt(qm))
    d_coef = -qm * a_coef
    if abs(a_coef) < 1e-12 / (math.sqrt(qm) + 1e-30):
        return None
    center = complex(-b_ / (2.0 * a_coef) + xm, -c_ / (2.0 * a_coef) + ym)
    radius = math.sqrt(max(b_ ** 2 + c_ ** 2 - 4.0 * a_coef * d_coef, 0.0)) \
        / (2.0 * abs(a_coef))
    rms = float(np.sqrt(np.mean((np.abs(z - center) - radius) ** 2)))
    return center, radius, rms


def delay_cost(freqs, s11, tau):
    """rms / radius of the circle through s11 with the delay tau removed
    by its own exp; inf for a degenerate circle."""
    fit = taubin_circle(s11 * np.exp(2j * math.pi * freqs * tau))
    return math.inf if fit is None else fit[2] / fit[1]


def delay_scan(tau0, width):
    """The 161 evenly spaced candidate delays tau0 +- width of the scan."""
    return tau0 + np.linspace(-width, width, 161)


def refine_delay(freqs, s11, tau0, width):
    """Cable delay by a scan of one candidate at a time over delay_scan,
    then golden-section search of the winner's +-1 step bracket down to a
    width of 1e-15 in the inverse unit of freqs."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    taus = delay_scan(tau0, width)
    best = min(taus, key=lambda tau: delay_cost(freqs, s11, tau))
    step = float(taus[1] - taus[0])
    lo, hi = best - step, best + step
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = delay_cost(freqs, s11, c), delay_cost(freqs, s11, d)
    for _ in range(80):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = delay_cost(freqs, s11, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = delay_cost(freqs, s11, d)
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def csv_text(header, rows):
    """A CSV file's text, one cell at a time: the header line, then per row
    the repr of each value as a float, joined by commas."""
    return header + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _moment_rhs(classes, kappa0, omega0, temperature):
    """Right-hand side (dn/dt, d<a>/dt) of the free nonlinear moment system

    dn/dt  = -(kappa0 + km - kp) n - 2 Im(Omega' <a>) + kp + kappa0 f_cav
    d<a>/dt = -(kappa0 + km - kp)/2 <a> - i conj(Omega')

    with the quasi-steady bath rates evaluated at the given state."""
    bath = _Bath(classes, omega0, temperature)
    feed = kappa0 * bose(omega0, temperature)

    def rhs(n, amp):
        kp, km, op = bath.rates(n, amp)
        kt = kappa0 + km - kp
        return (-kt * n - 2.0 * (op * amp).imag + kp + feed,
                -0.5 * kt * amp - 1j * op.conjugate())
    return rhs


def euler_moments(n0, amp0, classes, kappa0, omega0, temperature, t_grid,
                  n_sub=100):
    """First-order Euler integration of the moment system (_moment_rhs),
    rates re-evaluated at every substep. t_grid is the output grid; every
    interval is subdivided n_sub times. Returns the n array on t_grid."""
    rhs = _moment_rhs(classes, kappa0, omega0, temperature)
    n = float(n0)
    amp = complex(amp0)
    out = np.empty(len(t_grid), dtype=float)
    out[0] = n
    for k in range(len(t_grid) - 1):
        h = (t_grid[k + 1] - t_grid[k]) / n_sub
        for _ in range(n_sub):
            dn, da = rhs(n, amp)
            n += h * dn
            amp += h * da
        out[k + 1] = n
    return out


def rk4_moments(n0, amp0, classes, kappa0, omega0, temperature, t_grid):
    """Classical fourth-order Runge-Kutta integration of the moment system
    (_moment_rhs), one step per interval of the output grid t_grid. Returns
    the n array on t_grid."""
    rhs = _moment_rhs(classes, kappa0, omega0, temperature)
    n = float(n0)
    amp = complex(amp0)
    out = np.empty(len(t_grid), dtype=float)
    out[0] = n
    for k in range(len(t_grid) - 1):
        h = t_grid[k + 1] - t_grid[k]
        dn1, da1 = rhs(n, amp)
        dn2, da2 = rhs(n + 0.5 * h * dn1, amp + 0.5 * h * da1)
        dn3, da3 = rhs(n + 0.5 * h * dn2, amp + 0.5 * h * da2)
        dn4, da4 = rhs(n + h * dn3, amp + h * da3)
        n += h / 6.0 * (dn1 + 2.0 * dn2 + 2.0 * dn3 + dn4)
        amp += h / 6.0 * (da1 + 2.0 * da2 + 2.0 * da3 + da4)
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


def pinned_step_row(base, slope, sv, weights, n0, kappa0, feed, times,
                    adjust=None):
    """One row of the pinned lockstep pass, one float operation at a time:
    the bitwise reference of the row's trajectory on the grid times.

    base (2, C), slope (3, C), sv (2, C) and weights (C,) are the row's
    columns of a ClassTable; feed is kappa0 f(omega0, T). adjust, if given,
    maps (n, [Re S, Im S, kappa_plus, kappa_minus]) to the sums the step
    uses instead. Each grid point k, from <a> = sqrt(n), |<a>|^2 = <a> <a>:
        D = base0 + slope0 n, N = base1 + slope1 n, h = slope2 |<a>|^2,
        r = 1 / D, rho_ee = N r, |rho_ge|^2 = (h r) r, rho_gg = 1 - rho_ee,
        S = sv r, kappa_plus = (rho_ee - |rho_ge|^2) w,
        kappa_minus = (rho_gg - |rho_ge|^2) w, each summed over the classes
        in class order (class_sum);
        Im O' = <a> Re S, -Re O' = <a> Im S;
        kt = (kappa_minus + kappa0) - kappa_plus, v1 = kappa_plus + feed,
        q = ((Im O')^2 + (-Re O')^2) / (kt kt),
        a = v1 / kt + 4 q, c = (((Im O' <a>) (-4)) / kt) + (-8) q,
        b = (n - a) - c, e = exp(kt (-dt/2)),
        n(k+1) = (a + b (e e)) + c e.
    A negative rate within 1e-3 of |kappa_plus| + |kappa_minus| is taken as
    0 before the step, n(k+1) in (-1e-25, 0) as 0. A larger negative rate
    or n(k+1), or kt <= 0, raises ValueError. Returns the arrays n,
    kappa_plus, kappa_minus and omega_prime (complex) on times.
    """
    base, slope, sv = (np.asarray(x, dtype=float).tolist()
                       for x in (base, slope, sv))
    weights = np.asarray(weights, dtype=float).tolist()
    classes = range(len(weights))
    decay = -0.5 * float(times[1] - times[0])
    n = float(n0)
    out = []
    for k in range(len(times)):
        amp = math.sqrt(n)
        amp2 = amp * amp
        terms = [[], [], [], []]
        for i in classes:
            r = 1.0 / (base[0][i] + slope[0][i] * n)
            ree = (base[1][i] + slope[1][i] * n) * r
            coh2 = ((slope[2][i] * amp2) * r) * r
            terms[0].append(sv[0][i] * r)
            terms[1].append(sv[1][i] * r)
            terms[2].append((ree - coh2) * weights[i])
            terms[3].append(((1.0 - ree) - coh2) * weights[i])
        sums = [class_sum(t) for t in terms]
        if adjust is not None:
            sums = adjust(n, sums)
        s_re, s_im, kp, km = sums
        o_im, o_re_neg = amp * s_re, amp * s_im
        if kp < 0.0 or km < 0.0:
            scale = abs(kp) + abs(km) + 1e-30
            if min(kp, km) < -1e-3 * scale:
                raise ValueError("rate negative beyond tolerance")
            kp, km = max(kp, 0.0), max(km, 0.0)
        out.append((n, kp, km, complex(-o_re_neg, o_im)))
        if k == len(times) - 1:
            break
        kt = (km + kappa0) - kp
        if not kt > 0.0:
            raise ValueError("net gain: kappa_tilde = %g" % kt)
        q = (o_im * o_im + o_re_neg * o_re_neg) / (kt * kt)
        a = (kp + feed) / kt + 4.0 * q
        c = (((o_im * amp) * -4.0) / kt) + -8.0 * q
        b = (n - a) - c
        e = float(np.exp(kt * decay))
        n = (a + b * (e * e)) + c * e
        if n < 0.0:
            if n <= -1e-25:
                raise ValueError("photon number went negative: %g" % n)
            n = 0.0
    n, kp, km, op = zip(*out)
    return (np.array(n), np.array(kp), np.array(km),
            np.array(op, dtype=complex))


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


# TLS counts of the unit distribution (n_tot = 1) in the 7 logarithmic bins
# of [1e-3, 1e3] (edges np.geomspace(1e-3, 1e3, 8)), keyed by (beta,
# epsilon_s); mpmath at 60 digits. With t = (g/eps')^beta, the count over
# [a, b] is eps'/(beta eps_s) times an incomplete beta integral: the lower
# form betainc(1/beta, 1-1/beta, u(a), u(b)), u = t/(1+t), below the knee
# and the upper form betainc(1-1/beta, 1/beta, v(b), v(a)), v = 1/(1+t),
# above it, a bin holding the knee split there. Neither form computes 1 - u,
# which cancels in the deep tail.
UNIT_BIN_COUNTS = {
    (1.2, 0.01): (
        0.20309416832052763079, 0.22094718335082658929,
        0.1597135774614884536, 0.10838484720636914123,
        0.073084965227938992501, 0.049252293784589785227,
        0.033189477624933799025),
    (1.2, 0.02): (
        0.15814334891099669515, 0.23243968938732431123,
        0.18165178819450243573, 0.12438352026496211901,
        0.083945112909167597006, 0.056575557616339147408,
        0.03812466861733228041),
    (1.2, 0.25): (
        0.023537872393983984948, 0.11733737313135952567,
        0.22938834218751218646, 0.19961233509297317111,
        0.13868604058398827491, 0.093731289690186827754,
        0.063179510322791665577),
    (1.2, 1.0): (
        0.0061344998115431048859, 0.040319556849283550964,
        0.16070937209416958014, 0.23220440825769150029,
        0.18050535370702685113, 0.12351789678598369893,
        0.083355662877181850711),
    (1.2, 3.0): (
        0.0020600051910195585547, 0.014448220355702809165,
        0.082798954162643606373, 0.21360828017945861124,
        0.21517916117588423894, 0.15319692502287647948,
        0.10379584694567793142),
    (1.2, 30.0): (
        2.0652635717728406366e-4, 0.0014838708201427930086,
        0.010493886068258535779, 0.064148049430834125996,
        0.19688850999952428707, 0.22360916109665131912,
        0.16314409120649268867),
    (1.2, 1000.0): (
        6.1968408664317794841e-6, 4.4596670786491709377e-5,
        3.2087093985666277077e-4, 0.0023027609987868808718,
        0.016092731826542971429, 0.0898372898667307181,
        0.21816359157442965296),
    (1.5, 0.01): (
        0.33273550662997633766, 0.33933123756816927501,
        0.14528913811410467666, 0.05460842834419697357,
        0.020364615618161935745, 0.0075912715810587983871,
        0.0028297209146346756794),
    (1.5, 0.02): (
        0.23155318830885579415, 0.39389977415818898182,
        0.2022885409099317152, 0.077163633429938208915,
        0.028798670195372689108, 0.010735655177522740929,
        0.0040018292309085785899),
    (1.5, 0.25): (
        0.02457982109889430314, 0.15440707879843197124,
        0.39620455394773082504, 0.2587769438413011835,
        0.10152574286536606234, 0.037950593129220239818,
        0.014148493248513528297),
    (1.5, 1.0): (
        0.0061903036525928315945, 0.043710673847284412605,
        0.23687663942087835844, 0.39229370216226971734,
        0.19899677845728796021, 0.075819976484140919624,
        0.028295415531175366428),
    (1.5, 3.0): (
        0.0020651980396214305135, 0.014807779471172578284,
        0.099613297560097183915, 0.35849678531344389507,
        0.31590500592094526544, 0.13065567266816821038,
        0.048996054770527286422),
    (1.5, 30.0): (
        2.0656055973299160663e-4, 0.0014864113861793434189,
        0.01067320180212338024, 0.073637161380032270587,
        0.31782233403150525234, 0.3506656937732167834,
        0.15339881815388079561),
    (1.5, 1000.0): (
        6.1968565224856573908e-6, 4.4597861226699394833e-5,
        3.2096061861009913047e-4, 0.002309379877473211441,
        0.016547411858057312291, 0.11004935624673531021,
        0.36974377495109934266),
    (2.0, 0.01): (
        0.43975115931214949943, 0.38320161844029739681,
        0.066986224079184727597, 0.0093607656287004088009,
        0.0013008178012183910084, 1.8074843277518319575e-4,
        2.5114914329515658407e-5),
    (2.0, 0.02): (
        0.27762312182493380025, 0.51902559356386244385,
        0.13171705192356900574, 0.01871521125461901001,
        0.002601618633204289465, 3.6149682002632151247e-4,
        5.0229828536904113863e-5),
    (2.0, 0.25): (
        0.024767882327353927524, 0.1715294227594782721,
        0.54280550357569929895, 0.21917304017633482144,
        0.032476417612612454858, 0.0045185924616703109369,
        6.2787254070741278773e-4),
    (2.0, 1.0): (
        0.0061965509936887345807, 0.044484366939293493418,
        0.28554366796863461065, 0.51444546629675500877,
        0.1273459312117731911, 0.01806726165179321537,
        0.0025114710807101028637),
    (2.0, 3.0): (
        0.0020656075856625080577, 0.014861743930405730151,
        0.1054497896308736218, 0.48342567352457797957,
        0.33109320309831375265, 0.054020871406888102886,
        0.0075339247949968646151),
    (2.0, 30.0): (
        2.0656187967594694631e-4, 0.001486592114138273096,
        0.010697247676238878564, 0.076418199793085987068,
        0.41461225547378841223, 0.40958741201295120856,
        0.074801333657735008396),
    (2.0, 1000.0): (
        6.1968567297057616093e-6, 4.4597889948325738061e-5,
        3.2096458275400012983e-4, 0.0023099205866645433516,
        0.01661838145967377313, 0.11750305577379967871,
        0.5022888096223216007),
    (3.0, 0.01): (
        0.53204156460811272457, 0.35747815875285390058,
        0.010320908582887934489, 1.9959518207834759955e-4,
        3.8535967641004536999e-6, 7.4401306091369818155e-8,
        1.4364643270114741396e-9),
    (3.0, 0.02): (
        0.30276441101421885051, 0.6056104585881681754,
        0.040813818933950522135, 7.9835583927712202417e-4,
        1.5414385767201508114e-5, 2.976052242987054582e-7,
        5.7458573080424380256e-9),
    (3.0, 0.25): (
        0.024787123479946292046, 0.17758474017803742882,
        0.67428183504392102584, 0.11689083665568496266,
        0.0024080484974791290943, 4.6500793019756218364e-5,
        8.9779020317600798418e-7),
    (3.0, 1.0): (
        0.0061968555446704985582, 0.044594710598217632966,
        0.31285371315729424683, 0.59651228971647219466,
        0.038083794329622232942, 7.4398921431802599164e-4,
        1.4364642034925848772e-5),
    (3.0, 3.0): (
        0.0020656188953699953814, 0.014865924096149124614,
        0.10688309443439479009, 0.59855531040254600639,
        0.27047456195951482918, 0.0066903302091211911732,
        1.2928148928087123876e-4),
    (3.0, 30.0): (
        2.0656189099892066338e-4, 0.0014865963314842037955,
        0.010698810309557670756, 0.076969647644289530838,
        0.49380132741823323826, 0.40365093642424529688,
        0.012898270171462983955),
    (3.0, 1000.0): (
        6.1968567300115202518e-6, 4.4597890062297399123e-5,
        3.2096462523065095207e-4, 0.0023099364003628704021,
        0.016624220099538064358, 0.11947831457795690049,
        0.62625274658774733178),
    (3.26, 0.01): (
        0.54522357024704166846, 0.3484190261999271791,
        0.006305306808157776645, 7.2956374536487135264e-5,
        8.4318173591141776068e-7, 9.7449212730077001173e-9,
        1.1262517472904108053e-10),
    (3.26, 0.02): (
        0.30492880603157473651, 0.61481090076128517259,
        0.029907891734473634147, 3.4944926224610489873e-4,
        4.0387685883661329827e-6, 4.6677342808544476128e-8,
        5.394649933680148394e-10),
    (3.26, 0.25): (
        0.024787319014413049258, 0.1779106774827133342,
        0.69317764987226374237, 0.098893325395639982115,
        0.0012167993635160633045, 1.4064447608436415084e-5,
        1.6254735135769914264e-7),
    (3.26, 1.0): (
        0.0061968564360622140107, 0.044596572793552272425,
        0.31527649609462380351, 0.60495439686222905376,
        0.027649225274561293747, 3.2267956360425497648e-4,
        3.7293699467261036822e-6),
    (3.26, 3.0): (
        0.0020656189072765214804, 0.014865951131495437404,
        0.10693349028849765593, 0.61621638487142278669,
        0.25567792008942056118, 0.0038621181113147188385,
        4.4661069285284279746e-5),
    (3.26, 30.0): (
        2.0656189100023417058e-4, 0.0014865963347383360639,
        0.010698817831123547558, 0.076984395384791316831,
        0.50445873129359756802, 0.39792302463114382052,
        0.0081135151442019067575),
    (3.26, 1000.0): (
        6.1968567300115213884e-6, 4.4597890062300360408e-5,
        3.2096462523820190242e-4, 0.0023099364188572837695,
        0.016624261815337776934, 0.11955451784183012182,
        0.64549576691319691131),
    (6.0, 0.01): (
        0.60250014379610492469, 0.29745919120115613545,
        4.0681735164960651448e-5, 2.1071377896718119843e-9,
        1.0913866828658633488e-13, 5.6528096891538849367e-18,
        2.9278584651485519235e-22),
    (6.0, 0.02): (
        0.30969587807183419272, 0.63900370094160243797,
        0.0013003537018470751777, 6.7428408723689683163e-8,
        3.4924373851705592611e-12, 1.808899100529243179e-16,
        9.3691470884753661553e-21),
    (6.0, 0.25): (
        0.024787426916959394628, 0.17838847373140601794,
        0.77286357786652016448, 0.019959455622841473234,
        1.0658070668737204735e-6, 5.5203219620553711255e-11,
        2.8592367823716324068e-15),
    (6.0, 1.0): (
        0.0061968567300113330405, 0.044597889873903906683,
        0.3207765865961832524, 0.62633823146181819223,
        0.0010903788070587901489, 5.6528096515349272085e-8,
        2.9278584651484113906e-12),
    (6.0, 3.0): (
        0.0020656189100038403929, 0.014865963354014049127,
        0.10698812226940138501, 0.70549842941433729982,
        0.1702347957464993835, 1.3736260904249507769e-5,
        7.1146960700625704024e-10),
    (6.0, 30.0): (
        2.0656189100038404791e-4, 0.0014865963354100192925,
        0.010698820841297441772, 0.07699787216055572548,
        0.54593692980939529571, 0.36456873746705186098,
        7.1144476726250107409e-5),
    (6.0, 1000.0): (
        6.1968567300115214372e-6, 4.4597890062300579034e-5,
        3.209646252391816848e-4, 0.0023099364232482305973,
        0.016624281493364374286, 0.11964238375276898665,
        0.74505841400827295409),
    (10.0, 0.01): (
        0.61687357498361701446, 0.28312638990097627892,
        3.5116478244910613579e-8, 6.7799306753492625724e-16,
        1.3089996756882681336e-23, 2.5272827009602475587e-31,
        4.8794189709899118593e-39),
    (10.0, 0.02): (
        0.30984143202526192232, 0.64014058886914290517,
        1.7979105248563590379e-5, 3.4713245057785470782e-13,
        6.702078339523932844e-21, 1.2939687428916467501e-28,
        2.4982625131468348719e-36),
    (10.0, 0.25): (
        0.024787426920046084542, 0.17839155701263142844,
        0.79025360987412700665, 0.0025674061432611044913,
        4.9934374834529870926e-11, 9.6408184088144191174e-19,
        1.8613506206473964482e-26),
    (10.0, 1.0): (
        0.0061968567300115214372, 0.044597890062299807375,
        0.32096255517986620367, 0.62722960830309965707,
        1.3089724470082144998e-5, 2.5272827009601060509e-13,
        4.8794189709899109451e-21),
    (10.0, 3.0): (
        0.0020656189100038404791, 0.014865963354100193007,
        0.10698820840137464226, 0.74367644313661479067,
        0.13207042789012258029, 4.9744505239081792468e-9,
        9.6041603605994416283e-17),
    (10.0, 30.0): (
        2.0656189100038404791e-4, 0.0014865963354100193011,
        0.01069882084130605616, 0.076997880774627528523,
        0.55330796921123763972, 0.35726874157148806877,
        9.6041595115865218567e-8),
    (10.0, 1000.0): (
        6.1968567300115214372e-6, 4.4597890062300579034e-5,
        3.209646252391816848e-4, 0.0023099364232482307857,
        0.016624281493552770946, 0.11964257210851324433,
        0.79163563451352115633),
}

# (beta, epsilon_s, g_lo, g_hi, count) at n_tot = 1, same construction: the
# first window holds the knee eps' = 0.213, the second lies above it.
WINDOW_COUNTS = [
    (3.26, 0.25, 0.001, 1000.0, 0.99599999812350596536),
    (3.26, 0.25, 1.0, 1000000.0, 0.011421895749340275951),
]
