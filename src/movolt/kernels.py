"""Per-eigenvalue forcing functions G^(lam) and kernels K_s^(lam).

Every algorithm here is a stochastic momentum method whose expected loss
obeys a Volterra equation.  Each eigenvalue lam of the Hessian spectrum
contributes a forcing profile G^(lam)(t) with G(0) = 1/2 and a kernel
K_s^(lam)(t) with K_s(s) = lam^2 * Gamma2^2, both solving the same
third-order linear ODE

    J''' + b2(t) J'' + b1(t) J' + b0(t) J = 0

written in the "physical" (phi^2-conjugated) variable, where with
Phi = phi'/phi:

    b2 = 3 (Phi + g2 lam)
    b1 = Phi' + 2 Phi^2 + 8 g2 lam Phi + 4 g1 lam + 2 g2^2 lam^2
    b0 = 2 g2 lam Phi' + 4 lam (Phi + g2 lam) (g1 + g2 Phi)

For constant Phi = theta the ODE has constant coefficients and closed
forms (covers SGD with theta=0, SHB, SDAHB and the mixed g1/g2 variant);
SDANA uses Phi(t) = theta/(1+t) and is integrated by fixed-step RK4.
Evaluating in the conjugated variable keeps states O(1): there is no
phi(t)^2 ~ t^(2 theta) growth anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# series branch threshold for the turning point omega ~ 0
OMEGA_EPS = 1e-8


def snc(omega, x):
    """sin(x*sqrt(omega))/sqrt(omega), continued across omega <= 0."""
    omega = np.asarray(omega, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty(np.broadcast(omega, x).shape)
    om, xx = np.broadcast_arrays(omega, x)
    pos = om > OMEGA_EPS
    neg = om < -OMEGA_EPS
    mid = ~(pos | neg)
    if pos.any():
        s = np.sqrt(om[pos])
        out[pos] = np.sin(xx[pos] * s) / s
    if neg.any():
        s = np.sqrt(-om[neg])
        out[neg] = np.sinh(xx[neg] * s) / s
    if mid.any():
        x2 = xx[mid] ** 2
        out[mid] = xx[mid] * (1.0 - om[mid] * x2 / 6.0 + om[mid] ** 2 * x2**2 / 120.0)
    return out if out.ndim else float(out)


def osc(omega, x):
    """(1 - cos(x*sqrt(omega)))/omega, continued across omega <= 0.

    For omega < 0 this is (1 - cosh(x*sqrt(-omega)))/omega >= 0; near zero
    the series x^2/2 - omega*x^4/24 + omega^2*x^6/720 is used.
    """
    omega = np.asarray(omega, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty(np.broadcast(omega, x).shape)
    om, xx = np.broadcast_arrays(omega, x)
    pos = om > OMEGA_EPS
    neg = om < -OMEGA_EPS
    mid = ~(pos | neg)
    if pos.any():
        out[pos] = (1.0 - np.cos(xx[pos] * np.sqrt(om[pos]))) / om[pos]
    if neg.any():
        out[neg] = (1.0 - np.cosh(xx[neg] * np.sqrt(-om[neg]))) / om[neg]
    if mid.any():
        x2 = xx[mid] ** 2
        out[mid] = x2 / 2.0 - om[mid] * x2**2 / 24.0 + om[mid] ** 2 * x2**3 / 720.0
    return out if out.ndim else float(out)


@dataclass
class KernelSpec:
    """Continuous-time kernel parameters plus the evaluation mode.

    gamma1/gamma2 are the diffusion parameters; theta is the averaging
    rate of phi (phi = e^{theta t} for constant schedules, (1+t)^theta for
    the power schedule used by SDANA).
    """

    algo: str
    gamma1: float
    gamma2: float
    theta: float
    phi_kind: str  # 'const' | 'power'
    mode: str

    def __post_init__(self):
        from .momentum import algorithm  # the table imports this module
        record = algorithm(self.algo)
        if self.mode not in record.modes:
            raise ValueError("mode %r unavailable for %s (allowed: %s)"
                             % (self.mode, self.algo, record.modes))
        if self.phi_kind != record.phi_kind:
            raise ValueError("phi_kind of %s is %r"
                             % (self.algo, record.phi_kind))


# ----------------------------------------------------------------------
# Closed forms for constant Phi = theta (SGD: theta = 0)
# ----------------------------------------------------------------------

def _ic_profile(omega, decay, c0, c1, c2, x):
    """exp(-decay*x) * [c0 + c1*snc(omega,x) + c2*osc(omega,x)], stably.

    c1, c2 are the rho-shifted IC combinations already.  For omega < 0 the
    bracket's hyperbolic growth is folded into the decay (three-exponential
    assembly) so no intermediate overflows for large x.
    """
    x = np.asarray(x, dtype=float)
    if omega < -OMEGA_EPS:
        s = np.sqrt(-omega)
        p0 = c0 + c2 / omega          # c0 - c2/s^2
        pc = -c2 / omega              # cosh coefficient
        ps = c1 / s                   # sinh coefficient
        return (p0 * np.exp(-decay * x)
                + 0.5 * (pc + ps) * np.exp(-(decay - s) * x)
                + 0.5 * (pc - ps) * np.exp(-(decay + s) * x))
    bracket = c0 + c1 * snc(omega, x) + c2 * osc(omega, x)
    return np.exp(-decay * x) * bracket


def _const_phi_forcing(lam, gamma1, gamma2, theta, t):
    """G^(lam)(t) = J0(t)/(2 phi^2), phi = e^(theta t), from the ICs
    J0(0)=1, J0'(0)=2*theta-2*g2*lam, J0''(0)=(2*theta-2*g2*lam)^2-2*g1*lam."""
    if lam == 0.0:
        return np.full_like(np.asarray(t, dtype=float), 0.5)
    rho = gamma2 * lam - theta
    omega = 4.0 * gamma1 * lam - rho * rho
    k0 = 1.0
    k1 = 2.0 * theta - 2.0 * gamma2 * lam          # = -2*rho - ... = -2*(rho)
    k2 = k1 * k1 - 2.0 * gamma1 * lam
    c1 = k1 + rho * k0
    c2 = k2 + 2.0 * rho * k1 + rho * rho * k0
    return 0.5 * _ic_profile(omega, 2.0 * theta + rho, k0, c1, c2, t)


def _const_phi_kernel(lam, gamma1, gamma2, theta, tau):
    """K^(lam)(tau) from the diagonal ICs K(s,s)=g2^2 etc., constant Phi."""
    if lam == 0.0:
        return np.zeros_like(np.asarray(tau, dtype=float))
    rho = gamma2 * lam - theta
    omega = 4.0 * gamma1 * lam - rho * rho
    k0 = gamma2**2
    k1 = 2.0 * gamma2 * gamma1 - 2.0 * gamma2**2 * rho
    k2 = (2.0 * gamma1 * (gamma1 + 3.0 * gamma2 * theta - 4.0 * gamma2**2 * lam)
          + 4.0 * gamma2**2 * rho * rho)
    c1 = k1 + rho * k0
    c2 = k2 + 2.0 * rho * k1 + rho * rho * k0
    return lam * lam * _ic_profile(omega, 2.0 * theta + rho, k0, c1, c2, tau)


# ----------------------------------------------------------------------
# SDANA: third-order ODE in the conjugated variable (RK4, fixed step)
# ----------------------------------------------------------------------

def default_ode_step(gamma2, lam_max):
    """h = min(0.01, 0.1/(1 + gamma2*lam)): keeps the fast mode resolved."""
    return min(0.01, 0.1 / (1.0 + gamma2 * float(lam_max)))


class _Schedule:
    """The momentum law of one phi family: Phi(t) = phi'/phi and its
    derivatives in continuous time, and the per-step decrement Delta(k) of
    the discrete recursion ('const': theta; 'power': theta/(k+n))."""

    def __init__(self, kind, theta):
        self.kind = kind
        self.theta = theta

    def delta(self, k, n):
        k = np.asarray(k, dtype=float)
        if self.kind == "const":
            return np.full_like(k, self.theta)
        return self.theta / (k + n)

    def phi(self, t):
        if self.kind == "const":
            return np.exp(self.theta * np.asarray(t, dtype=float))
        return (1.0 + np.asarray(t, dtype=float)) ** self.theta

    def Phi(self, t):
        if self.kind == "const":
            return self.theta
        return self.theta / (1.0 + t)

    def dPhi(self, t):
        if self.kind == "const":
            return 0.0
        return -self.theta / (1.0 + t) ** 2

    def coeffs(self, t, lam, gamma1, gamma2):
        """(b0, b1, b2) of the conjugated ODE at time t, vectorized in lam."""
        P = self.Phi(t)
        dP = self.dPhi(t)
        g2lam = gamma2 * lam
        b2 = 3.0 * (P + g2lam)
        b1 = dP + 2.0 * P * P + 8.0 * g2lam * P + 4.0 * gamma1 * lam + 2.0 * g2lam**2
        b0 = 2.0 * g2lam * dP + 4.0 * lam * (P + g2lam) * (gamma1 + gamma2 * P)
        return b0, b1, b2


def node_ode_step(gamma2, lams):
    """default_ode_step at the largest of the nodes lams (0 when empty)."""
    lams = np.asarray(lams, dtype=float)
    return default_ode_step(gamma2, lams.max() if lams.size else 0.0)


def rk4_substeps(dt, h_max):
    """RK4 substeps for intervals of length dt (a scalar or an array):
    max(1, ceil(dt/h_max))."""
    return np.maximum(1, np.ceil(np.asarray(dt) / h_max - 1e-12)).astype(int)


# substeps whose stage coefficients are evaluated as one block: bounds the
# (3*chunk, n_lam) coefficient arrays however fine the ODE step
_RK4_CHUNK = 64


def _rk4_segment(u, t0, t1, h_max, rhs):
    """Advance u (shape (..., 3)) from t0 to t1 in classic RK4 steps of at
    most h_max: rk4_substeps(t1 - t0, h_max) equal substeps.

    rhs(times) evaluates the coefficients at a block of stage times at once
    and returns f(j, u), the derivative at times[j].
    """
    nsub = int(rk4_substeps(t1 - t0, h_max))
    h = (t1 - t0) / nsub
    t = t0
    for start in range(0, nsub, _RK4_CHUNK):
        m = min(_RK4_CHUNK, nsub - start)
        # stage times t, t + h/2, t + h, accumulated exactly as a stepping loop
        times = np.empty(3 * m)
        for k in range(m):
            times[3 * k:3 * k + 3] = (t, t + 0.5 * h, t + h)
            t += h
        f = rhs(times)
        for j in range(0, 3 * m, 3):
            k1 = f(j, u)
            k2 = f(j + 1, u + 0.5 * h * k1)
            k3 = f(j + 1, u + 0.5 * h * k2)
            k4 = f(j + 2, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def _make_rhs(lam, gamma1, gamma2, sched):
    """rhs(times) -> f(j, u): u' at times[j] for conjugated states u of
    shape (..., n_lam, 3); any leading stack axes share the per-node
    coefficients, which are evaluated once per call of rhs."""
    lam = np.asarray(lam, dtype=float)

    def rhs(times):
        shape = (len(times),) + lam.shape
        t = np.reshape(times, (-1,) + (1,) * lam.ndim)
        # a const schedule gives coefficients constant in t
        b0, b1, b2 = (np.broadcast_to(b, shape)
                      for b in sched.coeffs(t, lam, gamma1, gamma2))

        def f(j, u):
            du = np.empty_like(u)
            du[..., 0] = u[..., 1]
            du[..., 1] = u[..., 2]
            du[..., 2] = -(b0[j] * u[..., 0] + b1[j] * u[..., 1]
                           + b2[j] * u[..., 2])
            return du

        return f

    return rhs


def forcing_ic(lam, gamma1, gamma2):
    """Conjugated forcing ICs (g, g', g'')(0) = (1, -2*g2*lam, 4*g2^2*lam^2 - 2*g1*lam)."""
    lam = np.asarray(lam, dtype=float)
    ic = np.empty(lam.shape + (3,))
    ic[..., 0] = 1.0
    ic[..., 1] = -2.0 * gamma2 * lam
    ic[..., 2] = 4.0 * gamma2**2 * lam**2 - 2.0 * gamma1 * lam
    return ic


def kernel_ic(lam, gamma1, gamma2, Phi_s):
    """Conjugated kernel ICs at t=s (physical variable q = K_s/lam^2):

    q(s)   = g2^2
    q'(s)  = 2*g2*(g1 - g2^2*lam)
    q''(s) = 2*g1^2 - 8*g1*g2^2*lam + 4*g2^4*lam^2 - 2*g1*g2*Phi(s)
    """
    lam = np.asarray(lam, dtype=float)
    ic = np.empty(lam.shape + (3,))
    ic[..., 0] = gamma2**2
    ic[..., 1] = 2.0 * gamma2 * (gamma1 - gamma2**2 * lam)
    ic[..., 2] = (2.0 * gamma1**2 - 8.0 * gamma1 * gamma2**2 * lam
                  + 4.0 * gamma2**4 * lam**2 - 2.0 * gamma1 * gamma2 * Phi_s)
    return ic


def _ode_on_grid(lam, gamma1, gamma2, sched, grid, ic, h):
    """Integrate the conjugated system, returning component 0 on the grid.

    lam is an array (vectorized over quadrature nodes); grid[0] is the
    start time and ic the conjugated state there.  The first non-finite
    grid value raises NumericalError naming its time.
    """
    lam = np.asarray(lam, dtype=float)
    rhs = _make_rhs(lam, gamma1, gamma2, sched)
    u = np.array(ic, dtype=float)
    out = np.empty((lam.size if lam.ndim else 1, len(grid)))
    out[:, 0] = np.atleast_1d(u[..., 0])
    # an overflow shows up as a non-finite column, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(grid)):
            u = _rk4_segment(u, grid[i - 1], grid[i], h, rhs)
            out[:, i] = np.atleast_1d(u[..., 0])
            if not np.all(np.isfinite(out[:, i])):
                raise NumericalError(
                    "forcing integration went non-finite at t = %.6g; the "
                    "explicit RK4 step %.3g is unstable for gamma1 = %g, "
                    "gamma2 = %g" % (grid[i], h, gamma1, gamma2))
    return out


# ----------------------------------------------------------------------
# SDANA idealized convolution kernel
# ----------------------------------------------------------------------

def sdana_kernel_conv(lam, gamma1, gamma2, tau):
    """Per-lambda integrand of the idealized convolution kernel:

    2*g1^2*lam * exp(-lam*g2*tau) * (1 - cos(phase + sqrt(lam*omega)*tau)) / omega

    with omega = 4*g1 - g2^2*lam and the exact algebraic phase.  The
    omega < 0 branch is evaluated as a sum of decaying exponentials; the
    turning point |omega| < 1e-8 uses the limit
    (sqrt(lam)*tau - 2/sqrt(g1))^2 / 2 for the oscillation factor.
    theta does not enter: it is absorbed by the phi-conjugation of the
    convolution equation.
    """
    tau = np.asarray(tau, dtype=float)
    lam = float(lam)
    if lam == 0.0:
        out = np.zeros_like(tau)
        return out if out.ndim else float(out)
    g1, g2 = float(gamma1), float(gamma2)
    omega = 4.0 * g1 - g2**2 * lam
    sig = np.sqrt(lam)
    # the phase: cos = ((omega - 2 g1)^2 - 2 g1^2) / (2 g1^2) and
    # sin = (omega - 2 g1) g2 sqrt(lam) sqrt(omega) / (2 g1^2); on
    # 0 <= omega <= 4 g1, sqrt(4 g1 - omega) = g2 sqrt(lam) gives
    # cos^2 + sin^2 = 1
    u = omega - 2.0 * g1
    cos_phase = (u * u - 2.0 * g1**2) / (2.0 * g1**2)
    if omega > OMEGA_EPS:
        sin_phase = u * g2 * sig * np.sqrt(omega) / (2.0 * g1**2)
        z = sig * np.sqrt(omega) * tau
        body = 1.0 - cos_phase * np.cos(z) + sin_phase * np.sin(z)
        out = 2.0 * g1**2 * lam * np.exp(-lam * g2 * tau) * body / omega
    elif omega < -OMEGA_EPS:
        s = np.sqrt(-omega)
        # sin(phase) = u*g2*sig*i*s/(2 g1^2); sin(phase)*sin(z) is real:
        hyp = u * g2 * sig * s / (2.0 * g1**2)
        # exp(-lam g2 tau) * cosh/sinh(sig s tau) assembled per exponential
        d_slow = np.exp(-(lam * g2 - sig * s) * tau)
        d_fast = np.exp(-(lam * g2 + sig * s) * tau)
        body = (np.exp(-lam * g2 * tau)
                - 0.5 * (cos_phase + hyp) * d_slow
                - 0.5 * (cos_phase - hyp) * d_fast)
        out = 2.0 * g1**2 * lam * body / omega
    else:
        body = 0.5 * (sig * tau - 2.0 / np.sqrt(g1)) ** 2
        out = 2.0 * g1**2 * lam * np.exp(-lam * g2 * tau) * body
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# Measure-vectorized evaluation (used by the volterra module)
# ----------------------------------------------------------------------

def forcing_matrix(spec, lams, grid, h=None):
    """G^(lam_i)(t_j) as an (n_lam, n_t) matrix."""
    lams = np.asarray(lams, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if spec.phi_kind == "const":
        out = np.empty((lams.size, grid.size))
        for i, lam in enumerate(lams):
            out[i] = _const_phi_forcing(lam, spec.gamma1, spec.gamma2, spec.theta, grid)
        return out
    # SDANA: one vectorized RK4 pass across all nodes
    if h is None:
        h = node_ode_step(spec.gamma2, lams)
    sched = _Schedule("power", spec.theta)
    ic = forcing_ic(lams, spec.gamma1, spec.gamma2)
    return 0.5 * _ode_on_grid(lams, spec.gamma1, spec.gamma2, sched, grid, ic, h)


def kernel_matrix(spec, lams, taus):
    """Convolution kernel values K^(lam_i)(tau_j) as an (n_lam, n_tau) matrix.

    For SDANA this is the idealized convolution integrand (the exact
    kernel is two-time and handled by SdanaExactKernel instead).
    """
    lams = np.asarray(lams, dtype=float)
    taus = np.asarray(taus, dtype=float)
    out = np.empty((lams.size, taus.size))
    for i, lam in enumerate(lams):
        if spec.phi_kind == "const":
            out[i] = _const_phi_kernel(lam, spec.gamma1, spec.gamma2, spec.theta, taus)
        else:
            out[i] = sdana_kernel_conv(lam, spec.gamma1, spec.gamma2, taus)
    return out


class SdanaExactKernel:
    """Separable representation of the exact two-time SDANA kernel.

    K_s(t), aggregated over the spectral measure, solves (per node) the
    conjugated third-order ODE in t with s entering only through the
    initial data at t=s.  The Volterra marcher exploits this: it keeps one
    3-state per node, injects the trapezoid impulse weight*ic(s_j)*psi_j at
    each grid node, and advances everything with RK4 — O(grid) ODE work
    total instead of one solve per (s, t) pair.
    """

    def __init__(self, spec, lams, weights, h=None):
        if spec.mode != "ode_exact":
            raise ValueError("SdanaExactKernel needs an ode_exact spec")
        self.spec = spec
        self.lams = np.asarray(lams, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.sched = _Schedule("power", spec.theta)
        self.h = h if h is not None else node_ode_step(spec.gamma2, self.lams)
        self._rhs = _make_rhs(self.lams, spec.gamma1, spec.gamma2, self.sched)
        # lam^2-weighted aggregation vector: K agg = sum_i w_i lam_i^2 q_i
        self.agg = self.weights * self.lams**2

    def diag(self):
        """Aggregated on-diagonal kernel value K_t(t) = g2^2 * int lam^2 dmu."""
        return float(self.spec.gamma2**2 * np.sum(self.agg))

    def ic(self, s):
        return kernel_ic(self.lams, self.spec.gamma1, self.spec.gamma2,
                         self.sched.Phi(s))

    def advance(self, state, t0, t1):
        """RK4-advance conjugated states of shape (..., n_lam, 3)."""
        if t1 <= t0:
            return state
        return _rk4_segment(state, t0, t1, self.h, self._rhs)

    def aggregate(self, state_component):
        """sum_i w_i lam_i^2 * q_i given the q components (n_lam,)."""
        return float(self.agg @ state_component)
