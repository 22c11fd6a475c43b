"""Per-eigenvalue forcing functions G^(lam) and kernels K_s^(lam).

Every algorithm here is a stochastic momentum method whose expected loss
obeys a Volterra equation.  Each eigenvalue lam of the Hessian spectrum
contributes a forcing profile G^(lam)(t) with G(0) = 1/2 and a kernel
K_s^(lam)(t) with K_s(s) = lam^2 * Gamma2^2.  Both solve one third-order
linear ODE and differ only in their initial data (forcing_ic at t = 0,
kernel_ic at t = s):

    J''' + b2(t) J'' + b1(t) J' + b0(t) J = 0

written in the "physical" (phi^2-conjugated) variable, where with
Phi = phi'/phi:

    b2 = 3 (Phi + g2 lam)
    b1 = Phi' + 2 Phi^2 + 8 g2 lam Phi + 4 g1 lam + 2 g2^2 lam^2
    b0 = 2 g2 lam Phi' + 4 lam (Phi + g2 lam) (g1 + g2 Phi)

The ODE has two evaluators.  For constant Phi its characteristic cubic
factors as (z + d)((z + d)^2 + omega) with d = Phi + g2 lam and
omega = 4 g1 lam - (g2 lam - Phi)^2, and _closed_form solves it from any
initial state: SGD (Phi = 0), SHB, SDAHB and the mixed g1/g2 variant
(Phi = theta), and SDANA's late-time convolution kernel (Phi = 0).
SDANA's power schedule Phi(t) = theta/(1+t) is integrated by fixed-step
RK4 from the same initial data.  Evaluating in the conjugated variable
keeps states O(1): there is no phi(t)^2 ~ t^(2 theta) growth anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# series branch threshold for the turning point omega ~ 0
OMEGA_EPS = 1e-8


@dataclass
class KernelSpec:
    """Continuous-time kernel parameters plus the evaluation mode.

    gamma1/gamma2 are the diffusion parameters; theta is the averaging
    rate of phi (phi = e^{theta t} for constant schedules, (1+t)^theta for
    the power schedule used by SDANA).  AlgoParams.kernel_spec builds it
    from an algorithm's record and checks the mode there.
    """

    gamma1: float
    gamma2: float
    theta: float
    phi_kind: str  # 'const' | 'power'
    mode: str


# ----------------------------------------------------------------------
# Closed form for constant Phi
# ----------------------------------------------------------------------

def _ic_profile(omega, decay, c0, c1, c2, x):
    """exp(-decay*x) * [c0 + c1*snc + c2*osc] for a scalar omega, where
    snc = sin(x sqrt(omega))/sqrt(omega) and osc = (1 - cos(x sqrt(omega)))/omega
    are continued across omega <= 0 and take their series near 0.  Written
    so that nothing cancels for small x sqrt|omega| or overflows for large x.
    """
    x = np.asarray(x, dtype=float)
    if omega < -OMEGA_EPS:
        # omega = -s^2: the growth folds into slow = exp(-(decay - s) x)/2,
        # and with e = expm1(-s x)
        # exp(-decay x) (1, snc, osc) = slow (2 (1 + e), -e (2 + e)/s, -e^2/omega)
        s = np.sqrt(-omega)
        e = np.expm1(-s * x)
        a1 = c1 / s
        return 0.5 * np.exp(-(decay - s) * x) * (
            2.0 * c0 + e * (2.0 * (c0 - a1) - e * (a1 + c2 / omega)))
    if omega > OMEGA_EPS:
        s = np.sqrt(omega)
        snc = np.sin(x * s) / s
        osc = 2.0 * np.sin(0.5 * x * s) ** 2 / omega  # 1 - cos, uncancelled
    else:
        x2 = x**2
        snc = x * (1.0 - omega * x2 / 6.0 + omega**2 * x2**2 / 120.0)
        osc = x2 / 2.0 - omega * x2**2 / 24.0 + omega**2 * x2**3 / 720.0
    return np.exp(-decay * x) * (c0 + c1 * snc + c2 * osc)


def _closed_form(ic, lam, gamma1, gamma2, Phi, x):
    """Component 0 of the conjugated ODE at constant Phi, a lag x after the
    state ic = (u0, u1, u2): with d = Phi + g2*lam, v = e^(d x) u solves
    v''' + omega v' = 0, so v = v(0) + v'(0) snc + v''(0) osc."""
    d = Phi + gamma2 * lam
    omega = 4.0 * gamma1 * lam - (gamma2 * lam - Phi) ** 2
    u0, u1, u2 = ic
    return _ic_profile(omega, d, u0, u1 + d * u0,
                       u2 + 2.0 * d * u1 + d * d * u0, x)


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

    lam and Phi_s broadcast: lam[None, :] against Phi[:, None] gives the
    ICs of every node at a block of times in one call.
    """
    lam = np.asarray(lam, dtype=float)
    ic = np.empty(np.broadcast_shapes(lam.shape, np.shape(Phi_s)) + (3,))
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
                raise nonfinite_forcing(grid[i], h, gamma1, gamma2)
    return out


def nonfinite_forcing(t, h, gamma1, gamma2):
    """The error an RK4 forcing integration raises at its first non-finite
    value, at time t."""
    return NumericalError(
        "forcing integration went non-finite at t = %.6g; the explicit RK4 "
        "step %.3g is unstable for gamma1 = %g, gamma2 = %g"
        % (t, h, gamma1, gamma2))


# ----------------------------------------------------------------------
# Measure-vectorized evaluation (used by the volterra module)
# ----------------------------------------------------------------------

def forcing_matrix(spec, lams, grid, h=None):
    """G^(lam_i)(t_j) as an (n_lam, n_t) matrix: half the ODE's solution
    from forcing_ic, in closed form for constant Phi = theta, else by RK4
    at ODE step h (default node_ode_step)."""
    lams = np.asarray(lams, dtype=float)
    grid = np.asarray(grid, dtype=float)
    ic = forcing_ic(lams, spec.gamma1, spec.gamma2)
    if spec.phi_kind == "const":
        out = np.empty((lams.size, grid.size))
        for i, lam in enumerate(lams):
            out[i] = 0.5 * _closed_form(ic[i], lam, spec.gamma1, spec.gamma2,
                                        spec.theta, grid)
        return out
    # SDANA: one vectorized RK4 pass across all nodes
    if h is None:
        h = node_ode_step(spec.gamma2, lams)
    sched = _Schedule("power", spec.theta)
    return 0.5 * _ode_on_grid(lams, spec.gamma1, spec.gamma2, sched, grid, ic, h)


def kernel_matrix(spec, lams, taus):
    """Convolution kernel values K^(lam_i)(tau_j) as an (n_lam, n_tau)
    matrix: lam^2 times the ODE's closed-form solution from kernel_ic.

    Phi = theta for constant schedules.  For SDANA this is the idealized
    convolution kernel, the late-time limit Phi = 0 (the exact kernel is
    two-time and handled by SdanaExactKernel instead).
    """
    lams = np.asarray(lams, dtype=float)
    taus = np.asarray(taus, dtype=float)
    Phi = spec.theta if spec.phi_kind == "const" else 0.0
    ic = kernel_ic(lams, spec.gamma1, spec.gamma2, Phi)
    out = np.empty((lams.size, taus.size))
    for i, lam in enumerate(lams):
        out[i] = lam * lam * _closed_form(ic[i], lam, spec.gamma1, spec.gamma2,
                                          Phi, taus)
    return out


class SdanaExactKernel:
    """Separable representation of the exact two-time SDANA kernel.

    K_s(t), aggregated over the spectral measure, solves (per node) the
    conjugated third-order ODE in t with s entering only through the
    initial data at t=s.  The Volterra marcher exploits this: it keeps one
    3-state per node and march pass, injects the trapezoid impulse
    weight*ic(s_j)*psi_j at each grid node, and advances everything with
    RK4 — O(grid) ODE work total instead of one solve per (s, t) pair.
    The forcing solves the same ODE from forcing_ic, so its states ride in
    the same stack: one advance per half-step interval carries the forcing
    and both march passes.
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
        """Kernel ICs of every node at time s, or at each of an array of
        times (shape s.shape + (n_lam, 3))."""
        Phi = np.expand_dims(self.sched.Phi(np.asarray(s, dtype=float)), -1)
        return kernel_ic(self.lams, self.spec.gamma1, self.spec.gamma2, Phi)

    def advance(self, state, t0, t1):
        """RK4-advance conjugated states of shape (..., n_lam, 3)."""
        if t1 <= t0:
            return state
        return _rk4_segment(state, t0, t1, self.h, self._rhs)

    def aggregate(self, state_component):
        """sum_i w_i lam_i^2 * q_i given the q components (n_lam,)."""
        return float(self.agg @ state_component)
