"""Per-eigenvalue forcing functions G^(lam) and kernels K_s^(lam).

Every algorithm here is a stochastic momentum method whose expected loss
obeys a Volterra equation.  Each eigenvalue lam of the Hessian spectrum
contributes a forcing profile G^(lam)(t) with G(0) = 1/2 and a kernel
K_s^(lam)(t) with K_s(s) = lam^2 * Gamma2^2.  Both are second moments of
one linear 2-d system, the homogenized drift of a residual coordinate rho
and its momentum coordinate omega, with Phi = phi'/phi:

    (rho, omega)' = B(t) (rho, omega),   B(t) = [[-g2 lam, -g1],
                                                  [lam,    -Phi(t)]]

Each is carried as the moment triple S = (rho^2, rho omega, omega^2),
which solves S' = B S + S B^T.  The forcing is G = S_0/2 from forcing_ic,
the unit residual (1, 0, 0) at t = 0; the kernel is K_s = lam^2 S_0 from
kernel_ic, the gradient-noise impulse (rho, omega) = (-g2, 1), i.e.
S = (g2^2, -g2, 1), at t = s.  Both initial states are constants.

There are two evaluators.  For constant Phi, both initial states are
rank one, e0 e0^T and v v^T with v = (-g2, 1), so with (m11, m12) the first
row of exp(x B) a lag x later, G = m11^2/2 and K = lam^2 (m12 - g2 m11)^2.
_first_row evaluates that row in closed form for SGD (Phi = 0), SHB, SDAHB
and the mixed g1/g2 variant (Phi = theta), and SDANA's late-time
convolution kernel (Phi = 0).  SDANA's power schedule Phi(t) = theta/(1+t)
is carried by propagate: S -> M S M^T per step, M the closed-form 2x2
exponential of a fourth-order Magnus step of B.  Every state stays O(1):
there is no phi(t)^2 ~ t^(2 theta) growth anywhere.  Fixed-step RK4 on the
moment ODE (_ode_on_grid) is kept as the oracle the tests check both
against.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericalError


@dataclass
class KernelSpec:
    """An algorithm's continuous-time law plus the evaluation mode.

    gamma1/gamma2 are the diffusion parameters; theta is the averaging
    rate of phi, e^{theta t} for the closed-form (constant-Phi) records
    and (1+t)^theta, SDANA's power schedule, for the others.
    AlgoParams.kernel_spec builds it from an algorithm's record and checks
    the mode there.
    """

    gamma1: float
    gamma2: float
    theta: float
    mode: str

    @property
    def phi_kind(self):
        """'const' (Phi = theta) for closed_form, else 'power'."""
        return "const" if self.mode == "closed_form" else "power"

    def phi(self, t):
        """phi at times t: e^{theta t} or (1+t)^theta."""
        if self.phi_kind == "const":
            return np.exp(self.theta * np.asarray(t, dtype=float))
        return (1.0 + np.asarray(t, dtype=float)) ** self.theta

    def Phi(self, t):
        """phi'/phi at time t."""
        if self.phi_kind == "const":
            return self.theta
        return self.theta / (1.0 + t)


# ----------------------------------------------------------------------
# Constant Phi: the first row of exp(x B)
# ----------------------------------------------------------------------

def _first_row(lam, g1, g2, Phi, x, impulse=False):
    """(m11, m12), the first row of exp(x B) at constant Phi, for one lam on
    a grid x >= 0; with impulse set, rho = m12 - g2 m11 instead, the row
    applied to kernel_ic's impulse (-g2, 1).

    With m = -(g2 lam + Phi)/2, u = (Phi - g2 lam)/2 and p = -g1 lam,
    B = m I + N with N^2 = disc I, disc = u^2 + p, so for s = sqrt|disc|
    exp(x B) = e^(m x) (cosh(s x) I + sinh(s x)/s N), with cos and sin when
    disc < 0.  So m12 = -g1 S with S = e^(m x) sinh(s x)/s, and
    m11 = E + w S with E = e^((m - s) x) and w = s + u, or E = e^(m x)
    cos(s x) and w = u; rho = -g2 E - c S with c = g2 w + g1.  Nothing
    cancels: S takes expm1, the slow rate m + s is det B/(m - s) with
    det B = lam (g2 Phi + g1), and where u < 0, w = p/(s - u) and
    c = g1 (m + s)/(s - u).
    """
    x = np.asarray(x, dtype=float)
    m = -0.5 * (g2 * lam + Phi)
    u = 0.5 * (Phi - g2 * lam)
    p = -g1 * lam
    disc = u * u + p
    if 16.0 * abs(disc) < u * u - p:
        # near the turning point the two terms cancel: evaluate disc exactly
        disc = float((Fraction(Phi) - Fraction(g2) * Fraction(lam)) ** 2 / 4
                     - Fraction(g1) * Fraction(lam))
    s = np.sqrt(abs(disc))
    # an overflow shows up as a non-finite value, which the solver refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if disc < 0.0:
            em = np.exp(m * x)
            E, S = em * np.cos(s * x), em * np.sin(s * x) / s
            w, c = u, g2 * u + g1
        else:
            E = np.exp((m - s) * x)
            # m - s < 0 unless lam = Phi = 0, where m + s = 0
            slow = lam * (g2 * Phi + g1) / (m - s) if m < s else 0.0
            w = p / (s - u) if u < 0.0 else s + u
            c = g1 * slow / (s - u) if u < 0.0 else g2 * w + g1
            if w == 0.0 and g1 == 0.0:      # SGD: S never enters
                return -g2 * E if impulse else (E, np.zeros_like(x))
            if s == 0.0:
                S = x * np.exp(m * x)
            else:
                S = np.exp(slow * x) * np.expm1(-2.0 * s * x) * (-0.5 / s)
        if impulse:
            return -g2 * E - c * S
        return E + w * S, -g1 * S


# ----------------------------------------------------------------------
# SDANA: the power schedule, one exact 2x2 exponential per step
# ----------------------------------------------------------------------

# longest step the propagator takes in one piece: one step per half-step
# interval of the default grid
PROPAGATOR_STEP = 0.05

# the Gauss points of the Magnus step sit at (1/2 -+ _GAUSS) of the step
_GAUSS = np.sqrt(3.0) / 6.0


def _substeps(dt, h_max):
    """Equal steps covering an interval of length dt: max(1, ceil(dt/h_max))."""
    return max(1, int(np.ceil(dt / h_max - 1e-12)))


def _magnus_exp(lam, spec, t, h):
    """Entries (m11, m12, m21, m22), over lam, of M = exp(Omega), Omega the
    fourth-order Magnus step of B from t to t + h (Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 2009): Omega = h (B1 + B2)/2 + (sqrt(3)/12) h^2
    [B2, B1], with B1, B2 at the two Gauss points.  Only Phi varies, so
    [B2, B1] = (Phi2 - Phi1) [[0, -g1], [-lam, 0]].

    With Omega = m I + N, N^2 = disc I, M = e^m (cosh(s) I + sinh(s)/s N)
    for disc = s^2 > 0, with cos and sin when disc < 0.  The hyperbolic
    branch is written with e^(m + s) and expm1(-2 s) so that it does not
    overflow where e^m cosh(s) is finite; sinc covers disc = 0.
    """
    P1 = spec.Phi(t + (0.5 - _GAUSS) * h)
    P2 = spec.Phi(t + (0.5 + _GAUSS) * h)
    kappa = np.sqrt(3.0) / 12.0 * h * h * (P2 - P1)
    o11 = -h * spec.gamma2 * lam
    o12 = -spec.gamma1 * (h + kappa)
    o21 = lam * (h - kappa)
    o22 = -0.5 * h * (P1 + P2)
    m = 0.5 * (o11 + o22)
    u = 0.5 * (o11 - o22)
    disc = u * u + o12 * o21
    s = np.sqrt(np.abs(disc))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grow = 0.5 * np.exp(m + s)
        hyper = disc > 0.0
        cos = np.where(hyper, grow * (1.0 + np.exp(-2.0 * s)),
                       np.exp(m) * np.cos(s))
        sin = np.where(hyper, -grow * np.expm1(-2.0 * s) / s,
                       np.exp(m) * np.sinc(s / np.pi))
    return cos + sin * u, sin * o12, sin * o21, cos - sin * u


def propagate(state, lam, spec, t0, t1, h_max):
    """Carry moment states of shape (..., n_lam, 3) from t0 to t1 in
    _substeps(t1 - t0, h_max) equal Magnus steps, each S -> M S M^T:

        (a, b, c) -> (m11^2 a + 2 m11 m12 b + m12^2 c,
                      m11 m21 a + (m11 m22 + m12 m21) b + m12 m22 c,
                      m21^2 a + 2 m21 m22 b + m22^2 c)

    Leading stack axes share each step's M.
    """
    nsub = _substeps(t1 - t0, h_max)
    h = (t1 - t0) / nsub
    for k in range(nsub):
        m11, m12, m21, m22 = _magnus_exp(lam, spec, t0 + k * h, h)
        a, b, c = state[..., 0], state[..., 1], state[..., 2]
        state = np.stack(
            [m11 * (m11 * a + 2.0 * m12 * b) + m12 * m12 * c,
             m11 * (m21 * a + m22 * b) + m12 * (m21 * b + m22 * c),
             m21 * (m21 * a + 2.0 * m22 * b) + m22 * m22 * c], axis=-1)
    return state


def forcing_ic(lam):
    """Forcing moment state at t = 0, (rho^2, rho omega, omega^2) = (1, 0, 0),
    for every node of lam."""
    ic = np.zeros(np.shape(lam) + (3,))
    ic[..., 0] = 1.0
    return ic


def kernel_ic(lam, gamma2):
    """Kernel moment state at its birth time s: the gradient-noise impulse
    (rho, omega) = (-g2, 1), so (g2^2, -g2, 1) for every node of lam and
    every s."""
    ic = np.empty(np.shape(lam) + (3,))
    ic[...] = (gamma2 * gamma2, -gamma2, 1.0)
    return ic


def nonfinite_forcing(t, spec):
    """The error a power-schedule forcing raises at its first non-finite
    value, at time t."""
    return NumericalError(
        "forcing integration went non-finite at t = %.6g; gamma1 = %g, "
        "gamma2 = %g or theta = %g is too large for double precision"
        % (t, spec.gamma1, spec.gamma2, spec.theta))


def _states_on_grid(advance, ic, grid, spec):
    """Component 0 of the states advance(u, t0, t1) carries from ic at
    grid[0] along the grid, as (n_lam, n_t); the first non-finite grid
    value raises nonfinite_forcing naming its time."""
    u = np.array(ic, dtype=float)
    out = np.empty((u[..., 0].size, len(grid)))
    out[:, 0] = np.ravel(u[..., 0])
    # an overflow shows up as a non-finite column, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(grid)):
            u = advance(u, grid[i - 1], grid[i])
            out[:, i] = np.ravel(u[..., 0])
            if not np.all(np.isfinite(out[:, i])):
                raise nonfinite_forcing(grid[i], spec)
    return out


# ----------------------------------------------------------------------
# Oracle: classic RK4 on the moment ODE
# ----------------------------------------------------------------------

def default_ode_step(gamma2, lam_max):
    """The oracle's RK4 step, h = min(0.01, 0.1/(1 + gamma2*lam)): keeps the
    fast mode resolved."""
    return min(0.01, 0.1 / (1.0 + gamma2 * float(lam_max)))


def _rk4_segment(u, t0, t1, h_max, rhs):
    """Advance u from t0 to t1 in _substeps(t1 - t0, h_max) equal classic RK4
    steps; rhs(t, u) is the derivative at time t."""
    nsub = _substeps(t1 - t0, h_max)
    h = (t1 - t0) / nsub
    for k in range(nsub):
        t = t0 + k * h
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(t + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def _ode_on_grid(lam, spec, grid, ic, h=None):
    """RK4 oracle: the moment ODE S' = B S + S B^T integrated from the state
    ic at grid[0] at step h (default default_ode_step at the largest lam),
    component 0 on the grid."""
    lam = np.asarray(lam, dtype=float)
    gamma1, gamma2 = spec.gamma1, spec.gamma2
    if h is None:
        h = default_ode_step(gamma2, lam.max())
    g2lam = gamma2 * lam

    def rhs(t, S):
        a, b, c = S[..., 0], S[..., 1], S[..., 2]
        P = spec.Phi(t)
        return np.stack([-2.0 * (g2lam * a + gamma1 * b),
                         lam * a - (g2lam + P) * b - gamma1 * c,
                         2.0 * (lam * b - P * c)], axis=-1)

    return _states_on_grid(lambda u, t0, t1: _rk4_segment(u, t0, t1, h, rhs),
                           ic, grid, spec)


# ----------------------------------------------------------------------
# Measure-vectorized evaluation (used by the volterra module)
# ----------------------------------------------------------------------

def forcing_matrix(spec, lams, grid, h=None):
    """G^(lam_i)(t_j) as an (n_lam, n_t) matrix: half of rho^2 from
    forcing_ic, G = m11^2/2 for constant Phi = theta, else carried by
    propagate in steps of at most h (default PROPAGATOR_STEP)."""
    lams = np.asarray(lams, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if spec.phi_kind == "const":
        out = np.empty((lams.size, grid.size))
        for i, lam in enumerate(lams):
            m11 = _first_row(lam, spec.gamma1, spec.gamma2, spec.theta,
                             grid)[0]
            out[i] = 0.5 * m11 * m11
        return out
    # SDANA: every node's state carried together, interval by interval
    h = PROPAGATOR_STEP if h is None else h
    return 0.5 * _states_on_grid(
        lambda u, t0, t1: propagate(u, lams, spec, t0, t1, h),
        forcing_ic(lams), grid, spec)


def kernel_matrix(spec, lams, taus):
    """Convolution kernel values K^(lam_i)(tau_j) as an (n_lam, n_tau)
    matrix: lam^2 times rho^2 from kernel_ic, rho = m12 - g2 m11 taken
    from _first_row in the form where nothing cancels.

    Phi = theta for constant schedules.  For SDANA this is the idealized
    convolution kernel, the late-time limit Phi = 0 (the exact kernel is
    two-time and handled by SdanaExactKernel instead).
    """
    lams = np.asarray(lams, dtype=float)
    taus = np.asarray(taus, dtype=float)
    g1, g2 = spec.gamma1, spec.gamma2
    Phi = spec.theta if spec.phi_kind == "const" else 0.0
    out = np.empty((lams.size, taus.size))
    for i, lam in enumerate(lams):
        rho = _first_row(lam, g1, g2, Phi, taus, impulse=True)
        out[i] = lam * lam * rho * rho
    return out


class SdanaExactKernel:
    """Separable representation of the exact two-time SDANA kernel.

    K_s(t), aggregated over the spectral measure, is lam^2 rho^2 of each
    node's moment state, born at s in kernel_ic's state, the same for
    every s, and carried to t by propagate.  The Volterra marcher exploits
    this: it keeps one moment state per node and march pass, injects the
    trapezoid impulse weight*ic*psi_j at each grid node, and advances
    everything together: O(grid) propagator steps in total instead of one
    solve per (s, t) pair.  The forcing's states start from forcing_ic and
    ride in the same stack: one advance per half-step interval carries the
    forcing and both march passes.  h is the longest step propagate takes
    in one piece.
    """

    def __init__(self, spec, lams, weights, h=None):
        if spec.mode != "ode_exact":
            raise ValueError("SdanaExactKernel needs an ode_exact spec")
        self.spec = spec
        self.lams = np.asarray(lams, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.h = PROPAGATOR_STEP if h is None else h
        # lam^2-weighted aggregation vector: K agg = sum_i w_i lam_i^2 q_i
        self.agg = self.weights * self.lams**2

    def diag(self):
        """Aggregated on-diagonal kernel value K_t(t) = g2^2 * int lam^2 dmu."""
        return float(self.spec.gamma2**2 * np.sum(self.agg))

    def ic(self, s):
        """Kernel moment states of every node born at time s, shape
        (n_lam, 3); they do not depend on s."""
        return kernel_ic(self.lams, self.spec.gamma2)

    def advance(self, state, t0, t1):
        """Propagate moment states of shape (..., n_lam, 3) from t0 to t1."""
        if t1 <= t0:
            return state
        return propagate(state, self.lams, self.spec, t0, t1, self.h)

    def aggregate(self, state_component):
        """sum_i w_i lam_i^2 * q_i given the q components (n_lam,)."""
        return float(self.agg @ state_component)
