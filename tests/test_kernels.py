"""Forcing/kernel profiles against an independent 2-d ODE oracle.

The loss curve's forcing term is the noise-free response of the
homogenized two-variable system

    u' = -gamma2*lam*u - gamma1*w        u(0) = 1   (initial residual)
    w' = -Phi(t)*w     + lam*u           w(0) = 0

squared and halved: G(t) = u(t)^2 / 2.  The convolution/two-time kernel
is the response to a unit gradient-noise impulse injected at time s,
i.e. the same homogeneous system restarted at s with (u, w) = (-gamma2, 1),
giving K_s(t) = lam^2 * u(t)^2.  Integrating that small system with
scipy and squaring is an independent check on the package's closed
forms and third-order moment ODEs.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from movolt import kernels, momentum, volterra


def _response(lam, gamma1, gamma2, Phi, t_eval, u0, w0, t0=0.0):
    def rhs(t, y):
        u, w = y
        return [-gamma2 * lam * u - gamma1 * w, -Phi(t) * w + lam * u]
    sol = scipy.integrate.solve_ivp(rhs, (t0, t_eval[-1]), [u0, w0],
                                    t_eval=t_eval, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[0]


def oracle_forcing(lam, gamma1, gamma2, Phi, grid):
    return 0.5 * _response(lam, gamma1, gamma2, Phi, grid, 1.0, 0.0) ** 2


def oracle_kernel(lam, gamma1, gamma2, Phi, s, grid):
    u = _response(lam, gamma1, gamma2, Phi, grid, -gamma2, 1.0, t0=s)
    return lam ** 2 * u ** 2


def closed_forcing(lam, gamma1, gamma2, theta, grid):
    """The constant-Phi forcing, from forcing_ic."""
    ic = kernels.forcing_ic(lam, gamma1, gamma2)
    return 0.5 * kernels._closed_form(ic, lam, gamma1, gamma2, theta, grid)


def closed_kernel(lam, gamma1, gamma2, theta, tau):
    """The constant-Phi kernel, from kernel_ic."""
    ic = kernels.kernel_ic(lam, gamma1, gamma2, theta)
    return lam**2 * kernels._closed_form(ic, lam, gamma1, gamma2, theta, tau)


# ---------------------------------------------------------------- sgd

def test_sgd_forcing_closed_form():
    t = np.linspace(0.0, 5.0, 40)
    spec = momentum.sgd(0.7).kernel_spec()
    got = kernels.forcing_matrix(spec, [1.3], t)[0]
    assert np.allclose(got, 0.5 * np.exp(-2 * 0.7 * 1.3 * t), rtol=1e-14)


def test_sgd_kernel_closed_form():
    tau = np.linspace(0.0, 5.0, 40)
    spec = momentum.sgd(0.7).kernel_spec()
    got = kernels.kernel_matrix(spec, [1.3], tau)[0]
    assert np.allclose(got, 0.7**2 * 1.3**2 * np.exp(-2 * 0.7 * 1.3 * tau),
                       rtol=1e-14)


def test_sgd_matches_oracle():
    lam, gamma = 2.1, 0.4
    grid = np.linspace(0.0, 6.0, 61)
    want = oracle_forcing(lam, 0.0, gamma, lambda t: 0.0, grid)
    got = kernels.forcing_matrix(momentum.sgd(gamma).kernel_spec(), [lam], grid)
    assert np.allclose(got[0], want, atol=1e-10)


# ------------------------------------------------- constant schedules

@pytest.mark.parametrize("lam,g1,g2,theta", [
    (1.0, 0.5, 0.0, 2.0),     # underdamped heavy-ball
    (0.05, 0.5, 0.0, 2.0),    # overdamped (omega < 0)
    (2.5, 0.3, 0.4, 1.5),     # mixed gamma1/gamma2
    (1.0, 0.25, 1.0, 0.0),    # no averaging
])
def test_const_schedule_forcing_matches_ode_oracle(lam, g1, g2, theta):
    grid = np.linspace(0.0, 8.0, 81)
    want = oracle_forcing(lam, g1, g2, lambda t: theta, grid)
    got = closed_forcing(lam, g1, g2, theta, grid)
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("lam,g1,g2,theta", [
    (1.0, 0.5, 0.0, 2.0),
    (0.05, 0.5, 0.0, 2.0),
    (2.5, 0.3, 0.4, 1.5),
])
def test_const_schedule_kernel_matches_ode_oracle(lam, g1, g2, theta):
    tau = np.linspace(0.0, 8.0, 81)
    want = oracle_kernel(lam, g1, g2, lambda t: theta, 0.0, tau)
    got = closed_kernel(lam, g1, g2, theta, tau)
    assert np.allclose(got, want, atol=1e-9)


def test_kernel_value_at_zero_lag():
    # K(0) = gamma2^2 * lam^2: the instantaneous noise-to-loss gain
    for lam, g2 in [(1.0, 0.5), (3.0, 0.2)]:
        got = float(closed_kernel(lam, 0.3, g2, 1.0, 0.0))
        assert got == pytest.approx(g2**2 * lam**2, rel=1e-12)


# ------------------------------------------------------ power schedule

def test_sdana_forcing_ode_matches_oracle():
    lam, g1, g2, theta = 1.7, 0.25, 1.0, 4.0
    grid = np.linspace(0.0, 6.0, 61)
    want = oracle_forcing(lam, g1, g2, lambda t: theta / (1.0 + t), grid)
    spec = momentum.sdana(g1, g2, theta).kernel_spec()
    got = kernels.forcing_matrix(spec, [lam], grid)[0]
    assert np.allclose(got, want, atol=1e-7)


def test_sdana_two_time_kernel_matches_oracle():
    lam, g1, g2, theta = 1.3, 0.25, 1.0, 4.0
    s = 1.5
    grid = np.linspace(s, s + 5.0, 51)
    want = oracle_kernel(lam, g1, g2, lambda t: theta / (1.0 + t), s, grid)
    # a one-node exact kernel: the state born at s, advanced along the grid
    K = kernels.SdanaExactKernel(momentum.sdana(g1, g2, theta).kernel_spec(),
                                 [lam], [1.0])
    cur = K.ic(s)
    got = [K.aggregate(cur[:, 0])]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        cur = K.advance(cur, t0, t1)
        got.append(K.aggregate(cur[:, 0]))
    assert np.allclose(got, want, atol=1e-7)


def test_sdana_conv_kernel_is_late_time_limit():
    # the stationary kernel approximates K(s, s+tau) once the averaging
    # phase has settled; compare at s = 60 where 1/(1+s) is small
    lam, g1, g2, theta = 1.0, 0.25, 1.0, 4.0
    s = 60.0
    tau = np.linspace(0.0, 3.0, 31)
    want = oracle_kernel(lam, g1, g2, lambda t: theta / (1.0 + t), s, s + tau)
    spec = momentum.sdana(g1, g2, theta).kernel_spec(mode="convolution_approx")
    got = kernels.kernel_matrix(spec, [lam], tau)[0]
    assert np.allclose(got, want, rtol=0.15, atol=5e-3)


def test_exact_kernel_state_matches_dense_evaluation():
    # the separable marcher's per-node state reproduces K(s, t) pointwise
    lam = np.array([0.6, 1.9])
    wts = np.array([0.5, 0.5])
    h = 0.005
    spec = momentum.sdana(0.25, 1.0, 4.0).kernel_spec()
    K = kernels.SdanaExactKernel(spec, lam, wts, h)
    s, t1 = 0.4, 2.2
    # advance the initial-condition block from s to t1 and aggregate
    cur = K.ic(s)
    steps = int(round((t1 - s) / h))
    for j in range(steps):
        cur = K.advance(cur, s + j * h, s + (j + 1) * h)
    dense = sum(w * oracle_kernel(l, 0.25, 1.0, lambda t: 4.0 / (1.0 + t),
                                  s, np.array([s, t1]))[-1]
                for l, w in zip(lam, wts))
    assert K.aggregate(cur[:, 0]) == pytest.approx(dense, rel=1e-7)


# --------------------------------------------- snc / osc of _ic_profile

def snc(omega, x):
    """sin(x*sqrt(omega))/sqrt(omega), continued across omega <= 0."""
    return kernels._ic_profile(omega, 0.0, 0.0, 1.0, 0.0, x)


def osc(omega, x):
    """(1 - cos(x*sqrt(omega)))/omega, continued across omega <= 0."""
    return kernels._ic_profile(omega, 0.0, 0.0, 0.0, 1.0, x)


def test_snc_osc_trig_values():
    assert snc(4.0, 1.0) == pytest.approx(math.sin(2.0) / 2.0)
    assert snc(-4.0, 1.0) == pytest.approx(math.sinh(2.0) / 2.0)
    assert osc(4.0, 1.0) == pytest.approx((1 - math.cos(2.0)) / 4.0)
    assert osc(-4.0, 1.0) == pytest.approx((1 - math.cosh(2.0)) / -4.0)


@settings(max_examples=200, deadline=None)
@given(omega=st.floats(-1e-6, 1e-6), x=st.floats(0.0, 10.0))
def test_snc_continuous_across_zero(omega, x):
    # series branch must agree with the trig branches at the crossover
    val = snc(omega, x)
    ref = snc(2e-6 if omega >= 0 else -2e-6, x)
    assert val == pytest.approx(ref, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("omega", [-1e-6, -2e-8, 2e-8, 1e-6])
@pytest.mark.parametrize("x", [1e-4, 0.1, 1.0])
def test_snc_osc_accurate_just_past_the_series_branch(omega, x):
    # |omega| x^2 <= 1e-6: three series terms are exact to rounding, and
    # neither branch may cancel 1 - cos or 1 - cosh against it
    x2 = x * x
    assert snc(omega, x) == pytest.approx(
        x * (1.0 - omega * x2 / 6.0 + omega**2 * x2**2 / 120.0), rel=1e-14)
    assert osc(omega, x) == pytest.approx(
        x2 / 2.0 - omega * x2**2 / 24.0 + omega**2 * x2**3 / 720.0, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(omega=st.floats(-5.0, 5.0), x=st.floats(0.0, 5.0))
def test_osc_nonnegative(omega, x):
    assert osc(omega, x) >= -1e-12


@settings(max_examples=100, deadline=None)
@given(omega=st.floats(-3.0, 3.0), x=st.floats(0.0, 4.0))
def test_snc_osc_derivative_identity(omega, x):
    # d/dx osc(omega, x) = snc(omega, x); check with a central difference
    eps = 1e-5
    d = (osc(omega, x + eps) - osc(omega, max(x - eps, 0.0)))
    span = eps + min(x, eps)
    assert d / span == pytest.approx(
        snc(omega, x + eps - 0.5 * span), rel=2e-4, abs=2e-4)


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9,     # oscillatory, omega > 0
                                 1.0 - 1e-9, 1.0,   # turning point
                                 1.5, 3.7])         # hyperbolic, omega < 0
def test_sdana_conv_kernel_birth_identities(lam):
    # at tau = 0 the stationary kernel starts from the two-time kernel's
    # initial data (kernel_ic): K(0) = g2^2 lam^2, K'(0) = 2 g2 lam^2 (g1 - g2^2 lam)
    g1, g2, eps = 0.25, 1.0, 1e-5
    spec = momentum.sdana(g1, g2, 4.0).kernel_spec(mode="convolution_approx")
    K = lambda tau: float(kernels.kernel_matrix(spec, [lam], [tau])[0, 0])
    assert K(0.0) == pytest.approx(g2**2 * lam**2, rel=1e-8)
    slope = (K(eps) - K(-eps)) / (2.0 * eps)
    assert slope == pytest.approx(2.0 * g2 * lam**2 * (g1 - g2**2 * lam),
                                  rel=1e-8)


@pytest.mark.parametrize("lam", [1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 3e-9])
def test_sdana_conv_kernel_at_turning_point(lam):
    # omega = lam (4 g1 - g2^2 lam) crosses 0 at lam = 1: the conv kernel
    # matches the exact solution of the late-time 2-d system (Phi = 0)
    # u' = -g2 lam u - g1 w, w' = lam u, (u, w)(0) = (-g2, 1), K = lam^2 u^2
    g1, g2 = 0.25, 1.0
    tau = np.linspace(0.0, 60.0, 1201)
    a = 0.5 * g2 * lam
    disc = lam * (g2**2 * lam - 4.0 * g1) / 4.0  # a^2 - g1 lam, no cancellation
    if disc > 0.0:
        r = np.sqrt(disc)
        cos_, sin_ = np.cosh(r * tau), np.sinh(r * tau) / r
    else:
        r = np.sqrt(-disc)
        cos_, sin_ = np.cos(r * tau), np.sin(r * tau) / r
    # u(0) = -g2 and u'(0) + a u(0) = g2^2 lam / 2 - g1
    u = np.exp(-a * tau) * (-g2 * cos_ + (0.5 * g2**2 * lam - g1) * sin_)
    want = lam**2 * u**2
    spec = momentum.sdana(g1, g2, 4.0).kernel_spec(mode="convolution_approx")
    got = kernels.kernel_matrix(spec, [lam], tau)[0]
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(want)


# --------------------------------------------------- matrix builders

def test_forcing_matrix_rows_match_scalar_functions():
    lams = np.array([0.3, 1.0, 2.7])
    grid = np.linspace(0.0, 4.0, 41)
    spec = momentum.sdahb(0.8, 1.5).kernel_spec()
    M = kernels.forcing_matrix(spec, lams, grid)
    for i, lam in enumerate(lams):
        assert np.allclose(
            M[i], closed_forcing(lam, 0.8, 0.0, 1.5, grid),
            rtol=1e-12)


def test_kernel_matrix_rows_match_scalar_functions():
    lams = np.array([0.3, 1.0, 2.7])
    taus = np.linspace(0.0, 4.0, 41)
    spec = momentum.sgd(0.9).kernel_spec()
    M = kernels.kernel_matrix(spec, lams, taus)
    for i, lam in enumerate(lams):
        want = 0.9**2 * lam**2 * np.exp(-2 * 0.9 * lam * taus)
        assert np.allclose(M[i], want, rtol=1e-12)


def test_power_forcing_matrix_matches_per_node_ode():
    lams = np.array([0.4, 1.6])
    grid = np.linspace(0.0, 3.0, 31)
    spec = momentum.sdana(0.25, 1.0, 4.0).kernel_spec()
    M = kernels.forcing_matrix(spec, lams, grid)
    for i, lam in enumerate(lams):
        want = oracle_forcing(lam, 0.25, 1.0, lambda t: 4.0 / (1.0 + t), grid)
        assert np.allclose(M[i], want, atol=1e-7)


def test_rk4_step_order():
    # halving the step shrinks the const-schedule ODE error ~16x against
    # the closed form, confirming the fourth-order integrator
    lam, g1, g2, theta = 1.7, 0.3, 0.6, 1.1
    grid = np.linspace(0.0, 2.0, 51)
    sched = kernels._Schedule("const", theta)
    exact = closed_forcing(lam, g1, g2, theta, grid)
    errs = []
    for h in (0.04, 0.02):
        got = 0.5 * kernels._ode_on_grid(np.array([lam]), g1, g2, sched, grid,
                                         kernels.forcing_ic(np.array([lam]), g1, g2),
                                         h)[0]
        errs.append(np.max(np.abs(got - exact)))
    assert errs[0] / errs[1] > 12.0


def test_rk4_step_order_power_schedule():
    # the hoisted stage coefficients vary along the interval for the power
    # schedule; halving the step still shrinks the error ~16x (scipy oracle)
    lam, g1, g2 = 1.7, 0.25, 1.0
    grid = np.linspace(0.0, 2.0, 51)
    sched = kernels._Schedule("power", 4.0)
    want = oracle_forcing(lam, g1, g2, lambda t: 4.0 / (1.0 + t), grid)
    errs = []
    for h in (0.04, 0.02):
        got = 0.5 * kernels._ode_on_grid(np.array([lam]), g1, g2, sched, grid,
                                         kernels.forcing_ic(np.array([lam]), g1, g2),
                                         h)[0]
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] / errs[1] >= 12.0


def rk4_per_stage_oracle(u, t0, t1, h_max, lam, g1, g2, sched):
    """The RK4 loop with the coefficients evaluated at every stage."""
    def rhs(t, u):
        b0, b1, b2 = sched.coeffs(t, lam, g1, g2)
        return np.stack([u[..., 1], u[..., 2],
                         -(b0 * u[..., 0] + b1 * u[..., 1] + b2 * u[..., 2])],
                        axis=-1)
    nsub = kernels.rk4_substeps(t1 - t0, h_max)
    h = (t1 - t0) / nsub
    t = t0
    for _ in range(nsub):
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(t + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return u


@pytest.mark.parametrize("kind", ["power", "const"])
def test_hoisted_rk4_equals_per_stage_loop(kind):
    # one coefficient evaluation per interval does the same arithmetic as
    # evaluating at each stage: equal bit for bit
    lam = np.array([0.05, 0.7, 1.9, 3.6])
    g1, g2 = 0.25, 1.0
    sched = kernels._Schedule(kind, 4.0 if kind == "power" else 0.4)
    grid = np.linspace(0.0, 3.0, 61) + 0.137
    ic = kernels.forcing_ic(lam, g1, g2)
    got = kernels._ode_on_grid(lam, g1, g2, sched, grid, ic, 0.007)
    u = ic
    for i in range(1, len(grid)):
        u = rk4_per_stage_oracle(u, grid[i - 1], grid[i], 0.007, lam, g1, g2,
                                 sched)
        assert got[:, i].tobytes() == u[:, 0].tobytes()


def test_rk4_segment_bounds_the_coefficient_block():
    # a fine ODE step must not grow the coefficient arrays: each block covers
    # at most _RK4_CHUNK substeps, and the chunked stage times stay the
    # stepping loop's, bit for bit
    lam = np.array([0.3, 2.2])
    g1, g2 = 0.25, 1.0
    sched = kernels._Schedule("power", 4.0)
    rhs = kernels._make_rhs(lam, g1, g2, sched)
    blocks = []

    def recording(times):
        blocks.append(len(times))
        return rhs(times)

    u0 = kernels.forcing_ic(lam, g1, g2)
    got = kernels._rk4_segment(u0, 0.3, 0.45, 1e-3, recording)
    nsub = int(kernels.rk4_substeps(0.15, 1e-3))
    assert nsub > 2 * kernels._RK4_CHUNK
    assert sum(blocks) == 3 * nsub
    assert max(blocks) == 3 * kernels._RK4_CHUNK
    want = rk4_per_stage_oracle(u0, 0.3, 0.45, 1e-3, lam, g1, g2, sched)
    assert got.tobytes() == want.tobytes()


def test_exact_kernel_advance_broadcasts_over_stack():
    # the per-interval coefficient rows are shared by leading stack axes:
    # a (2, n_lam, 3) stack advances exactly as each row does alone
    spec = momentum.sdana(0.25, 1.0, 4.0).kernel_spec()
    K = kernels.SdanaExactKernel(spec, [0.3, 1.1, 2.9], [0.2, 0.5, 0.3])
    rows = np.stack([K.ic(0.2), -0.7 * K.ic(0.9)])
    got = K.advance(rows, 0.2, 0.27)
    for i in range(2):
        assert got[i].tobytes() == K.advance(rows[i], 0.2, 0.27).tobytes()


def test_kernel_ic_block_call_equals_per_point_calls():
    # the sweep takes the ICs of a block of grid points in one call; each
    # row must be the per-point call, bit for bit
    lams = np.linspace(0.02, 4.0, 200)
    Phi = 4.0 / (1.0 + np.linspace(0.0, 100.0, 4001))
    block = kernels.kernel_ic(lams[None, :], 0.25, 1.0, Phi[:, None])
    assert block.shape == (4001, 200, 3)
    for i in range(len(Phi)):
        assert block[i].tobytes() == kernels.kernel_ic(lams, 0.25, 1.0,
                                                       Phi[i]).tobytes()
    K = kernels.SdanaExactKernel(momentum.sdana(0.25, 1.0, 4.0).kernel_spec(),
                                 lams, np.full(200, 1.0 / 200))
    times = np.linspace(0.0, 3.0, 7)
    rows = K.ic(times)
    for i, s in enumerate(times):
        assert rows[i].tobytes() == K.ic(s).tobytes()


def test_one_state_march_is_the_trapezoid_sum():
    # the separable march carries one state per node; it must solve the
    # trapezoid system psi_i = F_i + h sum_j w_j K(s_j, t_i) psi_j, with
    # K(s_j, t_i) taken from the scipy oracle on a 2-node kernel
    lams, wts = np.array([0.6, 1.9]), np.array([0.4, 0.6])
    g1, g2, theta = 0.25, 1.0, 4.0
    Phi = lambda t: theta / (1.0 + t)
    spec = momentum.sdana(g1, g2, theta).kernel_spec()
    K = kernels.SdanaExactKernel(spec, lams, wts, h=0.005)
    grid = np.linspace(0.0, 2.0, 21)
    h = grid[1] - grid[0]
    F = 1.0 + 0.3 * np.cos(grid)
    got = volterra.solve_general(F, K, grid, refine=False).psi
    n = len(grid)
    Kst = np.zeros((n, n))  # Kst[j, i] = K(s_j, t_i), i >= j
    for j in range(n):
        for lam, w in zip(lams, wts):
            if j == n - 1:
                Kst[j, j] += w * lam**2 * g2**2
            else:
                Kst[j, j:] += w * oracle_kernel(lam, g1, g2, Phi, grid[j], grid[j:])
    want = np.empty(n)
    want[0] = F[0]
    for i in range(1, n):
        acc = 0.5 * Kst[0, i] * want[0] + Kst[1:i, i] @ want[1:i]
        want[i] = (F[i] + h * acc) / (1.0 - 0.5 * h * Kst[i, i])
    assert np.allclose(got, want, rtol=0.0, atol=1e-7)
