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

from movolt import kernels, momentum


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


# ---------------------------------------------------------------- sgd

def test_sgd_forcing_closed_form():
    t = np.linspace(0.0, 5.0, 40)
    got = kernels.sgd_forcing(1.3, 0.7, t)
    assert np.allclose(got, 0.5 * np.exp(-2 * 0.7 * 1.3 * t), rtol=1e-14)


def test_sgd_kernel_closed_form():
    tau = np.linspace(0.0, 5.0, 40)
    got = kernels.sgd_kernel(1.3, 0.7, tau)
    assert np.allclose(got, 0.7**2 * 1.3**2 * np.exp(-2 * 0.7 * 1.3 * tau),
                       rtol=1e-14)


def test_sgd_matches_oracle():
    lam, gamma = 2.1, 0.4
    grid = np.linspace(0.0, 6.0, 61)
    want = oracle_forcing(lam, 0.0, gamma, lambda t: 0.0, grid)
    assert np.allclose(kernels.sgd_forcing(lam, gamma, grid), want, atol=1e-10)


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
    got = kernels.general_sdahb_forcing(lam, g1, g2, theta, grid)
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("lam,g1,g2,theta", [
    (1.0, 0.5, 0.0, 2.0),
    (0.05, 0.5, 0.0, 2.0),
    (2.5, 0.3, 0.4, 1.5),
])
def test_const_schedule_kernel_matches_ode_oracle(lam, g1, g2, theta):
    tau = np.linspace(0.0, 8.0, 81)
    want = oracle_kernel(lam, g1, g2, lambda t: theta, 0.0, tau)
    got = kernels.general_sdahb_kernel(lam, g1, g2, theta, tau)
    assert np.allclose(got, want, atol=1e-9)


def test_kernel_value_at_zero_lag():
    # K(0) = gamma2^2 * lam^2: the instantaneous noise-to-loss gain
    for lam, g2 in [(1.0, 0.5), (3.0, 0.2)]:
        got = kernels.general_sdahb_kernel(lam, 0.3, g2, 1.0, 0.0)
        assert got == pytest.approx(g2**2 * lam**2, rel=1e-12)


# ------------------------------------------------------ power schedule

def test_sdana_forcing_ode_matches_oracle():
    lam, g1, g2, theta = 1.7, 0.25, 1.0, 4.0
    grid = np.linspace(0.0, 6.0, 61)
    want = oracle_forcing(lam, g1, g2, lambda t: theta / (1.0 + t), grid)
    got = kernels.sdana_forcing_ode(lam, g1, g2, theta, grid)
    assert np.allclose(np.ravel(got), want, atol=1e-7)


def test_sdana_two_time_kernel_matches_oracle():
    lam, g1, g2, theta = 1.3, 0.25, 1.0, 4.0
    s = 1.5
    grid = np.linspace(s, s + 5.0, 51)
    want = oracle_kernel(lam, g1, g2, lambda t: theta / (1.0 + t), s, grid)
    got = kernels.sdana_kernel_ode(lam, g1, g2, theta, s, grid)
    assert np.allclose(np.ravel(got), want, atol=1e-7)


def test_sdana_conv_kernel_is_late_time_limit():
    # the stationary kernel approximates K(s, s+tau) once the averaging
    # phase has settled; compare at s = 60 where 1/(1+s) is small
    lam, g1, g2, theta = 1.0, 0.25, 1.0, 4.0
    s = 60.0
    tau = np.linspace(0.0, 3.0, 31)
    want = oracle_kernel(lam, g1, g2, lambda t: theta / (1.0 + t), s, s + tau)
    got = kernels.sdana_kernel_conv(lam, g1, g2, theta, tau)
    assert np.allclose(np.ravel(got), want, rtol=0.15, atol=5e-3)


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
    dense = sum(w * np.ravel(kernels.sdana_kernel_ode(
        l, 0.25, 1.0, 4.0, s, np.array([s, t1]), h=h))[-1]
        for l, w in zip(lam, wts))
    assert K.aggregate(cur[:, 0]) == pytest.approx(dense, rel=1e-7)


# --------------------------------------------------------- snc / osc

def test_snc_osc_trig_values():
    assert kernels.snc(4.0, 1.0) == pytest.approx(math.sin(2.0) / 2.0)
    assert kernels.snc(-4.0, 1.0) == pytest.approx(math.sinh(2.0) / 2.0)
    assert kernels.osc(4.0, 1.0) == pytest.approx((1 - math.cos(2.0)) / 4.0)
    assert kernels.osc(-4.0, 1.0) == pytest.approx((1 - math.cosh(2.0)) / -4.0)


@settings(max_examples=200, deadline=None)
@given(omega=st.floats(-1e-6, 1e-6), x=st.floats(0.0, 10.0))
def test_snc_continuous_across_zero(omega, x):
    # series branch must agree with the trig branches at the crossover
    val = kernels.snc(omega, x)
    ref = kernels.snc(2e-6 if omega >= 0 else -2e-6, x)
    assert val == pytest.approx(ref, rel=1e-4, abs=1e-7)


@settings(max_examples=200, deadline=None)
@given(omega=st.floats(-5.0, 5.0), x=st.floats(0.0, 5.0))
def test_osc_nonnegative(omega, x):
    assert kernels.osc(omega, x) >= -1e-12


@settings(max_examples=100, deadline=None)
@given(omega=st.floats(-3.0, 3.0), x=st.floats(0.0, 4.0))
def test_snc_osc_derivative_identity(omega, x):
    # d/dx osc(omega, x) = snc(omega, x); check with a central difference
    eps = 1e-5
    d = (kernels.osc(omega, x + eps) - kernels.osc(omega, max(x - eps, 0.0)))
    span = eps + min(x, eps)
    assert d / span == pytest.approx(
        kernels.snc(omega, x + eps - 0.5 * span), rel=2e-4, abs=2e-4)


def test_sdana_oscillator_phase_identity():
    # cos^2 + sin^2 = 1 on the oscillatory branch
    for lam in (0.1, 0.5, 0.9):
        p = kernels.sdana_oscillator(lam, 0.25, 1.0)
        assert p.omega > 0
        assert p.cos_phase**2 + p.sin_phase**2 == pytest.approx(1.0, abs=1e-10)


# --------------------------------------------------- matrix builders

def test_forcing_matrix_rows_match_scalar_functions():
    lams = np.array([0.3, 1.0, 2.7])
    grid = np.linspace(0.0, 4.0, 41)
    spec = momentum.sdahb(0.8, 1.5).kernel_spec()
    M = kernels.forcing_matrix(spec, lams, grid)
    for i, lam in enumerate(lams):
        assert np.allclose(
            M[i], kernels.general_sdahb_forcing(lam, 0.8, 0.0, 1.5, grid),
            rtol=1e-12)


def test_kernel_matrix_rows_match_scalar_functions():
    lams = np.array([0.3, 1.0, 2.7])
    taus = np.linspace(0.0, 4.0, 41)
    spec = momentum.sgd(0.9).kernel_spec()
    M = kernels.kernel_matrix(spec, lams, taus)
    for i, lam in enumerate(lams):
        assert np.allclose(M[i], kernels.sgd_kernel(lam, 0.9, taus), rtol=1e-12)


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
    exact = kernels._const_phi_forcing(lam, g1, g2, theta, grid)
    errs = []
    for h in (0.04, 0.02):
        got = 0.5 * kernels._ode_on_grid(np.array([lam]), g1, g2, sched, grid,
                                         kernels.forcing_ic(np.array([lam]), g1, g2),
                                         h)[0]
        errs.append(np.max(np.abs(got - exact)))
    assert errs[0] / errs[1] > 12.0
