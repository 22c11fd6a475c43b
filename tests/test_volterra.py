"""Volterra solvers against closed-form solutions and each other.

Two exactly solvable instances anchor the suite (both checked by Laplace
transform by hand):

* F === 1, I === alpha          =>  psi(t) = exp(alpha*t)
* F === 1, I(t) = exp(-t)/2     =>  psi(t) = 2 - exp(-t/2)
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movolt import analysis, momentum, spectrum, volterra
from movolt.errors import NumericalError


def grid_and_ones(T=8.0, h=0.05):
    grid = volterra.time_grid(T, h)
    return grid, np.ones_like(grid)


# ------------------------------------------------------- closed forms

def test_constant_kernel_exponential_growth():
    grid, F = grid_and_ones(T=4.0)
    alpha = 0.35
    sol = volterra.solve_convolution(F, np.full_like(grid, alpha), grid)
    assert np.max(np.abs(sol.psi - np.exp(alpha * grid))) < 2e-7


def test_exponential_kernel_closed_form_marching():
    grid, F = grid_and_ones()
    I = 0.5 * np.exp(-grid)
    sol = volterra.solve_convolution(F, I, grid)
    want = 2.0 - np.exp(-0.5 * grid)
    # the fine pass interpolates the kernel, costing a shade over 1e-7
    assert np.max(np.abs(sol.psi - want)) < 5e-7
    assert sol.psi[0] == F[0]  # exact by construction


def test_exponential_kernel_closed_form_picard():
    grid, F = grid_and_ones()
    I = 0.5 * np.exp(-grid)
    sol = volterra.solve_convolution(F, I, grid, method="picard")
    want = 2.0 - np.exp(-0.5 * grid)
    assert np.max(np.abs(sol.psi - want)) < 5e-7
    assert sol.method == "picard"
    assert sol.diagnostics["picard_iters"] > 0


def test_marching_and_picard_agree_tightly():
    grid, F = grid_and_ones()
    I = 0.5 * np.exp(-grid)
    a = volterra.solve_convolution(F, I, grid, method="marching")
    b = volterra.solve_convolution(F, I, grid, method="picard")
    assert np.max(np.abs(a.psi - b.psi)) < 1e-8


def test_refinement_improves_order():
    # plain trapezoid is O(h^2); the extrapolated solve must gain at
    # least two extra orders on the closed-form instance
    want_fn = lambda g: 2.0 - np.exp(-0.5 * g)
    errs = {}
    for h in (0.1, 0.05):
        grid = volterra.time_grid(6.0, h)
        sol = volterra.solve_convolution(np.ones_like(grid),
                                         0.5 * np.exp(-grid), grid)
        errs[h] = np.max(np.abs(sol.psi - want_fn(grid)))
    assert errs[0.1] / errs[0.05] > 4.0
    assert errs[0.05] < 1e-6


def test_unrefined_is_second_order():
    want_fn = lambda g: 2.0 - np.exp(-0.5 * g)
    errs = {}
    for h in (0.1, 0.05):
        grid = volterra.time_grid(6.0, h)
        sol = volterra.solve_convolution(np.ones_like(grid),
                                         0.5 * np.exp(-grid), grid,
                                         refine=False)
        errs[h] = np.max(np.abs(sol.psi - want_fn(grid)))
    assert 3.0 < errs[0.1] / errs[0.05] < 5.0


def test_general_solver_reduces_to_convolution():
    # same trapezoid discretization => same answer to rounding when the
    # two-time kernel is actually a difference kernel
    grid, F = grid_and_ones(T=5.0)
    I = 0.5 * np.exp(-grid)
    conv = volterra.solve_convolution(F, I, grid, refine=False)
    K = lambda s, t: 0.5 * np.exp(-(t - s))
    gen = volterra.solve_general(F, K, grid, refine=False)
    assert np.max(np.abs(conv.psi - gen.psi)) < 1e-10


def test_general_solver_closed_form_refined():
    grid, F = grid_and_ones(T=5.0)
    K = lambda s, t: 0.5 * np.exp(-(t - s))
    gen = volterra.solve_general(F, K, grid)
    assert np.max(np.abs(gen.psi - (2.0 - np.exp(-0.5 * grid)))) < 1e-6


# ------------------------------------------------------- failure modes

def test_nonfinite_forcing_rejected():
    grid, F = grid_and_ones(T=2.0)
    F[3] = np.nan
    with pytest.raises(NumericalError):
        volterra.solve_convolution(F, np.zeros_like(grid), grid)


def test_structural_negative_rejected():
    grid, _ = grid_and_ones(T=2.0)
    F = -np.ones_like(grid)
    with pytest.raises(NumericalError):
        volterra.solve_convolution(F, np.zeros_like(grid), grid)


def test_tiny_negative_clipped_to_zero():
    grid, _ = grid_and_ones(T=1.0)
    F = np.zeros_like(grid)
    F[0] = 1e-12  # decays through zero with rounding wiggle
    sol = volterra.solve_convolution(F, np.zeros_like(grid), grid)
    assert np.all(sol.psi >= 0.0)


def test_marching_singularity_raises():
    grid = volterra.time_grid(1.0, 0.5)
    F = np.ones_like(grid)
    I = np.full_like(grid, 5.0)  # 1 - h/2 * I0 = -0.25
    with pytest.raises(NumericalError):
        volterra.solve_convolution(F, I, grid, refine=False)


def test_supercritical_kernel_overflow_is_numerical_error():
    grid = volterra.time_grid(400.0, 0.05)
    F = np.ones_like(grid)
    I = np.full_like(grid, 2.0)  # psi ~ e^{2t} overflows at t=400
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        volterra.solve_convolution(F, I, grid)


def test_picard_divergence_reported():
    grid, F = grid_and_ones(T=30.0)
    I = np.full_like(grid, 1.2)  # norm > 1: Picard iteration cannot settle
    with pytest.raises(NumericalError):
        volterra.solve_convolution(F, I, grid, method="picard")


# ---------------------------------------------------------- properties

@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.01, 0.9), decay=st.floats(0.1, 2.0),
       scale=st.floats(0.1, 3.0))
def test_psi_at_least_forcing_for_nonnegative_kernels(alpha, decay, scale):
    grid = volterra.time_grid(4.0, 0.1)
    F = scale * np.exp(-decay * grid)
    I = alpha * np.exp(-grid)
    sol = volterra.solve_convolution(F, I, grid)
    assert np.all(sol.psi >= F - 1e-9)
    assert np.all(sol.psi >= -1e-12)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.05, 0.85))
def test_constant_kernel_limit_matches_renewal_value(alpha):
    # psi(inf) for F -> c is c/(1 - ||I||); with F === 1, I = alpha e^{-t}:
    # ||I|| = alpha, psi(inf) = 1/(1-alpha)
    grid = volterra.time_grid(60.0 / (1 - alpha), 0.05)
    sol = volterra.solve_convolution(np.ones_like(grid),
                                     alpha * np.exp(-grid), grid)
    assert sol.psi[-1] == pytest.approx(1.0 / (1.0 - alpha), rel=5e-3)


# ------------------------------------------------------------- predict

def test_predict_sgd_curve_and_limit(mp2):
    params = momentum.sgd(0.7)
    sol = volterra.predict(mp2, params, T=80.0, R=1.0, R_tilde=1.0)
    # starts at the population initial loss
    assert sol.psi[0] == pytest.approx(0.5 * (mp2.trace_moment() + 1.0),
                                       rel=1e-12)
    # no zero atom at r=2: the noise is fully annealed away
    assert volterra.limit_value(mp2, params, R_tilde=1.0) == 0.0
    assert sol.psi[-1] < 1e-4
    assert sol.kernel_norm == pytest.approx(
        analysis.kernel_norm(params, mp2), rel=1e-12)


def test_predict_reaches_positive_limit_with_zero_atom():
    mu = spectrum.mp_measure(0.5)  # zero atom p = 1/2
    params = momentum.sgd(0.7)
    sol = volterra.predict(mu, params, T=80.0, R=1.0, R_tilde=1.0)
    want = volterra.limit_value(mu, params, R_tilde=1.0)
    assert want == pytest.approx(0.5 / (2.0 * (1.0 - sol.kernel_norm)), rel=1e-9)
    assert sol.psi[-1] == pytest.approx(want, rel=1e-3)


def test_predict_modes_agree_for_sgd(mp2):
    params = momentum.sgd(0.7)
    a = volterra.predict(mp2, params, T=10.0, mode="closed")
    b = volterra.predict(mp2, params, T=10.0, mode="conv")
    assert np.max(np.abs(a.psi - b.psi)) < 1e-9


def test_predict_sdana_exact_vs_stationary_smoke(mp1):
    params = momentum.defaults("sdana", mp1)
    T = 30.0
    exact = volterra.predict(mp1, params, T=T, mode="ode")
    conv = volterra.predict(mp1, params, T=T, mode="conv")
    i0 = np.searchsorted(exact.grid, 15.0)
    rel = np.abs(exact.psi[i0:] - conv.psi[i0:]) / exact.psi[i0:]
    assert np.max(rel) < 0.25
    assert exact.meta["mode"] == "ode_exact"


def test_predict_forcing_value_at_zero(mp4):
    R, Rt = 2.0, 0.3
    sol = volterra.predict(mp4, momentum.sgd(0.5), T=5.0, R=R, R_tilde=Rt)
    assert sol.forcing[0] == pytest.approx(0.5 * (R * mp4.trace_moment() + Rt),
                                           rel=1e-12)


def test_predict_validates_with_picard(mp2):
    sol = volterra.predict(mp2, momentum.sgd(0.7), T=10.0, validate=True)
    assert "picard_delta" in sol.diagnostics
    assert sol.diagnostics["picard_delta"] < 1e-7


def test_predict_sdana_conv_picard_settles_on_conjugated_scale(mp1):
    # the phi-conjugated forcing grows like t^4, so its round-off floor sits
    # above an absolute 1e-10; the relative test lets Picard settle
    sol = volterra.predict(mp1, momentum.defaults("sdana", mp1), T=60.0,
                           mode="conv", validate=True)
    assert "picard_note" not in sol.diagnostics
    assert sol.diagnostics["picard_delta"] < 1e-9


def test_predict_hard_edge_decays_slowly(mp1):
    # square aspect: loss follows a power law, still far from zero at T
    sol = volterra.predict(mp1, momentum.sgd(1.0), T=100.0, R_tilde=0.0)
    assert sol.psi[-1] > 1e-4
    assert np.all(np.diff(sol.psi) <= 1e-10)


def test_predict_rejects_unknown_mode(mp1):
    with pytest.raises(ValueError):
        volterra.predict(mp1, momentum.sgd(1.0), T=5.0, mode="fourier")


def test_shb_predict_needs_n(mp2):
    with pytest.raises(ValueError):
        volterra.predict(mp2, momentum.shb(0.01, 0.02), T=5.0)
    sol = volterra.predict(mp2, momentum.shb(0.01, 0.02), T=5.0, n=100)
    assert sol.psi[0] > 0


# -------------------------------------------------------------- IO etc

def test_solution_write_read_roundtrip(tmp_path, mp2):
    sol = volterra.predict(mp2, momentum.sgd(0.7), T=5.0)
    path = tmp_path / "out.csv"
    sol.write(path)
    side = volterra.sidecar_path(path)
    assert side.endswith(".json")
    blob = json.loads(open(side).read())
    for key in ("algo", "params", "measure", "h", "method", "kernel_norm"):
        assert key in blob
    assert blob["algo"] == "sgd"
    assert blob["h"] == pytest.approx(volterra.DEFAULT_H)
    back = volterra.VolterraSolution.read(path)
    assert np.allclose(back.psi, sol.psi)
    assert np.allclose(back.forcing, sol.forcing)
    assert back.meta["algo"] == "sgd"


def test_solution_at_interpolates(mp2):
    sol = volterra.predict(mp2, momentum.sgd(0.7), T=5.0)
    t = 1.37  # off-grid
    i = np.searchsorted(sol.grid, t) - 1
    frac = (t - sol.grid[i]) / (sol.grid[i + 1] - sol.grid[i])
    want = (1 - frac) * sol.psi[i] + frac * sol.psi[i + 1]
    assert sol.at(t) == pytest.approx(want, rel=1e-12)


def test_time_grid_rounding():
    g = volterra.time_grid(10.0, 0.05)
    assert len(g) == 201
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(10.0)
    assert np.allclose(np.diff(g), 0.05)


def test_build_forcing_initial_value(mp2):
    grid = volterra.time_grid(3.0, 0.05)
    spec = momentum.sgd(0.7).kernel_spec()
    F = volterra.build_forcing(mp2, spec, 1.5, 0.25, grid)
    assert F[0] == pytest.approx(0.5 * (1.5 * mp2.trace_moment() + 0.25),
                                 rel=1e-12)
    assert np.all(np.diff(F) <= 1e-12)


def test_build_forcing_from_spectral_matches_initial_loss():
    from movolt import lsq
    p = lsq.generate_gaussian(60, 30, 1.0, 0.5, seed=3)
    sp = lsq.to_spectral(p)
    grid = volterra.time_grid(2.0, 0.05)
    spec = momentum.sgd(0.7).kernel_spec()
    F = volterra.build_forcing_from_spectral(sp, spec, grid)
    assert F[0] == pytest.approx(lsq.loss(p, p.x0), rel=1e-12)


def test_limit_value_consistency(mp2):
    params = momentum.sgd(0.7)
    want = analysis.limiting_loss(analysis.kernel_norm(params, mp2),
                                  mp2.zero_mass, 1.0)
    assert volterra.limit_value(mp2, params, 1.0) == pytest.approx(want)


def test_sidecar_path_naming():
    assert volterra.sidecar_path("a/b.csv") == "a/b.json"
    assert volterra.sidecar_path("a/b.dat") == "a/b.dat.json"
