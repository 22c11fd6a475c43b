"""Convergence analysis: norms, Laplace transforms, Malthusian roots, rates.

Independent anchors:

* kernel norms integrate the actual convolution kernel with np.trapezoid
* Laplace transforms integrate e^{x tau} * kernel with scipy.quad
* the single-atom SGD Malthusian root is solvable by hand:
  F(x) = gamma^2 lam^2 / (2 gamma lam - x) = 1  =>
  lambda* = 2 gamma lam - gamma^2 lam^2   (atom at lam, weight 1)
"""

import json

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from movolt import analysis, kernels, momentum, spectrum, volterra


def atom(lam):
    return spectrum.SpectralMeasure("discrete", [lam], [1.0], 0.0)


def numeric_kernel_mass(params, measure, T=400.0, h=0.02, n=None):
    """||I|| by direct trapezoid integration of the stationary kernel."""
    taus = volterra.time_grid(T, h)
    spec = params.kernel_spec(n=n, mode="convolution_approx"
                              if params.name == "sdana" else None)
    I = volterra.build_convolution_kernel(measure, spec, taus)
    return float(np.trapezoid(I, taus))


# ------------------------------------------------------------- norms

def test_kernel_norm_sgd_closed_form(mp2):
    got = analysis.kernel_norm(momentum.sgd(0.8), mp2)
    assert got == pytest.approx(0.8 * mp2.trace_moment() / 2.0, rel=1e-12)


def test_kernel_norm_sdahb_closed_form(mp2):
    got = analysis.kernel_norm(momentum.sdahb(1.6, 2.5), mp2)
    assert got == pytest.approx(1.6 * mp2.trace_moment() / (2 * 2.5), rel=1e-12)


def test_kernel_norm_shb_matches_sdahb(mp2):
    n = 64
    a = analysis.kernel_norm(momentum.shb(1.6 / n, 2.5 / n), mp2)
    b = analysis.kernel_norm(momentum.sdahb(1.6, 2.5), mp2)
    assert a == pytest.approx(b, rel=1e-12)


def test_kernel_norm_sdana_closed_form(mp2):
    g1, g2 = 0.25, 1.0
    got = analysis.kernel_norm(momentum.sdana(g1, g2, 4.0), mp2)
    p = mp2.zero_mass
    want = g1 * (1 - p) / (2 * g2) + g2 * mp2.trace_moment() / 2.0
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("maker", [
    lambda: momentum.sgd(0.8),
    lambda: momentum.sdahb(1.2, 2.0),
])
def test_kernel_norm_matches_numeric_integration(maker, mp2):
    params = maker()
    got = analysis.kernel_norm(params, mp2)
    want = numeric_kernel_mass(params, mp2)
    assert got == pytest.approx(want, abs=1e-3)


def test_kernel_norm_sdana_matches_numeric_integration(mp2):
    params = momentum.sdana(0.25, 1.0, 4.0)
    got = analysis.kernel_norm(params, mp2)
    want = numeric_kernel_mass(params, mp2)
    assert got == pytest.approx(want, abs=1e-3)


def test_kernel_norm_rejects_custom_and_bad_gamma2(mp2):
    sched = kernels._Schedule("const", 0.5)
    with pytest.raises(ValueError):
        analysis.kernel_norm(momentum.custom(0.1, 0.1, sched), mp2)
    with pytest.raises(ValueError):
        analysis.kernel_norm(momentum.sdana(0.25, 0.0, 4.0), mp2)


def test_limiting_loss_formula():
    assert analysis.limiting_loss(0.5, 0.3, 2.0) == pytest.approx(
        2.0 * 0.3 / (2.0 * 0.5))
    assert analysis.limiting_loss(0.25, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        analysis.limiting_loss(1.0, 0.3, 1.0)


# -------------------------------------------------- Laplace transform

def test_laplace_at_zero_equals_norm(mp2):
    for params in (momentum.sgd(0.8), momentum.sdahb(1.2, 2.0),
                   momentum.sdana(0.25, 1.0, 4.0)):
        F0 = analysis.laplace_transform(params, mp2, 0.0)
        assert F0 == pytest.approx(analysis.kernel_norm(params, mp2),
                                   rel=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.05, 0.12])
def test_laplace_sgd_matches_scipy_quad(x):
    lam, gamma = 1.3, 0.4
    mu = atom(lam)
    want, err = scipy.integrate.quad(
        lambda t: np.exp(x * t) * kernels.sgd_kernel(lam, gamma, t),
        0.0, np.inf)
    assert err < 1e-6
    got = analysis.laplace_transform(momentum.sgd(gamma), mu, x)
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("x", [0.0, 0.1])
def test_laplace_sdahb_matches_scipy_quad(x):
    lam, g1, theta = 1.1, 0.9, 2.3
    mu = atom(lam)
    want, err = scipy.integrate.quad(
        lambda t: np.exp(x * t) * kernels.general_sdahb_kernel(
            lam, g1, 0.0, theta, t),
        0.0, 200.0, limit=400)
    assert err < 1e-8
    got = analysis.laplace_transform(momentum.sdahb(g1, theta), mu, x)
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("x", [0.0, 0.05])
def test_laplace_sdana_matches_scipy_quad(x):
    lam, g1, g2, theta = 0.9, 0.25, 1.0, 4.0
    mu = atom(lam)
    want, err = scipy.integrate.quad(
        lambda t: np.exp(x * t) * np.ravel(
            kernels.sdana_kernel_conv(lam, g1, g2, theta, t))[0],
        0.0, 300.0, limit=400)
    assert err < 1e-8
    got = analysis.laplace_transform(momentum.sdana(g1, g2, theta), mu, x)
    assert got == pytest.approx(want, rel=1e-7)


def test_laplace_blows_up_past_cap():
    lam, gamma = 1.0, 0.5
    mu = atom(lam)
    cap = 2.0 * gamma * lam
    assert analysis.laplace_transform(momentum.sgd(gamma), mu,
                                      cap * 1.01) == np.inf


# ------------------------------------------------------- Malthusian

def test_single_atom_sgd_root_closed_form():
    # F(x) = g^2 l^2/(2 g l - x) = 1  <=>  x = 2 g l - g^2 l^2
    for lam, gamma in [(1.0, 0.3), (1.0, 0.8), (2.0, 0.25)]:
        mu = atom(lam)
        want = 2 * gamma * lam - gamma**2 * lam**2
        got = analysis.malthusian_exponent(momentum.sgd(gamma), mu)
        assert got == pytest.approx(want, abs=1e-10)


def test_malthusian_root_satisfies_fixed_point(mp2):
    # needs a step large enough that the tilted mass reaches 1 before the
    # cap; at gamma=1.9 the norm is 0.95 and the root sits inside (0, cap)
    params = momentum.sgd(1.9)
    root = analysis.malthusian_exponent(params, mp2)
    assert root is not None
    assert analysis.laplace_transform(params, mp2, root) == pytest.approx(
        1.0, abs=1e-9)


def test_malthusian_absent_on_hard_edge(mp1):
    got = analysis.malthusian_exponent(momentum.sgd(1.0), mp1)
    assert got is None
    _, note = analysis._malthusian(momentum.sgd(1.0), mp1)
    assert "touches zero" in note


def test_malthusian_absent_when_forcing_dominates(mp2):
    # small step: kernel mass too small for F to reach 1 before the cap
    got = analysis.malthusian_exponent(momentum.sgd(0.05), mp2)
    assert got is None
    _, note = analysis._malthusian(momentum.sgd(0.05), mp2)
    assert "forcing-dominated" in note


def test_malthusian_absent_when_not_convergent(mp2):
    _, note = analysis._malthusian(momentum.sgd(2.5), mp2)
    assert ">= 1" in note


# ------------------------------------------------------------- rates

def test_forcing_rate_formulas(mp2):
    lam = analysis.positive_edges(mp2)[0]
    assert analysis.forcing_rate(momentum.sgd(0.8), mp2) == pytest.approx(
        2 * 0.8 * lam)
    g1, theta = 1.2, 2.0
    want = theta - np.sqrt(theta**2 - 4 * g1 * lam)
    assert analysis.forcing_rate(momentum.sdahb(g1, theta), mp2) == \
        pytest.approx(want)
    g1, g2 = 0.25, 1.0
    # omega(lam_min) = 4 g1 - g2^2 lam_min >= 0 here: oscillatory branch
    assert 4 * g1 - g2**2 * lam >= 0
    assert analysis.forcing_rate(momentum.sdana(g1, g2, 4.0), mp2) == \
        pytest.approx(g2 * lam)


def test_forcing_rate_sdana_overdamped_branch():
    mu = atom(4.0)  # large eigenvalue pushes omega < 0
    g1, g2 = 0.1, 1.0
    lam = 4.0
    want = g2 * lam - np.sqrt(g2**2 * lam**2 - 4 * g1 * lam)
    assert analysis.forcing_rate(momentum.sdana(g1, g2, 4.0), mu) == \
        pytest.approx(want)


def test_effective_rate_prefers_malthusian(mp2):
    params = momentum.sgd(1.9)
    root = analysis.malthusian_exponent(params, mp2)
    assert analysis.effective_rate(params, mp2) == pytest.approx(root)
    slow = momentum.sgd(0.05)
    assert analysis.malthusian_exponent(slow, mp2) is None
    assert analysis.effective_rate(slow, mp2) == pytest.approx(
        analysis.forcing_rate(slow, mp2))


def test_effective_rate_between_bounds_at_defaults():
    for r in (2.0, 4.0):
        mu = spectrum.mp_measure(r)
        for name in ("sgd", "sdahb", "sdana"):
            params = momentum.defaults(name, mu)
            eff = analysis.effective_rate(params, mu)
            lo = analysis.rate_lower_bound(params, mu)
            hi = analysis.rate_upper_bound(params, mu)
            assert lo <= eff <= hi, (name, r, lo, eff, hi)


def test_observed_decay_matches_effective_rate(mp2):
    # the predicted curve's log-slope at late times equals the analysis rate
    params = momentum.sgd(1.9)
    sol = volterra.predict(mp2, params, T=40.0, R_tilde=0.0)
    i1, i2 = np.searchsorted(sol.grid, [25.0, 38.0])
    slope = (np.log(sol.psi[i2]) - np.log(sol.psi[i1])) / (
        sol.grid[i2] - sol.grid[i1])
    # polynomial prefactors bias the finite-window slope slightly high
    assert -slope == pytest.approx(analysis.effective_rate(params, mp2),
                                   rel=0.10)


# --------------------------------------------------- classification

def test_classify_mp():
    assert analysis.classify(spectrum.mp_measure(1.0)) == "hard_edge"
    assert analysis.classify(spectrum.mp_measure(2.0)) == "strongly_convex"
    assert analysis.classify(spectrum.mp_measure(0.5)) == "strongly_convex"


def test_classify_mp_near_square_is_hard_edge():
    # lambda_min = (1 - r^(-1/2))^2 ~ 2.5e-19 at r = 1 - 1e-9: no usable gap
    assert analysis.classify(spectrum.mp_measure(0.999999999)) == "hard_edge"
    assert analysis.classify(spectrum.mp_measure(1.0)) == "hard_edge"
    assert analysis.classify(spectrum.mp_measure(2.0)) == "strongly_convex"


def test_classify_discrete():
    assert analysis.classify(atom(0.5)) == "strongly_convex"
    near_zero = spectrum.SpectralMeasure("discrete", [1e-15, 1.0],
                                         [0.5, 0.5], 0.0)
    assert analysis.classify(near_zero) == "hard_edge"


def test_rate_report_fields_and_json(mp1):
    rep = analysis.rate_report(momentum.defaults("sdana", mp1), mp1,
                               R_tilde=0.5)
    d = rep.to_dict()
    assert set(d) == set(analysis.AnalysisReport.FIELDS)
    assert d["algo"] == "sdana"
    assert d["classification"] == "hard_edge"
    assert d["predicted_poly_exponents"] == (-3.0, -1.0)
    assert d["p"] == 0.0
    assert d["R_tilde"] == 0.5
    blob = json.loads(rep.to_json())
    assert blob["kernel_norm"] == pytest.approx(d["kernel_norm"])


def test_rate_report_strongly_convex_has_no_exponents(mp2):
    rep = analysis.rate_report(momentum.defaults("sgd", mp2), mp2)
    assert rep.predicted_poly_exponents is None
    assert rep.convergent
    assert rep.limiting_loss == 0.0


def test_poly_exponent_table(mp1):
    for name, want in (("sgd", (-1.5, -0.5)), ("shb", (-1.5, -0.5)),
                       ("sdahb", (-1.5, -0.5)), ("sdana", (-3.0, -1.0))):
        if name == "shb":
            params = momentum.shb(1.0 / 64, 2.0 / 64)
        else:
            params = momentum.defaults(name, mp1)
        rep = analysis.rate_report(params, mp1, n=64)
        assert rep.predicted_poly_exponents == want, name


# ------------------------------------------------------ slope fitting

def test_fit_poly_rate_recovers_slope():
    t = np.linspace(1.0, 100.0, 500)
    v = 3.0 * t ** -1.5
    got = analysis.fit_poly_rate(t, v, (5.0, 80.0))
    assert got == pytest.approx(-1.5, abs=1e-9)


def test_fit_poly_rate_window_and_errors():
    t = np.linspace(1.0, 10.0, 50)
    with pytest.raises(ValueError):
        analysis.fit_poly_rate(t, np.ones_like(t), (100.0, 200.0))
    v = np.ones_like(t)
    v[10] = -1.0
    with pytest.raises(ValueError):
        analysis.fit_poly_rate(t, v, (1.0, 10.0))


@settings(max_examples=30, deadline=None)
@given(slope=st.floats(-3.0, -0.2), scale=st.floats(0.1, 10.0))
def test_fit_poly_rate_property(slope, scale):
    t = np.linspace(2.0, 50.0, 200)
    got = analysis.fit_poly_rate(t, scale * t ** slope, (2.0, 50.0))
    assert got == pytest.approx(slope, abs=1e-7)


# --------------------------------------------------------- threshold

@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.05, 3.5))
def test_convergence_threshold_is_sharp_sgd(gamma, mp2):
    # ||I|| < 1 iff gamma < 2/m: the classical stability boundary
    norm = analysis.kernel_norm(momentum.sgd(gamma), mp2)
    assert (norm < 1.0) == (gamma < 2.0 / mp2.trace_moment())


def test_shb_norm_needs_no_n(mp2):
    # the n's cancel in the norm: gamma*m/(2*theta) either way
    got = analysis.kernel_norm(momentum.shb(0.025, 0.03125), mp2)
    assert got == pytest.approx(0.025 * mp2.trace_moment() / (2 * 0.03125))
