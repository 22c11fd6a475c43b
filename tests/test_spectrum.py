"""Spectral measures: quadrature accuracy against direct scipy integrals."""

import json
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings, strategies as st

from movolt import spectrum
from movolt.errors import NumericalError


def mp_density(lam, r):
    """Marchenko-Pastur bulk density r*sqrt((lam+-lam)(lam-lam-))/(2 pi lam)
    with edges (1 -+ sqrt(1/r))^2: the n x n Gram-matrix spectrum of an
    n x d Gaussian design with entry variance 1/d."""
    s = math.sqrt(1.0 / r)
    lo, hi = (1.0 - s) ** 2, (1.0 + s) ** 2
    if lam <= lo or lam >= hi:
        return 0.0
    return r * math.sqrt((hi - lam) * (lam - lo)) / (2.0 * math.pi * lam)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("power", [1, 2, 3])
def test_mp_moments_match_scipy_quad(r, power):
    s = math.sqrt(1.0 / r)
    lo, hi = (1.0 - s) ** 2, (1.0 + s) ** 2
    want, err = scipy.integrate.quad(
        lambda lam: lam ** power * mp_density(lam, r), lo, hi, limit=200)
    assert err < 1e-6
    mu = spectrum.mp_measure(r, nodes=400)
    got = mu.integrate(lambda lam: lam ** power)
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_mp_nonpolynomial_integrand_vs_quad(r):
    # resolvent-style integrand, the shape the analysis module feeds in
    s = math.sqrt(1.0 / r)
    lo, hi = (1.0 - s) ** 2, (1.0 + s) ** 2
    g = lambda lam: lam / (lam + 0.3)
    want, err = scipy.integrate.quad(
        lambda lam: g(lam) * mp_density(lam, r), lo, hi, limit=200)
    assert err < 1e-6
    mu = spectrum.mp_measure(r, nodes=400)
    got = mu.weights @ g(mu.points)
    assert got == pytest.approx(want, abs=1e-8)


# at r >= 1e20 the edges' difference cancels; the half-width is 2 r^(-1/2)
@pytest.mark.parametrize("r", [0.25, 1.0, 3.0, 1e20, 1e40, 1e300])
def test_mp_total_mass_and_zero_atom(r):
    mu = spectrum.mp_measure(r)
    # bulk + atom must be a probability measure
    assert mu.zero_mass + mu.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert mu.zero_mass == pytest.approx(max(1.0 - r, 0.0), abs=1e-12)


def test_mp_trace_moment_is_one():
    # E lambda = 1 for every aspect ratio under this normalization
    for r in (0.3, 1.0, 2.0, 8.0):
        assert spectrum.mp_measure(r).trace_moment() == pytest.approx(1.0, abs=1e-9)


def test_mp_support_edges():
    mu = spectrum.mp_measure(2.0)
    lo, hi = mu.support_edges()
    s = math.sqrt(0.5)
    assert lo == pytest.approx((1 - s) ** 2, abs=0.01)
    assert hi == pytest.approx((1 + s) ** 2, abs=0.01)
    # hard edge: the square case touches zero
    lo1, _ = spectrum.mp_measure(1.0).support_edges()
    assert lo1 < 1e-3


def test_esm_from_eigenvalues_counts():
    eigs = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
    mu = spectrum.esm_from_eigenvalues(eigs)
    assert mu.zero_mass == pytest.approx(0.4)
    assert sorted(mu.points) == [1.0, 2.0]
    assert mu.integrate(lambda lam: lam) == pytest.approx(0.8)


def test_measure_json_roundtrip(mp2):
    back = spectrum.SpectralMeasure.from_json(mp2.to_json())
    assert np.allclose(back.points, mp2.points)
    assert np.allclose(back.weights, mp2.weights)
    assert back.zero_mass == mp2.zero_mass


def test_discrete_json_roundtrip():
    mu = spectrum.esm_from_eigenvalues([0.5, 0.5, 2.0, 0.0])
    back = spectrum.SpectralMeasure.from_json(mu.to_json())
    assert np.allclose(back.points, mu.points)
    assert back.zero_mass == pytest.approx(0.25)


def test_invalid_mass_rejected():
    with pytest.raises(NumericalError):
        spectrum.SpectralMeasure("discrete", [1.0], [0.3], 0.2)


# a subnormal r (4e-309) overflows the upper edge (1 + r^(-1/2))^2; below
# about 7.5e-155 its square, which the kernel and the Laplace transforms
# take, overflows
@pytest.mark.parametrize("r", [0.0, -1.0, float("nan"), float("inf"), 4e-309,
                               1e-160, 1e-300, 1e-307])
def test_mp_rejects_nonfinite_or_nonpositive_ratio(r):
    with pytest.raises(ValueError, match=r"\(--r\) must be finite"):
        spectrum.mp_measure(r)


def test_support_edges_skip_empty_atoms():
    mu = spectrum.SpectralMeasure("discrete", [0.5, 2.0, 9.0],
                                  [0.0, 0.6, 0.0], 0.4)
    assert mu.support_edges() == (2.0, 2.0)
    assert spectrum.SpectralMeasure("discrete", [], [], 1.0) \
        .support_edges() == (0.0, 0.0)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        spectrum.SpectralMeasure("discrete", [1.0, 2.0], [1.2, -0.2], 0.0)
    # an unknown kind, mismatched arrays and a point that is not positive
    for args, why in [
            (("atoms", [1.0], [1.0], 0.0), "unknown measure kind 'atoms'"),
            (("discrete", [1.0, 2.0], [1.0], 0.0),
             "points and weights must be matching 1-d arrays"),
            (("discrete", [[1.0]], [[1.0]], 0.0),
             "points and weights must be matching 1-d arrays"),
            (("discrete", [0.0, 2.0], [0.5, 0.5], 0.0),
             "support points must be strictly positive")]:
        with pytest.raises(ValueError, match=why):
            spectrum.SpectralMeasure(*args)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.1, 10.0), nodes=st.integers(50, 300))
def test_mp_mass_always_one(r, nodes):
    try:
        mu = spectrum.mp_measure(r, nodes=nodes)
    except NumericalError:
        # documented: too few nodes for the pole near the bulk edge
        assume(False)
    assert abs(mu.zero_mass + mu.weights.sum() - 1.0) < 1e-8
    assert np.all(mu.points > 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30))
def test_esm_mass_always_one(eigs):
    mu = spectrum.esm_from_eigenvalues(eigs)
    assert abs(mu.zero_mass + mu.weights.sum() - 1.0) < 1e-9


def test_json_has_expected_keys(mp1):
    obj = json.loads(mp1.to_json())
    assert obj["kind"] == "marchenko_pastur"
    assert obj["r"] == 1.0


def test_mp_measure_climbs_to_the_mass_budget():
    # without a node count the rule is DEFAULT_NODES, or the first rung of
    # the ladder above it that meets MASS_TOL; past the last rung it raises
    assert spectrum.mp_measure(2.0).nodes == spectrum.DEFAULT_NODES
    mu = spectrum.mp_measure(0.95)
    assert mu.nodes == 400
    assert abs(mu.zero_mass + mu.weights.sum() - 1.0) <= spectrum.MASS_TOL
    with pytest.raises(NumericalError, match="at 200 nodes"):
        spectrum.mp_measure(0.95, nodes=200)
    with pytest.raises(NumericalError, match="at 1600 nodes"):
        spectrum.mp_measure(0.999)


def test_mp_rule_is_the_measures_and_holds_the_third_rule():
    # mp_measure's nodes and weights are mp_rule's; the 3N rule holds the
    # N rule's nodes, every third from the second, at a third the weight,
    # to rounding: within 3 ulp of the bulk's center, and a weight error
    # of 1e-15 of the mass in all
    eps = np.finfo(float).eps
    for r, nodes in ((0.5, 50), (1.0, 200), (2.0, 1600)):
        mu = spectrum.mp_measure(r, nodes=nodes)
        lam, wts = spectrum.mp_rule(r, nodes)
        assert np.array_equal(mu.points, lam)
        assert np.array_equal(mu.weights, wts)
        lam3, wts3 = spectrum.mp_rule(r, 3 * nodes)
        assert np.max(np.abs(lam3[1::3] - lam)) <= 3 * eps * (1 + 1 / r)
        assert np.sum(np.abs(3.0 * wts3[1::3] - wts)) <= 1e-15
