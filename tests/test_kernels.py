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
forms and moment propagator.
"""

import mpmath
import numpy as np
import pytest
import scipy.integrate

from movolt import kernels, momentum, spectrum, volterra


def _response(lam, gamma1, gamma2, Phi, t_eval, u0, w0, t0=0.0, **options):
    """u on t_eval, for one lam or, integrated as one system, an array."""
    lams = np.ravel(lam)
    k = len(lams)

    def rhs(t, y):
        u, w = y[:k], y[k:]
        return np.concatenate([-gamma2 * lams * u - gamma1 * w,
                               -Phi(t) * w + lams * u])
    options = {"rtol": 1e-12, **options}
    sol = scipy.integrate.solve_ivp(rhs, (t0, t_eval[-1]),
                                    np.repeat([u0, w0], k), t_eval=t_eval,
                                    atol=1e-14, **options)
    assert sol.success
    return sol.y[:k].reshape(np.shape(lam) + (len(t_eval),))


def oracle_forcing(lam, gamma1, gamma2, Phi, grid, **options):
    return 0.5 * _response(lam, gamma1, gamma2, Phi, grid, 1.0, 0.0,
                           **options) ** 2


def oracle_kernel(lam, gamma1, gamma2, Phi, s, grid):
    u = _response(lam, gamma1, gamma2, Phi, grid, -gamma2, 1.0, t0=s)
    return lam ** 2 * u ** 2


def const_spec(gamma1, gamma2, theta):
    return kernels.KernelSpec(gamma1, gamma2, theta, "closed")


def closed_forcing(lam, gamma1, gamma2, theta, grid):
    """The constant-Phi forcing of one lam."""
    spec = const_spec(gamma1, gamma2, theta)
    return kernels.forcing_matrix(spec, [lam], np.atleast_1d(grid))[0]


def closed_kernel(lam, gamma1, gamma2, theta, tau):
    """The constant-Phi kernel of one lam."""
    spec = const_spec(gamma1, gamma2, theta)
    return kernels.kernel_matrix(spec, [lam], np.atleast_1d(tau))[0]


# ---------------------------------------------------------------- sgd

def test_sgd_forcing_closed_form():
    # out to t = 300, where the value is about 1e-237: relative all the way
    t = np.linspace(0.0, 300.0, 241)
    spec = momentum.sgd(0.7).kernel_spec()
    got = kernels.forcing_matrix(spec, [1.3], t)[0]
    assert np.allclose(got, 0.5 * np.exp(-2 * 0.7 * 1.3 * t), rtol=1e-14,
                       atol=0.0)


def test_sgd_kernel_closed_form():
    tau = np.linspace(0.0, 300.0, 241)
    spec = momentum.sgd(0.7).kernel_spec()
    got = kernels.kernel_matrix(spec, [1.3], tau)[0]
    assert np.allclose(got, 0.7**2 * 1.3**2 * np.exp(-2 * 0.7 * 1.3 * tau),
                       rtol=1e-14, atol=0.0)


def test_sgd_forcing_matches_mpmath():
    # against 40-digit mpmath at the same float gamma, lam and t, out to
    # t = 300: the largest relative error measured is 7.55e-14 (at
    # t = 286.25), the conditioning of exp at an argument near -546
    t = np.linspace(0.0, 300.0, 241)
    spec = momentum.sgd(0.7).kernel_spec()
    got = kernels.forcing_matrix(spec, [1.3], t)[0]
    rate = 2 * mpmath.mpf(spec.gamma2) * mpmath.mpf(1.3)
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpf(g) / (mpmath.exp(-rate * mpmath.mpf(x)) / 2)
                        - 1) for g, x in zip(got, t))
    assert worst <= 1.5e-13


def test_sgd_forcing_tail_has_no_false_zeros():
    # the r = 4 SGD forcing F(t) = sum_i c_i exp(-2 gamma lam_i t)/2 over the
    # MP nodes, summed in mpmath from the same floats: no value may read 0
    # where the exact one is representable
    mu = spectrum.mp_measure(4.0)
    spec = momentum.defaults("sgd", mu).kernel_spec()
    lams, coef = mu.points, mu.weights * mu.points
    grid = np.linspace(0.0, 300.0, 121)
    got = coef @ kernels.forcing_matrix(spec, lams, grid)
    g2 = mpmath.mpf(spec.gamma2)
    with mpmath.workdps(50):
        exact = [mpmath.fsum(0.5 * mpmath.mpf(c) * mpmath.exp(
            -2 * g2 * mpmath.mpf(lam) * mpmath.mpf(t))
            for c, lam in zip(coef, lams)) for t in grid]
    live = np.array([e > 1e-300 for e in exact])
    assert live[-1]
    assert np.all(got[live] > 0.0)
    rel = [abs(mpmath.mpf(g) - e) / e for g, e, ok in zip(got, exact, live)
           if ok]
    assert float(max(rel)) <= 1e-12


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
        got = closed_kernel(lam, 0.3, g2, 1.0, 0.0)[0]
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
    cur = K.ic
    got = [K.agg @ cur[0]]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        cur = K.advance(cur, t0, t1, K.maps([t0, t1])[0])
        got.append(K.agg @ cur[0])
    assert np.allclose(got, want, atol=1e-7)


def test_sdana_conv_kernel_is_late_time_limit():
    # the stationary kernel approximates K(s, s+tau) once the averaging
    # phase has settled; compare at s = 60 where 1/(1+s) is small
    lam, g1, g2, theta = 1.0, 0.25, 1.0, 4.0
    s = 60.0
    tau = np.linspace(0.0, 3.0, 31)
    want = oracle_kernel(lam, g1, g2, lambda t: theta / (1.0 + t), s, s + tau)
    spec = momentum.sdana(g1, g2, theta).kernel_spec(mode="conv")
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
    cur = K.ic
    steps = int(round((t1 - s) / h))
    for j in range(steps):
        t = [s + j * h, s + (j + 1) * h]
        cur = K.advance(cur, t[0], t[1], K.maps(t)[0])
    dense = sum(w * oracle_kernel(l, 0.25, 1.0, lambda t: 4.0 / (1.0 + t),
                                  s, np.array([s, t1]))[-1]
                for l, w in zip(lam, wts))
    assert K.agg @ cur[0] == pytest.approx(dense, rel=1e-7)


# ------------------------------------ constant Phi against mpmath's expm

# (g1, g2, Phi): SGD, SDAHB, the mixed g1/g2 variant, SDANA's convolution
# kernel at Phi = 0, and g1 = 0 with friction
_FAMILIES = {"sgd": (0.0, 0.7, 0.0), "sdahb": (0.8, 0.0, 1.5),
             "mixed": (0.3, 0.4, 1.5), "sdana": (0.25, 1.0, 0.0),
             "g1_zero": (0.0, 0.4, 1.5)}


def _turning_point(g1, g2, Phi, guess):
    """The lam near guess where disc = (Phi - g2 lam)^2/4 - g1 lam is 0."""
    with mpmath.workdps(40):
        return float(mpmath.findroot(
            lambda lam: (Phi - g2 * lam) ** 2 / 4 - g1 * lam, guess))


def _oracle_cases():
    cases = [(fam, lam) for fam in _FAMILIES for lam in (0.05, 2.5, 40.0)]
    # the slow rate m + s cancels at large lam unless it comes from det B,
    # and SDANA's kernel coefficient g2 (s + u) + g1 unless it is
    # g1 (m + s)/(s - u)
    cases += [("mixed", 900.0), ("sdana", 900.0), ("sdana", 1e4)]
    for fam, guess in (("sdahb", 0.7), ("mixed", 1.0), ("sdana", 1.0)):
        star = _turning_point(*_FAMILIES[fam], guess)
        cases += [(fam, star), (fam, star * (1 - 1e-9)),
                  (fam, star * (1 + 1e-9))]
    return cases


def _mp_forcing_kernel(lam, g1, g2, Phi, x):
    """(G, scale_G, K, scale_K) at x from a 40-digit expm of x B.

    rho is c + w S for the forcing and -g2 c - (g2 w + g1) S for the
    kernel; the scale is the squared sum of the magnitudes of the two
    terms.  Where disc >= 0, c = e^((m-s)x), w = s + u and
    S = e^(mx) sinh(sx)/s, so the scale is rho^2 itself unless rho changes
    sign.  Where disc < 0, c = e^(mx) cos(sx), w = u and S = e^(mx)
    sin(sx)/s oscillate; they are bounded by e^(mx) and e^(mx) min(x, 1/s),
    since a phase error leaves an unbounded pointwise error where rho
    changes sign.
    """
    mp = mpmath.mpf
    lam, g1, g2, Phi, x = mp(lam), mp(g1), mp(g2), mp(Phi), mp(x)
    M = mpmath.expm(x * mpmath.matrix([[-g2 * lam, -g1], [lam, -Phi]]))
    m, u = -(g2 * lam + Phi) / 2, (Phi - g2 * lam) / 2
    disc = u * u - g1 * lam
    s = mpmath.sqrt(abs(disc))
    if disc >= 0:
        c, w = mpmath.exp((m - s) * x), s + u
        S = x * mpmath.exp(m * x) if s == 0 else (
            mpmath.exp(m * x) * mpmath.sinh(s * x) / s)
    else:
        c, w, S = mpmath.exp(m * x), u, mpmath.exp(m * x) * min(x, 1 / s)
    rho_k = M[0, 1] - g2 * M[0, 0]
    return (M[0, 0] ** 2 / 2, (abs(c) + abs(w * S)) ** 2 / 2,
            lam ** 2 * rho_k ** 2,
            lam ** 2 * (g2 * abs(c) + abs(g2 * w + g1) * abs(S)) ** 2)


# the half-step grid of time_grid(300, 0.05), 12,001 points, which the
# closed routes evaluate from angle-addition tables, and the indices of it
# checked against mpmath: both sides of the first coarse boundaries, and
# the last point
_LATTICE = volterra._sweep_nodes(volterra.time_grid(300.0, 0.05), True)
_LATTICE_AT = np.unique(np.concatenate([
    [1, 127, 128, 129, 255, 256, 12000],
    np.linspace(0, 12000, 29).round().astype(int)]))


@pytest.mark.parametrize("family,lam", _oracle_cases())
def test_constant_phi_matches_mpmath_expm(family, lam):
    # forcing and kernel to 1e-12 of their scale wherever the exact value
    # is representable, out to x = 300; on both sides of each turning
    # point and within 1e-9 of it.  Scattered points read cos and sin
    # directly, the uniform half-step grid through its tables
    g1, g2, Phi = _FAMILIES[family]
    scattered = np.union1d(np.linspace(0.0, 300.0, 31), [1e-6, 0.37, 2.0, 4.0])
    spec = const_spec(g1, g2, Phi)
    for x, at in ((scattered, np.arange(scattered.size)),
                  (_LATTICE, _LATTICE_AT)):
        F = kernels.forcing_matrix(spec, [lam], x)[0]
        K = kernels.kernel_matrix(spec, [lam], x)[0]
        with mpmath.workdps(40):
            for j in at:
                G, scale_G, Kx, scale_K = _mp_forcing_kernel(lam, g1, g2, Phi,
                                                             x[j])
                for got, exact, scale in ((F[j], G, scale_G),
                                          (K[j], Kx, scale_K)):
                    if exact > 1e-300:
                        assert (abs(mpmath.mpf(got) - exact)
                                <= 1e-12 * scale), x[j]


@pytest.mark.parametrize("x0", [0.0, 7.3])
@pytest.mark.parametrize("n", [1, 100, 1000, 12001])
def test_wave_matches_mpmath_on_a_lattice(x0, n):
    # a cos(s x) + b sin(s x) from the angle-addition tables is within
    # 4 eps (|a| + |b|)(1 + s x) of the exact value at the float x and s,
    # for slow and fast waves, on a grid shorter than one table row, one
    # that ends inside a row, and the 12,001-point half-step grid
    x = x0 + 0.025 * np.arange(n)
    lattice = kernels._lattice(x)
    assert lattice[2].size == min(n, kernels._FINE)
    at = np.unique(np.concatenate([[0, 1, 127, 128, 129, n - 1],
                                   np.linspace(0, n - 1, 24).astype(int)]))
    at = at[at < n]
    eps = np.finfo(float).eps
    worst = 0.0
    for s in (1e-9, 1e-3, 0.7, 31.4, 900.0):
        for a, b in ((1.0, 0.3), (-0.4, 2.5)):
            got = kernels._wave(a, b, s, lattice)
            assert got.shape == (n,)
            with mpmath.workdps(40):
                for j in at:
                    sx = mpmath.mpf(s) * mpmath.mpf(x[j])
                    exact = a * mpmath.cos(sx) + b * mpmath.sin(sx)
                    err = abs(mpmath.mpf(got[j]) - exact)
                    bound = eps * (abs(a) + abs(b)) * (1.0 + s * x[j])
                    worst = max(worst, float(err / bound))
    assert worst <= 4.0


def test_wave_reads_any_other_grid_directly():
    # a grid that is not an arithmetic progression gets the split
    # coarse = x, fine = [0]: the same code then gives, bit for bit,
    # a cos(s x) + b sin(s x) evaluated at every point
    rng = np.random.default_rng(5)
    nudged = 0.025 * np.arange(300)
    nudged[200] += 1e-9
    for x in (np.union1d(np.linspace(0.0, 300.0, 31), [1e-6, 0.37, 2.0, 4.0]),
              np.sort(rng.uniform(0.0, 300.0, 500)), nudged):
        x_, coarse, fine = kernels._lattice(x)
        assert coarse is x_ and fine.tolist() == [0.0]
        for s in (1e-9, 0.7, 900.0):
            got = kernels._wave(0.8, -1.7, s, (x_, coarse, fine))
            want = 0.8 * np.cos(s * x) + -1.7 * np.sin(s * x)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9,     # oscillatory, omega > 0
                                 1.0 - 1e-9, 1.0,   # turning point
                                 1.5, 3.7])         # hyperbolic, omega < 0
def test_sdana_conv_kernel_birth_identities(lam):
    # at tau = 0 the stationary kernel starts from the two-time kernel's
    # initial data (kernel_ic): K(0) = g2^2 lam^2, K'(0) = 2 g2 lam^2 (g1 - g2^2 lam)
    g1, g2, eps = 0.25, 1.0, 1e-5
    spec = momentum.sdana(g1, g2, 4.0).kernel_spec(mode="conv")
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
    spec = momentum.sdana(g1, g2, 4.0).kernel_spec(mode="conv")
    got = kernels.kernel_matrix(spec, [lam], tau)[0]
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(want)


def _bit_cases():
    """(g1, g2, Phi, lams) per family: SGD, SDAHB (critical, s = 0, at
    lam = 0.5), SHB at n = 1000, the mixed variant and SDANA's Phi = 0
    kernel; each lams mixes oscillating, overdamped and SGD-like nodes
    with nodes at and within 1e-9 of the turning point, out of order."""
    shb = momentum.shb(0.0005, 0.001).kernel_spec(n=1000)
    sdana = momentum.sdana(0.25, 1.0, 4.0).kernel_spec(mode="conv")
    cases = {"sgd": (0.0, 0.7, 0.0), "sdahb": (0.5, 0.0, 1.0),
             "shb": (shb.gamma1, shb.gamma2, shb.theta),
             "mixed": _FAMILIES["mixed"], "sdana": (sdana.gamma1, sdana.gamma2,
                                                    0.0)}
    rng = np.random.default_rng(3)
    for name, (g1, g2, Phi) in cases.items():
        lams = [0.05, 0.5, 2.5, 40.0, 900.0, 1e-6]
        if g1 > 0.0:
            star = _turning_point(g1, g2, Phi, 0.5 if g2 == 0.0 else 1.0)
            lams += [star, star * (1 - 1e-9), star * (1 + 1e-9)]
        yield name, g1, g2, Phi, rng.permutation(lams)


@pytest.mark.parametrize("name,g1,g2,Phi,lams", list(_bit_cases()))
def test_first_row_over_an_array_is_the_per_lam_rows(name, g1, g2, Phi,
                                                      lams):
    # one call over every lam has the bits of one call per lam, for the
    # squares of F's row and of the impulse row, forcing_matrix's and
    # kernel_matrix's, on the uniform half-step grid (angle addition) and
    # on scattered times (direct)
    scattered = np.array([0.0, 1e-6, 0.37, 2.0, 45.0, 299.0])
    spec = const_spec(g1, g2, Phi)
    for x in (_LATTICE, scattered):
        for impulse, matrix in ((False, kernels.forcing_matrix),
                                (True, kernels.kernel_matrix)):
            rows = matrix(spec, lams, x)
            one = np.array([matrix(spec, [lam], x)[0] for lam in lams])
            assert np.array_equal(rows, one, equal_nan=True), (name, impulse)


def test_horizon_columns_are_the_matrices_columns():
    # constant Phi and SDANA's conv kernel: the matrices' values at the
    # same times; the exact route's carried columns match its forcing and
    # its kernel born at 0 to the Magnus step's accuracy at h = 0.05
    lams = np.array([0.05, 0.7, 2.5, 3.9])
    t = np.array([0.0, 0.5, 1.0, 2.0, 8.0])
    for spec in (momentum.sgd(0.7).kernel_spec(),
                 momentum.sdahb(0.8, 1.5).kernel_spec()):
        G, K0 = kernels.horizon_columns(spec, lams, t)
        assert np.array_equal(G, kernels.forcing_matrix(spec, lams, t))
        assert np.array_equal(K0, kernels.kernel_matrix(spec, lams, t))
    conv = momentum.sdana(0.25, 1.0, 4.0).kernel_spec(mode="conv")
    G, K0 = kernels.horizon_columns(conv, lams, t, h=0.05)
    assert np.array_equal(K0, kernels.kernel_matrix(conv, lams, t))
    assert np.allclose(G, kernels.forcing_matrix(conv, lams, t), rtol=1e-12,
                       atol=0.0)
    # on the grid of steps of at most h that holds every t, the power
    # schedule's columns are the carrier's, bit for bit: the forcing's
    # through forcing_matrix and the exact kernel's carried alone
    steps = np.unique(np.append(t, np.arange(0.0, t[-1], 0.05)))
    at = np.searchsorted(steps, t)
    assert np.array_equal(
        G, kernels.forcing_matrix(conv, lams, steps, h=0.05)[:, at])
    exact = momentum.sdana(0.25, 1.0, 4.0).kernel_spec()
    G, K0 = kernels.horizon_columns(exact, lams, t, h=0.05)
    assert np.allclose(G, kernels.forcing_matrix(exact, lams, t), rtol=1e-12)
    assert np.array_equal(
        G, kernels.forcing_matrix(exact, lams, steps, h=0.05)[:, at])
    S0 = np.array(list(kernels._carried_columns(
        exact, lams, kernels.kernel_ic(lams, exact.gamma2), steps, 0.05)))
    assert np.array_equal(K0, lams[:, None] ** 2 * S0[at].T)
    want = np.array([oracle_kernel(lam, 0.25, 1.0, lambda s: 4.0 / (1.0 + s),
                                   0.0, t) for lam in lams])
    assert np.allclose(K0, want, rtol=1e-5, atol=0.0)


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


@pytest.mark.parametrize("r, gamma1, bound", [
    (1.0, None, 2e-9),    # the default SDANA row
    (0.01, None, 1e-9),   # stiff: lam up to 121
    (1.0, 1e6, 1e-4),     # oscillatory: frequency up to 4000
])
def test_propagator_matches_oracle_on_stiff_and_oscillatory_nodes(r, gamma1,
                                                                  bound):
    # forcing_matrix's power branch, one Magnus step per grid interval,
    # against scipy over T = 3 at step 0.025
    mu = spectrum.mp_measure(r)
    spec = momentum.defaults("sdana", mu).kernel_spec()
    lams = np.append(mu.points[::10], mu.points.max())
    options = {}
    if gamma1 is not None:
        spec = momentum.sdana(gamma1, spec.gamma2, spec.theta).kernel_spec()
        # the oracle resolves every oscillation: a few nodes, eighth order
        lams = lams[[0, 10, -1]]
        options = {"method": "DOP853", "rtol": 1e-10}
    grid = 0.025 * np.arange(121)
    got = kernels.forcing_matrix(spec, lams, grid)
    assert np.all(np.isfinite(got))
    want = oracle_forcing(lams, spec.gamma1, spec.gamma2,
                          lambda t: spec.theta / (1.0 + t), grid, **options)
    assert np.max(np.abs(got - want)) <= bound


def test_propagator_order_power_schedule():
    # one Magnus step per interval: halving the step shrinks the error
    # ~16x against scipy, so the propagator is fourth order
    lam, g1, g2, theta = 1.7, 0.25, 1.0, 4.0
    spec = momentum.sdana(g1, g2, theta).kernel_spec()
    errs = []
    for step in (0.05, 0.025, 0.0125):
        grid = step * np.arange(int(round(2.0 / step)) + 1)
        want = oracle_forcing(lam, g1, g2, lambda t: theta / (1.0 + t), grid)
        got = kernels.forcing_matrix(spec, [lam], grid, h=step)[0]
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0


@pytest.mark.parametrize("lam", [0.05, 0.9, 1.0, 2.5, 40.0])
def test_propagator_is_exact_for_constant_phi(lam):
    # with Phi constant the Magnus step is exp(h B) itself: carrying any
    # moment state (a, b, c) = (rho^2, rho omega, omega^2) in one long step
    # gives rho^2 = m11^2 a + 2 m11 m12 b + m12^2 c from the first row of
    # exp(lag B), a 40-digit mpmath expm, on both sides of the turning point
    g1, g2, theta = 0.3, 0.6, 1.1
    spec = const_spec(g1, g2, theta)
    a, b, c = state = np.array([0.7, -0.4, 1.3])
    for lag in (0.3, 2.0, 7.0):
        maps = kernels.interval_maps(np.array(lam), spec, [0.0, lag], lag)
        got = kernels._carry(state, maps[0])[0]
        with mpmath.workdps(40):
            mp = mpmath.mpf
            B = mpmath.matrix([[-mp(g2) * mp(lam), -mp(g1)],
                               [mp(lam), -mp(theta)]])
            M = mpmath.expm(mp(lag) * B)
            m11, m12 = float(M[0, 0]), float(M[0, 1])
        want = m11 * m11 * a + 2.0 * m11 * m12 * b + m12 * m12 * c
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("h", [None, 0.02])
@pytest.mark.parametrize("n", [kernels.MAP_BLOCK - 1, kernels.MAP_BLOCK,
                               kernels.MAP_BLOCK + 1,
                               2 * kernels.MAP_BLOCK + 1])
def test_power_forcing_across_map_blocks(n, h):
    # the power-schedule forcing takes its maps MAP_BLOCK intervals at a
    # time: across every block boundary, with one step per interval or
    # three, it is forcing_ic carried one interval at a time, bitwise.
    # h None is the default step, PROPAGATOR_STEP, given or left out
    mu = spectrum.mp_measure(1.0, nodes=40)
    spec = momentum.defaults("sdana", mu).kernel_spec()
    grid = volterra.time_grid(0.05 * n)
    step = kernels.PROPAGATOR_STEP if h is None else h
    got = kernels.forcing_matrix(spec, mu.points, grid, h=step)
    if h is None:
        assert (kernels.forcing_matrix(spec, mu.points, grid).tobytes()
                == got.tobytes())
    u = kernels.forcing_ic(mu.points)
    for i in range(1, len(grid)):
        maps = kernels.interval_maps(mu.points, spec, grid[i - 1:i + 1], step)
        u = kernels._carry(u, maps[0])
        assert np.array_equal(got[:, i], 0.5 * u[0])


def test_exact_kernel_advance_broadcasts_over_stack():
    # each step's M is shared by leading stack axes: a (3, 2, n_lam) stack
    # advances exactly as each row does alone
    spec = momentum.sdana(0.25, 1.0, 4.0).kernel_spec()
    K = kernels.SdanaExactKernel(spec, [0.3, 1.1, 2.9], [0.2, 0.5, 0.3])
    rows = np.stack([K.ic, -0.7 * K.ic], axis=1)
    Q = K.maps([0.2, 0.27])[0]
    got = K.advance(rows, 0.2, 0.27, Q)
    for i in range(2):
        assert (got[:, i].tobytes()
                == K.advance(rows[:, i], 0.2, 0.27, Q).tobytes())


@pytest.mark.parametrize("K", [1, 2, 7, 64])
@pytest.mark.parametrize("spec", [momentum.sdana(0.25, 1.0, 4.0).kernel_spec(),
                                  const_spec(0.3, 0.6, 1.1)],
                         ids=["power", "const"])
def test_moment_maps_of_a_block(K, spec):
    # the maps of K steps from one call, shape (3, 3, K, n_lam) also where
    # Phi is a constant scalar: each step's map is bitwise the one-step
    # call's, and each entry the product of the 2x2 exponential's entries
    # that S -> M S M^T names
    lam = np.array([0.0, 0.05, 0.3, 0.9, 1.0, 2.5, 7.0, 40.0, 1e4])
    t = 0.3 + 0.05 * np.arange(K)
    h = 0.05 + 1e-4 * np.arange(K)
    Q = kernels._moment_maps(lam, spec, t, h)
    assert Q.shape == (3, 3, K, len(lam))
    m11, m12, m21, m22 = kernels._magnus_exp(lam, spec, t, h)
    want = [[m11 * m11, 2.0 * m11 * m12, m12 * m12],
            [m11 * m21, m11 * m22 + m12 * m21, m12 * m22],
            [m21 * m21, 2.0 * m21 * m22, m22 * m22]]
    assert Q.tobytes() == np.array(want).tobytes()
    for k in range(K):
        one = kernels._moment_maps(lam, spec, t[k:k + 1], h[k:k + 1])
        assert one.tobytes() == Q[:, :, k:k + 1].tobytes()


def _magnus_omega(lam, spec, t, h):
    """(m, u, o12, o21, disc) of the Magnus step's Omega = m I + N, formed
    as kernels._magnus_exp forms them."""
    lam = np.asarray(lam, dtype=float)
    t, h = (np.reshape(v, np.shape(v) + (1,) * lam.ndim) for v in (t, h))
    P1 = spec.Phi(t + (0.5 - kernels._GAUSS) * h)
    P2 = spec.Phi(t + (0.5 + kernels._GAUSS) * h)
    kappa = np.sqrt(3.0) / 12.0 * h * h * (P2 - P1)
    o11 = -h * spec.gamma2 * lam
    o12 = -spec.gamma1 * (h + kappa)
    o21 = lam * (h - kappa)
    o22 = -0.5 * h * (P1 + P2)
    u = 0.5 * (o11 - o22)
    return 0.5 * (o11 + o22), u, o12, o21, u * u + o12 * o21


def magnus_exp_oracle(lam, spec, t, h):
    """The entries of the Magnus step's exp(Omega) with both branches taken
    on every entry and picked by np.where, sin(s)/s from np.sinc."""
    m, u, o12, o21, disc = _magnus_omega(lam, spec, t, h)
    s = np.sqrt(np.abs(disc))
    grow = 0.5 * np.exp(m + s)
    hyper = disc > 0.0
    cos = np.where(hyper, grow * (1.0 + np.exp(-2.0 * s)),
                   np.exp(m) * np.cos(s))
    sin = np.where(hyper, -grow * np.expm1(-2.0 * s) / s,
                   np.exp(m) * np.sinc(s / np.pi))
    return cos + sin * u, sin * o12, sin * o21, cos - sin * u


def assert_magnus_is_oracle(lam, spec, t, h):
    """_magnus_exp against magnus_exp_oracle: non-finite at the same
    places, and elsewhere within 4 ulp of the largest finite entry of the
    same step and lam.  Returns the step's disc."""
    with np.errstate(all="ignore"):
        got = np.array(kernels._magnus_exp(lam, spec, t, h))
        want = np.array(magnus_exp_oracle(lam, spec, t, h))
        disc = _magnus_omega(lam, spec, t, h)[-1]
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    scale = np.max(np.where(finite, np.abs(want), 0.0), axis=0)
    bound = 4.0 * np.finfo(float).eps * np.broadcast_to(scale, want.shape)
    assert np.all(np.abs(got[finite] - want[finite]) <= bound[finite])
    return np.broadcast_to(disc, got.shape[1:])


_SDANA_SPEC = momentum.sdana(0.25, 1.0, 4.0).kernel_spec()


@pytest.mark.parametrize("spec,lam,t,h,branches", [
    # SDANA's sweep: every block of steps mixes both branches
    (_SDANA_SPEC, np.append(0.0, np.geomspace(1e-3, 1e4, 60)),
     0.025 * np.arange(16), 0.025, "mixed"),
    (_SDANA_SPEC, spectrum.mp_measure(2.0).points, 10.0 + 0.05 * np.arange(7),
     np.full(7, 0.05), "mixed"),
    # g1 = 0: disc = u^2
    (const_spec(0.0, 1.0, 0.5), np.linspace(0.6, 40.0, 30),
     0.1 * np.arange(3), 0.1, "hyperbolic"),
    # heavy ball at small theta: disc < 0 past theta^2/(4 g1)
    (const_spec(1.0, 0.0, 0.1), np.linspace(0.01, 10.0, 30),
     0.1 * np.arange(3), 0.1, "trigonometric"),
    (_SDANA_SPEC, np.linspace(0.1, 1.1, 20),
     50.0 + 0.05 * np.arange(4), 0.05, "trigonometric"),
], ids=["sdana-sweep", "sdana-mp2", "hyperbolic", "trigonometric",
        "sdana-trigonometric"])
def test_magnus_exp_matches_oracle(spec, lam, t, h, branches):
    # each branch is evaluated on its own entries, or on the whole array
    # where the step is uniform; the entries are the oracle's to rounding
    disc = assert_magnus_is_oracle(lam, spec, t, h)
    hyper = disc > 0.0
    assert {"mixed": hyper.any() and not hyper.all(),
            "hyperbolic": hyper.all(),
            "trigonometric": not hyper.any()}[branches]


def test_magnus_exp_at_zero_disc():
    # g2 = 0, theta = 2, g1 = lam = 1: u = h and o12 o21 = -h^2 exactly,
    # so disc = 0 and exp(Omega) = e^m (I + N); alone, and beside both
    # branches in one call
    spec, h = const_spec(1.0, 0.0, 2.0), 0.05
    disc = assert_magnus_is_oracle(np.array([1.0]), spec, [0.0], [h])
    assert np.all(disc == 0.0)
    got = np.ravel(kernels._magnus_exp(np.array([1.0]), spec, [0.0], [h]))
    want = np.exp(-h) * np.array([1.0 + h, -h, h, 1.0 - h])
    assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)
    disc = assert_magnus_is_oracle(np.array([0.5, 1.0, 2.0]), spec,
                                   [0.0, 0.3], [h, h])
    assert np.array_equal(np.sign(disc[0]), [1.0, 0.0, -1.0])


def test_magnus_exp_large_s_stays_finite():
    # m = -lam/2 and s close to lam/2 past 709: e^m and cosh(s) leave
    # double range, e^m cosh(s) does not
    spec = const_spec(0.01, 1.0, 0.0)
    lam = np.array([1420.0, 2000.0, 1e4])
    disc = assert_magnus_is_oracle(lam, spec, [0.0], [1.0])
    assert np.all(disc > 0.0)
    m11, m12, m21, m22 = kernels._magnus_exp(lam, spec, [0.0], [1.0])
    for entry in (m11, m12, m21, m22):
        assert np.all(np.isfinite(entry))
    assert np.all((0.0 < m22) & (m22 < 1.0))


@pytest.mark.parametrize("spec,lam,t,h", [
    # theta = 1e300: the commutator term leaves double range
    (momentum.sdana(0.25, 1.0, 1e300).kernel_spec(),
     np.linspace(0.0, 5.0, 9), 0.025 * np.arange(3), 0.025),
    # lam = 1e300: u^2 overflows, disc is infinite
    (const_spec(0.25, 1.0, 4.0), np.array([0.5, 3.0, 1e300]), [0.0], [1.0]),
    # a negative rate: e^m overflows in both branches, and only in the
    # steps that are long enough
    (const_spec(1.0, 0.0, -800.0), np.array([0.01, 1.0, 1e6]),
     [0.0, 1.0], [0.5, 2.0]),
], ids=["theta", "lam", "growth"])
def test_magnus_exp_overflow_places(spec, lam, t, h):
    # an overflow gives non-finite entries at the oracle's places, and
    # finite ones at the oracle's entries elsewhere
    assert_magnus_is_oracle(lam, spec, t, h)
    with np.errstate(all="ignore"):
        entries = np.array(magnus_exp_oracle(lam, spec, t, h))
    assert not np.all(np.isfinite(entries))


_EDGE = 2.0 * kernels.SQRT_MAX


@pytest.mark.parametrize("theta", [_EDGE, np.nextafter(_EDGE, np.inf), 1e200])
def test_row_exponents_where_u_squared_leaves_double_range(theta):
    # heavy ball with u = theta/2 at SQRT_MAX, whose square is the largest
    # finite double, and past it, where disc = u^2 + p is +inf: s =
    # |u| sqrt|1 + p/u^2| and the slow exponent det B/(m - s), here
    # -g1 lam/theta to rounding, stay finite
    lams, g1 = np.array([0.1, 2.0]), 1e199
    m, u, p, disc, s, slow = kernels.row_exponents(lams, g1, 0.0, theta)
    assert np.all(disc > 0.0)
    assert np.all(np.isinf(disc)) == (theta > _EDGE)
    assert np.allclose(s, 0.5 * theta, rtol=1e-15, atol=0.0)
    assert np.allclose(slow, -g1 * lams / theta, rtol=1e-15, atol=0.0)


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
