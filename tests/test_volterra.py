"""Volterra solvers against closed-form solutions and each other.

Two exactly solvable instances anchor the suite (both checked by Laplace
transform by hand):

* F === 1, I === alpha          =>  psi(t) = exp(alpha*t)
* F === 1, I(t) = exp(-t)/2     =>  psi(t) = 2 - exp(-t/2)
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movolt import analysis, kernels, momentum, spectrum, volterra
from movolt.errors import NumericalError


def grid_and_ones(T=8.0, h=0.05):
    grid = volterra.time_grid(T, h)
    return grid, np.ones_like(grid)


def sweep_nodes(grid):
    """The half-step nodes a refined solve on grid takes its samples on."""
    return volterra._sweep_nodes(grid, True)


# ------------------------------------------------------------- oracles

def march_oracle(F, I_vals, h, denom):
    """Direct O(N^2) trapezoid march: the discrete system, summed in order."""
    psi = np.empty(len(F))
    psi[0] = F[0]
    for i in range(1, len(F)):
        acc = 0.5 * I_vals[i] * psi[0]
        if i > 1:
            acc += I_vals[i - 1:0:-1] @ psi[1:i]
        psi[i] = (F[i] + h * acc) / denom
    return psi


def trapezoid_convolve_oracle(I_vals, psi, h):
    """Direct O(N^2) trapezoid sum of (I * psi)(t_i) by np.convolve."""
    full = np.convolve(I_vals, psi)[: len(psi)]
    return h * (full - 0.5 * I_vals[0] * psi - 0.5 * I_vals * psi[0])


class HalfExpKernel:
    """K_s(t) = exp(-(t - s))/2 in the separable-state form solve_general
    takes: one node whose impulse (1, 0) decays by exp(-(t - s)/2), so
    that its moment state decays like the kernel."""

    impulse = np.array([[1.0], [0.0]])
    ic = np.array([[1.0], [0.0], [0.0]])
    agg = np.array([0.5])

    def maps(self, t):
        decay = np.exp(-0.5 * np.diff(t))
        return decay[:, None, None, None] * np.eye(2)[:, :, None]

    def advance(self, state, t0, t1, maps):
        return state * maps[0, 0] ** 2


B = volterra._MARCH_BLOCK
# the separable march's nodes per block, and intervals per maps call
B_SWEEP = volterra._SWEEP_BLOCK
C_SWEEP = volterra._SWEEP_CHUNK


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, B - 1, B, B + 1, 2 * B + 1,
                               1000, 4097])
@pytest.mark.parametrize("signed", [False, True])
def test_fft_sums_match_direct_oracles(n, signed):
    # same discrete system, other order of summation: equal to rounding
    rng = np.random.default_rng(n + 7919 * signed)
    h = 0.05
    I = rng.standard_normal(n) if signed else rng.random(n)
    I *= 0.9 / (h * np.abs(I).sum())  # h * sum|I| < 1: psi stays O(1)
    F = 1.0 + rng.random(n)
    denom = 1.0 - 0.5 * h * I[0]
    want = march_oracle(F, I, h, denom)
    scale = np.max(np.abs(want))
    got = volterra._march_convolution(F, I, h, denom)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    I_hat = np.fft.rfft(I, volterra._fft_size(2 * n - 1))
    conv = volterra._trapezoid_convolve(I, want, h, I_hat)
    assert np.max(np.abs(conv - trapezoid_convolve_oracle(I, want, h))) \
        <= 1e-13 * scale


def test_fft_size_is_the_smallest_2k_or_3_2k():
    sizes = np.unique([m << k for m in (1, 3) for k in range(19)])
    for n in range(1, 100_001):
        assert volterra._fft_size(n) == sizes[np.searchsorted(sizes, n)]


def test_picard_fixed_point_is_the_march_oracle():
    grid, F = grid_and_ones(T=20.0)
    I = 0.5 * np.exp(-grid) * np.cos(3.0 * grid)
    h = 0.05
    want = march_oracle(F, I, h, 1.0 - 0.5 * h * I[0])
    sol = volterra.solve_convolution(F, I, grid, method="picard",
                                     refine=False)
    assert np.max(np.abs(sol.psi - want)) < 1e-10


# ------------------------------------------------------- closed forms

def test_constant_kernel_exponential_growth():
    grid, _ = grid_and_ones(T=4.0)
    F = np.ones_like(sweep_nodes(grid))
    alpha = 0.35
    sol = volterra.solve_convolution(F, np.full_like(F, alpha), grid)
    assert np.max(np.abs(sol.psi - np.exp(alpha * grid))) < 2e-7


def test_exponential_kernel_closed_form_marching():
    grid, _ = grid_and_ones()
    nodes = sweep_nodes(grid)
    F = np.ones_like(nodes)
    sol = volterra.solve_convolution(F, 0.5 * np.exp(-nodes), grid)
    want = 2.0 - np.exp(-0.5 * grid)
    assert np.max(np.abs(sol.psi - want)) < 5e-7
    assert sol.psi[0] == F[0]  # exact by construction


def test_exponential_kernel_closed_form_picard():
    grid, _ = grid_and_ones()
    nodes = sweep_nodes(grid)
    F, I = np.ones_like(nodes), 0.5 * np.exp(-nodes)
    sol = volterra.solve_convolution(F, I, grid, method="picard")
    want = 2.0 - np.exp(-0.5 * grid)
    assert np.max(np.abs(sol.psi - want)) < 5e-7
    assert sol.diagnostics["picard_iters"] > 0


def test_marching_and_picard_agree_tightly():
    grid, _ = grid_and_ones()
    nodes = sweep_nodes(grid)
    F, I = np.ones_like(nodes), 0.5 * np.exp(-nodes)
    a = volterra.solve_convolution(F, I, grid, method="marching")
    b = volterra.solve_convolution(F, I, grid, method="picard")
    assert np.max(np.abs(a.psi - b.psi)) < 1e-8


@pytest.mark.parametrize("refine", [True, False])
def test_warm_and_cold_picard_reach_one_fixed_point(refine):
    grid, _ = grid_and_ones()
    nodes = sweep_nodes(grid) if refine else grid
    F, I = np.ones_like(nodes), 0.5 * np.exp(-nodes)
    march = volterra.solve_convolution(F, I, grid, refine=refine)
    assert len(march.passes) == (2 if refine else 1)
    cold = volterra.solve_convolution(F, I, grid, method="picard",
                                      refine=refine)
    warm = volterra.solve_convolution(F, I, grid, method="picard",
                                      refine=refine, start=march.passes)
    tol = 2 * volterra.PICARD_TOL * max(1.0, np.max(np.abs(F)))
    assert np.max(np.abs(warm.psi - cold.psi)) <= tol
    assert warm.diagnostics["picard_iters"] == 1
    with pytest.raises(ValueError, match=r"start must be sampled on the %d "
                       r"nodes its pass sweeps, got %d values"
                       % (len(nodes), len(nodes) - 1)):
        volterra.solve_convolution(F, I, grid, method="picard", refine=refine,
                                   start=march.passes[:-1]
                                   + [march.passes[-1][:-1]])
    with pytest.raises(ValueError, match="one array per pass"):
        volterra.solve_convolution(F, I, grid, method="picard", refine=refine,
                                   start=march.passes + march.passes)
    with pytest.raises(ValueError, match="seeds a Picard solve"):
        volterra.solve_convolution(F, I, grid, refine=refine,
                                   start=march.passes)
    with pytest.raises(ValueError, match="^unknown solver method 'newton'$"):
        volterra.solve_convolution(F, I, grid, method="newton", refine=refine)


def test_refinement_improves_order():
    # plain trapezoid is O(h^2); the extrapolated solve must gain at
    # least two extra orders on the closed-form instance
    want_fn = lambda g: 2.0 - np.exp(-0.5 * g)
    errs = {}
    for h in (0.1, 0.05):
        grid = volterra.time_grid(6.0, h)
        nodes = sweep_nodes(grid)
        sol = volterra.solve_convolution(np.ones_like(nodes),
                                         0.5 * np.exp(-nodes), grid)
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
    gen = volterra.solve_general(F, HalfExpKernel(), grid, refine=False)
    assert np.max(np.abs(conv.psi - gen.psi)) < 1e-10


def test_general_solver_closed_form_refined():
    grid, _ = grid_and_ones(T=5.0)
    F = np.ones_like(sweep_nodes(grid))
    gen = volterra.solve_general(F, HalfExpKernel(), grid)
    assert np.max(np.abs(gen.psi - (2.0 - np.exp(-0.5 * grid)))) < 1e-6


# ------------------------------------------------------- failure modes

@pytest.mark.parametrize("agg", [2.0, 30.0])
def test_blocked_march_fails_where_the_node_by_node_march_does(agg):
    # psi grows from 1e300 until the trapezoid history agg @ state[0],
    # before the step and the divisor, overflows while psi is still
    # finite; the blocked march names the node the node-by-node march
    # first reads a non-finite value at (agg = 30 overflows in its first
    # block, agg = 2 some hundred nodes on)
    K = HalfExpKernel()
    K.agg = np.array([agg])
    h = 0.05
    grid = h * np.arange(801)
    F = np.full(len(grid), 1e300)
    denom = 1.0 - 0.5 * h * agg
    state, psi = 0.5 * K.ic * F[0], F[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(grid)):
            state = K.advance(state, grid[k - 1], grid[k],
                              K.maps(grid[k - 1:k + 1])[0])
            psi = (F[k] + h * (K.agg @ state[0])) / denom
            if not np.isfinite(psi):
                break
            state = state + K.ic * psi
    assert k < len(grid) - 1
    with pytest.raises(NumericalError,
                       match=r"non-finite at grid step %d " % k):
        volterra.solve_general(F, K, grid, refine=False)


def test_nonfinite_forcing_rejected():
    grid, _ = grid_and_ones(T=2.0)
    F = np.ones_like(sweep_nodes(grid))
    F[6] = np.nan  # grid point 3, which both passes read
    with pytest.raises(NumericalError):
        volterra.solve_convolution(F, np.zeros_like(F), grid)


def test_structural_negative_rejected():
    grid, _ = grid_and_ones(T=2.0)
    F = -np.ones_like(sweep_nodes(grid))
    with pytest.raises(NumericalError):
        volterra.solve_convolution(F, np.zeros_like(F), grid)


def test_tiny_negative_clipped_to_zero():
    grid, _ = grid_and_ones(T=1.0)
    F = np.zeros_like(sweep_nodes(grid))
    F[0] = 1e-12  # decays through zero with rounding wiggle
    sol = volterra.solve_convolution(F, np.zeros_like(F), grid)
    assert np.all(sol.psi >= 0.0)


def test_marching_singularity_raises():
    grid = volterra.time_grid(1.0, 0.5)
    F = np.ones_like(grid)
    I = np.full_like(grid, 5.0)  # 1 - h/2 * I0 = -0.25
    with pytest.raises(NumericalError):
        volterra.solve_convolution(F, I, grid, refine=False)


def test_supercritical_kernel_overflow_is_numerical_error():
    grid = volterra.time_grid(400.0, 0.05)
    F = np.ones_like(sweep_nodes(grid))
    I = np.full_like(F, 2.0)  # psi ~ e^{2t} overflows at t=400
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        volterra.solve_convolution(F, I, grid)


def test_divergent_closed_route_names_the_kernel_norm():
    # ||I|| = 1.5: the solve fails somewhere in the growth, and predict says
    # why instead of the march's symptom
    with pytest.raises(NumericalError, match=r"^kernel norm 1\.5 >= 1: the "
                       r"loss grows without bound; a smaller --h"):
        volterra.predict(spectrum.mp_measure(1.0), momentum.sgd(3.0), T=10.0)


def test_march_overflow_names_the_step():
    grid = volterra.time_grid(400.0, 0.05)
    # psi ~ e^{2t} passes 1.8e308 near t=355
    I = np.full_like(sweep_nodes(grid), 2.0)
    with pytest.raises(NumericalError, match="non-finite") as info:
        volterra.solve_convolution(np.ones_like(I), I, grid)
    step = int(re.search(r"grid step (\d+)", str(info.value)).group(1))
    assert 340.0 < grid[step] < 360.0


def test_march_nan_forcing_names_the_step():
    grid, F = grid_and_ones(T=20.0)
    F[300] = np.nan
    with pytest.raises(NumericalError, match=r"grid step 300 \(t = t0 \+ 15"):
        volterra.solve_convolution(F, 0.5 * np.exp(-grid), grid, refine=False)


def supercritical_leaf_case():
    # I = 2 at h = 0.99999: divisor 1e-5, so the leaf's resolvent overflows
    # within its 128 points
    n, h = 400, 0.99999
    I = np.full(n, 2.0)
    return np.zeros(n), I, h, volterra._march_divisor(h, I[0])


def test_march_zero_forcing_with_an_overflowed_resolvent_is_zero():
    F, I, h, denom = supercritical_leaf_case()
    assert np.array_equal(volterra._march_convolution(F, I, h, denom),
                          np.zeros_like(F))


def test_march_names_the_oracles_first_nonfinite_step():
    F, I, h, denom = supercritical_leaf_case()
    F[200] = 1e-300
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(march_oracle(F, I, h, denom))
    step = int(np.argmin(finite))
    assert 200 < step < len(F)
    with pytest.raises(NumericalError, match=r"grid step %d \(" % step):
        volterra._march_convolution(F, I, h, denom)


def test_separable_march_nan_forcing_names_the_step():
    grid, F = grid_and_ones(T=20.0)
    F[300] = np.nan
    with pytest.raises(NumericalError, match=r"grid step 300 \(t = t0 \+ 15"):
        volterra.solve_general(F, HalfExpKernel(), grid, refine=False)


def test_separable_march_overflow_fails_fast():
    # gamma1 = 200 is far past the SDANA threshold: the exact-kernel march
    # overflows early and must stop there, with no RuntimeWarning leaking
    # from the propagated states.  The blocks it fails in are marched
    # again node by node, so the failure is named where the node-by-node
    # march named it: grid step 638 of the half-step pass
    mu = spectrum.mp_measure(1.0)
    with pytest.raises(NumericalError, match="non-finite") as info:
        volterra.predict(mu, momentum.sdana(200.0, 1.0, 4.0), T=60.0)
    step = int(re.search(r"grid step (\d+)", str(info.value)).group(1))
    assert step * volterra.DEFAULT_H < 60.0
    assert "grid step 638 (t = t0 + 15.95);" in str(info.value)


@pytest.mark.parametrize("mode", ["ode", "conv"])
def test_sdana_forcing_integration_fails_fast(mode):
    # theta = 1e300 takes the Magnus step's commutator term out of double
    # range: the forcing integration, in the exact sweep or through the
    # conv route's block maps, must stop at the first non-finite value, the
    # first half-step node, and say so, with no RuntimeWarning leaking
    with pytest.raises(NumericalError, match=r"forcing integration went "
                       r"non-finite at t = 0\.025;"):
        volterra.predict(spectrum.mp_measure(1.0),
                         momentum.sdana(0.25, 1.0, 1e300), T=5.0, mode=mode)


def per_pass_march(F, K, grid):
    """One pass of the separable trapezoid march, advanced grid point to
    grid point on its own, each interval's map from its own interval_exps
    call."""
    h = grid[1] - grid[0]
    K0 = K.agg @ K.ic[0]
    psi = np.empty(len(grid))
    psi[0] = F[0]
    state = 0.5 * K.ic * psi[0]
    for i in range(1, len(grid)):
        t = grid[i - 1:i + 1]
        M = kernels.interval_exps(K.lams, K.spec, t, K.h)[0]
        state = K.advance(state, t[0], t[1], M)
        psi[i] = (F[i] + h * (K.agg @ state[0])) / (1.0 - 0.5 * h * K0)
        state = state + K.ic * psi[i]
    return psi


def sweep_oracle(F, K, nodes, stride):
    """The separable march node by node, with a loop over the passes at
    each node: one advance per interval, one dot per pass and one for the
    forcing, each value a numpy scalar checked with np.isfinite, and each
    live pass's impulse added on its own.  Returns (forcing on nodes, each
    pass's psi, the finest first)."""
    h = volterra._uniform_step(nodes)
    strides = (1, 2)[:stride]
    ode = isinstance(F, volterra.StateForcing)
    ic, agg = K.ic, K.agg
    state = np.zeros(ic.shape[:1] + (stride + ode,) + ic.shape[1:])
    maps = kernels.block_maps(K.maps, nodes)
    if ode:
        state[:, -1] = kernels.forcing_ic(K.lams)
        coef, const, start = 0.5 * F.coef, F.const, F.start
        F = np.empty(len(nodes))
        F[0] = const + coef @ state[0, -1] if start is None else start
    psis = [np.full(len(nodes[::s]), F[0]) for s in strides]
    K0 = float(agg @ ic[0])
    denoms = [volterra._march_divisor(s * h, K0) for s in strides]
    state[:, :stride] = 0.5 * ic[:, None] * F[0]
    for k, Q in enumerate(maps, 1):
        state = K.advance(state, nodes[k - 1], nodes[k], Q)
        if ode:
            F[k] = const + coef @ state[0, -1]
            assert np.isfinite(F[k])
        for p, s in enumerate(strides):
            if k % s:
                continue
            psi, i = psis[p], k // s
            psi[i] = (F[k] + s * h * float(agg @ state[0, p])) / denoms[p]
            assert np.isfinite(psi[i])
            state[:, p] += ic * psi[i]
    return F, psis


def _built_by_predict(monkeypatch, case):
    """(F, K, grid) of the exact route's solve that predict builds at
    T = 20 from the MP measure or, realized, on two problems' merged
    nodes."""
    if case == "mp":
        measure, spectral = spectrum.mp_measure(1.0), None
    else:
        measure, spectral = _realized_problem()
    built = []
    solve = volterra.solve_general

    def capture(F, kernel, grid, refine=True):
        built.append((F, kernel, grid))
        return solve(F, kernel, grid, refine)

    monkeypatch.setattr(volterra, "solve_general", capture)
    volterra.predict(measure, momentum.defaults("sdana", measure), T=20.0,
                     mode="ode", spectral=spectral)
    (built,) = built
    return built


@pytest.mark.parametrize("n", [B_SWEEP - 1, B_SWEEP, B_SWEEP + 1,
                               2 * B_SWEEP + 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("h", [0.05, 0.2])
@pytest.mark.parametrize("case", ["mp", "realized"])
def test_blocked_march_matches_sweep_oracle(case, h, stride, n, monkeypatch):
    # n intervals: one block short of B_SWEEP nodes, one block, one node
    # past it, and two blocks and a node; at h = 0.2 each interval of the
    # half-step grid takes two Magnus steps.  The blocked march is the
    # node-by-node oracle to within 1e-15 of sup psi, forcing and passes
    F, K, _ = _built_by_predict(monkeypatch, case)
    nodes = h / stride * np.arange(n + 1)
    want_F, want = sweep_oracle(F, K, nodes, stride)
    got_F, got = volterra._march_separable(F, K, nodes, stride)
    assert np.max(np.abs(got_F - want_F)) <= 1e-15 * np.max(np.abs(want_F))
    assert len(got) == len(want) == stride
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))


@pytest.mark.parametrize("sampled", [False, True], ids=["state", "sampled"])
@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("case", ["mp", "realized"])
def test_sweep_matches_sweep_oracle(case, refine, sampled, monkeypatch):
    # the sweep on the kernel and StateForcing that predict builds (on the
    # merged node sets in the realized case), at stride 1 and 2, with the
    # StateForcing or with the forcing it gives sampled on the nodes, is
    # the oracle's to within 1e-15 of sup psi
    F, K, grid = _built_by_predict(monkeypatch, case)
    nodes = volterra._sweep_nodes(grid, refine)
    stride = 2 if refine else 1
    want_F, want = sweep_oracle(F, K, nodes, stride)
    if sampled:
        F = want_F
    got_F, got = volterra._march_separable(F, K, nodes, stride)
    assert len(got) == len(want) == stride
    assert np.max(np.abs(got_F - want_F)) <= 1e-15 * np.max(np.abs(want_F))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))


def _realized_problem():
    # one problem's ESM with another problem's spectral view: the forcing
    # nodes are not the measure's atoms, so the exact route's sweep merges
    # two node sets
    from movolt import lsq
    measure = lsq.generate_gaussian(12, 24, 1.0, 1.0, 5).esm()
    return measure, lsq.to_spectral(lsq.generate_gaussian(12, 24, 1.0, 1.0, 6))


@pytest.mark.parametrize("case", ["mp", "realized"])
def test_sweep_forcing_is_build_forcing(case):
    # the ode route's forcing rides in the march's sweep; it must be the
    # conv route's forcing_matrix on the half-step grid, to rounding
    h = volterra.DEFAULT_H
    if case == "mp":
        measure, spectral = spectrum.mp_measure(1.0), None
    else:
        measure, spectral = _realized_problem()
        lams = spectral.lam[spectral.lam > 0.0]
        assert not set(lams) & set(measure.points)
    params = momentum.defaults("sdana", measure)
    sol = volterra.predict(measure, params, T=20.0, mode="ode",
                           spectral=spectral)
    half = 0.5 * h * np.arange(2 * len(sol.grid) - 1)
    spec = params.kernel_spec()
    if spectral is None:
        want = volterra.build_forcing(measure, spec, 1.0, 1.0, half)[::2]
    else:
        want = volterra.build_forcing_from_spectral(spectral, spec, half)[::2]
    assert np.max(np.abs(sol.forcing - want)) <= 1e-14 * np.max(np.abs(want))


def test_exact_kernel_nodes_are_distinct(monkeypatch):
    # with a spectral problem the sweep runs over the union of the ESM
    # atoms and the live lam, each value once: the problem's own view adds
    # no node, another problem's view adds all of its own
    from movolt import lsq
    built = []

    class Capture(kernels.SdanaExactKernel):
        def __init__(self, spec, lams, weights, h=kernels.PROPAGATOR_STEP):
            super().__init__(spec, lams, weights, h)
            built.append(self)

    monkeypatch.setattr(kernels, "SdanaExactKernel", Capture)
    measure, other = _realized_problem()
    own = lsq.to_spectral(lsq.generate_gaussian(12, 24, 1.0, 1.0, 5))
    params = momentum.defaults("sdana", measure)
    for spectral, added in ((own, 0), (other, 12)):
        built.clear()
        volterra.predict(measure, params, T=1.0, mode="ode",
                         spectral=spectral)
        (kern,) = built
        lams = spectral.lam[spectral.lam > 0.0]
        assert len(np.unique(kern.lams)) == len(kern.lams)
        assert len(kern.lams) == len(measure.points) + added
        assert set(kern.lams) == set(measure.points) | set(lams)
        assert np.sum(kern.weights) == pytest.approx(np.sum(measure.weights),
                                                     rel=1e-15)


def assert_sweep_is_per_pass(K, n):
    """On a grid of n steps of 0.05 the unrefined sweep is the per-pass
    march to within 1e-15 of sup psi (the blocked march sums in another
    order), and the refined one the per-pass Richardson value: the
    coarse pass takes the half-step substeps, which moves psi by far less
    than 1e-8 of its sup."""
    grid = 0.05 * np.arange(n + 1)
    half = 0.025 * np.arange(2 * n + 1)
    F_half = volterra.build_forcing(spectrum.mp_measure(1.0, nodes=40),
                                    K.spec, 1.0, 1.0, half)
    F = F_half[::2]
    got = volterra.solve_general(F, K, grid, refine=False).psi
    want = per_pass_march(F, K, grid)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)
    got = volterra.solve_general(F_half, K, grid).psi
    coarse = per_pass_march(F, K, grid)
    want = (4.0 * per_pass_march(F_half, K, half)[::2] - coarse) / 3.0
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(want)


def test_sweep_matches_per_pass_marches():
    # one sweep carries both passes
    mu = spectrum.mp_measure(1.0, nodes=40)
    spec = momentum.defaults("sdana", mu).kernel_spec()
    assert_sweep_is_per_pass(
        kernels.SdanaExactKernel(spec, mu.points, mu.weights), 200)


@pytest.mark.parametrize("h_max", [None, 0.02])
@pytest.mark.parametrize("n", [2 * B_SWEEP - 1, 2 * B_SWEEP, 2 * B_SWEEP + 1,
                               4 * B_SWEEP + 1])
def test_sweep_across_map_blocks(n, h_max):
    # the sweep goes B_SWEEP nodes a block and takes its maps C_SWEEP
    # intervals a call: across block boundaries, with one step per
    # interval or three, it is the per-pass march to within 1e-15 of sup
    # psi, and refined it is the per-pass Richardson value.  h_max None is
    # the default step, PROPAGATOR_STEP
    h_max = kernels.PROPAGATOR_STEP if h_max is None else h_max
    mu = spectrum.mp_measure(1.0, nodes=40)
    spec = momentum.defaults("sdana", mu).kernel_spec()
    asked = []

    class Counted(kernels.SdanaExactKernel):
        def maps(self, t):
            asked.append(len(t) - 1)
            return super().maps(t)

    assert_sweep_is_per_pass(Counted(spec, mu.points, mu.weights, h_max), n)
    # the unrefined sweep's n intervals, then the refined sweep's 2n
    want = []
    for m in (n, 2 * n):
        want += [C_SWEEP] * (m // C_SWEEP) + [m % C_SWEEP] * (m % C_SWEEP > 0)
    assert asked == want


class FailingKernel(kernels.SdanaExactKernel):
    """The exact kernel with two failures injected: the march passes'
    states go infinite on reaching t_march, and the forcing's state goes
    NaN on reaching t_forcing.  The sweep advances a stack (3, passes +
    forcing, n_lam) across a block at a time and, where it reads a
    non-finite value, across each interval of that block; the outranking
    check advances the forcing's (3, 1, n_lam) alone.  asked records the
    intervals of each maps call."""

    def __init__(self, spec, lams, weights, t_march, t_forcing):
        super().__init__(spec, lams, weights)
        self.t_march, self.t_forcing = t_march, t_forcing
        self.asked = []

    def maps(self, t):
        self.asked.append(len(t) - 1)
        return super().maps(t)

    def advance(self, state, t0, t1, maps):
        state = super().advance(state, t0, t1, maps)
        if state.ndim == 3 and t1 >= self.t_march:
            state = state.copy()
            state[:, :-1] = np.inf
        if t1 >= self.t_forcing:
            state = np.full_like(state, np.nan)
        return state


@pytest.mark.parametrize("t_forcing,message", [
    (2.99, r"^forcing integration went non-finite at t = 3;"),
    (np.inf, r"^Volterra solution went non-finite at grid step 40 "
             r"\(t = t0 \+ 1\);")])
def test_forcing_failure_further_on_outranks_the_march(t_forcing, message):
    # the march fails at t = 1 (half-step node 40); a forcing failure at
    # t = 3 further along the sweep is reported instead, and with none the
    # march failure is, with no RuntimeWarning leaking from either
    mu = spectrum.mp_measure(1.0, nodes=40)
    spec = momentum.defaults("sdana", mu).kernel_spec()
    lams, coef, const = volterra._forcing_terms(mu, 1.0, 1.0)
    K = FailingKernel(spec, lams, mu.weights, 0.99, t_forcing)
    grid = volterra.time_grid(5.0)
    with pytest.raises(NumericalError, match=message):
        volterra.solve_general(volterra.StateForcing(coef, const), K, grid)
    # the look-ahead past node 40 takes its maps in chunks, as the sweep
    # does, up to the chunk holding the last node it reaches: the forcing
    # failure's (node 120) or the last of the 200 intervals
    last = 120 if t_forcing < np.inf else 200
    chunks = [min(C_SWEEP, 200 - lo) for lo in range(0, 200, C_SWEEP)]
    assert K.asked == chunks[:-(-last // C_SWEEP)]


@pytest.mark.parametrize("mode", ["ode", "conv"])
def test_predict_horizon_off_the_grid(mode):
    # T = 1.015 is not a multiple of h: the grid ends at 1.0 and the
    # half-step samples must still be the grid's own
    sol = volterra.predict(spectrum.mp_measure(1.0),
                           momentum.defaults("sdana", spectrum.mp_measure(1.0)),
                           T=1.015, mode=mode)
    assert len(sol.grid) == 21
    assert np.all(np.isfinite(sol.psi))


@pytest.mark.parametrize("algo,mode", [("sgd", None), ("sdana", "ode"),
                                       ("sdana", "conv")])
@pytest.mark.parametrize("T", [0.05, 0.1])
def test_short_horizons_are_refined(algo, mode, T):
    # a grid of 2 or 3 points is refined like any other: psi(T) at h = 0.05
    # matches the h = 0.0005 solve to fourth order
    mu = spectrum.mp_measure(1.0)
    params = momentum.defaults(algo, mu)
    got = volterra.predict(mu, params, T=T, h=0.05, mode=mode)
    want = volterra.predict(mu, params, T=T, h=0.0005, mode=mode)
    assert "refinement_gap" in got.diagnostics
    assert got.psi[-1] == pytest.approx(want.psi[-1], rel=1e-5)


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("solver,wrong", [("convolution", "F"),
                                          ("convolution", "I"),
                                          ("general", "F")])
def test_samples_off_the_sweep_nodes_are_refused(solver, wrong, refine):
    # a refined solve samples on the half-step grid, an unrefined one on
    # the grid itself; the other length is refused, naming the node count
    grid = volterra.time_grid(1.0, 0.05)
    nodes = volterra._sweep_nodes(grid, refine)
    other = volterra._sweep_nodes(grid, not refine)
    samples = {"F": np.ones_like(nodes), "I": 0.5 * np.exp(-nodes)}
    samples[wrong] = np.ones_like(other)
    with pytest.raises(ValueError, match=r"%s must be sampled on the %d nodes"
                       % (wrong, len(nodes))):
        if solver == "convolution":
            volterra.solve_convolution(samples["F"], samples["I"], grid,
                                       refine=refine)
        else:
            volterra.solve_general(samples["F"], HalfExpKernel(), grid,
                                   refine=refine)


def test_picard_nonfinite_iterate_fails_fast():
    grid = volterra.time_grid(400.0, 0.05)
    I = np.full_like(grid, 20.0)  # iterates grow like (20 t)^k / k!
    with pytest.raises(NumericalError, match="is not finite") as info:
        volterra.solve_convolution(np.ones_like(grid), I, grid,
                                   method="picard", refine=False)
    it = int(re.search(r"Picard iterate (\d+)", str(info.value)).group(1))
    assert it < volterra.PICARD_MAX_ITERS


def test_leaked_runtime_warning_fails_the_suite():
    # pyproject's filterwarnings turns a RuntimeWarning into an error, so
    # an overflow or NaN that a solver lets through cannot pass silently
    with pytest.raises(RuntimeWarning):
        np.log(np.zeros(1))


def test_picard_divergence_reported():
    grid, _ = grid_and_ones(T=30.0)
    F = np.ones_like(sweep_nodes(grid))
    I = np.full_like(F, 1.2)  # norm > 1: Picard iteration cannot settle
    with pytest.raises(NumericalError):
        volterra.solve_convolution(F, I, grid, method="picard")


# ---------------------------------------------------------- properties

@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.01, 0.9), decay=st.floats(0.1, 2.0),
       scale=st.floats(0.1, 3.0))
def test_psi_at_least_forcing_for_nonnegative_kernels(alpha, decay, scale):
    grid = volterra.time_grid(4.0, 0.1)
    nodes = sweep_nodes(grid)
    F = scale * np.exp(-decay * nodes)
    I = alpha * np.exp(-nodes)
    sol = volterra.solve_convolution(F, I, grid)
    assert np.all(sol.psi >= F[::2] - 1e-9)
    assert np.all(sol.psi >= -1e-12)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.05, 0.85))
def test_constant_kernel_limit_matches_renewal_value(alpha):
    # psi(inf) for F -> c is c/(1 - ||I||); with F === 1, I = alpha e^{-t}:
    # ||I|| = alpha, psi(inf) = 1/(1-alpha)
    grid = volterra.time_grid(60.0 / (1 - alpha), 0.05)
    nodes = sweep_nodes(grid)
    sol = volterra.solve_convolution(np.ones_like(nodes),
                                     alpha * np.exp(-nodes), grid)
    assert sol.psi[-1] == pytest.approx(1.0 / (1.0 - alpha), rel=5e-3)


# ------------------------------------------------------------- predict

def test_predict_sgd_curve_and_limit(mp2):
    params = momentum.sgd(0.7)
    sol = volterra.predict(mp2, params, T=80.0, R=1.0, R_tilde=1.0)
    # starts at the population initial loss
    assert sol.psi[0] == pytest.approx(0.5 * (mp2.trace_moment() + 1.0),
                                       rel=1e-12)
    # no zero atom at r=2: the noise is fully annealed away
    assert analysis.limiting_loss(analysis.kernel_norm(params, mp2),
                                  mp2.zero_mass, 1.0) == 0.0
    assert sol.psi[-1] < 1e-4
    assert sol.kernel_norm == pytest.approx(
        analysis.kernel_norm(params, mp2), rel=1e-12)


def test_predict_reaches_positive_limit_with_zero_atom():
    mu = spectrum.mp_measure(0.5)  # zero atom p = 1/2
    params = momentum.sgd(0.7)
    sol = volterra.predict(mu, params, T=80.0, R=1.0, R_tilde=1.0)
    want = analysis.limiting_loss(analysis.kernel_norm(params, mu),
                                  mu.zero_mass, 1.0)
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
    assert exact.meta["mode"] == "ode"


def test_predict_forcing_value_at_zero(mp4):
    R, Rt = 2.0, 0.3
    sol = volterra.predict(mp4, momentum.sgd(0.5), T=5.0, R=R, R_tilde=Rt)
    assert sol.forcing[0] == pytest.approx(0.5 * (R * mp4.trace_moment() + Rt),
                                           rel=1e-12)


def test_predict_validates_with_picard(mp2):
    sol = volterra.predict(mp2, momentum.sgd(0.7), T=10.0, validate=True)
    assert "picard_delta" in sol.diagnostics
    assert sol.diagnostics["picard_delta"] < 1e-7


def test_predict_picard_settles_at_once_on_the_march(mp2):
    sol = volterra.predict(mp2, momentum.sgd(0.7), T=5.0, validate=True)
    diag = sol.diagnostics
    assert diag["picard_iters"] == 1
    assert diag["picard_delta"] <= 10 * diag["residual"]


def test_predict_picard_catches_a_wrong_march(mp2, monkeypatch):
    delta = 1e-6
    march = volterra._march_convolution

    def shifted(*args):
        psi = march(*args)
        psi[len(psi) // 2:] += delta
        return psi

    monkeypatch.setattr(volterra, "_march_convolution", shifted)
    sol = volterra.predict(mp2, momentum.sgd(0.7), T=5.0, validate=True)
    assert sol.diagnostics["picard_delta"] == pytest.approx(delta, rel=0.01)
    assert sol.diagnostics["picard_iters"] > 1


def test_predict_picard_counts_the_coarse_pass(mp2, monkeypatch):
    # a march off in its coarse pass only: Picard re-settles that pass, and
    # picard_iters reports the larger of the two passes' counts
    coarse = len(volterra.time_grid(5.0))
    march = volterra._march_convolution

    def shifted(*args):
        psi = march(*args)
        if len(psi) == coarse:
            psi[len(psi) // 2:] += 1e-6
        return psi

    monkeypatch.setattr(volterra, "_march_convolution", shifted)
    sol = volterra.predict(mp2, momentum.sgd(0.7), T=5.0, validate=True)
    assert sol.diagnostics["picard_iters"] > 1
    # the Richardson step carries a third of the coarse shift
    assert sol.diagnostics["picard_delta"] == pytest.approx(1e-6 / 3,
                                                            rel=0.01)


def test_predict_sdana_conv_picard_settles_on_conjugated_scale(mp1):
    # the phi-conjugated forcing grows like t^4, so its round-off floor sits
    # above an absolute 1e-10; the relative test lets Picard settle
    sol = volterra.predict(mp1, momentum.defaults("sdana", mp1), T=60.0,
                           mode="conv", validate=True)
    assert "picard_note" not in sol.diagnostics
    assert sol.diagnostics["picard_delta"] < 1e-9


def test_solve_convolution_reports_diagnostics_over_the_weight():
    # a power-of-two weight scales every sum exactly: the weighted solve
    # takes the physical F, marches weight * F and divides weight out
    # again, so it must give the unweighted solve's psi, forcing and
    # diagnostics bit for bit
    grid, _ = grid_and_ones(T=20.0)
    nodes = sweep_nodes(grid)
    F, I = 1.0 + np.exp(-nodes), 0.5 * np.exp(-nodes)
    want = volterra.solve_convolution(F, I, grid)
    got = volterra.solve_convolution(F, I, grid, weight=1024.0)
    assert np.array_equal(got.psi, want.psi)
    assert np.array_equal(got.forcing, want.forcing)
    assert got.diagnostics == want.diagnostics
    # its passes stay in the weighted unknown
    for g, w in zip(got.passes, want.passes):
        assert np.array_equal(g, 1024.0 * w)


def _richardson_step(passes):
    coarse, fine = passes
    return fine[::2] + (fine[::2] - coarse) / 3.0


def test_both_solvers_store_passes_coarse_first():
    # N coarse values, then 2N - 1 half-step ones, and the refined psi is
    # the one Richardson step of those two passes on either solver
    grid, _ = grid_and_ones(T=5.0)
    nodes = sweep_nodes(grid)
    mu = spectrum.mp_measure(1.0, nodes=40)
    spec = momentum.defaults("sdana", mu).kernel_spec()
    F = volterra.build_forcing(mu, spec, 1.0, 1.0, nodes)
    conv = volterra.solve_convolution(F, 0.5 * np.exp(-nodes), grid)
    ode = volterra.solve_general(
        F, kernels.SdanaExactKernel(spec, mu.points, mu.weights), grid)
    for sol in (conv, ode):
        assert [len(p) for p in sol.passes] == [len(grid), len(nodes)]
        assert np.array_equal(sol.psi, _richardson_step(sol.passes))
        assert sol.diagnostics["refinement_gap"] == np.max(
            np.abs(sol.passes[1][::2] - sol.passes[0]))
    unrefined = volterra.solve_general(
        F[::2], kernels.SdanaExactKernel(spec, mu.points, mu.weights), grid,
        refine=False)
    assert [len(p) for p in unrefined.passes] == [len(grid)]
    assert np.array_equal(unrefined.psi, unrefined.passes[0])


def test_predict_sdana_conv_diagnostics_in_loss_units(mp1):
    # the conv route solves for phi psi; its trust numbers are psi's, so its
    # refinement gap reads like the exact route's
    algo = momentum.defaults("sdana", mp1)
    conv = volterra.predict(mp1, algo, T=20.0, mode="conv").diagnostics
    ode = volterra.predict(mp1, algo, T=20.0, mode="ode").diagnostics
    assert 0.5 < conv["refinement_gap"] / ode["refinement_gap"] < 2.0
    assert conv["residual"] < 1e-6 * conv["refinement_gap"]


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
    for key in ("algo", "params", "measure", "h", "mode", "kernel_norm"):
        assert key in blob
    assert blob["algo"] == "sgd"
    assert blob["h"] == pytest.approx(volterra.DEFAULT_H)
    back = volterra.VolterraSolution.read(path)
    assert np.allclose(back.psi, sol.psi)
    assert np.allclose(back.forcing, sol.forcing)
    assert back.meta["algo"] == "sgd"
    # a trajectory CSV is not a solution
    path.write_text("t,mean,q10,q90\n0,1,1,1\n")
    with pytest.raises(ValueError, match=r"^expected header t,F,psi, got "
                       r"\['t', 'mean', 'q10', 'q90'\]$"):
        volterra.VolterraSolution.read(path)


def test_sidecar_is_strict_json(tmp_path):
    # every non-finite float of the sidecar is null, nested ones too
    def refuse(name):
        raise ValueError("not JSON: %s" % name)

    sol = volterra.VolterraSolution(
        [0.0, 0.5], [1.0, 1.0], [1.0, 2.0], kernel_norm=np.inf,
        diagnostics={"residual": np.nan, "gap": 0.25, "note": "x"},
        meta={"stats": {"dev": -np.inf, "pair": (1.5, np.nan)}})
    side = sol.write(tmp_path / "out.csv")
    blob = json.loads(open(side).read(), parse_constant=refuse)
    assert blob["kernel_norm"] is None
    assert blob["diagnostics"] == {"residual": None, "gap": 0.25,
                                   "note": "x"}
    assert blob["stats"] == {"dev": None, "pair": [1.5, None]}


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


def test_sidecar_path_naming():
    assert volterra.sidecar_path("a/b.csv") == "a/b.json"
    assert volterra.sidecar_path("a/b.dat") == "a/b.dat.json"


# ----------------------------------------------- the MP rule sized to T

# the benchmark's MP predictions: (algo, given parameters, r, T, n, the
# rule the ladder takes)
_SIZED = [("sgd", {}, 1.0, 300.0, None, 200),
          ("sdahb", {}, 1.0, 300.0, None, 200),
          ("shb", {"gamma": 0.002, "theta": 0.002}, 1.0, 300.0, 1000, 200),
          ("sgd", {}, 0.5, 300.0, None, 50),
          ("sdana", {}, 1.0, 100.0, None, 100),
          ("sdana", {}, 2.0, 60.0, None, 50)]


@pytest.mark.parametrize("algo,given,r,T,n,want", _SIZED)
def test_sized_rule_keeps_the_200_node_curve(algo, given, r, T, n, want):
    # the rule the ladder takes agrees with the 3N rule to
    # QUADRATURE_TOL, and its psi is the 200-node psi to 1e-12 of sup psi;
    # where the ladder takes 200 nodes, bit for bit
    base = spectrum.mp_measure(r)
    params = momentum.defaults(algo, base, **given)
    sized = volterra.predict(base, params, T, n=n, size_rule=True)
    assert sized.meta["measure"]["nodes"] == want
    assert sized.diagnostics["quadrature_gap"] <= volterra.QUADRATURE_TOL
    ref = volterra.predict(spectrum.mp_measure(r, 200), params, T, n=n)
    assert np.max(np.abs(sized.psi - ref.psi)) <= 1e-12 * ref.psi.max()
    if want == 200:
        assert sized.psi.tobytes() == ref.psi.tobytes()
        assert sized.forcing.tobytes() == ref.forcing.tobytes()


def test_sized_rule_skips_a_rung_off_the_mass_budget():
    # at r = 0.8 the 50-node rule misses MASS_TOL, so the climb passes it
    # by: the rule taken is the first rung that meets both the mass budget
    # and the gap
    base = spectrum.mp_measure(0.8)
    params = momentum.defaults("sgd", base)
    with pytest.raises(NumericalError, match="at 50 nodes"):
        spectrum.mp_measure(0.8, 50)
    spec, T = params.kernel_spec(), 10.0

    def meets_both(nodes):
        try:
            rule = spectrum.mp_measure(0.8, nodes)
        except NumericalError:
            return False
        return volterra.quadrature_gap(spec, rule, T) <= volterra.QUADRATURE_TOL
    want = next(k for k in spectrum.NODE_LADDER if meets_both(k))
    sol = volterra.predict(base, params, T, size_rule=True)
    assert sol.meta["measure"]["nodes"] == want
    assert sol.diagnostics["quadrature_gap"] <= volterra.QUADRATURE_TOL


def test_quadrature_gap_reads_the_hard_edge_horizon(mp1):
    # at r = 1 the bulk touches 0: 200 nodes resolve T = 300 but not
    # T = 3000, and 400 resolve both
    spec = momentum.defaults("sgd", mp1).kernel_spec()
    assert volterra.quadrature_gap(spec, mp1, 300.0) <= 1e-12
    assert volterra.quadrature_gap(spec, mp1, 3000.0) > 1e-6
    wide = spectrum.mp_measure(1.0, 400)
    assert volterra.quadrature_gap(spec, wide, 3000.0) <= 1e-12


def test_rule_check_leaves_the_assembly_calls_to_the_solve(monkeypatch, mp1):
    # the check evaluates its own columns: the solve alone calls
    # forcing_matrix, kernel_matrix and SdanaExactKernel.advance
    calls = {"forcing_matrix": 0, "kernel_matrix": 0, "advance": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    counted(kernels, "forcing_matrix")
    counted(kernels, "kernel_matrix")
    counted(kernels.SdanaExactKernel, "advance")
    sdahb = momentum.defaults("sdahb", mp1)
    volterra.predict(mp1, sdahb, 30.0, size_rule=True)
    assert calls == {"forcing_matrix": 1, "kernel_matrix": 1, "advance": 0}
    calls.update(forcing_matrix=0, kernel_matrix=0)
    sol = volterra.predict(mp1, momentum.defaults("sdana", mp1), 10.0,
                           size_rule=True)
    # one advance per block of the half-step grid's intervals
    assert calls == {"forcing_matrix": 0, "kernel_matrix": 0,
                     "advance": -(-2 * (len(sol.grid) - 1) // B_SWEEP)}


def test_given_rule_is_kept_and_its_gap_reported(mp1):
    # without size_rule the measure's own rule solves, and its gap is
    # still in the diagnostics; a discrete measure has none
    params = momentum.defaults("sgd", mp1)
    sol = volterra.predict(spectrum.mp_measure(1.0, 50), params, 300.0)
    assert sol.meta["measure"]["nodes"] == 50
    assert sol.diagnostics["quadrature_gap"] > 1e-6
    esm = spectrum.esm_from_eigenvalues([0.5, 1.0, 2.0])
    sol = volterra.predict(esm, params, 5.0, size_rule=True)
    assert "quadrature_gap" not in sol.diagnostics
