"""Discrete runners: hand-rolled oracles, equivalences, determinism."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movolt import lsq, momentum, spectrum, volterra


def test_sgd_single_sample_is_plain_gradient_descent():
    # n = 1: every draw picks the only row, so the update must equal
    # x <- x - gamma * grad f with f(x) = 0.5*(a.x - b)^2
    p = lsq.generate_gaussian(1, 6, 1.0, 0.3, seed=4)
    gamma = 0.2
    traj = momentum.run(p, momentum.sgd(gamma), epochs=40, seed=9,
                        samples_per_epoch=1)
    a, b = p.A[0], p.b[0]
    x = p.x0.copy()
    iterates = []
    for _ in range(40):
        x = x - gamma * (a @ x - b) * a
        iterates.append(x)
    # one sample per epoch: run evaluates each iterate as a batch of one
    hand = [lsq.losses(p, np.array([x]))[0] for x in iterates]
    assert np.array_equal(traj.mean, hand)  # bitwise


def test_recursion_matches_hand_loop_all_algorithms():
    # independent re-implementation of the update equations, fed the same
    # index stream; trajectories must agree bitwise
    p = lsq.generate_gaussian(12, 8, 1.0, 1.0, seed=2)
    cases = [momentum.sgd(0.3),
             momentum.shb(0.02, 0.04),
             momentum.sdahb(1.5, 1.7),
             momentum.sdana(0.25, 1.0, 4.0)]
    for params in cases:
        traj = momentum.run(p, params, epochs=3, seed=5)
        n = p.n
        total = int(np.rint(np.arange(1, 3 * 20 + 1) * n / 20).max())
        idx = np.random.default_rng([0x5eed, 5]).integers(0, n, size=total)
        x = p.x0.copy()
        y = np.zeros(p.d)
        got = {}
        for k in range(1, total + 1):
            g1, g2, delta = params.kernel_spec(n).discrete(n, k)
            row = p.A[idx[k - 1]]
            g = (row @ x - p.b[idx[k - 1]]) * row
            y = (1.0 - delta) * y + g1 * g
            x = x - g2 * g - y
            got[k] = x
        ks = np.unique(np.maximum(np.rint(np.arange(1, 61) * n / 20), 1).astype(int))
        # run evaluates its sampled iterates 20 at a time with lsq.losses;
        # that helper's agreement with lsq.loss is tested in test_lsq
        X = np.array([got[int(k)] for k in ks])
        hand = np.concatenate([lsq.losses(p, X[j:j + 20])
                               for j in range(0, len(X), 20)])
        assert np.array_equal(traj.mean, hand), params.name


@pytest.mark.parametrize("n,gamma,theta", [(64, 1.8 / 64, 2.0 / 64),
                                           (12, 0.0965, 0.1)])
def test_shb_is_sdahb_at_n_gamma_n_theta_bitwise(n, gamma, theta):
    # shb(gamma, theta) runs sdahb(n gamma, n theta)'s recursion bit for
    # bit at every n, also where n*gamma/n is not gamma (n = 12)
    p = lsq.generate_gaussian(n, 32, 1.0, 1.0, seed=3)
    a = momentum.run(p, momentum.sdahb(n * gamma, n * theta), epochs=2,
                     seed=11)
    b = momentum.run(p, momentum.shb(gamma, theta), epochs=2, seed=11)
    assert np.array_equal(a.mean, b.mean)


def test_defaults_table(mp1):
    m = mp1.trace_moment()
    d = momentum.defaults("sgd", mp1)
    assert d.params["gamma"] == pytest.approx(1.0 / m)
    d = momentum.defaults("sdahb", mp1)
    assert d.params["gamma"] == pytest.approx(2.0 / m)
    assert d.params["theta"] == 2.0
    d = momentum.defaults("sdana", mp1)
    assert d.params["gamma1"] == pytest.approx(0.25 / m)
    assert d.params["gamma2"] == pytest.approx(1.0 / m)
    assert d.params["theta"] == 4.0
    with pytest.raises(ValueError):
        momentum.defaults("shb", mp1)
    with pytest.raises(ValueError, match="^unknown algorithm 'adam'; choose "
                       "sgd, shb, sdahb, sdana$"):
        momentum.algorithm("adam")


def test_schedule_values():
    n = 100
    ks = np.array([1, 10, 50])
    delta = lambda params: params.kernel_spec(n).discrete(n, ks)[2]
    # SGD's law has theta = 0; with Gamma1 = 0 its buffer never moves
    assert np.all(delta(momentum.sgd(0.5)) == 0.0)
    assert np.all(delta(momentum.shb(0.1, 0.3)) == 0.3)
    assert np.all(delta(momentum.sdahb(1.0, 3.0)) == 0.03)
    got = delta(momentum.sdana(0.25, 1.0, 4.0))
    assert np.allclose(got, 4.0 / (ks + n))


def test_schedule_out_of_range_rejected():
    p = lsq.generate_gaussian(10, 5, 1.0, 1.0, seed=0)
    bad = momentum.shb(0.1, 1.5)  # Delta = 1.5 > 1
    with pytest.raises(ValueError):
        momentum.run(p, bad, epochs=1, seed=0)


def test_continuous_parameter_map():
    spec = momentum.sgd(0.7).kernel_spec()
    assert (spec.gamma1, spec.gamma2) == (0.0, 0.7)
    assert spec.phi_kind == "const" and spec.theta == 0.0
    spec = momentum.sdahb(1.2, 2.2).kernel_spec()
    assert (spec.gamma1, spec.gamma2) == (1.2, 0.0) and spec.theta == 2.2
    spec = momentum.shb(0.01, 0.02).kernel_spec(n=100)
    assert spec.gamma1 == pytest.approx(1.0)
    assert spec.theta == pytest.approx(2.0)
    with pytest.raises(ValueError):
        momentum.shb(0.01, 0.02).kernel_spec()
    spec = momentum.sdana(0.25, 1.0, 4.0).kernel_spec()
    assert (spec.gamma1, spec.gamma2) == (0.25, 1.0)
    assert spec.phi_kind == "power" and spec.theta == 4.0


@pytest.mark.parametrize("params", [momentum.sgd(0.7),
                                    momentum.sdana(0.25, 1.0, 4.0)])
def test_kernel_spec_takes_the_route_names_only(params):
    # kernels.MODES is the one list of route names, also for a
    # single-mode record, which ignores a known name; the long names of
    # earlier releases are refused like any other
    for mode in ('closed_form', 'ode_exact', 'convolution_approx', ''):
        with pytest.raises(ValueError, match="unknown solve mode %r; pick "
                           "closed, ode, conv" % (mode,)):
            params.kernel_spec(mode=mode)
    for mode in params.algo.modes:
        assert params.kernel_spec(mode=mode).mode == mode


def test_kernel_spec_names_the_routes_a_record_allows():
    with pytest.raises(ValueError, match=r"mode 'closed' unavailable for "
                       r"sdana \(allowed: ode, conv\)"):
        momentum.sdana(0.25, 1.0, 4.0).kernel_spec(mode="closed")
    for mode in ("ode", "conv"):
        assert momentum.sgd(0.7).kernel_spec(mode=mode).mode == "closed"


def test_run_deterministic_and_seed_sensitive():
    p = lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=1)
    a = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=42)
    b = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=42)
    c = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=43)
    assert np.array_equal(a.mean, b.mean)
    assert not np.array_equal(a.mean, c.mean)


def test_sample_times_are_epoch_fractions():
    p = lsq.generate_gaussian(100, 50, 1.0, 1.0, seed=1)
    traj = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=0)
    assert traj.times[0] == pytest.approx(0.05)
    assert traj.times[-1] == pytest.approx(2.0)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.times) == 40


def test_divergence_sets_flag_and_truncates():
    p = lsq.generate_gaussian(30, 30, 1.0, 1.0, seed=6)
    traj = momentum.run(p, momentum.sgd(500.0), epochs=2, seed=0)
    assert traj.diverged
    assert len(traj.times) < 40
    assert np.all(np.isfinite(traj.mean))


def _per_sample_run(p, params, epochs, seed):
    """The simulator with one lsq.loss per sample: (times, values, step k
    at which the first non-finite or over-threshold loss stopped it)."""
    n = p.n
    ks = set(momentum._sample_steps(n, epochs, momentum.SAMPLES_PER_EPOCH)
             .tolist())
    total = max(ks)
    idx = np.random.default_rng([0x5eed, seed]).integers(0, n, size=total)
    x = p.x0.copy()
    y = np.zeros(p.d)
    times, vals = [], []
    for k in range(1, total + 1):
        g1, g2, delta = params.kernel_spec(n).discrete(n, k)
        row = p.A[idx[k - 1]]
        g = (row @ x - p.b[idx[k - 1]]) * row
        y = (1.0 - delta) * y + g1 * g
        x = x - g2 * g - y
        if k in ks:
            f = lsq.loss(p, x)
            if not np.isfinite(f) or f > lsq.DIVERGENCE_THRESHOLD:
                return times, vals, k
            times.append(k / n)
            vals.append(f)
    return times, vals, None


# sgd(4.5) at 100x200 diverges mid-epoch, after 43, 56 and 59 samples
# for seeds 5, 6 and 7, where the last kept losses sit within a factor
# of a few of the threshold; the sdahb and sdana rows run to the end
@pytest.mark.parametrize("n, d, params, problem_seed, seed", [
    (30, 30, momentum.sgd(500.0), 6, 0),
    (25, 25, momentum.sgd(500.0), 4, 0),
    (100, 200, momentum.sgd(4.5), 5, 5),
    (100, 200, momentum.sgd(4.5), 6, 6),
    (100, 200, momentum.sgd(4.5), 7, 7),
    (100, 200, momentum.sdahb(1.0, 2.0), 1, 1),
    (64, 32, momentum.sdana(0.25, 1.0, 4.0), 2, 3),
])
def test_run_stops_where_the_per_sample_loop_stops(n, d, params,
                                                   problem_seed, seed):
    p = lsq.generate_gaussian(n, d, 1.0, 1.0, seed=problem_seed)
    times, vals, stop = _per_sample_run(p, params, 3, seed)
    # cli.main runs under this errstate: the bound on f must not trip it
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        traj = momentum.run(p, params, epochs=3, seed=seed)
    assert traj.diverged == (stop is not None)
    assert traj.meta["diverged_at"] == stop
    assert np.array_equal(traj.times, times)
    np.testing.assert_allclose(traj.mean, vals, rtol=1e-13, atol=0)


def test_divergence_bound_is_silent_when_it_overflows():
    # a zero column never moves its coordinate of x, so |x| stays 1e200:
    # the bound on f overflows at every sample while f itself is finite,
    # and every sample takes the exact lsq.loss, bit for bit the loop's
    # (pytest turns RuntimeWarning into errors, see pyproject.toml)
    p = lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=3)
    A = p.A.copy()
    A[:, 3] = 0.0
    x0 = p.x0.copy()
    x0[3] = 1e200
    p = lsq.LsqProblem(A, p.b, x0)
    times, vals, stop = _per_sample_run(p, momentum.sgd(0.5), 2, 4)
    for state in ({}, {"over": "raise", "invalid": "raise"}):
        with np.errstate(**state):
            traj = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=4)
        assert stop is None and not traj.diverged
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.mean, vals)


@pytest.mark.parametrize("params", [momentum.sgd(0.5),
                                    momentum.sdahb(1.0, 2.0),
                                    momentum.sdana(0.25, 1.0, 4.0)],
                         ids=lambda p: p.name)
def test_non_finite_gradient_stops_and_raises_like_the_loop(params):
    # x0 = 1e300 against nonnegative rows of norm about 1e10: the first
    # a.x overflows, so g is non-finite from step 1 on, whichever of the
    # step's terms run
    p = lsq.generate_gaussian(40, 20, 1.0, 1.0, seed=2)
    A = np.abs(p.A) * 1e10
    p = lsq.LsqProblem(A, p.b, np.full(p.d, 1e300))
    with np.errstate(all="ignore"):
        assert not np.any(np.isfinite(A @ p.x0))
        times, vals, stop = _per_sample_run(p, params, 2, 3)
        traj = momentum.run(p, params, epochs=2, seed=3)
    assert stop is not None
    assert traj.diverged
    assert traj.meta["diverged_at"] == stop
    assert np.array_equal(traj.times, times)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError):
            momentum.run(p, params, epochs=2, seed=3)


def test_run_ensemble_aggregates_quantiles():
    agg = momentum.run_ensemble({"n": 40, "d": 20, "R": 1.0, "R_tilde": 1.0},
                                momentum.sgd(0.8), epochs=1, n_seeds=8,
                                base_seed=3)
    assert np.all(agg.q10 <= agg.mean + 1e-12)
    assert np.all(agg.mean <= agg.q90 + 1e-12)
    assert len(agg.times) == 20


def test_aggregate_truncates_to_shared_prefix():
    p = lsq.generate_gaussian(25, 25, 1.0, 1.0, seed=4)
    good = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=0)
    bad = momentum.run(p, momentum.sgd(500.0), epochs=2, seed=0)
    agg = momentum.aggregate([good, bad])
    assert agg.diverged
    assert len(agg.times) == len(bad.times)
    assert good.meta["diverged_at"] is None
    assert agg.meta["diverged_at"] == [None, bad.meta["diverged_at"]]
    # the run stops at the sample after the last one it kept
    assert bad.meta["diverged_at"] > bad.times[-1] * p.n


def test_aggregate_standard_error():
    p = lsq.generate_gaussian(40, 20, 1.0, 1.0, seed=2)
    runs = [momentum.run(p, momentum.sgd(0.5), epochs=1, seed=s)
            for s in range(5)]
    mat = np.stack([r.mean for r in runs])
    agg = momentum.aggregate(runs)
    assert np.allclose(agg.se, mat.std(axis=0, ddof=1) / np.sqrt(5),
                       rtol=1e-14, atol=0)
    assert momentum.aggregate(runs[:1]).se is None


def test_run_is_an_ensemble_of_one():
    p = lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=1)
    r = momentum.run(p, momentum.sdahb(1.0, 2.0), epochs=1, seed=0)
    assert np.array_equal(r.q10, r.mean) and np.array_equal(r.q90, r.mean)
    assert r.se is None
    agg = momentum.aggregate([r])
    for key in ("times", "mean", "q10", "q90"):
        assert np.array_equal(getattr(agg, key), getattr(r, key)), key


def test_trajectory_csv_roundtrip(tmp_path):
    p = lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=1)
    traj = momentum.run(p, momentum.sgd(0.5), epochs=1, seed=0)
    f = tmp_path / "single.csv"
    traj.to_csv(f)
    back = momentum.Trajectory.from_csv(f)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.mean, traj.mean)
    agg = momentum.run_ensemble({"n": 20, "d": 10, "R": 1.0, "R_tilde": 1.0},
                                momentum.sgd(0.5), epochs=1, n_seeds=3)
    g = tmp_path / "ens.csv"
    agg.to_csv(g)
    back = momentum.Trajectory.from_csv(g)
    assert np.array_equal(back.mean, agg.mean)
    assert np.array_equal(back.q90, agg.q90)


def test_trajectory_csv_refuses_single_value_header(tmp_path):
    f = tmp_path / "single.csv"
    f.write_text("t,value\n0.05,1.5\n")
    with pytest.raises(ValueError, match="'t', 'value'"):
        momentum.Trajectory.from_csv(f)


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([16, 32, 64, 128]),
       gamma=st.floats(0.1, 3.0), theta=st.floats(0.1, 3.0),
       seed=st.integers(0, 50))
def test_shb_sdahb_equivalence_property(n, gamma, theta, seed):
    p = lsq.generate_gaussian(n, n // 2, 1.0, 1.0, seed=seed)
    a = momentum.run(p, momentum.sdahb(gamma, theta), epochs=1, seed=seed)
    b = momentum.run(p, momentum.shb(gamma / n, theta / n), epochs=1, seed=seed)
    assert np.array_equal(a.mean, b.mean)
    assert a.diverged == b.diverged


def test_homogenized_requires_small_dt():
    p = lsq.generate_gaussian(10, 5, 1.0, 1.0, seed=0)
    sp = lsq.to_spectral(p)
    with pytest.raises(ValueError):
        momentum.simulate_homogenized(sp, momentum.sgd(0.5), T=1.0, dt=0.05,
                                      seed=0)


def test_homogenized_starts_at_initial_loss_and_is_deterministic():
    p = lsq.generate_gaussian(50, 25, 1.0, 1.0, seed=8)
    sp = lsq.to_spectral(p)
    a = momentum.simulate_homogenized(sp, momentum.sgd(0.5), T=0.5, dt=0.01,
                                      seed=2)
    b = momentum.simulate_homogenized(sp, momentum.sgd(0.5), T=0.5, dt=0.01,
                                      seed=2)
    assert a.mean[0] == pytest.approx(lsq.loss(p, p.x0), rel=1e-12)
    assert np.array_equal(a.mean, b.mean)
    assert len(a.times) == 51


def test_homogenized_multipath_returns_quantiles():
    p = lsq.generate_gaussian(40, 20, 1.0, 1.0, seed=8)
    sp = lsq.to_spectral(p)
    traj, paths = momentum.simulate_homogenized(
        sp, momentum.sgd(0.5), T=0.2, dt=0.01, seed=2, n_paths=6,
        return_paths=True)
    assert paths.shape == (6, 21)
    assert np.all(traj.q10 <= traj.q90 + 1e-15)


def test_homogenized_standard_error():
    p = lsq.generate_gaussian(40, 20, 1.0, 1.0, seed=8)
    sp = lsq.to_spectral(p)
    traj, paths = momentum.simulate_homogenized(
        sp, momentum.sgd(0.5), T=0.2, dt=0.01, seed=2, n_paths=6,
        return_paths=True)
    assert np.array_equal(traj.se, paths.std(axis=0, ddof=1) / np.sqrt(6))
    one = momentum.simulate_homogenized(sp, momentum.sgd(0.5), T=0.2,
                                        dt=0.01, seed=2)
    assert one.se is None


def test_homogenized_tracks_discrete_sgd_loosely():
    # the diffusion and the discrete chain share the same loss curve to
    # O(1/n); at n=400 a 10% band over a one-epoch horizon is ample
    p = lsq.generate_gaussian(400, 400, 1.0, 1.0, seed=5)
    sp = lsq.to_spectral(p)
    params = momentum.sgd(0.6)
    disc = momentum.aggregate([momentum.run(p, params, 1.0, s)
                               for s in range(4)])
    diff = momentum.simulate_homogenized(sp, params, T=1.0, dt=0.01, seed=0,
                                         n_paths=4)
    d_end = disc.mean[-1]
    h_end = diff.mean[-1]
    assert abs(d_end - h_end) < 0.1 * max(d_end, h_end)


@pytest.mark.parametrize("shape", [(100, 300), (512, 512), (200, 100)])
@pytest.mark.parametrize("algo, mode", [("sgd", "closed"), ("sdana", "ode")])
def test_realized_start_is_one_float(shape, algo, mode):
    # the SDE's first sample, the forcing's F(0) and the predicted psi(0)
    # are the realized start f0 bit for bit, whatever the rounding of a mean
    # of equal starts, of a gemv over the nodes or of the Richardson step
    for seed in range(12):
        prob = lsq.generate_gaussian(*shape, 1.0, 1.0, seed)
        sp = lsq.to_spectral(prob)
        measure = prob.esm()
        params = momentum.defaults(algo, measure)
        traj = momentum.simulate_homogenized(sp, params, T=0.01, dt=0.01,
                                             seed=7, n_paths=50)
        sol = volterra.predict(measure, params, T=0.1, h=0.01, mode=mode,
                               spectral=sp)
        assert traj.mean[0] == traj.q10[0] == traj.q90[0] == sp.f0
        assert sol.forcing[0] == sol.psi[0] == sp.f0
        assert sp.f0 == pytest.approx(lsq.loss(prob, prob.x0), rel=1e-12)


def _serial_homogenized(sp, params, T, dt, seed, n_paths):
    """The SDE's Euler-Maruyama loop on one thread, drawing each step's
    normals right before its drift: (times, paths, diverged)."""
    spec = params.kernel_spec(n=sp.n)
    g1, g2 = spec.gamma1, spec.gamma2
    n, lam = sp.n, sp.lam
    steps = int(round(T / dt))
    rng = np.random.default_rng([0xd1f, seed])
    rho = np.tile(sp.resid, (n_paths, 1))
    omega = np.zeros_like(rho)
    paths = np.empty((n_paths, steps + 1))
    f = np.full(n_paths, sp.f0)
    paths[:, 0] = f
    times = np.arange(steps + 1) * dt
    for k in range(1, steps + 1):
        t = (k - 1) * dt
        amp = np.sqrt(2.0 * dt * f / n)
        dX = rng.standard_normal((n_paths, n)) * (lam * amp[:, None])
        dX += lam * dt * rho
        rho -= g2 * dX + (g1 * dt) * omega
        omega *= 1.0 - spec.Phi(t) * dt
        omega += dX
        f = 0.5 * np.sum(rho * rho, axis=1)
        if not np.all(np.isfinite(f)) or np.any(np.abs(f) > lsq.DIVERGENCE_THRESHOLD):
            return times[:k], paths[:, :k], True
        paths[:, k] = f
    return times, paths, False


@pytest.mark.parametrize("shape, params, T, n_paths, samples", [
    ((40, 20), momentum.sgd(0.5), 0.5, 6, 51),
    ((30, 60), momentum.sdahb(1.0, 2.0), 0.3, 3, 31),
    ((50, 50), momentum.sdana(0.25, 1.0, 4.0), 0.4, 5, 41),
    ((64, 128), momentum.sgd(20.0), 1.0, 4, 15),     # diverges
], ids=["sgd", "sdahb", "sdana", "sgd-diverges"])
def test_homogenized_is_the_serial_loop_bit_for_bit(shape, params, T,
                                                    n_paths, samples):
    sp = lsq.to_spectral(lsq.generate_gaussian(*shape, 1.0, 1.0, seed=3))
    times, paths, diverged = _serial_homogenized(sp, params, T, 0.01, 9,
                                                 n_paths)
    assert paths.shape == (n_paths, samples)
    before = threading.active_count()
    traj, got = momentum.simulate_homogenized(sp, params, T=T, dt=0.01,
                                              seed=9, n_paths=n_paths,
                                              return_paths=True)
    assert threading.active_count() == before
    assert traj.diverged == diverged
    assert np.array_equal(traj.times, times)
    assert np.array_equal(got, paths)


def test_homogenized_calls_on_three_threads_keep_the_serial_paths():
    # more calls than cores, with a short switch interval: each call's
    # draw worker and noise ring are its own, and every path stays the
    # serial loop's bit for bit
    sp = lsq.to_spectral(lsq.generate_gaussian(64, 128, 1.0, 1.0, seed=5))
    params = momentum.sdana(0.25, 1.0, 4.0)
    want = [_serial_homogenized(sp, params, 0.5, 0.01, s, 8)[1]
            for s in range(3)]
    got = [None] * 3

    def call(s):
        got[s] = momentum.simulate_homogenized(sp, params, T=0.5, dt=0.01,
                                               seed=s, n_paths=8,
                                               return_paths=True)[1]

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(s,)) for s in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threading.active_count() == before
    for s in range(3):
        assert np.array_equal(got[s], want[s])


@pytest.mark.parametrize("arg, value", [
    ("T", -1.0), ("T", float("nan")), ("T", float("inf")),
    ("dt", 0.0), ("dt", -0.01), ("dt", 0.05), ("dt", float("nan")),
    ("n_paths", 0), ("n_paths", -2), ("n_paths", 2.0), ("n_paths", True),
])
def test_homogenized_rejects_bad_inputs_by_name(arg, value):
    sp = lsq.to_spectral(lsq.generate_gaussian(10, 5, 1.0, 1.0, seed=0))
    kwargs = {"T": 1.0, "dt": 0.01, "n_paths": 2, arg: value}
    before = threading.active_count()
    with pytest.raises(ValueError, match=arg):
        momentum.simulate_homogenized(sp, momentum.sgd(0.5), seed=0,
                                      **kwargs)
    assert threading.active_count() == before


def test_homogenized_leaves_no_thread_when_the_drift_raises():
    # gamma = 1e200 puts rho near 1e200 at the first step, so rho * rho
    # overflows before any divergence check: under errstate(raise) the
    # drift raises mid-loop, and the draw worker must still be gone
    sp = lsq.to_spectral(lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=1))
    before = threading.active_count()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            momentum.simulate_homogenized(sp, momentum.sgd(1e200), T=1.0,
                                          dt=0.01, seed=0, n_paths=3)
    assert threading.active_count() == before


class _Draws:
    """A stand-in for the path generator: counts its standard_normal
    calls, records the overflow mode each ran under and raises KeyError
    on call number fail."""

    def __init__(self, rng, fail=None):
        self.rng, self.fail, self.calls, self.modes = rng, fail, 0, []

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        self.modes.append(np.geterr()["over"])
        if self.calls == self.fail:
            raise KeyError("draw")
        return self.rng.standard_normal(*args, **kwargs)


def _patch_draws(monkeypatch, fail=None):
    made = []
    real = np.random.default_rng

    def default_rng(seed):
        made.append(_Draws(real(seed), fail))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


def test_homogenized_reraises_a_failed_draw_and_leaves_no_thread(
        monkeypatch):
    sp = lsq.to_spectral(lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=1))
    made = _patch_draws(monkeypatch, fail=3)
    before = threading.active_count()
    with pytest.raises(KeyError, match="draw"):
        momentum.simulate_homogenized(sp, momentum.sdana(0.25, 1.0, 4.0),
                                      T=0.5, dt=0.01, seed=0, n_paths=3)
    assert threading.active_count() == before
    # steps 1 and 2 submitted draws 3 and 4, and the call waited for the
    # fourth to finish before it raised
    assert made[0].calls == 4


@pytest.mark.parametrize("mode", ["raise", "ignore"])
def test_homogenized_draws_run_under_the_callers_errstate(monkeypatch, mode):
    # a thread starts in numpy's default errstate ("warn"); each draw
    # must see the caller's instead
    sp = lsq.to_spectral(lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=1))
    made = _patch_draws(monkeypatch)
    with np.errstate(over=mode):
        momentum.simulate_homogenized(sp, momentum.sgd(0.5), T=0.2, dt=0.01,
                                      seed=0, n_paths=2)
    assert made[0].modes == [mode] * 20


def test_homogenized_keeps_two_draws_in_flight(monkeypatch):
    # a draw is outstanding from its submit until its step takes the
    # result; three would write into the ring buffer in use, and one
    # would leave the pool idle while the drift runs
    from concurrent import futures
    outstanding, most = [0], [0]

    class Counting(futures.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            fut = super().submit(*args, **kwargs)
            outstanding[0] += 1
            most[0] = max(most[0], outstanding[0])
            result = fut.result

            def taken(*a):
                outstanding[0] -= 1
                return result(*a)

            fut.result = taken
            return fut

    monkeypatch.setattr(futures, "ThreadPoolExecutor", Counting)
    sp = lsq.to_spectral(lsq.generate_gaussian(40, 20, 1.0, 1.0, seed=3))
    params = momentum.sdana(0.25, 1.0, 4.0)
    got = momentum.simulate_homogenized(sp, params, T=0.3, dt=0.01, seed=9,
                                        n_paths=4, return_paths=True)[1]
    assert most[0] == 2 and outstanding[0] == 0
    assert np.array_equal(got, _serial_homogenized(sp, params, 0.3, 0.01, 9,
                                                   4)[1])


def test_import_movolt_leaves_out_concurrent_futures():
    # concurrent.futures imports logging, which would add to the start-up
    # of every command; only simulate_homogenized imports it
    src = os.path.dirname(os.path.dirname(momentum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, movolt; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
