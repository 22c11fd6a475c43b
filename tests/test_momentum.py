"""Discrete runners: hand-rolled oracles, equivalences, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movolt import kernels, lsq, momentum, spectrum


def test_sgd_single_sample_is_plain_gradient_descent():
    # n = 1: every draw picks the only row, so the update must equal
    # x <- x - gamma * grad f with f(x) = 0.5*(a.x - b)^2
    p = lsq.generate_gaussian(1, 6, 1.0, 0.3, seed=4)
    gamma = 0.2
    traj = momentum.run(p, momentum.sgd(gamma), epochs=40, seed=9,
                        samples_per_epoch=1)
    a, b = p.A[0], p.b[0]
    x = p.x0.copy()
    hand = []
    for _ in range(40):
        x = x - gamma * (a @ x - b) * a
        hand.append(0.5 * (a @ x - b) ** 2)
    assert np.allclose(traj.values, hand, rtol=0, atol=0)  # bitwise


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
        g1, g2, sched = params.discrete(n)
        x = p.x0.copy()
        y = np.zeros(p.d)
        got = {}
        for k in range(1, total + 1):
            row = p.A[idx[k - 1]]
            g = (row @ x - p.b[idx[k - 1]]) * row
            y = (1.0 - sched.delta(k, n)) * y + g1 * g
            x = x - g2 * g - y
            res = p.A @ x - p.b
            got[k] = 0.5 * float(res @ res)
        ks = np.unique(np.maximum(np.rint(np.arange(1, 61) * n / 20), 1).astype(int))
        hand = np.array([got[int(k)] for k in ks])
        assert np.array_equal(traj.values, hand), params.name


def test_shb_sdahb_bitwise_equivalence_power_of_two_n():
    # sdahb(gamma, theta) == shb(gamma/n, theta/n): exact float identity
    # whenever the divisions are by a power of two
    n = 64
    p = lsq.generate_gaussian(n, 32, 1.0, 1.0, seed=3)
    a = momentum.run(p, momentum.sdahb(1.8, 2.0), epochs=2, seed=11)
    b = momentum.run(p, momentum.shb(1.8 / n, 2.0 / n), epochs=2, seed=11)
    assert np.array_equal(a.values, b.values)


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


def test_schedule_values():
    n = 100
    ks = np.array([1, 10, 50])
    delta = lambda params: params.discrete(n)[2].delta(ks, n)
    assert np.all(delta(momentum.sgd(0.5)) == 1.0)
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
    g1, g2, sched = momentum.sgd(0.7).continuous()
    assert (g1, g2) == (0.0, 0.7) and sched.kind == "const" and sched.theta == 0.0
    g1, g2, sched = momentum.sdahb(1.2, 2.2).continuous()
    assert (g1, g2) == (1.2, 0.0) and sched.theta == 2.2
    g1, g2, sched = momentum.shb(0.01, 0.02).continuous(n=100)
    assert g1 == pytest.approx(1.0) and sched.theta == pytest.approx(2.0)
    with pytest.raises(ValueError):
        momentum.shb(0.01, 0.02).continuous()
    g1, g2, sched = momentum.sdana(0.25, 1.0, 4.0).continuous()
    assert (g1, g2) == (0.25, 1.0) and sched.kind == "power" and sched.theta == 4.0


def test_run_deterministic_and_seed_sensitive():
    p = lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=1)
    a = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=42)
    b = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=42)
    c = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


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
    assert np.all(np.isfinite(traj.values))


def test_run_ensemble_aggregates_quantiles():
    agg = momentum.run_ensemble({"n": 40, "d": 20, "R": 1.0, "R_tilde": 1.0},
                                momentum.sgd(0.8), epochs=1, n_seeds=8,
                                base_seed=3)
    assert agg.is_ensemble
    assert np.all(agg.q10 <= agg.mean + 1e-12)
    assert np.all(agg.mean <= agg.q90 + 1e-12)
    assert len(agg.times) == 20


def test_run_ensemble_fixed_problem_reuses_matrix():
    p = lsq.generate_gaussian(30, 15, 1.0, 1.0, seed=9)
    one = momentum.run(p, momentum.sgd(0.5), epochs=1, seed=0)
    agg = momentum.run_ensemble(p, momentum.sgd(0.5), epochs=1, n_seeds=1,
                                base_seed=0, fixed_problem=True)
    assert np.allclose(agg.mean, one.values)


def test_aggregate_truncates_to_shared_prefix():
    p = lsq.generate_gaussian(25, 25, 1.0, 1.0, seed=4)
    good = momentum.run(p, momentum.sgd(0.5), epochs=2, seed=0)
    bad = momentum.run(p, momentum.sgd(500.0), epochs=2, seed=0)
    agg = momentum.aggregate([good, bad])
    assert agg.diverged
    assert len(agg.times) == len(bad.times)


def test_trajectory_csv_roundtrip(tmp_path):
    p = lsq.generate_gaussian(20, 10, 1.0, 1.0, seed=1)
    traj = momentum.run(p, momentum.sgd(0.5), epochs=1, seed=0)
    f = tmp_path / "single.csv"
    traj.to_csv(f)
    back = momentum.Trajectory.from_csv(f)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.values, traj.values)
    agg = momentum.run_ensemble({"n": 20, "d": 10, "R": 1.0, "R_tilde": 1.0},
                                momentum.sgd(0.5), epochs=1, n_seeds=3)
    g = tmp_path / "ens.csv"
    agg.to_csv(g)
    back = momentum.Trajectory.from_csv(g)
    assert back.is_ensemble
    assert np.array_equal(back.mean, agg.mean)
    assert np.array_equal(back.q90, agg.q90)


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([16, 32, 64, 128]),
       gamma=st.floats(0.1, 3.0), theta=st.floats(0.1, 3.0),
       seed=st.integers(0, 50))
def test_shb_sdahb_equivalence_property(n, gamma, theta, seed):
    p = lsq.generate_gaussian(n, n // 2, 1.0, 1.0, seed=seed)
    a = momentum.run(p, momentum.sdahb(gamma, theta), epochs=1, seed=seed)
    b = momentum.run(p, momentum.shb(gamma / n, theta / n), epochs=1, seed=seed)
    assert np.array_equal(a.values, b.values)
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
    assert a.values[0] == pytest.approx(lsq.loss(p, p.x0), rel=1e-12)
    assert np.array_equal(a.values, b.values)
    assert len(a.times) == 51


def test_homogenized_multipath_returns_quantiles():
    p = lsq.generate_gaussian(40, 20, 1.0, 1.0, seed=8)
    sp = lsq.to_spectral(p)
    traj, paths = momentum.simulate_homogenized(
        sp, momentum.sgd(0.5), T=0.2, dt=0.01, seed=2, n_paths=6,
        return_paths=True)
    assert paths.shape == (6, 21)
    assert traj.is_ensemble
    assert np.all(traj.q10 <= traj.q90 + 1e-15)


def test_homogenized_tracks_discrete_sgd_loosely():
    # the diffusion and the discrete chain share the same loss curve to
    # O(1/n); at n=400 a 10% band over a one-epoch horizon is ample
    p = lsq.generate_gaussian(400, 400, 1.0, 1.0, seed=5)
    sp = lsq.to_spectral(p)
    params = momentum.sgd(0.6)
    disc = momentum.run_ensemble(p, params, epochs=1.0, n_seeds=4,
                                 base_seed=0, fixed_problem=True)
    diff = momentum.simulate_homogenized(sp, params, T=1.0, dt=0.01, seed=0,
                                         n_paths=4)
    d_end = disc.mean[-1]
    h_end = diff.mean[-1]
    assert abs(d_end - h_end) < 0.1 * max(d_end, h_end)


def test_custom_params_raw_laws():
    sched = kernels._Schedule("const", 0.5)
    c = momentum.custom(0.125, 0.25, sched)
    assert c.discrete(999)[:2] == (0.125, 0.25)
