"""The algorithm table: every record runs through every consumer.

Each record of momentum.ALGORITHMS is exercised end to end: the discrete
runner, the continuous map, the kernel spec, a short prediction, the rate
report and the CLI's default row.  Adding a record adds a case here.
"""

import json

import numpy as np
import pytest

from movolt import analysis, cli, lsq, momentum, spectrum, volterra

N = 64


def row(name, mu):
    """The record's default row; SHB has none and gets SDAHB's at n = N."""
    if momentum.ALGORITHMS[name].defaults is None:
        return momentum.defaults(name, mu, gamma=2.0 / N, theta=2.0 / N)
    return momentum.defaults(name, mu)


@pytest.mark.parametrize("name", sorted(momentum.ALGORITHMS))
def test_every_record_runs_through_every_consumer(name, mp2, tmp_path,
                                                  capsys):
    record = momentum.ALGORITHMS[name]
    params = row(name, mp2)
    assert params.name == name and tuple(params.params) == record.names

    traj = momentum.run(lsq.generate_gaussian(N, 2 * N, 1.0, 1.0, seed=1),
                        params, epochs=1.0, seed=0)
    assert not traj.diverged and len(traj.times) == momentum.SAMPLES_PER_EPOCH
    assert np.all(np.isfinite(traj.values))

    spec = params.kernel_spec(N)
    assert ((spec.gamma1, spec.gamma2, spec.theta)
            == record.continuous(params.params, N))
    assert spec.mode == record.modes[0]
    assert spec.phi_kind == ("const" if record.modes == ("closed_form",)
                             else "power")

    sol = volterra.predict(mp2, params, T=2.0, n=N)
    assert sol.psi[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.isfinite(sol.psi)) and sol.psi[-1] < sol.psi[0]

    rep = analysis.rate_report(params, mp2, n=N)
    assert rep.algo == name and rep.convergent
    assert rep.kernel_norm == analysis.kernel_norm(params, mp2)
    assert 0.0 < rep.rate_lower_bound <= rep.effective_rate

    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--algo", name, "--r", "2", "--n", str(N),
                     "--out", str(out)])
    err = capsys.readouterr().err
    if record.defaults is None:
        assert code == 1 and name in err
    else:
        assert code == 0
        got = json.loads(out.read_text())["report"]["params"]
        assert got == params.describe()


@pytest.mark.parametrize("n", [N, 100])
@pytest.mark.parametrize("name", sorted(momentum.ALGORITHMS))
def test_discrete_map_is_the_kernel_specs_law(name, n, mp2):
    # Gamma1 = gamma1/n, Gamma2 = gamma2 and Delta(k) = Phi(k/n)/n: the
    # step KernelSpec.discrete writes as theta/n or theta/(n + k) is Phi's,
    # also at an n that is not a power of two
    params = row(name, mp2)
    spec = params.kernel_spec(n)
    ks = np.arange(1, 10 * n + 1)
    g1, g2, delta = params.discrete(n, ks)
    assert n * g1 == pytest.approx(spec.gamma1, rel=1e-14, abs=0.0)
    assert g2 == spec.gamma2
    np.testing.assert_allclose(n * np.broadcast_to(delta, ks.shape),
                               np.broadcast_to(spec.Phi(ks / n), ks.shape),
                               rtol=1e-14, atol=0.0)
    # Phi = phi'/phi = (log phi)', by a central difference
    t, eps = np.linspace(0.0, 10.0, 21), 1e-4
    slope = (np.log(spec.phi(t + eps)) - np.log(spec.phi(t - eps))) / (2 * eps)
    np.testing.assert_allclose(slope, np.broadcast_to(spec.Phi(t), t.shape),
                               rtol=1e-8, atol=1e-10)


def test_cli_algo_choices_are_the_table(capsys):
    parser = cli.build_parser()
    for name in momentum.ALGORITHMS:
        assert parser.parse_args(["analyze", "--algo", name]).algo == name
    assert cli.main(["analyze", "--algo", "adam"]) == 1


def test_shb_prediction_is_sdahb_bit_for_bit(mp2):
    gamma, theta = 1.5, 2.5
    a = volterra.predict(mp2, momentum.sdahb(gamma, theta), T=5.0)
    b = volterra.predict(mp2, momentum.shb(gamma / N, theta / N), T=5.0, n=N)
    assert np.array_equal(a.psi, b.psi)


@pytest.mark.parametrize("make,bad", [
    (lambda v: momentum.sgd(v), "gamma"),
    (lambda v: momentum.shb(0.01, v), "theta"),
    (lambda v: momentum.sdahb(v, 2.0), "gamma"),
    (lambda v: momentum.sdana(0.25, v, 4.0), "gamma2"),
])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_records_reject_nonpositive_and_nonfinite(make, bad, value):
    with pytest.raises(ValueError, match=bad):
        make(value)
