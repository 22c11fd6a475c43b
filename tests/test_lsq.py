"""Random least-squares problems: losses, spectra, CSV ingestion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movolt import lsq, spectrum


def test_generate_shapes_and_reproducibility():
    p = lsq.generate_gaussian(50, 30, 1.0, 0.5, seed=7)
    assert p.A.shape == (50, 30)
    assert p.b.shape == (50,)
    assert p.x0.shape == (30,)
    q = lsq.generate_gaussian(50, 30, 1.0, 0.5, seed=7)
    assert np.array_equal(p.A, q.A) and np.array_equal(p.b, q.b)
    r = lsq.generate_gaussian(50, 30, 1.0, 0.5, seed=8)
    assert not np.array_equal(p.A, r.A)


def test_b_is_planted_signal_plus_noise():
    p = lsq.generate_gaussian(40, 40, 1.0, 1.0, seed=1)
    assert np.allclose(p.b, p.A @ p.x_tilde + p.eta)


def test_initial_loss_concentrates_at_half_R_m_plus_Rtilde():
    # E f(x0) = (R*m + R_tilde)/2 with m = 1; Monte Carlo over problems
    R, Rt, n, d = 2.0, 0.5, 400, 400
    vals = [lsq.loss(lsq.generate_gaussian(n, d, R, Rt, seed=s),
                     lsq.generate_gaussian(n, d, R, Rt, seed=s).x0)
            for s in range(20)]
    mean = np.mean(vals)
    want = 0.5 * (R * 1.0 + Rt)
    # MC + finite-d fluctuations; spread checked against 5 sigma
    assert abs(mean - want) < 5.0 * np.std(vals) / np.sqrt(len(vals)) + 0.02


def test_loss_matches_direct_formula(rng):
    p = lsq.generate_gaussian(30, 20, 1.0, 1.0, seed=3)
    x = rng.standard_normal(20)
    assert lsq.loss(p, x) == pytest.approx(0.5 * np.sum((p.A @ x - p.b) ** 2))


def test_stochastic_grad_unbiasedness_identity():
    # the exported op is n-scaled: (1/n) sum_i grad_i == A^T(Ax - b)
    p = lsq.generate_gaussian(25, 10, 1.0, 1.0, seed=2)
    x = p.x0 + 0.1
    avg = np.mean([lsq.stochastic_grad(p, x, i) for i in range(p.n)], axis=0)
    assert np.allclose(avg, p.A.T @ (p.A @ x - p.b), atol=1e-10)
    # single-row problem: reduces to the plain full gradient
    q = lsq.generate_gaussian(1, 4, 1.0, 1.0, seed=3)
    z = q.x0 + 1.0
    assert np.allclose(lsq.stochastic_grad(q, z, 0), q.A.T @ (q.A @ z - q.b))
    # zero at interpolation
    xhat = np.linalg.lstsq(p.A, p.b, rcond=None)[0]
    r = lsq.LsqProblem(p.A, p.A @ xhat, None, p.x0, None, None, None)
    assert np.allclose(lsq.stochastic_grad(r, xhat, 5), 0.0, atol=1e-8)


def test_esm_matches_eigvalsh():
    p = lsq.generate_gaussian(30, 18, 1.0, 1.0, seed=5)
    eigs = np.linalg.eigvalsh(p.A @ p.A.T)
    mu = p.esm()
    # Gram eigenvalues: 18 positive, 12 zeros
    assert mu.zero_mass == pytest.approx(12 / 30)
    got = np.sort(mu.points)
    want = np.sort(eigs[eigs > 1e-10])
    assert np.allclose(got, want, rtol=1e-8)
    assert mu.weights.sum() + mu.zero_mass == pytest.approx(1.0)


def test_esm_trace_moment_near_one():
    p = lsq.generate_gaussian(300, 150, 1.0, 1.0, seed=11)
    # tr(A A^T)/n has mean 1 and O(1/sqrt(nd)) fluctuations
    assert p.esm().trace_moment() == pytest.approx(1.0, abs=0.05)


def test_to_spectral_loss_identity_generated(rng):
    p = lsq.generate_gaussian(35, 20, 1.0, 0.7, seed=9)
    sp = lsq.to_spectral(p)
    # at x0: nu = init_coords, plus the dropped-null-space convention
    direct = lsq.loss(p, p.x0)
    assert sp.loss(sp.init_coords) == pytest.approx(direct, rel=1e-10)
    # and at a couple of other centered points reachable in the row space
    for _ in range(3):
        nu = rng.standard_normal(35) * (sp.sigma > 0)
        x = p.x_tilde + np.linalg.pinv(p.A) @ (sp_sigma_expand(p, nu))
        assert sp.loss(nu) == pytest.approx(lsq.loss(p, x), rel=1e-8, abs=1e-10)


def sp_sigma_expand(p, nu):
    # map spectral coordinates back through A: A(x - x_tilde) = U Sigma nu
    U, s, Vt = p._svd_parts()
    k = min(p.n, p.d)
    out = U[:, :k] @ (s * nu[:k])
    return out


def test_to_spectral_loss_identity_data(tmp_path, rng):
    # data problems: absolute coordinates, exact even off the column space
    A = rng.standard_normal((12, 5))
    b = rng.standard_normal(12)
    path = tmp_path / "d.csv"
    np.savetxt(path, np.column_stack([A, b]), delimiter=",",
               header=",".join("c%d" % i for i in range(6)), comments="")
    p = lsq.load_csv(path, target_col="c5")
    sp = lsq.to_spectral(p)
    assert sp.loss(sp.init_coords) == pytest.approx(lsq.loss(p, p.x0), rel=1e-10)
    # the sigma=0 components carry the residual floor
    floor = 0.5 * np.sum(sp.noise_coords[sp.sigma == 0.0] ** 2)
    xhat = np.linalg.lstsq(p.A, p.b, rcond=None)[0]
    assert floor == pytest.approx(lsq.loss(p, xhat), rel=1e-8)


def test_load_csv_row_normalization(tmp_path, rng):
    A = rng.standard_normal((8, 3)) * 5.0
    b = rng.standard_normal(8)
    path = tmp_path / "x.csv"
    np.savetxt(path, np.column_stack([A, b]), delimiter=",",
               header="a,b,c,y", comments="")
    p = lsq.load_csv(path, target_col="y")
    norms = np.linalg.norm(p.A, axis=1)
    assert np.allclose(norms, 1.0)
    assert np.allclose(p.b, b)
    # m = tr(A A^T)/n = 1 exactly under unit rows
    assert p.esm().trace_moment() == pytest.approx(1.0, rel=1e-10)


def test_load_csv_target_by_index_and_separate_file(tmp_path, rng):
    A = rng.standard_normal((6, 2))
    b = np.arange(6.0)
    main = tmp_path / "m.csv"
    np.savetxt(main, np.column_stack([b, A]), delimiter=",")
    p = lsq.load_csv(main, target_col=0)
    assert np.allclose(p.b, b)
    assert p.A.shape == (6, 2)
    feat = tmp_path / "f.csv"
    tgt = tmp_path / "t.csv"
    np.savetxt(feat, A, delimiter=",")
    np.savetxt(tgt, b[:, None], delimiter=",")
    q = lsq.load_csv(feat, target_path=tgt)
    assert np.allclose(q.b, b)


def test_load_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        lsq.load_csv(path)  # no target designated
    with pytest.raises(ValueError):
        lsq.load_csv(path, target_col="missing")


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 40), d=st.integers(2, 40), seed=st.integers(0, 100))
def test_spectral_identity_property(n, d, seed):
    p = lsq.generate_gaussian(n, d, 1.0, 1.0, seed=seed)
    sp = lsq.to_spectral(p)
    assert sp.loss(sp.init_coords) == pytest.approx(
        lsq.loss(p, p.x0), rel=1e-8, abs=1e-12)

