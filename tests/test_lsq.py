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
    # re-draw x_tilde and eta from the documented stream layout
    n, d, R, R_tilde = 40, 30, 1.0, 0.5
    p = lsq.generate_gaussian(n, d, R, R_tilde, seed=1)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((n, d)) / np.sqrt(d)
    x_tilde = rng.standard_normal(d) / np.sqrt(d)
    x0 = x_tilde + rng.standard_normal(d) * np.sqrt(R / n)
    eta = rng.standard_normal(n) * np.sqrt(R_tilde / n)
    assert np.array_equal(p.A, A) and np.array_equal(p.x0, x0)
    assert np.array_equal(p.b, A @ x_tilde + eta)


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


@pytest.mark.parametrize("n, d", [(1, 6), (60, 20), (20, 60)])
def test_losses_is_loss_row_by_row(n, d, rng):
    # one GEMM against one GEMV per row: equal up to the order of the sums
    p = lsq.generate_gaussian(n, d, 1.0, 0.5, seed=3)
    X = p.x0 + rng.standard_normal((7, d))
    want = np.array([lsq.loss(p, x) for x in X])
    np.testing.assert_allclose(lsq.losses(p, X), want, rtol=1e-13, atol=0)
    assert lsq.losses(p, X[:1])[0] == pytest.approx(want[0], rel=1e-13)


def test_losses_exact_zero_residual():
    A = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]])
    x = np.array([1.0, -1.0])
    p = lsq.LsqProblem(A, A @ x, np.zeros(2))
    X = np.array([x, [0.0, 0.0], [2.0, 1.0]])
    got = lsq.losses(p, X)
    assert got[0] == lsq.loss(p, x) == 0.0
    np.testing.assert_allclose(got[1:], [lsq.loss(p, r) for r in X[1:]],
                               rtol=1e-13, atol=0)


def test_problem_refuses_mismatched_lengths():
    A = np.ones((3, 2))
    with pytest.raises(ValueError, match="b must have length n"):
        lsq.LsqProblem(A, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="x0 must have length d"):
        lsq.LsqProblem(A, np.zeros(3), np.zeros(3))


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


def half_sq(sp):
    """1/2 sum_j rho0_j^2 of a spectral view."""
    return 0.5 * np.sum(sp.resid ** 2)


def test_to_spectral_loss_identity_generated(rng):
    p = lsq.generate_gaussian(35, 20, 1.0, 0.7, seed=9)
    assert half_sq(lsq.to_spectral(p)) == pytest.approx(lsq.loss(p, p.x0),
                                                        rel=1e-10)
    # and at other starts: the same problem from other x0
    for _ in range(3):
        x = p.x0 + rng.standard_normal(20)
        q = lsq.LsqProblem(p.A, p.b, x)
        assert half_sq(lsq.to_spectral(q)) == pytest.approx(
            lsq.loss(p, x), rel=1e-8, abs=1e-10)


def _data_csv(path, A, b):
    np.savetxt(path, np.column_stack([A, b]), delimiter=",",
               header=",".join("c%d" % i for i in range(A.shape[1] + 1)),
               comments="")
    return lsq.load_csv(path, target_col="c%d" % A.shape[1])


def test_to_spectral_loss_identity_data(tmp_path, rng):
    # data problems: exact even off the column space
    p = _data_csv(tmp_path / "d.csv", rng.standard_normal((12, 5)),
                  rng.standard_normal(12))
    sp = lsq.to_spectral(p)
    assert half_sq(sp) == pytest.approx(lsq.loss(p, p.x0), rel=1e-10)
    # the lam=0 components carry the residual floor
    assert np.sum(sp.lam == 0.0) == 7
    floor = 0.5 * np.sum(sp.resid[sp.lam == 0.0] ** 2)
    xhat = np.linalg.lstsq(p.A, p.b, rcond=None)[0]
    assert floor == pytest.approx(lsq.loss(p, xhat), rel=1e-8)


@pytest.mark.parametrize("shape", [(20, 35), (30, 30), (35, 20), "data"])
def test_to_spectral_eigenvalues_are_the_esm_atoms(shape, tmp_path, rng):
    # the spectral view and the ESM fold the same numerical zeros: the
    # nonzero lam are the ESM's atoms, and the zeros its atom at 0
    if shape == "data":
        # a duplicated row makes A A^T singular at n < d
        A = rng.standard_normal((10, 16))
        A[1] = A[0]
        p = _data_csv(tmp_path / "dup.csv", A, rng.standard_normal(10))
    else:
        p = lsq.generate_gaussian(*shape, 1.0, 1.0, seed=4)
    sp = lsq.to_spectral(p)
    mu = p.esm()
    live = sp.lam[sp.lam > 0.0]
    assert set(live) == set(mu.points)
    assert np.all(sp.lam >= 0.0)
    assert np.sum(sp.lam == 0.0) / p.n == mu.zero_mass
    assert mu.zero_mass == (p.n - np.linalg.matrix_rank(p.A)) / p.n


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


def test_load_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        lsq.load_csv(path)  # no target designated
    with pytest.raises(ValueError):
        lsq.load_csv(path, target_col="missing")
    # each refusal of the reader and of the column split, by its message
    for text, target, why in [
            ("a,b,y\n1,2,3\n4,5\n", "y", "ragged row 3: 2 cells, expected 3"),
            ("a,b,y\n1,2,3\n4,x,6\n", "y", "non-numeric cell in row 3"),
            ("", "y", "empty file"),
            ("a,b,y\n", "y", "no data rows"),
            ("1,2\n3,4\n", 2, "target column 2 out of range"),
            ("1,2\n3,4\n", -3, "target column -3 out of range"),
            ("y\n1\n2\n", "y", "no feature columns left")]:
        path.write_text(text)
        with pytest.raises(ValueError, match=why):
            lsq.load_csv(path, target_col=target)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_refuses_non_finite_cells(tmp_path, cell):
    # float() reads these, but no design matrix holds them: the row is
    # named as for a non-numeric cell, counting the header
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n1,2,3\n4,%s,6\n" % cell)
    with pytest.raises(ValueError, match="non-finite cell in row 3"):
        lsq.load_csv(path, target_col="y")


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 40), d=st.integers(2, 40), seed=st.integers(0, 100))
def test_spectral_identity_property(n, d, seed):
    p = lsq.generate_gaussian(n, d, 1.0, 1.0, seed=seed)
    assert half_sq(lsq.to_spectral(p)) == pytest.approx(
        lsq.loss(p, p.x0), rel=1e-8, abs=1e-12)

