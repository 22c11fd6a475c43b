"""Random least-squares problems f(x) = 1/2 ||Ax - b||^2 with b = A x_tilde + eta.

Gaussian generation follows the scaling A_ij ~ N(0, 1/d), x0 - x_tilde ~
N(0, (R/n) I_d) and eta ~ N(0, (R_tilde/n) I_n), so that E||x0-x_tilde||^2
= R d/n, E||eta||^2 = R_tilde, and the expected initial loss is
(R*m + R_tilde)/2 with m the normalized trace of H = A A^T.
"""

import csv as _csv
import math

import numpy as np

from .spectrum import esm_from_eigenvalues, fold_zeros

DIVERGENCE_THRESHOLD = 1e12


class LsqProblem:
    """One realized least-squares instance.

    Immutable after construction; loss is a pure function of (self, x),
    so concurrent reads are safe.
    """

    def __init__(self, A, b, x0):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.n, self.d = self.A.shape
        self.x0 = np.asarray(x0, dtype=float)
        self._gram = None
        if self.b.shape != (self.n,):
            raise ValueError("b must have length n")
        if self.x0.shape != (self.d,):
            raise ValueError("x0 must have length d")

    def esm(self):
        """Empirical spectral measure of H = A A^T (its n eigenvalues)."""
        return esm_from_eigenvalues(self._gram_eigh()[0])

    def _gram_eigh(self):
        if self._gram is None:
            # cached: both the ESM and the spectral view need it
            self._gram = np.linalg.eigh(self.A @ self.A.T)
        return self._gram


def generate_gaussian(n, d, R, R_tilde, seed):
    """Draw a Gaussian problem.  Stream layout (fixed order, one generator):

    1. matrix: A entries, row-major, N(0, 1/d)
    2. signal: x_tilde ~ N(0, I_d/d), then the start offset
       x0 - x_tilde ~ N(0, (R/n) I_d)
    3. noise: eta ~ N(0, (R_tilde/n) I_n)

    Identical seeds give bitwise-identical problems.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    check_scales(R, R_tilde)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    A /= np.sqrt(d)
    x_tilde = rng.standard_normal(d) / np.sqrt(d)
    x0 = x_tilde + rng.standard_normal(d) * np.sqrt(R / n)
    eta = rng.standard_normal(n) * np.sqrt(R_tilde / n)
    return LsqProblem(A, A @ x_tilde + eta, x0)


def check_scales(R, R_tilde):
    """Raise ValueError unless R and R_tilde are finite and nonnegative."""
    for what, val in (("initialization scale R (--R)", R),
                      ("noise scale R_tilde (--Rtilde)", R_tilde)):
        if not (math.isfinite(val) and val >= 0.0):
            raise ValueError("%s must be finite and nonnegative, got %r"
                             % (what, val))


def loss(problem, x):
    """f(x) = 1/2 ||Ax - b||^2."""
    res = problem.A @ x - problem.b
    return 0.5 * float(res @ res)


def losses(problem, X):
    """f at each row of X (shape (m, d)), from one GEMM X A^T: A is read
    once for all m points, where m calls of loss read it m times.  The
    sums are a GEMM's, so a value can differ from loss's in its last bits.
    """
    res = X @ problem.A.T
    res -= problem.b
    return 0.5 * np.einsum("ij,ij->i", res, res)


class SpectralProblem:
    """A problem as its loss dynamics see it, in the eigenbasis u_j of
    H = A A^T: the n eigenvalues lam_j (numerical zeros folded to exactly
    0 by spectrum.fold_zeros, as in the ESM) and the initial residual's
    coordinates resid_j = u_j^T (A x0 - b).  The realized start
    f0 = 1/2 sum_j resid_j^2 is the loss at x0, computed once so that
    every consumer starts from the same float.
    """

    def __init__(self, lam, resid, n):
        self.lam = np.asarray(lam, dtype=float)
        self.resid = np.asarray(resid, dtype=float)
        self.n = n
        self.f0 = 0.5 * float(self.resid @ self.resid)


def to_spectral(problem):
    """Spectral view of a problem from the eigendecomposition
    H = U diag(lam) U^T: f(x) = 1/2 sum_j (u_j^T (A x - b))^2 at every x,
    and the view keeps these coordinates at x0, resid = U^T (A x0 - b).
    Components of b outside the column space of A sit at lam = 0 and carry
    the least-squares floor.
    """
    lam, U = problem._gram_eigh()
    resid = U.T @ (problem.A @ problem.x0 - problem.b)
    return SpectralProblem(fold_zeros(lam), resid, problem.n)


def load_csv(path, target_col=None):
    """Load a numeric CSV into an LsqProblem.

    The target b is the designated column (index or header name); the
    other columns form A, each row scaled to unit Euclidean norm (rows of
    zeros are left alone).  x0 is the origin.
    """
    data, header = _read_numeric_csv(path)
    if target_col is None:
        raise ValueError("designate a target column (--target-col)")
    idx = _resolve_column(target_col, header, data.shape[1])
    b = data[:, idx]
    A = np.delete(data, idx, axis=1)
    if A.shape[1] == 0:
        raise ValueError("no feature columns left")
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0.0] = 1.0
    A = A / norms[:, None]
    return LsqProblem(A, b, np.zeros(A.shape[1]))


def _read_numeric_csv(path):
    with open(path, newline="") as fh:
        rdr = _csv.reader(fh)
        raw = [r for r in rdr if r]
    if not raw:
        raise ValueError("empty file: %s" % path)
    header = None
    start = 0
    try:
        [float(c) for c in raw[0]]
    except ValueError:
        header = [c.strip() for c in raw[0]]
        start = 1
        if start == len(raw):
            raise ValueError("no data rows in %s" % path)
    width = len(raw[start])
    out = np.empty((len(raw) - start, width))
    for i, r in enumerate(raw[start:]):
        if len(r) != width:
            raise ValueError("ragged row %d: %d cells, expected %d"
                             % (i + start + 1, len(r), width))
        try:
            out[i] = [float(c) for c in r]
        except ValueError as exc:
            raise ValueError("non-numeric cell in row %d" % (i + start + 1)) from exc
    return out, header


def _resolve_column(target_col, header, width):
    if isinstance(target_col, str) and not target_col.lstrip("-").isdigit():
        if header is None or target_col not in header:
            raise ValueError("no column named %r" % target_col)
        return header.index(target_col)
    idx = int(target_col)
    if idx < 0:
        idx += width
    if not 0 <= idx < width:
        raise ValueError("target column %s out of range" % target_col)
    return idx
