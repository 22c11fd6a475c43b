"""Random least-squares problems f(x) = 1/2 ||Ax - b||^2 with b = A x_tilde + eta.

Gaussian generation follows the scaling A_ij ~ N(0, 1/d), x0 - x_tilde ~
N(0, (R/n) I_d) and eta ~ N(0, (R_tilde/n) I_n), so that E||x0-x_tilde||^2
= R d/n, E||eta||^2 = R_tilde, and the expected initial loss is
(R*m + R_tilde)/2 with m the normalized trace of H = A A^T.
"""

import csv as _csv

import numpy as np

from .spectrum import esm_from_eigenvalues

DIVERGENCE_THRESHOLD = 1e12


class LsqProblem:
    """One realized least-squares instance.

    Immutable after construction; loss/grad are pure functions of (self, x),
    so concurrent reads are safe.  R/R_tilde may be None for data-loaded
    problems (analysis then falls back to the empirical f(x0)).
    """

    def __init__(self, A, b, x_tilde, x0, eta, R, R_tilde, seed=None):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.n, self.d = self.A.shape
        self.x_tilde = None if x_tilde is None else np.asarray(x_tilde, dtype=float)
        self.x0 = np.asarray(x0, dtype=float)
        self.eta = None if eta is None else np.asarray(eta, dtype=float)
        self.R = R
        self.R_tilde = R_tilde
        self.seed = seed
        self._svd = None
        if self.b.shape != (self.n,):
            raise ValueError("b must have length n")
        if self.x0.shape != (self.d,):
            raise ValueError("x0 must have length d")

    def esm(self):
        """Empirical spectral measure of H = A A^T (n eigenvalues sigma_j^2)."""
        sigma = self._svd_parts()[1]
        eigs = np.zeros(self.n)
        k = min(self.n, self.d)
        eigs[:k] = sigma[:k] ** 2
        return esm_from_eigenvalues(eigs)

    def _svd_parts(self):
        if self._svd is None:
            # computed once and cached; both the spectral view and the
            # ESM need it
            self._svd = np.linalg.svd(self.A, full_matrices=True)
        return self._svd


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
    if R < 0 or R_tilde < 0:
        raise ValueError("R and R_tilde must be nonnegative")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d)) / np.sqrt(d)
    x_tilde = rng.standard_normal(d) / np.sqrt(d)
    x0 = x_tilde + rng.standard_normal(d) * np.sqrt(R / n)
    eta = rng.standard_normal(n) * np.sqrt(R_tilde / n)
    b = A @ x_tilde + eta
    return LsqProblem(A, b, x_tilde, x0, eta, R, R_tilde, seed=seed)


def loss(problem, x):
    """f(x) = 1/2 ||Ax - b||^2."""
    res = problem.A @ x - problem.b
    return 0.5 * float(res @ res)


def stochastic_grad(problem, x, i):
    """n-scaled per-sample gradient n*(a_i.x - b_i)*a_i^T.

    The scaling makes (1/n) * sum_i stochastic_grad(..., i) equal the full
    gradient A^T(Ax - b) exactly.
    """
    row = problem.A[i]
    return problem.n * (row @ x - problem.b[i]) * row


class SpectralProblem:
    """The problem rotated into singular-value coordinates.

    Arrays are aligned to length n: sigma holds the min(n, d) singular
    values of A padded with zeros; noise_coords = U^T eta; init_coords
    holds (V^T (x0 - x_tilde))_j for j <= min(n, d) and zeros elsewhere.
    Null-space components of x0 - x_tilde (d > n) never enter the loss and
    are dropped.
    """

    def __init__(self, sigma, noise_coords, init_coords, n, d):
        self.sigma = np.asarray(sigma, dtype=float)
        self.noise_coords = np.asarray(noise_coords, dtype=float)
        self.init_coords = np.asarray(init_coords, dtype=float)
        self.n = n
        self.d = d

    def loss(self, nu):
        r = self.sigma * nu - self.noise_coords
        return 0.5 * float(r @ r)


def to_spectral(problem):
    """SVD view of a problem: loss(x) = 1/2 sum_j (sigma_j nu_j - etahat_j)^2.

    Generated problems use the centered coordinates nu = V^T (x - x_tilde)
    and etahat = U^T eta.  Data problems (no planted signal) use the
    absolute coordinates nu = V^T x and etahat = U^T b, which makes the
    identity exact too: components of b outside the column space of A sit
    at sigma = 0 and contribute their constant floor.
    """
    U, s, Vt = problem._svd_parts()
    n, d = problem.n, problem.d
    k = min(n, d)
    sigma = np.zeros(n)
    sigma[:k] = s
    init = np.zeros(n)
    if problem.x_tilde is None or problem.eta is None:
        noise = U.T @ problem.b
        init[:k] = (Vt @ problem.x0)[:k]
    else:
        noise = U.T @ problem.eta
        init[:k] = (Vt @ (problem.x0 - problem.x_tilde))[:k]
    return SpectralProblem(sigma, noise, init, n, d)


def load_csv(path, target_col=None, target_path=None, normalize=True):
    """Load a numeric CSV into an LsqProblem.

    The target b comes either from a designated column (index or header
    name) of the same file or from a separate single-column file.  When
    normalize is set every row of A is scaled to unit Euclidean norm
    (rows of zeros are left alone).  R/R_tilde are unknown (None) and x0
    is the origin.
    """
    rows, header = _read_numeric_csv(path)
    data = rows
    if target_col is not None:
        idx = _resolve_column(target_col, header, data.shape[1])
        b = data[:, idx]
        A = np.delete(data, idx, axis=1)
    elif target_path is not None:
        tgt, _ = _read_numeric_csv(target_path)
        if tgt.shape[1] != 1:
            raise ValueError("target file must have exactly one column")
        if tgt.shape[0] != data.shape[0]:
            raise ValueError("target length does not match row count")
        b = tgt[:, 0]
        A = data
    else:
        raise ValueError("designate a target column or a target file")
    if A.shape[1] == 0:
        raise ValueError("no feature columns left")
    if normalize:
        norms = np.linalg.norm(A, axis=1)
        norms[norms == 0.0] = 1.0
        A = A / norms[:, None]
    d = A.shape[1]
    return LsqProblem(A, b, None, np.zeros(d), None, None, None)


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
