"""Spectral measures for the Hessian H = A A^T of random least squares.

Two kinds of measure are supported: the Marchenko-Pastur law with aspect
ratio r = d/n, represented by a Gauss-Chebyshev quadrature rule on its
bulk, and discrete (empirical) measures made of point atoms.  Both carry
an explicit mass at zero, since H is rank deficient whenever d < n.
"""

import json

import numpy as np

from .errors import NumericalError

MP_KIND = "marchenko_pastur"
DISCRETE_KIND = "discrete"

# Relative threshold below which an eigenvalue is folded into the atom at zero.
ZERO_FOLD_RTOL = 1e-10
# Tolerance on total mass for any constructible measure.
MASS_TOL = 1e-8

DEFAULT_NODES = 200
# the node counts a rule is chosen from where none is given: 50 * 2^k
NODE_LADDER = (50, 100, 200, 400, 800, 1600)
# Smallest aspect ratio whose squared upper MP edge, about 1/r^2 (kernels
# and Laplace transforms square the nodes), fits in double range with margin.
MIN_RATIO = 4.0 / np.sqrt(np.finfo(float).max)


def mp_edges(r):
    """Bulk edges (lam_minus, lam_plus) of the MP law with ratio r = d/n."""
    s = np.sqrt(1.0 / r)
    return (1.0 - s) ** 2, (1.0 + s) ** 2


class SpectralMeasure:
    """A probability measure on [0, inf) built from atoms and/or an MP bulk.

    Attributes
    ----------
    kind : "marchenko_pastur" or "discrete"
    zero_mass : mass of the atom at lambda = 0
    points, weights : positive support points and their masses (quadrature
        nodes for the MP bulk, literal atoms for discrete measures)
    r : aspect ratio d/n (MP only)
    nodes : quadrature node count (MP only)
    """

    def __init__(self, kind, points, weights, zero_mass, r=None, nodes=None):
        self.kind = kind
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.zero_mass = float(zero_mass)
        self.r = r
        self.nodes = nodes
        self._validate()

    def _validate(self):
        if self.kind not in (MP_KIND, DISCRETE_KIND):
            raise ValueError("unknown measure kind %r" % (self.kind,))
        if self.points.ndim != 1 or self.points.shape != self.weights.shape:
            raise ValueError("points and weights must be matching 1-d arrays")
        if np.any(self.points <= 0):
            raise ValueError("support points must be strictly positive")
        if np.any(self.weights < 0) or self.zero_mass < 0:
            raise ValueError("weights must be nonnegative")
        mass = self.zero_mass + self.weights.sum()
        if abs(mass - 1.0) > MASS_TOL:
            raise NumericalError(
                "total mass %.3e deviates from 1 by more than %g; "
                "for MP measures increase the node count" % (mass, MASS_TOL)
            )

    # -- integration -------------------------------------------------

    def integrate(self, g):
        """Integral of g(lambda) against the measure.

        g must accept a numpy array.  The atom at zero contributes
        zero_mass * g(0.0).
        """
        total = float(np.dot(self.weights, np.asarray(g(self.points), dtype=float)))
        if self.zero_mass > 0.0:
            total += self.zero_mass * float(g(np.asarray(0.0)))
        return total

    def trace_moment(self):
        """First moment m = integral of lambda d mu (equals tr(mu))."""
        return float(np.dot(self.weights, self.points))

    def support_edges(self):
        """(lam_minus, lam_plus) over the positive support: the MP bulk, or
        the atoms of positive weight; (0, 0) when all the mass is at 0."""
        if self.kind == MP_KIND:
            return mp_edges(self.r)
        pos = self.points[self.weights > 0]
        if pos.size == 0:
            return 0.0, 0.0
        return float(pos.min()), float(pos.max())

    # -- serialization -----------------------------------------------

    def to_json(self):
        if self.kind == MP_KIND:
            obj = {"kind": self.kind, "r": self.r, "zero_mass": self.zero_mass,
                   "nodes": self.nodes}
        else:
            obj = {"kind": self.kind, "zero_mass": self.zero_mass,
                   "atoms": [[float(p), float(w)]
                             for p, w in zip(self.points, self.weights)]}
        return json.dumps(obj)

    @staticmethod
    def from_json(text):
        obj = json.loads(text)
        kind = obj["kind"]
        if kind == MP_KIND:
            return mp_measure(obj["r"], nodes=obj.get("nodes") or DEFAULT_NODES)
        pts = [a[0] for a in obj["atoms"]]
        wts = [a[1] for a in obj["atoms"]]
        return SpectralMeasure(DISCRETE_KIND, pts, wts, obj.get("zero_mass", 0.0))


def mp_rule(r, nodes):
    """Nodes and weights of the MP bulk's Gauss-Chebyshev rule of the
    given size, as mp_measure takes them, with no mass check."""
    center = 1.0 + 1.0 / r
    half = 2.0 * np.sqrt(1.0 / r)
    theta = (2.0 * np.arange(1, nodes + 1) - 1.0) * np.pi / (2.0 * nodes)
    lam = center + half * np.cos(theta)
    return lam, r * half**2 * np.sin(theta) ** 2 / (2.0 * nodes * lam)


def mp_measure(r, nodes=None):
    """Marchenko-Pastur measure for ratio r = d/n as a quadrature rule.

    The bulk density r*sqrt((lam-lam_minus)*(lam_plus-lam))/(2*pi*lam) on
    [lam_minus, lam_plus] is discretized with Chebyshev angles
    theta_k = (2k-1)*pi/(2N): nodes lam_k = c + w*cos(theta_k) and weights
    w_k = r * w^2 * sin^2(theta_k) / (2*N*lam_k), where c = 1 + s^2 and
    w = 2s (s = r^(-1/2)) are the center and half-width of the bulk, taken
    from s rather than from the rounded edges.  For r < 1 an atom of mass
    1 - r sits at zero.  Without a node count, N is DEFAULT_NODES or the
    first rung of NODE_LADDER above it whose rule meets the mass budget
    (a pole of the weights sits near the bulk where r is near 1).  Raises
    if the node count, or the last rung, cannot meet the budget.
    """
    if not (np.isfinite(r) and r >= MIN_RATIO):
        raise ValueError("aspect ratio r (--r) must be finite and at least "
                         "%.3g, where the squared MP edge is a finite double,"
                         " got %r" % (MIN_RATIO, r))
    if nodes is not None and nodes < 8:
        raise ValueError("need at least 8 quadrature nodes")
    rungs = ([nodes] if nodes is not None
             else [k for k in NODE_LADDER if k >= DEFAULT_NODES])
    zero_mass = max(1.0 - r, 0.0)
    bulk = min(r, 1.0)
    for nodes in rungs:
        lam, wts = mp_rule(r, nodes)
        miss = abs(wts.sum() - bulk)
        if not miss > MASS_TOL:
            return SpectralMeasure(MP_KIND, lam, wts, zero_mass, r=float(r),
                                   nodes=int(nodes))
    raise NumericalError(
        "quadrature mass error %.3e exceeds %g at %d nodes; "
        "increase nodes (ratio r=%g puts an integrand pole near the bulk)"
        % (miss, MASS_TOL, nodes, r)
    )


def fold_zeros(eigenvalues):
    """Eigenvalues of a positive semidefinite matrix with its numerical
    zeros set to exactly 0: values at or below 1e-10 * max(eigenvalues),
    the tiny negatives of symmetric solvers included, fold to 0.  A
    negative value beyond that tolerance raises ValueError."""
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ValueError("need a nonempty 1-d array of eigenvalues")
    top = eigs.max()
    if np.any(eigs < -ZERO_FOLD_RTOL * max(top, 1.0)):
        raise ValueError("eigenvalues must be nonnegative")
    return np.where(eigs > ZERO_FOLD_RTOL * max(top, 0.0), eigs, 0.0)


def esm_from_eigenvalues(eigenvalues):
    """Empirical spectral measure of a list of eigenvalues.

    Numerical zeros (fold_zeros) go to the atom at zero.  Exact repeats
    merge into a single weighted atom.
    """
    eigs = fold_zeros(eigenvalues)
    # sorted and merged by hand: np.unique imports numpy.ma, which adds
    # about 1 MB to a process's peak RSS
    positive = np.sort(eigs[eigs > 0.0])
    starts = np.flatnonzero(np.diff(positive, prepend=0.0) > 0.0)
    vals = positive[starts]
    counts = np.diff(starts, append=positive.size)
    return SpectralMeasure(DISCRETE_KIND, vals, counts / eigs.size,
                           (eigs.size - positive.size) / eigs.size)
