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

    def integrate(self, g, include_zero=True):
        """Integral of g(lambda) against the measure.

        g must accept a numpy array.  The atom at zero contributes
        zero_mass * g(0.0) unless include_zero is False.
        """
        total = float(np.dot(self.weights, np.asarray(g(self.points), dtype=float)))
        if include_zero and self.zero_mass > 0.0:
            total += self.zero_mass * float(g(np.asarray(0.0)))
        return total

    def trace_moment(self):
        """First moment m = integral of lambda d mu (equals tr(mu))."""
        return float(np.dot(self.weights, self.points))

    def support_edges(self):
        """(lam_minus, lam_plus) over the positive support."""
        if self.kind == MP_KIND:
            return mp_edges(self.r)
        return float(self.points.min()), float(self.points.max())

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


def mp_measure(r, nodes=DEFAULT_NODES):
    """Marchenko-Pastur measure for ratio r = d/n as a quadrature rule.

    The bulk density r*sqrt((lam-lam_minus)*(lam_plus-lam))/(2*pi*lam) on
    [lam_minus, lam_plus] is discretized with Chebyshev angles
    theta_k = (2k-1)*pi/(2N): nodes lam_k = c + w*cos(theta_k) and weights
    w_k = r * w^2 * sin^2(theta_k) / (2*N*lam_k), where c, w are the
    center and half-width of the bulk.  For r < 1 an atom of mass 1 - r
    sits at zero.  Raises if the node count cannot meet the mass budget.
    """
    if r <= 0:
        raise ValueError("aspect ratio r must be positive")
    if nodes < 8:
        raise ValueError("need at least 8 quadrature nodes")
    lam_minus, lam_plus = mp_edges(r)
    center = 0.5 * (lam_plus + lam_minus)
    half = 0.5 * (lam_plus - lam_minus)
    theta = (2.0 * np.arange(1, nodes + 1) - 1.0) * np.pi / (2.0 * nodes)
    lam = center + half * np.cos(theta)
    wts = r * half**2 * np.sin(theta) ** 2 / (2.0 * nodes * lam)
    zero_mass = max(1.0 - r, 0.0)
    bulk = min(r, 1.0)
    if abs(wts.sum() - bulk) > MASS_TOL:
        raise NumericalError(
            "quadrature mass error %.3e exceeds %g at %d nodes; "
            "increase nodes (ratio r=%g puts an integrand pole near the bulk)"
            % (abs(wts.sum() - bulk), MASS_TOL, nodes, r)
        )
    return SpectralMeasure(MP_KIND, lam, wts, zero_mass, r=float(r), nodes=int(nodes))


def esm_from_eigenvalues(eigenvalues):
    """Empirical spectral measure of a list of eigenvalues.

    Eigenvalues below 1e-10 * max(eigenvalues) are folded into the atom at
    zero.  Exact repeats merge into a single weighted atom.
    """
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ValueError("need a nonempty 1-d array of eigenvalues")
    if np.any(eigs < 0):
        # tiny negative values are numerical noise from symmetric solvers
        if np.any(eigs < -ZERO_FOLD_RTOL * max(eigs.max(), 1.0)):
            raise ValueError("eigenvalues must be nonnegative")
        eigs = np.clip(eigs, 0.0, None)
    n = eigs.size
    top = eigs.max()
    cut = ZERO_FOLD_RTOL * top if top > 0 else 0.0
    positive = eigs[eigs > cut]
    zero_mass = (n - positive.size) / n
    vals, counts = np.unique(positive, return_counts=True)
    return SpectralMeasure(DISCRETE_KIND, vals, counts / n, zero_mass)

