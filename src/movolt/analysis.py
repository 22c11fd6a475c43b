"""Closed-form convergence analysis of the momentum kernels.

Everything here works on the continuous-time parameters (gamma1, gamma2,
theta) of the kernel and a spectral measure: the kernel mass ||I|| (whose
position relative to 1 decides convergence), the limiting loss plateau,
the Malthusian exponent lambda* solving int e^{x tau} I(tau) dtau = 1
(the linear convergence rate when it exists), closed lower/upper rate
bounds, and the polynomial decay exponents at a hard spectral edge.
"""

import json
from typing import Callable, NamedTuple

import numpy as np

from .spectrum import MP_KIND

BISECTION_ITERS = 200
ROOT_TOL = 1e-10
# smallest positive eigenvalue at or below this counts as a hard edge
EDGE_ATOM_TOL = 1e-12


def positive_edges(measure):
    """(lambda_min, lambda_max) of the positive part of the support."""
    lo, hi = measure.support_edges()
    if measure.kind == MP_KIND:
        return lo, hi
    pos = measure.points[measure.weights > 0]
    return (float(pos.min()) if pos.size else 0.0,
            float(pos.max()) if pos.size else 0.0)


# ----------------------------------------------------------------------
# Closed forms per kernel family, in the continuous parameters
# (gamma1, gamma2, theta)
# ----------------------------------------------------------------------

def _laplace_sgd(x, gamma1, gamma2, theta, measure):
    lam = measure.points
    den = 2.0 * gamma2 * lam - x
    if np.any(den <= 0.0):
        return np.inf
    return float(np.sum(measure.weights * gamma2**2 * lam**2 / den))


def _laplace_heavy_ball(x, gamma1, gamma2, theta, measure):
    lam = measure.points
    first = theta - x
    second = x**2 - 2.0 * theta * x + 4.0 * gamma1 * lam
    if first <= 0.0 or np.any(second <= 0.0):
        return np.inf
    return float(np.sum(measure.weights * 2.0 * gamma1**2 * lam**2
                        / (first * second)))


def _laplace_sdana(x, gamma1, gamma2, theta, measure):
    lam = measure.points
    shifted = gamma2 * lam - x
    omega = 4.0 * gamma1 - gamma2**2 * lam
    quad = shifted**2 + lam * omega
    if np.any(shifted <= 0.0) or np.any(quad <= 0.0):
        return np.inf
    num = (gamma2**2 * shifted**2 + gamma2 * (omega - 2.0 * gamma1) * shifted
           + 2.0 * gamma1**2)
    return float(np.sum(measure.weights * lam**2 * num / (quad * shifted)))


def _sdana_rate(g1, g2, theta, lam):
    if 4.0 * g1 - g2**2 * lam >= 0.0:
        return g2 * lam
    return g2 * lam - np.sqrt(g2**2 * lam**2 - 4.0 * g1 * lam)


def _gd_upper_bound(lam, m):
    return 4.0 * lam / m


class Family(NamedTuple):
    """The closed forms of one kernel family.  norm and laplace take
    (g1, g2, theta, measure) after the tilt x; the rates and the lower
    bound (g1, g2, theta, lam_min); the upper bound (lam_min, m)."""

    norm: Callable            # ||I|| = int_0^inf I(tau) dtau
    laplace: Callable         # F(x) = int e^{x tau} I(tau) dtau
    forcing_rate: Callable    # decay of the slowest forcing mode
    lower_bound: Callable
    upper_bound: Callable
    poly_exponents: tuple     # hard-edge (loss, distance) decay exponents
    cap: Callable = None      # top of the Malthusian root search, if not
                              # the forcing rate


SGD = Family(
    norm=lambda g1, g2, theta, mu: 0.5 * g2 * mu.trace_moment(),
    laplace=_laplace_sgd,
    forcing_rate=lambda g1, g2, theta, lam: 2.0 * g2 * lam,
    lower_bound=lambda g1, g2, theta, lam: g2 * lam,
    upper_bound=_gd_upper_bound, poly_exponents=(-1.5, -0.5))

HEAVY_BALL = Family(
    norm=lambda g1, g2, theta, mu: g1 * mu.trace_moment() / (2.0 * theta),
    laplace=_laplace_heavy_ball,
    forcing_rate=lambda g1, g2, theta, lam: (
        theta - np.sqrt(max(theta**2 - 4.0 * g1 * lam, 0.0))),
    lower_bound=lambda g1, g2, theta, lam: (
        g1 * lam * theta / (2.0 * g1 * lam + theta**2)),
    upper_bound=_gd_upper_bound, poly_exponents=(-1.5, -0.5))

SDANA = Family(
    norm=lambda g1, g2, theta, mu: (g1 * (1.0 - mu.zero_mass) / (2.0 * g2)
                                    + 0.5 * g2 * mu.trace_moment()),
    laplace=_laplace_sdana, forcing_rate=_sdana_rate,
    cap=lambda g1, g2, theta, lam: g2 * lam,
    lower_bound=lambda g1, g2, theta, lam: (
        3.0 * g1 * g2 * lam / (2.0 * g2**2 * lam + 4.0 * g1)),
    upper_bound=lambda lam, m: min(lam / m, 0.5), poly_exponents=(-3.0, -1.0))


def _closed_form(params, n):
    """(family, gamma1, gamma2, theta) of params; SHB needs n.  Raises for
    a record without a continuous form (custom), hence without a family."""
    g1, g2, sched = params.continuous(n)
    return params.algo.family, g1, g2, sched.theta


# ----------------------------------------------------------------------
# Analysis of (algorithm, measure)
# ----------------------------------------------------------------------

def kernel_norm(params, measure):
    """||I|| = int_0^inf I(tau) dtau in closed form.  SHB's n-scalings
    cancel in it (gamma*m/(2 theta) either way), so it is read at n = 1."""
    fam, g1, g2, theta = _closed_form(params, 1)
    return fam.norm(g1, g2, theta, measure)


def limiting_loss(norm, zero_mass, R_tilde):
    """Plateau value R_tilde * mu({0}) / (2 (1 - ||I||)); needs ||I|| < 1."""
    if norm >= 1.0:
        raise ValueError("kernel norm %.4f >= 1: not convergent" % norm)
    return R_tilde * zero_mass / (2.0 * (1.0 - norm))


def laplace_transform(params, measure, x, n=None):
    """Tilted kernel mass F(x) = int e^{x tau} I(tau) dtau; +inf once x
    crosses a decay rate of the kernel.  F(0) = ||I||."""
    fam, g1, g2, theta = _closed_form(params, n)
    return fam.laplace(x, g1, g2, theta, measure)


def malthusian_exponent(params, measure, n=None):
    """Root lambda* of F(x) = 1 on (0, cap), or None when absent.

    Absence is a value, not an error: when F stays below 1 up to the cap
    the convergence rate is dominated by the forcing decay instead.
    """
    value, _ = _malthusian(params, measure, n)
    return value


def _malthusian(params, measure, n=None):
    lam_min, _ = positive_edges(measure)
    if lam_min <= 0.0:
        return None, "absent: spectrum touches zero (no exponential regime)"
    fam, g1, g2, theta = _closed_form(params, n)
    cap = (fam.cap or fam.forcing_rate)(g1, g2, theta, lam_min)
    if cap <= 0.0:
        return None, "absent: kernel decay cap is zero"
    F = lambda x: fam.laplace(x, g1, g2, theta, measure)
    f0 = F(0.0)
    if f0 >= 1.0:
        return None, "absent: kernel norm %.4f >= 1 (not convergent)" % f0
    hi = cap * (1.0 - 1e-12)
    fhi = F(hi)
    if fhi < 1.0:
        return None, ("absent: F(cap)=%.4f < 1, forcing-dominated regime"
                      % fhi)
    lo = 0.0
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if F(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return float(root), "root residual %.3g" % abs(F(root) - 1.0)


def forcing_rate(params, measure, n=None):
    """Exponential decay rate of the slowest forcing component (the mode at
    the smallest positive eigenvalue)."""
    fam, g1, g2, theta = _closed_form(params, n)
    return fam.forcing_rate(g1, g2, theta, positive_edges(measure)[0])


def effective_rate(params, measure, n=None):
    """The exponential loss decay rate: lambda* when it exists, otherwise
    the forcing rate (the two regimes of the renewal analysis)."""
    value, _ = _malthusian(params, measure, n)
    if value is not None:
        return value
    return forcing_rate(params, measure, n=n)


def rate_lower_bound(params, measure, n=None):
    """Closed lower bound on the convergence rate (gap regime)."""
    fam, g1, g2, theta = _closed_form(params, n)
    return fam.lower_bound(g1, g2, theta, positive_edges(measure)[0])


def rate_upper_bound(params, measure, n=None):
    """Closed upper bound on the convergence rate; free of n, like the norm."""
    fam = _closed_form(params, 1)[0]
    lam_min, _ = positive_edges(measure)
    return fam.upper_bound(lam_min, measure.trace_moment())


def classify(measure):
    """'hard_edge' when the positive support reaches 0 (lambda_min within
    EDGE_ATOM_TOL; MP at r=1), else 'strongly_convex' (positive spectral
    gap, possibly plus a zero atom)."""
    lam_min, _ = positive_edges(measure)
    return "strongly_convex" if lam_min > EDGE_ATOM_TOL else "hard_edge"


class AnalysisReport:
    """JSON-serializable convergence summary for (algorithm, measure)."""

    FIELDS = ("algo", "params", "m", "p", "lam_min", "lam_max", "kernel_norm",
              "convergent", "limiting_loss", "malthusian", "malthusian_note",
              "effective_rate", "rate_lower_bound", "rate_upper_bound",
              "predicted_poly_exponents", "classification", "R_tilde")

    def __init__(self, **kw):
        for f in self.FIELDS:
            setattr(self, f, kw.pop(f, None))
        if kw:
            raise TypeError("unknown report fields %r" % sorted(kw))

    def to_dict(self):
        return {f: getattr(self, f) for f in self.FIELDS}

    def to_json(self, indent=1):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def rate_report(params, measure, R_tilde=1.0, n=None):
    """Full convergence report: norm, threshold, plateau, rates, exponents."""
    m = measure.trace_moment()
    lam_min, lam_max = positive_edges(measure)
    norm = kernel_norm(params, measure)
    convergent = bool(norm < 1.0)
    limit = limiting_loss(norm, measure.zero_mass, R_tilde) if convergent else None
    malthusian, note = _malthusian(params, measure, n)
    kind = classify(measure)
    if kind == "hard_edge" and measure.kind == MP_KIND:
        exponents = params.algo.family.poly_exponents
    else:
        exponents = None
    eff = malthusian if malthusian is not None else (
        forcing_rate(params, measure, n=n) if lam_min > 0 else 0.0)
    return AnalysisReport(
        algo=params.name, params=params.describe(), m=m, p=measure.zero_mass,
        lam_min=lam_min, lam_max=lam_max, kernel_norm=norm,
        convergent=convergent, limiting_loss=limit, malthusian=malthusian,
        malthusian_note=note, effective_rate=eff,
        rate_lower_bound=rate_lower_bound(params, measure, n=n),
        rate_upper_bound=rate_upper_bound(params, measure, n=n),
        predicted_poly_exponents=exponents, classification=kind,
        R_tilde=R_tilde)


def fit_poly_rate(times, values, t_window):
    """Least-squares slope of log(value) vs log(t) inside t_window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = t_window
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 2:
        raise ValueError("need at least two samples inside the window")
    t, v = times[mask], values[mask]
    if np.any(v <= 0.0) or np.any(t <= 0.0):
        raise ValueError("log-log fit needs positive times and values")
    return float(np.polyfit(np.log(t), np.log(v), 1)[0])
