"""Stochastic momentum methods on high-dimensional random least squares.

The package has three layers:

* problems and spectra — :mod:`movolt.lsq`, :mod:`movolt.spectrum`
* the discrete algorithms and their homogenized SDE — :mod:`movolt.momentum`
* the deterministic loss prediction and convergence analysis —
  :mod:`movolt.volterra`, :mod:`movolt.analysis`

The most common entry points are re-exported here.
"""

__version__ = "0.1.0"

from .errors import NumericalError
from .spectrum import SpectralMeasure, mp_measure, esm_from_eigenvalues
from .lsq import LsqProblem, generate_gaussian, load_csv, to_spectral
from .momentum import (AlgoParams, Trajectory, sgd, shb, sdahb, sdana,
                       defaults, run, run_ensemble, aggregate,
                       simulate_homogenized)
from .volterra import (VolterraSolution, predict, solve_convolution,
                       solve_general, build_forcing, build_convolution_kernel,
                       time_grid)
from .analysis import (AnalysisReport, kernel_norm, limiting_loss,
                       malthusian_exponent, rate_report, fit_poly_rate)

__all__ = [
    "NumericalError",
    "SpectralMeasure", "mp_measure", "esm_from_eigenvalues",
    "LsqProblem", "generate_gaussian", "load_csv", "to_spectral",
    "AlgoParams", "Trajectory", "sgd", "shb", "sdahb", "sdana", "defaults",
    "run", "run_ensemble", "aggregate", "simulate_homogenized",
    "VolterraSolution", "predict", "solve_convolution", "solve_general",
    "build_forcing", "build_convolution_kernel", "time_grid",
    "AnalysisReport", "kernel_norm", "limiting_loss", "malthusian_exponent",
    "rate_report", "fit_poly_rate",
    "__version__",
]
