"""Correlated two-walker steps on the plane and their curved-surface counterparts.

The package has three computing modules:

* :mod:`entwalk.walk` -- the sign-coupling law with mixing parameter
  ``p``, and the two-agent random walk built on it: analytic mean-square
  separation laws, Monte Carlo estimators and reproducible chunk-seeded
  ensembles.
* :mod:`entwalk.geometry` -- single geodesic steps on the unit sphere and
  the unit hyperboloid, both as an explicit frame-and-rotation
  construction and as one closed-form step-distance law.
* :mod:`entwalk.solver` -- angle-averaged squared step distance by
  nested tanh-sinh quadrature, residuals of the implicit curvature-radius
  equations, root finding, curve tracing and threshold extraction.

``entwalk.cli`` exposes the ``entwalk`` command with the ``msd``,
``simulate``, ``curve``, ``threshold`` and ``verify`` subcommands.  The
names imported below are the public API.
"""

from .geometry import DegenerateConfigurationError, GeometryKind
from .solver import (
    CurvatureCurve,
    CurvatureProblem,
    CurvePoint,
    QuadratureSpec,
    ThresholdReport,
    extract_thresholds,
    figure3_transform,
    mean_sq_step,
    residual,
    small_lambda_series,
    trace_curve,
)
from .walk import (
    EnsembleResult,
    Protocol,
    ProtocolSpec,
    expected_sq_separation,
    mc_sq_separation,
    outcome_probability,
    run_ensemble,
    weight,
)

__version__ = "0.1.0"
