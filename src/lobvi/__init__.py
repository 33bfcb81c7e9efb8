"""Sixth-order variational integrators built on 4-point Lobatto quadrature.

The harmonic oscillator steps through an exactly symplectic closed-form
2x2 update with a conserved discrete energy; the nonlinear pendulum steps
through a Newton solve of the discrete stationarity equations.  Exact
references (trigonometric and Jacobi-elliptic), an implicit-midpoint
baseline, error/convergence/drift analysis, and a CSV experiment CLI
round out the package.  Each name is imported from the module that defines
it: quadrature, mechanics, harmonic, pendulum, midpoint, exact, analysis,
compensated or cli.
"""

__version__ = "0.1.0"
