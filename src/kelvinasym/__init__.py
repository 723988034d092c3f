"""Exact and numerical tools for Kelvin-type asymptotics of fully nonlinear
Hessian equations in exterior domains.

Subpackages
-----------
exactalg
    Sparse rational polynomials and radical (|y|-power) extensions, with an
    exact solver for the radial-weight Poisson equation.
symfun
    Elementary symmetric functions, their deleted/shifted variants, and exact
    verification of the determinant identities used by the linearization.
kelvin
    Phase branches, the modified Kelvin frame, and the transformed Hessian.
equations
    Algebraic residual forms of the equations and their exact linear parts.
expand
    Asymptotic expansion corrections and least-squares recovery of the
    expansion from samples.
radial
    Exterior radial ODE integration (RK4 in log r with a step-doubling
    error estimate).
cli
    Command-line entry points.
"""

__version__ = "0.1.0"

__all__ = [
    "exactalg",
    "symfun",
    "kelvin",
    "equations",
    "expand",
    "radial",
    "cli",
]
