"""Spectral data, heat traces, zeta functions and analytic torsion of
model cone and edge spaces, cross-checked against an exact symbolic
calculus of polyhomogeneous index sets.

The package imports none of its modules here, and so no numpy: the
command line (`torsionlab.cli`) must load numpy itself, with one BLAS
thread."""

__version__ = "0.1.0"
