"""Measurement-set design and evaluation for two-qubit tomography with noisy entangling gates.

Import the modules themselves: the package imports nothing, so that the command
line can pin BLAS to one thread before numpy loads."""

__version__ = "0.1.0"
