"""Consensus-based optimization lab.

A particle-based derivative-free optimizer, a pseudospectral solver for the
associated degenerate-diffusion density equation on a periodic box, and a
diagnostics suite that measures the method's convergence properties.
"""

__version__ = "0.19.0"
