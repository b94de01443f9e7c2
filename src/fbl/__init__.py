"""Finite-blocklength achievability bounds for discrete-input channels,
with exact tail oracles and a desk-scale ensemble simulator.
"""

__version__ = "0.1.0"
