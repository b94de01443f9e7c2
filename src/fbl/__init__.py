"""Finite-blocklength achievability bounds for discrete-input channels,
with exact tail oracles and a desk-scale ensemble simulator.
"""

__version__ = "0.1.0"

# Loaded first: imported later, under fbl.channel, scipy.special touches about
# 2,000 more pages, and `import fbl.cli` takes tens of ms more CPU.
import scipy.special  # noqa: E402,F401
