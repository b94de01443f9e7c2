"""PPV 2010's closed forms of thm1's minimum on the BSC and the BEC.

Test-only references: thm1_optimized and the bscform/becform rows read
the same minimum off the statistic's exact law, and the tests hold them
to these sums.
"""

import math

import numpy as np
from scipy.special import gammaln

from fbl.achievability import _ln, _log_m_minus_1
from fbl.numkit import logsumexp

LN2 = math.log(2.0)


def _resolve_log_m(M, log_m, dt_variant: bool) -> float:
    """ln of the codebook constant M, or (M-1)/2 in the variant, from an exact M or ln M."""
    if not dt_variant:
        if (M is None) == (log_m is None):
            raise ValueError("give exactly one of M or log_m")
        return log_m if M is None else _ln(M)
    log_m1 = _log_m_minus_1(M, log_m)
    if (M is not None and M < 2) or log_m1 == -math.inf:
        raise ValueError("variant needs M >= 2")
    return log_m1 - LN2


def bsc_closed_form(p: float, n: int, M=None, dt_variant: bool = False,
                    log_m: float | None = None) -> float:
    """Optimized-deviation bound on the BSC: sum_w C(n,w) min{p^w q^(n-w), 2^-n M}.

    The codebook size can be given exactly (M, any int/Fraction) or in
    the log domain (log_m = ln M) when it would overflow a float.
    """
    if not 0 < p < 0.5:
        raise ValueError("BSC closed form needs p in (0, 0.5)")
    log_union = _resolve_log_m(M, log_m, dt_variant) - n * LN2
    w = np.arange(n + 1)
    log_c = gammaln(n + 1) - gammaln(w + 1) - gammaln(n - w + 1)
    log_like = w * math.log(p) + (n - w) * math.log(1 - p)
    return min(1.0, float(np.exp(logsumexp(log_c + np.minimum(log_like, log_union)))))


def bec_closed_form(p: float, n: int, M=None, dt_variant: bool = False,
                    log_m: float | None = None) -> float:
    """Optimized-deviation bound on the BEC.

    sum_{t>=1} C(n,t) p^t q^(n-t) 2^-[n-t-log2 M]^+; the variant flag
    switches to the (M-1)/2 constant and starts the sum at t=0.
    """
    if not 0 < p < 1:
        raise ValueError("BEC closed form needs p in (0, 1)")
    log2_m = _resolve_log_m(M, log_m, dt_variant) / LN2
    t = np.arange(0 if dt_variant else 1, n + 1)
    log_c = gammaln(n + 1) - gammaln(t + 1) - gammaln(n - t + 1)
    log_like = t * math.log(p) + (n - t) * math.log(1 - p)
    exponent = -LN2 * np.maximum(n - t - log2_m, 0.0)
    return min(1.0, float(np.exp(logsumexp(log_c + log_like + exponent))))
