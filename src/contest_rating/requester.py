"""Requester-side (platform) utility of a compliant population.

Each period a transaction is fulfilled only when neither monitoring stage
misfires (probability error_free), and the winner is paid the prize of its
own rating. In the stationary rating distribution the requester's expected
per-period utility has a small closed form.
"""

from __future__ import annotations

from .params import IntrinsicParams


def social_utility_closed(alpha, beta, gamma1, gamma0, params: IntrinsicParams):
    """Closed form error_free - E_eta[gamma]; numpy-broadcasting over the arguments.

    Callers guarantee alpha*error_free + beta*error_any > 0 (the stationary
    law must exist); the vectorized design search satisfies it by
    construction.
    """
    up = alpha * params.error_free
    down = beta * params.error_any
    return params.error_free - (down * gamma0 + up * gamma1) / (down + up)

