"""Four-intent certificate: an independent check that a protocol is sustainable.

For both workers and both ratings it prices every one-shot deviation (CA,
SN, SA) as the one-period payoff against a compliant opponent plus the
discounted compliant lifetime value of the rating it leads to. The chance
of being read as CN comes straight from the flip channels and the next
rating from the update rule, so no margin algebra is used: neither the
certificate's CA margins and deviation floors in `incentives` nor
`compliance_margins` and `deviation_floor` in `scalar_reference.py`.
Participation is the compliant lifetime value at rating 0.
"""

import numpy as np
from oracles import rating_update_rule

from contest_rating import STRATEGIES, Strategy, lifetime_values
from contest_rating.payoffs import against_compliant, realized_mix

DEVIATIONS = tuple(s for s in STRATEGIES if s is not Strategy.CN)


def deviation_gain(worker, rating, intended, design, params) -> float:
    """Lifetime value of intending `intended` once at `rating`, minus complying."""
    values = lifetime_values(design, params, worker)
    v = np.array([values.v0, values.v1])
    seen_cn = realized_mix(intended, params)[Strategy.CN.index]
    # any observation other than CN applies the deviation branch of the update
    nxt = seen_cn * rating_update_rule(rating, Strategy.CN, design) + (
        1.0 - seen_cn
    ) * rating_update_rule(rating, Strategy.CA, design)
    one_shot = against_compliant(worker, intended, design.price(rating), params)
    return float(one_shot + params.delta * (nxt @ v) - v[rating])


def violations(design, params, tolerance=1e-9) -> list[str]:
    """Every profitable one-shot deviation and failed participation; [] certifies."""
    found = []
    for worker in (1, 2):
        v0 = lifetime_values(design, params, worker).v0
        if v0 < -tolerance:
            found.append(f"worker {worker} participation v0 = {v0:.6g}")
        for rating in (0, 1):
            for intended in DEVIATIONS:
                gain = deviation_gain(worker, rating, intended, design, params)
                if gain > tolerance:
                    found.append(
                        f"worker {worker} gains {gain:.6g} by {intended.value} at rating {rating}"
                    )
    return found
