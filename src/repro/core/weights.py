"""Stop-heuristic weights — paper Table I.

Every branch encountered on the alternate path adds a weight to a
saturating stop counter; the weight reflects the misprediction likelihood
of the component that predicted it (roughly one unit per extra 5% miss
rate, Fig. 6).  Unresolvable targets (BTB miss; indirect without Alt-Ind)
weigh infinity, i.e. they stop the walk outright.
"""

from __future__ import annotations

import math

from repro.branch.tage_sc_l import Provider, TageScLPrediction

#: Sentinel for "stop the alternate path immediately".
INFINITE = math.inf

#: HitBank weight by tagged-counter strength (saturated = 3).
_HITBANK_WEIGHTS = {3: 1, 2: 3, 1: 4, 0: 6}


def condition_weight(prediction: TageScLPrediction) -> int:
    """Table I, Condition rows: weight for a conditional on the alt path."""
    provider = prediction.provider
    if provider is Provider.LOOP:
        return 1
    if provider is Provider.SC:
        magnitude = abs(prediction.sc.lsum)
        if magnitude >= 128:
            return 3
        if magnitude >= 64:
            return 6
        if magnitude >= 32:
            return 8
        return 10
    if provider is Provider.ALTBANK:
        return 5 if prediction.tage.alt_ctr in (-4, 3) else 7
    if provider is Provider.HITBANK:
        return _HITBANK_WEIGHTS[_tagged_strength(prediction.tage.hit_ctr)]
    # Bimodal (2-bit counter: saturated == -2 or 1).
    saturated = prediction.tage.bimodal_ctr in (-2, 1)
    if provider is Provider.BIMODAL_1IN8:
        return 2 if saturated else 6
    return 1 if saturated else 2


def _tagged_strength(counter: int) -> int:
    """Distance of a 3-bit signed counter from the weak centre (0..3)."""
    return counter if counter >= 0 else -counter - 1


def target_weight(
    btb_hit: bool, is_indirect: bool, is_return: bool, has_alt_ind: bool
) -> float:
    """Table I, Target rows: weight for resolving a branch target."""
    if is_return:
        return 1
    if is_indirect:
        return 1 if has_alt_ind else INFINITE
    return INFINITE if not btb_hit else 0
