"""Monte Carlo play of the encoding game against a shift adversary.

One trial: a source i is drawn uniformly from 1..m, an encoding g uniformly
from A_i, and the adversary's chosen shift delta moves g to the element g'
whose left difference with g is exactly delta (g' = delta^-1 * g, which in an
additive group is g - delta).  The adversary wins when g' lands in another
set.  Per source the number of winning encodings is the profile count
N_i(delta), so the empirical rate estimates the exact rate e_delta for every
group, abelian or not.

Trials are drawn in one documented batch order with numpy's PCG64 generator:
first all source indices at once, then for each set in index order the
within-set positions for the trials routed to it.  Runs are reproducible
bit-for-bit for a fixed seed, trial count, and family.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import List, Optional, Tuple

import numpy as np

from .family import (DisjointFamily, delta_column, difference_profile, r_bound,
                     reciprocal_sums, scaled_weights)


@dataclass(frozen=True)
class GameResult:
    delta: Optional[int]  # None when the adversary randomizes the shift
    trials: int
    successes: int
    empirical_rate: float
    analytic_rate: Fraction
    z_score: float


def _zscore(successes: int, trials: int, p: Fraction) -> float:
    if p == 0 or p == 1:
        return 0.0 if successes == trials * p else float("inf")
    mean = trials * p
    sigma = sqrt(trials * p * (1 - p))
    return float((successes - mean) / sigma)


def _success_vectors(family: DisjointFamily, delta: int) -> List[np.ndarray]:
    """Per set, a 0/1 vector over its members: does the shifted element escape."""
    g = family.group
    sizes = family.sizes
    members = np.fromiter((x for s in family.sets for x in s), dtype=np.int64)
    source = np.repeat(np.arange(family.m), sizes)
    owner = np.full(family.n, -1)
    owner[members] = source
    # the shifted element delta^-1 * x is the left difference of delta^-1 and x^-1 = 0 * x^-1
    landed = owner[g.diff_array(g.inv(delta), g.diff_array(0, members))]
    wins = ((landed >= 0) & (landed != source)).astype(np.int64)
    return np.split(wins, np.cumsum(sizes[:-1]))


def play(family: DisjointFamily, delta: int, trials: int, seed: int) -> GameResult:
    """Fixed-shift game; empirical estimate of e_delta, whose exact value it also returns."""
    delta_column(family.n, delta)
    if trials < 1:
        raise ValueError("need at least one trial")
    wins = _success_vectors(family, delta)
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, family.m, size=trials)
    successes = 0
    for i, members in enumerate(family.sets):
        count = int(np.count_nonzero(sources == i))
        if count == 0:
            continue
        picks = rng.integers(0, len(members), size=count)
        successes += int(wins[i][picks].sum())
    # set i's wins add up to N_i(delta), so this is e_delta without a profile
    k, coef = scaled_weights(family.sizes)
    analytic = Fraction(sum(c * int(w.sum()) for c, w in zip(coef, wins)), k * family.m)
    return GameResult(
        delta=delta,
        trials=trials,
        successes=successes,
        empirical_rate=successes / trials,
        analytic_rate=analytic,
        z_score=_zscore(successes, trials, analytic),
    )


def play_random_delta(family: DisjointFamily, trials: int, seed: int) -> GameResult:
    """Adversary draws delta uniformly from the non-identity elements per trial.

    The analytic rate is then the average of e_delta, which is exactly the
    averaging bound (m-1)*T / (m*(n-1)).  Batch order: all deltas, then all
    sources, then per (delta, set) in lexicographic order the within-set picks.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if family.n < 2:
        raise ValueError("no non-identity element to shift by")
    rng = np.random.default_rng(seed)
    deltas = rng.integers(1, family.n, size=trials)
    sources = rng.integers(0, family.m, size=trials)
    successes = 0
    for d in range(1, family.n):
        wins = _success_vectors(family, d)
        hit_d = sources[deltas == d]
        for i, members in enumerate(family.sets):
            count = int(np.count_nonzero(hit_d == i))
            if count == 0:
                continue
            picks = rng.integers(0, len(members), size=count)
            successes += int(wins[i][picks].sum())
    analytic = r_bound(family.n, family.m, family.total)
    return GameResult(
        delta=None,
        trials=trials,
        successes=successes,
        empirical_rate=successes / trials,
        analytic_rate=analytic,
        z_score=_zscore(successes, trials, analytic),
    )


def play_best_response(family: DisjointFamily, trials: int, seed: int) -> GameResult:
    """Adversary plays a best shift: the least delta maximizing e_delta."""
    if family.n < 2:
        raise ValueError("no non-identity element to shift by")
    _, sums = reciprocal_sums(difference_profile(family))
    return play(family, sums.index(max(sums)) + 1, trials, seed)
