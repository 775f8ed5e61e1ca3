"""Monte Carlo play of the encoding game against a shift adversary.

One trial: a source i is drawn uniformly from 1..m, an encoding g uniformly
from A_i, and the adversary's chosen shift delta moves g to the element g'
whose left difference with g is exactly delta (g' = delta^-1 * g, which in an
additive group is g - delta).  The adversary wins when g' lands in another
set.  Per source the number of winning encodings is the profile count
N_i(delta), so the empirical rate estimates the exact rate e_delta for every
group, abelian or not.

Trials are drawn in one documented batch order with numpy's PCG64 generator:
first the shifts (random-shift game only) and the source indices, then the
within-set positions cell by cell, the trials grouped into (delta, set) cells
in lexicographic order.  A set of size 1 has one member to pick, so its cells
draw nothing (``rng.integers(0, 1, size=c)`` uses no generator state either)
and score count times that member's outcome.  Memory is O(trials + n): no
table over all (delta, set) or (delta, member) pairs is formed.  Runs are
reproducible bit-for-bit for a fixed seed, trial count, and family.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable, Optional

import numpy as np

from .family import (DisjointFamily, delta_column, difference_profile, r_bound,
                     reciprocal_sums, scaled_weights)

# Trials drawn or scored per step, so every temporary stays about 128 KB at any
# trial count.  Steps of 2^18 made 100,000-trial games about 1.6 times slower on
# a 2-vCPU VM.
TRIAL_CHUNK = 1 << 14


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


class _Board:
    """The family's members laid out flat: set i holds positions start[i] .. start[i] + k_i - 1."""

    def __init__(self, family: DisjointFamily):
        self.group = family.group
        self.sizes = np.array(family.sizes, dtype=np.int64)
        self.start = np.cumsum(self.sizes) - self.sizes
        self.members = np.fromiter((x for s in family.sets for x in s), dtype=np.int64,
                                   count=family.total)
        self.member_set = np.repeat(np.arange(family.m), self.sizes)
        self.owner = np.full(family.n, -1, dtype=np.int64)
        self.owner[self.members] = self.member_set

    def wins(self, delta: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Per trial: does the shifted element delta^-1 * x, x = members[pos], land in another set."""
        g = self.group
        # delta^-1 * x is the left difference of delta^-1 = 0 * delta^-1 and x^-1 = 0 * x^-1
        landed = self.owner[g.diff_array(g.diff_array(0, delta), g.diff_array(0, self.members[pos]))]
        return (landed >= 0) & (landed != self.member_set[pos])

    def tally(self, rng: np.random.Generator, src: np.ndarray, count: np.ndarray,
              score: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> int:
        """Successes over the non-empty trial cells, given in (delta, set) order.

        Cell c holds count[c] trials from set src[c]; score(cells, pos) says per
        trial whether picking the member at pos wins in its cell.
        """
        k = self.sizes[src]
        first = self.start[src]
        single = np.flatnonzero(k == 1)
        successes = int(count[single][score(single, first[single])].sum())
        multi = np.flatnonzero(k > 1)
        ends = np.cumsum(count[multi])
        begins = ends - count[multi]
        total = int(ends[-1]) if ends.size else 0
        for lo in range(0, total, TRIAL_CHUNK):
            hi = min(lo + TRIAL_CHUNK, total)
            a, b = np.searchsorted(ends, (lo, hi - 1), side="right")
            span = slice(a, b + 1)
            cells = np.repeat(multi[span], np.minimum(ends[span], hi) - np.maximum(begins[span], lo))
            # the picks of trials lo..hi-1: the same stream as one rng.integers(0, k_i,
            # size=count) per cell in cell order; a scalar bound is the faster call
            high = k[multi[span]]
            if (high == high[0]).all():
                picks = rng.integers(0, high[0], size=hi - lo)
            else:
                picks = rng.integers(0, k[cells])
            successes += int(np.count_nonzero(score(cells, first[cells] + picks)))
        return successes


def play(family: DisjointFamily, delta: int, trials: int, seed: int) -> GameResult:
    """Fixed-shift game; empirical estimate of e_delta, whose exact value it also returns."""
    delta_column(family.n, delta)
    if trials < 1:
        raise ValueError("need at least one trial")
    board = _Board(family)
    rng = np.random.default_rng(seed)
    counts = np.zeros(family.m, dtype=np.int64)
    # chunked draws give the same sources as one call with size=trials
    for lo in range(0, trials, TRIAL_CHUNK):
        sources = rng.integers(0, family.m, size=min(TRIAL_CHUNK, trials - lo))
        counts += np.bincount(sources, minlength=family.m)
    src = np.flatnonzero(counts)
    won = board.wins(np.full(family.total, delta), np.arange(family.total))
    successes = board.tally(rng, src, counts[src], lambda cells, pos: won[pos])
    # set i's wins add up to N_i(delta), so this is e_delta without a profile
    n_delta = np.bincount(board.member_set[won], minlength=family.m).tolist()
    k, coef = scaled_weights(family.sizes)
    analytic = Fraction(sum(c * w for c, w in zip(coef, n_delta)), k * family.m)
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
    board = _Board(family)
    rng = np.random.default_rng(seed)
    key = rng.integers(1, family.n, size=trials)
    key -= 1
    key *= family.m
    key += rng.integers(0, family.m, size=trials)
    # a sort over the trials: (n-1)*m cells can far outnumber them
    cells, counts = np.unique(key, return_counts=True)
    del key
    delta, src = np.divmod(cells, family.m)
    delta += 1
    successes = board.tally(rng, src, counts, lambda cells, pos: board.wins(delta[cells], pos))
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
