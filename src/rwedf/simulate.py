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
in lexicographic order.  Each of these draws may be split into calls of any
size without changing the stream, and the games split them TRIAL_CHUNK at a
time.  A set of size 1 has one member to pick, so its cells draw nothing
(``rng.integers(0, 1, size=c)`` uses no generator state either) and score
count times that member's outcome.  The fixed-shift game knows every
member's outcome before it draws a pick, so it draws no pick after the last
cell whose set has more than one member and is mixed (some members win, some
lose): each later cell's set all wins or all loses, and it scores count times
that outcome.  Such draws could change neither the count nor an earlier draw.
The random-shift game draws every pick of a multi-member cell.  Runs are
reproducible bit-for-bit for a fixed seed, trial count, and family; the
generator's final state is not part of that contract.

Memory is O(trials + n), and no table over all (delta, set) or (delta, member)
pairs is formed.  The random-shift game keeps one int64 key per trial and,
when the (n-1)*m cells are no more than the trials, one count per cell; it
scores the cells TRIAL_CHUNK at a time, so every other array is the size of
one block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .family import DisjointFamily, delta_column, difference_profile, r_bound, scaled_weights
from .groups import packed

# Trials drawn or scored, and cells scored, per step, so every temporary stays
# about 128 KB at any trial count.  Steps of 2^18 made 100,000-trial games about
# 1.6 times slower on a 2-vCPU VM.
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
        sizes, self.members = packed(family.sets)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.start = np.cumsum(self.sizes) - self.sizes
        self.member_set = np.repeat(np.arange(family.m), self.sizes)
        self.owner = np.full(family.n, -1, dtype=np.int64)
        self.owner[self.members] = self.member_set
        self.inverse = self.group.diff_array(0, self.members)  # x^-1 per member

    def wins(self, delta, pos: np.ndarray) -> np.ndarray:
        """Per trial: does the shifted element delta^-1 * x, x = members[pos], land in another set."""
        return self._lands(self.group.diff_array(0, delta), pos)

    def _lands(self, inv_delta, pos: np.ndarray) -> np.ndarray:
        """``wins``, given delta^-1 (one element, or one per trial)."""
        # delta^-1 * x is the left difference of delta^-1 and x^-1
        landed = self.owner[self.group.diff_array(inv_delta, self.inverse[pos])]
        return (landed >= 0) & (landed != self.member_set[pos])

    def tally(self, rng: np.random.Generator, src: np.ndarray, count: np.ndarray,
              score: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> int:
        """Successes over the non-empty trial cells, given in (delta, set) order.

        Cell c holds count[c] trials from set src[c]; score(cells, pos) says per
        trial whether picking the member at pos wins in its cell (cells is one
        cell for all of pos, or one per trial).
        """
        k = self.sizes[src]
        first = self.start[src]
        one = k == 1
        successes = int(count[one][score(np.flatnonzero(one), first[one])].sum())
        multi = np.flatnonzero(~one)
        ends = np.cumsum(count[multi])
        begins = ends - count[multi]
        total = int(ends[-1]) if ends.size else 0
        for lo in range(0, total, TRIAL_CHUNK):
            hi = min(lo + TRIAL_CHUNK, total)
            a, b = np.searchsorted(ends, (lo, hi - 1), side="right")
            # the picks of trials lo..hi-1: the same stream as one rng.integers(0, k_i,
            # size=count) per cell in cell order; a scalar bound is the faster call
            if a == b:  # one cell: score against its set's k_i outcomes
                c = multi[a]
                f, size = first[c], k[c]
                outcome = score(c, np.arange(f, f + size))
                picks = rng.integers(0, size, size=hi - lo)
                # a set whose members all win, or all lose, needs no look at the picks
                successes += (hi - lo if outcome.all() else 0 if not outcome.any()
                              else int(np.count_nonzero(outcome[picks])))
                continue
            cells = multi[a : b + 1]
            lens = np.minimum(ends[a : b + 1], hi) - np.maximum(begins[a : b + 1], lo)
            high = k[cells]
            if (high == high[0]).all():
                picks = rng.integers(0, high[0], size=hi - lo)
            else:
                picks = rng.integers(0, np.repeat(high, lens))
            pos = np.repeat(first[cells], lens) + picks
            successes += int(np.count_nonzero(score(np.repeat(cells, lens), pos)))
        return successes


def _trial_cells(rng: np.random.Generator, n: int, m: int,
                 trials: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The random-shift trials' non-empty cells (delta - 1) * m + set with their counts.

    Draws all shifts, then all sources, TRIAL_CHUNK a call (the same stream as
    one call each), into one key per trial, and yields the cells in ascending
    order, at most TRIAL_CHUNK a block.
    """
    key = np.empty(trials, dtype=np.int64)
    for lo in range(0, trials, TRIAL_CHUNK):
        key[lo : lo + TRIAL_CHUNK] = rng.integers(1, n, size=min(TRIAL_CHUNK, trials - lo)) - 1
    for lo in range(0, trials, TRIAL_CHUNK):
        part = key[lo : lo + TRIAL_CHUNK]
        part *= m
        part += rng.integers(0, m, size=len(part))
    cells = (n - 1) * m
    # when the bins are no larger than the key, counting is the faster way:
    # 10^6 keys over 261,121 cells take ~3 ms to count and ~10 ms to sort
    if cells <= trials:
        bins = np.bincount(key, minlength=cells)
        del key
        for lo in range(0, cells, TRIAL_CHUNK):
            part = bins[lo : lo + TRIAL_CHUNK]
            idx = np.flatnonzero(part)
            yield idx + lo, part[idx]
    else:
        # (n-1)*m cells can far outnumber the trials; a cell split between two
        # blocks draws its picks in two calls, which is the same stream
        key.sort()
        for lo in range(0, trials, TRIAL_CHUNK):
            part = key[lo : lo + TRIAL_CHUNK]
            starts = np.flatnonzero(np.diff(part, prepend=-1))
            yield part[starts], np.diff(starts, append=len(part))


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
    won = board.wins(delta, np.arange(family.total))
    wins = np.bincount(board.member_set[won], minlength=family.m)  # winners per set
    all_win = wins == board.sizes
    mixed = (wins > 0) & ~all_win
    # picks after the last mixed cell would only advance the stream: those
    # cells score count times their set's one outcome and draw nothing
    lead = np.flatnonzero(mixed[src])
    cut = int(lead[-1]) + 1 if lead.size else 0
    successes = board.tally(rng, src[:cut], counts[src[:cut]], lambda cells, pos: won[pos])
    rest = src[cut:]
    successes += int(counts[rest[all_win[rest]]].sum())
    # set i's wins add up to N_i(delta), so this is e_delta without a profile
    n_delta = wins.tolist()
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
    successes = 0
    for cells, counts in _trial_cells(rng, family.n, family.m, trials):
        delta, src = np.divmod(cells, family.m)
        delta += 1
        inv_delta = board.group.diff_array(0, delta)
        successes += board.tally(rng, src, counts, lambda c, pos: board._lands(inv_delta[c], pos))
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
    if trials < 1:
        raise ValueError("need at least one trial")
    if family.n < 2:
        raise ValueError("no non-identity element to shift by")
    sums = difference_profile(family).reciprocal
    return play(family, sums.index(max(sums)) + 1, trials, seed)
