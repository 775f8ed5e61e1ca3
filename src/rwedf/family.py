"""Disjoint set families and their external difference profiles.

Conventions used everywhere: sets hold element indices of one finite group,
the identity is 0, and the difference of a pair (a, b) is the left difference
a * b^-1.  Row i of a difference profile counts, for each delta != 0, the
ordered pairs (a, b) with a in A_i, b in any other set, and a * b^-1 = delta.

``difference_profile`` makes one pass over that m x (n-1) count matrix in row
blocks (``groups.difference_count_blocks``) and keeps only what the
whole-family checks read: the reciprocal column sums, the rows' values when
every row is constant, and the first count that breaks bimodality.  So
classify, e_hat, e_delta and the best-response game hold O(m + n) numbers,
not the matrix.  ``difference_profiles`` takes the same reductions for many
families at once: the families of one group and one total are stacked, a row
is a (family, set) pair, and one pass of the pair kernel counts them all; a
single family is the stack of one.  The dense matrix (``count_matrix``) is
built on demand for the per-cell reads (``row``, ``cell``, ``column_sum``,
``weighted_sum``) and the CSV export, and refused past DENSE_CELL_LIMIT cells.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import groups
from .errors import BadWeight, IdentityDelta, ProfileTooLarge
from .groups import (
    FiniteGroup,
    Subgroup,
    closure,
    difference_count_blocks,
    difference_counts,
    self_difference_counts,
)

# Most cells m * (n - 1) a dense count matrix may have (256 MB of int64).  The
# whole-family checks never build one; only the per-cell reads and the CSV
# export do, and they are refused past this before anything is allocated.
DENSE_CELL_LIMIT = 1 << 25


@dataclass(frozen=True)
class DisjointFamily:
    """An ordered family of pairwise disjoint, non-empty subsets of one group."""

    group: FiniteGroup
    sets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = self.group.order
        used = bytearray(n)  # used[x]: x lies in a set already checked
        for i, members in enumerate(self.sets):
            if not members:
                raise ValueError(f"set {i} is empty")
            prev = -1
            clash = 0
            for x in members:
                if not 0 <= x < n:
                    raise ValueError(f"element {x} out of range in set {i}")
                if x <= prev:
                    raise ValueError(f"set {i} must be strictly increasing")
                prev = x
                clash |= used[x]
                used[x] = 1
            if clash:
                raise ValueError(f"set {i} overlaps an earlier set")

    @classmethod
    def of(cls, group: FiniteGroup, *sets: Sequence[int]) -> "DisjointFamily":
        return cls(group, tuple(tuple(sorted(s)) for s in sets))

    @property
    def m(self) -> int:
        return len(self.sets)

    # sizes and total are read many times per classification; the sets never change
    @cached_property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.sets)

    @cached_property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def n(self) -> int:
        return self.group.order

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(x for s in self.sets for x in s))

    def is_partition_of_group(self) -> bool:
        return self.total == self.n

    def is_partition_of_nonidentity(self) -> bool:
        # members ascend, so a set holding the identity 0 starts with it
        return self.total == self.n - 1 and all(s[0] != 0 for s in self.sets)

    def translate(self, g: int) -> "DisjointFamily":
        """Right-translate every member by g; left differences are unchanged."""
        mul = self.group.mul
        return DisjointFamily(
            self.group, tuple(tuple(sorted(mul(x, g) for x in s)) for s in self.sets)
        )

    def canonical_key(self) -> Tuple:
        """Order-free fingerprint: sets sorted by (size desc, members)."""
        return tuple(sorted(self.sets, key=lambda s: (-len(s), s)))


def delta_column(n: int, delta: int) -> int:
    """Profile column delta - 1 of a shift in 1..n-1; no other delta wraps round to a column."""
    if delta == 0:
        raise IdentityDelta("delta must be a non-identity element")
    if not 1 <= delta < n:
        raise ValueError(f"delta {delta} is outside the non-identity range 1..{n - 1}")
    return delta - 1


@dataclass(frozen=True)
class DifferenceProfile:
    """What the whole-family checks read of the count matrix N.

    Rows of N are the family's sets, columns delta = 1..n-1.  The profile
    keeps reductions only; ``matrix``, for the per-cell reads, is rebuilt
    from the same count blocks on first use, within DENSE_CELL_LIMIT cells.
    """

    family: DisjointFamily
    scale: int = field(compare=False, repr=False)  # K = lcm(sizes)
    # K * sum_i N_i(delta) / k_i per delta: exact reciprocal column sums
    reciprocal: Tuple[int, ...] = field(compare=False, repr=False)
    # each row's single value when every row is constant, else None
    row_constants: Optional[Tuple[int, ...]] = field(compare=False, repr=False)
    # the first (set index, delta, count) in row then delta order whose
    # count is neither 0 nor the set's size
    bimodal_witness: Optional[Tuple[int, int, int]] = field(compare=False, repr=False)

    def blocks(self) -> Iterator[np.ndarray]:
        """The rows of the count matrix in blocks, counted again from the family.

        Each block is a view that the next one overwrites.
        """
        fam = self.family
        return (block[:, 1:] for block in difference_count_blocks(fam.group, fam.sets))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense read-only int64 count matrix, refused past DENSE_CELL_LIMIT cells."""
        return count_matrix(self.family)

    def row(self, i: int) -> Tuple[int, ...]:
        return tuple(self.matrix[i].tolist())

    def cell(self, i: int, delta: int) -> int:
        return int(self.matrix[i, delta_column(self.family.n, delta)])

    def column_sum(self, delta: int) -> int:
        return int(self.matrix[:, delta_column(self.family.n, delta)].sum())


def count_matrix(family: DisjointFamily) -> np.ndarray:
    """The family's dense read-only int64 count matrix, in one pass of the pair kernel.

    Refused with ProfileTooLarge past DENSE_CELL_LIMIT cells, before anything is allocated.
    """
    cells = family.m * (family.n - 1)
    if cells > DENSE_CELL_LIMIT:
        raise ProfileTooLarge(
            f"dense profile of {family.m} x {family.n - 1} = {cells} cells exceeds "
            f"DENSE_CELL_LIMIT {DENSE_CELL_LIMIT}"
        )
    matrix = difference_counts(family.group, family.sets)[:, 1:]
    matrix.setflags(write=False)
    return matrix


class _ColumnSums:
    """Exact sum_i coef_i * N_i(delta) per family and column, added one row block at a time.

    The rows of N are the families' sets in order, and starts[f] is family f's
    first row (with the row count past the last).  A block's product is taken
    in int64 while max(coef) * max(count, 1) * (most rows of a family) < 2^62
    bounds every sum and coefficient; from the first block past that bound on,
    the sums are Python ints.  most, an upper bound on every count, spares the
    per-block maximum when it already keeps the product inside int64.
    """

    def __init__(self, coef: Sequence[int], width: int, most: int,
                 starts: Optional[Sequence[int]] = None):
        self.coef = coef
        self.starts = starts = starts or (0, len(coef))
        self.bound = max(coef) * max(b - a for a, b in zip(starts, starts[1:]))
        self.wide = np.array(coef, dtype=np.int64) if self.bound < 2**62 else None
        self.check_peak = self.bound * max(most, 1) >= 2**62
        self.sums = np.zeros((len(starts) - 1, width), dtype=np.int64)
        self.row = 0

    def add(self, counts: np.ndarray) -> None:
        """Add the next len(counts) rows of N."""
        first = self.row
        self.row += len(counts)
        if self.wide is not None and (
            not self.check_peak or self.bound * int(counts.max(initial=1)) < 2**62
        ):
            coef = self.wide[first : self.row]
        else:
            self.wide = None  # Python ints from here on
            if self.sums.dtype != object:
                self.sums = self.sums.astype(object)
            coef = np.array(self.coef[first : self.row], dtype=object)
            counts = counts.astype(object)
        # the families lo..hi-1 have rows in this block
        lo = bisect_right(self.starts, first) - 1
        hi = bisect_left(self.starts, self.row)
        if hi - lo == 1:  # a matrix product; reduceat over one family is slower
            self.sums[lo] += coef @ counts
        else:
            cuts = [max(start - first, 0) for start in self.starts[lo:hi]]
            self.sums[lo:hi] += np.add.reduceat(coef[:, None] * counts, cuts, axis=0)

    def values(self) -> List[Tuple[int, ...]]:
        """Each family's sums."""
        return [tuple(row) for row in self.sums.tolist()]


def column_sums(
    blocks: Iterable[np.ndarray], coef: Sequence[int], width: int, most: int
) -> Tuple[int, ...]:
    """Exact sum_i coef_i * N[i, d] for each of width columns d, over N's rows in blocks.

    most bounds every count (max k_i will do: a and delta fix b).
    """
    sums = _ColumnSums(coef, width, most)
    for block in blocks:
        sums.add(block)
    return sums.values()[0]


def difference_profile(family: DisjointFamily) -> DifferenceProfile:
    """Count external differences a * b^-1 out of each set into the rest."""
    return difference_profiles([family])[0]


def difference_profiles(families: Sequence[DisjointFamily]) -> List[DifferenceProfile]:
    """The difference profile of each family, many families to one pass of the pair kernel.

    Consecutive families of one group and one total T are stacked, at most
    max(1, BLOCK_CELLS // n) of them: a row of the stacked count matrix is a
    (family, set) pair, and ``difference_count_blocks`` with span T counts a
    pair only when both ends lie in one family.  A family whose scaled sums
    may pass int64, max(K / k_i) * m * max(k_i) >= 2^62 (see ``_ColumnSums``),
    is profiled alone.
    """
    profiles: List[DifferenceProfile] = []
    stack: List[Tuple[DisjointFamily, int, Tuple[int, ...]]] = []
    stack_key = None
    for family in families:
        scale, coef = scaled_weights(family.sizes)
        fits = max(coef) * len(coef) * max(family.sizes) < 2**62
        key = (id(family.group), family.total) if fits else None
        if stack and (
            key is None or key != stack_key
            or len(stack) >= max(1, groups.BLOCK_CELLS // family.n)
        ):
            profiles += _stack_profiles(stack)
            stack = []
        stack_key = key
        stack.append((family, scale, coef))
    if stack:
        profiles += _stack_profiles(stack)
    return profiles


def _stack_profiles(
    stack: Sequence[Tuple[DisjointFamily, int, Tuple[int, ...]]]
) -> List[DifferenceProfile]:
    """One pass over the stacked count matrix of (family, K, K / k_i) of one group and total.

    Each block is reduced and dropped, so the pass holds O(BLOCK_CELLS + rows
    + families * n) numbers.  Row i of a family sums to k_i * (T - k_i) over
    the n - 1 columns and no count exceeds k_i (a and delta fix b).  So:

    - the row can be constant only if n - 1 divides that sum, and is constant
      exactly when its largest count times n - 1 reaches it;
    - it has at least T - k_i non-zero counts, with equality exactly when every
      count is 0 or k_i, and a count is neither exactly when it is not 0 mod
      k_i: a block is searched for bimodal witnesses only when it has more
      non-zero counts than its rows' T - k_i.
    """
    families = [family for family, _, _ in stack]
    group, total, width = families[0].group, families[0].total, families[0].n - 1
    sizes = [k for family in families for k in family.sizes]
    starts = [0, *accumulate(family.m for family in families)]
    reciprocal = _ColumnSums(
        [c for _, _, coef in stack for c in coef], width, max(sizes), starts
    )
    # no row is constant unless every row sum of its family spreads evenly over the columns
    level = [
        all(k * (total - k) % max(width, 1) == 0 for k in family.sizes) for family in families
    ]
    any_level = any(level)
    tops: List[int] = []
    witnesses: List[Optional[Tuple[int, int, int]]] = [None] * len(stack)
    missing = len(stack)
    first = 0
    sets = [members for family in families for members in family.sets]
    for block in difference_count_blocks(group, sets, span=total):
        counts = block[:, 1:]
        last = first + len(counts)
        reciprocal.add(counts)
        if any_level:
            tops += np.maximum.reduce(counts, axis=1, initial=0).tolist()
        if missing:
            least = (last - first) * total - sum(sizes[first:last])
            if np.count_nonzero(counts) != least:
                between = counts % np.array(sizes[first:last])[:, None] != 0
                # the first such count of each family, in row then delta order
                for r in np.flatnonzero(between.any(axis=1)).tolist():
                    f = bisect_right(starts, first + r) - 1
                    if witnesses[f] is None:
                        d = int(between[r].argmax())
                        witnesses[f] = (first + r - starts[f], d + 1, int(counts[r, d]))
                        missing -= 1
                        if not missing:
                            break
        first = last
    profiles = []
    for f, ((family, scale, _), sums) in enumerate(zip(stack, reciprocal.values())):
        row_tops = tops[starts[f] : starts[f + 1]]
        constant = level[f] and all(
            top * width == k * (total - k) for top, k in zip(row_tops, family.sizes)
        )
        profiles.append(DifferenceProfile(
            family, scale, sums, tuple(row_tops) if constant else None, witnesses[f]
        ))
    return profiles


def scaled_weights(sizes: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Common denominator K = lcm(sizes) and integer weights K / k_i."""
    k = lcm(*sizes)
    return k, tuple(k // s for s in sizes)


def scaled_fractions(weights: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """Common denominator D of the weights and the integer weights D * w_i."""
    ws = [Fraction(w) for w in weights]
    d = lcm(*(w.denominator for w in ws))
    return d, tuple(int(w * d) for w in ws)


def reciprocal_sums(profile: DifferenceProfile) -> Tuple[int, List[int]]:
    """Integer-scaled reciprocal row sums: K and [K * sum_i N_i(delta)/k_i] per delta."""
    return profile.scale, list(profile.reciprocal)


def e_delta(family: DisjointFamily, profile: DifferenceProfile, delta: int) -> Fraction:
    """Exact adversary success probability at shift delta."""
    total = profile.reciprocal[delta_column(family.n, delta)]
    return Fraction(total, profile.scale * family.m)


def e_hat(family: DisjointFamily, profile: Optional[DifferenceProfile] = None) -> Fraction:
    """Worst-case success probability: max over delta of e_delta."""
    if family.n < 2:
        raise ValueError("e_hat needs a group with at least one non-identity element")
    if profile is None:
        profile = difference_profile(family)
    k, sums = reciprocal_sums(profile)
    return Fraction(max(sums), k * family.m)


def r_bound(n: int, m: int, total: int) -> Fraction:
    """Averaging lower bound (m-1)*T / (m*(n-1)) on the worst-case rate."""
    if n < 2:
        raise ValueError("bound needs n >= 2")
    if m < 1 or total < m or total > n:
        raise ValueError(f"no family has m={m} sets with {total} elements in a group of {n}")
    return Fraction((m - 1) * total, m * (n - 1))


def internal_differences(group: FiniteGroup, members: Sequence[int]) -> Tuple[int, ...]:
    """Sorted distinct differences a * b^-1 over ordered pairs within one set."""
    return tuple(np.flatnonzero(self_difference_counts(group, members)).tolist())


def internal_difference_group(group: FiniteGroup, members: Sequence[int]) -> Subgroup:
    """Subgroup generated by the internal differences; trivial for singletons."""
    return closure(group, internal_differences(group, members))


class BimodalVerdict(NamedTuple):
    holds: bool
    witness: Optional[Tuple[int, int, int]]  # (set index, delta, offending count)


def is_bimodal(family: DisjointFamily, profile: Optional[DifferenceProfile] = None) -> BimodalVerdict:
    """Every count N_i(delta) is either 0 or the full set size k_i.

    Scan order is rows then deltas, so the witness is deterministic: the first
    (i, delta) whose count falls strictly between.
    """
    if profile is None:
        profile = difference_profile(family)
    witness = profile.bimodal_witness
    return BimodalVerdict(witness is None, witness)


def check_weights(m: int, weights: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    if len(weights) != m:
        raise BadWeight(f"need {m} weights, got {len(weights)}")
    out = []
    for w in weights:
        w = Fraction(w)
        if not 0 < w <= 1:
            raise BadWeight(f"weight {w} outside (0, 1]")
        out.append(w)
    return tuple(out)


def weighted_sum(
    family: DisjointFamily,
    profile: DifferenceProfile,
    weights: Sequence[Fraction],
    delta: int,
) -> Fraction:
    """sum_i w_i * N_i(delta) for positive weights w_i <= 1."""
    col = delta_column(family.n, delta)
    d, coef = scaled_fractions(check_weights(family.m, weights))
    (total,) = column_sums([profile.matrix[:, col : col + 1]], coef, 1, max(family.sizes))
    return Fraction(total, d)
