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
not the matrix.  The dense matrix is built on demand for the per-cell reads
(``row``, ``cell``, ``column_sum``, ``weighted_sum``) and the CSV export, and
refused past DENSE_CELL_LIMIT cells.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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
        fam = self.family
        cells = fam.m * (fam.n - 1)
        if cells > DENSE_CELL_LIMIT:
            raise ProfileTooLarge(
                f"dense profile of {fam.m} x {fam.n - 1} = {cells} cells exceeds "
                f"DENSE_CELL_LIMIT {DENSE_CELL_LIMIT}"
            )
        matrix = difference_counts(fam.group, fam.sets)[:, 1:]
        matrix.setflags(write=False)
        return matrix

    def row(self, i: int) -> Tuple[int, ...]:
        return tuple(self.matrix[i].tolist())

    def cell(self, i: int, delta: int) -> int:
        return int(self.matrix[i, delta_column(self.family.n, delta)])

    def column_sum(self, delta: int) -> int:
        return int(self.matrix[:, delta_column(self.family.n, delta)].sum())


class _ColumnSums:
    """Exact sum_i coef_i * N_i(delta) per column, added one row block at a time.

    A block's product is taken in int64 while max(coef) * max(count, 1) * m <
    2^62 bounds every sum and coefficient; from the first block past that bound
    on, the sums are Python ints.  most, an upper bound on every count, spares
    the per-block maximum when it already keeps the product inside int64.
    """

    def __init__(self, coef: Sequence[int], width: int, most: int):
        self.coef = coef
        self.bound = max(coef) * len(coef)
        self.wide = np.array(coef, dtype=np.int64) if self.bound < 2**62 else None
        self.check_peak = self.bound * max(most, 1) >= 2**62
        self.sums = np.zeros(width, dtype=np.int64)
        self.row = 0

    def add(self, counts: np.ndarray) -> None:
        """Add the next len(counts) rows of N."""
        first = self.row
        self.row += len(counts)
        if self.wide is not None and (
            not self.check_peak or self.bound * int(counts.max(initial=1)) < 2**62
        ):
            self.sums += self.wide[first : self.row] @ counts
        else:
            self.wide = None  # Python ints from here on
            coef = np.array(self.coef[first : self.row], dtype=object)
            self.sums = self.sums.astype(object) + coef @ counts.astype(object)

    def values(self) -> Tuple[int, ...]:
        return tuple(self.sums.tolist())


def column_sums(
    blocks: Iterable[np.ndarray], coef: Sequence[int], width: int, most: int
) -> Tuple[int, ...]:
    """Exact sum_i coef_i * N[i, d] for each of width columns d, over N's rows in blocks.

    most bounds every count (max k_i will do: a and delta fix b).
    """
    sums = _ColumnSums(coef, width, most)
    for block in blocks:
        sums.add(block)
    return sums.values()


def difference_profile(family: DisjointFamily) -> DifferenceProfile:
    """Count external differences a * b^-1 out of each set into the rest.

    One pass over the count matrix in row blocks; each block is reduced and
    dropped, so the pass holds O(BLOCK_CELLS + m + n) numbers.  Row i sums to
    k_i * (T - k_i) over the n - 1 columns and no count exceeds k_i (a and
    delta fix b).  So:

    - the row can be constant only if n - 1 divides that sum, and is constant
      exactly when its largest count times n - 1 reaches it;
    - it has at least T - k_i non-zero counts, with equality exactly when every
      count is 0 or k_i, and a count is neither exactly when it is not 0 mod
      k_i: a block is searched for the bimodal witness only when it has more
      non-zero counts than its rows' T - k_i.
    """
    sizes = family.sizes
    total, width = family.total, family.n - 1
    scale, coef = scaled_weights(sizes)
    reciprocal = _ColumnSums(coef, width, max(sizes))
    # no row is constant unless every row sum spreads evenly over the columns
    level = all(k * (total - k) % max(width, 1) == 0 for k in sizes)
    tops: List[int] = []
    witness = None
    first = 0
    for block in difference_count_blocks(family.group, family.sets):
        counts = block[:, 1:]
        last = first + len(counts)
        reciprocal.add(counts)
        if level:
            tops += np.maximum.reduce(counts, axis=1, initial=0).tolist()
        if witness is None:
            least = (last - first) * total - sum(sizes[first:last])
            if np.count_nonzero(counts) != least:
                rows, deltas = np.nonzero(counts % np.array(sizes[first:last])[:, None])
                r, d = int(rows[0]), int(deltas[0])
                witness = (first + r, d + 1, int(counts[r, d]))
        first = last
    constant = level and all(top * width == k * (total - k) for top, k in zip(tops, sizes))
    return DifferenceProfile(
        family, scale, reciprocal.values(), tuple(tops) if constant else None, witness
    )


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
