"""Disjoint set families and their external difference profiles.

Conventions used everywhere: sets hold element indices of one finite group,
the identity is 0, and the difference of a pair (a, b) is the left difference
a * b^-1.  Row i of a difference profile counts, for each delta != 0, the
ordered pairs (a, b) with a in A_i, b in any other set, and a * b^-1 = delta.

``difference_profile`` makes one pass over that m x (n-1) count matrix in row
blocks (``groups.difference_count_blocks``) and keeps only what the
whole-family checks read: the reciprocal column sums, the weighted column
sums when weights are given, the rows' values when every row is constant, and
the first count that breaks bimodality.  So classify, e_hat, e_delta and the
best-response game hold O(m + n) numbers, not the matrix.
``difference_profiles`` takes the same reductions for many families at once:
the families of one group and one total are stacked, a row is a (family, set)
pair, and one pass of the pair kernel counts them all; a single family is the
stack of one.  The dense matrix (``count_matrix``) is built on demand for the
per-cell reads (``row``, ``cell``, ``column_sum``, ``weighted_sum``) and the
CSV export, and refused past DENSE_CELL_LIMIT cells.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, islice
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


@dataclass(frozen=True, slots=True)
class DisjointFamily:
    """An ordered family of pairwise disjoint, non-empty subsets of one group."""

    group: FiniteGroup
    sets: Tuple[Tuple[int, ...], ...]
    # set once by __post_init__: read many times per classification, and the sets never change
    m: int = field(init=False, repr=False, compare=False)
    sizes: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)

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
        sizes = tuple(map(len, self.sets))
        object.__setattr__(self, "m", len(sizes))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "total", sum(sizes))

    @classmethod
    def of(cls, group: FiniteGroup, *sets: Sequence[int]) -> "DisjointFamily":
        return cls(group, tuple(tuple(sorted(s)) for s in sets))

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
        flat = np.fromiter(chain.from_iterable(self.sets), dtype=np.int64, count=self.total)
        moved = iter(self.group.diff_array(flat, self.group.inv(g)).tolist())
        return DisjointFamily(
            self.group, tuple(tuple(sorted(islice(moved, k))) for k in self.sizes)
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
    # the validated weights w_i the profile was taken with, if any,
    # D * sum_i w_i * N_i(delta) per delta, and D, their common denominator
    weights: Optional[Tuple[Fraction, ...]] = field(default=None, compare=False, repr=False)
    weighted: Optional[Tuple[int, ...]] = field(default=None, compare=False, repr=False)
    weight_scale: Optional[int] = field(default=None, compare=False, repr=False)

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
    first row (with the row count past the last).  No count exceeds most, so
    max(coef) * most * (most rows of a family) bounds every coefficient,
    product and sum: the pass runs in int64 when that bound is below 2^62 and
    over Python ints otherwise, chosen once before the first block.
    """

    def __init__(self, coef: Sequence[int], width: int, most: int, starts: Sequence[int]):
        self.starts = starts
        rows = max(b - a for a, b in zip(starts, starts[1:]))
        dtype = np.int64 if max(coef) * max(most, 1) * rows < 2**62 else object
        self.coef = np.array(coef, dtype=dtype)
        self.sums = np.zeros((len(starts) - 1, width), dtype=dtype)
        self.row = 0

    def add(self, counts: np.ndarray) -> None:
        """Add the next len(counts) rows of N."""
        first = self.row
        self.row += len(counts)
        coef = self.coef[first : self.row]
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


def difference_profile(
    family: DisjointFamily, weights: Optional[Sequence[Fraction]] = None
) -> DifferenceProfile:
    """Count external differences a * b^-1 out of each set into the rest.

    With weights, the profile also holds the weighted column sums.
    """
    return difference_profiles([family], weights)[0]


def difference_profiles(
    families: Sequence[DisjointFamily], weights: Optional[Sequence[Fraction]] = None
) -> List[DifferenceProfile]:
    """The difference profile of each family, many families to one pass of the pair kernel.

    The families of one group and one total T are stacked, wherever they
    stand in the list, at most max(1, BLOCK_CELLS // n) of them: a row of the
    stacked count matrix is a (family, set) pair, and
    ``difference_count_blocks`` with span T counts a pair only when both ends
    lie in one family.  The weights, when given, are every family's: they are
    checked again only for a family whose m differs from the last one
    checked, and scaled once.  Only the group, the total and the block size
    decide the stacking: ``_ColumnSums`` picks int64 or Python ints from the
    rows of the whole stack, so a family whose sums may pass int64 takes its
    stack's sums to Python ints with its own.
    """
    profiles: List[DifferenceProfile] = [None] * len(families)  # type: ignore[list-item]
    weighting: Optional[_Weighting] = None
    stacks: Dict[Tuple[int, int], List[int]] = {}  # (group, total) -> places in the list

    def profile(stack: List[int]) -> None:
        done = _stack_profiles([families[i] for i in stack], weighting)
        for i, p in zip(stack, done):
            profiles[i] = p

    for i, family in enumerate(families):
        if weights is not None and (weighting is None or family.m != len(weighting.weights)):
            checked = check_weights(family.m, weights)
            weighting = _Weighting(checked, *scaled_fractions(checked))
        key = (id(family.group), family.total)
        stack = stacks.setdefault(key, [])
        stack.append(i)
        if len(stack) >= max(1, groups.BLOCK_CELLS // family.n):
            profile(stacks.pop(key))
    for stack in stacks.values():
        profile(stack)
    return profiles


class _Weighting(NamedTuple):
    """Checked weights w_i, their common denominator D and the integer weights D * w_i."""

    weights: Tuple[Fraction, ...]
    scale: int
    coef: Tuple[int, ...]


def _stack_profiles(
    families: Sequence[DisjointFamily], weighting: Optional[_Weighting]
) -> List[DifferenceProfile]:
    """One pass over the stacked count matrix of families of one group and one total.

    Each block is reduced and dropped, so the pass holds O(BLOCK_CELLS + rows
    + families * n) numbers.  Row i of a family sums to k_i * (T - k_i) over
    the n - 1 columns and no count exceeds k_i (a and delta fix b).  So:

    - the row is constant exactly when its largest count times n - 1 equals
      that sum, which fails whenever n - 1 does not divide it;
    - it has at least T - k_i non-zero counts, with equality exactly when every
      count is 0 or k_i, and a count is neither exactly when it is not 0 mod
      k_i: a block is searched for bimodal witnesses only when it has more
      non-zero counts than its rows' T - k_i.
    """
    group, total, width = families[0].group, families[0].total, families[0].n - 1
    # K and K / k_i once per distinct sizes tuple of the stack
    known: Dict[Tuple[int, ...], Tuple[int, Tuple[int, ...]]] = {}
    shapes = []
    for family in families:
        shape = known.get(family.sizes)
        if shape is None:
            shape = known[family.sizes] = scaled_weights(family.sizes)
        shapes.append(shape)
    sizes = list(chain.from_iterable(family.sizes for family in families))
    ms = [family.m for family in families]
    starts = [0, *accumulate(ms)]
    coefs = [list(chain.from_iterable(coef for _, coef in shapes))]
    if weighting is not None:
        coefs.append(weighting.coef * len(families))
    sums = [_ColumnSums(coef, width, max(sizes), starts) for coef in coefs]
    row_sizes = np.array(sizes, dtype=np.int64)
    tops = np.empty(len(sizes), dtype=np.int64)
    witnesses: List[Optional[Tuple[int, int, int]]] = [None] * len(families)
    missing = len(families)
    first = 0
    sets = list(chain.from_iterable(family.sets for family in families))
    for block in difference_count_blocks(group, sets, span=total):
        counts = block[:, 1:]
        last = first + len(counts)
        for column_sums in sums:
            column_sums.add(counts)
        np.maximum.reduce(counts, axis=1, initial=0, out=tops[first:last])
        if missing:
            least = (last - first) * total - sum(sizes[first:last])
            if np.count_nonzero(counts) != least:
                between = counts % row_sizes[first:last, None] != 0
                # the first such count of each family, in row then delta order
                rows = np.flatnonzero(between.any(axis=1))
                owners = np.searchsorted(starts, rows + first, side="right") - 1
                lead = np.ones(len(rows), dtype=bool)
                np.not_equal(owners[1:], owners[:-1], out=lead[1:])
                rows, owners = rows[lead], owners[lead]
                cols = between[rows].argmax(axis=1)
                found = zip(owners.tolist(), rows.tolist(), cols.tolist(),
                            counts[rows, cols].tolist())
                for f, r, d, count in found:
                    if witnesses[f] is None:
                        witnesses[f] = (first + r - starts[f], d + 1, count)
                        missing -= 1
        first = last
    constant = np.logical_and.reduceat(
        tops * width == row_sizes * (total - row_sizes), starts[:-1]
    ).tolist()
    row_tops = tops.tolist()
    reciprocal = sums[0].values()
    if weighting is None:
        weights = scale = None
        weighted = [None] * len(families)
    else:
        weights, scale = weighting.weights, weighting.scale
        weighted = sums[1].values()
    return [
        DifferenceProfile(
            family, shape[0], reciprocal[f],
            tuple(row_tops[starts[f] : starts[f + 1]]) if constant[f] else None,
            witnesses[f], weights, weighted[f], scale,
        )
        for f, (family, shape) in enumerate(zip(families, shapes))
    ]


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


@lru_cache(maxsize=1 << 12)
def r_bound(n: int, m: int, total: int) -> Fraction:
    """Averaging lower bound (m-1)*T / (m*(n-1)) on the worst-case rate, kept per (n, m, T)."""
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
    return Fraction(sum(c * x for c, x in zip(coef, profile.matrix[:, col].tolist())), d)
