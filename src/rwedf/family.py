"""Disjoint set families and their external difference profiles.

Conventions used everywhere: sets hold element indices of one finite group,
the identity is 0, and the difference of a pair (a, b) is the left difference
a * b^-1.  Row i of a difference profile counts, for each delta != 0, the
ordered pairs (a, b) with a in A_i, b in any other set, and a * b^-1 = delta.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import BadWeight, IdentityDelta
from .groups import FiniteGroup, Subgroup, closure, difference_counts, self_difference_counts


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

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.sets)

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.sets)

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
    """Read-only int64 count matrix: rows are family sets, columns are delta = 1..n-1."""

    family: DisjointFamily
    matrix: np.ndarray = field(compare=False, repr=False)

    def row(self, i: int) -> Tuple[int, ...]:
        return tuple(self.matrix[i].tolist())

    def cell(self, i: int, delta: int) -> int:
        return int(self.matrix[i, delta_column(self.family.n, delta)])

    def column_sum(self, delta: int) -> int:
        return int(self.matrix[:, delta_column(self.family.n, delta)].sum())


def difference_profile(family: DisjointFamily) -> DifferenceProfile:
    """Count external differences a * b^-1 out of each set into the rest."""
    matrix = difference_counts(family.group, family.sets)[:, 1:]
    matrix.setflags(write=False)
    return DifferenceProfile(family, matrix)


def scaled_weights(sizes: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Common denominator K = lcm(sizes) and integer weights K / k_i."""
    k = lcm(*sizes)
    return k, tuple(k // s for s in sizes)


def scaled_fractions(weights: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """Common denominator D of the weights and the integer weights D * w_i."""
    ws = [Fraction(w) for w in weights]
    d = lcm(*(w.denominator for w in ws))
    return d, tuple(int(w * d) for w in ws)


def column_sums(matrix: np.ndarray, coef: Sequence[int]) -> List[int]:
    """Exact sum_i coef_i * matrix[i, d] for every column d, as Python ints.

    One matrix product: in int64 while max(coef) * max(count, 1) * m < 2^62 bounds
    every sum and every coefficient, otherwise over Python ints.
    """
    peak = int(matrix.max(initial=1))
    if max(coef) * peak * len(coef) < 2**62:
        return (np.array(coef, dtype=np.int64) @ matrix).tolist()
    return (np.array(coef, dtype=object) @ matrix.astype(object)).tolist()


def reciprocal_sums(profile: DifferenceProfile) -> Tuple[int, List[int]]:
    """Integer-scaled reciprocal row sums: K and [K * sum_i N_i(delta)/k_i] per delta."""
    k, coef = scaled_weights(profile.family.sizes)
    return k, column_sums(profile.matrix, coef)


def e_delta(family: DisjointFamily, profile: DifferenceProfile, delta: int) -> Fraction:
    """Exact adversary success probability at shift delta."""
    col = delta_column(family.n, delta)
    k, coef = scaled_weights(family.sizes)
    (total,) = column_sums(profile.matrix[:, col : col + 1], coef)
    return Fraction(total, k * family.m)


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
    matrix = profile.matrix
    between = (matrix != 0) & (matrix != np.array(family.sizes)[:, None])
    if not between.any():
        return BimodalVerdict(True, None)
    i, d = divmod(int(between.argmax()), matrix.shape[1])
    return BimodalVerdict(False, (i, d + 1, int(matrix[i, d])))


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
    (total,) = column_sums(profile.matrix[:, col : col + 1], coef)
    return Fraction(total, d)
