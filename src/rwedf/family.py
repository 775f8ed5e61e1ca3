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

The kernel counts every pass by one identity over the pairs with
a * b^-1 = delta, the diagonal a = b included: with S the support and
C = G \\ S, N_i(delta) = #{A_i x S} - #{A_i x A_i}
= k_i - #{A_i x A_i} - #{A_i x C}, since each a and delta have exactly one
b in G with a * b^-1 = delta.  Each step subtracts its rows' own-set pairs,
then adds the pairs with S or subtracts those with C, whichever set is
smaller, by one integer comparison and no switch: the support route visits
T^2 + sum k_i^2 pairs and the complement route T * (n - T) + sum k_i^2, a
few thousand where the support visits millions on the partitions of
G \\ {0}.  Either route fills one row block at a time, so a pass holds
O(BLOCK_CELLS + n) numbers.
``difference_profiles`` takes the same reductions for many families at once:
the families of one group and one total are stacked, a row is a (family, set)
pair, and one pass of the pair kernel counts them all; a single family is the
stack of one.  A stack goes packed, as the set sizes and every member as
int64 in set order, to the one stack reducer (``_stack_profiles``), which
returns each reduction as an array over the stack's families and makes no
Python object per family; the census's cross-checks call it on their packed
rows directly.  The dense matrix (``count_matrix``) is built on demand for the
per-cell reads (``row``, ``cell``, ``column_sum``, ``weighted_sum``) and the
CSV export, and refused past DENSE_CELL_LIMIT cells.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, islice
from math import lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import groups
from .errors import BadWeight, IdentityDelta, ProfileTooLarge
from .groups import (
    FiniteGroup,
    Subgroup,
    _member_differences,
    check_integer,
    closure,
    difference_count_blocks,
    packed,
)

# Most cells m * (n - 1) a dense count matrix may have (256 MB of int64).  The
# whole-family checks never build one; only the per-cell reads and the CSV
# export do, and they are refused past this before anything is allocated.
DENSE_CELL_LIMIT = 1 << 25


@dataclass(frozen=True, slots=True)
class DisjointFamily:
    """An ordered family of one or more pairwise disjoint, non-empty subsets of one group."""

    group: FiniteGroup
    sets: Tuple[Tuple[int, ...], ...]
    # set once by __post_init__: read many times per classification, and the sets never change
    m: int = field(init=False, repr=False, compare=False)
    sizes: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sets:
            raise ValueError("a family needs at least one set")
        n = self.group.order
        used = bytearray(n)  # used[x]: x lies in a set already checked
        for i, members in enumerate(self.sets):
            if not members:
                raise ValueError(f"set {i} is empty")
            prev = -1
            clash = 0
            for x in members:
                if type(x) is not int:
                    check_integer(x)  # a numpy integer passes; a bool or float does not
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
        moved = iter(self.group.diff_array(packed(self.sets)[1], self.group.inv(g)).tolist())
        return DisjointFamily(
            self.group, tuple(tuple(sorted(islice(moved, k))) for k in self.sizes)
        )

    def canonical_key(self) -> Tuple[Tuple[int, ...], ...]:
        """Order-free fingerprint: the sets in canonical order (``canonical_sets``)."""
        return canonical_sets(self.sets)


def canonical_sets(sets: Iterable[Iterable[int]]) -> Tuple[Tuple[int, ...], ...]:
    """The canonical key of a family given as unsorted sets.

    The stable sort by length, largest first, after the sort by members is the
    canonical set order.
    """
    return tuple(sorted(sorted([tuple(sorted(s)) for s in sets]), key=len, reverse=True))


def _check_packed(
    group: FiniteGroup, total: int, parts: np.ndarray, sizes: np.ndarray, elems: np.ndarray
) -> None:
    """ValueError unless each packed family is one that ``DisjointFamily`` accepts.

    Family f has parts[f] sets of the given sizes, with their members in turn
    in elems, and every family holds total elements.  The checks of
    ``DisjointFamily.__post_init__``, in numpy over all the families at once:
    every family has a set and every set a member, every member lies in
    0..n-1, each set is strictly increasing, and the sets of each family are
    pairwise disjoint, by a sort of each family's members and a neighbour
    comparison.
    """
    starts = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(parts, out=starts[1:])
    if (parts < 1).any() or (sizes < 1).any():
        raise ValueError("a packed family has an empty set, or no set")
    if (np.add.reduceat(sizes, starts[:-1]) != total).any() or len(elems) != len(parts) * total:
        raise ValueError(f"a packed family does not hold {total} elements")
    if elems.min() < 0 or elems.max() >= group.order:
        raise ValueError(f"a packed element lies outside 0..{group.order - 1}")
    rising = np.diff(elems) > 0
    rising[np.cumsum(sizes[:-1]) - 1] = True  # each set may start below the last one's end
    if not rising.all():
        raise ValueError("a packed set is not strictly increasing")
    members = np.sort(elems.reshape(-1, total), axis=1)
    if (members[:, 1:] == members[:, :-1]).any():
        raise ValueError("a packed family has overlapping sets")


def set_index(m: int, i: int) -> int:
    """Profile row i of a family of m sets, i in 0..m-1; no other index wraps round to a row.

    An index that is not an integer (``check_integer``) raises TypeError.
    """
    check_integer(i, "set index")
    if not 0 <= i < m:
        raise ValueError(f"set index {i} is outside 0..{m - 1}")
    return i


def delta_column(n: int, delta: int) -> int:
    """Profile column delta - 1 of a shift in 1..n-1; no other delta wraps round to a column.

    A shift that is not an integer (``check_integer``) raises TypeError.
    """
    check_integer(delta, "delta")
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
        i = set_index(self.family.m, i)
        return tuple(self.matrix[i].tolist())

    def cell(self, i: int, delta: int) -> int:
        i, col = set_index(self.family.m, i), delta_column(self.family.n, delta)
        return int(self.matrix[i, col])

    def column_sum(self, delta: int) -> int:
        col = delta_column(self.family.n, delta)
        return int(self.matrix[:, col].sum())


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
    matrix = np.empty((family.m, family.n - 1), dtype=np.int64)
    row = 0
    for block in difference_count_blocks(family.group, *packed(family.sets)):
        matrix[row : row + len(block)] = block[:, 1:]  # before the next block overwrites it
        row += len(block)
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

    def __init__(self, coef: np.ndarray, width: int, most: int, starts: np.ndarray):
        self.starts = starts
        rows = int(np.diff(starts).max())
        wide = int(coef.max()) * max(most, 1) * rows >= 2**62
        self.coef = coef.astype(object if wide else np.int64, copy=False)
        self.sums = np.zeros((len(starts) - 1, width), dtype=self.coef.dtype)
        self.row = 0

    def add(self, counts: np.ndarray) -> None:
        """Add the next len(counts) rows of N."""
        first = self.row
        self.row += len(counts)
        coef = self.coef[first : self.row]
        # the families lo..hi-1 have rows in this block
        lo = int(self.starts.searchsorted(first, side="right")) - 1
        hi = int(self.starts.searchsorted(self.row))
        if hi - lo == 1:  # reduceat over one family is slower
            # int64 @ has no BLAS path: on a 256 x 1023 block it takes ~670 us and
            # a plain column sum ~120 us, which serves rows whose coefficients agree
            if coef.dtype != object and coef.min() == coef.max():
                self.sums[lo] += coef[0] * counts.sum(axis=0)
            else:
                self.sums[lo] += coef @ counts
        else:
            cuts = np.maximum(self.starts[lo:hi] - first, 0)
            self.sums[lo:hi] += np.add.reduceat(coef[:, None] * counts, cuts, axis=0)

    def values(self) -> np.ndarray:
        """Each family's sums, one row a family."""
        return self.sums


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
    stand in the list, at most max(1, BLOCK_CELLS // n) of them: a stack is
    packed (``_stack_profiles``), and each family's profile is its slice of
    the stack's arrays.  The weights, when given, are every family's: they
    are checked again only for a family whose m differs from the last one
    checked, and scaled once.  Only the group, the total and the block size
    decide the stacking: ``_ColumnSums`` picks int64 or Python ints from the
    rows of the whole stack, so a family whose sums may pass int64 takes its
    stack's sums to Python ints with its own.
    """
    profiles: List[DifferenceProfile] = [None] * len(families)  # type: ignore[list-item]
    weighting: Optional[_Weighting] = None
    stacks: Dict[Tuple[int, int], List[int]] = {}  # (group, total) -> places in the list

    def profile(stack: List[int]) -> None:
        fams = [families[i] for i in stack]
        sizes, elems = packed(list(chain.from_iterable(f.sets for f in fams)))
        parts = [f.m for f in fams]
        done = _stack_profiles(fams[0].group, fams[0].total, parts, sizes, elems, weighting)
        scale, reciprocal, tops, constant, witnesses = (
            column.tolist() for column in done[:5])
        weighted = None if done.weighted is None else done.weighted.tolist()
        weights, weight_scale = (None, None) if weighting is None else (
            weighting.weights, weighting.scale)
        starts = [0, *accumulate(parts)]
        for f, i in enumerate(stack):
            profiles[i] = DifferenceProfile(
                fams[f], scale[f], tuple(reciprocal[f]),
                tuple(tops[starts[f] : starts[f + 1]]) if constant[f] else None,
                tuple(witnesses[f]) if witnesses[f][0] >= 0 else None,
                weights, None if weighted is None else tuple(weighted[f]), weight_scale,
            )

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


class StackProfiles(NamedTuple):
    """The reductions of a stack of F families, as arrays over its families and its rows (sets)."""

    scale: np.ndarray  # (F,) K = lcm of each family's sizes
    reciprocal: np.ndarray  # (F, n - 1) K * sum_i N_i(delta) / k_i
    tops: np.ndarray  # (rows,) each row's largest count
    constant: np.ndarray  # (F,) whether every row of the family is constant
    # (F, 3) the first (set index, delta, count) whose count is neither 0 nor
    # the set's size, in row then delta order; -1 throughout where none is
    witnesses: np.ndarray
    weighted: Optional[np.ndarray]  # (F, n - 1) D * sum_i w_i * N_i(delta), with weights


def _family_scales(sizes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """K = lcm of each family's set sizes, family f's sizes at starts[f]:starts[f + 1].

    Every K divides the lcm of the stack's distinct sizes, so when that fits
    int64 one lcm reduction serves; otherwise each K is a Python int.  (The
    distinct sizes come from a bincount: ``np.unique`` imports numpy.ma, about
    0.4 MB of resident memory, on first use.)
    """
    if lcm(*np.flatnonzero(np.bincount(sizes)).tolist()) < 2**63:
        return np.lcm.reduceat(sizes, starts[:-1])
    bounds = starts.tolist()
    return np.array([lcm(*sizes[a:b].tolist()) for a, b in zip(bounds, bounds[1:])], dtype=object)


def _stack_profiles(
    group: FiniteGroup,
    total: int,
    parts: Sequence[int],
    sizes: Sequence[int],
    elems: np.ndarray,
    weighting: Optional[_Weighting] = None,
) -> StackProfiles:
    """One pass over the stacked count matrix of packed families of one group and one total.

    Family f has parts[f] sets, the sets have the given sizes and their
    members come in ``elems``, as the pair kernel takes them; every family
    holds total elements.  Each block is reduced and dropped, so the pass
    holds O(BLOCK_CELLS + rows + families * n) numbers, and no Python object
    is made per family.  Row i of a family sums to k_i * (T - k_i) over the
    n - 1 columns and no count exceeds k_i (a and delta fix b).  So:

    - the row is constant exactly when its largest count times n - 1 equals
      that sum, which fails whenever n - 1 does not divide it;
    - it has at least T - k_i non-zero counts, with equality exactly when every
      count is 0 or k_i, and a count is neither exactly when it is not 0 mod
      k_i: a block is searched for bimodal witnesses only when it has more
      non-zero counts than its rows' T - k_i.
    """
    width = group.order - 1
    row_sizes = np.asarray(sizes, dtype=np.int64)
    parts = np.asarray(parts, dtype=np.int64)
    families = len(parts)
    starts = np.zeros(families + 1, dtype=np.int64)
    parts.cumsum(out=starts[1:])
    scale = _family_scales(row_sizes, starts)
    most = int(row_sizes.max())
    coefs = [scale.repeat(parts) // row_sizes]
    if weighting is not None:
        coefs.append(np.tile(np.array(weighting.coef, dtype=object), families))
    sums = [_ColumnSums(coef, width, most, starts) for coef in coefs]
    tops = np.empty(len(row_sizes), dtype=np.int64)
    witnesses = np.full((families, 3), -1, dtype=np.int64)
    missing = families
    first = 0
    for block in difference_count_blocks(group, row_sizes, elems, span=total):
        counts = block[:, 1:]
        last = first + len(counts)
        for column_sums in sums:
            column_sums.add(counts)
        np.maximum.reduce(counts, axis=1, initial=0, out=tops[first:last])
        if missing:
            least = (last - first) * total - int(row_sizes[first:last].sum())
            if np.count_nonzero(counts) != least:
                between = counts % row_sizes[first:last, None] != 0
                # the first such count of each family, in row then delta order
                rows = between.any(axis=1).nonzero()[0]
                owners = np.searchsorted(starts, rows + first, side="right") - 1
                lead = np.ones(len(rows), dtype=bool)
                np.not_equal(owners[1:], owners[:-1], out=lead[1:])
                # a family whose witness an earlier block found keeps it
                lead &= witnesses[owners, 0] < 0
                rows, owners = rows[lead], owners[lead]
                cols = between[rows].argmax(axis=1)
                witnesses[owners, 0] = first + rows - starts[owners]
                witnesses[owners, 1] = cols + 1
                witnesses[owners, 2] = counts[rows, cols]
                missing -= len(owners)
        first = last
    constant = np.logical_and.reduceat(
        tops * width == row_sizes * (total - row_sizes), starts[:-1])
    return StackProfiles(scale, sums[0].values(), tops, constant, witnesses,
                         sums[1].values() if weighting is not None else None)


def scaled_weights(sizes: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Common denominator K = lcm(sizes) and integer weights K / k_i."""
    k = lcm(*sizes)
    return k, tuple(k // s for s in sizes)


def scaled_fractions(weights: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """Common denominator D of the weights and the integer weights D * w_i."""
    ws = [Fraction(w) for w in weights]
    d = lcm(*(w.denominator for w in ws))
    return d, tuple(int(w * d) for w in ws)


def _profile_of(
    family: DisjointFamily,
    profile: Optional[DifferenceProfile] = None,
    weights: Optional[Sequence[Fraction]] = None,
) -> DifferenceProfile:
    """The given profile when it is the family's (taken with these weights, if any), else a new one.

    A profile is the family's when ``profile.family == family``: the same
    group object and the same sets.  One of another family raises ValueError.
    """
    if profile is not None:
        if profile.family != family:
            raise ValueError("the profile is of another family")
        if weights is None or profile.weights == tuple(weights):
            return profile
    return difference_profile(family, weights)


def e_delta(family: DisjointFamily, profile: DifferenceProfile, delta: int) -> Fraction:
    """Exact adversary success probability at shift delta."""
    profile = _profile_of(family, profile)
    total = profile.reciprocal[delta_column(family.n, delta)]
    return Fraction(total, profile.scale * family.m)


def e_hat(family: DisjointFamily, profile: Optional[DifferenceProfile] = None) -> Fraction:
    """Worst-case success probability: max over delta of e_delta."""
    if family.n < 2:
        raise ValueError("e_hat needs a group with at least one non-identity element")
    profile = _profile_of(family, profile)
    return Fraction(max(profile.reciprocal), profile.scale * family.m)


@lru_cache(maxsize=1 << 12)
def r_bound(n: int, m: int, total: int) -> Fraction:
    """Averaging lower bound (m-1)*T / (m*(n-1)) on the worst-case rate, kept per (n, m, T)."""
    if n < 2:
        raise ValueError("bound needs n >= 2")
    if m < 1 or total < m or total > n:
        raise ValueError(f"no family has m={m} sets with {total} elements in a group of {n}")
    return Fraction((m - 1) * total, m * (n - 1))


def internal_differences(group: FiniteGroup, members: Sequence[int]) -> Tuple[int, ...]:
    """Sorted distinct differences a * b^-1 over ordered pairs of distinct members.

    One membership step, as in ``closure``: the pairs a = b give only the
    identity, so it is dropped.  A member outside 0..n-1 raises ValueError.
    """
    reached = _member_differences(group, sorted(set(members)))
    reached[0] = False
    return tuple(np.flatnonzero(reached).tolist())


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
    witness = _profile_of(family, profile).bimodal_witness
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
    profile = _profile_of(family, profile)
    col = delta_column(family.n, delta)
    d, coef = scaled_fractions(check_weights(family.m, weights))
    return Fraction(sum(c * x for c, x in zip(coef, profile.matrix[:, col].tolist())), d)
