"""The census (``rwedf_census``): every family over a group, and the rate equivalence on each.

The census shares no code with the search.  It uses translation symmetry: it
sweeps one support per translation orbit and counts each set partition of it
once per distinct translate of the support, n / |Stab(U)| times.  A
partition's reciprocal column sums, scaled by K = lcm(1..n), are the sum over
its blocks B of (K / |B|) times the differences from B to the rest of the
support, which depend on B alone: each support gets a table of them for all
2^s subsets (``_subset_table``, 2^s * (n-1) int64 cells), and its set
partitions come as restricted growth strings in int8 blocks that carry each
row's int32 block masks and summed table rows.  A block is sized by cells, not
rows: it holds at most about CENSUS_BLOCK mask and sum cells, so small
supports come in few large blocks.  The blocks are column-major, so a row's
reductions run over contiguous columns.  Orders from 21 up are refused, as the
whole group's table would pass DENSE_CELL_LIMIT.  ``cross_check_every = s``
still classifies floor(families / s) genuine, distinct families: the
translates that stand at the crossed positions.  A block's crossed families
are built in numpy: each position becomes a (row, shift) pair by one divmod,
one gather from the group's diff_array table translates the members, and one
sort on (set, element) orders them.  They go through ``classify_many`` in
batches of CROSS_CHECK_BATCH, in census order, across blocks and supports, and
each report is compared, in integers, with what the block's own scoring found.
``CensusStats.elapsed_s`` and ``cross_check_s`` time the sweep and the part of
it the cross-checks take.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import lcm
from time import perf_counter
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .classify import classify_many
from .errors import GroupTooLarge
from .family import DENSE_CELL_LIMIT, DisjointFamily
from .groups import FiniteGroup

CENSUS_BLOCK = 1 << 16  # most mask and sum cells of one block of census rows
# Crossed census families classified in one batch: each holds about 1 KB of
# Python objects (family, profile, report) until its batch is compared.
CROSS_CHECK_BATCH = 128


@dataclass
class CensusStats:
    families: int = 0
    rwedf: int = 0
    violations: int = 0
    cross_checked: int = 0
    cross_failures: int = 0
    leaves: int = 0  # representative families evaluated
    supports: int = 0  # support orbits swept
    # seconds the whole census took, and the part of them spent on the cross-checks;
    # left out of == and repr, which stay fixed from run to run
    elapsed_s: float = field(default=0.0, compare=False, repr=False)
    cross_check_s: float = field(default=0.0, compare=False, repr=False)


def _support_orbits(diff: List[List[int]]) -> Iterator[Tuple[List[int], List[int]]]:
    """One support per right-translation orbit of the non-empty subsets.

    Yields (members, shifts) for each subset U that is the least, as a bit
    mask, of its translates U * h^-1 = {diff[x][h]}.  ``shifts`` holds one h
    per distinct translate, in order of h, so it starts at h = 0 and has
    n / |Stab(U)| entries.
    """
    n = len(diff)
    bits = [[1 << diff[x][h] for x in range(n)] for h in range(n)]
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        translates: Dict[int, int] = {}
        for h, row in enumerate(bits):
            t = 0
            for x in members:
                t |= row[x]
            if t < mask:
                break
            translates.setdefault(t, h)
        else:
            yield members, list(translates.values())


def _census_scale(n: int) -> int:
    """lcm(1..n), the scale of every census column sum; GroupTooLarge for n >= 41.

    A support of s <= n points meets each difference at most s times, so both
    sides of the bound test stay below lcm(1..n) * n * (n-1), which must fit int64.
    """
    scale = 1
    for k in range(2, n + 1):
        scale = lcm(scale, k)
        if scale * n * (n - 1) >= 1 << 63:
            raise GroupTooLarge(f"order {n} is too large for an int64 census (n <= 40)")
    return scale


def _subset_table(group: FiniteGroup, members: List[int], scale: int) -> np.ndarray:
    """Every subset B of a support S as a census block: its scaled differences to S - B.

    Row mask, B the members whose bits are set in mask, holds at column
    delta - 1 the count #{x in B, y in S - B : x * y^-1 = delta} times scale /
    |B|; row 0 is zero.  A partition of S has as its scaled reciprocal column
    sums the sum of its blocks' rows.  The counts are built by doubling over
    the points: N[mask | 2^q] = N[mask] + out_q - G_q[mask] for mask over the
    points before q, where out_q counts the pairs (x_q, y), y in S - {x_q},
    and G_q[mask] the pairs (x_q, x) and (x, x_q), x in mask; G_q is itself
    built by doubling, in the rows it is subtracted into.  Besides the 2^s *
    (n-1) cells of the table the build takes O(s^2 * n) cells.  The table is
    column-major: ``_set_partitions`` gathers its rows as columns of table.T.
    """
    s, n = len(members), group.order
    points = np.array(members, dtype=np.int64)
    i, j = np.nonzero(~np.eye(s, dtype=bool))
    pair = np.zeros((s, s, n - 1), dtype=np.int64)  # pair[i, j]: the column of (x_i, x_j)
    pair[i, j, group.diff_array(points[i], points[j]) - 1] = 1
    out = pair.sum(axis=1)
    both = pair + pair.transpose(1, 0, 2)
    table = np.zeros((n - 1, 1 << s), dtype=np.int64).T
    sizes = np.zeros(1 << s, dtype=np.int64)  # |B|, built by the same doubling
    for q in range(s):
        half = 1 << q
        grown = table[half : 2 * half]
        for r in range(q):
            np.add(grown[: 1 << r], both[q, r], out=grown[1 << r : 2 << r])
        np.subtract(table[:half], grown, out=grown)
        grown += out[q]
        np.add(sizes[:half], 1, out=sizes[half : 2 * half])
    sizes[0] = 1  # row 0 stays zero
    table *= (scale // sizes)[:, None]
    return table


def _set_partitions(table: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every set partition of a support's s points, in lex order of restricted growth strings.

    ``table`` is the support's ``_subset_table``, 2^s rows.  Row a_0..a_{s-1}
    of a restricted growth string puts point i in block a_i, with a_0 = 0 and
    a_i <= 1 + max(a_0..a_{i-1}) (Knuth, TAOCP 4A, 7.2.1.5), so blocks are
    numbered in order of their least point.  Each block of rows comes as
    (rgs, masks, sums): the int8 strings, each row's block bit masks (s int32
    columns, 0 past the last block) and the sum of the table rows of those
    masks.  A row for p - 1 points grows into at most p rows for p points, of
    s mask and n - 1 sum cells each, so a block for p points is grown from
    max(1, CENSUS_BLOCK // (p * (s + n - 1))) rows for p - 1 points and holds
    at most about CENSUS_BLOCK such cells.  When point p joins block a the
    sums gain table[new] - table[old], old the block's mask before and new =
    old | 2^p after.  The blocks are built column-major, one array row per
    column of the strings, masks or sums, and come as their transposes: a
    row's reductions (its largest label, its largest sum) then run over whole
    contiguous columns, and each growth step gathers whole rows of table.T.
    """
    s = len(table).bit_length() - 1
    row_cells = s + table.shape[1]
    columns = table.T  # columns[:, mask] is table[mask]

    def partitions(p: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The transposed blocks (rgs.T, masks.T, sums.T) of the partitions of the first p points."""
        if p == 1:
            masks = np.zeros((s, 1), dtype=np.int32)
            masks[0, 0] = 1
            yield np.zeros((1, 1), dtype=np.int8), masks, columns[:, 1:2]
            return
        point = p - 1
        last = np.arange(p, dtype=np.int8)
        step = max(1, CENSUS_BLOCK // (p * row_cells))
        for prefixes, prefix_masks, prefix_sums in partitions(point):
            for lo in range(0, prefixes.shape[1], step):
                head = prefixes[:, lo : lo + step]
                grow = last <= head.max(axis=0)[:, None] + 1
                tails = np.broadcast_to(last, grow.shape)[grow]
                parent = np.repeat(np.arange(lo, lo + head.shape[1]), grow.sum(axis=1))
                rows = np.arange(len(parent))
                rgs = np.empty((p, len(parent)), dtype=np.int8)
                np.take(prefixes, parent, axis=1, out=rgs[:point])
                rgs[point] = tails
                masks = np.take(prefix_masks, parent, axis=1)
                old = masks[tails, rows]
                new = old | (1 << point)
                masks[tails, rows] = new
                sums = np.take(prefix_sums, parent, axis=1)
                sums += np.take(columns, new, axis=1)
                sums -= np.take(columns, old, axis=1)
                yield rgs, masks, sums

    return ((rgs.T, masks.T, sums.T) for rgs, masks, sums in partitions(s))


def _crossed_families(
    group: FiniteGroup, moved: np.ndarray, rgs: np.ndarray, parts: Sequence[int]
) -> List[DisjointFamily]:
    """The families that put moved[c, i] in set rgs[c, i], for each row c of parts[c] sets.

    One sort on (set, element) orders each row's members as its sets in turn,
    one bincount gives every set's size, and the sets are cut from the
    members of all rows at once.
    """
    rows, s = rgs.shape
    labels = rgs.astype(np.int64)
    keys = labels * group.order + moved
    keys.sort(axis=1)
    keys %= group.order
    labels += np.arange(rows)[:, None] * s
    sizes = np.bincount(labels.ravel(), minlength=rows * s)
    members = keys.ravel().tolist()
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    sets = [tuple(members[a:b]) for a, b in zip([0, *ends], ends)]
    cuts = list(accumulate(parts))
    return [DisjointFamily(group, tuple(sets[a:b])) for a, b in zip([0, *cuts], cuts)]


def _cross_check(
    stats: CensusStats,
    crossed: List[DisjointFamily],
    expected: List[Tuple[bool, int, int, int, bool]],
    scale: int,
) -> None:
    """Classify the crossed families in one batch, count the reports that disagree, and clear both.

    expected[c] is what the census says of crossed[c], in integers: whether
    its sums are constant, the first sum ell * scale, the largest sum best =
    e_hat * scale * m, m, and whether e_hat meets the averaging bound.
    """
    stats.cross_checked += len(crossed)
    for report, (flat, ell, best, m, meets) in zip(classify_many(crossed), expected):
        rw, ehat, bound = report.rwedf, report.e_hat, report.r_bound
        if flat:
            ell_ok = rw is not None and rw.numerator * scale == ell * rw.denominator
        else:
            ell_ok = rw is None
        ehat_ok = ehat.numerator * scale * m == best * ehat.denominator
        optimal = ehat.numerator * bound.denominator == bound.numerator * ehat.denominator
        if not (ell_ok and ehat_ok and optimal == meets):
            stats.cross_failures += 1
    crossed.clear()
    expected.clear()


def rwedf_census(group: FiniteGroup, cross_check_every: int = 0) -> CensusStats:
    """Sweep every family over the group (every support, every set partition).

    For each family it evaluates, in exact integer arithmetic, whether the
    reciprocally weighted column sums are constant and whether the worst-case
    rate meets the averaging bound, counting any family where the two verdicts
    disagree.  Both verdicts depend only on the left differences, which right
    translation keeps, so the sweep visits one support per translation orbit,
    partitions it every way, and counts each partition once per distinct
    translate of the support (n / |Stab(U)| times).  With cross_check_every =
    s > 0, the census family at every s-th position, floor(families / s) of
    them, is re-checked through the classify pipeline (``classify_many``, in
    batches of CROSS_CHECK_BATCH families in census order): a partition
    weighted w stands at w consecutive positions, one per translate, and the
    translate at the crossed position is the family checked.  Each report is
    compared with the block's own integer sums.  ``elapsed_s`` and
    ``cross_check_s`` of the result time the whole sweep and the cross-checks
    in it.  Orders from 21 up are refused: the whole group's subset table
    would pass DENSE_CELL_LIMIT cells.
    """
    began = perf_counter()
    n = group.order
    scale = _census_scale(n)
    cells = (1 << n) * (n - 1)
    if cells > DENSE_CELL_LIMIT:
        raise GroupTooLarge(
            f"order {n} needs a census subset table of 2^{n} x {n - 1} = {cells} cells, "
            f"past DENSE_CELL_LIMIT {DENSE_CELL_LIMIT}"
        )
    diff = group.diff_rows
    every = cross_check_every if n > 1 else 0
    stats = CensusStats()
    crossed: List[DisjointFamily] = []
    expected: List[Tuple[bool, int, int, int, bool]] = []
    if every:
        elements = np.arange(n)
        translate = group.diff_array(elements[:, None], elements)  # [x, h] = x * h^-1
    for members, shifts in _support_orbits(diff):
        stats.supports += 1
        s, w = len(members), len(shifts)
        if every:
            points, moves = np.array(members), np.array(shifts)
        for rgs, _, sums in _set_partitions(_subset_table(group, members, scale)):
            rows = len(rgs)
            m = rgs.max(axis=1).astype(np.int64) + 1
            constant = (sums == sums[:, :1]).all(axis=1)
            best = sums.max(axis=1, initial=0)
            meets_bound = best * (n - 1) == scale * (m - 1) * s
            stats.leaves += rows
            stats.rwedf += w * int(constant.sum())
            stats.violations += w * int((constant != meets_bound).sum())
            start = stats.families
            stats.families += w * rows
            if not every:
                continue
            checking = perf_counter()
            # the block's crossed positions, in census order, at most a batch at a time
            crossing = np.arange(start - start % every + every, stats.families + 1, every)
            while len(crossing):
                room = CROSS_CHECK_BATCH - len(crossed)
                # each position as a (row, shift) pair
                r, t = np.divmod(crossing[:room] - start - 1, w)
                crossing = crossing[room:]
                parts = m[r].tolist()
                crossed += _crossed_families(
                    group, translate[points, moves[t][:, None]], rgs[r], parts)
                expected += zip(constant[r].tolist(), sums[r, 0].tolist(), best[r].tolist(),
                                parts, meets_bound[r].tolist())
                if len(crossed) == CROSS_CHECK_BATCH:
                    _cross_check(stats, crossed, expected, scale)
            stats.cross_check_s += perf_counter() - checking
    if crossed:
        checking = perf_counter()
        _cross_check(stats, crossed, expected, scale)
        stats.cross_check_s += perf_counter() - checking
    stats.elapsed_s = perf_counter() - began
    return stats
