"""Exhaustive search for families with required classifications.

Canonical generation: sets are filled in size order (largest first), each set's
members ascend, and among runs of equal-sized sets the least members (anchors)
increase.  Every unordered family of the requested sizes is therefore visited
at most once.

Caps decide the leaves: the searcher keeps, per column cap, the sums
sum_i c_i N_i(d) (edf: c_i = 1, rwedf: K / k_i, wedf: the scaled weights) and,
when sedf, gsedf or bimodal is required, the live count N_i(d) of every set,
and cuts a placement that lifts a count or a sum above its cap.  In a complete
family the counts and sums add up to exactly (n-1) times each cap (see
``_build_caps``), so a leaf under every cap already passes edf, sedf, gsedf,
rwedf (and ``target_ell``) and wedf.  bimodal is read off the live counts,
and star_partition holds by construction: the identity is never placed, the
sizes add up to n-1, and each completed set is cut unless it closes to a
subgroup with the identity.  No leaf runs the classifier; the
naive generate-and-test path below does, and is the oracle for the search: it
collects its leaves in order and classifies them with ``classify_many``.

Symmetry: right translation F -> F*g keeps every left difference a * b^-1,
and a group automorphism sigma maps a * b^-1 to sigma(a) * sigma(b)^-1, so it
permutes the difference columns and keeps each set in its position.  A family
therefore passes the filter exactly when each member of its orbit under T x| A
does, where T is the right translations and A is the cheap automorphism
subgroup of ``FiniteGroup.automorphism_subgroup`` (units on Z_n, GF(p^e)^* on
elementary abelian groups, products of those, the identity elsewhere).  The
search walks only a part of the tree that holds at least one member of every
orbit: set 0 is anchored at the identity 0, and when a set B of the block of
largest sets is full, the branch is cut if some sigma(B * a^-1), sigma in A and
a in B, sorts before set 0.  Those images are the same for every member of an
orbit, and the member whose set 0 is the least of them passes.  Each hit's
orbit is then expanded: every sigma(F), then the translation class of each
new image, so the hit list equals the full walk's; ``SearchStats.nodes``
counts the reduced tree.  Two requirements are not translation invariant and
take the full walk with no symmetry: star_partition (the identity must stay
outside the union), and wedf with different weights on equal-sized sets
(translation can reorder those sets, and the weights attach by position).
There ``dedup="translation"`` keeps the least hit of each translation class,
which need not be the least translate.  Everywhere else it keeps the least
key of each translation class in the orbit.

The census (``rwedf_census``) uses translation symmetry: it sweeps one support
per translation orbit and counts each set partition of it once per distinct
translate of the support, n / |Stab(U)| times.  The set partitions of a support
come as restricted growth strings in bounded int8 blocks, and each block is
scored in one numpy pass over the support's ordered pairs, with every column
sum scaled by lcm(1..n); memory stays flat whatever the support size.
``cross_check_every = s`` still classifies floor(families / s) genuine,
distinct families: the translates that stand at the crossed positions.  The
crossed families of one block of a support's partitions all have T = s, and
go through ``classify_many`` as one batch, in census order; each report is
compared with what the block's own scoring found.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

import numpy as np

# No search path calls classify or difference_profile, but perfbench's tracer
# wraps both bindings here and stops if either is missing.
from .classify import classify, classify_many
from .errors import BudgetExceeded, GroupTooLarge, InfeasibleParameters
from .family import (
    DisjointFamily,
    check_weights,
    difference_profile,
    scaled_fractions,
    scaled_weights,
)
from .groups import FiniteGroup, Subgroup, closure, enumerate_subgroups, is_subgroup

KNOWN_FLAGS = frozenset(
    {"rwedf", "bimodal", "edf", "sedf", "gsedf", "wedf", "star_partition"}
)
STAR_PARTITION_ORDER_LIMIT = 128
# Largest group order the search accepts.  The searcher keeps the n x n
# diff_rows table and |A| < n automorphism lists as Python ints, up to 32
# bytes a cell, so at order 1024 each takes at most about 32 MB.
SEARCH_ORDER_LIMIT = 1024
PRUNE_REASONS = ("cell", "column", "coset", "star", "symmetry", "infeasible")
CENSUS_BLOCK = 64  # rows for s - 1 points grown into one census block

Key = Tuple[Tuple[int, ...], ...]  # a family's sets in canonical order


@dataclass(frozen=True)
class SearchSpec:
    group: FiniteGroup
    sizes: Tuple[int, ...]
    require: frozenset = frozenset()
    weights: Optional[Tuple[Fraction, ...]] = None
    target_ell: Optional[Fraction] = None
    dedup: str = "none"  # "none" | "translation"
    node_budget: int = 10**8
    result_cap: Optional[int] = None


@dataclass
class SearchStats:
    nodes: int = 0
    complete: bool = True
    # cuts by reason: a broken cell or column cap on a placement, a completed
    # set failing the coset, star or symmetry test, or caps no family can meet
    pruned_by: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(PRUNE_REASONS, 0))

    @property
    def pruned(self) -> int:
        return sum(self.pruned_by.values())


@dataclass
class SearchResult:
    families: List[DisjointFamily]
    stats: SearchStats


class _StopSearch(Exception):
    pass


def _validate_spec(spec: SearchSpec) -> Tuple[Tuple[int, ...], Optional[Fraction]]:
    n = spec.group.order
    if n > SEARCH_ORDER_LIMIT:
        raise GroupTooLarge(
            f"group too large: order {n} exceeds SEARCH_ORDER_LIMIT {SEARCH_ORDER_LIMIT}"
        )
    sizes = tuple(spec.sizes)
    if not sizes or any(k < 1 for k in sizes):
        raise InfeasibleParameters(f"sizes must be positive, got {sizes}")
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise InfeasibleParameters("sizes must be non-increasing (canonical order)")
    total = sum(sizes)
    if total > n:
        raise InfeasibleParameters(f"total size {total} exceeds group order {n}")
    if spec.result_cap is not None and spec.result_cap < 1:
        raise InfeasibleParameters(f"result cap must be at least 1, got {spec.result_cap}")
    if spec.node_budget < 0:
        raise InfeasibleParameters(f"node budget must be non-negative, got {spec.node_budget}")
    unknown = set(spec.require) - KNOWN_FLAGS
    if unknown:
        raise InfeasibleParameters(f"unknown requirement flags {sorted(unknown)}")
    if n < 2 and (set(spec.require) - {"star_partition"} or spec.target_ell is not None):
        raise InfeasibleParameters(
            "a group of order 1 has no non-identity differences to classify"
        )
    if "wedf" in spec.require:
        if spec.weights is None:
            raise InfeasibleParameters("the wedf flag needs a weight vector")
        check_weights(len(sizes), spec.weights)
    elif spec.weights is not None:
        raise InfeasibleParameters("weights are only read by the wedf flag")
    ell = spec.target_ell
    if ell is not None:
        ell = Fraction(ell)
        if (n - 1) * ell != (len(sizes) - 1) * total:
            raise InfeasibleParameters(
                f"(n-1)*ell = {(n - 1) * ell} but (m-1)*T = {(len(sizes) - 1) * total}"
            )
    return sizes, ell


def _require_rwedf(spec: SearchSpec) -> bool:
    return "rwedf" in spec.require or spec.target_ell is not None


@dataclass
class _Caps:
    cell: Tuple[int, ...]  # per-set upper bound on one count
    cols: Tuple[Tuple[Tuple[int, ...], int], ...]  # (per-set coefficients, limit) per column cap


def _build_caps(spec: SearchSpec, sizes: Tuple[int, ...]) -> Optional[_Caps]:
    """The caps a family passing every flag but bimodal meets, or None if none can.

    At a complete family row i sums to k_i*(T-k_i) over the n-1 non-identity
    columns, so a column cap's sums add up to (n-1)*limit, and a row whose
    cells are capped at k_i*(T-k_i)/(n-1) is constant.  Staying under every
    cap therefore makes each capped row and column sum constant: the caps
    alone decide edf, sedf, gsedf, rwedf (with its only possible ell) and wedf.
    """
    n = spec.group.order
    m = len(sizes)
    total = sum(sizes)
    req = spec.require
    if "star_partition" in req and total != n - 1:
        return None
    if req & {"edf", "sedf", "gsedf"} and m < 2:
        return None
    if req & {"edf", "sedf"} and len(set(sizes)) != 1:
        return None
    rows = [k * (total - k) for k in sizes]
    cell = [min(k, total - k) for k in sizes]
    if req & {"sedf", "gsedf"}:
        # each row must be constant: k*(T-k) spread over n-1 columns
        if any(r % (n - 1) for r in rows):
            return None
        cell = [min(c, r // (n - 1)) for c, r in zip(cell, rows)]
    coefs = []
    if "edf" in req:
        coefs.append((1,) * m)
    if _require_rwedf(spec):
        coefs.append(scaled_weights(sizes)[1])
    if "wedf" in req:
        coefs.append(scaled_fractions(spec.weights)[1])
    cols: List[Tuple[Tuple[int, ...], int]] = []
    for coef in coefs:
        limit, rest = divmod(sum(c * r for c, r in zip(coef, rows)), n - 1)
        if rest:
            return None
        if (coef, limit) not in cols:  # equal sizes: edf and rwedf are one cap
            cols.append((coef, limit))
    return _Caps(tuple(cell), tuple(cols))


def _passing(
    families: List[DisjointFamily], spec: SearchSpec, ell: Optional[Fraction]
) -> List[DisjointFamily]:
    """The oracle's leaf filter: classify the families and keep those that meet every flag.

    ell is the only possible ell whenever rwedf is required.
    """
    req = spec.require
    if "star_partition" in req:
        families = [f for f in families if _is_star_partition(f)]
    if not req - {"star_partition"} and ell is None:
        return families
    return [
        f for f, report in zip(families, classify_many(families, spec.weights))
        if (ell is None or report.rwedf == ell)
        and ("bimodal" not in req or report.bimodal.holds)
        and ("edf" not in req or report.edf is not None)
        and ("sedf" not in req or report.sedf is not None)
        and ("gsedf" not in req or report.gsedf is not None)
        and ("wedf" not in req or report.wedf is not None)
    ]


def _is_star_partition(family: DisjointFamily) -> bool:
    return family.is_partition_of_nonidentity() and all(
        is_subgroup(family.group, (0, *members)) for members in family.sets
    )


def _translation_invariant(spec: SearchSpec, sizes: Tuple[int, ...]) -> bool:
    """Whether every translate of a passing family passes too (see the module notes)."""
    if "star_partition" in spec.require:
        return False
    if "wedf" in spec.require:
        w = check_weights(len(sizes), spec.weights)
        return all(w[i] == w[i + 1] for i in range(len(sizes) - 1) if sizes[i] == sizes[i + 1])
    return True


class _Searcher:
    def __init__(self, spec: SearchSpec, sizes: Tuple[int, ...], caps: _Caps):
        g = spec.group
        self.spec = spec
        self.sizes = sizes
        self.caps = caps
        self.group = g
        self.n = g.order
        self.m = len(sizes)
        self.diff = g.diff_rows
        self.budget = spec.node_budget
        self.stats = SearchStats()
        # symmetric: walk one part of the tree per T x| A orbit and expand orbits at the hits
        self.symmetric = _translation_invariant(spec, sizes)
        self.autos = g.automorphism_subgroup() if self.symmetric else []
        # the sets tied with set 0 for largest, each held to the symmetry test once full
        self.tied = sizes.count(sizes[0]) if self.symmetric else 0
        self.found: List[Key] = []  # hits, orbits expanded
        self.seen: Set[Key] = set()  # every key of every expanded translation class
        # mutable search state
        self.slots: List[List[int]] = [[] for _ in sizes]
        self.owner = [-1] * self.n
        self.placed: List[int] = []
        # Counts N_i(d) are kept only for the flags that read them: the sedf and
        # gsedf cell caps and the bimodal leaf test.  Any other cell cap is
        # min(k_i, T - k_i), which no count passes (x * y^-1 = d fixes y given x).
        self.cells = bool(spec.require & {"sedf", "gsedf", "bimodal"})
        rows = self.m if self.cells else 0
        # the live counts N_i(d) at i*n + d if kept, then one block of n sums per column cap
        self.live = [0] * ((rows + len(caps.cols)) * self.n)
        self.cols = [(coef, limit, (rows + c) * self.n)
                     for c, (coef, limit) in enumerate(caps.cols)]
        self.bimodal = "bimodal" in spec.require
        self.coset_cut = self.bimodal and g.abelian
        self.carriers: Dict[FrozenSet[int], Tuple[int, ...]] = {}  # closure per difference set
        self.star_cut = "star_partition" in spec.require
        self.banned = 1 if self.star_cut else 0  # a star partition leaves out the identity

    def run(self) -> None:
        try:
            self._fill_set(0)
        except _StopSearch:
            self.stats.complete = False

    def families(self) -> List[DisjointFamily]:
        """The hits so far in canonical order, at most result_cap of them."""
        # every key has the same sizes, so tuple order is the flat order
        keys = sorted(self.found)[: self.spec.result_cap]
        return [DisjointFamily(self.group, key) for key in keys]

    def _cut(self, reason: str) -> None:
        self.stats.pruned_by[reason] += 1

    # -- incremental counting ------------------------------------------------

    def _apply(self, x: int, i: int) -> Optional[str]:
        """Add element x of set i to ``self.live``: the first cap it breaks, or None.

        It returns at the first broken cell or column cap, leaving ``live``
        part-updated; the caller restores it from a copy taken before the add.
        """
        diff = self.diff
        diff_x = diff[x]
        live = self.live
        owner = self.owner
        cells = self.cells
        cell = self.caps.cell
        cols = self.cols
        n = self.n
        base_i = i * n
        cell_i = cell[i]
        for y in self.placed:
            j = owner[y]
            if j == i:
                continue
            d1 = diff_x[y]
            d2 = diff[y][x]
            if cells:
                c1 = base_i + d1
                c2 = j * n + d2
                live[c1] += 1
                live[c2] += 1
                if live[c1] > cell_i or live[c2] > cell[j]:
                    return "cell"
            for coef, limit, base in cols:
                s1 = base + d1
                s2 = base + d2
                live[s1] += coef[i]
                live[s2] += coef[j]
                if live[s1] > limit or live[s2] > limit:
                    return "column"
        return None

    # -- completed-set cuts --------------------------------------------------

    def _set_completion_ban(self, i: int) -> Optional[int]:
        """Extra forbidden elements once set i is full, or None to cut the branch."""
        members = self.slots[i]
        diff = self.diff
        extra = 0
        if self.star_cut and not is_subgroup(self.group, (0, *members)):
            self._cut("star")
            return None
        if i < self.tied and self._image_sorts_first(members):
            self._cut("symmetry")
            return None
        if self.coset_cut and len(members) >= 2:
            g = self.group
            diffs = frozenset(diff[a][b] for a in members for b in members if a != b)
            carrier = self.carriers.get(diffs)
            if carrier is None:
                carrier = self.carriers[diffs] = closure(g, diffs).carrier
            a0 = members[0]
            coset = {g.mul(h, a0) for h in carrier}
            inside = set(members)
            for y in coset:
                if y in inside:
                    continue
                if self.owner[y] >= 0:
                    self._cut("coset")  # an earlier set intrudes on this coset
                    return None
                extra |= 1 << y
        return extra

    def _image_sorts_first(self, members: List[int]) -> bool:
        """Whether some sigma(B * a^-1), sigma in A and a in B = members, sorts before set 0.

        Over every largest set B of a family, these images are the same for
        every member of its T x| A orbit, and each holds 0.  The member whose
        set 0 is the least image passes this test for each of its largest
        sets, so cutting every other branch still visits each orbit.
        """
        first = tuple(self.slots[0])
        diff = self.diff
        for a in members:
            shifted = [diff[x][a] for x in members]
            for sigma in self.autos:
                if tuple(sorted([sigma[y] for y in shifted])) < first:
                    return True
        return False

    # -- recursion -----------------------------------------------------------

    def _fill_set(self, i: int) -> None:
        if i == self.m:
            self._emit()
            return
        size = self.sizes[i]
        lo = 0
        if i > 0 and self.sizes[i - 1] == size:
            lo = self.slots[i - 1][0] + 1
        self._extend_set(i, size, lo)

    def _extend_set(self, i: int, remaining: int, lo: int) -> None:
        if remaining == 0:
            extra = self._set_completion_ban(i)
            if extra is None:
                return
            saved = self.banned
            self.banned |= extra
            self._fill_set(i + 1)
            self.banned = saved
            return
        slot = self.slots[i]
        stop = self.n - remaining + 1
        if i == 0 and not slot and self.symmetric:
            stop = 1  # every orbit has a member with 0 in set 0
        for x in range(lo, stop):
            if self.owner[x] >= 0 or self.banned >> x & 1:
                continue
            if self.budget <= 0:
                self.stats.complete = False
                raise BudgetExceeded(
                    "node budget exhausted", families=self.families(), stats=self.stats
                )
            self.budget -= 1
            self.stats.nodes += 1
            live = self.live
            self.live = live[:]
            broken = self._apply(x, i)
            if broken is None:
                self.owner[x] = i
                self.placed.append(x)
                slot.append(x)
                self._extend_set(i, remaining - 1, x + 1)
                slot.pop()
                self.placed.pop()
                self.owner[x] = -1
            else:
                self._cut(broken)
            self.live = live

    def _emit(self) -> None:
        key = tuple(tuple(s) for s in self.slots)
        if key in self.seen:
            return  # an image of a hit whose orbit is already expanded
        if self.bimodal:
            # the one flag the caps leave open: every count is 0 or its set's size
            n, live = self.n, self.live
            for i, k in enumerate(self.sizes):
                if any(c and c != k for c in live[i * n : (i + 1) * n]):
                    return
        dedup = self.spec.dedup
        if not self.symmetric:
            if dedup == "translation":
                self.seen |= _translation_classes(self.diff, key)
            # the full walk meets keys in ascending order: key is the least hit of its class
            self.found.append(key)
        else:
            for sigma in self.autos:  # the identity first, so key's own class first
                image = _canonical([[sigma[x] for x in s] for s in key])
                if image in self.seen:
                    continue
                translates = _translation_classes(self.diff, image)
                self.seen |= translates
                self.found.extend(translates if dedup == "none" else (min(translates),))
        cap = self.spec.result_cap
        if cap is not None and len(self.found) >= cap:
            raise _StopSearch


def _flat_key(family: DisjointFamily) -> Tuple[int, ...]:
    return tuple(x for s in family.sets for x in s)


def _canonical(sets: List[List[int]]) -> Key:
    """The canonical key of a family given as unsorted sets.

    The stable sort by length, largest first, after the sort by members is the
    canonical set order.
    """
    return tuple(sorted(sorted([tuple(sorted(s)) for s in sets]), key=len, reverse=True))


def _translation_classes(diff: List[List[int]], key: Key) -> Set[Key]:
    """The translation class of one family: the canonical keys of all its right translates.

    ``diff`` is the group's ``diff_rows``; x * h^-1 = diff[x][h], and h^-1 runs
    over the group as h does.
    """
    return {_canonical([[diff[x][h] for x in s] for s in key]) for h in range(len(diff))}


def enumerate_families(spec: SearchSpec, workers: int = 1) -> SearchResult:
    """All families of the given sizes whose classification meets every flag.

    ``workers`` is accepted and ignored: the search runs on one thread.
    """
    sizes, _ = _validate_spec(spec)
    if spec.dedup not in ("none", "translation"):
        raise InfeasibleParameters(f"unknown dedup mode {spec.dedup!r}")
    caps = _build_caps(spec, sizes)
    if caps is None:
        stats = SearchStats()
        stats.pruned_by["infeasible"] = 1
        return SearchResult([], stats)
    searcher = _Searcher(spec, sizes, caps)
    searcher.run()
    return SearchResult(searcher.families(), searcher.stats)


def naive_enumerate(spec: SearchSpec) -> SearchResult:
    """Generate-and-test oracle: same canonical order, no pruning at all."""
    sizes, ell = _validate_spec(spec)
    if ell is None and _require_rwedf(spec):
        m, total, n = len(sizes), sum(sizes), spec.group.order
        ell = Fraction((m - 1) * total, n - 1)
    g = spec.group
    n = g.order
    stats = SearchStats()
    leaves: List[DisjointFamily] = []
    slots: List[Tuple[int, ...]] = []

    def rec(i: int, used: int) -> None:
        if i == len(sizes):
            stats.nodes += 1
            leaves.append(DisjointFamily(g, tuple(slots)))
            return
        lo = 0
        if i > 0 and sizes[i - 1] == sizes[i]:
            lo = slots[i - 1][0] + 1
        pool = [x for x in range(lo, n) if not used >> x & 1]
        for combo in combinations(pool, sizes[i]):
            mask = 0
            for x in combo:
                mask |= 1 << x
            slots.append(combo)
            rec(i + 1, used | mask)
            slots.pop()

    rec(0, 0)
    results = _passing(leaves, spec, ell)
    results.sort(key=_flat_key)
    if spec.dedup == "translation":
        # keep the least hit of each translation class
        kept: List[DisjointFamily] = []
        seen: Set[Tuple] = set()
        for f in results:
            if f.canonical_key() not in seen:
                kept.append(f)
                seen.update(f.translate(h).canonical_key() for h in g.elements())
        results = kept
    return SearchResult(results, stats)


def enumerate_star_partitions(
    group: FiniteGroup, limit: int = STAR_PARTITION_ORDER_LIMIT
) -> List[List[Subgroup]]:
    """All ways to partition the non-identity elements into subgroup stars.

    Exact cover over the stars of the non-trivial subgroups; the whole group
    always provides the one-part cover.  Results are sorted by part count then
    carrier tuples, each cover's subgroups by carrier.
    """
    if group.order > limit:
        raise GroupTooLarge(f"order {group.order} exceeds star partition limit {limit}")
    subs = [s for s in enumerate_subgroups(group) if s.order > 1]
    full = (1 << group.order) - 2  # non-identity elements
    star_masks = []
    for s in subs:
        mask = 0
        for x in s.star():
            mask |= 1 << x
        star_masks.append(mask)
    covers: List[List[Subgroup]] = []
    chosen: List[Subgroup] = []

    def rec(uncovered: int) -> None:
        if not uncovered:
            covers.append(sorted(chosen, key=lambda s: s.carrier))
            return
        least = (uncovered & -uncovered).bit_length() - 1
        for s, mask in zip(subs, star_masks):
            if mask >> least & 1 and not (mask & ~uncovered):
                chosen.append(s)
                rec(uncovered & ~mask)
                chosen.pop()

    rec(full)
    covers.sort(key=lambda c: (len(c), tuple(s.carrier for s in c)))
    return covers


@dataclass
class CensusStats:
    families: int = 0
    rwedf: int = 0
    violations: int = 0
    cross_checked: int = 0
    cross_failures: int = 0
    leaves: int = 0  # representative families evaluated
    supports: int = 0  # support orbits swept


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


def _set_partitions(s: int) -> Iterator[np.ndarray]:
    """Every set partition of s >= 1 points as restricted growth strings, in lex order.

    Row a_0..a_{s-1} puts point i in block a_i, with a_0 = 0 and a_i <= 1 +
    max(a_0..a_{i-1}) (Knuth, TAOCP 4A, 7.2.1.5), so blocks are numbered in
    order of their least point.  The rows come in int8 blocks, each grown from
    at most CENSUS_BLOCK rows for s - 1 points.
    """
    if s == 1:
        yield np.zeros((1, 1), dtype=np.int8)
        return
    last = np.arange(s, dtype=np.int8)
    for prefixes in _set_partitions(s - 1):
        for lo in range(0, len(prefixes), CENSUS_BLOCK):
            head = prefixes[lo : lo + CENSUS_BLOCK]
            grow = last <= head.max(axis=1, keepdims=True) + 1
            tails = np.broadcast_to(last, grow.shape)[grow]
            yield np.column_stack((np.repeat(head, grow.sum(axis=1), axis=0), tails))


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
    them, is re-checked through the classify pipeline (``classify_many``, a
    batch per block of partitions): a partition weighted w stands at w
    consecutive positions, one per translate, and the translate at the
    crossed position is the family checked.  Orders past 40 are refused.
    """
    n = group.order
    scale = _census_scale(n)
    diff = group.diff_rows
    every = cross_check_every if n > 1 else 0
    stats = CensusStats()
    for members, shifts in _support_orbits(diff):
        stats.supports += 1
        s, w = len(members), len(shifts)
        # every ordered pair (i, j) of support points, grouped by difference
        pi, pj = np.nonzero(~np.eye(s, dtype=bool))
        points = np.array(members, dtype=np.int64)
        pair_diff = group.diff_array(points[pi], points[pj])
        order = np.argsort(pair_diff)
        pi, pj = pi[order], pj[order]
        cols, starts = np.unique(pair_diff[order], return_index=True)
        for rgs in _set_partitions(s):
            rows = len(rgs)
            m = rgs.max(axis=1).astype(np.int64) + 1
            same = rgs[:, :, None] == rgs[:, None, :]  # points i and j share a block
            coef = scale // same.sum(axis=2)  # scale / the size of point i's block
            cross = np.where(same[:, pi, pj], 0, coef[:, pi])
            sums = np.zeros((rows, n), dtype=np.int64)
            sums[:, cols] = np.add.reduceat(cross, starts, axis=1)
            sums = sums[:, 1:]
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
            # the block's crossed families, in census order, and what the census says of each
            crossed: List[DisjointFamily] = []
            expected: List[Tuple[Optional[Fraction], bool, Fraction]] = []
            for pos in range(start - start % every + every, stats.families + 1, every):
                r, t = divmod(pos - start - 1, w)
                h = shifts[t]
                blocks = [[] for _ in range(m[r])]
                for x, b in zip(members, rgs[r].tolist()):
                    blocks[b].append(diff[x][h])
                crossed.append(DisjointFamily(group, tuple(tuple(sorted(b)) for b in blocks)))
                expected.append((
                    Fraction(int(sums[r, 0]), scale) if constant[r] else None,
                    bool(meets_bound[r]),
                    Fraction(int(best[r]), scale * int(m[r])),
                ))
            stats.cross_checked += len(crossed)
            for report, (ell, meets, ehat) in zip(classify_many(crossed), expected):
                optimal = report.e_hat == report.r_bound
                if report.rwedf != ell or optimal != meets or report.e_hat != ehat:
                    stats.cross_failures += 1
    return stats
