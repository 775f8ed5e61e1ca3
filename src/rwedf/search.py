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
orbit, and the member whose set 0 is the least of them passes; the least key
of the orbit is such a member, so the walk visits it.  Orderly generation
(R. C. Read, "Every one a winner", 1978) then emits each orbit at its least
key and keeps no record of what was seen: a leaf is the least key of its
orbit unless one of the images whose set 0 ties with its own, recorded by
the symmetry test, sorts before it.  At a least key the whole orbit is
expanded at once in numpy (``_translation_classes``), so the hit list equals
the full walk's and memory stays O(output); ``SearchStats.nodes`` counts the
reduced tree.  Two requirements are not translation invariant and take the
full walk with no symmetry: star_partition (the identity must stay outside
the union), and wedf with different weights on equal-sized sets (translation
can reorder those sets, and the weights attach by position).  Under wedf
``dedup="translation"`` keeps the least hit of each translation class, which
need not be the least translate, and holds the keys of the classes met.  A
star partition walk keeps no such record: a translate F * h^-1, h != 0, of a
star partition holds h * h^-1 = 0, so no two hits share a class.
Everywhere else dedup keeps the least key of each translation class in the
orbit.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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
from .groups import (
    PAIR_CHUNK,
    FiniteGroup,
    Subgroup,
    closure,
    enumerate_subgroups,
    is_subgroup,
)

KNOWN_FLAGS = frozenset(
    {"rwedf", "bimodal", "edf", "sedf", "gsedf", "wedf", "star_partition"}
)
STAR_PARTITION_ORDER_LIMIT = 128
NODE_BUDGET = 10**8  # the default node budget of the search and the star partition walk
# Largest group order the search accepts.  The searcher keeps the n x n
# diff_rows table and |A| < n automorphism lists as Python ints, up to 32
# bytes a cell, so at order 1024 each takes at most about 32 MB; for the orbit
# expansion it also holds both as int64 arrays, the table 8 MB at order 1024.
SEARCH_ORDER_LIMIT = 1024
PRUNE_REASONS = ("cell", "column", "coset", "star", "symmetry", "infeasible")

Key = Tuple[Tuple[int, ...], ...]  # a family's sets in canonical order


@dataclass(frozen=True)
class SearchSpec:
    group: FiniteGroup
    sizes: Tuple[int, ...]
    require: frozenset = frozenset()
    weights: Optional[Tuple[Fraction, ...]] = None
    target_ell: Optional[Fraction] = None
    dedup: str = "none"  # "none" | "translation"
    node_budget: int = NODE_BUDGET
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


def _validate_spec(spec: SearchSpec) -> SearchSpec:
    """The spec checked and normalised; both search paths read only this one.

    ``sizes`` becomes a tuple and ``weights`` the validated weights.  The
    identity (n-1)*ell = (m-1)*T fixes the only ell a family of these sizes
    can have, so ``target_ell`` must equal it and is set to it whenever rwedf
    is required: past this point the two are one requirement.  The dedup mode
    is checked last.
    """
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
    weights = None
    if "wedf" in spec.require:
        if spec.weights is None:
            raise InfeasibleParameters("the wedf flag needs a weight vector")
        weights = check_weights(len(sizes), spec.weights)
    elif spec.weights is not None:
        raise InfeasibleParameters("weights are only read by the wedf flag")
    ell = spec.target_ell
    if ell is not None:
        ell = Fraction(ell)
        if (n - 1) * ell != (len(sizes) - 1) * total:
            raise InfeasibleParameters(
                f"(n-1)*ell = {(n - 1) * ell} but (m-1)*T = {(len(sizes) - 1) * total}"
            )
    elif "rwedf" in spec.require:
        ell = Fraction((len(sizes) - 1) * total, n - 1)
    if spec.dedup not in ("none", "translation"):
        raise InfeasibleParameters(f"unknown dedup mode {spec.dedup!r}")
    return replace(spec, sizes=sizes, weights=weights, target_ell=ell)


@dataclass
class _Caps:
    cell: Tuple[int, ...]  # per-set upper bound on one count
    cols: Tuple[Tuple[Tuple[int, ...], int], ...]  # (per-set coefficients, limit) per column cap


def _build_caps(spec: SearchSpec) -> Optional[_Caps]:
    """The caps a family passing every flag but bimodal meets, or None if none can.

    At a complete family row i sums to k_i*(T-k_i) over the n-1 non-identity
    columns, so a column cap's sums add up to (n-1)*limit, and a row whose
    cells are capped at k_i*(T-k_i)/(n-1) is constant.  Staying under every
    cap therefore makes each capped row and column sum constant: the caps
    alone decide edf, sedf, gsedf, rwedf (``target_ell``) and wedf.
    """
    n = spec.group.order
    sizes = spec.sizes
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
    if spec.target_ell is not None:
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


def _passing(families: List[DisjointFamily], spec: SearchSpec) -> List[DisjointFamily]:
    """The oracle's leaf filter: classify the families and keep those that meet every flag."""
    req = spec.require
    ell = spec.target_ell
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


def _translation_invariant(spec: SearchSpec) -> bool:
    """Whether every translate of a passing family passes too (see the module notes)."""
    if "star_partition" in spec.require:
        return False
    if "wedf" in spec.require:
        w, sizes = spec.weights, spec.sizes
        return all(w[i] == w[i + 1] for i in range(len(sizes) - 1) if sizes[i] == sizes[i + 1])
    return True


class _Searcher:
    def __init__(self, spec: SearchSpec, caps: _Caps):
        g = spec.group
        sizes = spec.sizes
        self.spec = spec
        self.sizes = sizes
        self.caps = caps
        self.group = g
        self.n = g.order
        self.m = len(sizes)
        self.diff = g.diff_rows
        self.stats = SearchStats()
        # symmetric: walk one part of the tree per T x| A orbit and expand orbits at the hits
        self.symmetric = _translation_invariant(spec)
        self.star_cut = "star_partition" in spec.require
        # a translate F * h^-1, h != 0, of a star partition F holds h * h^-1 = 0, so it
        # is not one: dedup can drop no star partition
        self.dedup = "none" if self.star_cut else spec.dedup
        self.autos = g.automorphism_subgroup() if self.symmetric else [list(range(self.n))]
        # the sets tied with set 0 for largest, each held to the symmetry test once full
        self.tied = sizes.count(sizes[0]) if self.symmetric else 0
        # per tied set, the (a, sigma) of its images sigma(B * a^-1) equal to set 0
        self.ties: List[List[Tuple[int, List[int]]]] = [[] for _ in range(self.tied)]
        if self.symmetric or self.dedup == "translation":
            self.table = np.array(self.diff, dtype=np.int64)
            self.auto_array = np.array(self.autos, dtype=np.int64)
        self.found: List[Key] = []  # hits, orbits expanded
        self.seen: Set[Key] = set()  # a walk without symmetry: the translation classes met
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
        self.stars: Dict[Tuple[int, ...], bool] = {}  # whether 0 and the set close to a subgroup
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
        if self.star_cut:
            key = tuple(members)
            star = self.stars.get(key)
            if star is None:
                star = self.stars[key] = is_subgroup(self.group, (0, *members))
            if not star:
                self._cut("star")
                return None
        if i < self.tied and self._image_sorts_first(i):
            self._cut("symmetry")
            return None
        if self.coset_cut and len(members) >= 2:
            g = self.group
            diffs = frozenset(diff[a][b] for a in members for b in members if a != b)
            carrier = self.carriers.get(diffs)
            if carrier is None:
                carrier = self.carriers[diffs] = closure(g, diffs).carrier
            a0 = members[0]
            a0_inv = diff[0][a0]
            coset = {diff[h][a0_inv] for h in carrier}
            inside = set(members)
            for y in coset:
                if y in inside:
                    continue
                if self.owner[y] >= 0:
                    self._cut("coset")  # an earlier set intrudes on this coset
                    return None
                extra |= 1 << y
        return extra

    def _image_sorts_first(self, i: int) -> bool:
        """Whether some sigma(B * a^-1), sigma in A and a in B = set i, sorts before set 0.

        Over every largest set B of a family, these images are the same for
        every member of its T x| A orbit, and each holds 0.  The member whose
        set 0 is the least image passes this test for each of its largest
        sets, so cutting every other branch still visits each orbit.  The
        (a, sigma) whose image equals set 0 go to ``self.ties[i]``.
        """
        members = self.slots[i]
        first = tuple(self.slots[0])
        diff = self.diff
        ties = self.ties[i] = []
        for a in members:
            shifted = [diff[x][a] for x in members]
            for sigma in self.autos:
                image = tuple(sorted([sigma[y] for y in shifted]))
                if image <= first:
                    if image < first:
                        return True
                    ties.append((a, sigma))
        return False

    def _least_in_orbit(self, key: Key) -> bool:
        """Whether no member of key's T x| A orbit sorts before key.

        Such a member's set 0 would hold 0, so it would be some sigma(B * a^-1)
        with B a largest set and a in B; none of those sorts before set 0, so
        only the images sigma(F * a^-1) of the recorded ties can sort first.
        """
        diff = self.diff
        identity = self.autos[0]
        for ties in self.ties:
            for a, sigma in ties:
                if a == 0 and sigma is identity:
                    continue  # key itself
                if _canonical([[sigma[diff[x][a]] for x in s] for s in key]) < key:
                    return False
        return True

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
        stats = self.stats
        budget = self.spec.node_budget
        stop = self.n - remaining + 1
        if i == 0 and not slot and self.symmetric:
            stop = 1  # every orbit has a member with 0 in set 0
        for x in range(lo, stop):
            if self.owner[x] >= 0 or self.banned >> x & 1:
                continue
            if stats.nodes >= budget:
                stats.complete = False
                raise BudgetExceeded("node budget exhausted", families=self.families(), stats=stats)
            stats.nodes += 1
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
        if self.bimodal:
            # the one flag the caps leave open: every count is 0 or its set's size
            n, live = self.n, self.live
            for i, k in enumerate(self.sizes):
                if any(c and c != k for c in live[i * n : (i + 1) * n]):
                    return
        dedup = self.dedup
        if not self.symmetric:
            if dedup == "translation":
                if key in self.seen:
                    return
                self.seen.update(_translation_classes(self.table, self.auto_array, key, "none"))
            # the full walk meets keys in ascending order: key is the least hit of its class
            self.found.append(key)
        elif self._least_in_orbit(key):
            # the walk meets keys in ascending order, so no hit of this orbit came before
            self.found += _translation_classes(self.table, self.auto_array, key, dedup)
        else:
            return
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


def _translation_classes(table: np.ndarray, autos: np.ndarray, key: Key, dedup: str) -> List[Key]:
    """The canonical keys of a family's orbit under right translations and ``autos``, ascending.

    ``table`` is the n x n array of x * h^-1 and ``autos`` an array of
    automorphisms, one permutation a row.  Row h of ``translates`` (the rows
    of F's members in ``table``, transposed) is the translate F * h^-1, and
    sigma of those rows is the translation class of sigma(F).  With dedup "none" it gives every distinct key of the orbit,
    with "translation" the least key of each translation class.  The
    automorphisms go PAIR_CHUNK cells a step.
    """
    sizes = [len(s) for s in key]
    n, total = len(table), sum(sizes)
    translates = table[[x for s in key for x in s]].T
    step = max(1, PAIR_CHUNK // (n * total))
    parts = []
    for lo in range(0, len(autos), step):
        rows = _canonical_rows(autos[lo : lo + step][:, translates].reshape(-1, total), sizes, n)
        if dedup == "translation":
            # sort by sigma, then by row: each sigma's least row opens its block of n
            blocks = np.repeat(np.arange(len(rows) // n), n)
            rows = rows[np.lexsort((*rows.T[::-1], blocks))[::n]]
        parts.append(_distinct_rows(rows))
    rows = parts[0] if len(parts) == 1 else _distinct_rows(np.concatenate(parts))
    bounds = np.cumsum([0, *sizes]).tolist()
    return [tuple(tuple(row[lo:hi]) for lo, hi in zip(bounds, bounds[1:])) for row in rows.tolist()]


def _canonical_rows(rows: np.ndarray, sizes: List[int], n: int) -> np.ndarray:
    """Each row of a 2-D array, a family's sets in ``sizes`` order, in canonical form.

    One sort a row on (set size, descending; least member of the set; member):
    the sizes do not increase, so each run of equal-sized sets keeps its
    columns, and within a run the sets come by least member, which orders
    disjoint sorted sets.  The keys stay below n^3.
    """
    largest_first = np.repeat(sizes[0] - np.array(sizes), sizes)
    least = np.repeat(np.minimum.reduceat(rows, np.cumsum([0, *sizes[:-1]]), axis=1), sizes, axis=1)
    return np.sort((largest_first * n + least) * n + rows, axis=1) % n


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def enumerate_families(spec: SearchSpec, workers: int = 1) -> SearchResult:
    """All families of the given sizes whose classification meets every flag.

    ``workers`` is accepted and ignored: the search runs on one thread.
    """
    spec = _validate_spec(spec)
    caps = _build_caps(spec)
    if caps is None:
        stats = SearchStats()
        stats.pruned_by["infeasible"] = 1
        return SearchResult([], stats)
    searcher = _Searcher(spec, caps)
    searcher.run()
    return SearchResult(searcher.families(), searcher.stats)


def naive_enumerate(spec: SearchSpec) -> SearchResult:
    """Generate-and-test oracle: same canonical order, no pruning at all."""
    spec = _validate_spec(spec)
    sizes = spec.sizes
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
    results = _passing(leaves, spec)
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
    group: FiniteGroup, *, node_budget: int = NODE_BUDGET
) -> List[List[Subgroup]]:
    """All ways to partition the non-identity elements into subgroup stars.

    Exact cover over the stars of the non-trivial subgroups; the whole group
    always provides the one-part cover.  Results are sorted by part count then
    carrier tuples, each cover's subgroups by carrier.  Each star placed is a
    node; BudgetExceeded is raised when more than ``node_budget`` would be.
    """
    if node_budget < 0:
        raise InfeasibleParameters(f"node budget must be non-negative, got {node_budget}")
    if group.order > STAR_PARTITION_ORDER_LIMIT:
        raise GroupTooLarge(
            f"order {group.order} exceeds star partition limit {STAR_PARTITION_ORDER_LIMIT}"
        )
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
    budget = node_budget

    def rec(uncovered: int) -> None:
        nonlocal budget
        if not uncovered:
            covers.append(sorted(chosen, key=lambda s: s.carrier))
            return
        least = (uncovered & -uncovered).bit_length() - 1
        for s, mask in zip(subs, star_masks):
            if mask >> least & 1 and not (mask & ~uncovered):
                if budget <= 0:
                    raise BudgetExceeded(f"star partition node budget {node_budget} exhausted")
                budget -= 1
                chosen.append(s)
                rec(uncovered & ~mask)
                chosen.pop()

    rec(full)
    covers.sort(key=lambda c: (len(c), tuple(s.carrier for s in c)))
    return covers
