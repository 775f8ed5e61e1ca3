"""Families with known classifications, built explicitly.

Unless a construction documents its own set order, sets are emitted sorted by
(size descending, least member); leftover elements become singletons in
ascending order.
"""
from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .classify import check_difference_set
from .errors import (
    BadResidueClass,
    NotADifferenceSet,
    NotPrimePower,
    OverlappingSubgroups,
    PartitionFailure,
)
from .family import DisjointFamily
from .gf import FieldGF, prime_power_factor
from .groups import (
    CayleyTableGroup,
    CyclicGroup,
    ElementaryAbelianGroup,
    FiniteGroup,
    HeisenbergGroup,
    Subgroup,
    _carrier_of,
    bounded_power,
    check_order,
    is_prime,
)


def trivial_families(group: FiniteGroup) -> Tuple[DisjointFamily, DisjointFamily]:
    """The whole group as one set, and the partition into n singletons."""
    whole = DisjointFamily.of(group, list(group.elements()))
    singles = DisjointFamily.of(group, *[[x] for x in group.elements()])
    return whole, singles


def nonzero_singletons(group: FiniteGroup) -> DisjointFamily:
    """Every non-identity element as its own set."""
    if group.order < 2:
        raise ValueError("group must have a non-identity element")
    return DisjointFamily.of(group, *[[x] for x in range(1, group.order)])


def singletons_from_difference_set(group: FiniteGroup, members: Sequence[int]) -> DisjointFamily:
    """Singletons over a difference set; raises if the set is not one."""
    if check_difference_set(group, members) is None:
        raise NotADifferenceSet(f"{sorted(members)} is not a difference set here")
    return DisjointFamily.of(group, *[[x] for x in sorted(set(members))])


def complement_pair(group: FiniteGroup, members: Sequence[int]) -> DisjointFamily:
    """The pair {D, G minus D} for a difference set D."""
    d = sorted(set(members))
    if check_difference_set(group, d) is None:
        raise NotADifferenceSet(f"{d} is not a difference set here")
    rest = sorted(set(group.elements()) - set(d))
    if not rest:
        raise ValueError("difference set covers the whole group; no complement")
    return DisjointFamily.of(group, d, rest)


def cyclotomic_squares(q: int) -> DisjointFamily:
    """Non-zero squares versus non-squares in GF(q), q a prime power = 1 mod 4."""
    check_order(q)  # before the factoring, whose trial division grows with sqrt(q)
    pa = prime_power_factor(q)
    if pa is None:
        raise NotPrimePower(f"{q} is not a prime power")
    if q % 4 != 1:
        raise BadResidueClass(f"{q} is not 1 mod 4")
    p, a = pa
    field = FieldGF(p, a)
    squares = field.squares()
    non_squares = sorted(set(field.units()) - set(squares))
    group = CyclicGroup(p) if a == 1 else ElementaryAbelianGroup(p, a)
    return DisjointFamily.of(group, squares, non_squares)


def m2_sedf(k: int) -> DisjointFamily:
    """{0..k-1} and {k, 2k, .., k^2} in Z_{k^2+1}; each row constant 1."""
    if k < 1:
        raise ValueError("k must be positive")
    g = CyclicGroup(k * k + 1)
    return DisjointFamily.of(g, range(k), [k * j for j in range(1, k + 1)])


def m2_edf(k: int) -> DisjointFamily:
    """{0..k-1} and {k, 2k, .., k^2} in Z_{2k^2+1}; column sums constant 1."""
    if k < 1:
        raise ValueError("k must be positive")
    g = CyclicGroup(2 * k * k + 1)
    return DisjointFamily.of(g, range(k), [k * j for j in range(1, k + 1)])


def m2_gsedf(k1: int, k2: int) -> DisjointFamily:
    """{0..k1-1} and {k1, 2k1, .., k1k2} in Z_{k1k2+1}; rows constant."""
    if k1 < 1 or k2 < 1:
        raise ValueError("sizes must be positive")
    g = CyclicGroup(k1 * k2 + 1)
    return DisjointFamily.of(g, range(k1), [k1 * j for j in range(1, k2 + 1)])


def subgroup_star_family(group: FiniteGroup, subgroups: Sequence[Subgroup]) -> DisjointFamily:
    """Stars of almost-disjoint subgroups, then leftover elements as singletons.

    The stars keep the caller's subgroup order; uncovered non-identity elements
    follow in ascending order, one singleton each.
    """
    covered = bytearray(group.order)
    sets: List[Tuple[int, ...]] = []
    for sub in subgroups:
        star = tuple(x for x in _carrier_of(group, sub) if x != 0)
        if not star:
            raise ValueError("the trivial subgroup contributes an empty star")
        clash = next((x for x in star if covered[x]), None)
        if clash is not None:
            raise OverlappingSubgroups(f"element {clash} lies in two of the subgroups")
        for x in star:
            covered[x] = 1
        sets.append(star)
    sets.extend((x,) for x in range(1, group.order) if not covered[x])
    return DisjointFamily(group, sets)


def two_prime_power_construction(p: int, alpha: int, q: int, beta: int) -> DisjointFamily:
    """Stars of the Z_{p^alpha} and Z_{q^beta} subgroups of Z_{p^alpha q^beta}."""
    if alpha < 1 or beta < 1:
        raise ValueError("exponents must be positive")
    if min(p, q) < 2:
        raise ValueError("need two distinct primes")
    # the order is refused past MAX_ORDER before the powers and the primality tests
    pa, qb = bounded_power(p, alpha), bounded_power(q, beta)
    g = CyclicGroup(pa * qb)
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise ValueError("need two distinct primes")
    sub_p = Subgroup(g, tuple(range(0, g.order, qb)), (qb,))  # <qb>, of order p^alpha
    sub_q = Subgroup(g, tuple(range(0, g.order, pa)), (pa,))  # <pa>, of order q^beta
    return subgroup_star_family(g, [sub_p, sub_q])


def desarguesian_star_partition(p: int, a: int, b: int) -> DisjointFamily:
    """Punctured lines through 0 of GF(p^a)^b inside the elementary abelian group.

    One set per 1-dimensional subspace {lambda * v : lambda != 0}, in order of
    least members.  A vector's coordinates are field indices, coordinate 0
    major, so the least member of its line is the multiple whose first
    non-zero coordinate is 1, and that labels the line.  The unit maps of
    ``ElementaryAbelianGroup(p, a)`` are z -> g^j * z for a primitive g: the
    vector whose first non-zero coordinate is g^j goes through map g^-j, one
    coordinate at a time.
    """
    if a * b < 2:
        raise ValueError("need a vector space of group order p^2 or more")
    group = ElementaryAbelianGroup(p, a * b)  # refuses a large order before the unit maps
    n = group.order
    if b == 1:
        return DisjointFamily(group, [range(1, n)])
    q = p**a
    times = np.array(ElementaryAbelianGroup(p, a).automorphism_subgroup(), dtype=np.int64)
    log = np.empty(q, dtype=np.int64)
    log[times[:, 1]] = np.arange(q - 1)  # g^j = times[j][1]
    x = np.arange(1, n, dtype=np.int64)
    place = q ** np.arange(b - 1, -1, -1, dtype=np.int64)
    coords = x[:, None] // place % q
    lead = coords[np.arange(n - 1), np.argmax(coords != 0, axis=1)]
    label = times[(-log[lead] % (q - 1))[:, None], coords] @ place
    lines = x[np.argsort(label, kind="stable")].reshape(-1, q - 1)
    return DisjointFamily(group, lines.tolist())


def heisenberg_partition(p: int) -> DisjointFamily:
    """Stars of all order-p subgroups of the Heisenberg group over Z_p.

    Needs every non-identity element to have order p, which holds exactly for
    odd p; the stars then partition the non-identity elements.  The powers
    x^1..x^p of all elements are taken together, one array at a time: x^p = 0
    says x has order p, and the least of x^1..x^(p-1), the least member of
    the star of <x>, labels the star x lies in.
    """
    group = HeisenbergGroup(p)
    x = np.arange(1, group.order, dtype=np.int64)
    step = group.diff_array(0, x)  # y * step^-1 = y * x
    power, label = x, x
    for _ in range(p - 1):
        label = np.minimum(label, power)
        power = group.diff_array(power, step)
    if power.any():
        g = int(x[np.argmax(power != 0)])
        raise PartitionFailure(
            f"element {g} has order {group.order_of(g)}, not {p}; no star partition"
        )
    stars = x[np.argsort(label, kind="stable")].reshape(-1, p - 1)
    return DisjointFamily(group, stars.tolist())


def f21_group() -> CayleyTableGroup:
    """The non-abelian group of order 21: a^7 = b^3 = 1, b a b^-1 = a^2.

    Elements are normal forms a^i b^j encoded as 3*i + j, so multiplying uses
    b^j a^k = a^(k * 2^j) b^j.
    """
    def compose(x: int, y: int) -> int:
        i, j = divmod(x, 3)
        k, l = divmod(y, 3)
        return ((i + k * pow(2, j, 7)) % 7) * 3 + (j + l) % 3

    return CayleyTableGroup([[compose(x, y) for y in range(21)] for x in range(21)])


def f21_difference_set() -> Tuple[CayleyTableGroup, Tuple[int, ...]]:
    """The (21, 5, 1) difference set {1, a, a^3, b, a^2 b^2} in that group."""
    group = f21_group()
    members = tuple(sorted([0, 3, 9, 1, 8]))
    if check_difference_set(group, members) != 1:
        raise NotADifferenceSet("internal error: fixture set failed verification")
    return group, members


def f21_fixture() -> DisjointFamily:
    """Complement pair over the order-21 difference set."""
    group, members = f21_difference_set()
    return complement_pair(group, members)
