"""Finite groups on dense element indices 0..n-1 with the identity pinned at 0."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BadDescriptor, GroupTooLarge, IdentityNotZero, NotAGroup

SUBGROUP_ORDER_LIMIT = 256
# Largest group order any constructor accepts.  Dense per-group data (diff_rows,
# profiles) grow with n or n^2, so larger groups are refused before any of it,
# or any big power of a prime, is built.
MAX_ORDER = 1 << 20
# Pairs handled per step of the pair-counting kernel.  Small enough that every
# temporary stays a few hundred KB, so heap growth and allocator thresholds
# track the data the caller keeps, not the kernel's scratch.
PAIR_CHUNK = 1 << 15
# Cells per row block of the count matrix (at least one row a block).  The
# profile reduces each block as it comes, so a pass holds O(BLOCK_CELLS + n),
# never the m x n matrix.  At 2 MB the block buffer, one for every block of a
# pass, outgrows the chunk temporaries, and glibc's malloc then keeps those in
# the heap from chunk to chunk instead of returning their pages and faulting
# them in again: a heisenberg_partition(11) profile took about 8,000 minor
# faults with 2^15-cell blocks and none with 2^18.
BLOCK_CELLS = 1 << 18


def check_integer(value, name: str = "element") -> None:
    """TypeError unless value is an int or numpy integer; a bool is refused, so is 2.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} {value!r} is not an integer")


def check_order(order: int) -> int:
    """The order itself; GroupTooLarge when it exceeds MAX_ORDER."""
    if order > MAX_ORDER:
        raise GroupTooLarge(f"group too large: order {order} exceeds MAX_ORDER {MAX_ORDER}")
    return order


def bounded_power(p: int, e: int) -> int:
    """p**e for p >= 2 and e >= 1; past MAX_ORDER it is refused before p**e is formed."""
    if p > MAX_ORDER or e >= MAX_ORDER.bit_length():
        raise GroupTooLarge(f"group too large: order {p}^{e} exceeds MAX_ORDER {MAX_ORDER}")
    return check_order(p**e)


def _prime_power_order(p: int, e: int) -> int:
    """p**e for a prime p and e >= 1; past MAX_ORDER it is refused before the primality test."""
    if e < 1:
        raise NotAGroup(f"exponent must be positive, got {e}")
    if p < 2:
        raise NotAGroup(f"{p} is not prime")
    order = bounded_power(p, e)
    if not is_prime(p):
        raise NotAGroup(f"{p} is not prime")
    return order


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _digitwise(values: np.ndarray, weight: int, k: int) -> np.ndarray:
    """t[sum_i s_i r^i] = sum_i values[s_i] * weight^i over k digits s_i < r = len(values)."""
    table = np.zeros(1, dtype=np.int64)
    for i in range(k):  # digit i becomes the major axis
        table = (values * weight**i)[:, None] + table
        table = table.ravel()
    return table


class FiniteGroup:
    """Base class: each kind defines its law once, as ``diff_array``.

    The identity is always index 0.  ``diff_array(a, b)`` is the left
    difference a * b^-1, elementwise over numpy index arrays with
    broadcasting; every pair-counting loop goes through it.  The scalar
    law is derived from it, each as a Python int: ``inv(b)`` is 0 * b^-1,
    ``mul(a, b)`` is a * inv(b)^-1, and ``diff`` and ``order_of`` follow.
    Each goes through ``diff``, which raises TypeError for an element that
    is not an integer and ValueError for one outside 0..n-1: it is never
    rounded or read mod n.
    Composition is written multiplicatively; for the additive groups in this
    package mul is addition.  Every kind states ``abelian`` itself, as a
    class attribute or in its constructor.
    """

    kind = "abstract"

    def __init__(self, order: int):
        if order < 1:
            raise NotAGroup(f"order must be positive, got {order}")
        self.order = check_order(order)

    def diff_array(self, a, b) -> np.ndarray:
        """a * b^-1 elementwise over int64 index arrays, broadcasting a against b."""
        raise NotImplementedError

    def diff(self, a: int, b: int) -> int:
        """Left difference a * b^-1; the one difference convention used throughout.

        TypeError when a or b is not an int or numpy integer (a bool is
        refused too), ValueError when it lies outside 0..n-1.
        """
        for x in (a, b):
            check_integer(x)
            if not 0 <= x < self.order:
                raise ValueError(f"element {x} out of range for order {self.order}")
        return int(self.diff_array(a, b))

    def inv(self, b: int) -> int:
        return self.diff(0, b)

    def mul(self, a: int, b: int) -> int:
        return self.diff(a, self.inv(b))

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def diff_rows(self) -> List[List[int]]:
        """diff_rows[a][b] == a * b^-1 as Python ints, for scalar-indexed hot loops.

        The member pass (``_member_difference_keys``) over all of G, one
        ``tolist`` a chunk of max(1, PAIR_CHUNK // n) rows.
        """
        chunks = _member_difference_keys(self, np.arange(self.order, dtype=np.int64))
        return [row for keys in chunks for row in keys.tolist()]

    def automorphism_subgroup(self) -> List[List[int]]:
        """A cheap subgroup A of Aut(G) as permutation lists, the identity first.

        Each sigma in A fixes 0 and keeps every difference: sigma(a * b^-1) =
        sigma(a) * sigma(b)^-1, and A is closed under composition.  The lists
        hold |A| * n entries, with |A| < n for every kind that overrides this.
        The base class gives the identity alone, which is correct for every group.
        """
        return [list(range(self.order))]

    def order_of(self, a: int) -> int:
        k, x, step = 1, a, self.inv(a)  # x * step^-1 = x * a
        while x != 0:
            x = self.diff(x, step)
            k += 1
        return k

    def describe(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class CyclicGroup(FiniteGroup):
    """Integers mod n under addition."""

    kind = "cyclic"
    abelian = True

    def __init__(self, n: int):
        super().__init__(n)
        self.n = n

    def diff_array(self, a, b) -> np.ndarray:
        d = np.subtract(a, b)
        d %= self.n
        return d

    def automorphism_subgroup(self) -> List[List[int]]:
        """x -> u*x for each unit u mod n, u = 1 first."""
        n = self.n
        units = np.array([u for u in range(1, max(n, 2)) if gcd(u, n) == 1], dtype=np.int64)
        return (units[:, None] * np.arange(n, dtype=np.int64) % n).tolist()

    def describe(self) -> dict:
        return {"kind": "cyclic", "n": self.n}


class DirectProductGroup(FiniteGroup):
    """Pairs (a, b) composed componentwise, encoded as a * |H| + b."""

    kind = "product"

    def __init__(self, g: FiniteGroup, h: FiniteGroup):
        super().__init__(g.order * h.order)
        self.g = g
        self.h = h
        self.abelian = g.abelian and h.abelian

    def diff_array(self, x, y) -> np.ndarray:
        xa, xb = np.divmod(x, self.h.order)
        ya, yb = np.divmod(y, self.h.order)
        d = self.g.diff_array(xa, ya)
        d *= self.h.order
        d += self.h.diff_array(xb, yb)
        return d

    def automorphism_subgroup(self) -> List[List[int]]:
        """The factors' subgroups acting componentwise, (identity, identity) first."""
        k = self.h.order
        return [[a * k + b for a in sg for b in sh]
                for sg in self.g.automorphism_subgroup()
                for sh in self.h.automorphism_subgroup()]

    def describe(self) -> dict:
        return {"kind": "product", "factors": [self.g.describe(), self.h.describe()]}


class ElementaryAbelianGroup(FiniteGroup):
    """Z_p^e with componentwise addition; index digits base p, coordinate 0 major.

    For p = 2 the law is XOR and for e = 1 subtraction mod p.  Otherwise it
    is carry-free: the e digits split into a high half of ceil(e/2) digits and
    a low half of floor(e/2).  Each half of a, and of -b, is spelled in radix
    2p, so that adding the two spellings carries nothing, and a fold table
    reduces each digit of that sum mod p.  Per pair that is one add and one
    gather a half, plus one add.  The tables, built on first use, hold
    2 p^k + (2p)^k int64 cells for each half of k digits: 96,228 cells for
    Z_3^12, whose order is 531,441.
    """

    kind = "elementary_abelian"
    abelian = True

    def __init__(self, p: int, e: int):
        super().__init__(_prime_power_order(p, e))
        self.p = p
        self.e = e

    def to_vector(self, x: int) -> Tuple[int, ...]:
        digits = []
        for _ in range(self.e):
            x, d = divmod(x, self.p)
            digits.append(d)
        return tuple(reversed(digits))

    def from_vector(self, vec: Sequence[int]) -> int:
        x = 0
        for d in vec:
            x = x * self.p + d % self.p
        return x

    @cached_property
    def _halves(self) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(spell, spell of the negative, fold) for the high half, then the low half.

        For a half of k digits, spell[v] writes v's digits in radix 2p, the
        second table those of -v, digit by digit mod p; fold[s] reduces each
        radix-2p digit of s mod p and places the half within the index.
        """
        p, low = self.p, self.e // 2
        digits = np.arange(p, dtype=np.int64)
        folded = np.arange(2 * p, dtype=np.int64) % p
        return tuple(
            (_digitwise(digits, 2 * p, k), _digitwise(-digits % p, 2 * p, k),
             _digitwise(folded * p**shift, p, k))
            for k, shift in ((self.e - low, low), (low, 0))
        )

    def diff_array(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)  # digitwise subtraction mod 2
        if self.e == 1:
            d = np.subtract(a, b)
            d %= self.p
            return d
        (hi_a, hi_b, hi_fold), (lo_a, lo_b, lo_fold) = self._halves
        # the halves are split on the unbroadcast operands, combined on the full shape
        low = self.p ** (self.e // 2)
        a_hi, a_lo = np.divmod(a, low)
        b_hi, b_lo = np.divmod(b, low)
        out = hi_fold[hi_a[a_hi] + hi_b[b_hi]]
        out += lo_fold[lo_a[a_lo] + lo_b[b_lo]]
        return out

    def automorphism_subgroup(self) -> List[List[int]]:
        """x -> u*x for each u in GF(p^e)^*: the powers of a Singer cycle, the identity first.

        ``FieldGF`` packs its elements as base-p digits too, and both add digit
        by digit, so field multiplication by u is additive on these indices.
        """
        from .gf import FieldGF  # gf imports this module

        field = FieldGF(self.p, self.e)
        q = self.order
        for g in range(2, q):  # the least primitive element; GF(2)^* is {1}
            cycle = [field.mul(g, x) for x in range(q)]
            k, y = 1, cycle[1]
            while y != 1:
                y, k = cycle[y], k + 1
            if k == q - 1:
                break
        else:
            return [list(range(q))]
        perms = [list(range(q))]
        for _ in range(q - 2):
            perms.append([cycle[y] for y in perms[-1]])
        return perms

    def describe(self) -> dict:
        return {"kind": "elementary_abelian", "p": self.p, "e": self.e}


class DihedralGroup(FiniteGroup):
    """Dihedral group of order 2n: rotations x^r and reflections y x^r.

    Index encodes (reflection bit s, rotation exponent r) as s*n + r, so the
    identity x^0 is 0.  Relations: x^n = y^2 = 1 and x y = y x^-1.
    """

    kind = "dihedral"

    def __init__(self, n: int):
        if n < 1:
            raise NotAGroup(f"rotation order must be positive, got {n}")
        super().__init__(2 * n)
        self.n = n
        self.abelian = n <= 2

    def diff_array(self, a, b) -> np.ndarray:
        # b^-1 is b for a reflection (t = 1) and x^-u for a rotation, so the
        # rotation part is u - r after a reflection and r - u otherwise.
        n = self.n
        s, r = np.divmod(a, n)
        t, u = np.divmod(b, n)
        rot = r - u
        rot *= 1 - 2 * t
        rot %= n
        d = np.bitwise_xor(s, t)
        d *= n
        d += rot
        return d

    def describe(self) -> dict:
        return {"kind": "dihedral", "n": self.n}


class HeisenbergGroup(FiniteGroup):
    """Upper unitriangular 3x3 matrices over Z_p, encoded as triples (a, b, c).

    (a, b, c) stands for the matrix with a top-middle, b top-right, c middle-right;
    index is a*p^2 + b*p + c.  For odd p every non-identity element has order p.
    """

    kind = "heisenberg"
    abelian = False

    def __init__(self, p: int):
        super().__init__(_prime_power_order(p, 3))
        self.p = p

    def to_triple(self, x: int) -> Tuple[int, int, int]:
        x, c = divmod(x, self.p)
        a, b = divmod(x, self.p)
        return a, b, c

    def from_triple(self, a: int, b: int, c: int) -> int:
        p = self.p
        return (a % p) * p * p + (b % p) * p + (c % p)

    def diff_array(self, x, y) -> np.ndarray:
        # (a, b, c) * (d, e, f)^-1 = (a - d, b - e - (a - d) f, c - f)
        p = self.p
        x, c = np.divmod(x, p)
        a, b = np.divmod(x, p)
        y, f = np.divmod(y, p)
        d, e = np.divmod(y, p)
        top = np.subtract(a, d)
        mid = b - e - top * f
        mid %= p
        top %= p
        top *= p
        top += mid
        top *= p
        top += (c - f) % p
        return top

    def describe(self) -> dict:
        return {"kind": "heisenberg", "p": self.p}


class CayleyTableGroup(FiniteGroup):
    """Group given by an explicit n x n composition table, validated on construction."""

    kind = "cayley_table"

    def __init__(self, table: Sequence[Sequence[int]]):
        n = len(table)
        super().__init__(n)
        rows = [tuple(row) for row in table]
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not 0 <= v < n:
                    raise NotAGroup(f"entry {v} in row {i} out of range")
        self.table = rows
        self._table_np = np.array(rows, dtype=np.int64)
        self._validate()
        self._inv_np = np.nonzero(self._table_np == 0)[1]  # row a holds 0 at column a^-1
        self.abelian = bool((self._table_np == self._table_np.T).all())

    def _validate(self) -> None:
        n = self.order
        t = self._table_np
        # Latin square: each row and column a permutation.
        ref = np.arange(n)
        if not (np.all(np.sort(t, axis=1) == ref) and np.all(np.sort(t, axis=0) == ref[:, None])):
            raise NotAGroup("table rows/columns are not permutations")
        if not (np.array_equal(t[0], ref) and np.array_equal(t[:, 0], ref)):
            raise IdentityNotZero("index 0 does not act as the identity")
        # Associativity, one slice of c at a time to keep memory flat.
        for c in range(n):
            if not np.array_equal(t[t, c], t[:, t[:, c]]):
                raise NotAGroup(f"associativity fails against element {c}")

    def diff_array(self, a, b) -> np.ndarray:
        return self._table_np[a, self._inv_np[b]]

    def describe(self) -> dict:
        return {"kind": "cayley_table", "table": [list(r) for r in self.table]}


def _int_param(desc: dict, key: str) -> int:
    value = desc.get(key)
    if type(value) is not int:  # bool is an int subclass, and no order
        raise BadDescriptor(f"{desc.get('kind')} descriptor needs an integer {key!r}, "
                            f"got {value!r}")
    return value


def _list_param(desc: dict, key: str) -> list:
    value = desc.get(key)
    if not isinstance(value, list):
        raise BadDescriptor(f"{desc.get('kind')} descriptor needs a list {key!r}, got {value!r}")
    return value


def group_from_descriptor(desc: dict) -> FiniteGroup:
    """Rebuild a group from its JSON descriptor; a malformed one raises BadDescriptor.

    A descriptor holds exactly the keys its kind's ``describe()`` writes; any
    other key is refused, in nested product factors too.
    """
    group = _group_of(desc)
    written = group.describe()
    unknown = [key for key in desc if key not in written]
    if unknown:
        raise BadDescriptor(f"{desc['kind']} descriptor has unknown keys {unknown!r}")
    return group


def _group_of(desc: dict) -> FiniteGroup:
    if not isinstance(desc, dict):
        raise BadDescriptor(f"a group descriptor is a JSON object, got {desc!r}")
    kind = desc.get("kind")
    if kind == "cyclic":
        return CyclicGroup(_int_param(desc, "n"))
    if kind == "product":
        _check_product_shape(desc)
        factors = [group_from_descriptor(d) for d in desc["factors"]]
        g = factors[0]
        for h in factors[1:]:
            g = DirectProductGroup(g, h)
        return g
    if kind == "elementary_abelian":
        return ElementaryAbelianGroup(_int_param(desc, "p"), _int_param(desc, "e"))
    if kind == "dihedral":
        return DihedralGroup(_int_param(desc, "n"))
    if kind == "heisenberg":
        return HeisenbergGroup(_int_param(desc, "p"))
    if kind == "cayley_table":
        table = _list_param(desc, "table")
        if not all(isinstance(row, list) and all(type(v) is int for v in row) for row in table):
            raise BadDescriptor("a cayley_table descriptor needs a list of integer rows")
        return CayleyTableGroup(table)
    raise BadDescriptor(f"unknown group kind {kind!r}")


def _check_product_shape(desc: dict) -> None:
    """Refuse a product descriptor before any factor is built, and without recursion.

    Every product in it needs at least two factors, and it may hold at most
    log2(MAX_ORDER) = 20 factors in all that are not products, nested factors
    included: 21 non-trivial ones already pass MAX_ORDER.  With at least two
    factors a product, no product nests deeper than that either.
    """
    most = MAX_ORDER.bit_length() - 1
    leaves, products = 0, [desc]
    while products:
        factors = _list_param(products.pop(), "factors")
        if len(factors) < 2:
            raise NotAGroup("product descriptor needs at least two factors")
        nested = [d for d in factors if isinstance(d, dict) and d.get("kind") == "product"]
        products += nested
        leaves += len(factors) - len(nested)
        if leaves > most:
            raise BadDescriptor(f"product descriptor has more than {most} factors in all")


def _complement_is_cheaper(n: int, span: int) -> bool:
    """Whether a family of span elements leaves fewer of the n elements outside it than in it.

    Both routes visit the sum k_i^2 pairs within the sets; past those the
    support route visits span peers an element and the complement route n - span.
    """
    return n - span < span


def packed(sets: Sequence[Sequence[int]]) -> Tuple[List[int], np.ndarray]:
    """The pair kernel's input for sets held as tuples: their sizes, and their members as int64 in set order."""
    sizes = [len(s) for s in sets]
    return sizes, np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=sum(sizes))


def difference_count_blocks(
    group: FiniteGroup, sizes: Sequence[int], elems: np.ndarray, span: int = 0
) -> Iterator[np.ndarray]:
    """Cross pairs counted by left difference, as int64 blocks of consecutive rows.

    The sets come packed: ``sizes`` holds each set's size and ``elems`` the
    members of every set in turn, as int64 (``packed`` makes the pair from
    tuples).  Yields the rows of the (len(sizes), n) count matrix in order,
    at most max(1, BLOCK_CELLS // n) rows a block.  Cell (i, d) counts the
    pairs (a, b) with a in set i, b in another set and a * b^-1 = d.  The
    pairs within one set are the member pass's (``_member_difference_keys``),
    not this kernel's.  With span > 0 the elements, in order, fall into
    families of span elements each, and b ranges over a's family only: the
    rows of many families of one total are counted in one pass.  The sets of
    a family must be pairwise disjoint.  Every block is a view of one buffer
    that the next block overwrites: copy what must outlive the step.

    One identity serves both routes.  With S the support of a's family, over
    the pairs with a * b^-1 = d, the diagonal a = b included,

        N_i(d) = #{A_i x S} - #{A_i x A_i} = k_i - #{A_i x A_i} - #{A_i x (G \\ S)},

    since each a and d have exactly one b in G with a * b^-1 = d; the
    diagonal also makes column 0 come out 0.  So every step subtracts its
    rows' pairs within their own sets, then either adds the pairs with S,
    the rows starting at 0, or subtracts the pairs with G \\ S, the rows
    starting at k_i.  A family of total T costs T^2 + sum k_i^2 pairs by
    the support and T * (n - T) + sum k_i^2 by the complement, and the call
    takes the route with fewer pairs (``_complement_is_cheaper``).  The peer
    table, S or G \\ S of each family, is built for the block's families
    alone, so either route holds O(BLOCK_CELLS + n) numbers, never the
    m x n matrix.

    A step holds at most PAIR_CHUNK pairs or one a's, and adds or subtracts
    1 at (row of a - first row) * n + diff_array(a, b) of its block, by
    ``ufunc.at``.  When its a lie in one family they share one peer row.
    """
    n = group.order
    row_sizes = np.asarray(sizes, dtype=np.int64)
    m = len(row_sizes)
    starts = np.zeros(m + 1, dtype=np.int64)
    row_sizes.cumsum(out=starts[1:])
    owner = np.repeat(np.arange(m, dtype=np.int64), row_sizes)
    own_size = np.repeat(row_sizes, row_sizes)  # per element: its set's size and first place
    own_start = np.repeat(starts[:-1], row_sizes)
    span = span or max(len(elems), 1)  # with no elements any span serves
    by_complement = _complement_is_cheaper(n, span)
    peers_per_a = n - span if by_complement else span
    a_step = max(1, PAIR_CHUNK // (int(row_sizes.max(initial=1)) + peers_per_a))
    peer_step = np.subtract.at if by_complement else np.add.at
    rows_per_block = max(1, BLOCK_CELLS // max(n, 1))
    buffer = np.empty(min(m, rows_per_block) * n, dtype=np.int64)
    for first in range(0, m, rows_per_block):
        last = min(m, first + rows_per_block)
        counts = buffer[: (last - first) * n]
        counts.reshape(last - first, n)[:] = row_sizes[first:last, None] if by_complement else 0
        begin, end = int(starts[first]), int(starts[last])
        first_family = begin // span
        peers = elems[first_family * span : -(-end // span) * span].reshape(-1, span)
        if by_complement:  # G \ S of each family with rows in this block, (families, n - span)
            outside = np.ones((len(peers), n), dtype=bool)
            outside[np.arange(len(peers))[:, None], peers] = False
            peers = np.nonzero(outside)[1].reshape(len(peers), n - span)
        for lo in range(begin, end, a_step):
            hi = min(lo + a_step, end)
            a = elems[lo:hi]
            offset = (owner[lo:hi] - first) * n  # where each a's row starts in the block
            k = own_size[lo:hi]
            ends = np.cumsum(k)
            own = np.arange(ends[-1]) + np.repeat(own_start[lo:hi] - ends + k, k)
            keys = group.diff_array(np.repeat(a, k), elems[own])
            keys += np.repeat(offset, k)
            np.subtract.at(counts, keys, 1)
            if hi <= lo - lo % span + span:  # one family
                peer = peers[None, lo // span - first_family]
            else:
                peer = peers[np.arange(lo, hi) // span - first_family]
            keys = group.diff_array(a[:, None], peer)
            keys += offset[:, None]
            peer_step(counts, keys.ravel(), 1)
        yield counts.reshape(last - first, n)


def self_difference_counts(group: FiniteGroup, members: Iterable[int]) -> np.ndarray:
    """How often each element arises as a * b^-1 over distinct members a, b.

    The member pass (``_member_difference_keys``), counted: its pairs a = b
    give only the identity, so column 0 is set to 0.  Only the difference-set
    counters need these multiplicities; which differences occur at all is
    the membership step's mask (``_member_differences``).  A member outside
    0..n-1 raises ValueError.
    """
    counts = np.zeros(group.order, dtype=np.int64)
    for keys in _member_difference_keys(group, sorted(set(members))):
        np.add.at(counts, keys, 1)
    counts[0] = 0
    return counts


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as its sorted carrier plus the generators that produced it."""

    group: FiniteGroup = field(compare=False)
    carrier: Tuple[int, ...]
    generators: Tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return len(self.carrier)

    def star(self) -> Tuple[int, ...]:
        """The carrier with the identity removed."""
        return tuple(x for x in self.carrier if x != 0)

    def __contains__(self, x: int) -> bool:
        return x in set(self.carrier)


def _check_range(group: FiniteGroup, members: Sequence[int]) -> None:
    """TypeError for a member that is not an integer, ValueError for ascending members outside 0..n-1.

    An integer array passes by its dtype, with no work per element.
    """
    if not (isinstance(members, np.ndarray) and members.dtype.kind in "iu"):
        for x in members:
            check_integer(x)
    if len(members) and not (0 <= members[0] and members[-1] < group.order):
        bad = members[0] if members[0] < 0 else members[-1]
        raise ValueError(f"element {bad} out of range for order {group.order}")


def _member_difference_keys(group: FiniteGroup, ascending: Sequence[int]) -> Iterator[np.ndarray]:
    """Every a * b^-1 with a, b in the ascending members, a = b included, as row chunks.

    The one pass over the pairs of a single set: a chunk is
    ``diff_array(rows, members)`` for the next max(1, PAIR_CHUNK // k) of the
    k members as rows, so it holds at most PAIR_CHUNK pairs, or one row.  A
    member outside 0..n-1 raises ValueError before any pair.  It serves the
    membership mask, the self-counts and ``diff_rows``.
    """
    _check_range(group, ascending)
    elems = np.asarray(ascending, dtype=np.int64)
    rows = max(1, PAIR_CHUNK // max(len(elems), 1))
    for lo in range(0, len(elems), rows):
        yield group.diff_array(elems[lo : lo + rows, None], elems)


def _member_differences(group: FiniteGroup, members: Sequence[int]) -> np.ndarray:
    """A boolean mask over G of every a * b^-1 with a, b in the ascending members, a = b included.

    The one membership step of ``_closure``, ``is_subgroup`` and
    ``internal_differences``: the member pass (``_member_difference_keys``),
    marked.  A member outside 0..n-1 raises ValueError before any pair.
    """
    reached = np.zeros(group.order, dtype=bool)
    for keys in _member_difference_keys(group, members):
        reached[keys] = True
    return reached


def closure(group: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators (BFS over right multiplication)."""
    gens = sorted(set(generators))
    _check_range(group, gens)
    return _closure(group, np.array([0, *gens], dtype=np.int64), gens)


def _closure(group: FiniteGroup, start: np.ndarray, gens: Sequence[int]) -> Subgroup:
    """<gens> from start, members of <gens> and 0.

    While a set S of members holds at most PAIR_CHUNK pairs, it becomes
    S * S^-1 by the membership step (``_member_differences``): that keeps S
    (S holds 0), doubles the length of the words reached, and adds nothing
    only when S is a subgroup, which is ``is_subgroup``'s test.  A larger S
    grows as a BFS over right multiplication: each level takes the frontier
    times every generator, and times up to PAIR_CHUNK / |frontier| of its own
    members, which lie in <gens> too, taken evenly across the frontier so
    they stay long steps as it scatters: a long cycle takes about log2 of its
    length levels.  The products go at most PAIR_CHUNK a step, and those not
    inside before the level make the next frontier.
    """
    inside = np.zeros(group.order, dtype=bool)
    inside[start] = True
    inside[list(gens)] = True
    members = np.flatnonzero(inside)
    while len(members) ** 2 <= PAIR_CHUNK:
        inside = _member_differences(group, members)
        grown = np.flatnonzero(inside)
        if 2 * len(grown) > group.order:  # <gens> holds them, and no proper subgroup does
            return Subgroup(group, tuple(range(group.order)), tuple(gens))
        if len(grown) == len(members):
            return Subgroup(group, tuple(grown.tolist()), tuple(gens))
        members = grown
    frontier = members
    gen_steps = group.diff_array(0, np.asarray(gens, dtype=np.int64))  # x * g = x * (g^-1)^-1
    while len(frontier):
        before = inside.copy()
        extra = frontier[:: -(-len(frontier) // max(1, PAIR_CHUNK // len(frontier)))]
        steps = np.concatenate([gen_steps, group.diff_array(0, extra)])
        rows = max(1, PAIR_CHUNK // len(steps))
        for lo in range(0, len(frontier), rows):
            inside[group.diff_array(frontier[lo : lo + rows, None], steps)] = True
        frontier = np.flatnonzero(inside > before)
    return Subgroup(group, tuple(np.flatnonzero(inside).tolist()), tuple(gens))


def is_subgroup(group: FiniteGroup, carrier: Iterable[int]) -> bool:
    """Whether the elements form a subgroup: they hold 0 and every a * b^-1 among them.

    One membership step (``_member_differences``), as in ``_closure``: with 0
    among them every member a = a * 0^-1 is reached, so they are closed
    exactly when nothing else is.  A member outside 0..n-1 raises ValueError.
    """
    members = sorted(set(carrier))
    reached = _member_differences(group, members)
    return bool(members) and members[0] == 0 and np.count_nonzero(reached) == len(members)


def _carrier_of(group: FiniteGroup, subgroup) -> Tuple[int, ...]:
    """The ascending carrier of a subgroup of ``group``, given as a Subgroup or as elements.

    Every carrier is range-checked.  Only a Subgroup built on this very group
    object is trusted to be closed; any other carrier, a Subgroup of another
    group object included, must pass ``is_subgroup``.
    """
    if isinstance(subgroup, Subgroup):
        trusted, elements = subgroup.group is group, subgroup.carrier
    else:
        trusted, elements = False, subgroup
    members = tuple(sorted(set(elements)))
    _check_range(group, members)
    if not trusted:
        if 0 not in members:
            raise ValueError("subgroup carrier must contain the identity 0")
        if not is_subgroup(group, members):
            raise ValueError("carrier is not closed under composition")
    return members


def left_cosets(group: FiniteGroup, subgroup) -> List[Tuple[int, ...]]:
    """Left cosets g*H, the coset of the identity first, the rest by least member.

    Each x*H is sorted, PAIR_CHUNK products a step, and kept where x is its least member.
    """
    carrier_inv = group.diff_array(0, np.array(_carrier_of(group, subgroup), dtype=np.int64))
    x = np.arange(group.order, dtype=np.int64)
    rows = max(1, PAIR_CHUNK // len(carrier_inv))
    cosets = []
    for lo in range(0, group.order, rows):
        block = np.sort(group.diff_array(x[lo : lo + rows, None], carrier_inv), axis=1)
        cosets += map(tuple, block[block[:, 0] == x[lo : lo + rows]].tolist())
    return cosets


def enumerate_subgroups(group: FiniteGroup, limit: int = SUBGROUP_ORDER_LIMIT) -> List[Subgroup]:
    """All subgroups, found by closing each known subgroup H with one more element.

    Since <H, h*g> = <H, g>, only the least g of each right coset H*g other
    than H is tried, which is also the first g of that coset a walk over every
    element would try: the subgroups and their generators come out the same.
    Sorted by order, then lexicographically on the carrier.  Guarded by a group
    order limit: beyond it the subgroup lattice can explode combinatorially.
    """
    n = group.order
    if n > limit:
        raise GroupTooLarge(f"order {n} exceeds subgroup enumeration limit {limit}")
    x = np.arange(n, dtype=np.int64)
    x_inv = group.diff_array(0, x)
    trivial = Subgroup(group, (0,), ())
    found = {(0,): trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for sub in frontier:
            carrier = np.array(sub.carrier, dtype=np.int64)
            least = group.diff_array(carrier[:, None], x_inv).min(axis=0)  # of each H * x
            for g in np.flatnonzero(least == x)[1:].tolist():
                bigger = _closure(group, carrier, sorted((*sub.generators, g)))
                if bigger.carrier not in found:
                    found[bigger.carrier] = bigger
                    fresh.append(bigger)
        frontier = fresh
    return sorted(found.values(), key=lambda s: (s.order, s.carrier))
