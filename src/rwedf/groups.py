"""Finite groups on dense element indices 0..n-1 with the identity pinned at 0."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
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


class FiniteGroup:
    """Base class: subclasses define mul/inv arithmetic on indices.

    The identity is always index 0.  Composition is written multiplicatively;
    for the additive groups in this package mul is addition.  ``diff_array``
    is the same left difference as ``diff``, elementwise over numpy index
    arrays with broadcasting; every pair-counting loop goes through it.
    """

    kind = "abstract"

    def __init__(self, order: int):
        if order < 1:
            raise NotAGroup(f"order must be positive, got {order}")
        self.order = check_order(order)

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def diff(self, a: int, b: int) -> int:
        """Left difference a * b^-1; the one difference convention used throughout."""
        return self.mul(a, self.inv(b))

    def diff_array(self, a, b) -> np.ndarray:
        """a * b^-1 elementwise over int64 index arrays, broadcasting a against b."""
        raise NotImplementedError

    @cached_property
    def abelian(self) -> bool:
        n = self.order
        mul = self.mul
        return all(mul(a, b) == mul(b, a) for a in range(n) for b in range(a + 1, n))

    @cached_property
    def diff_rows(self) -> List[List[int]]:
        """diff_rows[a][b] == a * b^-1 as Python ints, for scalar-indexed hot loops."""
        idx = np.arange(self.order, dtype=np.int64)
        step = max(1, PAIR_CHUNK // self.order)
        rows: List[List[int]] = []
        for lo in range(0, self.order, step):
            rows += self.diff_array(idx[lo : lo + step, None], idx).tolist()
        return rows

    def automorphism_subgroup(self) -> List[List[int]]:
        """A cheap subgroup A of Aut(G) as permutation lists, the identity first.

        Each sigma in A fixes 0 and keeps every difference: sigma(a * b^-1) =
        sigma(a) * sigma(b)^-1, and A is closed under composition.  The lists
        hold |A| * n entries, with |A| < n for every kind that overrides this.
        The base class gives the identity alone, which is correct for every group.
        """
        return [list(range(self.order))]

    def order_of(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def describe(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class CyclicGroup(FiniteGroup):
    """Integers mod n under addition."""

    kind = "cyclic"

    def __init__(self, n: int):
        super().__init__(n)
        self.n = n

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def inv(self, a: int) -> int:
        return (-a) % self.n

    def diff_array(self, a, b) -> np.ndarray:
        d = np.subtract(a, b)
        d %= self.n
        return d

    def automorphism_subgroup(self) -> List[List[int]]:
        """x -> u*x for each unit u mod n, u = 1 first."""
        n = self.n
        units = np.array([u for u in range(1, max(n, 2)) if gcd(u, n) == 1], dtype=np.int64)
        return (units[:, None] * np.arange(n, dtype=np.int64) % n).tolist()

    @cached_property
    def abelian(self) -> bool:
        return True

    def describe(self) -> dict:
        return {"kind": "cyclic", "n": self.n}


class DirectProductGroup(FiniteGroup):
    """Pairs (a, b) composed componentwise, encoded as a * |H| + b."""

    kind = "product"

    def __init__(self, g: FiniteGroup, h: FiniteGroup):
        super().__init__(g.order * h.order)
        self.g = g
        self.h = h

    def _encode(self, a: int, b: int) -> int:
        return a * self.h.order + b

    def _decode(self, x: int) -> Tuple[int, int]:
        return divmod(x, self.h.order)

    def mul(self, x: int, y: int) -> int:
        xa, xb = self._decode(x)
        ya, yb = self._decode(y)
        return self._encode(self.g.mul(xa, ya), self.h.mul(xb, yb))

    def inv(self, x: int) -> int:
        a, b = self._decode(x)
        return self._encode(self.g.inv(a), self.h.inv(b))

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

    @cached_property
    def abelian(self) -> bool:
        return self.g.abelian and self.h.abelian

    def describe(self) -> dict:
        return {"kind": "product", "factors": [self.g.describe(), self.h.describe()]}


class ElementaryAbelianGroup(FiniteGroup):
    """Z_p^e with componentwise addition; index digits base p, coordinate 0 major."""

    kind = "elementary_abelian"

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

    def mul(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        power = 1
        for _ in range(self.e):
            out += ((a + b) % p) * power
            a //= p
            b //= p
            power *= p
        return out

    def inv(self, a: int) -> int:
        p = self.p
        out = 0
        power = 1
        for _ in range(self.e):
            out += (-a % p) * power
            a //= p
            power *= p
        return out

    def diff_array(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)  # digitwise subtraction mod 2
        p = self.p
        out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
        power = 1
        for _ in range(self.e):
            # digits are taken on the unbroadcast operands, combined on the full shape
            d = np.subtract(np.asarray(a) // power % p, np.asarray(b) // power % p)
            d %= p
            d *= power
            out += d
            power *= p
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

    @cached_property
    def abelian(self) -> bool:
        return True

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

    def mul(self, a: int, b: int) -> int:
        n = self.n
        s, r = divmod(a, n)
        t, u = divmod(b, n)
        if t:
            return (s ^ t) * n + (u - r) % n
        return s * n + (r + u) % n

    def inv(self, a: int) -> int:
        n = self.n
        s, r = divmod(a, n)
        if s:
            return a
        return (-r) % n

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

    @cached_property
    def abelian(self) -> bool:
        return self.n <= 2

    def describe(self) -> dict:
        return {"kind": "dihedral", "n": self.n}


class HeisenbergGroup(FiniteGroup):
    """Upper unitriangular 3x3 matrices over Z_p, encoded as triples (a, b, c).

    (a, b, c) stands for the matrix with a top-middle, b top-right, c middle-right;
    index is a*p^2 + b*p + c.  For odd p every non-identity element has order p.
    """

    kind = "heisenberg"

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

    def mul(self, x: int, y: int) -> int:
        p = self.p
        a, b, c = self.to_triple(x)
        d, e, f = self.to_triple(y)
        return self.from_triple(a + d, b + e + a * f, c + f)

    def inv(self, x: int) -> int:
        a, b, c = self.to_triple(x)
        return self.from_triple(-a, a * c - b, -c)

    def diff_array(self, x, y) -> np.ndarray:
        # (a, b, c) * (d, e, f)^-1 = (a - d, b - e - (a - d) f, c - f)
        p = self.p
        x, c = np.divmod(x, p)
        a, b = np.divmod(x, p)
        y, f = np.divmod(y, p)
        d, e = np.divmod(y, p)
        top = np.subtract(a, d)
        mid = top * f
        np.subtract(b - e, mid, out=mid)
        mid %= p
        top %= p
        top *= p
        top += mid
        top *= p
        top += (c - f) % p
        return top

    @cached_property
    def abelian(self) -> bool:
        return False

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
        self._inv = self._build_inverses()
        self._inv_np = np.array(self._inv, dtype=np.int64)

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

    def _build_inverses(self) -> Tuple[int, ...]:
        inv = [0] * self.order
        for a, row in enumerate(self.table):
            inv[a] = row.index(0)
        return tuple(inv)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

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
        factors = [group_from_descriptor(d) for d in _list_param(desc, "factors")]
        if len(factors) < 2:
            raise NotAGroup("product descriptor needs at least two factors")
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


def difference_count_blocks(
    group: FiniteGroup, sets: Sequence[Sequence[int]], within: bool = False, span: int = 0
) -> Iterator[np.ndarray]:
    """Ordered pairs counted by left difference, as int64 blocks of consecutive rows.

    Yields the rows of the (len(sets), n) count matrix in order, at most
    max(1, BLOCK_CELLS // n) rows a block.  Cell (i, d) counts the pairs
    (a, b) with a in sets[i] and a * b^-1 = d, where b ranges over the other
    sets, or with within=True over sets[i] without a.  With span > 0 the
    sets' elements, in order, fall into families of span elements each, and b
    ranges over a's family only: the rows of many families of one total are
    counted in one pass.  The sets of a family must be pairwise disjoint.
    Every block is a view of one buffer that the next block overwrites: copy
    what must outlive the step.

    The pairs are taken PAIR_CHUNK at a time, over at most max(n, PAIR_CHUNK)
    bins; each step bins owner(a) * n + diff_array(a, b) with one bincount
    over the rows its a's span.
    """
    n = group.order
    m = len(sets)
    sizes = [len(s) for s in sets]
    starts = [0, *accumulate(sizes)]
    elems = np.fromiter((x for s in sets for x in s), dtype=np.int64)
    owner = np.repeat(np.arange(m, dtype=np.int64), sizes)
    span = span or len(elems)
    b_step = max(1, min(span, PAIR_CHUNK))
    a_step = max(1, PAIR_CHUNK // max(b_step, n))
    rows_per_block = max(1, BLOCK_CELLS // max(n, 1))
    buffer = np.empty(min(m, rows_per_block) * n, dtype=np.int64)
    for first in range(0, m, rows_per_block):
        last = min(m, first + rows_per_block)
        counts = buffer[: (last - first) * n]
        counts.fill(0)
        for lo in range(starts[first], starts[last], a_step):
            hi = min(lo + a_step, starts[last])
            a = elems[lo:hi, None]
            rows = owner[lo:hi, None]
            base = int(rows[0, 0]) * n  # owners ascend, so this chunk's bins start here
            offset = rows * n - base
            at = base - first * n
            home = lo - lo % span  # where a[0]'s family starts
            if hi <= home + span:
                peers, peer_rows = elems[None, home : home + span], owner[None, home : home + span]
            else:
                # a spans families, so span <= b_step: gather each a's own family
                peer = (np.arange(lo, hi) // span * span)[:, None] + np.arange(span)
                peers, peer_rows = elems[peer], owner[peer]
            for blo in range(0, span, b_step):
                b = peers[:, blo : blo + b_step]
                cols = peer_rows[:, blo : blo + b_step]
                keep = (rows == cols) & (a != b) if within else rows != cols
                keys = group.diff_array(a, b)
                keys += offset
                binned = np.bincount(keys[keep])
                counts[at : at + len(binned)] += binned
        yield counts.reshape(last - first, n)


def difference_counts(
    group: FiniteGroup, sets: Sequence[Sequence[int]], within: bool = False
) -> np.ndarray:
    """The whole (len(sets), n) count matrix: the blocks of difference_count_blocks, stacked."""
    counts = np.empty((len(sets), group.order), dtype=np.int64)
    row = 0
    for block in difference_count_blocks(group, sets, within):
        counts[row : row + len(block)] = block
        row += len(block)
    return counts


def self_difference_counts(group: FiniteGroup, members: Iterable[int]) -> np.ndarray:
    """How often each element arises as a * b^-1 over distinct members a, b."""
    return difference_counts(group, [sorted(set(members))], within=True)[0]


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


def closure(group: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators (BFS over right multiplication)."""
    gens = sorted(set(generators))
    for g in gens:
        if not 0 <= g < group.order:
            raise ValueError(f"generator {g} out of range for order {group.order}")
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return Subgroup(group, tuple(sorted(seen)), tuple(gens))


def is_subgroup(group: FiniteGroup, carrier: Iterable[int]) -> bool:
    """Whether the elements form a subgroup: they hold 0 and every a * b^-1 among them."""
    members = sorted(set(carrier))
    if not members or members[0] != 0:
        return False
    inside = np.zeros(group.order, dtype=bool)
    inside[members] = True
    return not self_difference_counts(group, members)[~inside].any()


def _carrier_of(group: FiniteGroup, subgroup) -> Tuple[int, ...]:
    if isinstance(subgroup, Subgroup):
        return subgroup.carrier
    members = tuple(sorted(set(subgroup)))
    if 0 not in members:
        raise ValueError("subgroup carrier must contain the identity 0")
    if not is_subgroup(group, members):
        raise ValueError("carrier is not closed under composition")
    return members


def left_cosets(group: FiniteGroup, subgroup) -> List[Tuple[int, ...]]:
    """Left cosets g*H, the coset of the identity first, the rest by least member."""
    carrier = _carrier_of(group, subgroup)
    seen = [False] * group.order
    cosets = []
    for x in range(group.order):
        if seen[x]:
            continue
        coset = sorted(group.mul(x, h) for h in carrier)
        for y in coset:
            seen[y] = True
        cosets.append(tuple(coset))
    return cosets


def enumerate_subgroups(group: FiniteGroup, limit: int = SUBGROUP_ORDER_LIMIT) -> List[Subgroup]:
    """All subgroups, found by closing each known subgroup with one more element.

    Sorted by order, then lexicographically on the carrier.  Guarded by a group
    order limit: beyond it the subgroup lattice can explode combinatorially.
    """
    if group.order > limit:
        raise GroupTooLarge(f"order {group.order} exceeds subgroup enumeration limit {limit}")
    trivial = Subgroup(group, (0,), ())
    found = {(0,): trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for sub in frontier:
            carrier_set = set(sub.carrier)
            for g in range(1, group.order):
                if g in carrier_set:
                    continue
                bigger = closure(group, set(sub.generators) | {g})
                if bigger.carrier not in found:
                    found[bigger.carrier] = bigger
                    fresh.append(bigger)
        frontier = fresh
    return sorted(found.values(), key=lambda s: (s.order, s.carrier))
