"""Arithmetic in GF(p^a) with elements packed into indices 0..p^a-1.

An element with polynomial coordinates c_0 + c_1 x + ... + c_{a-1} x^{a-1}
gets the index sum c_i * p^i, so the additive structure coincides with the
elementary abelian group on the same indices: field addition and negation are
``ElementaryAbelianGroup(p, a).mul`` and ``.inv``.  The reducing modulus is the
lexicographically least irreducible monic of degree a (compared high
coefficient first, which is plain integer order on the packed index).
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import NotPrimePower
from .groups import is_prime


def prime_power_factor(q: int) -> Optional[Tuple[int, int]]:
    """(p, a) with q = p^a for prime p, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            a = 0
            while q % p == 0:
                q //= p
                a += 1
            return (p, a) if q == 1 else None
        p += 1
    return (q, 1)


def _poly_mod(poly: List[int], modulus: List[int], p: int) -> List[int]:
    """The remainder of a coefficient list by a monic polynomial over Z_p, deg(modulus) long."""
    rem = list(poly)
    deg = len(modulus) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for j in range(deg):
                rem[top - deg + j] = (rem[top - deg + j] - c * modulus[j]) % p
    return (rem + [0] * deg)[:deg]


class FieldGF:
    """The finite field with p^a elements."""

    def __init__(self, p: int, a: int):
        if not is_prime(p):
            raise NotPrimePower(f"{p} is not prime")
        if a < 1:
            raise NotPrimePower(f"degree must be positive, got {a}")
        self.p = p
        self.a = a
        self.q = p**a
        self.modulus = self._least_irreducible()

    def _encode(self, coeffs: List[int]) -> int:
        x = 0
        for c in reversed(coeffs):
            x = x * self.p + c % self.p
        return x

    def _is_irreducible(self, candidate: List[int]) -> bool:
        # Trial division by every lower-degree monic, degree 1..a//2.
        a = len(candidate) - 1
        for deg in range(1, a // 2 + 1):
            for enc in range(self.p**deg):
                divisor = self._decode_any(enc, deg) + [1]
                if not any(_poly_mod(candidate, divisor, self.p)):
                    return False
        return True

    def _decode_any(self, x: int, length: int) -> List[int]:
        coeffs = []
        for _ in range(length):
            x, c = divmod(x, self.p)
            coeffs.append(c)
        return coeffs

    def _least_irreducible(self) -> List[int]:
        for enc in range(self.q):
            candidate = self._decode_any(enc, self.a) + [1]
            if self._is_irreducible(candidate):
                return candidate
        raise NotPrimePower(f"no irreducible monic of degree {self.a} over GF({self.p})")

    def mul(self, x: int, y: int) -> int:
        u, v = self._decode_any(x, self.a), self._decode_any(y, self.a)
        prod = [0] * (2 * self.a - 1)
        for i, cu in enumerate(u):
            if cu:
                for j, cv in enumerate(v):
                    prod[i + j] = (prod[i + j] + cu * cv) % self.p
        return self._encode(_poly_mod(prod, self.modulus, self.p))

    def pow(self, x: int, e: int) -> int:
        out, base = 1, x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(x, self.q - 2)

    def units(self) -> range:
        return range(1, self.q)

    def squares(self) -> Tuple[int, ...]:
        return tuple(sorted({self.mul(x, x) for x in self.units()}))
