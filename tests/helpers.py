"""Standing fixture families shared across the test modules, the scalar group
law that the references are written in, the dense reference classification that
the streamed profile must match, the scalar reference loops of the two
Monte Carlo games that `rwedf.simulate` must match, the scalar orbit
expansion that the search's numpy one must match, and the scalar field
construction of the Desarguesian spreads."""
from fractions import Fraction
from itertools import product

import numpy as np

from rwedf import (
    CayleyTableGroup,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    DisjointFamily,
    ElementaryAbelianGroup,
    FieldGF,
    HeisenbergGroup,
    f21_fixture,
    frac_str,
    heisenberg_partition,
)
from rwedf.constructions import f21_group

HALF = Fraction(1, 2)

# one group of every kind, products and a Cayley table included
KERNEL_POOL = [
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(9),
    CyclicGroup(16),
    ElementaryAbelianGroup(2, 4),
    ElementaryAbelianGroup(3, 2),
    ElementaryAbelianGroup(3, 3),
    ElementaryAbelianGroup(5, 2),
    DihedralGroup(1),
    DihedralGroup(4),
    DihedralGroup(7),
    HeisenbergGroup(2),
    HeisenbergGroup(3),
    HeisenbergGroup(5),
    DirectProductGroup(CyclicGroup(3), DihedralGroup(3)),
    DirectProductGroup(
        DirectProductGroup(CyclicGroup(2), HeisenbergGroup(2)), ElementaryAbelianGroup(3, 1)
    ),
    DirectProductGroup(f21_group(), CyclicGroup(2)),
    f21_group(),
]


def scalar_diff(g, a, b):
    """a * b^-1 by the closed form of g's kind, on Python ints.

    The group's own mul, inv and diff derive from its diff_array, so a
    reference written with them would check diff_array against itself; this
    law shares no code with it.
    """
    if isinstance(g, CyclicGroup):
        return (a - b) % g.n
    if isinstance(g, ElementaryAbelianGroup):
        return g.from_vector([x - y for x, y in zip(g.to_vector(a), g.to_vector(b))])
    if isinstance(g, DihedralGroup):
        # y^s x^r * (y^t x^u)^-1: y^t x^u is its own inverse, x^u's is x^-u
        n = g.n
        s, r = divmod(a, n)
        t, u = divmod(b, n)
        return (s ^ 1) * n + (u - r) % n if t else s * n + (r - u) % n
    if isinstance(g, HeisenbergGroup):
        # (a, b, c) * (d, e, f)^-1 = (a - d, b - e - (a - d) f, c - f)
        x, y, z = g.to_triple(a)
        d, e, f = g.to_triple(b)
        return g.from_triple(x - d, y - e - (x - d) * f, z - f)
    if isinstance(g, DirectProductGroup):
        k = g.h.order
        (a1, a2), (b1, b2) = divmod(a, k), divmod(b, k)
        return scalar_diff(g.g, a1, b1) * k + scalar_diff(g.h, a2, b2)
    if isinstance(g, CayleyTableGroup):
        return g.table[a][g.table[b].index(0)]
    raise TypeError(f"no scalar law for {g!r}")


def scalar_inv(g, b):
    return scalar_diff(g, 0, b)


def scalar_mul(g, a, b):
    return scalar_diff(g, a, scalar_inv(g, b))


def weighted_z8():
    """Three sets in Z_8 with constant half-weighted sum 3."""
    g = CyclicGroup(8)
    fam = DisjointFamily.of(g, (0, 1, 3), (4, 5, 7), (2, 6))
    return fam, (HALF, HALF, HALF)


def mixed_z10():
    # constant reciprocal sum 2 without any of the classical structures
    g = CyclicGroup(10)
    return DisjointFamily.of(g, (0,), (5,), (1, 9), (2, 3))


def bimodal_z12():
    g = CyclicGroup(12)
    return DisjointFamily.of(g, (3, 6, 9), (4, 8), (1,), (2,), (5,), (7,), (10,), (11,))


def coset_z33():
    # digits (a, b) encode as 3a + b
    g = ElementaryAbelianGroup(3, 2)
    return DisjointFamily.of(g, (4, 8), (1, 2), (5, 7), (3, 6))


def pair_z7():
    g = CyclicGroup(7)
    return DisjointFamily.of(g, (0, 1, 3), (2, 4, 5, 6))


def star_d10():
    # five reflections then the rotation subgroup star; s*5+r encoding
    g = DihedralGroup(5)
    return DisjointFamily.of(g, (5,), (6,), (7,), (8,), (9,), (1, 2, 3, 4))


def all_fixtures():
    """(label, family, weights) for the eight standing examples."""
    fam8, w8 = weighted_z8()
    return [
        ("weighted_z8", fam8, w8),
        ("mixed_z10", mixed_z10(), None),
        ("bimodal_z12", bimodal_z12(), None),
        ("coset_z33", coset_z33(), None),
        ("pair_z7", pair_z7(), None),
        ("pair_f21", f21_fixture(), None),
        ("star_d10", star_d10(), None),
        ("heisenberg_27", heisenberg_partition(3), None),
    ]


def reference_counts(family):
    """N_i(delta) for delta = 0..n-1 by a loop over every cross pair (scalar law)."""
    g = family.group
    rows = [[0] * g.order for _ in family.sets]
    for i, a_set in enumerate(family.sets):
        for j, b_set in enumerate(family.sets):
            if i != j:
                for a in a_set:
                    for b in b_set:
                        rows[i][scalar_diff(g, a, b)] += 1
    return rows


def reference_classification(family, weights=None):
    """Every key of classify(family, weights).to_json_dict() but n, m and sizes,
    check by check over the whole count matrix, as classify read them before the
    profile was streamed."""
    rows = [row[1:] for row in reference_counts(family)]
    m, n, sizes = family.m, family.n, family.sizes
    total = sum(sizes)
    cols = list(zip(*rows))
    equal = m >= 2 and len(set(sizes)) == 1
    plain = [sum(col) for col in cols]
    recip = [sum(Fraction(c, k) for c, k in zip(col, sizes)) for col in cols]
    constant = len(set(recip)) == 1
    ell = recip[0] if constant else None
    trivial = m == 1 or sizes == (1,) * n
    bound = Fraction((m - 1) * total, m * (n - 1))
    between = [(i, d + 1, c) for i, row in enumerate(rows) for d, c in enumerate(row)
               if c and c != sizes[i]]
    nonzero = [sum(1 for c in col if c) for col in cols]
    out = {
        "edf": plain[0] if equal and len(set(plain)) == 1 else None,
        "sedf": rows[0][0] if equal and len({c for row in rows for c in row}) == 1 else None,
        "gsedf": ([row[0] for row in rows]
                  if m >= 2 and all(len(set(row)) == 1 for row in rows) else None),
        "rwedf": "0" if m == 1 else frac_str(recip[0]) if constant else None,
        "rwedf_witness": (None if m == 1 or constant
                          else next(d for d, s in enumerate(recip, 1) if s != recip[0])),
        "bimodal": not between,
        "bimodal_witness": list(between[0]) if between else None,
        "e_hat": frac_str(max(recip) / m),
        "r_bound": frac_str(bound),
        "r_optimal": max(recip) / m == bound,
        "trivial": trivial,
        # (m - 1) T = (n - 1) ell: each column of an RWEDF sums to ell
        "param_identity_ok": ell is None or (n - 1) * ell == (m - 1) * total,
        "ell_below_m": None if ell is None else trivial or ell < m,
        "m2_structure": ("not-applicable" if m != 2 or ell is None
                         else "EDF" if sizes[0] == sizes[1] else "GSEDF"),
        "key_prop": ([nonzero[0], m - nonzero[0]]
                     if not between and len(set(nonzero)) == 1 else None),
    }
    if weights is not None:
        sums = [sum(Fraction(w) * c for w, c in zip(weights, col)) for col in cols]
        out["wedf"] = frac_str(sums[0]) if len(set(sums)) == 1 else None
    return out


def reference_spread(p, a, b):
    """The sets of desarguesian_star_partition(p, a, b) by scalar FieldGF.mul.

    For each anchor t and free prefix x_0..x_{t-1}, the line
    {lambda * (x_0, .., x_{t-1}, 1, 0, .., 0) : lambda != 0}, with coordinate 0
    the most significant base-q digit; the lines in order of least members.
    """
    field = FieldGF(p, a)
    q = field.q
    lines = []
    for t in range(b):
        for free in product(range(q), repeat=t):
            line = []
            for lam in field.units():
                idx = 0
                for z in [field.mul(lam, x) for x in free] + [lam] + [0] * (b - t - 1):
                    idx = idx * q + z
                line.append(idx)
            lines.append(tuple(sorted(line)))
    return tuple(sorted(lines))


def canonical_key(sets):
    """A family's sets, each sorted, in canonical order: largest first, then by members."""
    return tuple(sorted(sorted(tuple(sorted(s)) for s in sets), key=len, reverse=True))


def reference_orbit_keys(g, autos, key, dedup):
    """The canonical keys of key's orbit under right translations and autos, ascending.

    The search's expansion before it ran on arrays: each image sigma(F), then
    its translation class F' * h^-1 by the scalar law; every key, or with
    dedup "translation" the least key of each class.
    """
    keys = set()
    for sigma in autos:
        image = canonical_key([[sigma[x] for x in s] for s in key])
        translates = {canonical_key([[scalar_diff(g, x, h) for x in s] for s in image])
                      for h in range(g.order)}
        keys |= translates if dedup == "none" else {min(translates)}
    return sorted(keys)


def least_in_orbit(g, autos, key, ties):
    """Whether no image sigma(F * a^-1) of key's ties, (a, sigma index) pairs, sorts before key.

    The search's tie test before it ran on arrays, one scalar canonical key an image.
    """
    diff = g.diff_rows
    return all(canonical_key([[autos[s][diff[x][a]] for x in members] for members in key]) >= key
               for a, s in ties)


def reference_wins(family, delta):
    """Per set, 0/1 per member: does delta^-1 * x land in another set (scalar law)."""
    g = family.group
    owner = {x: i for i, s in enumerate(family.sets) for x in s}
    return [np.array([int(owner.get(scalar_mul(g, scalar_inv(g, delta), x), i) != i) for x in members])
            for i, members in enumerate(family.sets)]


def reference_play_successes(family, delta, trials, seed):
    """The fixed-shift game as a scan per set: all sources, then each set's picks in set order."""
    wins = reference_wins(family, delta)
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, family.m, size=trials)
    successes = 0
    for i, members in enumerate(family.sets):
        count = int(np.count_nonzero(sources == i))
        if count == 0:
            continue
        picks = rng.integers(0, len(members), size=count)
        successes += int(wins[i][picks].sum())
    return successes


def reference_random_delta_successes(family, trials, seed):
    """The random-shift game as a loop per (delta, set): all deltas, all sources, then picks."""
    rng = np.random.default_rng(seed)
    deltas = rng.integers(1, family.n, size=trials)
    sources = rng.integers(0, family.m, size=trials)
    successes = 0
    for d in range(1, family.n):
        wins = reference_wins(family, d)
        hit_d = sources[deltas == d]
        for i, members in enumerate(family.sets):
            count = int(np.count_nonzero(hit_d == i))
            if count == 0:
                continue
            picks = rng.integers(0, len(members), size=count)
            successes += int(wins[i][picks].sum())
    return successes
