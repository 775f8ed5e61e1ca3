import hashlib
from fractions import Fraction

import pytest

from rwedf import (
    BadResidueClass,
    CyclicGroup,
    DihedralGroup,
    ElementaryAbelianGroup,
    FieldGF,
    GroupTooLarge,
    HeisenbergGroup,
    NotADifferenceSet,
    NotPrimePower,
    OverlappingSubgroups,
    PartitionFailure,
    classify,
    closure,
    complement_pair,
    cyclotomic_squares,
    desarguesian_star_partition,
    f21_difference_set,
    f21_fixture,
    f21_group,
    heisenberg_partition,
    m2_edf,
    m2_gsedf,
    m2_sedf,
    nonzero_singletons,
    prime_power_factor,
    singletons_from_difference_set,
    subgroup_star_family,
    trivial_families,
    two_prime_power_construction,
)

from helpers import reference_spread, scalar_mul


def test_prime_power_factor():
    assert prime_power_factor(8) == (2, 3)
    assert prime_power_factor(9) == (3, 2)
    assert prime_power_factor(13) == (13, 1)
    assert prime_power_factor(12) is None
    assert prime_power_factor(1) is None


def test_field_moduli_are_the_least_packed():
    assert FieldGF(2, 1).modulus == [0, 1]
    assert FieldGF(2, 2).modulus == [1, 1, 1]
    assert FieldGF(2, 3).modulus == [1, 1, 0, 1]
    assert FieldGF(2, 4).modulus == [1, 1, 0, 0, 1]
    assert FieldGF(3, 2).modulus == [1, 0, 1]
    assert FieldGF(5, 2).modulus == [2, 0, 1]


@pytest.mark.parametrize("p,a", [(2, 1), (2, 3), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_field_axioms(p, a):
    f = FieldGF(p, a)
    q = f.q
    additive = ElementaryAbelianGroup(p, a)  # the field's addition on the same packing
    for x in range(q):
        assert additive.mul(x, additive.inv(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
    # multiplicative group is cyclic of order q - 1
    orders = set()
    for x in range(1, q):
        k, y = 1, x
        while y != 1:
            y = f.mul(y, x)
            k += 1
        orders.add(k)
    assert max(orders) == q - 1
    assert all((q - 1) % k == 0 for k in orders)


def test_field_squares():
    f = FieldGF(13, 1)
    assert f.squares() == (1, 3, 4, 9, 10, 12)
    assert len(FieldGF(3, 2).squares()) == 4


def test_field_arithmetic_digest():
    # the modulus, the whole multiplication table and the squares of each field,
    # frozen: one reduction (_poly_mod) serves the product and the irreducibility test
    digest = hashlib.sha256()
    for p, a in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 3), (3, 4),
                 (5, 1), (5, 2), (5, 3), (7, 2), (13, 1)]:
        f = FieldGF(p, a)
        table = [[f.mul(x, y) for y in range(f.q)] for x in range(f.q)]
        digest.update(repr((p, a, f.modulus, table, f.squares())).encode())
    assert digest.hexdigest() == "7ea6ab1f8ca7c1813e4d52eb8b3c9ddd03ce2ab30da1c30ee385270f08e4c993"


def test_trivial_families():
    whole, singles = trivial_families(CyclicGroup(5))
    assert whole.sets == (tuple(range(5)),)
    assert singles.m == 5 and all(k == 1 for k in singles.sizes)
    assert classify(whole).trivial and classify(singles).trivial


def test_nonzero_singletons_small():
    fam = nonzero_singletons(CyclicGroup(4))
    assert fam.sets == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        nonzero_singletons(CyclicGroup(1))


def test_singletons_from_difference_set():
    fam = singletons_from_difference_set(CyclicGroup(7), (1, 2, 4))
    assert fam.sets == ((1,), (2,), (4,))
    r = classify(fam)
    assert r.edf == 1 and r.rwedf == 1
    with pytest.raises(NotADifferenceSet):
        singletons_from_difference_set(CyclicGroup(7), (1, 2, 3))


def test_complement_pair():
    fam = complement_pair(CyclicGroup(7), (0, 1, 3))
    assert fam.sets == ((0, 1, 3), (2, 4, 5, 6))
    with pytest.raises(NotADifferenceSet):
        complement_pair(CyclicGroup(7), (1, 2))
    with pytest.raises(ValueError):
        complement_pair(CyclicGroup(3), range(3))


def test_cyclotomic_squares():
    fam = cyclotomic_squares(13)
    assert fam.sets[0] == (1, 3, 4, 9, 10, 12)
    assert fam.is_partition_of_nonidentity()
    fam9 = cyclotomic_squares(9)
    assert fam9.n == 9 and fam9.sizes == (4, 4)
    assert classify(fam9).edf is not None
    with pytest.raises(NotPrimePower):
        cyclotomic_squares(15)
    with pytest.raises(BadResidueClass):
        cyclotomic_squares(7)  # 3 mod 4


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_m2_families(k):
    sedf = classify(m2_sedf(k))
    assert sedf.n == k * k + 1 and sedf.sedf == 1
    edf = classify(m2_edf(k))
    assert edf.n == 2 * k * k + 1 and edf.edf == 1
    assert edf.rwedf == Fraction(1, k)


def test_m2_gsedf():
    fam = m2_gsedf(2, 3)
    assert fam.n == 7 and fam.sets == ((0, 1), (2, 4, 6))
    r = classify(fam)
    assert r.gsedf == (1, 1)
    assert r.rwedf == Fraction(5, 6)
    with pytest.raises(ValueError):
        m2_gsedf(0, 3)


def test_subgroup_star_family():
    z6 = CyclicGroup(6)
    fam = subgroup_star_family(z6, [closure(z6, [3]), closure(z6, [2])])
    assert fam.sets == ((3,), (2, 4), (1,), (5,))
    with pytest.raises(OverlappingSubgroups, match="element 2 lies in two of the subgroups"):
        subgroup_star_family(z6, [closure(z6, [2]), closure(z6, [4])])
    with pytest.raises(ValueError):
        subgroup_star_family(z6, [closure(z6, [])])


def test_two_prime_power_construction():
    fam = two_prime_power_construction(2, 1, 3, 1)
    assert fam.n == 6
    assert fam.sets == ((3,), (2, 4), (1,), (5,))
    r = classify(fam)
    assert r.rwedf == 3 and r.bimodal.holds
    fam2 = two_prime_power_construction(3, 1, 2, 2)
    assert fam2.n == 12
    assert sorted(fam2.sizes, reverse=True) == [3, 2, 1, 1, 1, 1, 1, 1]
    assert classify(fam2).rwedf == 7
    with pytest.raises(ValueError):
        two_prime_power_construction(2, 1, 2, 1)
    with pytest.raises(ValueError):
        two_prime_power_construction(4, 1, 3, 1)


@pytest.mark.parametrize(
    "build, args",
    [
        (cyclotomic_squares, (1048589,)),  # prime, 1 mod 4, just past MAX_ORDER
        (cyclotomic_squares, (2**89 - 1,)),  # trial division would never finish
        (two_prime_power_construction, (2, 21, 3, 1)),
        (two_prime_power_construction, (2**89 - 1, 1, 3, 1)),
        (desarguesian_star_partition, (2, 7, 3)),
    ],
)
def test_constructions_refuse_large_orders_first(build, args):
    with pytest.raises(GroupTooLarge, match="group too large"):
        build(*args)


@pytest.mark.parametrize(
    "p,a,b,count",
    [(2, 1, 2, 3), (2, 1, 3, 7), (3, 1, 2, 4), (2, 2, 2, 5), (3, 2, 2, 10), (5, 1, 2, 6)],
)
def test_desarguesian_counts(p, a, b, count):
    fam = desarguesian_star_partition(p, a, b)
    q = p ** a
    assert fam.m == count == (q ** b - 1) // (q - 1)
    assert fam.n == q ** b
    assert fam.is_partition_of_nonidentity()
    assert all(k == q - 1 for k in fam.sizes)
    r = classify(fam)
    if fam.m > 1:
        assert r.edf is not None
        assert r.rwedf == fam.m - 1


# b = 1 (a single line), the perfbench spreads (2,1,10), (2,5,2), (3,1,6),
# (2,6,2) and (2,1,9), and fields of prime and prime-power order
SPREAD_SHAPES = [
    (2, 2, 1), (3, 2, 1), (2, 4, 1),
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 9), (2, 1, 10),
    (3, 1, 2), (3, 1, 3), (3, 1, 6), (5, 1, 2), (7, 1, 3),
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (2, 4, 2), (2, 5, 2), (2, 6, 2), (2, 8, 2),
    (3, 2, 2), (5, 2, 2), (11, 2, 2), (3, 4, 2),
]


@pytest.mark.parametrize("p, a, b", SPREAD_SHAPES)
def test_desarguesian_matches_scalar_field_reference(p, a, b):
    fam = desarguesian_star_partition(p, a, b)
    assert fam.group.order == p ** (a * b)
    assert fam.sets == reference_spread(p, a, b)


def test_desarguesian_line_is_closed():
    # each set plus the identity is a subgroup (a line through the origin)
    fam = desarguesian_star_partition(3, 1, 2)
    g = fam.group
    for s in fam.sets:
        members = set(s) | {0}
        assert {g.mul(x, y) for x in members for y in members} == members
    with pytest.raises(ValueError):
        desarguesian_star_partition(3, 1, 1)


def test_heisenberg_partition():
    fam = heisenberg_partition(3)
    assert fam.m == 13 and all(k == 2 for k in fam.sizes)
    assert fam.is_partition_of_nonidentity()
    fam5 = heisenberg_partition(5)
    assert fam5.m == (125 - 1) // 4 == 31
    assert classify(fam5).rwedf == 30
    # elements of order 4 exist; the least of them is named
    with pytest.raises(PartitionFailure,
                       match=r"^element 5 has order 4, not 2; no star partition$"):
        heisenberg_partition(2)


def scalar_stars(p):
    """The stars of <x> over every x != 0 of H(p), each from x's powers by the scalar law."""
    g = HeisenbergGroup(p)
    stars = set()
    for x in range(1, g.order):
        powers = [x]
        while (y := scalar_mul(g, powers[-1], x)) != 0:
            powers.append(y)
        stars.add(tuple(sorted(powers)))
    return tuple(sorted(stars, key=lambda s: (-len(s), s)))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_heisenberg_partition_matches_scalar_stars(p):
    assert heisenberg_partition(p).sets == scalar_stars(p)


def test_f21_pieces():
    g = f21_group()
    assert g.order == 21
    group, members = f21_difference_set()
    assert members == (0, 1, 3, 8, 9)
    fam = f21_fixture()
    assert fam.sets[0] == members
    assert fam.sizes == (5, 16)
