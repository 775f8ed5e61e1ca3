import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwedf import (
    BadDescriptor,
    CayleyTableGroup,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    DisjointFamily,
    ElementaryAbelianGroup,
    GroupTooLarge,
    HeisenbergGroup,
    MAX_ORDER,
    IdentityNotZero,
    NotAGroup,
    Subgroup,
    check_difference_set,
    check_partial_difference_set,
    closure,
    enumerate_subgroups,
    group_from_descriptor,
    internal_difference_group,
    internal_differences,
    left_cosets,
    subgroup_star_family,
)
from rwedf.constructions import f21_group
from rwedf.groups import is_subgroup, self_difference_counts

from helpers import KERNEL_POOL


def battery():
    return [
        CyclicGroup(1),
        CyclicGroup(2),
        CyclicGroup(8),
        CyclicGroup(12),
        DirectProductGroup(CyclicGroup(2), CyclicGroup(4)),
        ElementaryAbelianGroup(2, 3),
        ElementaryAbelianGroup(3, 2),
        DihedralGroup(1),
        DihedralGroup(4),
        DihedralGroup(5),
        HeisenbergGroup(3),
        f21_group(),
        CayleyTableGroup(full_table(DirectProductGroup(CyclicGroup(2), CyclicGroup(3)))),
    ]


def full_table(g):
    return [[g.mul(a, b) for b in range(g.order)] for a in range(g.order)]


@pytest.mark.parametrize("group", battery(), ids=lambda g: repr(g))
def test_constructors_satisfy_group_axioms(group):
    # CayleyTableGroup re-validates identity, Latin property and associativity,
    # so feeding it each constructor's full table is an independent axiom check
    rebuilt = CayleyTableGroup(full_table(group))
    assert rebuilt.order == group.order
    for a in range(group.order):
        assert group.mul(a, group.inv(a)) == 0
        assert group.mul(group.inv(a), a) == 0
        assert group.mul(a, 0) == a == group.mul(0, a)


@pytest.mark.parametrize("group", battery(), ids=lambda g: repr(g))
def test_abelian_flag_matches_table(group):
    table = full_table(group)
    symmetric = all(
        table[a][b] == table[b][a] for a in range(group.order) for b in range(group.order)
    )
    assert group.abelian == symmetric


@pytest.mark.parametrize("group", battery(), ids=lambda g: repr(g))
def test_element_orders_divide_group_order(group):
    for a in range(group.order):
        assert group.order % group.order_of(a) == 0
    assert group.order_of(0) == 1


@pytest.mark.parametrize("group", battery(), ids=lambda g: repr(g))
def test_descriptor_round_trip(group):
    rebuilt = group_from_descriptor(group.describe())
    assert full_table(rebuilt) == full_table(group)


# (group, |A|): units mod n, GF(p^e)^*, products of the factors' subgroups,
# and the identity alone for the other kinds
AUTOMORPHISM_CASES = [
    (CyclicGroup(1), 1),
    (CyclicGroup(2), 1),
    (CyclicGroup(12), 4),
    (CyclicGroup(11), 10),
    (ElementaryAbelianGroup(2, 1), 1),
    (ElementaryAbelianGroup(3, 1), 2),
    (ElementaryAbelianGroup(2, 3), 7),
    (ElementaryAbelianGroup(2, 4), 15),
    (ElementaryAbelianGroup(3, 2), 8),
    (ElementaryAbelianGroup(5, 2), 24),
    (DirectProductGroup(CyclicGroup(2), CyclicGroup(4)), 2),
    (DirectProductGroup(CyclicGroup(3), CyclicGroup(3)), 4),
    (DirectProductGroup(DirectProductGroup(CyclicGroup(3), ElementaryAbelianGroup(2, 2)),
                        CyclicGroup(5)), 2 * 3 * 4),
    (DirectProductGroup(DihedralGroup(3), CyclicGroup(5)), 4),
    (DihedralGroup(1), 1),
    (DihedralGroup(4), 1),
    (HeisenbergGroup(3), 1),
    (f21_group(), 1),
]


@pytest.mark.parametrize("group, size", AUTOMORPHISM_CASES, ids=lambda c: repr(c))
def test_automorphism_subgroup(group, size):
    autos = group.automorphism_subgroup()
    n = group.order
    assert len(autos) == size and autos[0] == list(range(n))
    idx = np.arange(n)
    table = group.diff_array(idx[:, None], idx)
    perms = {tuple(sigma) for sigma in autos}
    assert len(perms) == size
    for sigma in autos:
        s = np.array(sigma)
        assert s[0] == 0 and sorted(sigma) == list(range(n))
        # sigma(a * b^-1) == sigma(a) * sigma(b)^-1 for every pair
        assert (s[table] == group.diff_array(s[:, None], s)).all()
    # closed under composition: x -> sigma(tau(x)) is in A
    assert all(tuple(np.array(sigma)[tau]) in perms for sigma in autos for tau in autos)


def test_cyclic_arithmetic():
    g = CyclicGroup(8)
    assert g.mul(3, 7) == 2
    assert CyclicGroup(12).inv(5) == 7
    assert CyclicGroup(1).order == 1
    assert g.diff(1, 3) == 6


def test_cyclic_rejects_bad_order():
    with pytest.raises(NotAGroup):
        CyclicGroup(0)
    with pytest.raises(NotAGroup):
        CyclicGroup(-3)


def test_elementary_abelian_equals_product_table():
    ea = ElementaryAbelianGroup(3, 2)
    prod = DirectProductGroup(CyclicGroup(3), CyclicGroup(3))
    assert full_table(ea) == full_table(prod)


def test_elementary_abelian_vectors():
    g = ElementaryAbelianGroup(3, 2)
    assert g.to_vector(5) == (1, 2)
    assert g.from_vector((1, 2)) == 5
    assert g.mul(g.from_vector((1, 2)), g.from_vector((2, 2))) == g.from_vector((0, 1))
    with pytest.raises(NotAGroup):
        ElementaryAbelianGroup(4, 2)


def test_dihedral_relations():
    g = DihedralGroup(5)
    x, y = 1, 5
    assert g.order_of(x) == 5
    assert g.order_of(y) == 2
    # x*y = y*x^-1
    assert g.mul(x, y) == g.mul(y, g.inv(x))
    assert not g.abelian
    assert DihedralGroup(2).abelian
    assert DihedralGroup(1).order == 2


def test_heisenberg_structure():
    g = HeisenbergGroup(3)
    assert g.order == 27
    assert not g.abelian
    # odd p: every non-identity element has order p
    assert all(g.order_of(a) == 3 for a in range(1, 27))
    a, b, c = g.from_triple(1, 0, 0), g.from_triple(0, 1, 0), g.from_triple(0, 0, 1)
    # commutator [a, c] lands in the centre coordinate
    comm = g.mul(g.mul(a, c), g.mul(g.inv(a), g.inv(c)))
    assert comm == b
    assert g.mul(b, a) == g.mul(a, b)


def test_f21_presentation():
    g = f21_group()
    assert g.order == 21
    assert not g.abelian
    a, b = 3, 1  # a^1 b^0 and a^0 b^1
    assert g.order_of(a) == 7
    assert g.order_of(b) == 3
    # b a b^-1 = a^2
    assert g.mul(g.mul(b, a), g.inv(b)) == 6


def test_cayley_table_validation_errors():
    with pytest.raises(IdentityNotZero):
        CayleyTableGroup([[1, 0], [0, 1]])
    with pytest.raises(NotAGroup):
        CayleyTableGroup([[0, 1], [1, 1]])  # not a Latin square
    bad = full_table(CyclicGroup(5))
    bad[3][4] = 1  # breaks both Latin property and associativity
    with pytest.raises(NotAGroup):
        CayleyTableGroup(bad)
    with pytest.raises(NotAGroup):
        CayleyTableGroup([])


def test_a_long_cycle_closes_in_few_steps(monkeypatch):
    # the BFS's long steps are spread across the frontier, so they stay long as it
    # scatters; steps near 0 would take tens of thousands of diff_array calls here
    g = CyclicGroup(1048573)
    calls = []
    law = g.diff_array

    def counted(a, b):
        calls.append(1)
        return law(a, b)

    monkeypatch.setattr(g, "diff_array", counted)
    assert closure(g, [1]).order == g.order
    assert len(calls) < 2000


def test_closure_examples():
    z12 = CyclicGroup(12)
    assert closure(z12, [4]).carrier == (0, 4, 8)
    assert closure(z12, []).carrier == (0,)
    assert closure(z12, [5]).order == 12
    d10 = DihedralGroup(5)
    assert closure(d10, [5]).carrier == (0, 5)
    assert closure(d10, [1]).carrier == (0, 1, 2, 3, 4)
    assert closure(d10, [1, 5]).order == 10
    with pytest.raises(ValueError):
        closure(z12, [12])
    # a member outside 0..n-1 is refused, not wrapped round or used as an index
    for carrier, bad in (((0, 12), 12), ((-1, 0), -1)):
        with pytest.raises(ValueError, match=f"element {bad} out of range for order 12"):
            is_subgroup(z12, carrier)


@pytest.mark.parametrize("g", [*KERNEL_POOL, f21_group()], ids=repr)
def test_scalar_law_refuses_an_element_out_of_range(g):
    """diff, inv, mul, order_of and translate refuse -1 and n, never read them mod n."""
    n = g.order
    family = DisjointFamily.of(g, [0])
    for bad in (-1, n):
        calls = [lambda: g.diff(bad, 0), lambda: g.diff(0, bad), lambda: g.inv(bad),
                 lambda: g.mul(bad, 0), lambda: g.mul(0, bad), lambda: g.order_of(bad),
                 lambda: family.translate(bad)]
        for call in calls:
            with pytest.raises(ValueError, match=f"element {bad} out of range for order {n}"):
                call()
    assert g.diff(n - 1, n - 1) == 0 and family.translate(n - 1).sets == ((n - 1,),)


@pytest.mark.parametrize("g", [*KERNEL_POOL, f21_group()], ids=repr)
def test_scalar_law_refuses_a_non_integer_element(g):
    """A float or a bool is refused before the range check, never rounded or read as 0 or 1."""
    family = DisjointFamily.of(g, [0])
    for bad in (0.0, 1.5, g.order - 0.5, True, np.bool_(False)):
        calls = [lambda: g.diff(bad, 0), lambda: g.diff(0, bad), lambda: g.inv(bad),
                 lambda: g.mul(bad, 0), lambda: g.mul(0, bad), lambda: g.order_of(bad),
                 lambda: family.translate(bad)]
        for call in calls:
            with pytest.raises(TypeError, match=re.escape(f"element {bad!r} is not an integer")):
                call()
    last = np.int64(g.order - 1)
    assert g.diff(last, last) == 0 and family.translate(last).sets == ((g.order - 1,),)


MEMBER_LIST_READERS = {
    "internal_differences": internal_differences,
    "internal_difference_group": internal_difference_group,
    "self_difference_counts": self_difference_counts,
    "is_subgroup": lambda g, members: is_subgroup(g, [0, *members]),
    "left_cosets": lambda g, members: left_cosets(g, [0, *members]),
    "check_difference_set": check_difference_set,
    "check_partial_difference_set": check_partial_difference_set,
    "closure": closure,
}


@pytest.mark.parametrize("bad", [1.5, 4.0, np.float64(4.0), True], ids=repr)
@pytest.mark.parametrize("reader", MEMBER_LIST_READERS)
def test_member_lists_must_be_integers(reader, bad):
    """A member that is not an integer is refused, never truncated or used as an index."""
    g = CyclicGroup(12)
    call = MEMBER_LIST_READERS[reader]
    with pytest.raises(TypeError, match=re.escape(f"element {bad!r} is not an integer")):
        call(g, [6, bad])
    # numpy integers pass, one by one or as an integer array
    expected = call(g, [4, 8])
    for good in ([np.int64(4), np.int64(8)], np.array([4, 8])):
        got = call(g, good)
        assert np.array_equal(got, expected) if isinstance(got, np.ndarray) else got == expected


def test_subgroup_star_and_contains():
    z12 = CyclicGroup(12)
    sub = closure(z12, [4])
    assert sub.star() == (4, 8)
    assert 8 in sub and 3 not in sub


def test_left_cosets():
    z12 = CyclicGroup(12)
    sub = closure(z12, [4])
    assert left_cosets(z12, sub) == [(0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)]
    d10 = DihedralGroup(5)
    rot = closure(d10, [1])
    assert left_cosets(d10, rot) == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]


def test_subgroup_carrier_without_the_identity_is_refused():
    z6 = CyclicGroup(6)
    with pytest.raises(ValueError, match="must contain the identity 0"):
        left_cosets(z6, (2, 4))
    with pytest.raises(ValueError, match="must contain the identity 0"):
        subgroup_star_family(z6, [(2, 4)])


def test_subgroup_carriers_are_checked_against_the_group():
    # a carrier from another group object, or one past n-1, is refused, not read
    # mod n or used as an index; only a Subgroup built on the group itself is
    # trusted to be closed
    z4, z6 = CyclicGroup(4), CyclicGroup(6)
    of_z8 = closure(CyclicGroup(8), [2])
    with pytest.raises(ValueError, match="element 6 out of range"):
        left_cosets(z4, of_z8)
    with pytest.raises(ValueError, match="element 9 out of range"):
        left_cosets(z6, Subgroup(z6, (0, 9)))
    with pytest.raises(ValueError, match="element 6 out of range"):
        subgroup_star_family(z4, [of_z8])
    with pytest.raises(ValueError, match="not closed"):
        left_cosets(z6, Subgroup(CyclicGroup(6), (0, 1)))
    assert left_cosets(z4, closure(CyclicGroup(4), [2])) == [(0, 2), (1, 3)]


def test_enumerate_subgroups_counts():
    assert sorted({s.order for s in enumerate_subgroups(CyclicGroup(12))}) == [1, 2, 3, 4, 6, 12]
    # Z_3 x Z_3: trivial, four order-3 lines, whole
    assert len(enumerate_subgroups(ElementaryAbelianGroup(3, 2))) == 6
    # D_10: trivial, rotations, five reflection pairs, whole
    assert len(enumerate_subgroups(DihedralGroup(5))) == 8
    assert len(enumerate_subgroups(HeisenbergGroup(3))) == 19
    subs = enumerate_subgroups(CyclicGroup(8))
    assert [s.carrier for s in subs] == [(0,), (0, 4), (0, 2, 4, 6), tuple(range(8))]


def test_enumerate_subgroups_limit():
    with pytest.raises(GroupTooLarge):
        enumerate_subgroups(CyclicGroup(12), limit=10)


def test_unknown_descriptor():
    with pytest.raises(NotAGroup):
        group_from_descriptor({"kind": "free"})


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "cyclic", "n": 7, "zz": 1},
        {"kind": "dihedral", "n": 4, "p": 2},
        {"kind": "elementary_abelian", "p": 3, "e": 2, "order": 9},
        {"kind": "heisenberg", "p": 3, "n": 27},
        {"kind": "cayley_table", "table": [[0]], "n": 1},
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}],
         "order": 6},
        # a nested factor
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                        {"kind": "product", "factors": [
                                            {"kind": "cyclic", "n": 3},
                                            {"kind": "dihedral", "n": 3, "zz": None}]}]},
    ],
)
def test_descriptor_keys_are_only_those_describe_writes(desc):
    with pytest.raises(BadDescriptor, match="unknown keys"):
        group_from_descriptor(desc)


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "cyclic", "n": MAX_ORDER + 1},
        {"kind": "dihedral", "n": MAX_ORDER // 2 + 1},
        {"kind": "elementary_abelian", "p": 2, "e": 30},
        # refused before the power is formed
        {"kind": "elementary_abelian", "p": 2, "e": 10**12},
        {"kind": "heisenberg", "p": 103},
        {"kind": "heisenberg", "p": 10**40 + 1},
        # each factor fits; the product does not
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 1 << 10},
                                        {"kind": "elementary_abelian", "p": 2, "e": 11}]},
    ],
)
def test_max_order_guard(desc):
    with pytest.raises(GroupTooLarge, match="group too large"):
        group_from_descriptor(desc)


def test_max_order_is_inclusive():
    assert group_from_descriptor({"kind": "cyclic", "n": MAX_ORDER}).order == MAX_ORDER
    assert ElementaryAbelianGroup(2, 20).order == MAX_ORDER
    # 20 factors, the most a product may have, as describe() nests them
    z2_20 = CyclicGroup(2)
    for _ in range(19):
        z2_20 = DirectProductGroup(z2_20, CyclicGroup(2))
    assert group_from_descriptor(z2_20.describe()).order == MAX_ORDER
    assert HeisenbergGroup(101).order == 101**3
    with pytest.raises(NotAGroup):
        ElementaryAbelianGroup(-3, 10**12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.data())
def test_cyclic_properties(n, data):
    g = CyclicGroup(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert g.diff(a, b) == g.mul(a, g.inv(b))
    assert g.inv(g.inv(a)) == a


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.data())
def test_dihedral_properties(n, data):
    g = DihedralGroup(n)
    a = data.draw(st.integers(0, g.order - 1))
    b = data.draw(st.integers(0, g.order - 1))
    assert g.inv(g.mul(a, b)) == g.mul(g.inv(b), g.inv(a))
    assert g.mul(a, g.inv(a)) == 0
