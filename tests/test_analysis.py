import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwedf import (
    CyclicGroup,
    DihedralGroup,
    DisjointFamily,
    ElementaryAbelianGroup,
    HeisenbergGroup,
    IdentityDelta,
    ProfileTooLarge,
    closure,
    difference_profile,
    e_delta,
    e_hat,
    internal_difference_group,
    internal_differences,
    is_bimodal,
    left_cosets,
    play,
    profile_to_csv,
    r_bound,
    read_family,
    singletons_from_difference_set,
    weighted_sum,
    write_family,
)
from rwedf import family as family_module
from rwedf.classify import check_rwedf, check_wedf, rwedf_failure_witness
from rwedf.constructions import f21_fixture, m2_edf
from rwedf.family import scaled_weights

from helpers import all_fixtures, bimodal_z12, mixed_z10, star_d10, weighted_z8


def test_family_validation():
    g = CyclicGroup(6)
    with pytest.raises(ValueError, match="empty"):
        DisjointFamily(g, ((0, 1), ()))
    with pytest.raises(ValueError, match="out of range"):
        DisjointFamily(g, ((0, 6),))
    with pytest.raises(ValueError, match="increasing"):
        DisjointFamily(g, ((1, 0),))
    with pytest.raises(ValueError, match="overlaps"):
        DisjointFamily(g, ((0, 1), (1, 2)))
    # a set is checked whole for range and order before it is checked for overlap
    with pytest.raises(ValueError, match="set 1 must be strictly increasing"):
        DisjointFamily(g, ((1, 2), (3, 2)))
    with pytest.raises(ValueError, match="element 6 out of range in set 1"):
        DisjointFamily(g, ((1, 2), (2, 6)))
    fam = DisjointFamily.of(g, [5, 0], [3])
    assert fam.sets == ((0, 5), (3,))
    assert fam.sizes == (2, 1)
    assert fam.total == 3
    assert fam.support() == (0, 3, 5)


TWIN = ((0, 2), (1, 5), (3, 4))  # in Z_7, every set of size 2 so a 2-D array can hold it
TWIN_BUILDS = {
    "lists": lambda g: DisjointFamily(g, [[0, 2], [1, 5], [3, 4]]),
    "ranges": lambda g: DisjointFamily(g, (range(0, 4, 2), range(1, 6, 4), range(3, 5))),
    "array per set": lambda g: DisjointFamily(g, [np.array(s) for s in TWIN]),
    "2-D array": lambda g: DisjointFamily(g, np.array(TWIN, dtype=np.int32)),
    "numpy members": lambda g: DisjointFamily(
        g, tuple(tuple(np.uint8(x) for x in s) for s in TWIN)),
    "of arrays": lambda g: DisjointFamily.of(g, *[np.array(s[::-1]) for s in TWIN]),
}


@pytest.mark.parametrize("build", TWIN_BUILDS.values(), ids=TWIN_BUILDS)
def test_family_stores_a_tuple_of_tuples_of_int(tmp_path, build):
    g = CyclicGroup(7)
    twin = DisjointFamily(g, TWIN)
    fam = build(g)
    assert type(fam.sets) is tuple
    assert all(type(s) is tuple and all(type(x) is int for x in s) for s in fam.sets)
    assert fam == twin and hash(fam) == hash(twin)
    assert (fam.sizes, fam.total) == (twin.sizes, twin.total)
    # the twin's profile is this family's profile
    assert e_hat(fam, difference_profile(twin)) == e_hat(twin)
    write_family(tmp_path / "fam.json", fam)
    write_family(tmp_path / "twin.json", twin)
    assert (tmp_path / "fam.json").read_bytes() == (tmp_path / "twin.json").read_bytes()
    assert read_family(tmp_path / "fam.json")[0].sets == TWIN


def test_family_keeps_no_reference_to_its_input():
    sets = [[0, 2], [3]]
    fam = DisjointFamily(CyclicGroup(7), sets)
    sets[0].append(5)
    assert fam.sets == ((0, 2), (3,))


def test_family_refusals_hold_for_lists_and_arrays():
    g = CyclicGroup(6)
    for sets in ([], np.empty((0, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="a family needs at least one set"):
            DisjointFamily(g, sets)
    # a generator has no length, and the checks would spend it before the sets are stored
    with pytest.raises(TypeError, match="has no len"):
        DisjointFamily(g, (s for s in [(0, 1), (3,)]))
    with pytest.raises(ValueError, match="set 0 is empty"):
        DisjointFamily(g, [np.array([], dtype=np.int64)])
    with pytest.raises(ValueError, match="set 1 is empty"):
        DisjointFamily(g, [[0], range(0)])
    for members in ([0, True], [0, 1.0], ["0"], np.array([0.0, 1.0])):
        with pytest.raises(TypeError, match="is not an integer"):
            DisjointFamily(g, [members])
    for members in ([2, 1], np.array([2, 1]), [1, 1]):
        with pytest.raises(ValueError, match="set 0 must be strictly increasing"):
            DisjointFamily(g, [members])
    with pytest.raises(ValueError, match="element 6 out of range in set 0"):
        DisjointFamily(g, [np.array([0, 6])])
    with pytest.raises(ValueError, match="set 1 overlaps an earlier set"):
        DisjointFamily(g, np.array([[0, 1], [1, 2]]))


def test_a_family_needs_a_set():
    # a family of no sets has no source to draw: classify and play failed inside max and numpy
    g = CyclicGroup(5)
    builds = [lambda: DisjointFamily(g, ()), lambda: DisjointFamily.of(g),
              lambda: singletons_from_difference_set(g, [])]
    for build in builds:
        with pytest.raises(ValueError, match="a family needs at least one set"):
            build()


def test_partition_predicates():
    g = CyclicGroup(4)
    assert DisjointFamily.of(g, (0, 2), (1,), (3,)).is_partition_of_group()
    assert DisjointFamily.of(g, (1, 3), (2,)).is_partition_of_nonidentity()
    assert not DisjointFamily.of(g, (0, 1), (2,)).is_partition_of_nonidentity()


def test_weighted_z8_profile_rows():
    fam, _ = weighted_z8()
    prof = difference_profile(fam)
    assert prof.row(0) == (2, 2, 2, 3, 2, 2, 2)
    assert prof.row(1) == (2, 2, 2, 3, 2, 2, 2)
    assert prof.row(2) == (2, 2, 2, 0, 2, 2, 2)
    assert prof.cell(0, 4) == 3
    assert prof.column_sum(4) == 6
    assert prof.column_sum(1) == 6
    with pytest.raises(IdentityDelta):
        prof.cell(0, 0)
    with pytest.raises(IdentityDelta):
        prof.column_sum(0)


def test_mixed_z10_profile():
    fam = mixed_z10()
    prof = difference_profile(fam)
    # the two singleton rows at delta = 5 and the size-2 rows at delta = 2
    assert prof.cell(0, 5) == 1 and prof.cell(1, 5) == 1
    assert prof.cell(2, 5) == 0 and prof.cell(3, 5) == 0
    assert (prof.cell(0, 2), prof.cell(1, 2), prof.cell(2, 2), prof.cell(3, 2)) == (0, 1, 0, 2)


def test_profile_matrix_is_read_only():
    fam, _ = weighted_z8()
    prof = difference_profile(fam)
    assert prof.matrix.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        prof.matrix[0, 0] = 9
    with pytest.raises(ValueError, match="read-only"):
        np.add(prof.matrix, 1, out=prof.matrix)
    assert prof.row(0) == (2, 2, 2, 3, 2, 2, 2)


@pytest.mark.parametrize("label, fam, weights", all_fixtures(), ids=lambda v: str(v)[:12])
def test_profile_reads_are_python_ints(label, fam, weights):
    prof = difference_profile(fam)
    rows = [prof.row(i) for i in range(fam.m)]
    assert rows == [tuple(r) for r in prof.matrix.tolist()]
    assert all(type(r) is tuple and all(type(c) is int for c in r) for r in rows)
    for d in range(1, fam.n):
        cells = [prof.cell(i, d) for i in range(fam.m)]
        assert all(type(c) is int for c in cells)
        assert cells == [r[d - 1] for r in rows]
        total = prof.column_sum(d)
        assert type(total) is int and total == sum(cells)


def _dihedral_4():
    return DisjointFamily.of(DihedralGroup(4), (0, 1, 5), (2, 6), (3,))


@pytest.mark.parametrize(
    "fam", [_dihedral_4()] + [f for _, f, _ in all_fixtures()], ids=lambda f: repr(f.group)
)
def test_delta_outside_the_group_is_refused(fam):
    # no delta outside 1..n-1 may wrap round to another column
    n = fam.n
    prof = difference_profile(fam)
    reads = {
        "cell": lambda d: prof.cell(0, d),
        "column_sum": prof.column_sum,
        "e_delta": lambda d: e_delta(fam, prof, d),
        "weighted_sum": lambda d: weighted_sum(fam, prof, (1,) * fam.m, d),
        "play": lambda d: play(fam, d, trials=10, seed=0),
    }
    for name, read in reads.items():
        with pytest.raises(IdentityDelta):
            read(0)
        for d in (-1, -(n - 1), n, n + 1):
            with pytest.raises(ValueError, match=rf"delta {d} is outside .* 1\.\.{n - 1}$"):
                read(d)
        read(1)
        read(n - 1)


SHIFT_READERS = {
    "cell": lambda fam, prof, d: prof.cell(0, d),
    "column_sum": lambda fam, prof, d: prof.column_sum(d),
    "e_delta": lambda fam, prof, d: e_delta(fam, prof, d),
    "weighted_sum": lambda fam, prof, d: weighted_sum(fam, prof, (1,) * fam.m, d),
    "play": lambda fam, prof, d: play(fam, d, trials=10, seed=0),
}


@pytest.mark.parametrize("delta", [True, 2.0, 2.5, "3"], ids=repr)
@pytest.mark.parametrize("reader", SHIFT_READERS)
def test_shift_must_be_an_integer(reader, delta):
    # True would read column 0 and 2.0 index like 2: neither is rounded
    fam, _ = weighted_z8()
    prof = difference_profile(fam)
    read = SHIFT_READERS[reader]
    with pytest.raises(TypeError, match=rf"delta {re.escape(repr(delta))} is not an integer"):
        read(fam, prof, delta)
    assert read(fam, prof, np.int64(2)) == read(fam, prof, 2)


def refused(value, name, bound):
    """pytest.raises for a value that is not an int or numpy integer, or lies outside its range."""
    if type(value) is int:
        return pytest.raises(ValueError, match=rf"{name} {value} .*{re.escape(bound)}")
    return pytest.raises(TypeError, match=rf"{name} {re.escape(repr(value))} is not an integer")


@pytest.mark.parametrize("bad", [True, 1.0, "0", -1, 6], ids=repr)
def test_family_members_must_be_integers(bad):
    # True was taken as the member 1, and 1.0 raised a raw bytearray TypeError
    g = CyclicGroup(6)
    with refused(bad, "element", "out of range in set 0"):
        DisjointFamily(g, ((bad, 2), (3,)))
    assert e_hat(DisjointFamily(g, ((np.int64(1), 2), (3,)))) == e_hat(
        DisjointFamily(g, ((1, 2), (3,))))


@pytest.mark.parametrize("index", [True, 1.0, "0", -1, 2], ids=repr)
@pytest.mark.parametrize("reader", ["row", "cell"])
def test_set_index_must_be_an_integer(reader, index):
    # row(-1) wrapped round to the last set and row(True) returned the whole matrix
    prof = difference_profile(DisjointFamily(CyclicGroup(6), ((0, 1), (3,))))
    read = {"row": prof.row, "cell": lambda i: prof.cell(i, 2)}[reader]
    with refused(index, "set index", "outside 0..1"):
        read(index)
    assert read(np.int64(1)) == read(1)


@pytest.mark.parametrize("delta", [True, 2.5, 0, -1, 6], ids=repr)
@pytest.mark.parametrize("reader", ["cell", "column_sum"])
def test_bad_shift_builds_no_matrix(reader, delta):
    # column_sum read the matrix before it checked the shift, and cached it
    prof = difference_profile(DisjointFamily(CyclicGroup(6), ((0, 1), (3,))))
    read = {"cell": lambda d: prof.cell(0, d), "column_sum": prof.column_sum}[reader]
    with pytest.raises((TypeError, ValueError)):
        read(delta)
    assert "matrix" not in vars(prof)
    assert read(np.int64(2)) == read(2)


def test_scaled_weights_and_sums():
    assert scaled_weights((3, 3, 2)) == (6, (2, 2, 3))
    fam, _ = weighted_z8()
    prof = difference_profile(fam)
    assert prof.scale == 6
    assert prof.reciprocal == (14, 14, 14, 12, 14, 14, 14)


def test_e_delta_and_e_hat():
    fam, _ = weighted_z8()
    prof = difference_profile(fam)
    assert e_delta(fam, prof, 4) == Fraction(2, 3)
    assert e_delta(fam, prof, 1) == Fraction(7, 9)
    assert e_hat(fam, prof) == Fraction(7, 9)
    assert r_bound(8, 3, 8) == Fraction(16, 21)
    with pytest.raises(IdentityDelta):
        e_delta(fam, prof, 0)


def test_e_hat_on_a_group_of_order_one():
    lone = DisjointFamily.of(CyclicGroup(1), (0,))
    with pytest.raises(ValueError, match="at least one non-identity element"):
        e_hat(lone)


def test_r_bound_arguments():
    assert r_bound(10, 4, 6) == Fraction(1, 2)
    with pytest.raises(ValueError):
        r_bound(1, 1, 1)
    with pytest.raises(ValueError):
        r_bound(5, 2, 6)


def test_internal_differences():
    z8 = CyclicGroup(8)
    assert internal_differences(z8, (0, 1, 3)) == (1, 2, 3, 5, 6, 7)
    assert internal_differences(z8, (4,)) == ()
    z12 = CyclicGroup(12)
    assert internal_difference_group(z12, (3, 6, 9)).carrier == (0, 3, 6, 9)
    assert internal_difference_group(z12, (7,)).carrier == (0,)
    # out-of-range members are refused, not read mod n
    z7 = CyclicGroup(7)
    with pytest.raises(ValueError, match="element 9 out of range for order 7"):
        internal_differences(z7, (0, 9))
    with pytest.raises(ValueError, match="element -1 out of range for order 7"):
        internal_difference_group(z7, (-1, 3))


def test_internal_difference_group_minimality():
    # any subgroup whose coset contains the set must contain the generated one
    z12 = CyclicGroup(12)
    members = (1, 5, 9)
    gen = internal_difference_group(z12, members)
    h = closure(z12, [4])
    coset = next(c for c in left_cosets(z12, h) if 1 in c)
    assert all(x in coset for x in members)
    assert set(gen.carrier) <= set(h.carrier)


def test_bimodal_verdicts():
    fam, _ = weighted_z8()
    verdict = is_bimodal(fam)
    assert not verdict.holds
    assert verdict.witness == (0, 1, 2)  # first cell strictly between 0 and 3
    assert is_bimodal(bimodal_z12()).holds
    assert is_bimodal(star_d10()).holds
    assert is_bimodal(mixed_z10()).witness == (2, 1, 1)


def test_weighted_sum_and_weights_guards():
    from rwedf.errors import BadWeight

    fam, w = weighted_z8()
    prof = difference_profile(fam)
    assert weighted_sum(fam, prof, w, 4) == 3
    assert weighted_sum(fam, prof, w, 1) == 3
    assert weighted_sum(fam, prof, (1, 1, 1), 4) == 6
    with pytest.raises(BadWeight):
        weighted_sum(fam, prof, (Fraction(1, 2), Fraction(1, 2)), 1)
    with pytest.raises(BadWeight):
        weighted_sum(fam, prof, (0, 1, 1), 1)
    with pytest.raises(BadWeight):
        weighted_sum(fam, prof, (Fraction(3, 2), 1, 1), 1)


def test_translate_preserves_profile():
    fam = star_d10()
    prof = difference_profile(fam)
    for g in range(fam.n):
        moved = fam.translate(g)
        assert difference_profile(moved).matrix.tolist() == prof.matrix.tolist()


def test_dense_matrix_cell_budget(monkeypatch):
    fam, weights = weighted_z8()  # 3 sets x 7 deltas = 21 cells
    monkeypatch.setattr(family_module, "DENSE_CELL_LIMIT", 21)
    assert difference_profile(fam).row(0) == (2, 2, 2, 3, 2, 2, 2)
    monkeypatch.setattr(family_module, "DENSE_CELL_LIMIT", 20)
    prof = difference_profile(fam)
    reads = [lambda: prof.matrix, lambda: prof.row(0), lambda: prof.cell(0, 1),
             lambda: prof.column_sum(1), lambda: weighted_sum(fam, prof, weights, 1),
             lambda: profile_to_csv(prof.matrix)]
    for read in reads:
        with pytest.raises(ProfileTooLarge, match="3 x 7 = 21 cells exceeds DENSE_CELL_LIMIT 20"):
            read()
    assert isinstance(ProfileTooLarge("x"), ValueError)
    # the whole-family reads never build the matrix
    assert e_hat(fam, prof) == Fraction(7, 9) and e_delta(fam, prof, 4) == Fraction(2, 3)
    assert (prof.scale, prof.reciprocal) == (6, (14, 14, 14, 12, 14, 14, 14))
    assert is_bimodal(fam, prof).holds is False
    assert "matrix" not in vars(prof)


def test_profile_without_dense_rows():
    # a sparse family in a large group: only its 3 elements are ever paired
    g = CyclicGroup(3000)
    fam = DisjointFamily.of(g, (0, 1), (5,))
    prof = difference_profile(fam)
    assert prof.cell(0, 2995) == 1 and prof.cell(0, 2996) == 1
    assert prof.cell(1, 5) == 1 and prof.cell(1, 4) == 1
    assert sum(prof.row(0)) == 2 and sum(prof.row(1)) == 2


GROUP_POOL = [
    CyclicGroup(2),
    CyclicGroup(5),
    CyclicGroup(8),
    CyclicGroup(12),
    ElementaryAbelianGroup(3, 2),
    DihedralGroup(5),
    HeisenbergGroup(3),
]


@st.composite
def families(draw, pool=GROUP_POOL, max_m=4):
    group = draw(st.sampled_from(pool))
    n = group.order
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 8))))
    m = draw(st.integers(1, min(max_m, len(support))))
    assign = [draw(st.integers(0, m - 1)) for _ in support]
    assign[:m] = range(m)  # keep every set non-empty
    sets = [[] for _ in range(m)]
    for x, j in zip(support, assign):
        sets[j].append(x)
    return DisjointFamily.of(group, *sets)


@settings(max_examples=120, deadline=None)
@given(families())
def test_row_sums_count_all_pairs(fam):
    prof = difference_profile(fam)
    for k, row in zip(fam.sizes, prof.matrix.tolist()):
        assert sum(row) == k * (fam.total - k)


@settings(max_examples=120, deadline=None)
@given(families())
def test_cell_and_support_bounds(fam):
    prof = difference_profile(fam)
    total = fam.total
    for k, row in zip(fam.sizes, prof.matrix.tolist()):
        assert all(c <= min(k, total - k) for c in row)
        if fam.m >= 2:
            assert sum(1 for c in row if c) >= max(k, total - k)


@settings(max_examples=120, deadline=None)
@given(families())
def test_mean_rate_is_the_averaging_bound(fam):
    if fam.n < 2:
        return
    prof = difference_profile(fam)
    mean = sum(
        (e_delta(fam, prof, d) for d in range(1, fam.n)), Fraction(0)
    ) / (fam.n - 1)
    assert mean == r_bound(fam.n, fam.m, fam.total)
    assert e_hat(fam, prof) >= mean


@settings(max_examples=80, deadline=None)
@given(families(), st.data())
def test_right_translation_invariance(fam, data):
    g = data.draw(st.integers(0, fam.n - 1))
    assert (difference_profile(fam.translate(g)).matrix.tolist()
            == difference_profile(fam).matrix.tolist())


@settings(max_examples=80, deadline=None)
@given(families(max_m=2))
def test_two_set_row_symmetry(fam):
    # N_2(delta) = N_1(delta^-1) in every group, not just abelian ones
    if fam.m != 2:
        return
    prof = difference_profile(fam)
    inv = fam.group.inv
    for d in range(1, fam.n):
        assert prof.cell(1, d) == prof.cell(0, inv(d))


@settings(max_examples=80, deadline=None)
@given(families())
def test_bimodal_witness_is_exact(fam):
    if fam.n < 2:
        return
    prof = difference_profile(fam)
    verdict = is_bimodal(fam, prof)
    if verdict.holds:
        for k, row in zip(fam.sizes, prof.matrix.tolist()):
            assert set(row) <= {0, k}
    else:
        i, d, c = verdict.witness
        assert prof.cell(i, d) == c
        assert 0 < c < fam.sizes[i]


# every public reader given a family and its profile, at shift 5 where it takes one
FAMILY_READERS = {
    "e_hat": lambda fam, prof: e_hat(fam, prof),
    "e_delta": lambda fam, prof: e_delta(fam, prof, 5),
    "is_bimodal": lambda fam, prof: is_bimodal(fam, prof),
    "weighted_sum": lambda fam, prof: weighted_sum(fam, prof, (1,) * fam.m, 5),
    "check_rwedf": lambda fam, prof: check_rwedf(fam, prof),
    "check_wedf": lambda fam, prof: check_wedf(fam, prof, (1,) * fam.m),
    "rwedf_failure_witness": lambda fam, prof: rwedf_failure_witness(fam, prof),
}


@pytest.mark.parametrize("reader", FAMILY_READERS)
def test_a_profile_of_another_family_is_refused(reader):
    # read off the other family's counts, e_hat(F21, profile of m2_edf(3)) would be
    # 1/6, not 21/40, and weighted_sum 1, not 8
    read = FAMILY_READERS[reader]
    f21, z10 = f21_fixture(), mixed_z10()
    for fam, other in ((f21, m2_edf(3)), (z10, mixed_z10())):  # the same sets on another group object
        with pytest.raises(ValueError, match="the profile is of another family"):
            read(fam, difference_profile(other))
    for fam in (f21, z10):
        twin = DisjointFamily(fam.group, fam.sets)  # the same group object and sets: the family's
        assert read(fam, difference_profile(twin)) == read(fam, difference_profile(fam))
    assert FAMILY_READERS["e_hat"](f21, difference_profile(f21)) == Fraction(21, 40)
    assert FAMILY_READERS["weighted_sum"](f21, difference_profile(f21)) == 8
