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
    weighted_sum,
)
from rwedf import family as family_module
from rwedf.family import reciprocal_sums, scaled_weights

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


def test_scaled_weights_and_sums():
    assert scaled_weights((3, 3, 2)) == (6, (2, 2, 3))
    fam, _ = weighted_z8()
    k, sums = reciprocal_sums(difference_profile(fam))
    assert k == 6
    assert sums == [14, 14, 14, 12, 14, 14, 14]


def test_e_delta_and_e_hat():
    fam, _ = weighted_z8()
    prof = difference_profile(fam)
    assert e_delta(fam, prof, 4) == Fraction(2, 3)
    assert e_delta(fam, prof, 1) == Fraction(7, 9)
    assert e_hat(fam, prof) == Fraction(7, 9)
    assert r_bound(8, 3, 8) == Fraction(16, 21)
    with pytest.raises(IdentityDelta):
        e_delta(fam, prof, 0)


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
    assert reciprocal_sums(prof) == (6, [14, 14, 14, 12, 14, 14, 14])
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
