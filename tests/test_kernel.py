"""The numpy pair-counting kernel against scalar reference loops.

Every reference here is written with the scalar group arithmetic only
(``mul`` and ``inv``), so it shares no code with ``diff_array`` or
``difference_counts``.
"""
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwedf import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    DisjointFamily,
    ElementaryAbelianGroup,
    HeisenbergGroup,
    check_difference_set,
    check_rwedf,
    check_wedf,
    closure,
    difference_profile,
    e_delta,
    e_hat,
    internal_differences,
    play,
    weighted_sum,
)
from rwedf.classify import rwedf_failure_witness
from rwedf import groups
from rwedf.constructions import f21_group
from rwedf.groups import is_subgroup
from rwedf.simulate import _Board

KERNEL_POOL = [
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(9),
    CyclicGroup(16),
    ElementaryAbelianGroup(2, 4),
    ElementaryAbelianGroup(3, 2),
    ElementaryAbelianGroup(5, 2),
    DihedralGroup(1),
    DihedralGroup(4),
    DihedralGroup(7),
    HeisenbergGroup(2),
    HeisenbergGroup(3),
    DirectProductGroup(CyclicGroup(3), DihedralGroup(3)),
    DirectProductGroup(
        DirectProductGroup(CyclicGroup(2), HeisenbergGroup(2)), ElementaryAbelianGroup(3, 1)
    ),
    DirectProductGroup(f21_group(), CyclicGroup(2)),
    f21_group(),
]


def ref_diff(g, a, b):
    return g.mul(a, g.inv(b))


def ref_counts(family):
    """N_i(delta) by a loop over every cross pair, delta = 0..n-1."""
    g = family.group
    rows = [[0] * g.order for _ in family.sets]
    for i, a_set in enumerate(family.sets):
        for j, b_set in enumerate(family.sets):
            if i != j:
                for a in a_set:
                    for b in b_set:
                        rows[i][ref_diff(g, a, b)] += 1
    return rows


def ref_self_counts(g, members):
    counts = [0] * g.order
    for a in members:
        for b in members:
            if a != b:
                counts[ref_diff(g, a, b)] += 1
    return counts


def ref_weighted_sums(family, weights):
    """sum_i w_i * N_i(delta) per delta = 1..n-1, one Fraction per cell."""
    rows = ref_counts(family)
    return [
        sum((Fraction(w) * row[d] for w, row in zip(weights, rows)), Fraction(0))
        for d in range(1, family.n)
    ]


@st.composite
def families(draw, pool=KERNEL_POOL, max_m=5):
    group = draw(st.sampled_from(pool))
    n = group.order
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 12))))
    m = draw(st.integers(1, min(max_m, len(support))))
    assign = [draw(st.integers(0, m - 1)) for _ in support]
    assign[:m] = range(m)
    sets = [[] for _ in range(m)]
    for x, j in zip(support, assign):
        sets[j].append(x)
    return DisjointFamily.of(group, *sets)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_POOL), st.data())
def test_diff_array_matches_scalar_arithmetic(g, data):
    idx = st.integers(0, g.order - 1)
    a = data.draw(st.lists(idx, min_size=1, max_size=9))
    b = data.draw(st.lists(idx, min_size=1, max_size=9))
    got = g.diff_array(np.array(a)[:, None], np.array(b)[None, :])
    assert got.tolist() == [[ref_diff(g, x, y) for y in b] for x in a]
    assert g.diff_array(a[0], np.array(b)).tolist() == [ref_diff(g, a[0], y) for y in b]
    assert g.diff_array(np.array(a), np.array(a)).tolist() == [0] * len(a)


@pytest.mark.parametrize("chunk", [1, 7, groups.PAIR_CHUNK])
def test_diff_rows_is_the_whole_difference_table(chunk, monkeypatch):
    monkeypatch.setattr(groups, "PAIR_CHUNK", chunk)
    for g in KERNEL_POOL:
        g.__dict__.pop("diff_rows", None)  # built by an earlier test or parameter
        assert g.diff_rows == [
            [ref_diff(g, a, b) for b in range(g.order)] for a in range(g.order)
        ]


# small chunks split the pairs of even a tiny family across many steps
chunks = st.sampled_from([1, 2, 5, 17, groups.PAIR_CHUNK])


@settings(max_examples=150, deadline=None)
@given(families(), chunks)
def test_profile_matches_pair_loop(fam, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "PAIR_CHUNK", chunk)
        prof = difference_profile(fam)
    expected = [tuple(row[1:]) for row in ref_counts(fam)]
    assert tuple(prof.row(i) for i in range(fam.m)) == tuple(expected)
    assert prof.matrix.dtype == np.int64
    assert prof.matrix.tolist() == [list(row) for row in expected]


@settings(max_examples=150, deadline=None)
@given(families(max_m=1), chunks)
def test_self_differences_match_pair_loop(fam, chunk):
    g, members = fam.group, fam.sets[0]
    counts = ref_self_counts(g, members)
    lam = counts[1] if g.order > 1 else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "PAIR_CHUNK", chunk)
        assert internal_differences(g, members) == tuple(d for d, c in enumerate(counts) if c)
        expected = lam if all(c == lam for c in counts[1:]) else None
        assert check_difference_set(g, members) == expected
        assert is_subgroup(g, (0, *members)) == (
            closure(g, members).carrier == tuple(sorted({0, *members}))
        )


@settings(max_examples=100, deadline=None)
@given(families(), st.data())
def test_weighted_sums_match_fractions(fam, data):
    weight = st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=60)
    weights = [data.draw(weight) for _ in range(fam.m)]
    sums = ref_weighted_sums(fam, weights)
    prof = difference_profile(fam)
    for d, s in enumerate(sums, start=1):
        assert weighted_sum(fam, prof, weights, d) == s
    assert check_wedf(fam, prof, weights) == (sums[0] if sums and len(set(sums)) == 1 else None)
    reciprocal = ref_weighted_sums(fam, [Fraction(1, k) for k in fam.sizes])
    for d, s in enumerate(reciprocal, start=1):
        assert e_delta(fam, prof, d) == s / fam.m


@settings(max_examples=100, deadline=None)
@given(families(), st.data())
def test_success_vectors_match_scalar_shift(fam, data):
    if fam.n < 2:
        return
    delta = data.draw(st.integers(1, fam.n - 1))
    g = fam.group
    owner = {x: i for i, s in enumerate(fam.sets) for x in s}
    board = _Board(fam)
    pos = np.arange(fam.total)
    wins = board.wins(np.full(fam.total, delta), pos).tolist()
    for i, members in enumerate(fam.sets):
        shifted = [g.mul(g.inv(delta), x) for x in members]
        expected = [owner.get(y, i) != i for y in shifted]
        assert wins[board.start[i] : board.start[i] + len(members)] == expected
    # a shift per trial, as the random-shift game scores its picks
    deltas = data.draw(st.lists(st.integers(1, fam.n - 1), min_size=fam.total,
                                max_size=fam.total))
    flat = [(x, i) for i, s in enumerate(fam.sets) for x in s]
    expected = [owner.get(g.mul(g.inv(d), x), i) != i for d, (x, i) in zip(deltas, flat)]
    assert board.wins(np.array(deltas, dtype=np.int64), pos).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(families())
def test_play_rate_matches_e_delta(fam):
    prof = difference_profile(fam)
    for d in range(1, fam.n):
        assert play(fam, d, trials=1, seed=d).analytic_rate == e_delta(fam, prof, d)


def test_sparse_family_in_a_large_group():
    # n > 2048 used to go through a separate per-pair branch
    g = CyclicGroup(4099)
    fam = DisjointFamily.of(g, (0, 7, 4000), (3, 2048), (4098,))
    prof = difference_profile(fam)
    assert prof.matrix.tolist() == [list(row[1:]) for row in ref_counts(fam)]
    assert sum(map(sum, prof.matrix.tolist())) == 3 * 3 + 2 * 4 + 1 * 5


def test_scaled_sums_past_int64():
    # 15 prime sizes 2..47, T = 328: lcm(sizes) is about 6.1e17, past the
    # int64 guard, so the integer-scaled sums take the exact fallback
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    g = CyclicGroup(331)
    elems = list(range(g.order))
    random.Random(20180504).shuffle(elems)
    sets, at = [], 0
    for k in primes:
        sets.append(elems[at : at + k])
        at += k
    fam = DisjointFamily.of(g, *sets)
    assert fam.total == 328

    prof = difference_profile(fam)
    assert lcm(*primes) * int(prof.matrix.max()) * fam.m >= 2**62

    sums = ref_weighted_sums(fam, [Fraction(1, k) for k in primes])
    constant = len(set(sums)) == 1
    assert check_rwedf(fam, prof) == (sums[0] if constant else None)
    witness = next((d for d, s in enumerate(sums, start=1) if s != sums[0]), None)
    assert rwedf_failure_witness(fam, prof) == witness
    assert e_hat(fam, prof) == max(sums) / fam.m
    assert e_delta(fam, prof, 5) == sums[4] / fam.m

    # weights (p - 1)/p share that denominator, and their scaled sums would
    # wrap around in int64
    weights = [Fraction(p - 1, p) for p in primes]
    sums = ref_weighted_sums(fam, weights)
    assert max(sums) * lcm(*primes) >= 2**63
    assert [weighted_sum(fam, prof, weights, d) for d in range(1, fam.n)] == sums
    assert check_wedf(fam, prof, weights) == (sums[0] if len(set(sums)) == 1 else None)


def test_weights_past_int64_on_an_empty_column():
    # the scaled weights 2^65 and 3^41 do not fit int64 even where every count is 0
    fam = DisjointFamily.of(CyclicGroup(7), (0,), (1,))
    prof = difference_profile(fam)
    weights = (Fraction(1, 3**41), Fraction(1, 2**65))
    assert weighted_sum(fam, prof, weights, 3) == 0
    assert weighted_sum(fam, prof, weights, 1) == Fraction(1, 2**65)
    assert weighted_sum(fam, prof, weights, 6) == Fraction(1, 3**41)
    assert check_wedf(fam, prof, weights) is None
